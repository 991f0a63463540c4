"""Tests for HailConfig and HailBlock."""

import inspect
import math
from dataclasses import fields, replace
from datetime import date

import pytest

from repro.cluster import CostParameters, DiskPressurePolicy
from repro.datagen import USERVISITS_SCHEMA, UserVisitsGenerator
from repro.engine import kernels
from repro.engine.lifecycle import AdaptiveLifecycleManager
from repro.engine.planner import BoundQuery
from repro.hail.config import HailConfig
from repro.hail.hail_block import HailBlock
from repro.mapreduce.job_tracker import ConcurrencyPolicy
from repro.query.annotation import HailQuery
from repro.query.predicate import Predicate


# --------------------------------------------------------------------------- config
def test_config_defaults_and_validation():
    config = HailConfig()
    assert config.replication == 3
    assert config.num_indexes == 0
    assert config.partition_size == 1024
    assert config.effective_functional_partition_size == 1024
    with pytest.raises(ValueError):
        HailConfig(replication=0)
    with pytest.raises(ValueError):
        HailConfig(partition_size=0)
    with pytest.raises(ValueError):
        HailConfig(functional_partition_size=0)
    with pytest.raises(ValueError):
        HailConfig(index_attributes=("a", "b"), replication=1)


def test_config_for_attributes_raises_replication_when_needed():
    config = HailConfig.for_attributes(["a", "b", "c", "d", "e"])
    assert config.replication == 5
    assert config.num_indexes == 5
    small = HailConfig.for_attributes(["a"])
    assert small.replication == 3


def test_config_attribute_for_replica():
    config = HailConfig.for_attributes(["visitDate", "sourceIP"])
    assert config.attribute_for_replica(0) == "visitDate"
    assert config.attribute_for_replica(1) == "sourceIP"
    assert config.attribute_for_replica(2) is None
    assert config.attribute_for_replica(-1) is None


def test_config_functional_partition_size():
    assert HailConfig(functional_partition_size=4).effective_functional_partition_size == 4


# --------------------------------------------------------------------------- one spelling
def test_knob_census():
    """Adding a knob is a deliberate one-line edit here, so the reviewer sees the count move."""
    assert len(fields(HailConfig)) == 17
    assert len(fields(ConcurrencyPolicy)) == 5
    assert len(fields(DiskPressurePolicy)) == 3
    assert len(fields(CostParameters)) == 10


#: Per builder: the policy whose own field names its keywords are (if it sets one), and the
#: prefix under which its remaining keywords are ``HailConfig`` fields.
_BUILDER_TARGETS = {
    "with_adaptive": (None, "adaptive_"),
    "with_lifecycle": (DiskPressurePolicy, "adaptive_"),
    "with_placement": (None, "placement_"),
    "with_zone_maps": (None, "zone_"),
    "with_concurrency": (ConcurrencyPolicy, ""),
    "with_persistence": (None, ""),
}
#: The one surviving alias, the positional on/off and backend arguments, and the switch whose
#: field (``index_aware_scheduling``) predates the ``placement_`` prefix.
_EXEMPT_KEYWORDS = {"max_jobs", "enabled", "backend", "directory", "scheduling"}


def test_builder_keywords_are_field_names_of_what_they_set():
    builders = {
        name: member
        for name, member in inspect.getmembers(HailConfig, inspect.isfunction)
        if name.startswith("with_")
    }
    assert set(builders) == set(_BUILDER_TARGETS)
    config_fields = {f.name for f in fields(HailConfig)}
    for name, builder in builders.items():
        policy, prefix = _BUILDER_TARGETS[name]
        policy_fields = {f.name for f in fields(policy)} if policy is not None else set()
        for keyword in list(inspect.signature(builder).parameters)[1:]:
            if keyword in _EXEMPT_KEYWORDS:
                continue
            assert keyword in policy_fields or prefix + keyword in config_fields, (name, keyword)


def test_builders_and_constructor_agree_and_stay_hashable():
    built = (
        HailConfig.for_attributes(("a",), functional_partition_size=1)
        .with_adaptive(True, offer_rate=0.5)
        .with_lifecycle(
            eviction=True,
            capacity_bytes=4096.0,
            high_watermark=0.9,
            low_watermark=0.75,
            auto_tune=True,
        )
        .with_concurrency(
            max_jobs=3, tenant_slot_quota=2, tenant_weights={"bob": 1, "alice": 2.0}
        )
    )
    direct = HailConfig(
        index_attributes=("a",),
        functional_partition_size=1,
        adaptive_indexing=True,
        adaptive_offer_rate=0.5,
        adaptive_eviction=True,
        disk_pressure=DiskPressurePolicy(4096.0, high_watermark=0.9, low_watermark=0.75),
        adaptive_auto_tune=True,
        concurrency=ConcurrencyPolicy(
            max_concurrent_jobs=3,
            tenant_slot_quota=2,
            tenant_weights={"alice": 2.0, "bob": 1.0},
        ),
    )
    assert built == direct
    assert hash(built) == hash(direct)
    assert built.concurrency.tenant_weights == (("alice", 2.0), ("bob", 1.0))


@pytest.mark.parametrize(
    "by_constructor, by_builder, message",
    [
        (
            lambda: HailConfig(
                disk_pressure=DiskPressurePolicy(low_watermark=0.9, high_watermark=0.5)
            ),
            lambda: HailConfig().with_lifecycle(low_watermark=0.9, high_watermark=0.5),
            "watermarks must satisfy",
        ),
        (
            lambda: HailConfig(concurrency=ConcurrencyPolicy(max_concurrent_jobs=0)),
            lambda: HailConfig().with_concurrency(max_jobs=0),
            "max_concurrent_jobs must be >= 1",
        ),
        (
            lambda: HailConfig(concurrency=ConcurrencyPolicy(tenant_weights={"alice": 0.0})),
            lambda: HailConfig().with_concurrency(tenant_weights={"alice": 0.0}),
            "tenant weight for 'alice' must be > 0",
        ),
        # Non-finite values would pass the range checks: a NaN capacity never reports
        # pressure, and a NaN or infinite weight fails the first preempting entitlement.
        (
            lambda: HailConfig(disk_pressure=DiskPressurePolicy(capacity_bytes=math.nan)),
            lambda: HailConfig().with_lifecycle(capacity_bytes=math.inf),
            "capacity_bytes must be positive and finite",
        ),
        (
            lambda: HailConfig(concurrency=ConcurrencyPolicy(tenant_weights={"alice": math.inf})),
            lambda: HailConfig().with_concurrency(tenant_weights={"alice": math.nan}),
            "tenant_weights: tenant weight for 'alice' must be > 0 and finite",
        ),
    ],
)
def test_bad_values_raise_the_enforcing_policys_own_error(by_constructor, by_builder, message):
    with pytest.raises(ValueError, match=message):
        by_constructor()
    with pytest.raises(ValueError, match=message):
        by_builder()


def test_flat_mirrors_are_gone_not_aliased():
    with pytest.raises(TypeError):
        HailConfig(max_concurrent_jobs=2)
    with pytest.raises(TypeError):
        HailConfig(adaptive_disk_capacity_bytes=1.0)
    with pytest.raises(TypeError):
        HailConfig().with_concurrency(slot_quota=2)
    assert not hasattr(HailConfig, "concurrency_policy")
    assert not hasattr(HailConfig(), "max_concurrent_jobs")


@pytest.mark.parametrize(
    "by_constructor, by_builder",
    [
        pytest.param(
            lambda: HailConfig(adaptive_budget_per_job=2),
            lambda: HailConfig().with_adaptive(True, budget_per_job=2),
            id="adaptive_budget_per_job",
        ),
        pytest.param(
            lambda: HailConfig(adaptive_multi_attribute=True),
            lambda: HailConfig().with_lifecycle(multi_attribute=True),
            id="adaptive_multi_attribute",
        ),
        pytest.param(
            lambda: HailConfig(adaptive_auto_tune=True, adaptive_per_attribute_tune=True),
            lambda: HailConfig().with_lifecycle(auto_tune=True, per_attribute_tune=True),
            id="adaptive_per_attribute_tune",
        ),
        pytest.param(
            lambda: HailConfig(zone_maps=True, zone_split_pruning=True),
            lambda: HailConfig().with_zone_maps(True, split_pruning=True),
            id="zone_split_pruning",
        ),
        pytest.param(
            lambda: ConcurrencyPolicy(queue_policy="fifo"),
            lambda: HailConfig().with_concurrency(queue_policy="fifo"),
            id="queue_policy",
        ),
        pytest.param(
            lambda: ConcurrencyPolicy(tenant_admission_limit=1),
            lambda: HailConfig().with_concurrency(tenant_admission_limit=1),
            id="tenant_admission_limit",
        ),
        pytest.param(
            lambda: ConcurrencyPolicy(max_preemptions_per_job=3),
            lambda: HailConfig().with_concurrency(max_preemptions_per_job=3),
            id="max_preemptions_per_job",
        ),
    ],
)
def test_switches_made_constant_are_refused_not_ignored(by_constructor, by_builder):
    """A switch that became a constant is an unknown keyword, never a silently dropped one."""
    with pytest.raises(TypeError):
        by_constructor()
    with pytest.raises(TypeError):
        by_builder()


def test_from_config_hands_over_the_configs_own_pressure_policy():
    config = (
        HailConfig()
        .with_adaptive(True)
        .with_lifecycle(eviction=True, capacity_bytes=4096.0)
        .with_placement(balancer=True)
    )
    manager = AdaptiveLifecycleManager.from_config(config)
    assert manager.pressure is config.disk_pressure
    assert manager.balancer.pressure is config.disk_pressure
    # Eviction is the on/off switch: off, the manager sees the same watermarks, no capacity.
    off = AdaptiveLifecycleManager.from_config(config.with_lifecycle(eviction=False))
    assert off.pressure == replace(config.disk_pressure, capacity_bytes=None)
    assert not off.pressure.enabled


# --------------------------------------------------------------------------- block
@pytest.fixture
def uservisits_block(uservisits_sample):
    return HailBlock.build(
        USERVISITS_SCHEMA,
        uservisits_sample[:200],
        sort_attribute="visitDate",
        partition_size=8,
        logical_partition_size=1024,
    )


def test_build_sorts_by_sort_attribute(uservisits_block, uservisits_sample):
    assert uservisits_block.sort_attribute == "visitDate"
    column = uservisits_block.pax.column("visitDate")
    assert list(column) == sorted(column)
    # The block still contains exactly the same records, just reordered.
    assert sorted(map(repr, uservisits_block.pax.records())) == sorted(
        map(repr, uservisits_sample[:200])
    )
    assert uservisits_block.logical_partition_size == 1024
    assert uservisits_block.index is not None
    assert uservisits_block.index.attribute == "visitDate"


def test_build_without_sort_attribute(uservisits_sample):
    block = HailBlock.build(USERVISITS_SCHEMA, uservisits_sample[:50], sort_attribute=None)
    assert block.index is None
    assert block.pax.records() == uservisits_sample[:50]
    assert block.index_size_bytes() == 0


@pytest.mark.parametrize("attribute", ["sourceIP", "adRevenue", "visitDate"])
def test_resorted_equals_build_over_the_same_rows(uservisits_sample, attribute):
    """One sort-and-index step: re-sorting a payload is byte-identical to building it anew."""
    source = HailBlock.build(
        USERVISITS_SCHEMA,
        uservisits_sample[:200],
        sort_attribute="visitDate",
        partition_size=8,
        bad_lines=["not|a|row"],
        logical_partition_size=1024,
    )
    source.pax_layout = False
    resorted = source.resorted(attribute)
    built = HailBlock.build(
        USERVISITS_SCHEMA,
        source.pax.records(),
        attribute,
        partition_size=8,
        bad_lines=["not|a|row"],
        logical_partition_size=1024,
    )
    assert resorted.pax.to_bytes() == built.pax.to_bytes()
    assert resorted.index.partition_keys == built.index.partition_keys
    assert resorted.index.describe() == built.index.describe()
    assert resorted.zone_ranges() == built.zone_ranges()
    assert resorted.size_bytes() == built.size_bytes()
    assert resorted.bad_lines == ("not|a|row",)
    assert (resorted.partition_size, resorted.logical_partition_size) == (8, 1024)
    assert resorted.pax_layout is False  # carried over from the source payload
    built.pax_layout = False
    assert resorted.replica_info(2) == built.replica_info(2)


def test_resorted_none_strips_the_index_in_place(uservisits_block):
    plain = uservisits_block.resorted(None)
    assert plain.index is None and plain.sort_attribute is None
    assert plain.pax.records() == uservisits_block.pax.records()  # row order kept
    info = plain.replica_info(1, origin="evicted")
    assert (info.indexed_attribute, info.index_size_bytes, info.origin) == (None, 0, "evicted")
    assert info.block_size_bytes == plain.size_bytes()
    assert info.zone_ranges == uservisits_block.zone_ranges()


def test_block_requires_consistent_index_and_sort_attribute(uservisits_sample):
    from repro.layouts.pax import PaxBlock

    pax = PaxBlock.from_records(USERVISITS_SCHEMA, uservisits_sample[:10])
    with pytest.raises(ValueError):
        HailBlock(pax, "visitDate", None)


def test_describe_and_size_accounting(uservisits_block):
    assert uservisits_block.size_bytes() > uservisits_block.data_size_bytes()
    described = uservisits_block.describe()
    assert described["layout"] == "pax+index(visitDate)"
    assert described["records"] == 200


def test_candidate_rows_uses_index_for_matching_attribute(uservisits_block):
    predicate = Predicate.between("visitDate", date(1999, 1, 1), date(2000, 1, 1))
    lookup, used_index = uservisits_block.candidate_rows(_sort_clause(uservisits_block, predicate))
    assert used_index
    assert lookup.num_rows < uservisits_block.num_records
    matching = kernels.filter_range(
        uservisits_block.pax, predicate, USERVISITS_SCHEMA, lookup.start_row, lookup.end_row
    )
    expected = [r for r in uservisits_block.pax.records() if predicate.matches(r, USERVISITS_SCHEMA)]
    assert len(matching) == len(expected)


def test_candidate_rows_falls_back_to_scan_for_other_attributes(uservisits_block):
    predicate = Predicate.between("adRevenue", 1.0, 10.0)
    lookup, used_index = uservisits_block.candidate_rows(_sort_clause(uservisits_block, predicate))
    assert not used_index
    assert lookup.num_rows == uservisits_block.num_records


def test_projection_and_columns_to_read(uservisits_block):
    predicate = Predicate.between("visitDate", date(1999, 1, 1), date(2000, 1, 1))
    lookup, _ = uservisits_block.candidate_rows(_sort_clause(uservisits_block, predicate))
    rows = kernels.filter_range(
        uservisits_block.pax, predicate, USERVISITS_SCHEMA, lookup.start_row, lookup.end_row
    )
    projected = uservisits_block.pax.batch(rows, [USERVISITS_SCHEMA.index_of("sourceIP")]).rows()
    assert projected and all(len(p) == 1 for p in projected)
    columns = _columns_to_read(uservisits_block, predicate, ["sourceIP"])
    assert columns == ["visitDate", "sourceIP"]
    assert _columns_to_read(uservisits_block, None, None) == USERVISITS_SCHEMA.field_names


def test_columns_to_read_row_layout_returns_all(uservisits_block):
    uservisits_block.pax_layout = False
    predicate = Predicate.between("visitDate", date(1999, 1, 1), date(2000, 1, 1))
    assert _columns_to_read(uservisits_block, predicate, ["sourceIP"]) == USERVISITS_SCHEMA.field_names
    uservisits_block.pax_layout = True


def _sort_clause(block: HailBlock, predicate: Predicate):
    """The predicate's first clause on the block's sort attribute (``None`` without one), as
    the job's bound query hands it to ``candidate_rows``."""
    bound = BoundQuery.bind(HailQuery(filter=predicate), block.schema)
    return bound.first_clauses.get(block.sort_attribute, (None, False))[0]


def _columns_to_read(block, predicate, projection):
    """The column names a scan of ``block`` fetches for the query, by the bound query's rule."""
    annotation = HailQuery(
        filter=predicate, projection=tuple(projection) if projection is not None else None
    )
    bound = BoundQuery.bind(annotation, block.schema)
    return [block.schema.fields[index].name for index in bound.read_indexes(block.pax_layout)]


def test_bad_records_kept_in_block(uservisits_sample):
    block = HailBlock.build(
        USERVISITS_SCHEMA,
        uservisits_sample[:20],
        sort_attribute="sourceIP",
        bad_lines=["broken-line", "another|bad"],
    )
    assert len(block.bad_lines) == 2
    assert block.bad_records_size_bytes() > 0
    assert block.describe()["bad_records"] == 2


def test_variable_offsets_exist_for_string_columns(uservisits_block):
    assert "sourceIP" in uservisits_block.variable_offsets
    assert "destURL" in uservisits_block.variable_offsets
    assert "duration" not in uservisits_block.variable_offsets
    # One offset per logical partition: miniature blocks have a single partition.
    assert len(uservisits_block.variable_offsets["sourceIP"]) == 1
