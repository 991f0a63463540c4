"""Session/Dataset behaviour: differential identity to the legacy path, batching, stats.

Covers the acceptance criteria of the declarative-API PR: DSL-compiled queries are plan- and
result-identical to hand-built ``Query`` runs on all three systems, ``run_batch`` drives
adaptive convergence within one session, and ``session.stats()`` surfaces the ``ADAPTIVE_*``
counters of a batch.
"""

from __future__ import annotations

import dataclasses
from datetime import date

import pytest

from repro.api import Dataset, Session, UnsupportedExpressionError, col
from repro.api.logical import LogicalQuery
from repro.baselines import HadoopPlusPlusSystem, HadoopSystem
from repro.cluster import Cluster, CostModel, CostParameters
from repro.datagen import UserVisitsGenerator
from repro.datagen.synthetic import SYNTHETIC_SCHEMA, VALUE_RANGE, SyntheticGenerator
from repro.hail import HailConfig, HailSystem
from repro.hail.predicate import Predicate
from repro.workloads.query import Query

_PATH = "/logs/uservisits"
_PROBE = "172.101.11.46"


def _cost() -> CostModel:
    return CostModel(CostParameters(enable_variance=False))


def _tri_system_session() -> Session:
    hail = HailSystem(
        Cluster.homogeneous(4, seed=1),
        config=HailConfig(
            index_attributes=("visitDate", "sourceIP", "adRevenue"),
            functional_partition_size=1,
            splitting_policy=False,
        ),
        cost=_cost(),
    )
    hadoop = HadoopSystem(Cluster.homogeneous(4, seed=1), cost=_cost())
    hadoopplusplus = HadoopPlusPlusSystem(
        Cluster.homogeneous(4, seed=1),
        trojan_attribute="sourceIP",
        cost=_cost(),
        functional_partition_size=1,
    )
    session = Session([hail, hadoop, hadoopplusplus])
    rows = UserVisitsGenerator(seed=3, probe_ip_rate=1 / 200).generate(600)
    session.upload(_PATH, rows, UserVisitsGenerator().schema, rows_per_block=100)
    return session


@pytest.fixture(scope="module")
def tri_session() -> Session:
    """One deployment of all three systems with Bob's index configuration (no adaptivity)."""
    return _tri_system_session()


# --------------------------------------------------------------------------- differential
def _legacy_and_dsl(session: Session):
    """(hand-built legacy Query, equivalent DSL dataset) pairs for three Bob-style queries."""
    visits = session.dataset(_PATH)
    return [
        (
            Query(
                name="legacy-q1",
                predicate=Predicate.between("visitDate", date(1999, 1, 1), date(2000, 1, 1)),
                projection=("sourceIP",),
            ),
            visits.where(
                col("visitDate").between(date(1999, 1, 1), date(2000, 1, 1))
            ).select("sourceIP"),
        ),
        (
            Query(
                name="legacy-q2",
                predicate=Predicate.equals("sourceIP", _PROBE),
                projection=("searchWord", "duration", "adRevenue"),
            ),
            visits.where(col("sourceIP") == _PROBE).select(
                "searchWord", "duration", "adRevenue"
            ),
        ),
        (
            Query(
                name="legacy-q3",
                predicate=Predicate(
                    Predicate.equals("sourceIP", _PROBE).clauses
                    + Predicate.between("adRevenue", 0.0, 500.0).clauses
                ),
                projection=("searchWord",),
            ),
            visits.where(
                (col("adRevenue") >= 0.0)
                & (col("sourceIP") == _PROBE)
                & (col("adRevenue") <= 500.0)
            ).select("searchWord"),
        ),
    ]


@pytest.mark.parametrize("system", ["HAIL", "Hadoop", "Hadoop++"])
def test_dsl_differential_equal_to_legacy_queries(tri_session, system):
    """DSL-built queries are result- AND executed-plan-identical to hand-built ones."""
    for legacy, dataset in _legacy_and_dsl(tri_session):
        legacy_result = tri_session.run(legacy, system=system, path=_PATH)
        dsl_result = dataset.collect(system=system)
        assert dsl_result.sorted_records() == legacy_result.sorted_records()
        assert dsl_result.plan is not None and legacy_result.plan is not None
        assert dsl_result.plan.explain() == legacy_result.plan.explain()
        assert dsl_result.records, "differential pairs must not be vacuously empty"


def test_predictive_explain_matches_legacy(tri_session):
    legacy, dataset = _legacy_and_dsl(tri_session)[0]
    assert dataset.explain(system="HAIL") == tri_session.explain(
        legacy, system="HAIL", path=_PATH
    )
    assert "index_scan" in dataset.explain(system="HAIL")


# --------------------------------------------------------------------------- session basics
def test_deploy_builds_named_systems_with_own_clusters():
    session = Session.deploy(nodes=3, systems=("HAIL", "Hadoop"), index_attributes=("f1",))
    assert session.system_names == ("HAIL", "Hadoop")
    assert session.system("HAIL").cluster is not session.system("Hadoop").cluster
    with pytest.raises(KeyError):
        session.system("Spark")
    with pytest.raises(KeyError):
        Session.deploy(systems=("Spark",))


@pytest.mark.parametrize(
    "deploy_kwargs, expected",
    [
        ({"replication": 2}, 2),
        ({}, 3),
        # More index attributes than replicas still raises HAIL (alone) to one replica each.
        ({"replication": 2, "index_attributes": ("f1", "f2", "f3")}, 3),
    ],
)
def test_deploy_replication_reaches_every_system(deploy_kwargs, expected):
    """``Session.deploy(replication=N)`` used to build an N-replica Hadoop beside a 3-replica HAIL."""
    kwargs = {"index_attributes": ("f1",), **deploy_kwargs}
    session = Session.deploy(nodes=3, systems=("HAIL", "Hadoop"), **kwargs)
    assert session.system("HAIL").config.replication == expected
    assert session.system("HAIL").hdfs.namenode.replication == expected
    assert session.system("Hadoop").hdfs.namenode.replication == kwargs.get("replication", 3)
    session.upload(_PATH, SyntheticGenerator(seed=2).generate(60), SYNTHETIC_SCHEMA, rows_per_block=30)
    for name in ("HAIL", "Hadoop"):
        namenode = session.system(name).hdfs.namenode
        for block_id in namenode.file_blocks(_PATH):
            assert len(namenode.block_datanodes(block_id)) == namenode.replication


def test_upload_returns_dataset_and_reports(tri_session):
    assert tri_session.paths == (_PATH,)
    reports = tri_session.upload_reports[_PATH]
    assert set(reports) == {"HAIL", "Hadoop", "Hadoop++"}
    assert all(report.num_records == 600 for report in reports.values())
    with pytest.raises(KeyError):
        tri_session.dataset("/no/such/path")


def test_dataset_builders_are_immutable(tri_session):
    base = tri_session.dataset(_PATH)
    narrowed = base.where(col("adRevenue") >= 1.0)
    named = narrowed.named("q-name").described("label").with_selectivity(0.5)
    assert base.logical().where is None  # the original is untouched
    query = named.select("sourceIP").to_query()
    assert query.name == "q-name" and query.description == "label"
    assert query.selectivity == 0.5 and query.projection == ("sourceIP",)
    chained = narrowed.where(col("adRevenue") <= 10.0).to_query()
    assert chained.predicate == Predicate.between("adRevenue", 1.0, 10.0)
    with pytest.raises(ValueError):
        base.select()
    with pytest.raises(TypeError):
        base.where("not an expression")


def test_unnamed_datasets_get_stable_auto_names(tri_session):
    first = tri_session.dataset(_PATH).where(col("adRevenue") >= 1.0).to_query()
    second = tri_session.dataset(_PATH).where(col("adRevenue") >= 1.0).to_query()
    assert first.name != second.name
    assert _PATH in first.name


def test_a_dataset_holds_its_query_as_one_ir_node():
    fields = [field.name for field in dataclasses.fields(Dataset)]
    assert fields == ["session", "path", "_node", "_name"]


def test_with_combiner_only_switches_a_grouping(tri_session):
    data = tri_session.dataset(_PATH)
    grouped = data.with_combiner(False).group_by("sourceIP").agg("count(*)").to_query()
    assert grouped.combiner is False
    with pytest.raises(UnsupportedExpressionError, match="group_by"):
        data.with_combiner(False).to_query()  # a plain scan has no combiner to switch
    stacked = (
        (data.order_by("adRevenue").limit(3), "order_by()/limit()"),
        (data.join(data, on="sourceIP"), "join()"),
    )
    for dataset, label in stacked:
        with pytest.raises(UnsupportedExpressionError) as raised:
            dataset.with_combiner(False)
        assert str(raised.value) == (
            f"with_combiner() cannot be combined with {label}: one operator per query"
        )


@pytest.mark.parametrize("k", [2.5, True, 3.0, "3"])
def test_limit_takes_only_an_integer(tri_session, k):
    with pytest.raises(ValueError, match="k >= 1"):
        tri_session.dataset(_PATH).order_by("adRevenue").limit(k).to_query()


def test_run_rejects_unknown_items_and_missing_paths(tri_session):
    with pytest.raises(TypeError):
        tri_session.run(object())
    # A bare Query runs against the single uploaded path without an explicit path=.
    result = tri_session.run(
        Query(name="bare", predicate=Predicate.equals("sourceIP", _PROBE), projection=None)
    )
    assert result.system == "HAIL"  # the default (first) system


# --------------------------------------------------------------------------- deferred + batch
def test_submit_and_run_batch_resolve_handles():
    session = _tri_system_session()
    visits = session.dataset(_PATH)
    pending = [
        visits.where(col("sourceIP") == _PROBE).named("defer-1").submit(),
        visits.where(col("adRevenue") >= 1.0).select("sourceIP").named("defer-2").submit(
            system="Hadoop"
        ),
    ]
    assert not pending[0].done
    with pytest.raises(RuntimeError):
        pending[0].result()
    assert len(session.pending) == 2
    batch = session.run_batch()
    assert len(batch) == 2 and session.pending == ()
    assert [result.query_name for result in batch] == ["defer-1", "defer-2"]
    assert pending[0].result() is batch[0]
    assert pending[0].result().system == "HAIL"
    assert pending[1].result().system == "Hadoop"
    assert batch.total_runtime_s == pytest.approx(sum(batch.runtimes))
    with pytest.raises(KeyError):
        visits.submit(system="Spark")  # typos fail at submit time, not at drain time


def test_run_batch_accepts_logical_queries_and_queries(tri_session):
    logical = LogicalQuery(
        name="ir-q", where=col("sourceIP") == _PROBE, select=("searchWord",)
    )
    compiled = logical.compile()
    batch = tri_session.run_batch([logical, compiled], system="Hadoop", path=_PATH)
    assert batch[0].sorted_records() == batch[1].sorted_records()


def test_pending_queue_never_accumulates_resolved_handles():
    """Regression: handles must leave ``_pending`` on resolution, however they resolve.

    The queue used to grow without bound — ``submit``/``run`` cycles appended handles that
    nothing ever removed, so a long-lived session leaked every query it had ever deferred
    (and each drain re-filtered the whole history).
    """
    session = _tri_system_session()
    visits = session.dataset(_PATH)
    for cycle in range(3):
        handle = visits.where(col("sourceIP") == _PROBE).named(f"leak-{cycle}").submit()
        session.run(handle)  # resolved out-of-band, not via run_batch
        assert session._pending == []
    for cycle in range(3):
        visits.where(col("sourceIP") == _PROBE).named(f"batch-{cycle}").submit()
        session.run_batch()
        assert session._pending == []


def test_batch_failure_preserves_completed_results():
    """Regression: a mid-batch exception must carry the finished work, not discard it.

    ``run_batch`` records every completed query into the session statistics as it goes; the
    old behaviour raised the bare error and threw away the ``BatchResult`` under
    construction, so callers could never reconcile stats with results.
    """
    from repro.api import BatchExecutionError

    session = _tri_system_session()
    visits = session.dataset(_PATH)
    queries = [
        visits.where(col("sourceIP") == _PROBE).named(f"part-{i}").submit()
        for i in range(3)
    ]
    target = session.system("HAIL")
    original = target.run_query

    def failing_run_query(query, path, failure=None):
        if query.name == "part-1":
            raise RuntimeError("injected mid-batch failure")
        return original(query, path, failure=failure)

    target.run_query = failing_run_query
    try:
        with pytest.raises(BatchExecutionError) as excinfo:
            session.run_batch()
    finally:
        target.run_query = original
    error = excinfo.value
    assert error.failed_index == 1
    assert len(error.partial) == 1
    assert error.partial[0].query_name == "part-0"
    assert isinstance(error.__cause__, RuntimeError)
    # Stats and partial results agree: exactly the completed query was recorded.
    assert session.stats("HAIL").queries_run == 1
    # The completed handle resolved (and left the queue); the failed and unreached ones
    # are still pending, so the batch can be retried after fixing the cause.
    assert queries[0].done and not queries[1].done and not queries[2].done
    assert session.pending == (queries[1], queries[2])


# --------------------------------------------------------------------------- adaptivity
def _adaptive_session(**lifecycle) -> tuple[Session, "Dataset"]:
    config = HailConfig(
        index_attributes=(),  # no upload-time indexes: everything must be earned lazily
        functional_partition_size=1,
        splitting_policy=False,
        adaptive_indexing=True,
        adaptive_offer_rate=1.0,
        **lifecycle,
    )
    rows = SyntheticGenerator(seed=3).generate(800)
    # Paper-realistic scale: each functional 100-row block stands in for a 64 MB HDFS block,
    # so index scans actually beat sequential scans (at tiny scales the seeks dominate).
    block_bytes = sum(SYNTHETIC_SCHEMA.text_size(row) for row in rows[:100])
    scale = 64 * 1024 * 1024 / block_bytes
    system = HailSystem(
        Cluster.homogeneous(4, seed=7),
        config=config,
        cost=CostModel(CostParameters(enable_variance=False, data_scale=scale)),
    )
    session = Session(system)
    data = session.upload("/adaptive/synthetic", rows, SYNTHETIC_SCHEMA, rows_per_block=100)
    return session, data


def test_run_batch_drives_adaptive_convergence():
    """Acceptance: on an indexable workload with knobs on, the last batch query <= the first."""
    session, data = _adaptive_session()
    query = data.where(col("f1") < VALUE_RANGE // 10).select("f1")
    batch = session.run_batch([query] * 4)
    runtimes = batch.runtimes
    assert runtimes[-1] <= runtimes[0]
    assert min(runtimes) < runtimes[0]  # it actually got faster, not merely equal
    stats = session.stats()
    assert stats.adaptive_builds_committed > 0
    assert stats.adaptive_replicas["/adaptive/synthetic"] > 0
    assert stats.adaptive_bytes["/adaptive/synthetic"] > 0


def test_two_query_batch_reports_nonzero_adaptive_savings():
    """Satellite smoke test: session counters surface the adaptive savings of a batch."""
    session, data = _adaptive_session(adaptive_auto_tune=True)
    query = data.where(col("f1") < VALUE_RANGE // 10).select("f1")
    before = session.stats()
    assert before.queries_run == 0 and before.adaptive_builds_committed == 0
    session.run_batch([query, query])
    stats = session.stats()
    assert stats.queries_run == 2
    assert stats.adaptive_builds_committed > 0  # query 1 paid forward
    assert stats.adaptive_index_uses > 0  # query 2 cashed in
    assert stats.adaptive_saved_seconds > 0.0  # measured, not assumed
    assert stats.adaptive_build_seconds > 0.0
    assert stats.tuner_offer_rate is not None and stats.tuner_budget is not None
    assert stats.counter("MAP_INPUT_RECORDS") > 0
    # Snapshots are independent: the 'before' snapshot did not move.
    assert before.adaptive_builds_committed == 0


def test_partial_uploads_do_not_break_stats_or_dataset():
    """Regression: upload(systems=[...]) must not poison stats()/dataset() on other systems."""
    session = Session.deploy(nodes=3, systems=("HAIL", "Hadoop"), index_attributes=("f1",))
    rows = SyntheticGenerator(seed=5).generate(300)
    session.upload("/only/hadoop", rows, SYNTHETIC_SCHEMA, rows_per_block=100,
                   systems=["Hadoop"])
    # stats() on the system that never saw the path must not crash on it.
    stats = session.stats(system="HAIL")
    assert "/only/hadoop" not in stats.adaptive_replicas
    # dataset() accepts a path held by *any* system, even a non-default one...
    data = session.dataset("/only/hadoop")
    assert data.collect(system="Hadoop").records is not None
    # ...while truly unknown paths still fail early.
    with pytest.raises(KeyError):
        session.dataset("/nowhere")
    # Executing against the system that lacks the path fails with the pointed error.
    with pytest.raises(KeyError, match="upload it first"):
        data.collect(system="HAIL")


def test_stats_without_adaptivity_report_empty_footprint(tri_session):
    stats = tri_session.stats(system="Hadoop")
    assert stats.system == "Hadoop"
    assert stats.adaptive_replicas == {} and stats.adaptive_bytes == {}
    assert stats.tuner_offer_rate is None
    hail_stats = tri_session.stats()  # default system is HAIL
    assert hail_stats.adaptive_replicas.get(_PATH, 0) == 0  # upload-time indexes only


# --------------------------------------------------------------------------- stats surface
#: Every counter accessor ``SessionStats`` had as a hand-written property (commit c1d19fc),
#: with the type it returned and the counter it read.  The accessors are now answered from
#: the counter declaration table; a rename or a unit slip there fails here by name.
_PINNED_ACCESSORS = [
    ("adaptive_builds_committed", int, "ADAPTIVE_INDEXES_COMMITTED"),
    ("adaptive_build_seconds", float, "ADAPTIVE_BUILD_SECONDS"),
    ("adaptive_index_uses", int, "ADAPTIVE_INDEX_USES"),
    ("adaptive_saved_seconds", float, "ADAPTIVE_SAVED_SECONDS"),
    ("scan_fallback_blocks", int, "SCAN_FALLBACK_BLOCKS"),
    ("zone_map_skipped_blocks", int, "ZONE_MAP_SKIPPED_BLOCKS"),
    ("zone_map_pruned_bytes", float, "ZONE_MAP_PRUNED_BYTES"),
    ("adaptive_indexes_evicted", int, "ADAPTIVE_INDEXES_EVICTED"),
    ("sched_index_local", int, "SCHED_INDEX_LOCAL"),
    ("sched_plain_local", int, "SCHED_PLAIN_LOCAL"),
    ("sched_remote", int, "SCHED_REMOTE"),
    ("placement_rebuilds", int, "PLACEMENT_REREPLICATED"),
    ("placement_migrations", int, "PLACEMENT_MIGRATED"),
    ("tenant_jobs_admitted", int, "TENANT_JOBS_ADMITTED"),
    ("tenant_quota_deferrals", int, "TENANT_QUOTA_DEFERRALS"),
    ("sched_queue_wait_seconds", float, "SCHED_QUEUE_WAIT_SECONDS"),
    ("sched_jobs_interleaved", int, "SCHED_QUEUE_JOBS_INTERLEAVED"),
    ("spec_attempts_launched", int, "SPEC_ATTEMPTS_LAUNCHED"),
    ("spec_attempts_won", int, "SPEC_ATTEMPTS_WON"),
    ("spec_attempts_discarded", int, "SPEC_ATTEMPTS_DISCARDED"),
    ("spec_wasted_seconds", float, "SPEC_WASTED_SECONDS"),
    ("preempt_attempts_killed", int, "PREEMPT_ATTEMPTS_KILLED"),
    ("preempt_wasted_seconds", float, "PREEMPT_WASTED_SECONDS"),
    ("deadline_jobs_met", int, "DEADLINE_JOBS_MET"),
    ("deadline_jobs_missed", int, "DEADLINE_JOBS_MISSED"),
    ("combine_input_records", int, "COMBINE_INPUT_RECORDS"),
    ("combine_output_records", int, "COMBINE_OUTPUT_RECORDS"),
    ("shuffle_bytes_saved", float, "SHUFFLE_BYTES_SAVED"),
    ("join_merge_joins", int, "JOIN_MERGE_JOINS"),
    ("join_hash_joins", int, "JOIN_HASH_JOINS"),
    ("join_output_records", int, "JOIN_OUTPUT_RECORDS"),
    ("topk_blocks_read", int, "TOPK_BLOCKS_READ"),
    ("topk_blocks_skipped", int, "TOPK_BLOCKS_SKIPPED"),
]


@pytest.mark.parametrize("accessor, kind, counter", _PINNED_ACCESSORS)
def test_stats_accessors_keep_their_names_types_and_counters(busy_session, accessor, kind, counter):
    stats = busy_session[0].stats()
    value = getattr(stats, accessor)
    assert type(value) is kind and value == kind(stats.counter(counter))


def test_stats_accessors_cover_what_the_busy_session_did(busy_session):
    """The pinned comparison above is not 0 == 0 all the way down."""
    stats = busy_session[0].stats()
    assert stats.adaptive_builds_committed > 0 and stats.adaptive_saved_seconds > 0.0
    assert stats.zone_map_skipped_blocks > 0 and stats.zone_map_pruned_bytes > 0.0
    assert stats.sched_jobs_interleaved > 0 and stats.sched_queue_wait_seconds > 0.0
    assert stats.combine_input_records > 0 and stats.topk_blocks_skipped > 0
    # Counters that never had a hand-written accessor answer by the same rule.
    assert type(stats.bytes_read) is float and stats.bytes_read == stats.counter("BYTES_READ")
    assert type(stats.launched_map_tasks) is int and stats.launched_map_tasks > 0
    assert stats.adaptive_indexes_committed == stats.adaptive_builds_committed


@pytest.mark.parametrize(
    "name", ["nope", "Adaptive_Index_Uses", "ADAPTIVE_INDEX_USES", "__nope__", "_bytes_read"]
)
def test_stats_unknown_attributes_raise_naming_the_attribute(busy_session, name):
    stats = busy_session[0].stats()
    assert not hasattr(stats, name)
    with pytest.raises(AttributeError, match=f"'SessionStats' object has no attribute '{name}'"):
        getattr(stats, name)


def test_stats_dir_lists_every_accessor_once(busy_session):
    from repro.mapreduce.counters import DECLARED

    listed = dir(busy_session[0].stats())
    assert {accessor for accessor, _, _ in _PINNED_ACCESSORS} <= set(listed)
    assert {name.lower() for name in DECLARED} <= set(listed)
    assert {"counters", "counter", "index_local_task_fraction", "tenant"} <= set(listed)
    # No accessor shadows (or is shadowed by) a field, method or another accessor.
    assert len(listed) == len(set(listed))


def test_stats_snapshots_copy_pickle_and_stay_frozen(busy_session):
    import copy
    import dataclasses
    import pickle

    stats = busy_session[0].stats()
    # __getattr__ is probed on not-yet-initialised instances here: must not recurse.
    for clone in (copy.copy(stats), copy.deepcopy(stats), pickle.loads(pickle.dumps(stats))):
        assert clone == stats and clone is not stats
        assert clone.adaptive_index_uses == stats.adaptive_index_uses
    for name in ("queries_run", "adaptive_index_uses", "brand_new"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(stats, name, 1)
