"""Blocks, not records: the batch read path against the per-record reference.

Three kinds of test, all about the one promise that a block handled whole gives exactly what
the same block handled record by record gave:

- **call-count guards** — the work really is per block (no ``HailRecord`` per row, one numpy
  kernel call per zone-pruned block, no per-line text mapper on a well-formed block), and an
  operator's blocks stay columns from scan to shuffle (no row zipped for a group-by, no
  ``(key, value)`` pair read off a map output, the right rests ranked once per join);
- **differential, piece by piece** — ``ZoneMap.pruned_rows`` against the per-partition loop
  it replaced (kept verbatim below; its windows are the rows the flags keep),
  ``kernels.filter_ranges`` over the flags against the concatenation of per-window
  ``filter_range`` calls, ``PaxBlock.batch`` and the group-by regroup against their
  row-at-a-time forms, under both kernel backends, and the column-taking combine and reduce
  against a pair-based reference;
- **differential, end to end** — the same jobs on two identical deployments, one running the
  systems' ``map_batch`` and one with it cleared (the public per-record ``mapper`` contract),
  must agree on output *order*, counter bags, every ``MapTaskResult`` field (so the join's
  keyed pairs, task by task) and ``runtime_s``.
"""

from __future__ import annotations

import itertools
import random
import sys
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.baselines.hadoop as hadoop_module
import repro.engine.operators.join as join_module
import repro.hail.record_reader as hail_reader_module
import repro.layouts.pax as pax_module
import repro.mapreduce.job as job_module
from repro.api import Session, col
from repro.cluster import Cluster, CostModel, CostParameters
from repro.datagen import SYNTHETIC_SCHEMA, SyntheticGenerator
from repro.datagen.synthetic import VALUE_RANGE
from repro.engine import kernels
from repro.engine.access_path import AccessPath
from repro.engine.executor import VectorizedExecutor
from repro.engine.operators.aggregate import (
    AggregateSpec,
    GroupByQuery,
    _initial_partial,
    _make_regroup,
)
from repro.engine.planner import BoundQuery
from repro.hail.config import HailConfig
from repro.hail.hail_block import HailBlock
from repro.layouts.pax import ColumnBatch, PaxBlock
from repro.layouts.zonemap import ZoneMap, ranges_disjoint
from repro.mapreduce import JobConf, TextInputFormat
from repro.mapreduce.counters import Counters
from repro.mapreduce.job import Emitted, concatenated, paired
from repro.mapreduce.record_reader import TextRecordReader
from repro.mapreduce.shuffle import combine_map_output, run_reduce_phase
from repro.mapreduce.task import MapTask
from repro.query.annotation import HailQuery
from repro.query.predicate import Operator, Predicate
from repro.query.schema import FieldType, Schema

from emitted import emitted

_BACKENDS = ["python"] + (["numpy"] if kernels.HAVE_NUMPY else [])
_needs_numpy = pytest.mark.skipif(not kernels.HAVE_NUMPY, reason="numpy backend not importable")
_PATH = "/batches/data"


# --------------------------------------------------------------------------- deployments
def _lines(num_rows: int = 480, seed: int = 23) -> list[str]:
    """Synthetic text rows; the first third is salted with every kind of malformed line.

    The salt sits in the head of the file so that the later blocks of every client's share
    stay well-formed: the text mapper's column path and its whole-block fallback both run.
    """
    records = SyntheticGenerator(seed=seed).generate(num_rows)
    lines = [SYNTHETIC_SCHEMA.format_record(record) for record in records]
    width = len(SYNTHETIC_SCHEMA.fields)
    low = ["1"] * width  # f1 = 1 passes every ``f1 < bound`` filter used below

    def row(**tokens: str) -> str:
        parts = list(low)
        for name, token in tokens.items():
            parts[SYNTHETIC_SCHEMA.index_of(name)] = token
        return "|".join(parts)

    salt = [
        "1|2|3",  # wrong arity
        row(f1="abc"),  # unparsable token in the clause column
        row(f3="x"),  # unparsable token in a projected-only column
        row(f19="zz"),  # unparsable token in a column the queries never read
        row(f2="żółw"),  # non-ASCII and unparsable
        "|".join(low) + "|",  # one attribute too many
        "",  # empty line
    ]
    for position, line in enumerate(salt):
        lines.insert(3 + 11 * position, line)
    return lines


def _deploy(systems=("HAIL", "Hadoop++", "Hadoop"), adaptive: bool = True) -> Session:
    """One fresh three-system deployment over :func:`_lines` (deterministic: same bits twice)."""
    config = HailConfig.for_attributes(("f2",), functional_partition_size=4).with_zone_maps()
    if adaptive:
        config = config.with_adaptive(True, offer_rate=0.5)
    session = Session.deploy(
        nodes=4, systems=systems, hail_config=config, trojan_attribute="f2", data_scale=50.0
    )
    session.upload(_PATH, [], SYNTHETIC_SCHEMA, rows_per_block=40, raw_lines=_lines())
    return session


def _per_record(session: Session) -> Session:
    """Clear ``map_batch`` on every jobconf the session's systems build: the reference run."""
    for name in session.system_names:
        system = session.system(name)

        def without_batch(query, path, schema, emit, make=system._make_jobconf):
            jobconf = make(query, path, schema, emit)
            assert jobconf.map_batch is not None, "the systems install a map_batch themselves"
            jobconf.map_batch = None
            return jobconf

        system._make_jobconf = without_batch
    return session


def _workload(session: Session):
    """``(label, system, dataset)``: scans that hit every reader path, then the group-bys and
    joins, whose scans hand their rows to the operator's ``emit`` in both map forms."""
    data = session.dataset(_PATH)
    narrow = (col("f1") < VALUE_RANGE // 20) & (col("f4") >= 0)
    datasets = {
        "index-miss": data.where(col("f1") < VALUE_RANGE // 4).select("f1", "f3", "f5"),
        "two-clauses": data.where(narrow).select("f3"),
        "indexed": data.where(col("f2").between(0, VALUE_RANGE // 3)).select("f2", "f1"),
        "nothing": data.where(col("f1") < 0).select("f1"),
        "no-filter": data.select("f1", "f3"),
        "whole-rows": data.where(col("f1") < VALUE_RANGE // 2),
    }
    for name in session.system_names:
        for label, dataset in datasets.items():
            yield label, name, dataset.named(f"{label}-{name}")
        # Twice, so HAIL's adaptive builds of the first run are index scans in the second.
        yield "index-miss again", name, datasets["index-miss"].named(f"again-{name}")
        grouped = (
            data.where(col("f1") < VALUE_RANGE // 2)
            .group_by("f6")
            .agg("count(*)", "sum(f3)", "avg(f5)", "min(f1)", "max(f1)")
        )
        yield "group-by", name, grouped.named(f"gb-{name}")
        yield "group-by, no combiner", name, grouped.with_combiner(False).named(f"gbn-{name}")
        # A join keys both side scans' rows on top of the system's own row functions.
        left = data.where(col("f1") < VALUE_RANGE // 4).select("f2", "f1")
        right = data.where(col("f1") < VALUE_RANGE // 2).select("f3", "f2")
        yield "join", name, left.join(right, on="f2").named(f"join-{name}")
        yield "hash join", name, left.join(right, on="f2", strategy="hash").named(f"hjoin-{name}")


def _task_fields(scheduled) -> tuple:
    """Every ``MapTaskResult`` field of one accepted attempt, plus where and when it ran."""
    task = scheduled.result
    return (
        (scheduled.node_id, scheduled.start_s, scheduled.finish_s, scheduled.attempt),
        task.task_id,
        task.node_id,
        task.output,
        task.record_reader_s,
        task.map_function_s,
        task.records_read,
        task.bytes_read,
        task.used_index,
        [
            (plan.block_id, plan.datanode_id, plan.access_path, plan.attribute)
            for plan in task.block_plans
        ],
        [(build.block_id, build.attribute, build.build_seconds) for build in task.adaptive_builds],
    )


# --------------------------------------------------------------------------- end to end
@pytest.mark.parametrize("backend", _BACKENDS)
def test_batch_and_per_record_jobs_agree_on_everything(backend, monkeypatch):
    monkeypatch.setattr(kernels, "_NUMPY_MIN_ROWS", 0)  # numpy on every window, narrow ones too
    with kernels.use_backend(backend):
        batch, reference = _deploy(), _per_record(_deploy())
        emitted = 0
        for (label, name, dataset), (_, _, ref_dataset) in zip(
            _workload(batch), _workload(reference)
        ):
            got = dataset.collect(system=name)
            want = ref_dataset.collect(system=name)
            where = f"{label} on {name}"
            assert got.records == want.records, where  # same rows in the same *order*
            assert got.job.output == want.job.output, where
            assert dict(got.job.counters) == dict(want.job.counters), where
            assert got.job.runtime_s == want.job.runtime_s, where
            assert got.runtime_s == want.runtime_s, where
            assert len(got.job.task_results) == len(want.job.task_results), where
            for task, ref_task in zip(got.job.task_results, want.job.task_results):
                assert _task_fields(task) == _task_fields(ref_task), where
            emitted += len(got.records)
        assert emitted > 0
        for name in batch.system_names:
            assert batch.stats(name) == reference.stats(name), name
        assert batch.stats("HAIL").adaptive_index_builds > 0  # the adaptive path was in play


def test_malformed_lines_drop_exactly_the_rows_the_per_record_mapper_drops():
    """Hadoop parses at query time: each kind of malformed line, one block, both forms."""
    session = _deploy(systems=("Hadoop",))
    query = (
        session.dataset(_PATH)
        .where(col("f1") < VALUE_RANGE // 4)
        .select("f1", "f3", "f5")
        .to_query()
    )
    jobconf = session.system("Hadoop")._scan_jobconf(query, _PATH)
    keys, _ = jobconf.map_batch(_text_scan(_lines()[:80]))
    assert keys is None  # the block form hands on no key column, the mapper pairs
    dropped = 0
    for lines in ([line] for line in _lines()[:80]):
        scan = _text_scan(lines)
        want = [pair for line in lines for pair in jobconf.mapper(0, line) or ()]
        assert [(None, row) for row in jobconf.map_batch(scan)[1]] == want, lines
        dropped += not want
    assert dropped
    # The line with garbage in a column the query never reads is *kept* by both forms.
    unread = next(line for line in _lines() if line.endswith("|zz"))
    assert jobconf.map_batch(_text_scan([unread])) == (None, [(1, 1, 1)])


def test_a_zone_map_skipped_block_hands_on_one_empty_column_per_projected_attribute():
    session = _deploy(systems=("HAIL",), adaptive=False)
    system = session.system("HAIL")
    query = session.dataset(_PATH).where(col("f2") < 0).select("f6", "f1", "f3").to_query()
    annotation = HailQuery(filter=query.predicate, projection=query.projection)
    bound = BoundQuery.bind(annotation, system.schema_of(_PATH))
    planner = system._planner()
    skipped = 0
    for block_id in system.hdfs.namenode.file_blocks(_PATH):
        plan = planner.plan_block(block_id, bound)
        executor = VectorizedExecutor(system.hdfs, system.cost, plan.datanode_id, zone_maps=True)
        result = executor.execute(plan, bound)
        assert result.projected == ColumnBatch(([(), (), ()], 0)) and result.projected.rows() == []
        skipped += result.zone_map_skipped
    assert skipped > 0


@pytest.mark.parametrize("system", ["HAIL", "Hadoop++", "Hadoop"])
def test_skipped_blocks_and_key_only_rests_agree_with_the_per_record_map(system):
    """The column batch's two edges end to end.  A zone-map-skipped block hands on its empty
    columns, so a group-by and a join over partly skipped files regroup and key it like any
    other block; a right side that projects only the join key has rests of no column, ``()``
    per row — both exactly as the per-record map has them."""
    batch = _deploy(systems=(system,), adaptive=False)
    reference = _per_record(_deploy(systems=(system,), adaptive=False))

    def queries(session):
        data = session.dataset(_PATH)
        sparse = data.where(col("f1") < VALUE_RANGE // 50)
        left, key_only = sparse.select("f2", "f1"), data.select("f2")
        return [
            sparse.group_by("f6").agg("count(*)", "sum(f3)"),
            left.join(key_only, on="f2"),
            left.join(key_only, on="f2", strategy="hash"),
        ]

    for dataset, ref_dataset in zip(queries(batch), queries(reference)):
        got, want = dataset.collect(system=system), ref_dataset.collect(system=system)
        assert got.records and got.records == want.records
        assert got.job.output == want.job.output
        assert dict(got.job.counters) == dict(want.job.counters)
        tasks = zip(got.job.task_results, want.job.task_results)
        assert all(task.result.output == ref.result.output for task, ref in tasks)
    assert all(len(row) == 2 for row in got.records)  # (key, left f1): the rests are ()
    if system == "HAIL":
        assert batch.stats("HAIL").zone_map_skipped_blocks > 0


@pytest.mark.parametrize("system", ["HAIL", "Hadoop"])
def test_a_join_with_an_empty_upload_answers_no_rows_by_either_strategy(system):
    """An upload of no rows is a file of no blocks: its scan runs no map task, so its job has
    no key column.  Both sides empty are co-partitioned (vacuously) on any system; HAIL merges
    a populated side indexed on the key with an empty one too."""
    session = _deploy(systems=(system,), adaptive=False)
    data = session.dataset(_PATH)
    empty = session.upload("/batches/empty", [], SYNTHETIC_SCHEMA, rows_per_block=40)
    sides = [(empty, empty), (data, empty), (empty, data)]
    for (left, right), strategy in itertools.product(sides, (None, "hash")):
        join = left.select("f2", "f1").join(right.select("f3", "f2"), on="f2", strategy=strategy)
        result = join.collect(system=system)
        assert result.records == [] and result.job.output == []
        merged = result.job.counters.value(Counters.JOIN_MERGE_JOINS)
        both_empty = left is right
        assert merged == (strategy is None and (both_empty or system == "HAIL"))


def _text_scan(lines):
    from repro.engine.executor import TextScanResult

    return TextScanResult(plan=None, lines=list(lines), seconds=0.0, bytes_read=0.0)


# --------------------------------------------------------------------------- call-count guards
class _Calls:
    """Wrap a callable and count its calls."""

    def __init__(self, function):
        self.function = function
        self.count = 0

    def __call__(self, *args, **kwargs):
        self.count += 1
        return self.function(*args, **kwargs)


def test_a_hail_collect_builds_no_hail_record_and_never_calls_the_per_record_mapper(monkeypatch):
    session = _deploy(systems=("HAIL",), adaptive=False)
    system = session.system("HAIL")
    mappers = []

    def counting(query, path, schema, emit, make=system._make_jobconf):
        jobconf = make(query, path, schema, emit)
        jobconf.mapper = _Calls(jobconf.mapper)
        mappers.append(jobconf.mapper)
        return jobconf

    system._make_jobconf = counting
    records = _Calls(hail_reader_module.HailRecord)
    monkeypatch.setattr(hail_reader_module, "HailRecord", records)
    result = session.dataset(_PATH).where(col("f1") < VALUE_RANGE // 2).select("f1").collect()
    assert len(result.records) > 100
    assert result.job.counters.value("MAP_INPUT_RECORDS") > len(result.records)  # bad lines too
    assert records.count == 0
    assert [mapper.count for mapper in mappers] == [0]


def test_only_a_plain_scan_pairs_its_rows_with_the_null_key(monkeypatch):
    """No ``(None, row)`` pair is built until ``.output`` is read.

    A plain scan's map tasks hand their rows on with no key column and its job keeps none:
    ``paired`` (the one builder of such pairs) runs 0 times on the query path, as it does
    under a group-by (its batches go to the regroup) and a join (to the keying; the finish
    step passes the joined rows as they are).  Reading ``.output`` builds the pairs a keyed
    result would hold — ``[(None, row) for row in records]`` — task by task and for the job.
    """
    helper, calls = job_module.paired, []

    def counting(keys, values):
        calls.append(1)
        return helper(keys, values)

    for module in list(sys.modules.values()):
        if module.__name__.startswith("repro") and getattr(module, "paired", None) is helper:
            monkeypatch.setattr(module, "paired", counting)
    session = _deploy(systems=("HAIL",), adaptive=False)
    data = session.dataset(_PATH)
    scan = data.where(col("f1") < VALUE_RANGE // 2).select("f1", "f6").collect()
    data.where(col("f1") < VALUE_RANGE // 2).group_by("f6").agg("count(*)").collect()
    joined = data.select("f2", "f1").join(data.select("f3", "f2"), on="f2").collect()
    assert scan.records and joined.records and calls == []
    tasks = [attempt.result for attempt in scan.job.task_results]
    assert len(tasks) > 1 and all(task.keys is None for task in tasks)
    for task in tasks:
        assert task.output == [(None, row) for row in task.values]
    assert scan.job.output == [(None, row) for row in scan.records]
    assert joined.job.output == [(None, row) for row in joined.records]
    assert len(calls) == len(tasks) + 2  # one build per read


def _operator_queries(data):
    """A group-by with and without combiner, a merge join and a hash join over ``data``."""
    grouped = data.where(col("f1") < VALUE_RANGE // 2).group_by("f6").agg("count(*)", "avg(f5)")
    left = data.where(col("f1") < VALUE_RANGE // 4).select("f2", "f1")
    right = data.where(col("f1") < VALUE_RANGE // 2).select("f3", "f2")
    return {
        "group-by": grouped,
        "group-by, no combiner": grouped.with_combiner(False),
        "merge join": left.join(right, on="f2"),
        "hash join": left.join(right, on="f2", strategy="hash"),
    }


@pytest.mark.parametrize("system", ["HAIL", "Hadoop++", "Hadoop"])
def test_an_operator_reads_no_pair_off_a_map_output_and_zips_no_row_for_a_group_by(
    monkeypatch, system
):
    """Columns from scan to shuffle: the runner, the combiner, the shuffle and the join's
    finish take key and value columns, so ``Emitted.output`` is read 0 times on the query path
    (32 times per group-by and 42 per join on the ``operators`` shape when map tasks emitted
    pairs); and a group-by's regroup reads its columns straight from the batch, so no batch is
    zipped into rows (one ``PaxBlock.project`` per block when scans handed on rows)."""
    session = _deploy(systems=(system,), adaptive=False)
    reads = _Calls(job_module.Emitted.output.fget)
    zips = _Calls(ColumnBatch.rows)
    monkeypatch.setattr(job_module.Emitted, "output", property(reads))
    monkeypatch.setattr(ColumnBatch, "rows", lambda batch: zips(batch))
    for label, dataset in _operator_queries(session.dataset(_PATH)).items():
        zips.count = 0
        result = dataset.collect(system=system)
        assert result.records, label
        assert reads.count == 0, label
        if label.startswith("group-by"):
            assert zips.count == 0, label
        else:  # each block of a join's two scans zips its left rows or right rests once
            tasks = [attempt.result for attempt in result.job.task_results]
            assert zips.count == sum(len(task.block_plans) for task in tasks) > 0, label
    assert result.job.output == [(None, row) for row in result.records] and reads.count == 1


@pytest.mark.parametrize("system", ["HAIL", "Hadoop"])
def test_a_join_ranks_its_right_rests_once_whatever_the_strategy(monkeypatch, system):
    """One sort of the right rests by ``repr`` per join and one of the left rows: a hash join
    sorted each key group's rests (863 sorts per ``join-hash`` on the ``operators`` shape)."""
    session = _deploy(systems=(system,), adaptive=False)
    queries = _operator_queries(session.dataset(_PATH))
    sorts = _Calls(sorted)
    monkeypatch.setattr(join_module, "sorted", sorts, raising=False)
    for label in ("merge join", "hash join"):
        if system == "Hadoop" and label == "merge join":
            continue  # no index, so no merge strategy
        sorts.count = 0
        result = queries[label].collect(system=system)
        strategy = label.split()[0].upper()
        assert result.job.counters.value(f"JOIN_{strategy}_JOINS") == 1, label
        assert len(set(row[0] for row in result.records)) > 10, label  # many key groups
        assert sorts.count == 2, label


@pytest.mark.parametrize("per_record", [False, True], ids=["batched", "per-record"])
def test_a_text_top_k_answers_with_a_job_of_its_own(per_record):
    """Stock Hadoop ranks a full scan's rows in the finish step: the answer's job is a copy of
    the scan's holding the answer, and the scan's job is left as it ran."""
    session = _deploy(systems=("Hadoop",), adaptive=False)
    if per_record:
        _per_record(session)
    system = session.system("Hadoop")
    scans = []

    def run_job(jobconf, failure=None, run=system.run_job):
        scans.append(run(jobconf, failure))
        return scans[-1]

    system.run_job = run_job
    result = session.dataset(_PATH).order_by("f1").limit(5).collect()
    assert result.job.output == [(None, r) for r in result.records]
    (scan,) = scans
    assert scan is not result.job and len(scan.values) > len(result.records) == 5
    assert scan.output == [(None, row) for row in scan.records]


def test_a_join_or_top_k_answer_owns_its_records():
    """Changing an operator's answer in place leaves its job's output as it was: the finish
    steps hand the job a copy of the rows they answer with."""
    session = _deploy(systems=("HAIL", "Hadoop"), adaptive=False)
    data = session.dataset(_PATH)
    ranked = data.order_by("f1").limit(5)
    answers = [
        data.select("f2", "f1").join(data.select("f3", "f2"), on="f2").collect(system="HAIL"),
        ranked.collect(system="HAIL"),  # the block-wise probe
        ranked.collect(system="Hadoop"),  # the full scan, ranked by the finish step
    ]
    for answer in answers:
        pairs = answer.job.output
        assert pairs and pairs == [(None, row) for row in answer.records]
        answer.records.clear()
        assert answer.job.output == pairs


def test_an_index_scan_block_takes_a_row_range_not_a_gather(monkeypatch):
    """A single-clause index scan on the sort attribute answers each index-scanned block with
    the sorted window's run: no ``filter_ranges`` call and no ``gatherer`` (the slice
    projection), while a scan on another attribute still runs both."""
    filters = _Calls(kernels.filter_ranges)
    gathers = _Calls(pax_module.gatherer)
    monkeypatch.setattr(kernels, "filter_ranges", filters)
    monkeypatch.setattr(pax_module, "gatherer", gathers)
    session = _deploy(systems=("HAIL",), adaptive=False)
    data = session.dataset(_PATH)
    gathers.count = 0  # the upload's reorders
    for value in (VALUE_RANGE // 3, VALUE_RANGE // 2):
        result = data.where(col("f2") < value).select("f1", "f2").collect()
        assert result.records and any(plan.uses_index for plan in result.plan.block_plans)
        assert (filters.count, gathers.count) == (0, 0)
    other = data.where(col("f1") < VALUE_RANGE // 2).select("f1").collect()
    scanned = [p for p in other.plan.block_plans if p.access_path is not AccessPath.ZONE_MAP_SKIP]
    assert other.records and filters.count == gathers.count == len(scanned) > 0


@_needs_numpy
def test_a_zone_pruned_block_is_one_numpy_kernel_call(monkeypatch):
    rng = random.Random(5)
    schema = Schema.of(("k", FieldType.INT), ("v", FieldType.INT), name="guard")
    block = HailBlock.build(
        schema,
        [(rng.randrange(1000), rng.randrange(1000)) for _ in range(400)],
        sort_attribute="v",
        partition_size=4,
    )
    predicate = Predicate.comparison("k", Operator.LT, 60)
    pruned = block.zone_map.pruned_rows(predicate, schema, 0, block.num_records)
    assert len(_kept_windows(pruned, 0)) > 5
    calls = _Calls(kernels._filter_range_numpy)
    monkeypatch.setattr(kernels, "_filter_range_numpy", calls)
    with kernels.use_backend("numpy"):
        rows = kernels.filter_ranges(block.pax, predicate, schema, 0, block.num_records, pruned)
    assert calls.count == 1
    assert rows == [row for row in range(400) if block.pax.column("k")[row] < 60]


def test_the_per_line_text_mapper_is_not_called_on_a_well_formed_block(monkeypatch):
    mappers = []

    def counting_factory(query, schema, make=hadoop_module.make_line_parser):
        mappers.append(_Calls(make(query, schema)))
        return mappers[-1]

    monkeypatch.setattr(hadoop_module, "make_line_parser", counting_factory)
    session = Session.deploy(nodes=4, systems=("Hadoop",))
    rows = SyntheticGenerator(seed=3).generate(400)
    data = session.upload(_PATH, rows, SYNTHETIC_SCHEMA, rows_per_block=50)
    result = data.where(col("f1") < VALUE_RANGE // 2).select("f1", "f2").collect()
    expected = [(row[0], row[1]) for row in rows if row[0] < VALUE_RANGE // 2]
    assert sorted(result.records) == sorted(expected) and expected
    assert [mapper.count for mapper in mappers] == [0]


# --------------------------------------------------------------------------- pruned_rows
def _pruned_outside(windows, start: int, end: int):
    """The flags that keep exactly ``windows`` of ``[start, end)``: 1 on every row outside
    them, ``None`` when there is none (``ZoneMap.pruned_rows``' form)."""
    flags = bytearray(b"\1" * max(0, end - start))
    for window_start, window_end in windows:
        flags[window_start - start : window_end - start] = bytes(window_end - window_start)
    return bytes(flags) if 1 in flags else None


def _kept_windows(pruned: bytes, start: int) -> list[tuple[int, int]]:
    """The maximal row windows whose flags are 0, numbered from ``start``."""
    windows, row = [], start
    for run in pruned.split(b"\1"):
        if run:
            windows.append((row, row + len(run)))
        row += len(run) + 1
    return windows


def _reference_prune_ranges(zone_map: ZoneMap, predicate, schema, start: int, end: int):
    """``ZoneMap.prune_ranges`` as it stood before the per-clause rewrite, verbatim."""
    self = zone_map
    if start >= end:
        return []
    if predicate is None or not self.partition_zones:
        return [(start, end)]
    size = self.partition_size
    windows: list[tuple[int, int]] = []
    first = start // size
    last = (end - 1) // size
    resolved = []
    for clause in predicate.clauses:
        try:
            name = schema.fields[clause.attribute_index(schema)].name
        except (KeyError, IndexError):
            continue
        zones = self.partition_zones.get(name)
        if zones is not None:
            resolved.append((zones, *clause.value_range()))
    for partition in range(first, last + 1):
        if any(
            partition < len(zones) and ranges_disjoint(low, high, *zones[partition])
            for zones, low, high in resolved
        ):
            continue
        window_start = max(start, partition * size)
        window_end = min(end, (partition + 1) * size)
        if windows and windows[-1][1] == window_start:
            windows[-1] = (windows[-1][0], window_end)
        else:
            windows.append((window_start, window_end))
    return windows


_ZONE_SCHEMA = Schema.of(("a", FieldType.INT), ("b", FieldType.INT), ("c", FieldType.INT), name="z")
#: A zone bound: mostly small ints, sometimes ``None`` or a type ints do not compare with.
_bound = st.one_of(st.integers(-5, 25), st.integers(-5, 25), st.none(), st.sampled_from(["m", 2.5]))
_zone = st.tuples(_bound, _bound)
_operand = st.one_of(st.integers(-8, 28), st.integers(-8, 28), st.sampled_from(["m", 7.5]))


@st.composite
def _clauses(draw):
    clauses = []
    for _ in range(draw(st.integers(1, 3))):
        # "c" never has a zone column; position 9 is outside the schema: both prune nothing.
        attribute = draw(st.sampled_from(["a", "a", "b", "c", 1, 9]))
        op = draw(st.sampled_from(list(Operator)))
        operands = (draw(_operand), draw(_operand)) if op is Operator.BETWEEN else (draw(_operand),)
        clauses.append(Predicate.comparison(attribute, op, *operands).clauses[0])
    return Predicate(clauses)


@settings(max_examples=300, deadline=None)
@given(
    size=st.integers(1, 5),
    num_rows=st.integers(1, 40),
    zones_a=st.lists(_zone, max_size=45),
    zones_b=st.one_of(st.none(), st.lists(_zone, max_size=45)),
    predicate=st.one_of(st.none(), _clauses()),
    window=st.tuples(st.integers(0, 42), st.integers(0, 42)),
)
def test_prune_ranges_equals_the_per_partition_reference(
    size, num_rows, zones_a, zones_b, predicate, window
):
    """Zone tuples shorter than the window, ``None`` bounds, uncomparable types included."""
    partition_zones = {"a": tuple(zones_a)}
    if zones_b is not None:
        partition_zones["b"] = tuple(zones_b)
    zone_map = ZoneMap(
        num_rows=num_rows, partition_size=size, block_zones={}, partition_zones=partition_zones
    )
    start, end = window
    assert zone_map.pruned_rows(predicate, _ZONE_SCHEMA, start, end) == _pruned_outside(
        _reference_prune_ranges(zone_map, predicate, _ZONE_SCHEMA, start, end), start, end
    )


# --------------------------------------------------------------------------- filter_ranges
_KERNEL_SCHEMA = Schema.of(
    ("k", FieldType.INT), ("v", FieldType.DOUBLE), ("s", FieldType.STRING), name="fr"
)


@st.composite
def _windows(draw, start: int, end: int):
    """Disjoint ascending windows over ``[start, end]`` (empty ones and touching ones too)."""
    cuts = sorted(draw(st.lists(st.integers(start, end), max_size=12)))
    return [(cuts[i], cuts[i + 1]) for i in range(0, len(cuts) - 1, 2)]


@st.composite
def _kernel_case(draw):
    num_rows = draw(st.integers(0, 60))
    records = [
        (
            draw(st.integers(-9, 9)),
            draw(st.sampled_from([-2.5, 0.0, 1.5, 4.0])),
            draw(st.sampled_from("ab")),
        )
        for _ in range(num_rows)
    ]
    predicate = None
    for _ in range(draw(st.integers(0, 3))):
        attribute = draw(st.sampled_from(["k", "k", "v", "s"]))
        operand = "a" if attribute == "s" else draw(st.one_of(st.integers(-9, 9), st.just(0.5)))
        if draw(st.booleans()) and attribute != "s":
            clause = Predicate.between(attribute, operand, operand + draw(st.integers(0, 9)))
        else:
            op = draw(st.sampled_from(list(Operator)[:5]))
            clause = Predicate.comparison(attribute, op, operand)
        predicate = clause if predicate is None else Predicate(predicate.clauses + clause.clauses)
    start = draw(st.integers(0, num_rows))
    end = draw(st.integers(start, num_rows))
    pax = PaxBlock.from_records(_KERNEL_SCHEMA, records)
    return pax, predicate, (start, end), draw(_windows(start, end))


@settings(max_examples=300, deadline=None)
@given(case=_kernel_case())
def test_filter_ranges_equals_per_window_filter_range(case):
    pax, predicate, (start, end), windows = case
    pruned = _pruned_outside(windows, start, end)
    for backend in _BACKENDS:
        with kernels.use_backend(backend):
            want = [
                row
                for window_start, window_end in windows
                for row in kernels.filter_range(
                    pax, predicate, _KERNEL_SCHEMA, window_start, window_end
                )
            ]
            got = kernels.filter_ranges(pax, predicate, _KERNEL_SCHEMA, start, end, pruned)
            assert list(got) == want, backend
    # Hulls this narrow run the reference backend even on numpy: run numpy on them too.
    if kernels.HAVE_NUMPY:
        with kernels.use_backend("numpy"), mock.patch.object(kernels, "_NUMPY_MIN_ROWS", 0):
            got = kernels.filter_ranges(pax, predicate, _KERNEL_SCHEMA, start, end, pruned)
            assert list(got) == want


@pytest.mark.parametrize("backend", _BACKENDS)
def test_a_matching_row_in_a_gap_is_never_reported(backend, monkeypatch):
    """A stale synopsis flags rows that match: they stay missed."""
    pax = PaxBlock.from_records(_KERNEL_SCHEMA, [(1, 0.0, "a")] * 12)  # every row matches
    predicate = Predicate(
        Predicate.comparison("k", Operator.EQ, 1).clauses
        + Predicate.comparison("v", Operator.LE, 0.0).clauses
    )
    pruned = _pruned_outside([(1, 3), (6, 7), (9, 12)], 0, 12)
    with kernels.use_backend(backend):
        assert kernels.filter_ranges(pax, predicate, _KERNEL_SCHEMA, 0, 12, pruned) == [
            1, 2, 6, 9, 10, 11,
        ]
        if backend == "numpy":  # the numpy kernel itself; this hull is below its minimum
            monkeypatch.setattr(kernels, "_NUMPY_MIN_ROWS", 0)
            calls = _Calls(kernels._filter_range_numpy)
            monkeypatch.setattr(kernels, "_filter_range_numpy", calls)
            assert kernels.filter_ranges(pax, predicate, _KERNEL_SCHEMA, 0, 12, pruned) == [
                1, 2, 6, 9, 10, 11,
            ]
            assert calls.count == 1


# --------------------------------------------------------------------------- row rebuilds
@settings(max_examples=150, deadline=None)
@given(
    records=st.lists(
        st.tuples(st.integers(), st.floats(allow_nan=False), st.text(max_size=3)), max_size=20
    ),
    data=st.data(),
)
def test_batch_equals_row_at_a_time_reconstruction(records, data):
    pax = PaxBlock.from_records(_KERNEL_SCHEMA, records)
    row_ids = st.integers(0, max(0, len(records) - 1))
    rows = data.draw(st.lists(row_ids, max_size=25 if records else 0))
    indexes = data.draw(st.lists(st.integers(0, 2), max_size=4))
    want = [tuple(pax.columns[i][row] for i in indexes) for row in rows]
    assert pax.batch(rows, indexes).rows() == want
    assert pax.batch(iter(rows), indexes).rows() == want  # any iterable, as before


#: ``itemgetter`` returns a bare value for one index and raises for none: the gather's edges.
_EDGE_RECORDS = [(3, 0.5, "c"), (1, -0.0, "a"), (2, 1.5, "b")]


@pytest.mark.parametrize(
    "rows", [[], [1], [0, 2], [2, 0], [1, 1], [2, 2, 0], [2, 0, 1, 0]],
    ids=["none", "one", "two", "two-unsorted", "duplicate", "duplicate-unsorted", "mixed"],
)
@pytest.mark.parametrize("indexes", [[0], [2, 0], [1, 1, 2]])
def test_batch_gathers_zero_one_two_duplicate_and_unsorted_rows(rows, indexes):
    pax = PaxBlock.from_records(_KERNEL_SCHEMA, _EDGE_RECORDS)
    want = [tuple(_EDGE_RECORDS[row][i] for i in indexes) for row in rows]
    assert pax.batch(rows, indexes).rows() == want
    assert pax.batch(iter(rows), indexes).rows() == want
    assert pax.batch(rows, []).rows() == [()] * len(rows)
    # One column per index, each a tuple, however many rows: empty ones for none.
    columns = [tuple(pax.columns[i][row] for row in rows) for i in indexes]
    assert pax.batch(rows, indexes) == ColumnBatch((columns, len(rows)))


@pytest.mark.parametrize("size", [0, 1, 2, 3])
def test_reorder_follows_every_short_permutation(size):
    records = _EDGE_RECORDS[:size]
    pax = PaxBlock.from_records(_KERNEL_SCHEMA, records)
    for permutation in itertools.permutations(range(size)):
        for form in (permutation, list(permutation)):
            reordered = pax.reorder(form)
            assert reordered.records() == [records[i] for i in permutation]
            assert all(type(column) is tuple for column in reordered.columns)


_AGGREGATES = ("count(*)", "count(f2)", "sum(f2)", "min(f3)", "max(f3)", "avg(f2)")


@settings(max_examples=150, deadline=None)
@given(
    rows=st.lists(
        st.tuples(st.integers(0, 3), st.integers(-9, 9), st.integers(-9, 9)), max_size=30
    ),
    keys=st.sampled_from([("f1",), ("f1", "f3"), ("f3", "f1")]),
    specs=st.lists(st.sampled_from(_AGGREGATES), min_size=1, max_size=4),
)
def test_group_by_regroup_equals_the_per_row_loop(rows, keys, specs):
    projection = ("f1", "f2", "f3")
    query = GroupByQuery(
        name="g", keys=keys, aggregates=tuple(AggregateSpec.parse(spec) for spec in specs)
    )
    want = [
        (
            tuple(row[projection.index(key)] for key in keys),
            tuple(
                _initial_partial(
                    spec,
                    row[projection.index(spec.attribute)] if spec.attribute is not None else None,
                )
                for spec in query.aggregates
            ),
        )
        for row in rows
    ]
    assert paired(*_make_regroup(query, projection)(ColumnBatch.of_rows(rows, 3))) == want


# --------------------------------------------------------------------------- combine and reduce
_NAN, _OTHER_NAN = float("nan"), float("nan")
#: Keys that are equal but print differently (``0.0``/``-0.0``, ``1``/``1.0``/``True``), print
#: alike but are not equal (two NaN objects), or equal only themselves (one NaN object drawn
#: twice), and ``None``: the first of equal keys names the group, groups go in ``repr`` order.
_SHUFFLE_KEYS = st.sampled_from([_NAN, _OTHER_NAN, 0.0, -0.0, None, 1, 1.0, True, 2, "b"])


def _reference_groups(pairs: list[tuple]) -> dict:
    """``{key: values}`` in first-seen order, a key that several objects equal the first."""
    groups: dict = {}
    for key, value in pairs:
        groups.setdefault(key, []).append(value)
    return groups


def _reference_combine(pairs: list[tuple], combiner) -> list[tuple]:
    """A map task's pairs grouped per key, the groups fed to ``combiner`` in ``repr`` order."""
    groups = _reference_groups(pairs)
    return [pair for key in sorted(groups, key=repr) for pair in combiner(key, groups[key])]


def _reference_reduce(pairs: list[tuple], reducer, num_reducers: int) -> list[tuple]:
    """The pairs grouped per key, partitioned by hash, each partition's keys in ``repr`` order."""
    groups = _reference_groups(pairs)
    partitions: list[list] = [[] for _ in range(num_reducers)]
    for key in groups:
        partitions[hash(key) % num_reducers].append(key)
    return [
        pair
        for partition in partitions
        for key in sorted(partition, key=repr)
        for pair in reducer(key, groups[key])
    ]


@settings(max_examples=300, deadline=None)
@given(
    tasks=st.lists(
        st.lists(st.tuples(_SHUFFLE_KEYS, st.integers(-9, 9)), max_size=12), max_size=4
    ),
    num_reducers=st.integers(1, 4),
    combine=st.booleans(),
)
def test_column_combine_and_reduce_equal_the_pair_based_reference(tasks, num_reducers, combine):
    def combiner(key, values):
        return [(key, sum(values))]

    def reducer(key, values):
        return [(key, (len(values), sum(values)))]

    conf = JobConf(
        name="columns",
        input_path="/none",
        reducer=reducer,
        combiner=combiner if combine else None,
        num_reduce_tasks=num_reducers,
    )
    cluster = Cluster.homogeneous(4, seed=1)
    cost = CostModel(CostParameters(enable_variance=False))
    parts, combined = [], []
    for pairs in tasks:
        keys = [key for key, _ in pairs]
        # A task whose keys are all None hands on no key column, as a plain scan's does.
        if all(key is None for key in keys):
            keys = None
        part = combine_map_output(keys, [v for _, v in pairs], conf, cost, Counters())
        assert list(map(repr, paired(*part))) == list(
            map(repr, _reference_combine(pairs, combiner) if combine else pairs)
        )
        parts.append(part)
        combined += paired(*part)
    phase = run_reduce_phase(Emitted(*concatenated(parts)), conf, cluster, cost, Counters())
    want = _reference_reduce(combined, reducer, num_reducers)
    assert list(map(repr, phase.output)) == list(map(repr, want))
    # The same map output split from its pairs, as hand-written map output is, reduces the same.
    rebuilt = run_reduce_phase(emitted(combined), conf, cluster, cost, Counters())
    assert list(map(repr, rebuilt.output)) == list(map(repr, want))


# --------------------------------------------------------------------------- text offsets
def test_text_reader_keys_are_utf8_byte_offsets():
    schema = Schema.of(("name", FieldType.STRING), ("n", FieldType.INT), name="utf8")
    lines = ["plain|1", "żółw|2", "naïve café|3", "日本語|4", "tail|5"]
    from repro.baselines import HadoopSystem

    system = HadoopSystem(
        Cluster.homogeneous(3, seed=1), cost=CostModel(CostParameters(enable_variance=False))
    )
    system.upload("/utf8", [], schema, rows_per_block=10, raw_lines=lines, client_nodes=[0])
    conf = JobConf(name="offsets", input_path="/utf8", input_format=TextInputFormat())
    (split,) = conf.input_format.get_splits(system.hdfs, conf, system.cost)
    reader = TextRecordReader(split, system.hdfs, system.cost, node_id=split.locations[0])
    records = list(reader)
    assert [line for _, line in records] == lines
    payload = "\n".join(lines).encode("utf-8") + b"\n"
    for offset, line in records:
        assert payload[offset:].startswith(line.encode("utf-8") + b"\n")
    last_offset, last_line = records[-1]
    (block_id,) = split.block_ids
    replica = system.hdfs.read_replica(block_id, split.locations[0])
    assert last_offset + len(last_line.encode("utf-8")) + 1 == replica.payload.size_bytes()
    assert reader.records_emitted == len(lines)
