"""Common facade shared by the three evaluated systems (Hadoop, Hadoop++, HAIL).

A system owns a simulated HDFS deployment plus a MapReduce runner and offers:

- :meth:`BaseSystem.upload` — upload a dataset, with every (alive) node acting as a client for
  its share of the data, exactly like the paper's upload experiments where each node uploads
  20 GB/13 GB of locally generated data; and
- :meth:`BaseSystem.run_query` — run one compiled query (a selection/projection scan or a
  relational operator) as MapReduce jobs and return both the functional result records and
  the simulated timing decomposition.

Every query kind goes through one table, :data:`~repro.engine.operators.LOWERINGS`: a kind
that is not listed is a plain scan.  Its :class:`Lowering` is what the system runs (its scans,
then its finish step) and what it explains (its rendering over one plan per scan: the split
phase's before a run, the executed ones in the :class:`QueryResult`).

Subclasses only provide their upload pipeline, their scan job (input format plus the batch
functions :func:`scan_job` composes into its map function), and (for Hadoop++) the
post-upload index-creation jobs.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Union

from repro.cluster.costmodel import CostModel
from repro.cluster.failure import FailureEvent
from repro.cluster.ledger import TransferLedger
from repro.cluster.topology import Cluster
from repro.engine.operators import LOWERINGS
from repro.engine.planner import PhysicalPlanner, QueryPlan
from repro.hdfs.client import HdfsClient
from repro.hdfs.filesystem import DataFile, Hdfs
from repro.layouts.pax import ColumnBatch
from repro.mapreduce.job import JobConf, JobResult, Lowering, OperatorPlan, paired
from repro.mapreduce.runner import ConcurrentBatchError, MapReduceRunner
from repro.query.annotation import JOB_PROPERTY, HailQuery
from repro.query.schema import Schema


@dataclass
class SystemUploadReport:
    """Upload outcome of one system: duration plus volume accounting."""

    system: str
    path: str
    upload_s: float
    post_processing_s: float
    num_blocks: int
    num_records: int
    source_text_bytes: int
    stored_bytes: int
    replication: int
    num_indexes: int = 0

    @property
    def total_s(self) -> float:
        """End-to-end time until the data is queryable (upload plus any index-creation jobs)."""
        return self.upload_s + self.post_processing_s


@dataclass
class QueryResult:
    """Result of running one query on one system: its answer, the job that reports it, and the
    plan it executed."""

    system: str
    query_name: str
    records: list[tuple]
    job: JobResult
    #: The plan the query executed: a scan's is its job's :class:`QueryPlan` (the per-block
    #: access paths and replicas of the surviving map-task attempts, truthful under failure
    #: injection and reschedules); an operator's is an :class:`OperatorPlan` over its scan
    #: jobs' plans, or over the block plans a scan-less top-k probed.
    plan: Union[QueryPlan, OperatorPlan, None] = None

    @property
    def runtime_s(self) -> float:
        """End-to-end job runtime (what Figures 6(a), 7(a) and 9 report)."""
        return self.job.runtime_s

    @property
    def record_reader_s(self) -> float:
        """Average RecordReader time per map task (Figures 6(b), 7(b))."""
        return self.job.avg_record_reader_s

    @property
    def overhead_s(self) -> float:
        """Framework overhead (Figures 6(c), 7(c))."""
        return self.job.overhead_s

    def sorted_records(self) -> list[tuple]:
        """Records in a canonical order, for cross-system result comparison."""
        return sorted(self.records, key=repr)

    def explain(self) -> str:
        """Rendering of the executed plan: access path and chosen replica per block, under the
        operator's header for an operator."""
        return self.plan.explain()


class BaseSystem(abc.ABC):
    """Shared deployment and execution machinery of the three systems."""

    #: Short system name used in reports ("Hadoop", "Hadoop++", "HAIL").
    name: str = "base"

    def __init__(
        self,
        cluster: Cluster,
        cost: Optional[CostModel] = None,
        replication: int = 3,
    ) -> None:
        self.cluster = cluster
        if cost is None:
            cost = CostModel()
        self.cost = cost
        self.hdfs = Hdfs(cluster, cost, replication=replication)
        self.runner = MapReduceRunner(self.hdfs, cost)
        self._schemas: dict[str, Schema] = {}

    # ------------------------------------------------------------------ upload
    def upload(
        self,
        path: str,
        records: Sequence[tuple],
        schema: Schema,
        rows_per_block: int = 200,
        client_nodes: Optional[Sequence[int]] = None,
        raw_lines: Optional[Sequence[str]] = None,
    ) -> SystemUploadReport:
        """Upload ``records`` under ``path``; every client node uploads a contiguous share.

        ``raw_lines``, when given, is the unparsed text form of the data (rows that fail schema
        validation become bad records in systems that parse at upload time).
        """
        if self.hdfs.namenode.file_exists(path):
            raise ValueError(f"path already uploaded: {path!r}")
        clients = list(client_nodes) if client_nodes is not None else [
            node.node_id for node in self.cluster.alive_nodes
        ]
        if not clients:
            raise ValueError("no client nodes available for the upload")
        self.hdfs.namenode.create_file(path)
        self._schemas[path] = schema
        if self.hdfs.persist is not None:
            self.hdfs.persist.sync_path(path, schema)

        ledger = TransferLedger(self.cluster, self.cost)
        pipeline = self._upload_pipeline()
        stored_before = self.hdfs.total_stored_bytes()
        source_bytes = 0
        num_blocks = 0

        record_shares = _partition(list(records), len(clients))
        line_shares = _partition(list(raw_lines), len(clients)) if raw_lines is not None else None
        for position, client_node in enumerate(clients):
            share = record_shares[position]
            lines = line_shares[position] if line_shares is not None else None
            if not share and not lines:
                continue
            client = HdfsClient(self.hdfs, self.cost, pipeline, client_node=client_node)
            datafile = DataFile(path=path, schema=schema, records=share, raw_lines=lines)
            report = client.upload(
                datafile, rows_per_block=rows_per_block, ledger=ledger, create_file=False
            )
            source_bytes += report.source_text_bytes
            num_blocks += report.num_blocks

        upload_s = ledger.makespan()
        post_s = self._post_upload(path, schema)
        return SystemUploadReport(
            system=self.name,
            path=path,
            upload_s=upload_s,
            post_processing_s=post_s,
            num_blocks=num_blocks,
            num_records=len(records),
            source_text_bytes=source_bytes,
            stored_bytes=self.hdfs.total_stored_bytes() - stored_before,
            replication=self.hdfs.namenode.replication,
            num_indexes=self.num_indexes(),
        )

    # ------------------------------------------------------------------ queries
    def run_query(self, query, path: str, failure: Optional[FailureEvent] = None) -> QueryResult:
        """Run one compiled query — a scan ``Query`` or an operator query — as MapReduce jobs.

        The scans of the query's :class:`Lowering` run back-to-back, each ``JobConf`` built
        immediately before its job (a HAIL jobconf reads the tuner's live knobs and takes the
        next adaptive salt), and the finish step turns their results into the answer.
        ``failure`` strikes every scan job at the same progress fraction.  The
        :class:`QueryResult` carries the plans its scan jobs *executed*, assembled from the
        per-block plans of the surviving map-task attempts — so under failure injection they
        reflect the fallbacks that actually happened, not a re-plan of a healthy cluster.
        """
        lowering = self._lower(query, path)
        if failure is not None and not lowering.scans:
            raise ValueError(
                f"query {query.name!r} runs no MapReduce job on {self.name} (it probes its "
                "blocks one at a time), so there is no job for failure injection to fail"
            )
        jobs = [self.run_job(self._scan_jobconf(*scan), failure) for scan in lowering.scans]
        return self._finish(query, lowering, jobs, sum(job.runtime_s for job in jobs))

    def run_queries(
        self,
        items: Sequence[tuple],
        tenants: Optional[Sequence[str]] = None,
        chaos=None,
        deadlines: Optional[Sequence[Optional[float]]] = None,
        on_result: Optional[Callable[[int, QueryResult], None]] = None,
    ) -> list[QueryResult]:
        """Run several ``(query, path)`` pairs as one batch, concurrently when configured.

        This is the one place that chooses between the two batch shapes.  When
        :meth:`concurrency_policy` returns a policy (HAIL with ``max_concurrent_jobs > 1``)
        and the batch holds at least two items, every item contributes the scans of its
        :class:`Lowering` to one :meth:`MapReduceRunner.run_concurrent` call, where their map
        phases interleave over the shared TaskTracker slots: ``tenants`` labels each item's
        jobs for admission control/quotas/fair queueing, ``deadlines`` attaches soft
        deadlines and ``chaos`` (:class:`~repro.cluster.failure.ConcurrentChaos`) injects
        faults.  An item finishes when its last scan does, and one without scans at
        admission.  Otherwise the items run back-to-back through :meth:`run_query`, where
        tenants and deadlines have nothing to arbitrate and are ignored; only ``chaos`` is
        rejected rather than silently dropped.

        ``on_result(position, result)`` is called the moment each item completes (in
        completion order on interleaved batches), so a caller keeps every finished result
        even when a later one raises; an interleaved batch's ``ConcurrentBatchError`` names
        the failed *item's* position.  Results align with ``items``.
        """
        items = list(items)
        results: list[Optional[QueryResult]] = [None] * len(items)

        def _deliver(position: int, result: QueryResult) -> None:
            results[position] = result
            if on_result is not None:
                on_result(position, result)

        policy = self.concurrency_policy()
        if policy is None or policy.max_concurrent_jobs <= 1 or len(items) <= 1:
            if chaos is not None:
                raise ValueError(
                    "chaos needs the concurrent batch path; configure "
                    "max_concurrent_jobs > 1 and submit at least two queries"
                )
            for position, (query, path) in enumerate(items):
                _deliver(position, self.run_query(query, path))
            return results

        lowered = []
        for position, (query, path) in enumerate(items):
            try:  # a refused item stops the batch before any of its jobs is submitted
                lowered.append((query, self._lower(query, path)))
            except Exception as exc:
                raise ConcurrentBatchError(position, exc) from exc
        scan_jobs: list[list] = [[None] * len(lowering.scans) for _, lowering in lowered]
        # One (item position, scan number) per job of the batch, in submission order.
        slots = [(p, k) for p, jobs in enumerate(scan_jobs) for k in range(len(jobs))]

        def _scan_done(index: int, job: JobResult) -> None:
            position, k = slots[index]
            mine = scan_jobs[position]
            mine[k] = job
            if None not in mine:
                # Runtimes are latencies on the shared timeline: the item took its latest scan.
                latest = max(job.runtime_s for job in mine)
                _deliver(position, self._finish(*lowered[position], mine, latest))

        for position, (query, lowering) in enumerate(lowered):
            if not lowering.scans:  # nothing to schedule: the item is done at admission
                try:
                    _deliver(position, self._finish(query, lowering, [], 0.0))
                except Exception as exc:
                    raise ConcurrentBatchError(position, exc) from exc
        try:
            self.runner.run_concurrent(
                [self._scan_jobconf(*lowered[p][1].scans[k]) for p, k in slots],
                tenants=[tenants[p] for p, _ in slots] if tenants is not None else None,
                policy=policy,
                chaos=chaos,
                deadlines=[deadlines[p] for p, _ in slots] if deadlines is not None else None,
                on_result=_scan_done,
            )
        except ConcurrentBatchError as error:
            raise ConcurrentBatchError(slots[error.failed_index][0], error.cause) from error.cause
        return results

    def concurrency_policy(self):
        """The batch-drain :class:`~repro.mapreduce.job_tracker.ConcurrencyPolicy`.

        ``None`` (the default for every system) means batches run strictly serially; HAIL
        overrides this with its ``HailConfig.concurrency``.
        """
        return None

    def plan_query(self, query, path: str) -> QueryPlan:
        """The physical plan the engine chooses for ``query`` (without executing anything)."""
        return self._planner().plan_query(path, self._annotation_for(query))

    def explain(self, query, path: str) -> str:
        """``EXPLAIN``-style rendering of any compiled query, executing nothing: its
        :class:`Lowering` rendered over :meth:`plan_query` of each of its scans.  Operands are
        not checked against their columns: only running a query does that."""
        lowering = self._lowering(query, path)
        return lowering.frame([self.plan_query(*scan[:2]) for scan in lowering.scans]).explain()

    def _lowering(self, query, path: str) -> Lowering:
        """The scans ``query`` needs, the finish step over their jobs and its rendering over
        their plans: an operator kind brings its own; a plain ``Query`` is one scan whose job
        is the answer and whose plan is the rendering."""
        lower = LOWERINGS.get(type(query))
        return lower(self, query, path) if lower else Lowering([(query, path)], _scan_answer)

    def _lower(self, query, path: str) -> Lowering:
        """:meth:`_lowering`, checked to run: raises ``ValueError`` with the lowering's refusal,
        and :class:`~repro.query.predicate.UnsupportedExpressionError` when a scan's predicate
        compares a column with an operand of another type.
        """
        lowering = self._lowering(query, path)
        if lowering.refusal is not None:
            raise ValueError(lowering.refusal)
        # Each scan meets its file's schema here, before any job is submitted; a scan-less
        # lowering (a block-wise top-k) runs the query's own predicate over ``path``.
        for scan_query, scan_path, *_ in lowering.scans or [(query, path)]:
            if scan_query.predicate is not None:
                scan_query.predicate.check_operands(self.schema_of(scan_path))
        return lowering

    def _finish(self, query, lowering: Lowering, jobs: list, scans_s: float) -> QueryResult:
        """Run the finish step of ``query`` over its scans' jobs; wrap the answer as ours, with
        the plans its scans executed (a scan-less lowering's job carries its own) framed by
        the lowering."""
        records, job = lowering.finish(jobs, scans_s)
        plan = lowering.frame([scan.plan for scan in jobs or [job]])
        return QueryResult(self.name, query.name, records, job, plan)

    def _scan_jobconf(self, query, path: str, emit=None, decorate=None) -> JobConf:
        """The job of one lowered scan: this system's jobconf for it, each block's column batch
        handed to ``emit`` (its rows passed on with the null key by default), decorated when
        asked.  The job carries its query as the ``hail.query`` annotation, which its input
        format's split phase binds."""
        jobconf = self._make_jobconf(query, path, self.schema_of(path), emit)
        jobconf.properties[JOB_PROPERTY] = self._annotation_for(query)
        if decorate is not None:
            decorate(jobconf)
        return jobconf

    def _planner(self) -> PhysicalPlanner:
        """The planner :meth:`plan_query` consults.

        Systems with extra planner features (HAIL's zone-map skipping) override this so
        ``explain()`` reflects the same configuration their jobs execute with.
        """
        return PhysicalPlanner(self.hdfs)

    @staticmethod
    def _annotation_for(query):
        """The query's selection/projection as a ``HailQuery`` annotation (planner input)."""
        return HailQuery(
            filter=query.predicate,
            projection=tuple(query.projection) if query.projection is not None else None,
        )

    def run_job(self, jobconf: JobConf, failure: Optional[FailureEvent] = None) -> JobResult:
        """Run an arbitrary MapReduce job on this system's deployment."""
        return self.runner.run(jobconf, failure=failure)

    def schema_of(self, path: str) -> Schema:
        """Schema of an uploaded dataset."""
        try:
            return self._schemas[path]
        except KeyError:
            raise KeyError(f"unknown dataset {path!r}; upload it first") from None

    def num_indexes(self) -> int:
        """Number of clustered indexes the system creates per block (0 for stock Hadoop)."""
        return 0

    # ------------------------------------------------------------------ subclass hooks
    @abc.abstractmethod
    def _upload_pipeline(self):
        """The per-block upload pipeline this system uses."""

    @abc.abstractmethod
    def _make_jobconf(self, query, path: str, schema: Schema, emit) -> JobConf:
        """Build the MapReduce job that scans ``query`` on this system (see :func:`scan_job`)."""

    def _post_upload(self, path: str, schema: Schema) -> float:
        """Extra seconds of post-upload work (Hadoop++ index-creation jobs); default none."""
        return 0.0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{self.__class__.__name__}(nodes={len(self.cluster)})"


def scan_job(name: str, path: str, input_format, columns, row, emit=None) -> JobConf:
    """A system's scan job: its map function composed from the scan's batch functions and the
    consumer's ``emit(batch) -> (keys, values)``.

    ``columns(batch)`` is one block's qualifying rows as a
    :class:`~repro.layouts.pax.ColumnBatch` (the projected columns in projection order, plus
    a row count), ``row(value)`` one record's row (``None`` drops the record, as a bad one is
    dropped).  ``map_batch`` is ``emit(columns(batch))`` and ``mapper`` its per-record twin,
    ``emit`` of the one-row batch, paired: every ``emit`` maps row by row, so the two leave the
    same pairs in the same order.  Without an ``emit`` the rows are passed on with the null
    key: the batch's columns are zipped into rows, once, and no key column is kept
    (:func:`_pass_on`).

    The map task always runs ``map_batch``; ``mapper`` is the per-record reference that
    ``tests/test_block_batches.py`` (``_per_record``) and the ``per-record`` runs of
    ``tests/test_map_output_fingerprint.py`` execute in its place, to hold the block form to
    the public per-record contract.
    """
    if emit is None:
        emit = _pass_on

        def map_batch(batch):
            return None, columns(batch).rows()  # ``_pass_on``'s body: one call fewer a block

    else:

        def map_batch(batch):
            return emit(columns(batch))

    def mapper(_key, value):
        found = row(value)
        return None if found is None else paired(*emit(ColumnBatch.of_rows([found], len(found))))

    return JobConf(
        name=name, input_path=path, mapper=mapper, map_batch=map_batch, input_format=input_format
    )


def _scan_answer(jobs: list[JobResult], _scans_s: float) -> tuple:
    """A plain scan's finish step: its job's rows and the job."""
    return jobs[0].records, jobs[0]


def _pass_on(batch: ColumnBatch) -> tuple[None, list]:
    """A plain scan's ``emit``: the batch's rows, each with the null key (HAIL's
    ``output(v, null)``, Section 4.1) — no key column."""
    return None, batch.rows()


def _partition(items: list, parts: int) -> list[list]:
    """Split ``items`` into ``parts`` contiguous, near-equal shares."""
    if parts <= 0:
        raise ValueError("parts must be positive")
    base, extra = divmod(len(items), parts)
    shares = []
    start = 0
    for i in range(parts):
        size = base + (1 if i < extra else 0)
        shares.append(items[start : start + size])
        start += size
    return shares
