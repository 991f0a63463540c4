"""The six workloads: what one set-up builds and what one pass runs.

Every workload is a closed loop with one client: a pass issues its operations one after the
other and each waits for its reply.  Sizes are constants of the benchmark (``--quick`` divides
rows and rows-per-block by :data:`QUICK_DIVISOR`, keeping block counts, for the smoke test).
All deployments are 4 nodes at replication 3, and ``data_scale`` makes one functional block
stand for a 64 MB HDFS block (the quickstart's convention), so simulated seconds are
paper-scale.

A workload times nothing itself: it hands each operation to the :class:`~bench.run.Recorder`
as a callable plus a ``verify`` function that compares the reply with the oracle's answer
(computed in :meth:`Workload.setup`) after the timer has stopped.
"""

from __future__ import annotations

import shutil
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from repro.api import Session, col
from repro.api import session as session_module
from repro.datagen import UserVisitsGenerator
from repro.datagen.synthetic import SYNTHETIC_SCHEMA, VALUE_RANGE, SyntheticGenerator
from repro.hail.config import HailConfig
from repro.workloads.bob import BOB_INDEX_ATTRIBUTES, bob_logical_queries
from repro.workloads.synthetic_queries import synthetic_logical_queries

from bench import oracle

NODES = 4
HDFS_BLOCK_BYTES = 64 * 1024 * 1024
QUICK_DIVISOR = 16


@dataclass
class Outcome:
    """What ``verify`` reports for one timed call, standing for ``ops`` operations."""

    failed: int = 0
    #: Simulated seconds the reply reports (HAIL side; 0 for a baseline-only operation).
    sim_s: float = 0.0
    #: Simulated seconds of the same work on stock Hadoop, where the pass runs it.
    baseline_sim_s: float = 0.0
    #: MapReduce job counters of the reply, summed over its jobs.
    counters: dict = field(default_factory=dict)
    jobs: int = 0
    rows: int = 0
    blocks: int = 0

    def absorb(self, other: "Outcome") -> None:
        """Add ``other``'s figures to this one's (a pass absorbs its operations)."""
        self.failed += other.failed
        self.sim_s += other.sim_s
        self.baseline_sim_s += other.baseline_sim_s
        self.jobs += other.jobs
        self.rows += other.rows
        self.blocks += other.blocks
        for name, value in other.counters.items():
            self.counters[name] = self.counters.get(name, 0) + value


def data_scale(schema, rows, rows_per_block: int) -> float:
    """Cost-model scale at which one functional block stands for a 64 MB HDFS block."""
    return HDFS_BLOCK_BYTES / sum(schema.text_size(row) for row in rows[:rows_per_block])


def query_outcome(result, expected: list, blocks: int, ordered: bool = False) -> Outcome:
    """Compare one query reply with the oracle's rows and lift its counters."""
    records = list(result.records) if ordered else oracle.canonical(result.records)
    return Outcome(
        failed=0 if records == expected else 1,
        sim_s=result.runtime_s,
        counters=result.job.counters.as_dict(),
        jobs=1,
        rows=len(result.records),
        blocks=blocks,
    )


class Workload:
    """Base of the six workloads; subclasses fill in set-up and one pass."""

    name = ""
    why = ""
    #: Passes, after the warm-up pass, over which simulated seconds, bytes and counts are
    #: reported.  They run first and in a fixed order, so these numbers repeat for a seed
    #: however many more passes the time budget allows.
    fixed_passes = 2
    ROWS = 0
    ROWS_PER_BLOCK = 0

    def __init__(self, seed: int, quick: bool = False, scratch: Optional[Path] = None) -> None:
        divisor = QUICK_DIVISOR if quick else 1
        self.seed = seed
        self.rows_n = self.ROWS // divisor
        self.rows_per_block = self.ROWS_PER_BLOCK // divisor
        self.scratch = scratch
        #: Oracle answers by operation key; filled by :meth:`setup`.
        self.expected: dict = {}
        self.session: Optional[Session] = None

    def sizes(self) -> dict:
        """The workload's final sizes, for the environment block of a result file."""
        return {"rows": self.rows_n, "rows_per_block": self.rows_per_block}

    def setup(self) -> None:
        """Generate inputs from the seed, deploy, upload, and compute the oracle's answers."""
        raise NotImplementedError

    def run_pass(self, rec) -> None:
        """Issue one pass of operations through ``rec.op``."""
        raise NotImplementedError

    def storage(self) -> tuple[int, int]:
        """``(bytes stored, bytes of user text)`` of the HAIL deployment, after the fixed passes."""
        system = self.session.system("HAIL")
        return system.hdfs.total_stored_bytes(), self.user_bytes

    def finish(self, rec) -> dict:
        """Work after the last pass; returns extra per-layer values (default: none)."""
        return {}

    def close(self) -> None:
        """Release what :meth:`setup` opened (files, journal handles)."""
        self.session = None

    def _upload_report_bytes(self, path: str) -> int:
        return self.session.upload_reports[path]["HAIL"].source_text_bytes


# --------------------------------------------------------------------------- ingest
class Ingest(Workload):
    name = "ingest"
    why = (
        "Write path only: four successive uploads into one HAIL deployment with Bob's three "
        "indexes, then into stock Hadoop; exposes any upload cost that grows with stored data"
    )
    ROWS = 4000
    ROWS_PER_BLOCK = 100
    UPLOADS = 4

    def setup(self) -> None:
        generator = UserVisitsGenerator(seed=self.seed, probe_ip_rate=1 / 500)
        share = self.rows_n // self.UPLOADS
        rows = generator.generate(share * self.UPLOADS)
        self.schema = generator.schema
        self.parts = [rows[i * share : (i + 1) * share] for i in range(self.UPLOADS)]
        self.scale = data_scale(self.schema, rows, self.rows_per_block)
        self.blocks_per_upload = oracle.upload_blocks(share, NODES, self.rows_per_block)
        self.expected = {"readback": oracle.canonical(rows)}
        self._stored = (0, 0)

    def sizes(self) -> dict:
        return {**super().sizes(), "uploads": self.UPLOADS}

    def run_pass(self, rec) -> None:
        for system in ("HAIL", "Hadoop"):
            session = Session.deploy(
                nodes=NODES,
                systems=(system,),
                index_attributes=BOB_INDEX_ATTRIBUTES,
                data_scale=self.scale,
            )
            reports = []
            for number, part in enumerate(self.parts):
                path = f"/ingest/part{number}"

                def upload(path=path, part=part):
                    session.upload(path, part, self.schema, rows_per_block=self.rows_per_block)
                    return session.upload_reports[path][system]

                def verify(report, part=part):
                    reports.append(report)
                    counts_ok = (
                        report.num_records == len(part)
                        and report.num_blocks == self.blocks_per_upload
                    )
                    sim = {"sim_s" if system == "HAIL" else "baseline_sim_s": report.total_s}
                    return Outcome(failed=0 if counts_ok else 1, **sim)

                rec.op(upload, verify)
            # Read everything back through full-scan queries, outside any timed operation.
            stored = []
            for number in range(len(reports)):
                stored.extend(session.dataset(f"/ingest/part{number}").collect().records)
            if oracle.canonical(stored) != self.expected["readback"]:
                rec.fail_last()
            if system == "HAIL" and reports:
                self._stored = (
                    sum(report.stored_bytes for report in reports),
                    sum(report.source_text_bytes for report in reports),
                )

    def storage(self) -> tuple[int, int]:
        return self._stored


# --------------------------------------------------------------------------- bob_indexed
class BobIndexed(Workload):
    name = "bob_indexed"
    why = (
        "Index scan + HailSplitting on Bob's five queries: kernels do almost nothing, so "
        "planner, splits, scheduling, cost charging and result assembly dominate"
    )
    ROWS = 16000
    ROWS_PER_BLOCK = 500
    PATH = "/bob/uservisits"

    def setup(self) -> None:
        generator = UserVisitsGenerator(seed=self.seed, probe_ip_rate=1 / 500)
        rows = generator.generate(self.rows_n)
        schema = generator.schema
        self.session = Session.deploy(
            nodes=NODES,
            systems=("HAIL", "Hadoop"),
            index_attributes=BOB_INDEX_ATTRIBUTES,
            data_scale=data_scale(schema, rows, self.rows_per_block),
        )
        visits = self.session.upload(self.PATH, rows, schema, rows_per_block=self.rows_per_block)
        self.blocks = self.session.upload_reports[self.PATH]["HAIL"].num_blocks
        self.user_bytes = self._upload_report_bytes(self.PATH)
        self.queries = []
        for logical in bob_logical_queries():
            dataset = visits.where(logical.where).select(*logical.select).named(logical.name)
            self.queries.append((logical.name, dataset))
            self.expected[logical.name] = oracle.selection(
                rows, schema, logical.where, logical.select
            )
        # The same five queries on stock Hadoop, once: the simulated speed-up's base.
        self.baseline_sim_s = 0.0
        self.baseline_failed = 0
        for name, dataset in self.queries:
            outcome = query_outcome(
                dataset.collect(system="Hadoop"), self.expected[name], self.blocks
            )
            self.baseline_sim_s += outcome.sim_s
            self.baseline_failed += outcome.failed

    def run_pass(self, rec) -> None:
        for position, (name, dataset) in enumerate(self.queries):

            def verify(result, name=name, first=position == 0):
                outcome = query_outcome(result, self.expected[name], self.blocks)
                if first:
                    outcome.baseline_sim_s = self.baseline_sim_s
                    outcome.failed += self.baseline_failed
                return outcome

            rec.op(dataset.collect, verify)


# --------------------------------------------------------------------------- synthetic_scan
class SyntheticScan(Workload):
    name = "synthetic_scan"
    why = (
        "Index-miss read path: text parsing on Hadoop and PAX scans, filter kernels and "
        "zone-map checks on a HAIL deployment indexed on another attribute"
    )
    ROWS = 16000
    ROWS_PER_BLOCK = 500
    PATH = "/synthetic/scan"
    QUERIES = ("Syn-Q1a", "Syn-Q1c", "Syn-Q2b")

    def setup(self) -> None:
        rows = SyntheticGenerator(seed=self.seed).generate(self.rows_n)
        schema = SYNTHETIC_SCHEMA
        config = HailConfig.for_attributes(("f2",), functional_partition_size=1).with_zone_maps()
        self.session = Session.deploy(
            nodes=NODES,
            systems=("HAIL", "Hadoop"),
            hail_config=config,
            data_scale=data_scale(schema, rows, self.rows_per_block),
        )
        data = self.session.upload(self.PATH, rows, schema, rows_per_block=self.rows_per_block)
        self.blocks = self.session.upload_reports[self.PATH]["HAIL"].num_blocks
        self.user_bytes = self._upload_report_bytes(self.PATH)
        self.queries = []
        for logical in synthetic_logical_queries():
            if logical.name in self.QUERIES:
                dataset = data.where(logical.where).select(*logical.select).named(logical.name)
                self.queries.append((logical.name, dataset))
                self.expected[logical.name] = oracle.selection(
                    rows, schema, logical.where, logical.select
                )

    def run_pass(self, rec) -> None:
        for system in ("Hadoop", "HAIL"):
            for name, dataset in self.queries:

                def verify(result, name=name, system=system):
                    outcome = query_outcome(result, self.expected[name], self.blocks)
                    if system == "Hadoop":
                        outcome.baseline_sim_s, outcome.sim_s = outcome.sim_s, 0.0
                    return outcome

                rec.op(lambda dataset=dataset, system=system: dataset.collect(system=system), verify)


# --------------------------------------------------------------------------- adaptive_churn
class AdaptiveChurn(Workload):
    name = "adaptive_churn"
    why = (
        "Writes beside reads: adaptive index builds, commits, LRU eviction and the SQLite "
        "journal on the query path, then checkpoint, kill and restore to the first answer"
    )
    ROWS = 4000
    ROWS_PER_BLOCK = 125
    PATH = "/churn/data"
    ATTRIBUTES = ("f1", "f3", "f5")
    QUERIES_PER_ATTRIBUTE = 8
    PROJECTED = 9
    OFFER_RATE = 0.5
    #: Per-node adaptive-byte budget, in units of one attribute's adaptive footprint: room
    #: for one converged attribute plus in-flight builds of the next, never for two.
    HEADROOM = 1.5

    def setup(self) -> None:
        rows = SyntheticGenerator(seed=self.seed).generate(self.rows_n)
        schema = SYNTHETIC_SCHEMA
        self.scale = data_scale(schema, rows, self.rows_per_block)
        projection = tuple(schema.field_names[: self.PROJECTED])
        width = VALUE_RANGE // 10
        self.filters = []
        for attribute in self.ATTRIBUTES:
            for i in range(self.QUERIES_PER_ATTRIBUTE):
                low = (i * 113_003) % (VALUE_RANGE - width)
                where = col(attribute).between(low, low + width)
                name = f"churn-{attribute}-{i}"
                self.filters.append((name, where, projection))
                self.expected[name] = oracle.selection(rows, schema, where, projection)

        base = HailConfig.for_attributes((), functional_partition_size=1).with_zone_maps()
        # Calibrate the budget on a throwaway deployment that converges one attribute eagerly.
        probe = Session.deploy(
            nodes=NODES, hail_config=base.with_adaptive(True, offer_rate=1.0), data_scale=self.scale
        )
        probe_data = probe.upload(self.PATH, rows, schema, rows_per_block=self.rows_per_block)
        _, where, projection = self.filters[0]
        for _ in range(2):
            probe_data.where(where).select(*projection).collect()
        footprint = max(probe.system().hdfs.namenode.adaptive_bytes_by_node().values(), default=0)
        if footprint <= 0:
            raise RuntimeError("calibration built no adaptive replica; cannot size the budget")

        self.journal = Path(tempfile.mkdtemp(prefix="journal-", dir=self.scratch))
        self.config = (
            base.with_adaptive(True, offer_rate=self.OFFER_RATE)
            .with_lifecycle(
                eviction=True,
                capacity_bytes=self.HEADROOM * footprint,
                high_watermark=0.9,
                low_watermark=0.75,
                auto_tune=True,
            )
            .with_persistence("sqlite", directory=str(self.journal))
        )
        self.session = Session.deploy(nodes=NODES, hail_config=self.config, data_scale=self.scale)
        data = self.session.upload(self.PATH, rows, schema, rows_per_block=self.rows_per_block)
        self.blocks = self.session.upload_reports[self.PATH]["HAIL"].num_blocks
        self.user_bytes = self._upload_report_bytes(self.PATH)
        self.queries = [
            (name, data.where(where).select(*projection).named(name))
            for name, where, projection in self.filters
        ]

    def sizes(self) -> dict:
        return {
            **super().sizes(),
            "queries_per_pass": len(self.ATTRIBUTES) * self.QUERIES_PER_ATTRIBUTE,
        }

    def run_pass(self, rec) -> None:
        for name, dataset in self.queries:
            rec.op(
                dataset.collect,
                lambda result, name=name: query_outcome(result, self.expected[name], self.blocks),
            )

    def journal_bytes(self) -> int:
        return sum(f.stat().st_size for f in self.journal.iterdir() if f.is_file())

    def storage(self) -> tuple[int, int]:
        # A checkpoint is the point-in-time marker an operator takes before a planned kill;
        # taking it here, always after the same pass, keeps the journal size repeatable.
        self.session.checkpoint()
        stored, user = super().storage()
        self.journal_bytes_at_checkpoint = self.journal_bytes()
        return stored + self.journal_bytes_at_checkpoint, user

    def finish(self, rec) -> dict:
        """Checkpoint, kill, restore from the journal, and time the way to the first answer."""
        rec.op(self.session.checkpoint, lambda _: Outcome(), in_pass=False)
        self.session.system().hdfs.persist.close()
        name, where, projection = self.filters[0]

        def restore_and_answer():
            self.session = Session.restore(self.config, nodes=NODES, data_scale=self.scale)
            return self.session.dataset(self.PATH).where(where).select(*projection).collect()

        wall_s = rec.op(
            restore_and_answer,
            lambda result: query_outcome(result, self.expected[name], self.blocks),
            in_pass=False,
        )
        return {
            "persist.restore_first_answer_ms": wall_s * 1000.0,
            "persist.journal_bytes_per_user_byte": self.journal_bytes_at_checkpoint
            / self.user_bytes,
        }

    def close(self) -> None:
        if self.session is not None:
            self.session.system().hdfs.persist.close()
            shutil.rmtree(self.journal, ignore_errors=True)
        super().close()


# --------------------------------------------------------------------------- tenant_backlog
class TenantBacklog(Workload):
    name = "tenant_backlog"
    why = (
        "Two tenants' backlogs drained by the concurrent JobTracker (admission, quotas, fair "
        "queue, interleaving): the only workload where scheduling is the variable"
    )
    ROWS = 8000
    ROWS_PER_BLOCK = 125
    PATH = "/tenants/data"
    TENANTS = ("alice", "bob")
    JOBS_PER_TENANT = 12
    INDEXED = ("f1", "f2", "f3")
    UNINDEXED = "f4"
    MAX_CONCURRENT_JOBS = 4
    PROJECTION = ("f1", "f2", "f3", "f4")

    def setup(self) -> None:
        rows = SyntheticGenerator(seed=self.seed).generate(self.rows_n)
        schema = SYNTHETIC_SCHEMA
        config = HailConfig.for_attributes(
            self.INDEXED, functional_partition_size=1
        ).with_concurrency(max_jobs=self.MAX_CONCURRENT_JOBS)
        self.session = Session.deploy(
            nodes=NODES,
            hail_config=config,
            data_scale=data_scale(schema, rows, self.rows_per_block),
            tenant=self.TENANTS[0],
        )
        self.session.upload(self.PATH, rows, schema, rows_per_block=self.rows_per_block)
        self.blocks = self.session.upload_reports[self.PATH]["HAIL"].num_blocks
        self.user_bytes = self._upload_report_bytes(self.PATH)
        self.sessions = [self.session] + [self.session.attach(t) for t in self.TENANTS[1:]]
        # Per tenant: 5-25 % wide ranges, five in six on an indexed attribute, one in six on
        # the unindexed one (a full scan: one map task per block).
        self.backlog = []
        for t, tenant in enumerate(self.TENANTS):
            for i in range(self.JOBS_PER_TENANT):
                serial = i * len(self.TENANTS) + t
                attribute = self.UNINDEXED if i % 6 == 5 else self.INDEXED[serial % 3]
                width = int(VALUE_RANGE * (0.05 + 0.02 * (serial % 11)))
                low = (serial * 997_001) % (VALUE_RANGE - width)
                where = col(attribute).between(low, low + width)
                name = f"{tenant}-{i}-{attribute}"
                self.backlog.append((t, name, where))
                self.expected[name] = oracle.selection(rows, schema, where, self.PROJECTION)

    def sizes(self) -> dict:
        return {**super().sizes(), "jobs_per_pass": len(self.TENANTS) * self.JOBS_PER_TENANT}

    def run_pass(self, rec) -> None:
        def submit_and_drain():
            for t, name, where in self.backlog:
                session = self.sessions[t]
                session.dataset(self.PATH).where(where).select(*self.PROJECTION).named(
                    name
                ).submit()
            return session_module.run_multi_tenant_batch(self.sessions)

        def verify(batches):
            outcome = Outcome()
            makespan = 0.0
            for t, tenant in enumerate(self.TENANTS):
                names = [name for owner, name, _ in self.backlog if owner == t]
                for name, result in zip(names, batches[tenant]):
                    outcome.absorb(query_outcome(result, self.expected[name], self.blocks))
                    makespan = max(makespan, result.runtime_s)
            # Runtimes are finish times on the drain's shared timeline: the simulated cost
            # of a drain is its makespan, not their sum.
            outcome.sim_s = makespan
            return outcome

        rec.op(submit_and_drain, verify, ops=len(self.backlog))


# --------------------------------------------------------------------------- operators
class Operators(Workload):
    name = "operators"
    why = (
        "Group-by with and without combiner, merge and hash join, top-k: the only workload "
        "with a real shuffle/reduce phase and the three operator drivers"
    )
    ROWS = 8000
    RIGHT_ROWS = 2000
    ROWS_PER_BLOCK = 250
    LEFT = "/operators/left"
    RIGHT = "/operators/right"
    JOIN_KEY = "f1"
    KEY_DOMAIN = 1000
    GROUP_KEY = "f3"
    GROUP_DOMAIN = 7
    RANK = "f2"
    TOP_K = 10

    def _table(self, seed: int, count: int) -> list[tuple]:
        """Synthetic rows with folded join/group keys, sorted on the rank attribute so the
        blocks' zone ranges are disjoint (what top-k early termination needs)."""
        raw = SyntheticGenerator(seed=seed).generate(count)
        folded = [
            (row[0] % self.KEY_DOMAIN, row[1], row[2] % self.GROUP_DOMAIN) + row[3:]
            for row in raw
        ]
        rank = SYNTHETIC_SCHEMA.index_of(self.RANK)
        return sorted(folded, key=lambda row: row[rank])

    def setup(self) -> None:
        schema = SYNTHETIC_SCHEMA
        left_rows = self._table(self.seed, self.rows_n)
        right_rows = self._table(self.seed + 1, self.rows_n * self.RIGHT_ROWS // self.ROWS)
        config = HailConfig.for_attributes(
            (self.JOIN_KEY,), functional_partition_size=1
        ).with_zone_maps()
        self.session = Session.deploy(
            nodes=NODES,
            hail_config=config,
            data_scale=data_scale(schema, left_rows, self.rows_per_block),
        )
        left = self.session.upload(self.LEFT, left_rows, schema, rows_per_block=self.rows_per_block)
        right = self.session.upload(
            self.RIGHT, right_rows, schema, rows_per_block=self.rows_per_block
        )
        reports = self.session.upload_reports
        left_blocks = reports[self.LEFT]["HAIL"].num_blocks
        both_blocks = left_blocks + reports[self.RIGHT]["HAIL"].num_blocks
        self.user_bytes = self._upload_report_bytes(self.LEFT) + self._upload_report_bytes(
            self.RIGHT
        )
        key, group, rank = (
            schema.index_of(name) for name in (self.JOIN_KEY, self.GROUP_KEY, self.RANK)
        )
        grouped = left.group_by(self.GROUP_KEY).agg("count(*)", f"sum({self.RANK})")
        sides = (left.select(self.JOIN_KEY, self.RANK), right.select(self.JOIN_KEY, self.RANK))
        groups = oracle.group_count_sum(left_rows, group, rank)
        joined = oracle.equi_join(left_rows, right_rows, key, (rank,))
        #: ``(name, dataset, expected rows, blocks planned, rank order matters)``.
        self.queries = [
            ("group-combiner", grouped.named("group-combiner"), groups, left_blocks, False),
            (
                "group-no-combiner",
                grouped.with_combiner(False).named("group-no-combiner"),
                groups,
                left_blocks,
                False,
            ),
            (
                "join-merge",
                sides[0].join(sides[1], on=self.JOIN_KEY).named("join-merge"),
                joined,
                both_blocks,
                False,
            ),
            (
                "join-hash",
                sides[0].join(sides[1], on=self.JOIN_KEY, strategy="hash").named("join-hash"),
                joined,
                both_blocks,
                False,
            ),
            (
                "top-k",
                left.order_by(self.RANK, descending=True).limit(self.TOP_K).named("top-k"),
                oracle.top_k(left_rows, rank, self.TOP_K),
                left_blocks,
                True,
            ),
        ]
        self.expected = {name: expected for name, _, expected, _, _ in self.queries}

    def sizes(self) -> dict:
        return {**super().sizes(), "right_rows": self.rows_n * self.RIGHT_ROWS // self.ROWS}

    def run_pass(self, rec) -> None:
        for name, dataset, _, blocks, ordered in self.queries:
            rec.op(
                dataset.collect,
                lambda result, name=name, blocks=blocks, ordered=ordered: query_outcome(
                    result, self.expected[name], blocks, ordered
                ),
            )


WORKLOADS: dict[str, type[Workload]] = {
    workload.name: workload
    for workload in (Ingest, BobIndexed, SyntheticScan, AdaptiveChurn, TenantBacklog, Operators)
}
