"""Job counters, Hadoop style."""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Iterator, Mapping, NamedTuple, Optional


def attribute_slices(values: Mapping[str, float], base: str) -> Dict[str, float]:
    """Per-attribute slices of counter ``base`` in any counter mapping, keyed by attribute.

    The one place the ``"BASE[attr]"`` naming scheme (see :meth:`Counters.per_attribute`) is
    parsed — shared by :meth:`Counters.by_attribute` and the session-statistics snapshot, so
    the two can never drift apart.
    """
    prefix = base + "["
    return {
        name[len(prefix) : -1]: amount
        for name, amount in values.items()
        if name.startswith(prefix) and name.endswith("]")
    }


class CounterSpec(NamedTuple):
    """One declared counter: its name, its unit and what it counts, in one line."""

    name: str
    #: ``"count"`` (whole events), ``"seconds"`` (simulated) or ``"bytes"``.
    unit: str
    doc: str


# (name, unit, meaning): one row per counter the substrate itself increments.
_TABLE = (
    ("MAP_INPUT_RECORDS", "count", "Records the record readers handed to map functions."),
    ("MAP_OUTPUT_RECORDS", "count", "Pairs the map functions emitted."),
    ("REDUCE_INPUT_RECORDS", "count", "Values the shuffle delivered to reducers."),
    ("REDUCE_OUTPUT_RECORDS", "count", "Pairs the reducers emitted."),
    ("BYTES_READ", "bytes", "Functional bytes the record readers read from disk."),
    ("LAUNCHED_MAP_TASKS", "count",
     "Map-task attempts launched (speculative, preempted and lost ones included)."),
    ("RESCHEDULED_MAP_TASKS", "count",
     "Attempts that failed or died with their node and were queued to run again."),
    ("INDEX_SCANS", "count", "Map tasks that answered at least one block by index scan."),
    ("FULL_SCANS", "count", "Map tasks that answered no block by index scan."),
    ("ADAPTIVE_INDEX_BUILDS", "count",
     "Adaptive index builds staged by accepted attempts (before the commit deduplicates)."),
    ("ADAPTIVE_INDEXES_COMMITTED", "count", "Adaptive index builds registered with the namenode."),
    ("ADAPTIVE_BUILD_SECONDS", "seconds",
     "Simulated seconds the committed builds charged on top of their scans (the cost side)."),
    ("ADAPTIVE_INDEX_USES", "count", "Blocks answered via a previously built adaptive index."),
    ("ADAPTIVE_SAVED_SECONDS", "seconds",
     "Measured scan savings of those uses: counterfactual scan cost minus index-scan cost (the "
     "benefit side)."),
    ("SCAN_FALLBACK_BLOCKS", "count",
     "Blocks answered without any index — the pool adaptive builds could convert."),
    ("ZONE_MAP_SKIPPED_BLOCKS", "count",
     "Blocks answered by a verified zone-map skip: the min-max synopsis proved no row can "
     "match, so no data column was read (neither an index scan nor a scan fallback)."),
    ("ZONE_MAP_PRUNED_BYTES", "bytes",
     "Data-column bytes zone-map skipping and partition pruning saved from being read."),
    ("ADAPTIVE_INDEXES_EVICTED", "count", "Adaptive replicas dropped by disk-pressure eviction."),
    ("ADAPTIVE_BYTES_EVICTED", "bytes",
     "Bytes that left the per-node adaptive byte budgets (budget accounting — downgraded "
     "replicas keep their plain copy on disk, so physical reclamation can be smaller)."),
    # Index-aware scheduling tiers (only tracked for jobs whose input format asks for
    # ``index_aware_scheduling``; HAIL's sets it from its config).
    ("SCHED_INDEX_LOCAL", "count",
     "Map tasks launched on a node holding an index covering the query's filter attribute."),
    ("SCHED_PLAIN_LOCAL", "count",
     "Map tasks launched on a node holding only a plain replica of one of their blocks."),
    ("SCHED_REMOTE", "count",
     "Map tasks launched on a node holding no replica of their split (every read is remote)."),
    ("PLACEMENT_REREPLICATED", "count",
     "Adaptive replicas re-created by the placement balancer (evicted/lost coverage repaired)."),
    ("PLACEMENT_MIGRATED", "count",
     "Adaptive replicas migrated off hot nodes by the balancer's skew repair."),
    ("PLACEMENT_BYTES_MOVED", "bytes",
     "Replica bytes the balancer moved or re-created (rebuilds + migrations)."),
    # Tenancy and queueing, counted by the one scheduling loop (a serial job is its single-job
    # case: admitted once, 0.0 seconds of queue wait).
    ("TENANT_JOBS_ADMITTED", "count", "Jobs of this tenant admitted into the in-flight set."),
    ("TENANT_QUOTA_DEFERRALS", "count",
     "Episodes where an admitted job's next task was deferred because the tenant was already "
     "running `tenant_slot_quota` map tasks (one increment per episode)."),
    ("SCHED_QUEUE_WAIT_SECONDS", "seconds",
     "Simulated seconds between a job entering the shared queue and its first task launch."),
    ("SCHED_QUEUE_JOBS_INTERLEAVED", "count",
     "Jobs whose map phase overlapped another in-flight job on the shared slot pool (the "
     "saturation benchmark's evidence of genuine interleaving)."),
    # Relational operator subsystem (only incremented by jobs that install a combiner or run
    # through ``repro.engine.operators``, so plain scan jobs — and the pinned Figure 6/7 golden
    # runs — observe no new counters).
    ("COMBINE_INPUT_RECORDS", "count", "Intermediate pairs fed into map-side combiners."),
    ("COMBINE_OUTPUT_RECORDS", "count",
     "Pairs the combiners emitted (input minus output = pairs never shuffled)."),
    ("SHUFFLE_BYTES_SAVED", "bytes",
     "Scaled shuffle bytes the pairs eliminated by combining would have cost."),
    ("JOIN_MERGE_JOINS", "count",
     "Equi-joins executed as co-partitioned map-side merge joins (no shuffle)."),
    ("JOIN_HASH_JOINS", "count", "Equi-joins that fell back to (or forced) the shuffle hash join."),
    ("JOIN_OUTPUT_RECORDS", "count", "Joined rows emitted by either strategy."),
    ("TOPK_BLOCKS_READ", "count", "Blocks a ranked top-k operator actually read."),
    ("TOPK_BLOCKS_SKIPPED", "count",
     "Blocks a top-k operator's zone-map/sort-order bounds proved could not contribute."),
    # Scheduler hardening (only incremented with the matching knob on, so default jobs — and
    # the pinned Figure 6/7 golden runs — observe no new counters).
    ("SPEC_ATTEMPTS_LAUNCHED", "count",
     "Speculative backup attempts launched against suspected stragglers."),
    ("SPEC_ATTEMPTS_WON", "count",
     "Task completions where a speculative race had a winner (one per resolved race)."),
    ("SPEC_ATTEMPTS_DISCARDED", "count",
     "Attempts killed because their speculative rival finished first (work discarded)."),
    ("SPEC_WASTED_SECONDS", "seconds",
     "Simulated seconds discarded speculative attempts burned before the kill."),
    ("PREEMPT_ATTEMPTS_KILLED", "count",
     "Running attempts revoked mid-flight because their tenant exceeded its entitlement."),
    ("PREEMPT_WASTED_SECONDS", "seconds",
     "Simulated seconds preempted attempts burned before the kill."),
    ("DEADLINE_JOBS_MET", "count",
     "Jobs submitted with a `deadline_s` whose last map attempt finished in time."),
    ("DEADLINE_JOBS_MISSED", "count",
     "Jobs submitted with a `deadline_s` whose map phase overran it."),
)
#: The declared counters by name, in declaration order.  A row above is the one place a
#: counter is written down: its ``Counters.NAME`` constant, its typed ``session.stats()``
#: accessor (:class:`~repro.api.session.SessionStats`) and its row in the counter reference
#: of ``docs/api.md`` (``tools/lint_docs.py``) all come from it.
DECLARED: Dict[str, CounterSpec] = {row[0]: CounterSpec(*row) for row in _TABLE}


class Counters:
    """A named bag of monotonically increasing counters, Hadoop style: open, keyed by name.

    The names the substrate itself uses are declared in :data:`DECLARED` and available as
    constants (``Counters.BYTES_READ == "BYTES_READ"``).  Declaring a counter is one entry
    there — nothing mirrors it by hand.  Jobs may still increment any other name.
    """

    @staticmethod
    def per_attribute(base: str, attribute: str) -> str:
        """Name of the per-attribute slice of a counter (``"ADAPTIVE_INDEX_USES[f1]"``).

        The adaptive counters with per-attribute breakdowns (builds, build seconds, uses,
        saved seconds, fallbacks) are incremented twice (``increment(..., attribute=...)``):
        once under ``base`` (the job total the existing consumers read) and once under this
        per-attribute name, which is what feeds the per-attribute tuner ledgers and
        ``session.stats()``.
        """
        return f"{base}[{attribute}]"

    def __init__(self) -> None:
        self._values: Dict[str, float] = defaultdict(float)

    def increment(self, name: str, amount: float = 1, attribute: Optional[str] = None) -> None:
        """Add ``amount`` (default 1) to counter ``name`` — and to its ``attribute`` slice."""
        self._values[name] += amount
        if attribute is not None:
            self._values[self.per_attribute(name, attribute)] += amount

    def value(self, name: str) -> float:
        """Current value of a counter (0 if never incremented)."""
        return self._values.get(name, 0)

    def by_attribute(self, base: str) -> Dict[str, float]:
        """Per-attribute slices of ``base`` (see :meth:`per_attribute`), keyed by attribute."""
        return attribute_slices(self._values, base)

    def merge(self, other: "Counters") -> None:
        """Accumulate another counter bag into this one."""
        for name, amount in other._values.items():
            self._values[name] += amount

    def as_dict(self) -> dict[str, float]:
        """Snapshot of all counters."""
        return dict(self._values)

    def __iter__(self) -> Iterator[tuple[str, float]]:
        return iter(sorted(self._values.items()))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Counters({dict(self._values)!r})"


# The constants: ``Counters.NAME == "NAME"`` for every declared counter.
for _name in DECLARED:
    setattr(Counters, _name, _name)
