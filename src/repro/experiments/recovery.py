"""Crash recovery: what the durable persistence backend buys after a kill (extension).

The paper's adaptive indexing (Section 6 / the LIAH extension) earns its speedups by paying
for index builds incrementally as queries run.  Without durability all of that learning lives
in process memory: kill the deployment and the next start is back to full scans until the
tuner has re-converged.  This experiment pins what :mod:`repro.persist` changes about that:

1. **warm phase** — a fresh deployment with SQLite persistence and adaptive indexing enabled
   (``offer_rate=1.0``, no upload-time indexes) runs the same selective filter until the
   adaptive index pool stops growing; the last warm runtime is the converged steady state.
2. **kill + restore** — the deployment is checkpointed and "killed" (the backend handle is
   closed; all process state is discarded).  :meth:`~repro.api.Session.restore` reopens the
   journal into a brand-new deployment and the probe query runs again.  The restored runtime
   must equal the warm steady state **bit-identically** — the journal reproduced the learned
   index pool (adaptive replica count and zone-map synopsis count both survive) — and the
   answer must match the warm answer bit for bit.
3. **cold control** — the same deployment *without* persistence restarts the honest way:
   re-upload the dataset, then run the probe (a full scan that also re-pays the adaptive
   builds).  ``recovery_speedup`` compares **time to first answer** from a dead cluster —
   the classic recovery-time objective: the cold restart pays re-ingest plus the un-learned
   first query, the restored deployment only pays the (index-served) probe.  The floor is
   2x, asserted by ``benchmarks/test_recovery_curve.py``.

The curve rows show the three phases side by side (one row per warm query, then the restored
probe, then the cold restart), so the convergence the journal preserves is visible in the
table.
"""

from __future__ import annotations

import shutil
import tempfile
from typing import Optional

from repro.api import Session, col
from repro.datagen.synthetic import VALUE_RANGE, SyntheticGenerator
from repro.experiments.config import ExperimentConfig
from repro.experiments.report import FigureResult
from repro.hail.config import HailConfig

#: Columns of the recovery curve (one row per query across the three phases).
_RECOVERY_COLUMNS = [
    "phase",
    "query_index",
    "runtime_s",
    "restart_ingest_s",
    "adaptive_replicas",
    "zone_synopses",
    "results_identical",
]

#: The attribute the probe filters on — the one the adaptive tuner learns to index.
RECOVERY_ATTRIBUTE = "f1"

#: Where the dataset lives in every deployment of the experiment.
_PATH = "/data/recovery"

#: Upper bound on warm queries; convergence always stops the loop well before this.
_MAX_WARM_QUERIES = 12


def _zone_synopsis_count(namenode) -> int:
    """Dir_rep entries carrying a zone-map synopsis (the planner's skipping metadata)."""
    count = 0
    for path in namenode.list_files():
        for block_id in namenode.file_blocks(path):
            for info in namenode.replica_infos(block_id, alive_only=False).values():
                if info.zone_ranges:
                    count += 1
    return count


def _probe(session: Session):
    """The selective probe query (~10% of :data:`VALUE_RANGE`) every phase runs."""
    return (
        session.dataset(_PATH)
        .where(col(RECOVERY_ATTRIBUTE) <= VALUE_RANGE // 10)
        .named("recovery-probe")
        .collect()
    )


def recovery_curve(
    config: Optional[ExperimentConfig] = None,
    persistence_dir: Optional[str] = None,
) -> FigureResult:
    """Warm-to-convergence, kill, restore, and cold-restart runtimes of one probe query.

    ``persistence_dir`` overrides where the SQLite journal lives (a throwaway temporary
    directory by default, removed before returning).
    """
    config = config or ExperimentConfig.small()
    generator = SyntheticGenerator(seed=config.seed)
    records = generator.generate(config.num_records)
    schema = generator.schema
    # The same byte normalization every other experiment uses: blocks simulate full-size
    # HDFS blocks, so scan/ingest costs are realistic rather than toy-sized.
    data_scale = config.data_scale(schema, records)

    owns_dir = persistence_dir is None
    directory = persistence_dir or tempfile.mkdtemp(prefix="repro-recovery-")
    hail_config = (
        HailConfig.for_attributes((), functional_partition_size=1)
        .with_adaptive(True, offer_rate=1.0)
        .with_persistence("sqlite", directory=directory)
    )

    result = FigureResult(
        figure="Recovery curve",
        description=(
            f"adaptive convergence on {config.nodes} nodes with a SQLite journal; "
            "kill after convergence, restore from the journal, and compare against an "
            "honest persistence-off cold restart"
        ),
        columns=list(_RECOVERY_COLUMNS),
    )

    try:
        # --- phase 1: warm a persistent deployment until the adaptive pool stops growing.
        warm = Session.deploy(nodes=config.nodes, hail_config=hail_config, data_scale=data_scale)
        warm.upload(_PATH, records, schema, rows_per_block=config.rows_per_block)
        system = warm.system()
        baseline = None
        steady = None
        for index in range(_MAX_WARM_QUERIES):
            before = system.adaptive_replica_count(_PATH)
            steady = _probe(warm)
            if baseline is None:
                baseline = steady.sorted_records()
            result.add_row(
                phase="warm",
                query_index=index,
                runtime_s=steady.runtime_s,
                restart_ingest_s=0.0,
                adaptive_replicas=system.adaptive_replica_count(_PATH),
                zone_synopses=_zone_synopsis_count(system.hdfs.namenode),
                results_identical=steady.sorted_records() == baseline,
            )
            if index > 0 and system.adaptive_replica_count(_PATH) == before:
                break
        warm.checkpoint()
        checkpoint_adaptive = system.adaptive_replica_count(_PATH)
        checkpoint_synopses = _zone_synopsis_count(system.hdfs.namenode)
        # "Kill" the deployment: drop every in-memory structure; only the journal survives.
        system.hdfs.persist.close()

        # --- phase 2: restore from the journal into a brand-new deployment and re-probe.
        restored_session = Session.restore(hail_config, nodes=config.nodes, data_scale=data_scale)
        restored_system = restored_session.system()
        restored = _probe(restored_session)
        result.add_row(
            phase="restored",
            query_index=0,
            runtime_s=restored.runtime_s,
            restart_ingest_s=0.0,
            adaptive_replicas=restored_system.adaptive_replica_count(_PATH),
            zone_synopses=_zone_synopsis_count(restored_system.hdfs.namenode),
            results_identical=restored.sorted_records() == baseline,
        )
        restored_system.hdfs.persist.close()

        # --- phase 3: the persistence-off control restarts cold — re-upload, full scan.
        cold_config = HailConfig.for_attributes((), functional_partition_size=1).with_adaptive(
            True, offer_rate=1.0
        )
        cold_session = Session.deploy(nodes=config.nodes, hail_config=cold_config, data_scale=data_scale)
        cold_session.upload(_PATH, records, schema, rows_per_block=config.rows_per_block)
        cold_upload = cold_session.upload_reports[_PATH]["HAIL"]
        cold = _probe(cold_session)
        result.add_row(
            phase="cold-restart",
            query_index=0,
            runtime_s=cold.runtime_s,
            restart_ingest_s=cold_upload.total_s,
            adaptive_replicas=cold_session.system().adaptive_replica_count(_PATH),
            zone_synopses=_zone_synopsis_count(cold_session.system().hdfs.namenode),
            results_identical=cold.sorted_records() == baseline,
        )
    finally:
        if owns_dir:
            shutil.rmtree(directory, ignore_errors=True)

    result.notes = (
        "restored runtime must equal the last warm runtime bit-identically (the journal "
        "reproduces the learned index pool: "
        f"{checkpoint_adaptive} adaptive replicas, {checkpoint_synopses} zone synopses); "
        "cold-restart is the honest persistence-off control the recovery speedup is "
        "measured against."
    )
    return result
