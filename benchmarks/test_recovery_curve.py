"""Recovery benchmark: what the durable persistence journal buys after a kill.

Three phases run one selective probe (``f1 <= VALUE_RANGE // 10``) on the synthetic dataset,
every deployment normalised by ``config.data_scale`` so blocks stand in for full-size HDFS
blocks:

1. **warm** — a deployment journaling into SQLite, with adaptive indexing on
   (``offer_rate=1.0``, no upload-time indexes), repeats the probe until the adaptive index
   pool stops growing; the last warm runtime is the converged steady state.
2. **restored** — the deployment is checkpointed and "killed" (the journal handle is closed,
   every in-memory structure dropped); :meth:`~repro.api.Session.restore` reopens the journal
   into a brand-new deployment and the probe runs again.
3. **cold restart** — the same deployment *without* persistence restarts the honest way:
   re-upload, then the probe (a full scan that also re-pays the adaptive builds).

The restore must be *exact* — same learned index pool, same runtime, same answers, bit for
bit — and the time to first answer from a dead cluster (re-ingest plus the cold probe against
the restored probe alone) must beat the cold restart by 2x; the assertions below are the floor.
"""

from repro.api import Session, col
from repro.datagen.synthetic import VALUE_RANGE, SyntheticGenerator
from repro.hail.config import HailConfig

#: Upper bound on warm probes; convergence always stops the loop well before this.
MAX_WARM_QUERIES = 12


def _zone_synopsis_count(system) -> int:
    """Dir_rep entries carrying a zone-map synopsis (the planner's skipping metadata)."""
    namenode = system.hdfs.namenode
    return sum(
        1
        for path in namenode.list_files()
        for block_id in namenode.file_blocks(path)
        for info in namenode.replica_infos(block_id, alive_only=False).values()
        if info.zone_ranges
    )


def _probe(session):
    return (
        session.dataset("/data/recovery")
        .where(col("f1") <= VALUE_RANGE // 10)
        .named("recovery-probe")
        .collect()
    )


def test_recovery_curve(config, tmp_path):
    """Restore is bit-identical to the warm steady state and ≥2x a cold restart."""
    generator = SyntheticGenerator(seed=config.seed)
    records, schema = generator.generate(config.num_records), generator.schema
    data_scale = config.data_scale(schema, records)
    cold_config = HailConfig.for_attributes((), functional_partition_size=1).with_adaptive(
        True, offer_rate=1.0
    )
    hail_config = cold_config.with_persistence("sqlite", directory=str(tmp_path))

    warm = Session.deploy(nodes=config.nodes, hail_config=hail_config, data_scale=data_scale)
    warm.upload("/data/recovery", records, schema, rows_per_block=config.rows_per_block)
    system = warm.system()
    probes = []
    for index in range(MAX_WARM_QUERIES):
        before = system.adaptive_replica_count("/data/recovery")
        probes.append(_probe(warm))
        if index > 0 and system.adaptive_replica_count("/data/recovery") == before:
            break
    steady = probes[-1]
    steady_replicas = system.adaptive_replica_count("/data/recovery")
    steady_synopses = _zone_synopsis_count(system)
    # Convergence happened during the warm phase.
    assert steady_replicas > 0
    warm.checkpoint()
    system.hdfs.persist.close()

    restored_session = Session.restore(hail_config, nodes=config.nodes, data_scale=data_scale)
    restored_system = restored_session.system()
    restored = _probe(restored_session)
    probes.append(restored)
    # The journal preserved all of it: the adaptive-replica pool and the zone-map synopses
    # survive the kill exactly ...
    assert restored_system.adaptive_replica_count("/data/recovery") == steady_replicas
    assert _zone_synopsis_count(restored_system) == steady_synopses
    # ... and the restored probe costs exactly the warm steady state — not "about the same",
    # bit-identical: the journal reproduced every replica's bytes and every knob.
    assert restored.runtime_s == steady.runtime_s
    restored_system.hdfs.persist.close()

    cold_session = Session.deploy(
        nodes=config.nodes, hail_config=cold_config, data_scale=data_scale
    )
    cold_session.upload("/data/recovery", records, schema, rows_per_block=config.rows_per_block)
    cold_ingest_s = cold_session.upload_reports["/data/recovery"]["HAIL"].total_s
    cold = _probe(cold_session)
    probes.append(cold)

    # Fidelity: every phase answers the probe identically — restore that changes an answer
    # is corruption, and so is a cold restart that does.
    assert all(probe.sorted_records() == steady.sorted_records() for probe in probes)

    # The cold control re-learns from scratch: its first probe is the un-indexed scan
    # (same cost as the warm deployment's own first query) plus the re-ingest, while the
    # restored deployment ingested nothing.
    assert cold.runtime_s > restored.runtime_s
    assert cold_ingest_s > 0.0
    assert not restored_session.upload_reports

    # This assertion is the recovery floor: time to first answer >= 2x a cold restart.
    assert (cold_ingest_s + cold.runtime_s) / restored.runtime_s >= 2.0
