"""Suite-wide pytest configuration: the fast-fail order of ``pytest -x``.

Tier-1 is one command (``PYTHONPATH=src python -m pytest -x -q``) and CI runs exactly that.
The files below run first, in this order, because a failure in one of them explains most
failures after it; every other file follows in collection order.  Adding a test file needs no
edit here or in ``.github/workflows/ci.yml`` — list it only if it should fail fast.
"""

from __future__ import annotations

#: Run first under ``-x``, most fundamental first.
SMOKE_FIRST = (
    # Call-count guards and the kernel wall-clock floor: fail as a count before any stopwatch.
    "tests/test_text_mapper.py",
    "benchmarks/test_engine_filter.py",
    "tests/test_engine_kernels.py",
    "tests/test_import_footprint.py",
    "tests/test_block_leftovers.py",
    "tests/test_block_work.py",
    "tests/test_size_accounting.py",
    "tests/test_upload_once.py",
    "tests/test_block_batches.py",
    "tests/test_zone_flags.py",
    "tests/test_map_output_fingerprint.py",
    "tests/test_immutable_storage.py",
    "tests/test_zone_columns.py",
    "tests/test_join_groups.py",
    "tests/test_join_containers.py",
    "tests/test_split_memo.py",
    "tests/test_bookkeeping_per_change.py",
    "tests/test_plan_once.py",
    "tests/test_bind_once.py",
    "tests/test_restore_from_replicas.py",
    # The one map-phase loop every workload runs through, and the goldens pinned on it.
    "tests/test_golden_figures.py",
    "tests/test_mapreduce_scheduler_runner.py",
    # HAIL reaches that loop only through its input format: the layering guard.
    "tests/test_input_format_state.py",
    "tests/test_multi_tenant.py",
    # The knob census: a switch that comes back shows up here before its digest does.
    "tests/test_hail_block_config.py",
    "tests/test_scheduler_timeline.py",
    "tests/test_operator_jobs.py",
    "tests/test_api_session.py",
    "tests/test_dataset_ir_fingerprint.py",
    "tests/test_normalize_fingerprint.py",
    "tests/test_operator_api.py",
    "tests/test_concurrent_failure.py",
    "tests/test_scheduler_properties.py",
    # The one replica write path (Hdfs.install_replica) and the journal that follows it.
    "tests/test_persist_crash_matrix.py",
    "tests/test_journal_writes.py",
    "tests/test_persist_recovery.py",
    "tests/test_adaptive_failure.py",
    "tests/test_adaptive_lifecycle.py",
    # The tuner's law as a sub-second trajectory, before the fingerprint's four scenarios.
    "tests/test_tuner_trajectory.py",
    "tests/test_lifecycle_fingerprint.py",
    "tests/test_placement_balancer.py",
    # The extension experiments' acceptance floors.
    "benchmarks/test_saturation_curve.py",
    "benchmarks/test_placement_curve.py",
    "benchmarks/test_recovery_curve.py",
    "benchmarks/test_operators_curve.py",
    "benchmarks/test_ablations.py",
    "benchmarks/test_adaptive_convergence.py",
    "benchmarks/test_chaos_curve.py",
)


def pytest_collection_modifyitems(items) -> None:
    """Move the :data:`SMOKE_FIRST` files to the front; the sort is stable for the rest."""
    rank = {path: position for position, path in enumerate(SMOKE_FIRST)}
    items.sort(key=lambda item: rank.get(item.nodeid.partition("::")[0], len(rank)))
