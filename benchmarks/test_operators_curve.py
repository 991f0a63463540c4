"""Operator benchmark: what the HAIL layout buys grouped aggregation, joins and top-k.

Pins the acceptance properties of :mod:`repro.engine.operators` end to end on a
benchmark-scale deployment: the map-side combiner must cut shuffled pairs ≥2x, the planner
must pick the shuffle-free merge join on co-partitioned sides without it ever costing more
than the forced hash fallback, and ranked top-k must open fewer than half the file's blocks
— the assertions below are the floors.  Every variant's rows are cross-checked against brute
force inside the curve, and a single ``results_identical=False`` fails here.
"""

from conftest import run_figure

from repro.experiments import operators


def test_operators_curve(benchmark, config):
    """Combiner ≥2x pair reduction, merge ≤ hash runtime, top-k reads <50% of blocks."""
    result = run_figure(benchmark, operators.operators_curve, config)

    # Fidelity first: every operator variant answered identically to brute force.
    for row in result.rows:
        assert row["results_identical"], f"{row['operator']}/{row['variant']} changed answers"

    combined = result.row_for("variant", "combiner-on")
    uncombined = result.row_for("variant", "combiner-off")
    assert combined["output_rows"] == uncombined["output_rows"]
    # This assertion is the combiner floor: combining shrinks the shuffle ≥2x.
    assert uncombined["shuffled_pairs"] >= 2 * combined["shuffled_pairs"] > 0

    merge = result.row_for("variant", "merge")
    hash_row = result.row_for("variant", "hash")
    assert merge["output_rows"] == hash_row["output_rows"] > 0
    # The merge join shuffles nothing; the hash fallback pays the real reduce phase.
    assert merge["shuffled_pairs"] == 0 and hash_row["shuffled_pairs"] > 0
    assert merge["runtime_s"] <= hash_row["runtime_s"]

    topk = result.row_for("operator", "topk")
    total = topk["blocks_read"] + topk["blocks_skipped"]
    assert total > 0 and topk["blocks_read"] / total < 0.5
    assert topk["output_rows"] == operators._TOP_K
