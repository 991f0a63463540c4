"""The benchmark's entry point: one workload run, or the whole suite.

One workload, one process (what ``BENCHMARK.json``'s ``command`` runs)::

    python3 bench/run.py --workload bob_indexed --seed 7 --seconds 10 --trace 0

sets up (three times, reporting the median), runs one untimed warm-up pass, measures passes
for ``--seconds`` seconds, checks every reply against the oracle, and prints as its last line
one JSON object with the end-to-end metrics (``--trace 0``) or the per-layer metrics
(``--trace 1``: after the fixed passes every other pass records spans).

The suite (no ``--workload``) is what a person runs::

    python3 bench/run.py --out result.json [--seed 7] [--repeats 3] [--no-trace] [--quick]

It starts each workload in a child process ``--repeats`` times in round-robin order, then one
traced run each, prints every metric by name with its unit, writes the result file that
``bench/compare.py`` reads, and exits non-zero if any reply differed from the oracle.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter
from typing import Optional

ROOT = Path(__file__).resolve().parent.parent
if __package__ in (None, ""):
    # Run as a script: sys.path[0] is bench/ itself, where trace.py would shadow the standard
    # library's module of that name.  Import through the package from the repository root.
    sys.path[0] = str(ROOT)
if str(ROOT / "src") not in sys.path:
    sys.path.insert(1, str(ROOT / "src"))

from repro.engine import kernels  # noqa: E402
from repro.mapreduce.counters import Counters  # noqa: E402

from bench.trace import ROOT as ROOT_SPAN  # noqa: E402
from bench.trace import SPAN_NAMES, Tracer, per_operation, summarize  # noqa: E402
from bench.workloads import WORKLOADS, Outcome, Workload  # noqa: E402

#: Where a run may write (journals, span dumps): inside the checkout, ignored by git.
SCRATCH = ROOT / ".bench_tmp"
#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: Traced passes a traced run makes at least, however short its window.
MIN_TRACED_PASSES = 2
#: ``ops_per_s`` is the median over this many consecutive slices of the window's passes.
THROUGHPUT_SLICES = 5


def load_spec() -> dict:
    """``BENCHMARK.json``: the declared workloads and metrics (names, units, bounds)."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


# --------------------------------------------------------------------------- recording
class SpeedGauge:
    """Prices the machine's momentary speed with a fixed pure-python spin of a few milliseconds.

    The sandbox this benchmark runs in flips, for seconds to minutes at a time, between a
    quiet state and one in which the same single-threaded python takes about 1.6x as long
    (CPU time inflates with wall time, so it is a slower core, not a descheduled one).  Raw
    wall times therefore say more about the neighbours than about the code.  Every timed
    section is bracketed by spins (and one more whenever :data:`INTERVAL_S` has passed), and
    its wall time is scaled by ``NOMINAL_S / mean spin``: what it would have taken at the
    speed where the spin takes ``NOMINAL_S``.  The spin never changes, so a change that
    makes the engine slower still reads slower.
    """

    ITERATIONS = 20_000
    #: The spin's duration in the sandbox's quiet state.
    NOMINAL_S = 0.0034
    INTERVAL_S = 0.05

    def __init__(self) -> None:
        self._spins: list[float] = []
        #: Every spin's seconds, for the run's diagnostics (how disturbed was the machine).
        self.history: list[float] = []
        self._last = 0.0
        self._at = float("-inf")

    @staticmethod
    def spin() -> None:
        """The fixed reference work: arithmetic, list and dict traffic, string building, a sort.

        It allocates ints and strings but only three containers, so it never triggers a
        garbage collection of its own (a collection's cost depends on the heap the workload
        built, which would make the spin's duration depend on where it runs).
        """
        data = [(i * 7919) % 1009 for i in range(SpeedGauge.ITERATIONS)]
        histogram: dict[int, int] = {}
        for value in data:
            histogram[value] = histogram.get(value, 0) + 1
        text = [str(value) for value in data[: SpeedGauge.ITERATIONS // 3]]
        text.sort()

    def sample(self, force: bool = False) -> None:
        """Spin once if the last spin is older than :data:`INTERVAL_S` (or ``force``)."""
        start = perf_counter()
        if force or start - self._at >= self.INTERVAL_S:
            self.spin()
            self._at = perf_counter()
            self._last = self._at - start
            self._spins.append(self._last)
            self.history.append(self._last)

    def open(self) -> None:
        """Start a timed section (reusing the previous section's closing spin if fresh)."""
        fresh = perf_counter() - self._at < self.INTERVAL_S
        self._spins = [self._last] if fresh else []
        self.sample()

    def close(self) -> float:
        """End the section; returns the factor that scales its wall time to nominal speed."""
        self.sample(force=True)
        return self.NOMINAL_S * len(self._spins) / sum(self._spins)


class Recorder:
    """Times operations, counts the verified and the failed, and groups them into passes."""

    def __init__(self) -> None:
        self.tracer: Optional[Tracer] = None
        self.gauge = SpeedGauge()
        self.attempted = 0
        self.failed = 0
        #: Operations that ran with the tracer recording (what span totals are divided by).
        self.traced_ops = 0
        self.passes: list[dict] = []
        self._pass: Optional[dict] = None

    def begin_pass(self) -> None:
        self.gauge.open()
        self._pass = {
            "wall_s": 0.0,
            "ops": 0,
            "traced": self.tracer is not None,
            "outcome": Outcome(),
        }

    def end_pass(self) -> dict:
        finished, self._pass = self._pass, None
        #: The pass's wall seconds at nominal machine speed (see :class:`SpeedGauge`).
        finished["scaled_s"] = finished["wall_s"] * self.gauge.close()
        self.passes.append(finished)
        return finished

    def op(self, call, verify, ops: int = 1, in_pass: bool = True) -> float:
        """Time ``call()``; then, timer stopped, ``verify(reply)`` says how it went.

        The call stands for ``ops`` operations (a drain of 24 jobs is one call).  A call or a
        verification that raises fails all of them: the benchmark keeps running and reports
        it.  Returns the call's wall seconds; for a call outside a pass, scaled to nominal
        machine speed.
        """
        self.attempted += ops
        reply = None
        raised = False
        if in_pass:
            self.gauge.sample()
        else:
            self.gauge.open()
        start = perf_counter()
        try:
            if self.tracer is not None:
                self.traced_ops += ops
                with self.tracer.operation():
                    reply = call()
            else:
                reply = call()
        except Exception:
            raised = True
            traceback.print_exc(file=sys.stderr)
        wall_s = perf_counter() - start
        if not in_pass:
            wall_s *= self.gauge.close()
        outcome = Outcome(failed=ops)
        if not raised:
            try:
                outcome = verify(reply)
            except Exception:
                traceback.print_exc(file=sys.stderr)
        self.failed += outcome.failed
        if in_pass:
            self._pass["wall_s"] += wall_s
            self._pass["ops"] += ops
            self._pass["outcome"].absorb(outcome)
        return wall_s

    def fail_last(self) -> None:
        """A check made after an operation returned (an upload's read-back) failed."""
        self.failed += 1
        self._pass["outcome"].failed += 1


def _run_pass(workload: Workload, rec: Recorder) -> dict:
    rec.begin_pass()
    workload.run_pass(rec)
    return rec.end_pass()


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def sliced_throughput(passes: list[dict]) -> float:
    """Verified operations per second of operation time, as the median over
    :data:`THROUGHPUT_SLICES` consecutive slices of the passes.

    Each slice is a plain ratio over a stretch of the window, so spikes of the system's own
    making (garbage collection, an eviction cycle) count in full; the median over slices keeps
    one disturbed stretch of a shared machine from deciding the run's number.
    """
    slices = min(THROUGHPUT_SLICES, len(passes))
    rates = []
    for k in range(slices):
        chunk = passes[k * len(passes) // slices : (k + 1) * len(passes) // slices]
        rates.append(
            _ratio(
                sum(p["ops"] - p["outcome"].failed for p in chunk),
                sum(p["scaled_s"] for p in chunk),
            )
        )
    return statistics.median(rates)


def percentile(values: list[float], fraction: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, math.ceil(len(ordered) * fraction))
    return ordered[min(rank, len(ordered)) - 1]


# --------------------------------------------------------------------------- one workload
def run_workload(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    quick: bool = False,
    trace_out: Optional[str] = None,
) -> dict:
    """Run one workload in this process; returns the result object plus a ``detail`` block."""
    spec = load_spec()
    SCRATCH.mkdir(exist_ok=True)
    workload = WORKLOADS[name](seed, quick=quick, scratch=SCRATCH)
    rec = Recorder()
    tracer = Tracer()
    setup_s = []
    try:
        for _ in range(1 if quick else SETUP_REPEATS):
            workload.close()
            gc.collect()
            rec.gauge.open()
            start = perf_counter()
            workload.setup()
            wall_s = perf_counter() - start
            setup_s.append(wall_s * rec.gauge.close())

        _run_pass(workload, rec)  # warm-up: fills lazy state (zone maps, typed column views)
        rec.passes.clear()
        gc.collect()

        min_traced = 1 if quick else MIN_TRACED_PASSES
        deadline = perf_counter() + seconds
        stored_bytes = user_bytes = 0
        traced = 0
        while True:
            done_fixed = len(rec.passes) >= workload.fixed_passes
            if done_fixed and perf_counter() >= deadline and (not trace or traced >= min_traced):
                break
            if trace and done_fixed:
                # After the fixed passes every other pass records spans, so the traced and
                # the untraced sample cover the same stretch of a workload whose passes drift
                # (adaptive_churn), and their ratio prices the tracer alone.
                if not tracer.installed:
                    tracer.install()
                rec.tracer = tracer if len(rec.passes) % 2 == 0 else None
            finished = _run_pass(workload, rec)
            traced += finished["traced"]
            if len(rec.passes) == workload.fixed_passes:
                stored_bytes, user_bytes = workload.storage()
        rec.tracer = tracer if trace else None
        extra = workload.finish(rec)
    finally:
        tracer.uninstall()
        workload.close()
        try:
            SCRATCH.rmdir()
        except OSError:
            pass  # another run's journal is still in it

    fixed = rec.passes[: workload.fixed_passes]
    plain = [p for p in rec.passes if not p["traced"]]
    pass_ms = [p["scaled_s"] * 1000.0 for p in plain]
    detail = {
        "sizes": workload.sizes(),
        "pass_ms": pass_ms,
        "raw_pass_ms_p50": statistics.median(p["wall_s"] * 1000.0 for p in plain),
        "spin_ms_p50": statistics.median(rec.gauge.history) * 1000.0,
    }
    if not trace:
        declared = spec["end_to_end"]
        metrics = {
            "setup_s": statistics.median(setup_s),
            "ops_per_s": sliced_throughput(plain),
            "pass_ms_p50": statistics.median(pass_ms),
            "sim_s_per_pass": sum(p["outcome"].sim_s for p in fixed) / len(fixed),
            "stored_bytes_per_user_byte": _ratio(stored_bytes, user_bytes),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    else:
        declared = spec["per_layer"]
        metrics = _per_layer_metrics(tracer, rec, fixed, extra, detail)
        if trace_out:
            tracer.dump(trace_out)
    return {
        "correct": rec.failed == 0,
        "attempted": rec.attempted,
        "failed": rec.failed,
        # Exactly the declared metrics, in declared order, each with its declared unit.
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared},
        "detail": detail,
    }


def _per_layer_metrics(
    tracer: Tracer,
    rec: Recorder,
    fixed: list[dict],
    extra: dict,
    detail: dict,
) -> dict:
    """Span self times and calls per operation, plus the counts taken at the same boundaries."""
    traced = [p for p in rec.passes if p["traced"]]
    # The untraced passes interleaved with the traced ones (the fixed passes, if a window is
    # too short to leave any).
    plain = [p for p in rec.passes[len(fixed) :] if not p["traced"]] or fixed
    spans = per_operation(summarize(tracer.spans), rec.traced_ops)
    metrics: dict[str, float] = {}
    for name in SPAN_NAMES:
        entry = spans.get(name, {"self_ms_per_op": 0.0, "calls_per_op": 0.0})
        metrics[f"{name}.self_ms_per_op"] = entry["self_ms_per_op"]
        metrics[f"{name}.calls_per_op"] = entry["calls_per_op"]
    layer_spans = sorted(
        ((name, spans[name]["self_ms_per_op"]) for name in SPAN_NAMES if name in spans),
        key=lambda item: item[1],
        reverse=True,
    )
    detail["top_spans"] = [
        {"span": name, "self_ms_per_op": value} for name, value in layer_spans[:3]
    ]

    total = Outcome()
    for finished in fixed:
        total.absorb(finished["outcome"])
    jobs, rows, blocks = total.jobs, total.rows, total.blocks

    def count(name: str) -> float:
        return total.counters.get(name, 0)

    scans = count(Counters.INDEX_SCANS) + count(Counters.FULL_SCANS)
    builds = count(Counters.ADAPTIVE_INDEX_BUILDS)
    syncs = sum(
        spans.get(name, {}).get("calls_per_op", 0.0)
        for name in ("persist.sync_path", "persist.sync_block", "persist.sync_control")
    )
    root_ms = spans[ROOT_SPAN]["self_ms_per_op"] + sum(value for _, value in layer_spans)
    metrics.update(
        {
            "engine.bytes_read_per_row_returned": _ratio(count(Counters.BYTES_READ), rows),
            "engine.index_scan_share": _ratio(count(Counters.INDEX_SCANS), scans),
            "engine.zone_skip_share": _ratio(count(Counters.ZONE_MAP_SKIPPED_BLOCKS), blocks),
            "engine.adaptive_commit_ratio": _ratio(
                count(Counters.ADAPTIVE_INDEXES_COMMITTED), builds
            ),
            "engine.evictions_per_build": _ratio(count(Counters.ADAPTIVE_INDEXES_EVICTED), builds),
            "mapreduce.launched_tasks_per_job": _ratio(count(Counters.LAUNCHED_MAP_TASKS), jobs),
            "mapreduce.combine_ratio": _ratio(
                count(Counters.COMBINE_OUTPUT_RECORDS), count(Counters.COMBINE_INPUT_RECORDS)
            ),
            "mapreduce.queue_wait_sim_s_per_job": _ratio(
                count(Counters.SCHED_QUEUE_WAIT_SECONDS), jobs
            ),
            "persist.sync_calls_per_query": syncs,
            "persist.journal_bytes_per_user_byte": 0.0,
            "persist.restore_first_answer_ms": 0.0,
            "cluster.sim_speedup_vs_hadoop": _ratio(total.baseline_sim_s, total.sim_s),
            "trace.overhead_ratio": _ratio(
                statistics.median(p["scaled_s"] for p in traced),
                statistics.median(p["scaled_s"] for p in plain),
            ),
            "trace.unattributed_share": _ratio(spans[ROOT_SPAN]["self_ms_per_op"], root_ms),
        }
    )
    metrics.update(extra)
    return metrics


# --------------------------------------------------------------------------- the suite
def environment(seed: int, repeats: int, seconds: float, quick: bool) -> dict:
    """What a result must share with another before the two are compared."""
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "git_commit": commit,
        "python": platform.python_version(),
        "kernel_backend": kernels.active_backend(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "seed": seed,
        "repeats": repeats,
        "seconds": seconds,
        "quick": quick,
    }


def _child(name: str, seed: int, seconds: float, trace: bool, trace_out: Optional[str]) -> dict:
    """One workload run in a child process of its own (clean peak RSS, no shared state)."""
    command = [
        sys.executable,
        str(Path(__file__).resolve()),
        "--workload",
        name,
        "--seed",
        str(seed),
        "--seconds",
        str(seconds),
        "--trace",
        "1" if trace else "0",
    ]
    if trace_out:
        command += ["--trace-out", trace_out]
    done = subprocess.run(command, capture_output=True, text=True, timeout=900)
    sys.stderr.write(done.stderr)
    if done.returncode != 0:
        raise RuntimeError(f"workload {name} exited with code {done.returncode}")
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["detail"] = json.loads(lines[-2])
    return result


def run_suite(
    seed: int,
    repeats: int,
    seconds: float,
    trace: bool,
    quick: bool,
    trace_out: Optional[str] = None,
) -> dict:
    """Every workload ``repeats`` times, round-robin, then one traced run each.

    Round-robin order (w1..w6, w1..w6, ...) keeps sustained interference on a shared machine
    from landing on all repeats of one workload.  ``quick`` runs everything in this process.
    """
    spec = load_spec()
    started = perf_counter()
    names = [entry["name"] for entry in spec["workloads"]]
    runs: dict[str, list[dict]] = {name: [] for name in names}
    traced: dict[str, dict] = {}

    def one(name: str, with_trace: bool) -> dict:
        out = f"{trace_out}.{name}.jsonl" if (trace_out and with_trace) else None
        if quick:
            return run_workload(name, seed, seconds, with_trace, quick=True, trace_out=out)
        return _child(name, seed, seconds, with_trace, out)

    for _ in range(repeats):
        for name in names:
            runs[name].append(one(name, False))
    if trace:
        for name in names:
            traced[name] = one(name, True)

    workloads = {}
    for name in names:
        results = runs[name]
        end_to_end = {}
        for metric in spec["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in results]
            end_to_end[metric["name"]] = {
                "unit": metric["unit"],
                "median": statistics.median(values),
                "min": min(values),
                "max": max(values),
                "values": values,
            }
        pooled = [ms for r in results for ms in r["detail"]["pass_ms"]]
        entry = {
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "sizes": results[0]["detail"]["sizes"],
            # Unscaled, and how fast the reference spin ran: how disturbed each repeat was.
            "raw_pass_ms_p50": [r["detail"]["raw_pass_ms_p50"] for r in results],
            "spin_ms_p50": [r["detail"]["spin_ms_p50"] for r in results],
            "end_to_end": end_to_end,
            # Percentiles over the passes of all repeats; a p90 needs ten samples beyond it.
            "pooled_passes": {
                "count": len(pooled),
                "pass_ms_p50": statistics.median(pooled),
                "pass_ms_p90": percentile(pooled, 0.9) if len(pooled) >= 100 else None,
            },
        }
        if name in traced:
            run = traced[name]
            entry["attempted"] += run["attempted"]
            entry["failed"] += run["failed"]
            entry["per_layer"] = run["metrics"]
            entry["top_spans"] = run["detail"]["top_spans"]
        workloads[name] = entry
    env = environment(seed, repeats, seconds, quick)
    env["wall_s"] = perf_counter() - started
    return {"environment": env, "workloads": workloads}


def print_suite(result: dict) -> None:
    """Every metric by name, with its unit; the median and the min-max spread over repeats."""
    for name, entry in result["workloads"].items():
        share = entry["failed"] / entry["attempted"]
        print(f"\n== {name}  (failed {entry['failed']} of {entry['attempted']} operations, "
              f"failed_share {share:.4f}; sizes {entry['sizes']})")
        for metric, cell in entry["end_to_end"].items():
            print(f"  {metric:<28} {cell['median']:>14.4f} {cell['unit']:<6} "
                  f"[{cell['min']:.4f} .. {cell['max']:.4f}]")
        pooled = entry["pooled_passes"]
        p90 = "n/a (<100 passes)" if pooled["pass_ms_p90"] is None else f"{pooled['pass_ms_p90']:.3f} ms"
        print(f"  pooled over {pooled['count']} passes: p50 {pooled['pass_ms_p50']:.3f} ms, p90 {p90}")
        if "per_layer" in entry:
            tops = ", ".join(
                f"{top['span']} {top['self_ms_per_op']:.3f} ms/op" for top in entry["top_spans"]
            )
            print(f"  top self-time spans: {tops}")
            for metric, cell in entry["per_layer"].items():
                if cell["value"]:
                    print(f"    {metric:<44} {cell['value']:>14.4f} {cell['unit']}")


# --------------------------------------------------------------------------- command line
def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-out", help="write the traced run's spans as JSON lines")
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--no-trace", action="store_true")
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--out", help="suite mode: write the result file here")
    args = parser.parse_args(argv)
    seconds = args.seconds if args.seconds is not None else load_spec()["run_seconds"]

    if args.workload:
        result = run_workload(
            args.workload,
            args.seed,
            seconds,
            bool(args.trace),
            quick=args.quick,
            trace_out=args.trace_out,
        )
        print(json.dumps(result.pop("detail")))  # for the suite; the result is the last line
        print(json.dumps(result))
        return 0

    if args.quick:
        seconds, args.repeats = 0.0, 1
    result = run_suite(
        args.seed, args.repeats, seconds, not args.no_trace, args.quick, args.trace_out
    )
    print_suite(result)
    if args.out:
        Path(args.out).write_text(json.dumps(result, indent=1) + "\n")
    return 1 if any(w["failed"] for w in result["workloads"].values()) else 0


if __name__ == "__main__":
    sys.exit(main())
