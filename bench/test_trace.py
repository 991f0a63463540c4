"""The tracer: span arithmetic, generators and recursion, clean uninstall, dump round trip."""

from __future__ import annotations

import pytest

from bench.conftest import layer_bindings
from bench.trace import ROOT, SPAN_NAMES, Tracer, load_spans, per_operation, summarize


def test_self_time_is_duration_minus_children_and_normalises_per_operation():
    spans = [
        (ROOT, 0.0, 10.0, -1, 0, True),
        ("a", 1.0, 9.0, 0, 0, True),
        ("b", 2.0, 4.0, 1, 0, True),
        ("a", 5.0, 8.0, 1, 0, True),  # recursion: a inside a
        ("g", 5.5, 6.0, 3, 0, True),  # a generator's first segment ...
        ("g", 6.5, 7.5, 3, 0, False),  # ... and a resume of the same generator
        (ROOT, 20.0, 21.0, -1, 1, True),
    ]
    summary = summarize(spans)
    assert summary[ROOT] == {"self_s": pytest.approx(2.0 + 1.0), "calls": 2}
    # Outer a: 8 - 2 (b) - 3 (inner a); inner a: 3 - 1.5 (g).  Together: a's own time once.
    assert summary["a"] == {"self_s": pytest.approx(3.0 + 1.5), "calls": 2}
    assert summary["b"] == {"self_s": pytest.approx(2.0), "calls": 1}
    assert summary["g"] == {"self_s": pytest.approx(1.5), "calls": 1}
    assert sum(entry["self_s"] for entry in summary.values()) == pytest.approx(11.0)

    per_op = per_operation(summary, operations=2)
    assert per_op["b"] == {"self_ms_per_op": pytest.approx(1000.0), "calls_per_op": 0.5}
    with pytest.raises(ValueError):
        per_operation(summary, operations=0)


def test_wrappers_record_nesting_recursion_and_generators_only_inside_an_operation():
    tracer = Tracer()

    def countdown(n):
        return 0 if n == 0 else 1 + countdown(n - 1)

    countdown = tracer.wrap("rec", countdown)

    def produce(n):
        for i in range(n):
            yield countdown(i)

    produce = tracer.wrap("gen", produce)
    consume = tracer.wrap("consume", lambda: list(produce(3)))

    assert consume() == [0, 1, 2] and tracer.spans == []  # outside an operation: pass-through
    with tracer.operation() as op:
        assert consume() == [0, 1, 2]
    names = [span[0] for span in tracer.spans]
    assert names[0] == ROOT and names[1] == "consume"
    summary = summarize(tracer.spans)
    assert summary["gen"]["calls"] == 1  # one generator, however many resumes
    assert names.count("gen") == 4  # three values and the final StopIteration segment
    assert summary["rec"]["calls"] == 1 + 2 + 3
    assert all(span[4] == op for span in tracer.spans)
    by_index = tracer.spans
    for name, start, end, parent, _, _ in by_index:
        assert start <= end
        if name == "rec":
            assert by_index[parent][0] in ("rec", "gen")
        if name == "gen":
            assert by_index[parent][0] == "consume"
    with pytest.raises(RuntimeError):
        with tracer.operation():
            with tracer.operation():
                pass


def test_install_rebinds_every_target_and_uninstall_restores_them():
    before = layer_bindings()
    tracer = Tracer()
    tracer.install()
    try:
        during = layer_bindings()
        changed = {key for key in before if before[key] != during[key]}
        from repro.api import session as session_module
        from repro.persist.sqlite_backend import SqliteBackend

        # Aliased imports are rebound where they are looked up, inherited methods on the subclass.
        assert ("repro.api.session", "execute_operator") in changed
        assert ("repro.mapreduce.runner", "run_reduce_phase") in changed
        assert ("repro.engine.operators.join", "run_reduce_phase") in changed
        assert "checkpoint" in vars(SqliteBackend)
        assert session_module.execute_operator.__wrapped__.__name__ == "execute"
    finally:
        tracer.uninstall()
    assert layer_bindings() == before
    assert "checkpoint" not in vars(SqliteBackend)


def test_quick_suite_leaves_no_wrapper_behind_and_journals_only_in_adaptive_churn(quick_suite):
    result, before, after = quick_suite
    assert {key: after[key] for key in before} == before
    persist_spans = [name for name in SPAN_NAMES if name.startswith("persist.")]
    assert len(persist_spans) == 6
    for name, entry in result["workloads"].items():
        calls = sum(entry["per_layer"][f"{span}.calls_per_op"]["value"] for span in persist_spans)
        if name == "adaptive_churn":
            assert calls > 0
            assert entry["per_layer"]["persist.restore_first_answer_ms"]["value"] > 0
        else:
            assert calls == 0, name


def test_span_dump_round_trips(tmp_path):
    tracer = Tracer()
    work = tracer.wrap("work", lambda: sum(range(100)))
    for _ in range(2):
        with tracer.operation():
            work()
    path = tmp_path / "spans.jsonl"
    tracer.dump(str(path))
    assert load_spans(str(path)) == tracer.spans
    assert len(path.read_text().splitlines()) == 4
