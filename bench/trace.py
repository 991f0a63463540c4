"""Span tracing from outside ``src/``: wrappers around the public callables of each layer.

A :class:`Tracer` rebinds the callables named in :data:`SPAN_TARGETS` to timing wrappers,
records one span per call (name, start, end, parent span, operation id) in memory while an
operation is open, and puts every binding back on :meth:`Tracer.uninstall`.  Nothing under
``src/`` knows about it.  Outside an operation the wrappers call straight through, so the
harness's own verification queries are neither recorded nor slowed by span bookkeeping.

A span is the tuple ``(name, start_s, end_s, parent, op, first)``: ``parent`` is the index of
the enclosing span (-1 for an operation's root), ``op`` the operation id shared by all spans
of one operation, and ``first`` is False only for the second and later resume segments of a
traced generator (each resume is its own span, so time spent in the consumer between two
``next()`` calls is not billed to the generator).
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
from contextlib import contextmanager
from functools import wraps
from time import perf_counter
from typing import Callable, Iterable, Iterator, Sequence

#: Name of the span the harness opens around each timed operation.
ROOT = "op"

#: ``(span name, module, attribute)``: the layer boundaries, one public callable each.
#: ``Class.method`` rebinds the class attribute.  A bare function name rebinds *every*
#: ``repro`` module global that holds the function, because ``from x import f`` copies the
#: binding into the importing module and that copy is what its callers look up.
SPAN_TARGETS: tuple[tuple[str, str, str], ...] = (
    ("api.compile", "repro.api.session", "Dataset.to_query"),
    ("api.session", "repro.api.session", "Session.upload"),
    ("api.session", "repro.api.session", "Session.run"),
    ("api.session", "repro.api.session", "Session.restore"),
    ("api.session", "repro.api.session", "Session.checkpoint"),
    ("api.session", "repro.api.session", "run_multi_tenant_batch"),
    ("systems.upload", "repro.systems.base", "BaseSystem.upload"),
    ("systems.run_query", "repro.systems.base", "BaseSystem.run_query"),
    ("systems.run_queries", "repro.systems.base", "BaseSystem.run_queries"),
    ("hdfs.client_upload", "repro.hdfs.client", "HdfsClient.upload"),
    ("hdfs.total_stored_bytes", "repro.hdfs.filesystem", "Hdfs.total_stored_bytes"),
    ("hdfs.store_replica", "repro.hdfs.datanode", "DataNode.store_replica"),
    ("hdfs.checksums", "repro.hdfs.checksum", "chunk_checksums"),
    ("hdfs.checksums", "repro.hdfs.checksum", "verify_chunk_checksums"),
    ("hdfs.text_upload_block", "repro.hdfs.pipeline", "StandardUploadPipeline.upload_block"),
    ("hail.upload_block", "repro.hail.upload", "HailUploadPipeline.upload_block"),
    ("hail.block_build", "repro.hail.hail_block", "HailBlock.build"),
    ("hail.get_splits", "repro.hail.input_format", "HailInputFormat.get_splits"),
    ("layouts.pax_from_records", "repro.layouts.pax", "PaxBlock.from_records"),
    ("layouts.pax_to_bytes", "repro.layouts.pax", "PaxBlock.to_bytes"),
    ("layouts.pax_from_bytes", "repro.layouts.pax", "PaxBlock.from_bytes"),
    ("layouts.pax_size_bytes", "repro.layouts.pax", "PaxBlock.size_bytes"),
    ("layouts.pax_size_bytes", "repro.layouts.pax", "PaxBlock.column_size_bytes"),
    ("layouts.pax_size_bytes", "repro.layouts.pax", "PaxBlock.projected_size_bytes"),
    ("layouts.zonemap_build", "repro.layouts.zonemap", "ZoneMap.build"),
    ("engine.plan_query", "repro.engine.planner", "PhysicalPlanner.plan_query"),
    ("engine.plan_block", "repro.engine.planner", "PhysicalPlanner.plan_block"),
    ("engine.execute", "repro.engine.executor", "VectorizedExecutor.execute"),
    ("engine.execute_text", "repro.engine.executor", "VectorizedExecutor.execute_text"),
    ("engine.filter_kernel", "repro.engine.kernels", "filter_ranges"),
    ("engine.adaptive_commit", "repro.engine.adaptive", "commit_adaptive_builds"),
    ("engine.lifecycle_after_job", "repro.engine.lifecycle", "AdaptiveLifecycleManager.after_job"),
    ("engine.operator_execute", "repro.engine.operators", "execute"),
    ("mapreduce.runner", "repro.mapreduce.runner", "MapReduceRunner.run"),
    ("mapreduce.runner", "repro.mapreduce.runner", "MapReduceRunner.run_concurrent"),
    ("mapreduce.compute_splits", "repro.mapreduce.job_client", "JobClient.compute_splits"),
    ("mapreduce.map_phase", "repro.mapreduce.job_tracker", "JobTracker.run_map_phase"),
    (
        "mapreduce.concurrent_map_phases",
        "repro.mapreduce.job_tracker",
        "JobTracker.run_concurrent_map_phases",
    ),
    ("mapreduce.map_task", "repro.mapreduce.task", "MapTask.run"),
    ("mapreduce.combine", "repro.mapreduce.shuffle", "combine_map_output"),
    ("mapreduce.reduce_phase", "repro.mapreduce.shuffle", "run_reduce_phase"),
    ("persist.sync_path", "repro.persist.sqlite_backend", "SqliteBackend.sync_path"),
    ("persist.sync_block", "repro.persist.sqlite_backend", "SqliteBackend.sync_block"),
    ("persist.sync_control", "repro.persist.sqlite_backend", "SqliteBackend.sync_control"),
    ("persist.checkpoint", "repro.persist.sqlite_backend", "SqliteBackend.checkpoint"),
    ("persist.load_state", "repro.persist.sqlite_backend", "SqliteBackend.load_state"),
    ("persist.restore_system", "repro.persist.state", "restore_system"),
)

#: Every span name, in layer order (the per-layer metric list is derived from this).
SPAN_NAMES: tuple[str, ...] = tuple(dict.fromkeys(name for name, _, _ in SPAN_TARGETS))


class Tracer:
    """Records spans in memory; installs and removes the layer wrappers."""

    def __init__(self) -> None:
        self.spans: list = []
        self._stack: list[int] = []
        self._op = -1
        self._next_op = 0
        #: ``(owner, attribute, previous value, owner had the attribute itself)`` per rebind.
        self._undo: list[tuple[object, str, object, bool]] = []

    # ------------------------------------------------------------------ recording
    def _begin(self) -> int:
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append(index)
        return index

    def _end(self, index: int, name: str, start: float, first: bool = True) -> None:
        end = perf_counter()
        stack = self._stack
        stack.pop()
        parent = stack[-1] if stack else -1
        self.spans[index] = (name, start, end, parent, self._op, first)

    @contextmanager
    def operation(self) -> Iterator[int]:
        """Open one operation: a :data:`ROOT` span under which the wrappers record."""
        if self._op >= 0:
            raise RuntimeError("operations do not nest")
        self._op = self._next_op
        self._next_op += 1
        index = self._begin()
        start = perf_counter()
        try:
            yield self._op
        finally:
            self._end(index, ROOT, start)
            self._op = -1

    def wrap(self, name: str, function: Callable) -> Callable:
        """A wrapper of ``function`` recording one ``name`` span per call inside an operation."""
        if inspect.isgeneratorfunction(function):

            @wraps(function)
            def generator_wrapper(*args, **kwargs):
                generator = function(*args, **kwargs)
                if self._op < 0:
                    return generator
                return self._trace_generator(name, generator)

            return generator_wrapper

        @wraps(function)
        def wrapper(*args, **kwargs):
            if self._op < 0:
                return function(*args, **kwargs)
            index = self._begin()
            start = perf_counter()
            try:
                return function(*args, **kwargs)
            finally:
                self._end(index, name, start)

        return wrapper

    def _trace_generator(self, name: str, generator):
        first = True
        while True:
            index = self._begin()
            start = perf_counter()
            try:
                value = next(generator)
            except StopIteration:
                return
            finally:
                self._end(index, name, start, first)
            first = False
            yield value

    # ------------------------------------------------------------------ (un)installing
    def install(self, targets: Sequence[tuple[str, str, str]] = SPAN_TARGETS) -> None:
        """Rebind every target to its wrapper; :meth:`uninstall` undoes exactly this."""
        for name, module_name, attribute in targets:
            module = importlib.import_module(module_name)
            if "." in attribute:
                class_name, method = attribute.split(".")
                self._rebind_method(name, getattr(module, class_name), method)
            else:
                self._rebind_function(name, getattr(module, attribute))

    def _rebind_method(self, name: str, owner: type, method: str) -> None:
        own = method in vars(owner)
        current = vars(owner)[method] if own else getattr(owner, method)
        if isinstance(current, (classmethod, staticmethod)):
            wrapped = type(current)(self.wrap(name, current.__func__))
        else:
            wrapped = self.wrap(name, current)
        self._undo.append((owner, method, current, own))
        setattr(owner, method, wrapped)

    def _rebind_function(self, name: str, function: Callable) -> None:
        wrapped = self.wrap(name, function)
        for module_name, module in list(sys.modules.items()):
            if module is None or module_name.partition(".")[0] != "repro":
                continue
            for attribute, value in list(vars(module).items()):
                if value is function:
                    self._undo.append((module, attribute, function, True))
                    setattr(module, attribute, wrapped)

    @property
    def installed(self) -> bool:
        """Are the layer wrappers bound right now?"""
        return bool(self._undo)

    def uninstall(self) -> None:
        """Put every binding back, newest first."""
        while self._undo:
            owner, attribute, previous, own = self._undo.pop()
            if own:
                setattr(owner, attribute, previous)
            else:
                delattr(owner, attribute)

    # ------------------------------------------------------------------ output
    def dump(self, path: str) -> None:
        """Write the recorded spans as JSON lines, in start order (index == line number)."""
        with open(path, "w", encoding="utf-8") as out:
            for name, start, end, parent, op, first in self.spans:
                out.write(
                    json.dumps(
                        {
                            "name": name,
                            "start_s": start,
                            "end_s": end,
                            "parent": parent,
                            "op": op,
                            "first": first,
                        }
                    )
                )
                out.write("\n")


def load_spans(path: str) -> list[tuple]:
    """Read a :meth:`Tracer.dump` file back into span tuples."""
    spans = []
    with open(path, encoding="utf-8") as lines:
        for line in lines:
            row = json.loads(line)
            spans.append(
                (row["name"], row["start_s"], row["end_s"], row["parent"], row["op"], row["first"])
            )
    return spans


def summarize(spans: Iterable[tuple]) -> dict[str, dict[str, float]]:
    """Per span name: summed self time (duration minus child spans) and number of calls.

    A recursive or same-name nested call subtracts from its parent and adds itself, so the
    name's total is the time inside the outermost call, counted once.
    """
    spans = list(spans)
    child_s = [0.0] * len(spans)
    for name, start, end, parent, _op, _first in spans:
        if parent >= 0:
            child_s[parent] += end - start
    summary: dict[str, dict[str, float]] = {}
    for index, (name, start, end, _parent, _op, first) in enumerate(spans):
        entry = summary.setdefault(name, {"self_s": 0.0, "calls": 0})
        entry["self_s"] += (end - start) - child_s[index]
        if first:
            entry["calls"] += 1
    return summary


def per_operation(
    summary: dict[str, dict[str, float]], operations: int
) -> dict[str, dict[str, float]]:
    """Normalise a :func:`summarize` result to self milliseconds and calls per operation."""
    if operations <= 0:
        raise ValueError("per-operation figures need at least one operation")
    return {
        name: {
            "self_ms_per_op": entry["self_s"] * 1000.0 / operations,
            "calls_per_op": entry["calls"] / operations,
        }
        for name, entry in summary.items()
    }
