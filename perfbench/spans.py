"""Layer spans recorded from outside the program.

:func:`install` replaces each traced public function, at the name its
caller looks it up by (a class attribute or a module global), with a
wrapper that records one span: name, start, end, parent span and request
id.  Nothing in ``src/`` changes; removing the wrappers restores the
original objects.  Spans stay in memory and are written out once, when the
run ends.

Work done in forked executor workers cannot reach the parent's span list,
so there the wrappers fold each span into the worker's process-wide
counters (``span.<name>.seconds`` / ``.calls``), which
``Executor.map_counted`` already ships back and merges into the parent.
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import inspect
import json
import os
import pickle
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

#: (span name, module, class or None for a module global, attribute)
TARGETS: Tuple[Tuple[str, str, Optional[str], str], ...] = (
    ("engine.search", "repro.engine.facade", "Engine", "search"),
    ("engine.add_graphs", "repro.engine.facade", "Engine", "add_graphs"),
    ("engine.remove_graphs", "repro.engine.facade", "Engine", "remove_graphs"),
    ("planner.plan", "repro.search.planner", "GlobalPlanner", "plan"),
    ("planner.partition", "repro.search.planner", None, "select_partition"),
    ("index.enumerate", "repro.index.fragment_index", "FragmentIndex", "enumerate_query_fragments"),
    ("index.range_query", "repro.index.fragment_index", "FragmentIndex", "range_query"),
    ("index.range_query", "repro.index.sharded", "ShardedFragmentIndex", "range_query"),
    ("pis.execute", "repro.search.pis", "PISearch", "execute_plan"),
    ("verify", "repro.search.verify", "BoundedVerifier", "verify"),
    ("kernel.search", "repro.core.kernel", None, "kernel_best_superposition"),
    ("exec.scatter", "repro.exec", "Executor", "map_counted"),
    ("exec.scatter", "repro.exec", "ProcessExecutor", "map_counted"),
    ("store.wal_append", "repro.store.wal", "WriteAheadLog", "append"),
    ("mining.select", "repro.mining.exhaustive", "ExhaustiveFeatureSelector", "select"),
    ("index.build", "repro.index.fragment_index", "FragmentIndex", "build"),
    ("index.build", "repro.index.sharded", "ShardedFragmentIndex", "build"),
)

#: span that wraps the tracer's own payload measurement inside a scatter
#: (subtracted from the scatter's time)
PAYLOAD_SPAN = "trace.payload_measure"

#: counter timers that make up one shard task's compute inside a worker
_WORKER_TIMERS = ("filter.seconds", "verify.seconds")


class _DeltaRecorder:
    """Stand-in ``map_counted`` sink: keeps each task's counter delta and
    forwards it to the real sink, so the slowest shard is visible."""

    def __init__(self, sink: Any):
        self.sink = sink
        self.deltas: List[Dict[str, float]] = []

    def merge(self, delta: Dict[str, float]) -> None:
        self.deltas.append(dict(delta))
        if self.sink is not None:
            self.sink.merge(delta)


class Tracer:
    """In-memory span recorder; see the module docstring."""

    def __init__(self) -> None:
        #: ``[name, start, end, parent index, request id, attrs]`` per span
        self.spans: List[List[Any]] = []
        self._current: contextvars.ContextVar = contextvars.ContextVar(
            "perfbench_span", default=None
        )
        self._lock = threading.Lock()
        self._next_request = 0
        self._pid = os.getpid()
        self._installed: List[Tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def _open(self, name: str) -> Tuple[int, Any]:
        parent = self._current.get()
        with self._lock:
            if parent is None:
                self._next_request += 1
                request = self._next_request
                parent_index = None
            else:
                parent_index, request = parent
            index = len(self.spans)
            self.spans.append([name, time.perf_counter(), None, parent_index, request, None])
        return index, self._current.set((index, request))

    def _close(self, index: int, token: Any) -> None:
        self.spans[index][2] = time.perf_counter()
        self._current.reset(token)

    def wrap(self, name: str, fn: Callable) -> Callable:
        """``fn`` wrapped so every call records a span called ``name``."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if os.getpid() != tracer._pid:
                from repro.perf import GLOBAL_COUNTERS

                start = time.perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    GLOBAL_COUNTERS.add_time(f"span.{name}", time.perf_counter() - start)
            index, token = tracer._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(index, token)

        return traced

    def wrap_scatter(self, fn: Callable) -> Callable:
        """``map_counted`` wrapped: a scatter span carrying the pickled
        payload size per task and each task's worker-side compute time."""
        tracer = self

        @functools.wraps(fn)
        def traced(executor, task, items, sink=None):
            if os.getpid() != tracer._pid:
                return fn(executor, task, items, sink)
            items = list(items)
            index, token = tracer._open("exec.scatter")
            try:
                measure, measure_token = tracer._open(PAYLOAD_SPAN)
                sizes = [len(pickle.dumps((task, item), pickle.HIGHEST_PROTOCOL)) for item in items]
                tracer._close(measure, measure_token)
                recorder = _DeltaRecorder(sink)
                result = fn(executor, task, items, recorder)
                worker_seconds = [
                    sum(delta.get(timer, 0.0) for timer in _WORKER_TIMERS)
                    for delta in recorder.deltas
                ]
                tracer.spans[index][5] = {
                    "payload_bytes": sizes,
                    "worker_seconds": worker_seconds,
                }
                return result
            finally:
                tracer._close(index, token)

        return traced

    def install(self) -> "Tracer":
        """Wrap every target; idempotent per tracer."""
        if self._installed:
            return self
        for name, module_name, class_name, attribute in TARGETS:
            module = importlib.import_module(module_name)
            owner = getattr(module, class_name) if class_name else module
            original = inspect.getattr_static(owner, attribute)
            if isinstance(original, classmethod):
                replacement: Any = classmethod(self.wrap(name, original.__func__))
            elif name == "exec.scatter":
                replacement = self.wrap_scatter(original)
            else:
                replacement = self.wrap(name, original)
            setattr(owner, attribute, replacement)
            self._installed.append((owner, attribute, original))
        return self

    def uninstall(self) -> None:
        """Put every original function back."""
        for owner, attribute, original in reversed(self._installed):
            setattr(owner, attribute, original)
        self._installed.clear()

    # ------------------------------------------------------------------
    # persistence (the served launcher writes, served.py reads)
    # ------------------------------------------------------------------
    def dump(self, path: str, extra: Optional[Dict[str, Any]] = None) -> None:
        """Write every span (plus ``extra``) as one JSON document."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"spans": self.spans, "extra": extra or {}}, handle)


def load(path: str) -> Tuple[List[List[Any]], Dict[str, Any]]:
    """Read a document written by :meth:`Tracer.dump`."""
    with open(path, encoding="utf-8") as handle:
        data = json.load(handle)
    return data["spans"], data["extra"]


# ----------------------------------------------------------------------
# analysis
# ----------------------------------------------------------------------
class SpanTree:
    """Durations, self times and per-request totals of a span list."""

    def __init__(self, spans: List[List[Any]]):
        self._all = spans
        #: positions of the closed spans, in start order
        self._closed = [number for number, span in enumerate(spans) if span[2] is not None]
        self.children: Dict[int, List[int]] = defaultdict(list)
        for number in self._closed:
            parent = spans[number][3]
            if parent is not None:
                self.children[parent].append(number)

    def name(self, number: int) -> str:
        return self._all[number][0]

    def attrs(self, number: int) -> Dict[str, Any]:
        return self._all[number][5] or {}

    def duration(self, number: int) -> float:
        span = self._all[number]
        return span[2] - span[1]

    def covered(self, number: int) -> float:
        """Seconds of span ``number`` covered by its direct children
        (sequential calls, so their durations add)."""
        return sum(self.duration(child) for child in self.children.get(number, ()))

    def self_time(self, number: int) -> float:
        return max(0.0, self.duration(number) - self.covered(number))

    def roots(self, name: Optional[str] = None, first: int = 0, last: Optional[int] = None) -> List[int]:
        """Closed top-level spans (called ``name``, when given) recorded at
        list positions ``first <= position < last``, in start order."""
        last = len(self._all) if last is None else last
        return [
            number
            for number in self._closed
            if first <= number < last
            and self._all[number][3] is None
            and (name is None or self._all[number][0] == name)
        ]

    def descendants(self, number: int) -> List[int]:
        found, stack = [], list(self.children.get(number, ()))
        while stack:
            child = stack.pop()
            found.append(child)
            stack.extend(self.children.get(child, ()))
        return found

    def per_request(self, root: int) -> Dict[str, Dict[str, float]]:
        """``{name: {"total", "self", "calls"}}`` summed over one request."""
        sums: Dict[str, Dict[str, float]] = defaultdict(
            lambda: {"total": 0.0, "self": 0.0, "calls": 0.0}
        )
        for number in [root] + self.descendants(root):
            entry = sums[self.name(number)]
            entry["total"] += self.duration(number)
            entry["self"] += self.self_time(number)
            entry["calls"] += 1
        return sums
