"""Hot-path performance instrumentation: counters, histograms, and caches.

This module is the core of the performance subsystem.  It deliberately has
no dependencies inside the package (only the standard library), so every
layer — core canonicalization, the fragment index, the search strategies,
the engine facade — can import it without cycles.

Three facilities live here:

:class:`PerfCounters`
    Named counters and accumulated timers.  Every :class:`FragmentIndex`
    owns one (shared with the strategies built over it), and every counter
    update is mirrored into a process-wide :data:`GLOBAL_COUNTERS` so the
    benchmark harness can report counter deltas without holding references
    to every engine.

:class:`MemoCache`
    A small bounded LRU cache with hit/miss/eviction accounting.  Used for
    structure-code canonicalization, query-fragment enumeration, and
    per-fragment range queries.

:class:`Histogram`
    A fixed-boundary latency/size distribution for the serving metrics.

Counters and caches are fork-safe: process workers fork from a
multi-threaded parent and use the inherited counters and caches in place,
so a forked child gives every live instance a fresh lock
(``os.register_at_fork``) instead of inheriting one another thread held at
the fork.
"""

from __future__ import annotations

import os
import threading
import time
import weakref
from bisect import bisect_left
from collections import OrderedDict
from contextlib import contextmanager
from typing import Any, Dict, Iterator, Mapping, Optional, Tuple

__all__ = [
    "PerfCounters",
    "Histogram",
    "MemoCache",
    "GLOBAL_COUNTERS",
    "graph_signature",
    "skeleton_signature",
]

#: every live counter sink and memo cache (see _renew_locks)
_LOCK_OWNERS: "weakref.WeakSet[Any]" = weakref.WeakSet()


def _renew_locks() -> None:
    """Give every counter sink and memo cache a fresh lock in a forked child.

    Process workers fork from a parent whose other threads may hold one of
    these locks at that instant; the child inherits it held, with no thread
    left to release it.  A child starts single-threaded, so fresh locks are
    safe.
    """
    for owner in list(_LOCK_OWNERS):
        owner._lock = threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_renew_locks)


class PerfCounters:
    """Named counters plus accumulated wall-clock timers.

    Counters are plain floats keyed by dotted names (``"filter.calls"``,
    ``"query_fragments.cache_hits"``); timers accumulate into a
    ``"<name>.seconds"`` counter and bump ``"<name>.calls"``.  All updates
    are lock-protected so thread-pooled batch search can share one
    instance, and are mirrored into :data:`GLOBAL_COUNTERS` (which has no
    mirror of its own).
    """

    __slots__ = ("_values", "_lock", "_mirror", "__weakref__")

    def __init__(self, mirror: Optional["PerfCounters"] = None):
        self._values: Dict[str, float] = {}
        self._lock = threading.Lock()
        self._mirror = mirror
        _LOCK_OWNERS.add(self)

    # ------------------------------------------------------------------
    # updates
    # ------------------------------------------------------------------
    def increment(self, name: str, amount: float = 1.0) -> None:
        """Add ``amount`` to the counter ``name`` (creating it at zero)."""
        with self._lock:
            self._values[name] = self._values.get(name, 0.0) + amount
        if self._mirror is not None:
            self._mirror.increment(name, amount)

    def add_time(self, name: str, seconds: float) -> None:
        """Accumulate ``seconds`` into ``<name>.seconds`` and bump ``<name>.calls``."""
        with self._lock:
            self._values[f"{name}.seconds"] = (
                self._values.get(f"{name}.seconds", 0.0) + seconds
            )
            self._values[f"{name}.calls"] = self._values.get(f"{name}.calls", 0.0) + 1
        if self._mirror is not None:
            self._mirror.add_time(name, seconds)

    @contextmanager
    def timer(self, name: str) -> Iterator[None]:
        """Context manager timing a block into :meth:`add_time`."""
        start = time.perf_counter()
        try:
            yield
        finally:
            self.add_time(name, time.perf_counter() - start)

    def merge(self, other: Mapping[str, float]) -> None:
        """Add every counter of ``other`` (a mapping or another instance).

        Merges propagate into the mirror like every other update, so a
        component sink that absorbs a worker-process counter delta (see
        :meth:`repro.exec.ProcessExecutor.map_counted`) keeps
        :data:`GLOBAL_COUNTERS` in step with in-process execution.
        """
        values = other.snapshot() if isinstance(other, PerfCounters) else dict(other)
        with self._lock:
            for name, amount in values.items():
                self._values[name] = self._values.get(name, 0.0) + amount
        if self._mirror is not None:
            self._mirror.merge(values)

    def reset(self) -> None:
        """Drop every counter."""
        with self._lock:
            self._values.clear()

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------
    def get(self, name: str, default: float = 0.0) -> float:
        """Return the value of counter ``name``."""
        with self._lock:
            return self._values.get(name, default)

    def snapshot(self) -> Dict[str, float]:
        """Return a point-in-time copy of all counters."""
        with self._lock:
            return dict(self._values)

    def delta(self, before: Mapping[str, float]) -> Dict[str, float]:
        """Return counters that changed since the ``before`` snapshot."""
        current = self.snapshot()
        changed: Dict[str, float] = {}
        for name, value in current.items():
            difference = value - before.get(name, 0.0)
            if difference != 0.0:
                changed[name] = difference
        return changed

    def as_dict(self, precision: int = 6) -> Dict[str, float]:
        """Return a sorted, JSON-friendly view (floats rounded)."""
        return {
            name: round(value, precision)
            for name, value in sorted(self.snapshot().items())
        }

    def __len__(self) -> int:
        with self._lock:
            return len(self._values)

    def __repr__(self) -> str:
        return f"<PerfCounters n={len(self)}>"

    # ------------------------------------------------------------------
    # pickling (indexes built in worker processes come back pickled)
    # ------------------------------------------------------------------
    def __getstate__(self) -> Dict[str, Any]:
        with self._lock:
            return {
                "values": dict(self._values),
                # the process-wide sink is never shipped across processes;
                # remember only whether to re-attach the worker's own
                "mirrored": self._mirror is not None,
            }

    def __setstate__(self, state: Dict[str, Any]) -> None:
        self._values = dict(state.get("values", {}))
        self._lock = threading.Lock()
        self._mirror = GLOBAL_COUNTERS if state.get("mirrored") else None
        _LOCK_OWNERS.add(self)


#: Process-wide counter sink: every component-owned PerfCounters mirrors
#: its updates here.  The benchmark harness reports per-benchmark deltas of
#: this object.
GLOBAL_COUNTERS = PerfCounters()


class Histogram:
    """Fixed-boundary histogram with count / sum / min / max accounting.

    A constant-memory distribution sketch for the serving metrics surface:
    observations land in the first bucket whose upper boundary is >= the
    value (one overflow bucket catches the rest).  Updates are
    lock-protected so event-loop code and ``stats`` readers on other
    threads never race; the whole state serializes through :meth:`as_dict`.

    >>> hist = Histogram("batch_size", (1, 2, 4))
    >>> for value in (1, 1, 3, 9):
    ...     hist.observe(value)
    >>> summary = hist.as_dict()
    >>> summary["count"], summary["min"], summary["max"]
    (4, 1.0, 9.0)
    >>> [bucket["count"] for bucket in summary["buckets"]]
    [2, 0, 1, 1]
    """

    __slots__ = ("name", "boundaries", "_counts", "_count", "_sum", "_min", "_max", "_lock")

    def __init__(self, name: str, boundaries) -> None:
        self.name = str(name)
        self.boundaries: Tuple[float, ...] = tuple(
            sorted(float(boundary) for boundary in boundaries)
        )
        if not self.boundaries:
            raise ValueError("a histogram needs at least one bucket boundary")
        self._counts = [0] * (len(self.boundaries) + 1)
        self._count = 0
        self._sum = 0.0
        self._min: Optional[float] = None
        self._max: Optional[float] = None
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        """Record one observation."""
        value = float(value)
        # bisect_left makes each boundary an inclusive upper edge.
        index = bisect_left(self.boundaries, value)
        with self._lock:
            self._counts[index] += 1
            self._count += 1
            self._sum += value
            self._min = value if self._min is None else min(self._min, value)
            self._max = value if self._max is None else max(self._max, value)

    @property
    def count(self) -> int:
        """Number of observations so far."""
        with self._lock:
            return self._count

    def as_dict(self, precision: int = 6) -> Dict[str, Any]:
        """JSON-friendly summary: count, sum, min/max/mean, and buckets.

        Buckets are ``{"le": upper_boundary, "count": n}`` in boundary
        order, closed by an overflow bucket with ``"le": "+inf"``.
        """
        with self._lock:
            counts = list(self._counts)
            count, total = self._count, self._sum
            low, high = self._min, self._max
        buckets = [
            {"le": boundary, "count": counts[index]}
            for index, boundary in enumerate(self.boundaries)
        ]
        buckets.append({"le": "+inf", "count": counts[-1]})
        return {
            "name": self.name,
            "count": count,
            "sum": round(total, precision),
            "min": None if low is None else round(low, precision),
            "max": None if high is None else round(high, precision),
            "mean": None if count == 0 else round(total / count, precision),
            "buckets": buckets,
        }

    def __repr__(self) -> str:
        return f"<Histogram {self.name!r} count={self.count}>"


# ----------------------------------------------------------------------
# memoization
# ----------------------------------------------------------------------
class MemoCache:
    """Bounded LRU memo cache with hit/miss/eviction accounting.

    When a ``counters`` sink is supplied, hits and misses are also recorded
    there as ``"<name>.cache_hits"`` / ``"<name>.cache_misses"``.  A
    ``maxsize`` of 0 stores nothing: every lookup is a miss.
    """

    #: sentinel returned by :meth:`get` on a miss (``None`` is a valid value)
    MISS = object()

    __slots__ = (
        "name",
        "maxsize",
        "hits",
        "misses",
        "evictions",
        "_data",
        "_lock",
        "_counters",
        "__weakref__",
    )

    def __init__(
        self,
        name: str,
        maxsize: int = 1024,
        counters: Optional[PerfCounters] = None,
    ):
        if maxsize < 0:
            raise ValueError("maxsize must be >= 0")
        self.name = name
        self.maxsize = maxsize
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._data: "OrderedDict[Any, Any]" = OrderedDict()
        self._lock = threading.Lock()
        self._counters = counters
        _LOCK_OWNERS.add(self)

    def get(self, key: Any) -> Any:
        """Return the cached value for ``key`` or :data:`MISS`."""
        with self._lock:
            if key in self._data:
                self._data.move_to_end(key)
                self.hits += 1
                value = self._data[key]
                hit = True
            else:
                self.misses += 1
                value = self.MISS
                hit = False
        if self._counters is not None:
            self._counters.increment(
                f"{self.name}.cache_hits" if hit else f"{self.name}.cache_misses"
            )
        return value

    def put(self, key: Any, value: Any) -> None:
        """Store ``value`` under ``key``, evicting the LRU entry if full."""
        if self.maxsize == 0:
            return
        with self._lock:
            if key in self._data:
                self._data.move_to_end(key)
                self._data[key] = value
                return
            self._data[key] = value
            if len(self._data) > self.maxsize:
                self._data.popitem(last=False)
                self.evictions += 1

    def clear(self) -> None:
        """Drop all cached entries (accounting is kept)."""
        with self._lock:
            self._data.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._data)

    def stats(self) -> Dict[str, Any]:
        """Return a JSON-friendly accounting summary."""
        with self._lock:
            size = len(self._data)
        return {
            "name": self.name,
            "size": size,
            "maxsize": self.maxsize,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
        }

    def __repr__(self) -> str:
        return (
            f"<MemoCache {self.name} size={len(self)}/{self.maxsize} "
            f"hits={self.hits} misses={self.misses}>"
        )

    # ------------------------------------------------------------------
    # pickling (caches travel with their index out of build workers)
    # ------------------------------------------------------------------
    def __getstate__(self) -> Dict[str, Any]:
        with self._lock:
            return {
                "name": self.name,
                "maxsize": self.maxsize,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "data": OrderedDict(self._data),
                "counters": self._counters,
            }

    def __setstate__(self, state: Dict[str, Any]) -> None:
        self.name = state["name"]
        self.maxsize = state["maxsize"]
        self.hits = state.get("hits", 0)
        self.misses = state.get("misses", 0)
        self.evictions = state.get("evictions", 0)
        self._data = OrderedDict(state.get("data", ()))
        self._lock = threading.Lock()
        self._counters = state.get("counters")
        _LOCK_OWNERS.add(self)


# ----------------------------------------------------------------------
# graph content signatures (cache keys)
# ----------------------------------------------------------------------
def _vertex_key(vertex: Any) -> str:
    return f"{type(vertex).__name__}:{vertex!r}"


def graph_signature(graph: Any) -> Tuple[Tuple, Tuple]:
    """Content signature of a labeled graph, usable as a cache key.

    Two graphs with identical vertex ids, labels, weights, and edges share a
    signature; graphs differing in any annotation do not.  Signatures are
    hashable and cheap relative to canonicalization or embedding search.
    """
    vertices = tuple(
        sorted(
            (
                _vertex_key(v),
                repr(graph.vertex_label(v)),
                graph.vertex_weight(v),
            )
            for v in graph.vertices()
        )
    )
    edges = tuple(
        sorted(
            (
                _vertex_key(u),
                _vertex_key(v),
                repr(graph.edge_label(u, v)),
                graph.edge_weight(u, v),
            )
            for (u, v) in graph.edges()
        )
    )
    return (vertices, edges)


def skeleton_signature(graph: Any) -> Tuple[Tuple, Tuple]:
    """Structure-only signature (labels and weights ignored).

    The key for the structure-code cache: identical skeleton content maps to
    an identical minimum DFS code.
    """
    vertices = tuple(sorted(_vertex_key(v) for v in graph.vertices()))
    edges = tuple(
        sorted((_vertex_key(u), _vertex_key(v)) for (u, v) in graph.edges())
    )
    return (vertices, edges)
