"""Executor abstraction: serial / thread / process task execution.

Several layers of the system fan work out over a pool — every engine
search maps one task per shard, or per run of a batch's queries on an
unsharded engine (:meth:`repro.engine.Engine.search_many`), and the
sharded build constructs whole shards in parallel.  This module
gives all of them one small, registry-backed abstraction so the pool kind is
a configuration choice (:attr:`repro.engine.EngineConfig.executor`) instead
of an implementation detail:

:class:`SerialExecutor` (``"serial"``)
    Runs every task in the calling thread, in order.  The reference
    executor: every other executor must produce the same results.

:class:`ThreadExecutor` (``"thread"``)
    A :class:`~concurrent.futures.ThreadPoolExecutor`.  Tasks share the
    caller's objects (indexes, counters, caches), so nothing needs to be
    picklable — but pure-Python CPU work stays GIL-bound.

:class:`ProcessExecutor` (``"process"``)
    A :class:`~concurrent.futures.ProcessPoolExecutor` whose workers are
    created with the ``fork`` start method.  The only executor that
    achieves real CPU parallelism for pure-Python work; task functions and
    items must be picklable (module-level functions, plain data).  When a
    pool cannot be created (no ``fork`` on the platform, a sandbox without
    process support) or a payload cannot be pickled, it degrades to the
    serial path rather than failing the caller (mirroring the
    parallel-build fallback of :class:`repro.index.FragmentIndex`).

Forked workers inherit the caller's memory as it was when the pool forked,
so large read-only state need not travel with every task: the caller
publishes it in a module-level registry *before* the pool forks, and tasks
carry only the key to look it up.  Every engine search works this way
(:meth:`repro.engine.Engine.search`): each task names its shard by a
publication token and position instead of shipping the shard's index.  The
state a worker sees is frozen at the fork, so a caller that republishes
must close any resident pool forked before it and map over a pool started
afterwards.

Results always come back in task order, whatever the executor, so callers
can rely on deterministic merging.

Executors run in one of two modes.  By default every :meth:`Executor.map`
call builds (and tears down) its own pool — the right shape for one-shot
batch work.  Calling :meth:`Executor.start` switches the executor to
*resident* mode: a long-lived pool is created once (worker processes are
forked eagerly, so the first query never pays the fork cost) and reused by
every subsequent ``map`` until :meth:`Executor.close`.  Resident executors
are what the serving subsystem (:mod:`repro.serve`) keeps warm between
requests; ``with make_executor("process", workers=4) as pool: ...`` scopes
the lifecycle.  A pickled executor always wakes up un-started — live pools
never cross a process boundary.

Counters cross process boundaries through :meth:`Executor.map_counted`:
in-process executors let tasks report into shared
:class:`~repro.perf.PerfCounters` sinks directly, while the process
executor snapshots the worker-side :data:`~repro.perf.GLOBAL_COUNTERS`
around each task and merges the deltas into the caller's sink, so
``Engine.profile()`` sees the same accounting whichever executor ran the
work.

Examples
--------
>>> from repro.exec import available_executors, make_executor
>>> available_executors()
['process', 'serial', 'thread']
>>> make_executor("serial").map(len, ["ab", "abc"])
[2, 3]
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import threading
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from .core.errors import EngineConfigError, UnknownComponentError
from .perf import GLOBAL_COUNTERS, PerfCounters

__all__ = [
    "Executor",
    "SerialExecutor",
    "ThreadExecutor",
    "ProcessExecutor",
    "register_executor",
    "make_executor",
    "available_executors",
    "EXECUTOR_KINDS",
]

#: the built-in executor kinds, in increasing order of isolation
EXECUTOR_KINDS = ("serial", "thread", "process")

#: errors that mean "this platform or payload cannot run a process pool":
#: platforms without the ``fork`` start method (ValueError), sandboxes
#: without process support (OSError/RuntimeError),
#: unpicklable task functions or payloads (PicklingError/TypeError/
#: AttributeError), and workers dying mid-flight (EOFError, BrokenProcessPool
#: — a RuntimeError subclass).  Exceptions raised by the *task function*
#: itself are never classified here: workers run tasks through
#: :func:`_guarded_call`, which ships task exceptions back as values, so a
#: task bug re-raises in the caller instead of silently triggering the
#: serial fallback.
PROCESS_POOL_ERRORS = (
    OSError,
    ValueError,
    RuntimeError,
    TypeError,
    pickle.PicklingError,
    AttributeError,
    EOFError,
)


def _fork_pool(size: int) -> ProcessPoolExecutor:
    """A process pool of ``size`` workers forked from the calling process.

    Raises ``ValueError`` where the platform has no ``fork`` start method;
    callers treat that like any other pool failure.
    """
    return ProcessPoolExecutor(
        max_workers=size, mp_context=multiprocessing.get_context("fork")
    )


def _guarded_call(payload: Tuple[Callable[[Any], Any], Any]) -> Tuple[bool, Any]:
    """Process-pool wrapper: return ``(True, value)`` or ``(False, exception)``.

    Distinguishes task failures from pool failures: an exception raised by
    the task function travels back as a value and is re-raised caller-side
    with its original type, while genuine pool problems (fork failure,
    unpicklable payloads, dead workers) still surface as raw exceptions for
    :data:`PROCESS_POOL_ERRORS` to classify.
    """
    fn, item = payload
    try:
        return True, fn(item)
    except Exception as exc:  # re-raised caller-side with its original type
        return False, exc


def _warmup_task(_: Any) -> bool:
    """Trivial task submitted by :meth:`ProcessExecutor.start` to force the
    resident pool to actually spawn its workers (and to fail fast on
    platforms where process pools only break at first use)."""
    return True


def _counted_call(
    payload: Tuple[Callable[[Any], Any], Any]
) -> Tuple[bool, Any, Dict[str, float]]:
    """Like :func:`_guarded_call`, but also capture the task's counter delta.

    Executed inside the worker process, where :data:`GLOBAL_COUNTERS` is the
    worker's own process-wide sink; the delta therefore contains exactly the
    counters this one task produced, ready to be merged into the parent's
    sink by :meth:`ProcessExecutor.map_counted`.
    """
    before = GLOBAL_COUNTERS.snapshot()
    ok, value = _guarded_call(payload)
    return ok, value, GLOBAL_COUNTERS.delta(before)


class Executor:
    """Base class of the pluggable task executors.

    Parameters
    ----------
    workers:
        Pool size.  ``0`` (the default) sizes the pool to the number of
        tasks; pools never exceed the task count.  Serial execution ignores
        it.
    counters:
        Optional :class:`~repro.perf.PerfCounters` sink for executor-level
        accounting (e.g. process-pool fallbacks); a private sink mirroring
        the process-wide counters is created when omitted.
    """

    #: executor identifier used in registry lookups and configuration
    name = "abstract"

    #: the resident pool (``None`` unless :meth:`start` created one)
    _pool: Optional[Any] = None

    def __init__(self, workers: int = 0, counters: Optional[PerfCounters] = None):
        self.workers = int(workers or 0)
        self.counters = (
            counters
            if isinstance(counters, PerfCounters)
            else PerfCounters(mirror=GLOBAL_COUNTERS)
        )
        self._started = False

    def _pool_size(self, num_tasks: int) -> int:
        """Effective pool size for ``num_tasks`` tasks."""
        if num_tasks <= 1:
            return 1
        return min(self.workers or num_tasks, num_tasks)

    def resident_size(self) -> int:
        """Pool size used in resident mode (``workers`` or the core count)."""
        return self.workers or (os.cpu_count() or 1)

    # ------------------------------------------------------------------
    # resident-mode lifecycle
    # ------------------------------------------------------------------
    @property
    def started(self) -> bool:
        """Whether :meth:`start` switched this executor to resident mode."""
        return self._started

    def start(self) -> "Executor":
        """Switch to resident mode: one long-lived pool reused by every map.

        Idempotent; returns ``self`` so construction chains
        (``make_executor("thread", workers=4).start()``).  The base
        implementation only flips the flag — executors without a real pool
        (serial) have nothing to keep alive.
        """
        self._started = True
        return self

    def close(self) -> None:
        """Shut the resident pool down (idempotent, also fine un-started)."""
        self._started = False

    def __enter__(self) -> "Executor":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # Live pools never cross a pickle boundary: a copy wakes up un-started
    # with the same workers/counters configuration.
    def __getstate__(self) -> Dict[str, Any]:
        state = dict(self.__dict__)
        state.pop("_pool", None)
        state["_started"] = False
        return state

    def __setstate__(self, state: Dict[str, Any]) -> None:
        self.__dict__.update(state)
        self.__dict__.setdefault("_pool", None)

    def map(self, fn: Callable[[Any], Any], items: Iterable[Any]) -> List[Any]:
        """Run ``fn`` over ``items``; results come back in item order."""
        raise NotImplementedError

    def map_counted(
        self,
        fn: Callable[[Any], Any],
        items: Iterable[Any],
        sink: Optional[PerfCounters] = None,
    ) -> List[Any]:
        """Like :meth:`map`, but task counters reach ``sink`` in every mode.

        In-process executors run tasks against the caller's live counter
        sinks already, so the base implementation is plain :meth:`map`;
        the process executor overrides this to ship worker-side counter
        deltas back and merge them into ``sink``.
        """
        return self.map(fn, items)


class SerialExecutor(Executor):
    """Run every task in the calling thread, in order (the reference)."""

    name = "serial"

    def map(self, fn: Callable[[Any], Any], items: Iterable[Any]) -> List[Any]:
        """Run the tasks one after another in the calling thread."""
        return [fn(item) for item in items]


class ThreadExecutor(Executor):
    """Run tasks in a thread pool sharing the caller's objects."""

    name = "thread"

    def start(self) -> "ThreadExecutor":
        """Create the resident thread pool (idempotent)."""
        if not self._started:
            self._pool = ThreadPoolExecutor(max_workers=self.resident_size())
            self._started = True
        return self

    def close(self) -> None:
        """Shut the resident thread pool down and leave resident mode."""
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
        self._started = False

    def map(self, fn: Callable[[Any], Any], items: Iterable[Any]) -> List[Any]:
        """Run the tasks in a thread pool; falls back to serial for <=1 task.

        In resident mode every call — whatever its size — goes through the
        long-lived pool, so per-call pool construction disappears from the
        serving hot path.
        """
        items = list(items)
        if self._pool is not None:
            return list(self._pool.map(fn, items))
        size = self._pool_size(len(items))
        if size <= 1:
            return [fn(item) for item in items]
        with ThreadPoolExecutor(max_workers=size) as pool:
            return list(pool.map(fn, items))


#: serializes re-forking a dropped resident pool, so two callers never
#: fork one each
_RESPAWN_LOCK = threading.Lock()


class ProcessExecutor(Executor):
    """Run tasks in worker processes (real CPU parallelism, pickled payloads).

    In resident mode (:meth:`start`) the worker processes are spawned once —
    eagerly, via a warm-up task — and every subsequent :meth:`map` submits
    into the live pool.  If the resident pool dies or rejects a payload, it
    is dropped and the call degrades to the classic per-call path (which
    itself degrades to serial), so residency is an optimization, never a
    correctness risk.  The next call forks a new resident pool.
    """

    name = "process"

    #: whether the next call re-forks a resident pool dropped as broken
    _respawn = False

    def start(self) -> "ProcessExecutor":
        """Spawn the resident worker processes (idempotent).

        Platforms without process support leave ``_pool`` unset — the
        executor still *counts* as started, and every map takes the
        per-call path with its serial fallback.
        """
        if not self._started:
            self._pool = self._spawn_resident()
            self._started = True
        return self

    def _spawn_resident(self) -> Optional[ProcessPoolExecutor]:
        """Fork a resident pool and its workers; ``None`` where that fails."""
        try:
            pool = _fork_pool(self.resident_size())
            # Force the workers into existence now: serving latency must
            # not pay the spawn cost on the first query, and sandboxes
            # that only fail at first use should fail here, once.
            pool.submit(_warmup_task, None).result()
            return pool
        except PROCESS_POOL_ERRORS:
            self.counters.increment("exec.process_fallbacks")
            return None

    def close(self) -> None:
        """Shut the resident worker processes down and leave resident mode."""
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
        self._respawn = False
        self._started = False

    def _resident_outcomes(
        self,
        wrapper: Callable[[Tuple[Callable[[Any], Any], Any]], Any],
        fn: Callable[[Any], Any],
        items: List[Any],
    ) -> Optional[List[Any]]:
        """Submit into the live resident pool; ``None`` = pool unusable.

        A failing resident pool (dead workers, unpicklable payload) is shut
        down and dropped, and this call takes the per-call path.  The next
        call forks a new resident pool in its place, once: if that fork
        fails, the executor stays on the per-call path.
        """
        if self._pool is None and self._respawn:
            with _RESPAWN_LOCK:
                if self._pool is None and self._respawn:
                    self._respawn = False
                    self._pool = self._spawn_resident()
        pool = self._pool
        if pool is None:
            return None
        try:
            return list(pool.map(wrapper, [(fn, item) for item in items]))
        except PROCESS_POOL_ERRORS:
            self.counters.increment("exec.process_fallbacks")
            try:
                pool.shutdown(wait=False)
            except Exception:
                pass
            if self._pool is pool:
                self._pool = None
                self._respawn = self._started
            return None

    def _pooled_outcomes(
        self,
        wrapper: Callable[[Tuple[Callable[[Any], Any], Any]], Any],
        fn: Callable[[Any], Any],
        items: List[Any],
        size: int,
    ) -> Optional[List[Any]]:
        """Run ``wrapper((fn, item))`` tasks in a pool; ``None`` = pool failed.

        The shared submit/fallback half of :meth:`map` and
        :meth:`map_counted`: only *pool* failures (no process support,
        unpicklable payloads, dead workers) return ``None`` — exceptions
        the task function raises travel back inside the wrapper's outcome
        and are re-raised by the caller with their original type.
        """
        try:
            with _fork_pool(size) as pool:
                return list(pool.map(wrapper, [(fn, item) for item in items]))
        except PROCESS_POOL_ERRORS:
            self.counters.increment("exec.process_fallbacks")
            return None

    def map(self, fn: Callable[[Any], Any], items: Iterable[Any]) -> List[Any]:
        """Run the tasks in a process pool, degrading to serial on failure.

        Resident mode routes every call (any size) through the live pool —
        worker-side memo caches stay warm across calls; otherwise a pool is
        built per call for >1 task.
        """
        items = list(items)
        outcomes = self._resident_outcomes(_guarded_call, fn, items)
        if outcomes is None:
            size = self._pool_size(len(items))
            if size <= 1:
                return [fn(item) for item in items]
            outcomes = self._pooled_outcomes(_guarded_call, fn, items, size)
        if outcomes is None:
            return [fn(item) for item in items]
        values: List[Any] = []
        for ok, value in outcomes:
            if not ok:
                raise value
            values.append(value)
        return values

    def map_counted(
        self,
        fn: Callable[[Any], Any],
        items: Iterable[Any],
        sink: Optional[PerfCounters] = None,
    ) -> List[Any]:
        """Run tasks in worker processes and merge their counter deltas.

        Each task is wrapped so the worker returns its value plus a counter
        delta; the deltas are merged into ``sink`` in task order (even for
        tasks that then turn out to have failed — partial work happened and
        is accounted).  The serial fallback skips the wrapper entirely —
        in-process work already reports into the caller's live sinks, and
        merging a delta on top would count it twice.  Task exceptions
        re-raise with their original type; only pool failures fall back.
        """
        items = list(items)
        outcomes = self._resident_outcomes(_counted_call, fn, items)
        if outcomes is None:
            size = self._pool_size(len(items))
            if size <= 1:
                return [fn(item) for item in items]
            outcomes = self._pooled_outcomes(_counted_call, fn, items, size)
        if outcomes is None:
            return [fn(item) for item in items]
        failure: Optional[BaseException] = None
        values: List[Any] = []
        for ok, value, delta in outcomes:
            if sink is not None:
                sink.merge(delta)
            if ok:
                values.append(value)
            elif failure is None:
                failure = value
        if failure is not None:
            raise failure
        return values


# ----------------------------------------------------------------------
# registry (mirrors repro.search.registry)
# ----------------------------------------------------------------------
_EXECUTORS: Dict[str, type] = {}


def register_executor(cls: type) -> type:
    """Register an executor class under its ``name`` attribute.

    Usable as a decorator, exactly like
    :func:`repro.search.register_strategy`; third-party executors become
    reachable from :class:`repro.engine.EngineConfig` by name.
    """
    _EXECUTORS[cls.name] = cls
    return cls


def available_executors() -> List[str]:
    """Return the names of all registered executors (sorted)."""
    return sorted(_EXECUTORS)


def make_executor(
    name: str,
    workers: int = 0,
    counters: Optional[PerfCounters] = None,
) -> Executor:
    """Instantiate a registered executor by name.

    Unknown names raise :class:`~repro.core.errors.UnknownComponentError`
    listing the registered alternatives; invalid constructor parameters
    surface as :class:`~repro.core.errors.EngineConfigError`.
    """
    if name not in _EXECUTORS:
        raise UnknownComponentError("executor", name, _EXECUTORS)
    try:
        return _EXECUTORS[name](workers=workers, counters=counters)
    except TypeError as exc:
        raise EngineConfigError(
            f"invalid parameters for executor {name!r}: {exc}"
        ) from exc


register_executor(SerialExecutor)
register_executor(ThreadExecutor)
register_executor(ProcessExecutor)
