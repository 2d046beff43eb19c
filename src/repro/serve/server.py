"""Asyncio front door: admission control, micro-batching, and the TCP protocol.

:class:`QueryServer` turns a built :class:`~repro.engine.Engine` into an
always-on service.  Concurrent callers submit queries through
:meth:`QueryServer.submit`; the server collects everything that arrives
within a configurable *batching window* (``serve_batch_window_ms``), groups
it by sigma, and answers each group with one
:meth:`~repro.engine.Engine.search_many` call — so a burst of concurrent
queries is scatter-gathered across the engine's resident worker pool as one
batch instead of queueing up as individual searches.  Per-query results
(with per-query counters and the ``from_cache`` flag) resolve each caller's
future individually.

Admission is **bounded**: at most ``serve_max_queue`` submissions may wait
for a batch slot.  A query arriving past the bound is *shed* — rejected
immediately with :class:`~repro.core.errors.ServeOverloadedError` (wire
form ``{"ok": false, "error": "overloaded", "retryable": true}``) — so a
traffic burst costs the clients a retry instead of growing server memory
without bound.  Shedding happens before any work runs: a shed request had
no effect and is always safe to retry.  During shutdown the same gate sheds
with ``"error": "shutting_down"`` instead of leaving submissions
unanswered.

The engine's work runs in a worker thread (``asyncio.to_thread``), so the
event loop keeps admitting clients while a batch computes; repeated queries
hit the engine's generation-keyed result cache
(:class:`~repro.serve.cache.QueryResultCache`) without touching the pool at
all.

On top of :meth:`submit` sits a TCP front (:meth:`serve_forever`): a
JSON-lines protocol — one request object per line, one response object per
line, in request order, per connection.  Requests::

    {"op": "search", "id": 7, "graph": {...LabeledGraph.to_dict()...}, "sigma": 2.0}
    {"op": "ping", "id": 8}
    {"op": "stats", "id": 9}
    {"op": "update", "id": 10, "add": [{...graph...}], "remove": [3, 17],
     "reuse_ids": false}

Search responses carry ``answers`` (graph ids), ``distances`` (exact
per-answer distances), candidate/answer counts, phase timings, and
``cached``.  Errors never kill the connection: a malformed line gets an
``{"ok": false, "error": ...}`` response and the next line is processed.
The server frames request lines itself (it does not rely on asyncio's
64 KiB stream limit), so requests up to ``serve_max_request_bytes`` parse
fine and longer lines are discarded — without buffering them — and
answered with a structured ``too_large`` error.

Connections may **pipeline**: a client can write several request lines
before reading responses, and up to ``serve_max_inflight_per_conn``
requests of one connection run concurrently (responses still come back in
request order).  At the cap the server simply stops reading that socket
until a slot frees — and a slot frees only once its response has been
*written back*, not merely computed — so TCP flow control turns the limit
into client-side backpressure: one greedy connection cannot monopolize the
submission queue, a connection that stops *reading* only ever stalls
itself, and at most ``serve_max_inflight_per_conn`` finished responses are
ever buffered for a connection.

``update`` applies one mutation batch (removals first, then additions) to
the live engine under its exclusive write epoch: queries admitted before
the update see the pre-batch index, queries admitted after see the
post-batch one, and nothing ever observes a half-applied batch.  With a
WAL-attached engine the batch is fsync'd to the log before it applies, so
a crashed server loses nothing that was acknowledged.

Everything above is measured: :meth:`QueryServer.stats` (and the ``stats``
op) reports queue depth and high-water mark, accepted / shed / completed
counters, batch-size and batch-wait histograms, and per-op latency
histograms — the metrics surface ``pis bench-serve`` prints and the
overload tests assert against.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
from dataclasses import dataclass
from typing import Any, AsyncIterator, Callable, Dict, Iterable, List, Optional

from ..core.errors import (
    PISError,
    ServeError,
    ServeOverloadedError,
    ServeShuttingDownError,
)
from ..core.graph import LabeledGraph
from ..perf import GLOBAL_COUNTERS, Histogram, PerfCounters
from ..search.results import SearchResult

__all__ = ["QueryServer", "search_response", "shed_response"]

#: histogram bucket edges for batch sizes (queries per dispatched batch)
_BATCH_SIZE_BUCKETS = (1, 2, 4, 8, 16, 32, 64, 128)

#: histogram bucket edges for latencies, in milliseconds
_LATENCY_BUCKETS_MS = (0.5, 1, 2, 5, 10, 25, 50, 100, 250, 500, 1000, 5000)

#: socket read chunk for the connection handler's own line framing
_READ_CHUNK = 65536


@dataclass
class _Pending:
    """One admitted query waiting for its batch to run."""

    query: LabeledGraph
    sigma: float
    future: "asyncio.Future[SearchResult]"
    enqueued_at: float


def search_response(result: SearchResult, request_id: Any = None) -> Dict[str, Any]:
    """The JSON-friendly wire form of one search result.

    Shared by the TCP handler and the tests so the protocol has exactly one
    definition.  ``answers``/``distances`` are the byte-identity payload;
    everything else is observability.
    """
    return {
        "id": request_id,
        "ok": True,
        "op": "search",
        "answers": list(result.answer_ids),
        "distances": {
            str(graph_id): result.answer_distances[graph_id]
            for graph_id in result.answer_ids
            if graph_id in result.answer_distances
        },
        "num_candidates": result.num_candidates,
        "num_answers": result.num_answers,
        "method": result.method,
        "cached": bool(result.from_cache),
        "prune_seconds": round(result.prune_seconds, 6),
        "verify_seconds": round(result.verify_seconds, 6),
    }


def shed_response(exc: ServeError, request_id: Any = None) -> Dict[str, Any]:
    """The wire form of a load-shed rejection.

    ``error`` is a machine-matchable code (``"overloaded"`` /
    ``"shutting_down"``), ``retryable`` tells generic clients whether a
    backoff retry can succeed, and ``detail`` carries the human text.
    """
    shutting_down = isinstance(exc, ServeShuttingDownError)
    return {
        "id": request_id,
        "ok": False,
        "error": "shutting_down" if shutting_down else "overloaded",
        "retryable": not shutting_down,
        "detail": str(exc),
    }


class QueryServer:
    """Micro-batching asyncio server over one :class:`~repro.engine.Engine`.

    Parameters
    ----------
    engine:
        The engine to serve.  Unless ``manage_engine=False``, the server
        starts it (resident pools + result cache) on :meth:`start` and
        closes it on :meth:`close`.
    batch_window_ms:
        How long the batcher waits, after the first query of a batch
        arrives, for more queries to join it (``None`` = the config's
        ``serve_batch_window_ms``).  ``0`` batches only what is already
        queued.
    max_batch:
        Batch size cap (``None`` = the config's ``serve_max_batch``); a
        full batch dispatches immediately without waiting out the window.
    max_queue:
        Submission-queue bound (``None`` = the config's
        ``serve_max_queue``).  A submit arriving while this many are
        already queued is shed with
        :class:`~repro.core.errors.ServeOverloadedError`; ``0`` disables
        the bound.
    max_inflight_per_conn:
        Per-connection pipelining cap of the TCP front (``None`` = the
        config's ``serve_max_inflight_per_conn``; ``0`` = unlimited).
    max_request_bytes:
        Largest accepted request line of the TCP front (``None`` = the
        config's ``serve_max_request_bytes``).
    manage_engine:
        When true (the default) the server owns the engine's serving
        lifecycle; pass ``False`` to serve an engine whose ``start()`` /
        ``close()`` the caller controls.
    """

    def __init__(
        self,
        engine,
        batch_window_ms: Optional[float] = None,
        max_batch: Optional[int] = None,
        max_queue: Optional[int] = None,
        max_inflight_per_conn: Optional[int] = None,
        max_request_bytes: Optional[int] = None,
        manage_engine: bool = True,
    ):
        config = engine.config
        self.engine = engine
        self.batch_window_ms = float(
            config.serve_batch_window_ms if batch_window_ms is None else batch_window_ms
        )
        self.max_batch = int(
            config.serve_max_batch if max_batch is None else max_batch
        )
        self.max_queue = int(
            config.serve_max_queue if max_queue is None else max_queue
        )
        self.max_inflight_per_conn = int(
            config.serve_max_inflight_per_conn
            if max_inflight_per_conn is None
            else max_inflight_per_conn
        )
        self.max_request_bytes = int(
            config.serve_max_request_bytes
            if max_request_bytes is None
            else max_request_bytes
        )
        if self.batch_window_ms < 0:
            raise ServeError(
                f"batch_window_ms must be >= 0, got {self.batch_window_ms}"
            )
        if self.max_batch < 1:
            raise ServeError(f"max_batch must be >= 1, got {self.max_batch}")
        if self.max_queue < 0:
            raise ServeError(f"max_queue must be >= 0, got {self.max_queue}")
        if self.max_inflight_per_conn < 0:
            raise ServeError(
                f"max_inflight_per_conn must be >= 0, "
                f"got {self.max_inflight_per_conn}"
            )
        if self.max_request_bytes < 1:
            raise ServeError(
                f"max_request_bytes must be >= 1, got {self.max_request_bytes}"
            )
        self._manage_engine = bool(manage_engine)
        self._queue: Optional["asyncio.Queue[_Pending]"] = None
        self._batcher: Optional["asyncio.Task[None]"] = None
        self._closing = False
        self._queue_high_water = 0
        self.counters = PerfCounters(mirror=GLOBAL_COUNTERS)
        self._batch_size_hist = Histogram("serve.batch_size", _BATCH_SIZE_BUCKETS)
        self._batch_wait_hist = Histogram("serve.batch_wait_ms", _LATENCY_BUCKETS_MS)
        self._op_latency: Dict[str, Histogram] = {}

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @property
    def started(self) -> bool:
        """Whether the server is accepting queries."""
        return self._queue is not None

    @property
    def queue_depth(self) -> int:
        """Submissions currently waiting for a batch slot."""
        return 0 if self._queue is None else self._queue.qsize()

    @property
    def queue_high_water(self) -> int:
        """Largest queue depth observed since :meth:`start`."""
        return self._queue_high_water

    async def start(self) -> "QueryServer":
        """Start the engine (unless externally managed) and the batcher."""
        if self._queue is not None:
            return self
        if self._manage_engine and not self.engine.started:
            self.engine.start()
        self._closing = False
        self._queue_high_water = 0
        self._queue = asyncio.Queue()
        self._batcher = asyncio.create_task(self._batch_loop())
        return self

    async def close(self) -> None:
        """Drain in-flight queries, stop the batcher, release the engine.

        Every query admitted before ``close`` is answered; queries
        submitted *during* the drain are shed with
        :class:`~repro.core.errors.ServeShuttingDownError` instead of being
        queued behind a batcher that is about to stop (the pre-fix race
        left their futures unresolved forever).  The engine's resident
        pools are shut down (when the server manages the engine), so a
        clean close leaks no worker processes.
        """
        if self._queue is not None:
            # Flip the gate first: from here on submit() sheds, so the
            # join below sees a strictly draining queue.
            self._closing = True
            await self._queue.join()
            self._batcher.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await self._batcher
            self._queue = None
            self._batcher = None
        if self._manage_engine and self.engine.started:
            self.engine.close()

    async def __aenter__(self) -> "QueryServer":
        return await self.start()

    async def __aexit__(self, *exc_info: Any) -> None:
        await self.close()

    # ------------------------------------------------------------------
    # admission + batching
    # ------------------------------------------------------------------
    async def submit(self, query: LabeledGraph, sigma: float) -> SearchResult:
        """Admit one query; resolves when its batch has been answered.

        Raises :class:`~repro.core.errors.ServeOverloadedError` when the
        submission queue is at ``max_queue`` (the request is shed before
        any work runs — safe to retry) and
        :class:`~repro.core.errors.ServeShuttingDownError` once
        :meth:`close` has started draining.
        """
        if self._queue is None:
            raise ServeError("the query server is not started")
        self.counters.increment("serve.requests")
        if self._closing:
            self.counters.increment("serve.shed_shutdown")
            raise ServeShuttingDownError(
                "the query server is shutting down; submission rejected"
            )
        if self.max_queue and self._queue.qsize() >= self.max_queue:
            self.counters.increment("serve.shed")
            raise ServeOverloadedError(
                f"submission queue is full ({self.max_queue} waiting); "
                "request shed before any work ran"
            )
        loop = asyncio.get_running_loop()
        future: "asyncio.Future[SearchResult]" = loop.create_future()
        self.counters.increment("serve.accepted")
        # put_nowait keeps the qsize check above and the insertion atomic
        # on the event loop: the high-water mark can never exceed max_queue.
        self._queue.put_nowait(_Pending(query, float(sigma), future, loop.time()))
        depth = self._queue.qsize()
        if depth > self._queue_high_water:
            self._queue_high_water = depth
        return await future

    async def _batch_loop(self) -> None:
        """Forever: collect one batch from the queue, run it, repeat."""
        while True:
            batch = [await self._queue.get()]
            deadline = (
                asyncio.get_running_loop().time() + self.batch_window_ms / 1000.0
            )
            while len(batch) < self.max_batch:
                remaining = deadline - asyncio.get_running_loop().time()
                if remaining <= 0:
                    # Window elapsed — still sweep up anything already
                    # queued, so a zero-width window batches bursts too.
                    try:
                        batch.append(self._queue.get_nowait())
                        continue
                    except asyncio.QueueEmpty:
                        break
                try:
                    batch.append(
                        await asyncio.wait_for(self._queue.get(), remaining)
                    )
                except asyncio.TimeoutError:
                    continue
            await self._run_batch(batch)

    async def _run_batch(self, batch: List[_Pending]) -> None:
        """Answer one batch: group by sigma, one ``search_many`` per group."""
        self.counters.increment("serve.batches")
        self.counters.increment("serve.batched_queries", len(batch))
        now = asyncio.get_running_loop().time()
        self._batch_size_hist.observe(len(batch))
        for pending in batch:
            self._batch_wait_hist.observe((now - pending.enqueued_at) * 1000.0)
        groups: Dict[float, List[_Pending]] = {}
        for pending in batch:
            groups.setdefault(pending.sigma, []).append(pending)
        for sigma, group in groups.items():
            try:
                results = await asyncio.to_thread(
                    self.engine.search_many,
                    [pending.query for pending in group],
                    sigma,
                )
                for pending, result in zip(group, results):
                    if pending.future.done():
                        # The waiter vanished (e.g. its connection dropped
                        # and the awaiting task was cancelled): nobody was
                        # answered, so this is neither completed nor failed.
                        self.counters.increment("serve.cancelled")
                        continue
                    pending.future.set_result(result)
                    self.counters.increment("serve.completed")
                    if result.from_cache:
                        self.counters.increment("serve.cache_hits")
            except Exception as exc:  # resolve the waiters, never die
                for pending in group:
                    if pending.future.done():
                        self.counters.increment("serve.cancelled")
                        continue
                    self.counters.increment("serve.failed")
                    pending.future.set_exception(exc)
            finally:
                for pending in group:
                    self._queue.task_done()

    # ------------------------------------------------------------------
    # live mutation
    # ------------------------------------------------------------------
    async def update(
        self,
        add: Optional[Iterable[LabeledGraph]] = None,
        remove: Optional[Iterable[int]] = None,
        reuse_ids: bool = False,
    ) -> Dict[str, Any]:
        """Apply one mutation batch (removals first, then additions).

        Runs in a worker thread, so the exclusive write epoch serializes
        against in-flight search batches without stalling the event loop.
        A batch with both removals and additions holds one write epoch
        around both halves, so no search ever answers from it with the
        removals applied but not the additions.  Returns the
        outcome dict the TCP ``update`` op reports (``added`` ids,
        ``removed_entries``, the new index ``generation``, and ``wal_lsn``
        when the engine is durable).
        """
        if self._closing:
            self.counters.increment("serve.shed_shutdown")
            raise ServeShuttingDownError(
                "the query server is shutting down; update rejected"
            )
        additions = list(add or [])
        removals = [int(graph_id) for graph_id in remove or []]
        if not removals and not additions:
            raise ServeError("empty update: pass 'add' graphs and/or 'remove' ids")

        def apply() -> Dict[str, Any]:
            # A two-part batch holds one write epoch across both calls (the
            # writer side is reentrant, so their own sessions publish
            # nothing until it ends).  A one-part batch needs no outer
            # epoch: the engine call takes its own after the WAL fsync, so
            # searches keep running while the log syncs.
            atomic = (
                self.engine.index.epochs.write()
                if removals and additions
                else contextlib.nullcontext()
            )
            with atomic:
                removed_entries = (
                    self.engine.remove_graphs(removals) if removals else 0
                )
                added_ids = (
                    self.engine.add_graphs(additions, reuse_ids=reuse_ids)
                    if additions
                    else []
                )
            return {
                "added": list(added_ids),
                "removed": len(removals),
                "removed_entries": removed_entries,
            }

        outcome = await asyncio.to_thread(apply)
        self.counters.increment("serve.updates")
        outcome["generation"] = self.engine.index.generation
        if self.engine.wal is not None:
            outcome["wal_lsn"] = self.engine.wal_applied_lsn
        return outcome

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------
    def _observe_op(self, op: str, latency_ms: float) -> None:
        histogram = self._op_latency.get(op)
        if histogram is None:
            histogram = self._op_latency[op] = Histogram(
                f"serve.op.{op}.latency_ms", _LATENCY_BUCKETS_MS
            )
        histogram.observe(latency_ms)

    def stats(self) -> Dict[str, Any]:
        """JSON-friendly serving statistics (server + engine view).

        The ``server`` section is the serving metrics surface: admission
        knobs, queue depth and high-water mark, accepted / shed /
        completed counters, the raw counter map, batch-size and
        batch-wait histograms, and per-op latency histograms
        (``pis bench-serve`` prints this section).
        """
        counters = self.counters.as_dict()
        engine_stats = self.engine.serving_stats()
        return {
            "server": {
                "batch_window_ms": self.batch_window_ms,
                "max_batch": self.max_batch,
                "max_queue": self.max_queue,
                "max_inflight_per_conn": self.max_inflight_per_conn,
                "max_request_bytes": self.max_request_bytes,
                "queue_depth": self.queue_depth,
                "queue_high_water": self._queue_high_water,
                "accepted": int(counters.get("serve.accepted", 0)),
                "shed": int(counters.get("serve.shed", 0)),
                "shed_shutdown": int(counters.get("serve.shed_shutdown", 0)),
                "completed": int(counters.get("serve.completed", 0)),
                "failed": int(counters.get("serve.failed", 0)),
                "cancelled": int(counters.get("serve.cancelled", 0)),
                "counters": counters,
                "batch_size": self._batch_size_hist.as_dict(),
                "batch_wait_ms": self._batch_wait_hist.as_dict(),
                "op_latency_ms": {
                    op: histogram.as_dict()
                    for op, histogram in sorted(self._op_latency.items())
                },
            },
            "engine": engine_stats,
        }

    # ------------------------------------------------------------------
    # TCP front (JSON lines)
    # ------------------------------------------------------------------
    async def _respond(self, line: bytes) -> Dict[str, Any]:
        """Answer one protocol line with one JSON-friendly response dict."""
        loop = asyncio.get_running_loop()
        start = loop.time()
        op = "invalid"
        try:
            response, op = await self._dispatch(line)
            return response
        finally:
            self._observe_op(op, (loop.time() - start) * 1000.0)

    async def _dispatch(self, line: bytes) -> "tuple[Dict[str, Any], str]":
        """Parse and answer one line; returns ``(response, op label)``."""
        try:
            request = json.loads(line)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            return {"id": None, "ok": False, "error": f"invalid JSON: {exc}"}, "invalid"
        if not isinstance(request, dict):
            return (
                {"id": None, "ok": False, "error": "request must be an object"},
                "invalid",
            )
        request_id = request.get("id")
        op = request.get("op", "search")
        if not isinstance(op, str):
            return (
                {"id": request_id, "ok": False, "error": "op must be a string"},
                "invalid",
            )
        if op == "ping":
            return {"id": request_id, "ok": True, "op": "ping"}, op
        if op == "stats":
            return (
                {"id": request_id, "ok": True, "op": "stats", "stats": self.stats()},
                op,
            )
        if op == "update":
            return await self._respond_update(request, request_id), op
        if op != "search":
            return (
                {"id": request_id, "ok": False, "error": f"unknown op {op!r}"},
                "invalid",
            )
        try:
            graph = LabeledGraph.from_dict(request["graph"])
            sigma = float(request["sigma"])
        except Exception as exc:  # any malformed payload: reject, don't die
            return (
                {
                    "id": request_id,
                    "ok": False,
                    "error": f"bad search request: {exc}",
                },
                op,
            )
        try:
            result = await self.submit(graph, sigma)
        except (ServeOverloadedError, ServeShuttingDownError) as exc:
            return shed_response(exc, request_id), op
        except Exception as exc:  # a failed search must not kill the link
            return {"id": request_id, "ok": False, "error": str(exc)}, op
        return search_response(result, request_id), op

    async def _respond_update(
        self, request: Dict[str, Any], request_id: Any
    ) -> Dict[str, Any]:
        """Apply one live mutation batch (removals, then additions)."""
        try:
            removals = [int(graph_id) for graph_id in request.get("remove") or []]
            additions = [
                LabeledGraph.from_dict(graph_data)
                for graph_data in request.get("add") or []
            ]
            reuse_ids = bool(request.get("reuse_ids", False))
        except Exception as exc:  # any malformed payload: reject, don't die
            return {
                "id": request_id,
                "ok": False,
                "error": f"bad update request: {exc}",
            }
        try:
            outcome = await self.update(
                add=additions, remove=removals, reuse_ids=reuse_ids
            )
        except ServeShuttingDownError as exc:
            return shed_response(exc, request_id)
        except PISError as exc:
            return {"id": request_id, "ok": False, "error": str(exc)}
        return {"id": request_id, "ok": True, "op": "update", **outcome}

    async def _read_requests(
        self, reader: asyncio.StreamReader
    ) -> AsyncIterator[Optional[bytes]]:
        """Frame request lines ourselves, independent of the stream limit.

        Yields each newline-terminated line up to ``max_request_bytes``
        long, and ``None`` once per oversized line — whose payload is
        *discarded* as it streams in, so a hostile client cannot make the
        server buffer it.  Memory per connection stays bounded by
        ``max_request_bytes`` plus one read chunk.  A final line whose
        newline never arrived (the client wrote a request and half-closed)
        is still yielded at EOF.
        """
        limit = self.max_request_bytes
        buffer = bytearray()
        discarding = False
        while True:
            chunk = await reader.read(_READ_CHUNK)
            at_eof = not chunk
            buffer.extend(chunk)
            while True:
                newline = buffer.find(b"\n")
                if newline < 0:
                    break
                line = bytes(buffer[:newline])
                del buffer[: newline + 1]
                if discarding:
                    # Tail of an oversized line (already reported).
                    discarding = False
                    continue
                if len(line) > limit:
                    yield None
                    continue
                if line.strip():
                    yield line
            if discarding:
                buffer.clear()  # still mid-oversized-line: drop the tail
            elif len(buffer) > limit:
                buffer.clear()
                discarding = True
                yield None
            if at_eof:
                # Answer a trailing non-newline-terminated request (unless
                # it is the tail of an oversized line already reported
                # above; the checks above also guarantee it fits the limit).
                if not discarding and buffer.strip():
                    yield bytes(buffer)
                return

    def _too_large_response(self) -> Dict[str, Any]:
        self.counters.increment("serve.rejected_oversized")
        return {
            "id": None,
            "ok": False,
            "error": "too_large",
            "retryable": False,
            "detail": (
                f"request line exceeds serve_max_request_bytes="
                f"{self.max_request_bytes}; payload discarded"
            ),
        }

    async def _handle_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """Serve one connection: JSON lines in, JSON lines out, in order.

        Requests pipeline up to ``max_inflight_per_conn``: each line
        dispatches as its own task, responses are written back in request
        order, and at the in-flight cap the loop stops reading the socket
        (TCP backpressure) instead of queueing more.  An in-flight slot is
        held until its response has been written *and drained*, so a
        connection that stops reading its responses blocks only its own
        writer coroutine and buffers at most ``max_inflight_per_conn``
        finished responses — other connections are independent tasks.
        """
        self.counters.increment("serve.connections")
        gate = (
            asyncio.Semaphore(self.max_inflight_per_conn)
            if self.max_inflight_per_conn
            else None
        )
        responses: "asyncio.Queue[Optional[asyncio.Task]]" = asyncio.Queue()
        inflight: "set[asyncio.Task]" = set()

        async def answer(line: Optional[bytes]) -> Dict[str, Any]:
            if line is None:
                return self._too_large_response()
            return await self._respond(line)

        async def write_loop() -> None:
            while True:
                task = await responses.get()
                if task is None:
                    return
                try:
                    response = await task
                    payload = json.dumps(response).encode("utf-8")
                except Exception as exc:  # a broken dispatch must not
                    # stall the link: answer with a structured error and
                    # keep writing the pipelined responses behind it.
                    payload = json.dumps(
                        {"id": None, "ok": False, "error": f"internal error: {exc}"}
                    ).encode("utf-8")
                writer.write(payload + b"\n")
                await writer.drain()
                # The in-flight slot frees only once the response is on
                # the wire: a client that pipelines requests but never
                # reads stops being read after max_inflight_per_conn, so
                # its completed responses cannot pile up here unboundedly.
                if gate is not None:
                    gate.release()

        writer_task = asyncio.create_task(write_loop())
        try:
            async for line in self._read_requests(reader):
                if gate is not None:
                    # Backpressure: wait for a free in-flight slot.  Slots
                    # free as responses are *written*, so race the acquire
                    # against the writer — a writer that died mid-
                    # connection can never release one, and blocking here
                    # forever would leak the handler.
                    acquire = asyncio.ensure_future(gate.acquire())
                    await asyncio.wait(
                        {acquire, writer_task},
                        return_when=asyncio.FIRST_COMPLETED,
                    )
                    if not acquire.done():
                        acquire.cancel()
                        with contextlib.suppress(asyncio.CancelledError):
                            await acquire
                        break
                task = asyncio.create_task(answer(line))
                inflight.add(task)
                task.add_done_callback(inflight.discard)
                await responses.put(task)
            await responses.put(None)
            await writer_task  # flush every remaining in-order response
        except (ConnectionError, asyncio.IncompleteReadError):
            pass  # client went away mid-request; nothing to answer
        finally:
            writer_task.cancel()
            with contextlib.suppress(Exception):
                await writer_task
            for task in list(inflight):
                task.cancel()
            if inflight:
                await asyncio.gather(*inflight, return_exceptions=True)
            writer.close()
            with contextlib.suppress(Exception):
                await writer.wait_closed()

    async def serve_forever(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        ready: Optional[Callable[[str, int], None]] = None,
        stop: Optional["asyncio.Event"] = None,
    ) -> None:
        """Run the TCP front until cancelled (or ``stop`` is set).

        ``port=0`` binds an ephemeral port; ``ready(host, port)`` is called
        with the *bound* address once the listener is up — CLI and tests use
        it to publish the port.  Shutdown (cancellation or ``stop``) drains
        admitted queries — shedding any that arrive during the drain with
        ``"error": "shutting_down"`` — and closes the engine before
        returning.
        """
        await self.start()
        server = await asyncio.start_server(self._handle_client, host, port)
        bound_host, bound_port = server.sockets[0].getsockname()[:2]
        if ready is not None:
            ready(bound_host, bound_port)
        try:
            async with server:
                if stop is None:
                    await server.serve_forever()
                else:
                    await stop.wait()
        finally:
            await self.close()
