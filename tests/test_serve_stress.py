"""Adversarial tests for the serving front door: overload, fuzz, shutdown.

The serving subsystem's functional behaviour is covered by
``test_serve.py``; this module attacks it instead:

* **overload / backpressure** — a tiny-queue server stormed by 32
  concurrent clients must shed the excess (``accepted + shed ==
  submitted``, nothing lost, queue high-water within ``serve_max_queue``)
  and keep answering once the burst subsides; per-connection in-flight
  caps must stop a pipelining connection from flooding the queue; a
  client that never reads its responses must only stall itself;
* **protocol fuzz** — malformed JSON, wrong types, unknown ops, and
  oversized lines (both past asyncio's historical 64 KiB ``readline``
  limit and past ``serve_max_request_bytes``) must all produce structured
  error responses on a connection that stays alive;
* **shutdown** — submissions racing :meth:`QueryServer.close` are shed
  with ``shutting_down`` instead of hanging on unresolved futures, and a
  ``pis serve`` process SIGTERM'd mid-traffic still exits cleanly;
* **mixed read/write** — concurrent searches and updates against a
  shedding server leave the database and index byte-identical to a
  serial replay of the same mutations.

Every async scenario runs under an explicit ``asyncio.wait_for``
deadline, so a regression hangs a test for seconds, not forever — with
or without the ``pytest-timeout`` plugin CI adds on top.

Engine work is deterministically *stalled* (not slowed) via
:class:`GatedEngine`, a delegating proxy whose ``search_many`` blocks on
a :class:`threading.Event`: while the gate is closed the batcher holds
one batch in flight, so the submission queue fills and admission control
must act; opening the gate releases everything.
"""

from __future__ import annotations

import asyncio
import contextlib
import copy
import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

from helpers import random_molecule

import random

from repro.cli import main
from repro.core.database import GraphDatabase
from repro.core.errors import (
    EngineConfigError,
    ServeError,
    ServeOverloadedError,
    ServeShuttingDownError,
)
from repro.engine import Engine, EngineConfig
from repro.index.persistence import index_to_dict
from repro.serve import QueryServer, ServeClient

#: hard ceiling for any await in these tests — a hang fails, never blocks
DEADLINE = 60.0


# ----------------------------------------------------------------------
# shared data and tooling
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def stress_database():
    rng = random.Random(23)
    return GraphDatabase(
        [random_molecule(rng, num_vertices=7, extra_edges=2) for _ in range(16)],
        name="stress",
    )


@pytest.fixture(scope="module")
def stress_queries():
    return [
        random_molecule(random.Random(500 + seed), num_vertices=5, extra_edges=1)
        for seed in range(4)
    ]


def _payload(result):
    return [
        result.answer_ids,
        {str(gid): result.answer_distances[gid] for gid in result.answer_ids},
    ]


class GatedEngine:
    """Delegating engine proxy whose ``search_many`` blocks on an event.

    Closing the gate freezes the server's batch in its worker thread, so
    tests can deterministically fill the submission queue; opening it
    releases every frozen batch.  All other attributes pass through to
    the wrapped engine.
    """

    def __init__(self, engine):
        self._engine = engine
        self.gate = threading.Event()
        self.gate.set()

    def __getattr__(self, name):
        return getattr(self._engine, name)

    def search_many(self, queries, sigma, **kwargs):
        assert self.gate.wait(timeout=DEADLINE), "gate never opened"
        return self._engine.search_many(queries, sigma, **kwargs)


async def _start_tcp(server):
    """Run ``serve_forever`` as a task; returns (task, stop event, address)."""
    stop = asyncio.Event()
    address = {}
    task = asyncio.create_task(
        server.serve_forever(
            port=0,
            ready=lambda host, port: address.update(host=host, port=port),
            stop=stop,
        )
    )
    while not address:
        await asyncio.sleep(0.01)
    return task, stop, address


async def _wait_counter(server, name, minimum):
    """Poll a server counter until it reaches ``minimum`` (bounded)."""
    deadline = asyncio.get_running_loop().time() + DEADLINE
    while server.counters.as_dict().get(name, 0) < minimum:
        assert (
            asyncio.get_running_loop().time() < deadline
        ), f"counter {name} never reached {minimum}"
        await asyncio.sleep(0.01)


# ----------------------------------------------------------------------
# overload and backpressure
# ----------------------------------------------------------------------
def test_submit_storm_sheds_but_loses_nothing(stress_database, stress_queries):
    """32 concurrent submits against max_queue=4: shed, don't lose or hang."""
    query = stress_queries[0]
    gated = GatedEngine(Engine.build(stress_database))

    async def run():
        gated.gate.clear()
        server = QueryServer(
            gated, batch_window_ms=0.0, max_batch=1, max_queue=4
        )
        async with server:
            tasks = [
                asyncio.create_task(server.submit(query, 2.0))
                for _ in range(32)
            ]
            await _wait_counter(server, "serve.requests", 32)
            high_water_under_load = server.queue_high_water
            gated.gate.set()
            outcomes = await asyncio.wait_for(
                asyncio.gather(*tasks, return_exceptions=True), DEADLINE
            )
            # The queue drains fully and the server still answers.
            followup = await asyncio.wait_for(
                server.submit(query, 2.0), DEADLINE
            )
            stats = server.stats()["server"]
        return outcomes, followup, stats, high_water_under_load

    outcomes, followup, stats, high_water = asyncio.run(run())
    answered = [o for o in outcomes if not isinstance(o, BaseException)]
    shed = [o for o in outcomes if isinstance(o, ServeOverloadedError)]
    unexpected = [
        o
        for o in outcomes
        if isinstance(o, BaseException) and not isinstance(o, ServeOverloadedError)
    ]
    assert unexpected == []
    assert len(answered) + len(shed) == 32  # accounting identity: none lost
    assert shed, "a 32-deep burst against max_queue=4 must shed"
    assert high_water <= 4
    assert stats["queue_high_water"] <= 4
    assert stats["queue_depth"] == 0
    assert stats["accepted"] == len(answered) + 1  # + the follow-up submit
    assert stats["shed"] == len(shed)
    assert stats["completed"] == stats["accepted"]
    # Every survivor and the follow-up answered identically.
    reference = _payload(answered[0])
    assert all(_payload(result) == reference for result in answered)
    assert _payload(followup) == reference
    assert not gated.started  # close() released the engine: no leaked pools


def test_tcp_storm_32_clients_accepted_plus_shed_is_submitted(
    stress_database, stress_queries
):
    """The acceptance-criteria scenario, over real TCP connections."""
    query = stress_queries[0]
    gated = GatedEngine(Engine.build(stress_database))
    direct = Engine.build(stress_database).search(query, 2.0)

    async def run():
        gated.gate.clear()
        server = QueryServer(
            gated, batch_window_ms=0.0, max_batch=1, max_queue=4
        )
        task, stop, address = await _start_tcp(server)

        def one_client(_):
            try:
                with ServeClient(
                    address["host"], address["port"], io_timeout=DEADLINE
                ) as client:
                    return ("answered", client.search(query, 2.0))
            except ServeOverloadedError:
                return ("shed", None)

        loop = asyncio.get_running_loop()
        # A dedicated pool: accepted clients block their thread until the
        # gate opens, and asyncio's small default executor must stay free
        # for the server's own to_thread work.
        with ThreadPoolExecutor(max_workers=32) as pool:
            futures = [
                loop.run_in_executor(pool, one_client, i) for i in range(32)
            ]
            await _wait_counter(server, "serve.requests", 32)
            gated.gate.set()
            outcomes = await asyncio.wait_for(
                asyncio.gather(*futures), DEADLINE
            )
        stats = server.stats()["server"]
        stop.set()
        await asyncio.wait_for(task, DEADLINE)
        return outcomes, stats

    outcomes, stats = asyncio.run(run())
    answered = [response for kind, response in outcomes if kind == "answered"]
    shed = [1 for kind, _ in outcomes if kind == "shed"]
    assert len(answered) + len(shed) == 32
    assert shed, "the storm must overrun a 4-deep queue"
    assert stats["accepted"] == len(answered)
    assert stats["shed"] == len(shed)
    assert stats["queue_high_water"] <= 4
    assert stats["queue_depth"] == 0
    for response in answered:
        assert response["answers"] == direct.answer_ids
    assert not gated.started


def test_client_retries_through_overload(stress_database, stress_queries):
    """Backoff retries turn sheds into eventual answers once load subsides."""
    query = stress_queries[0]
    gated = GatedEngine(Engine.build(stress_database))

    async def run():
        gated.gate.clear()
        server = QueryServer(
            gated, batch_window_ms=0.0, max_batch=1, max_queue=1
        )
        task, stop, address = await _start_tcp(server)

        def retrying_client(_):
            with ServeClient(
                address["host"],
                address["port"],
                io_timeout=DEADLINE,
                max_retries=50,
                retry_backoff=0.02,
                retry_backoff_max=0.1,
            ) as client:
                return client.search(query, 2.0)

        loop = asyncio.get_running_loop()
        with ThreadPoolExecutor(max_workers=8) as pool:
            futures = [
                loop.run_in_executor(pool, retrying_client, i)
                for i in range(8)
            ]
            # Only once shedding has demonstrably happened does the gate
            # open — so at least one answer below went through a retry.
            await _wait_counter(server, "serve.shed", 1)
            gated.gate.set()
            responses = await asyncio.wait_for(
                asyncio.gather(*futures), DEADLINE
            )
        stats = server.stats()["server"]
        stop.set()
        await asyncio.wait_for(task, DEADLINE)
        return responses, stats

    responses, stats = asyncio.run(run())
    assert len(responses) == 8
    assert all(response["ok"] for response in responses)
    assert stats["shed"] >= 1
    assert stats["accepted"] == 8  # every client eventually got through


def test_slow_reader_does_not_stall_other_connections(
    stress_database, stress_queries
):
    """A connection that never reads its responses only stalls itself."""
    query = stress_queries[0]
    engine = Engine.build(stress_database)

    async def run():
        server = QueryServer(engine, batch_window_ms=1.0)
        task, stop, address = await _start_tcp(server)

        slow = socket.create_connection(
            (address["host"], address["port"]), timeout=DEADLINE
        )
        try:
            # Five pipelined pings, responses deliberately left unread.
            slow.sendall(
                b"".join(
                    json.dumps({"op": "ping", "id": n}).encode() + b"\n"
                    for n in range(5)
                )
            )

            def healthy_client():
                with ServeClient(
                    address["host"], address["port"], io_timeout=DEADLINE
                ) as client:
                    return [client.search(query, 2.0) for _ in range(5)]

            responses = await asyncio.wait_for(
                asyncio.to_thread(healthy_client), DEADLINE
            )

            # The slow reader's responses were still produced, in order.
            def drain_slow():
                reader = slow.makefile("rb")
                return [json.loads(reader.readline()) for _ in range(5)]

            slow_responses = await asyncio.wait_for(
                asyncio.to_thread(drain_slow), DEADLINE
            )
        finally:
            slow.close()
        stop.set()
        await asyncio.wait_for(task, DEADLINE)
        return responses, slow_responses

    responses, slow_responses = asyncio.run(run())
    assert all(response["ok"] for response in responses)
    assert [response["id"] for response in slow_responses] == list(range(5))


def test_inflight_cap_backpressures_a_pipelining_connection(
    stress_database, stress_queries
):
    """At the per-connection cap the server stops *reading* the socket."""
    query = stress_queries[0]
    gated = GatedEngine(Engine.build(stress_database))

    async def run():
        gated.gate.clear()
        server = QueryServer(
            gated,
            batch_window_ms=0.0,
            max_batch=1,
            max_inflight_per_conn=2,
        )
        task, stop, address = await _start_tcp(server)
        greedy = socket.create_connection(
            (address["host"], address["port"]), timeout=DEADLINE
        )
        try:
            greedy.sendall(
                b"".join(
                    json.dumps(
                        {
                            "op": "search",
                            "id": n,
                            "graph": query.to_dict(),
                            "sigma": 2.0,
                        }
                    ).encode()
                    + b"\n"
                    for n in range(10)
                )
            )
            # Exactly the cap's worth of requests is dispatched...
            await _wait_counter(server, "serve.requests", 2)
            await asyncio.sleep(0.2)
            assert server.counters.as_dict()["serve.requests"] == 2, (
                "the in-flight cap must stop the reader from dispatching "
                "the rest of the pipeline"
            )
            # ...and once the engine unblocks, all 10 answer in order.
            gated.gate.set()

            def drain():
                reader = greedy.makefile("rb")
                return [json.loads(reader.readline()) for _ in range(10)]

            responses = await asyncio.wait_for(
                asyncio.to_thread(drain), DEADLINE
            )
        finally:
            greedy.close()
        stop.set()
        await asyncio.wait_for(task, DEADLINE)
        return responses

    responses = asyncio.run(run())
    assert [response["id"] for response in responses] == list(range(10))
    assert all(response["ok"] for response in responses)


class _BlockedWriter:
    """StreamWriter stand-in whose ``drain`` blocks until released.

    Models a client that pipelines requests but never reads: the server's
    transport buffer is "full" forever (until the test opens the valve),
    so ``drain()`` never returns and slot releases — which happen post-
    write — stop.
    """

    def __init__(self):
        self.wrote = bytearray()
        self.can_drain = asyncio.Event()

    def write(self, data):
        self.wrote.extend(data)

    async def drain(self):
        await self.can_drain.wait()

    def close(self):
        pass

    async def wait_closed(self):
        return None


def test_nonreading_pipeliner_buffers_at_most_the_inflight_cap(
    stress_database,
):
    """Slots free on *write*, so a never-reading client stops being read.

    Regression: the slot used to free when the response finished
    *computing*, so a client that pipelined but never read kept getting
    fresh slots and its completed responses piled up in the per-connection
    response queue without bound.
    """
    engine = Engine.build(stress_database)

    async def run():
        server = QueryServer(
            engine, batch_window_ms=0.0, max_inflight_per_conn=2
        )
        async with server:
            reader = asyncio.StreamReader()
            writer = _BlockedWriter()
            handler = asyncio.create_task(server._handle_client(reader, writer))
            for n in range(20):
                reader.feed_data(
                    json.dumps({"op": "ping", "id": n}).encode() + b"\n"
                )
            # Let the connection churn as far as it can: with drain()
            # blocked, exactly max_inflight_per_conn requests may have
            # been read and answered — the rest stay unread in the socket.
            await asyncio.sleep(0.3)
            stalled = server.stats()["server"]["op_latency_ms"]["ping"]["count"]
            # The client starts reading: everything flushes, in order.
            writer.can_drain.set()
            reader.feed_eof()
            await asyncio.wait_for(handler, DEADLINE)
        responses = [
            json.loads(line)
            for line in bytes(writer.wrote).splitlines()
        ]
        return stalled, responses

    stalled, responses = asyncio.run(run())
    assert stalled == 2, (
        "a non-reading connection must hold its in-flight slots until "
        "responses are written, not until they are computed"
    )
    assert [response["id"] for response in responses] == list(range(20))
    assert all(response["ok"] for response in responses)


def test_final_line_without_trailing_newline_is_answered(stress_database):
    """A request followed by half-close (no newline) still gets a response."""
    engine = Engine.build(stress_database)

    async def run():
        server = QueryServer(engine, batch_window_ms=1.0)
        task, stop, address = await _start_tcp(server)

        def session():
            sock = socket.create_connection(
                (address["host"], address["port"]), timeout=DEADLINE
            )
            try:
                sock.sendall(json.dumps({"op": "ping", "id": 11}).encode())
                sock.shutdown(socket.SHUT_WR)  # EOF without a newline
                return json.loads(sock.makefile("rb").readline())
            finally:
                sock.close()

        pong = await asyncio.wait_for(asyncio.to_thread(session), DEADLINE)
        stop.set()
        await asyncio.wait_for(task, DEADLINE)
        return pong

    pong = asyncio.run(run())
    assert pong == {"id": 11, "ok": True, "op": "ping"}


def test_unexpected_dispatch_error_answers_structured_not_dead_link(
    stress_database,
):
    """An op handler blowing up answers an error; the connection survives."""
    engine = Engine.build(stress_database)

    async def run():
        server = QueryServer(engine, batch_window_ms=1.0)
        # The stats op is dispatched outside the per-op try/except — a
        # failure here used to escape through the writer coroutine and
        # silently kill every response behind it.
        server.stats = lambda: (_ for _ in ()).throw(RuntimeError("boom"))
        task, stop, address = await _start_tcp(server)

        def session():
            sock = socket.create_connection(
                (address["host"], address["port"]), timeout=DEADLINE
            )
            try:
                reader = sock.makefile("rb")
                sock.sendall(
                    json.dumps({"op": "stats", "id": 1}).encode()
                    + b"\n"
                    + json.dumps({"op": "ping", "id": 2}).encode()
                    + b"\n"
                )
                return [json.loads(reader.readline()) for _ in range(2)]
            finally:
                sock.close()

        responses = await asyncio.wait_for(asyncio.to_thread(session), DEADLINE)
        stop.set()
        await asyncio.wait_for(task, DEADLINE)
        return responses

    broken, pong = asyncio.run(run())
    assert broken["ok"] is False
    assert "internal error" in broken["error"] and "boom" in broken["error"]
    assert pong == {"id": 2, "ok": True, "op": "ping"}


def test_cancelled_waiter_counts_cancelled_not_completed(
    stress_database, stress_queries
):
    """A waiter gone before its batch runs must not inflate ``completed``."""
    query = stress_queries[0]
    gated = GatedEngine(Engine.build(stress_database))

    async def run():
        gated.gate.clear()
        server = QueryServer(gated, batch_window_ms=0.0, max_batch=1)
        await server.start()
        tasks = [
            asyncio.create_task(server.submit(query, 2.0)) for _ in range(2)
        ]
        await _wait_counter(server, "serve.accepted", 2)
        await asyncio.sleep(0)  # both waiters suspended on their futures
        tasks[1].cancel()  # its connection "dropped" mid-wait
        with contextlib.suppress(asyncio.CancelledError):
            await tasks[1]
        gated.gate.set()
        await asyncio.wait_for(tasks[0], DEADLINE)
        await server.close()
        return server.stats()["server"]

    stats = asyncio.run(run())
    assert stats["accepted"] == 2
    assert stats["completed"] == 1
    assert stats["cancelled"] == 1
    assert stats["failed"] == 0
    # The accounting identity the suite leans on, with the vanished
    # waiter ledgered explicitly instead of padding "completed".
    assert (
        stats["completed"] + stats["failed"] + stats["cancelled"]
        == stats["accepted"]
    )


def test_mixed_search_update_storm_matches_serial_control(
    stress_database, stress_queries
):
    """Concurrent sheds + mutations still end byte-identical to a serial run."""
    database = copy.deepcopy(stress_database)
    engine = Engine.build(database)
    control_database = copy.deepcopy(stress_database)
    control_engine = Engine.build(control_database)

    victims = sorted(stress_database.graph_ids())
    newcomers = [
        random_molecule(random.Random(900 + seed), num_vertices=7, extra_edges=2)
        for seed in range(4)
    ]
    batches = [
        (newcomers[0:2], victims[0:2]),
        (newcomers[2:4], victims[2:4]),
    ]

    async def run():
        server = QueryServer(engine, batch_window_ms=1.0, max_queue=3)
        async with server:

            async def search_client(query):
                answered = shed = 0
                for _ in range(6):
                    try:
                        await server.submit(query, 2.0)
                        answered += 1
                    except ServeOverloadedError:
                        shed += 1
                return answered, shed

            async def update_client():
                for additions, removals in batches:
                    await server.update(add=additions, remove=removals)

            tallies = await asyncio.wait_for(
                asyncio.gather(
                    update_client(),
                    *(search_client(query) for query in stress_queries),
                ),
                DEADLINE,
            )
            final = [
                await server.submit(query, 2.0) for query in stress_queries
            ]
            server_stats = server.stats()["server"]
        return tallies[1:], final, server_stats

    tallies, final, server_stats = asyncio.run(run())
    submitted = 6 * len(stress_queries)
    answered = sum(a for a, _ in tallies)
    shed = sum(s for _, s in tallies)
    assert answered + shed == submitted  # nothing lost mid-storm
    # The server's own accounting agrees with the clients' tallies, and
    # admission control never let the queue outgrow its bound.
    assert server_stats["shed"] == shed
    assert server_stats["accepted"] == answered + len(stress_queries)
    assert server_stats["queue_high_water"] <= 3

    for additions, removals in batches:
        control_engine.remove_graphs(removals)
        control_engine.add_graphs(additions)
    assert json.dumps(database.to_dict()) == json.dumps(
        control_database.to_dict()
    )
    assert json.dumps(index_to_dict(engine.index)) == json.dumps(
        index_to_dict(control_engine.index)
    )
    for query, result in zip(stress_queries, final):
        assert _payload(result) == _payload(control_engine.search(query, 2.0))


# ----------------------------------------------------------------------
# protocol fuzz
# ----------------------------------------------------------------------
def test_malformed_lines_answer_errors_and_keep_the_connection(
    stress_database,
):
    engine = Engine.build(stress_database)
    garbage = [
        b"this is not json",
        b"[1, 2, 3]",
        b'"just a string"',
        b"\xff\xfe\x01",  # invalid UTF-8
        json.dumps({"op": 5, "id": 1}).encode(),
        json.dumps({"op": "nope", "id": 2}).encode(),
        json.dumps({"op": "search", "id": 3}).encode(),  # no graph/sigma
        json.dumps(
            {"op": "search", "id": 4, "graph": 17, "sigma": "wat"}
        ).encode(),
        json.dumps({"op": "update", "id": 5}).encode(),  # empty update
        json.dumps({"op": "update", "id": 6, "remove": ["x"]}).encode(),
    ]

    async def run():
        server = QueryServer(engine, batch_window_ms=1.0)
        task, stop, address = await _start_tcp(server)

        def fuzz_session():
            sock = socket.create_connection(
                (address["host"], address["port"]), timeout=DEADLINE
            )
            try:
                reader = sock.makefile("rb")
                sock.sendall(b"\n".join(garbage) + b"\n")
                responses = [
                    json.loads(reader.readline()) for _ in garbage
                ]
                # The connection survived the whole barrage.
                sock.sendall(json.dumps({"op": "ping", "id": 99}).encode() + b"\n")
                pong = json.loads(reader.readline())
            finally:
                sock.close()
            return responses, pong

        responses, pong = await asyncio.wait_for(
            asyncio.to_thread(fuzz_session), DEADLINE
        )
        stop.set()
        await asyncio.wait_for(task, DEADLINE)
        return responses, pong

    responses, pong = asyncio.run(run())
    assert len(responses) == len(garbage)
    for response in responses:
        assert response["ok"] is False
        assert isinstance(response["error"], str) and response["error"]
    # Requests that parsed far enough to carry an id echo it back.
    assert [r["id"] for r in responses[4:]] == [1, 2, 3, 4, 5, 6]
    assert pong == {"id": 99, "ok": True, "op": "ping"}


def test_request_larger_than_64k_readline_limit_is_served(
    stress_database, stress_queries
):
    """Valid requests beyond asyncio's historical 64 KiB limit must work."""
    query = stress_queries[0]
    engine = Engine.build(stress_database)
    direct = Engine.build(stress_database).search(query, 2.0)
    request = {
        "op": "search",
        "id": 1,
        "graph": query.to_dict(),
        "sigma": 2.0,
        "padding": "x" * 80_000,  # unknown keys are ignored; size is the point
    }
    line = json.dumps(request).encode() + b"\n"
    assert len(line) > 65_536

    async def run():
        server = QueryServer(engine, batch_window_ms=1.0)
        task, stop, address = await _start_tcp(server)

        def session():
            sock = socket.create_connection(
                (address["host"], address["port"]), timeout=DEADLINE
            )
            try:
                sock.sendall(line)
                return json.loads(sock.makefile("rb").readline())
            finally:
                sock.close()

        response = await asyncio.wait_for(asyncio.to_thread(session), DEADLINE)
        stop.set()
        await asyncio.wait_for(task, DEADLINE)
        return response

    response = asyncio.run(run())
    assert response["ok"] is True
    assert response["answers"] == direct.answer_ids


@pytest.mark.parametrize("oversize", [5_000, 300_000])
def test_oversized_request_is_rejected_not_fatal(stress_database, oversize):
    """Past ``serve_max_request_bytes``: one structured reject, link alive.

    The 300 KB case spans multiple socket reads, exercising the streaming
    discard path (the payload is dropped as it arrives, never buffered).
    """
    engine = Engine.build(stress_database)

    async def run():
        server = QueryServer(
            engine, batch_window_ms=1.0, max_request_bytes=1024
        )
        task, stop, address = await _start_tcp(server)

        def session():
            sock = socket.create_connection(
                (address["host"], address["port"]), timeout=DEADLINE
            )
            try:
                reader = sock.makefile("rb")
                sock.sendall(b"y" * oversize + b"\n")
                rejected = json.loads(reader.readline())
                sock.sendall(json.dumps({"op": "ping", "id": 7}).encode() + b"\n")
                pong = json.loads(reader.readline())
            finally:
                sock.close()
            return rejected, pong

        rejected, pong = await asyncio.wait_for(
            asyncio.to_thread(session), DEADLINE
        )
        counters = server.counters.as_dict()
        stop.set()
        await asyncio.wait_for(task, DEADLINE)
        return rejected, pong, counters

    rejected, pong, counters = asyncio.run(run())
    assert rejected["ok"] is False
    assert rejected["error"] == "too_large"
    assert rejected["retryable"] is False
    assert pong["ok"] is True and pong["id"] == 7
    assert counters["serve.rejected_oversized"] == 1


# ----------------------------------------------------------------------
# shutdown: the close() race and SIGTERM
# ----------------------------------------------------------------------
def test_submit_racing_close_is_shed_not_hung(stress_database, stress_queries):
    """The PR-8 regression: submissions during drain resolve, never hang."""
    query = stress_queries[0]
    gated = GatedEngine(Engine.build(stress_database))

    async def run():
        gated.gate.clear()
        server = QueryServer(gated, batch_window_ms=0.0, max_batch=1)
        await server.start()
        accepted = [
            asyncio.create_task(server.submit(query, 2.0)) for _ in range(2)
        ]
        await _wait_counter(server, "serve.accepted", 2)
        closer = asyncio.create_task(server.close())
        await asyncio.sleep(0.05)  # close() is now draining the queue
        # Anything submitted (or mutated) during the drain is shed loudly.
        with pytest.raises(ServeShuttingDownError):
            await server.submit(query, 2.0)
        with pytest.raises(ServeShuttingDownError):
            await server.update(remove=[0])
        assert not closer.done()  # still draining: the gate is closed
        gated.gate.set()
        await asyncio.wait_for(closer, DEADLINE)
        # Every pre-drain submission resolved with a real answer.
        results = await asyncio.wait_for(
            asyncio.gather(*accepted), DEADLINE
        )
        counters = server.counters.as_dict()
        return results, counters

    results, counters = asyncio.run(run())
    assert len(results) == 2
    assert _payload(results[0]) == _payload(results[1])
    assert counters["serve.shed_shutdown"] == 2
    assert counters["serve.completed"] == 2
    assert not gated.started


def test_sigterm_mid_traffic_exits_cleanly(tmp_path, stress_queries):
    """A client hammering the server across SIGTERM never hangs it."""
    database_path = tmp_path / "db.json"
    port_file = tmp_path / "server.addr"
    assert main(
        ["generate", "--count", "20", "--seed", "9", "--output", str(database_path)]
    ) == 0

    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    server = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro.cli",
            "serve",
            "--database",
            str(database_path),
            "--port",
            "0",
            "--port-file",
            str(port_file),
            "--max-queue",
            "8",
        ],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    seen = {"answered": 0, "rejected": 0}

    def hammer():
        try:
            with ServeClient(
                *_read_address(port_file), connect_timeout=30, io_timeout=30
            ) as client:
                deadline = time.monotonic() + 30
                while time.monotonic() < deadline:
                    try:
                        client.search(stress_queries[0], 2.0)
                        seen["answered"] += 1
                    except ServeError:
                        # shutting_down shed, or the listener went away —
                        # either is a clean end to the stream
                        seen["rejected"] += 1
                        return
        except (ServeError, OSError):
            seen["rejected"] += 1

    try:
        client_thread = threading.Thread(target=hammer)
        client_thread.start()
        deadline = time.monotonic() + 30
        while seen["answered"] < 3 and time.monotonic() < deadline:
            time.sleep(0.02)
        assert seen["answered"] >= 3, "client never got going"
        server.send_signal(signal.SIGTERM)
        client_thread.join(timeout=DEADLINE)
        assert not client_thread.is_alive(), "client hung across SIGTERM"
    finally:
        try:
            output, _ = server.communicate(timeout=30)
        except subprocess.TimeoutExpired:
            server.kill()
            output, _ = server.communicate()
    assert server.returncode == 0, output
    assert "server stopped cleanly" in output


def _read_address(port_file):
    deadline = time.monotonic() + 30
    while time.monotonic() < deadline:
        try:
            text = port_file.read_text(encoding="utf-8").strip()
            if text:
                host, port = text.split()
                return host, int(port)
        except OSError:
            pass
        time.sleep(0.05)
    raise AssertionError("server never published its address")


# ----------------------------------------------------------------------
# configuration and metrics surface
# ----------------------------------------------------------------------
def test_engine_config_admission_knobs_round_trip():
    config = EngineConfig(
        serve_max_queue=16,
        serve_max_inflight_per_conn=4,
        serve_max_request_bytes=2048,
    )
    restored = EngineConfig.from_dict(json.loads(json.dumps(config.to_dict())))
    assert restored.serve_max_queue == 16
    assert restored.serve_max_inflight_per_conn == 4
    assert restored.serve_max_request_bytes == 2048
    with pytest.raises(EngineConfigError):
        EngineConfig(serve_max_queue=-1)
    with pytest.raises(EngineConfigError):
        EngineConfig(serve_max_inflight_per_conn=-1)
    with pytest.raises(EngineConfigError):
        EngineConfig(serve_max_request_bytes=0)
    with pytest.raises(EngineConfigError):
        EngineConfig(serve_max_queue=True)  # bools are not queue bounds


def test_query_server_validates_admission_parameters(stress_database):
    engine = Engine.build(stress_database)
    with pytest.raises(ServeError):
        QueryServer(engine, max_queue=-1)
    with pytest.raises(ServeError):
        QueryServer(engine, max_inflight_per_conn=-1)
    with pytest.raises(ServeError):
        QueryServer(engine, max_request_bytes=0)
    # None picks up the config's knobs.
    server = QueryServer(engine)
    assert server.max_queue == engine.config.serve_max_queue
    assert server.max_inflight_per_conn == (
        engine.config.serve_max_inflight_per_conn
    )
    assert server.max_request_bytes == engine.config.serve_max_request_bytes


def test_stats_exposes_the_full_metrics_surface(stress_database, stress_queries):
    engine = Engine.build(stress_database)

    async def run():
        server = QueryServer(engine, batch_window_ms=1.0, max_queue=7)
        async with server:
            await server.submit(stress_queries[0], 2.0)
            await server.submit(stress_queries[0], 2.0)  # result-cache hit
            await server._respond(json.dumps({"op": "ping", "id": 1}).encode())
            await server._respond(b"garbage")
            return server.stats()

    stats = asyncio.run(run())
    server_stats = stats["server"]
    assert server_stats["max_queue"] == 7
    assert server_stats["queue_depth"] == 0
    assert server_stats["queue_high_water"] >= 1
    assert server_stats["accepted"] == 2
    assert server_stats["completed"] == 2
    assert server_stats["shed"] == 0 and server_stats["shed_shutdown"] == 0
    batch_size = server_stats["batch_size"]
    assert batch_size["count"] >= 1
    assert batch_size["buckets"][-1]["le"] == "+inf"
    assert sum(bucket["count"] for bucket in batch_size["buckets"]) == (
        batch_size["count"]
    )
    assert server_stats["batch_wait_ms"]["count"] == 2
    latencies = server_stats["op_latency_ms"]
    assert latencies["ping"]["count"] == 1
    assert latencies["invalid"]["count"] == 1
    # The result cache now reports its hit rate to the serving stats.
    cache_stats = stats["engine"]["result_cache"]
    assert cache_stats["hits"] == 1
    assert cache_stats["hit_rate"] == pytest.approx(0.5)
