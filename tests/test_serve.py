"""Tests for the serving subsystem: resident pools, result cache, server.

Covers the four serving pieces end to end:

* resident executor mode in :mod:`repro.exec` (pools persist across map
  calls, pickling drops them, context-manager lifecycle),
* the engine lifecycle (:meth:`Engine.start` / :meth:`Engine.close`,
  executor reuse across searches, pickling safety),
* the generation-keyed :class:`~repro.serve.QueryResultCache` (hit/miss
  accounting, invalidation by mutations, byte-identical answers under
  randomized search/mutate interleavings), and
* the :class:`~repro.serve.QueryServer` front door (micro-batching, TCP
  JSON-lines protocol, the ``pis serve`` / ``pis bench-serve`` CLI).
"""

from __future__ import annotations

import asyncio
import json
import os
import pickle
import random
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path

import pytest

from helpers import random_molecule

import repro.engine.facade as facade_module
from repro.cli import main
from repro.core.database import GraphDatabase
from repro.core.errors import EngineConfigError, ServeError
from repro.engine import Engine, EngineConfig
from repro.exec import make_executor
from repro.serve import QueryResultCache, QueryServer, ServeClient, engine_fingerprint


# ----------------------------------------------------------------------
# shared data
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def serve_database():
    rng = random.Random(17)
    return GraphDatabase(
        [random_molecule(rng, num_vertices=8, extra_edges=2) for _ in range(24)],
        name="serve",
    )


@pytest.fixture(scope="module")
def serve_queries():
    return [
        random_molecule(random.Random(300 + seed), num_vertices=6, extra_edges=1)
        for seed in range(5)
    ]


@pytest.fixture
def engine(serve_database):
    return Engine.build(serve_database)


def _payload(result):
    """Byte-comparable answers + exact distances of one search result."""
    return [
        result.answer_ids,
        {str(gid): result.answer_distances[gid] for gid in result.answer_ids},
    ]


# ----------------------------------------------------------------------
# resident executors (repro.exec)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("kind", ["thread", "process"])
def test_resident_executor_reuses_one_pool(kind):
    executor = make_executor(kind, workers=2)
    assert not executor.started
    with executor as started:
        assert started is executor and executor.started
        assert executor.map(str, [1, 2, 3]) == ["1", "2", "3"]
        pool = executor._pool
        assert executor.map(str, [4]) == ["4"]
        # The same live pool answers every call while resident.
        assert executor._pool is pool
    assert not executor.started


@pytest.mark.parametrize("kind", ["serial", "thread", "process"])
def test_resident_executor_pickles_cold(kind):
    executor = make_executor(kind, workers=2).start()
    try:
        clone = pickle.loads(pickle.dumps(executor))
        assert not clone.started
        assert clone._pool is None
        assert clone.map(str, [7]) == ["7"]
    finally:
        executor.close()


def test_resident_serial_executor_is_noop_lifecycle():
    executor = make_executor("serial")
    with executor:
        assert executor.started
        assert executor.map(str, [1, 2]) == ["1", "2"]


# ----------------------------------------------------------------------
# QueryResultCache
# ----------------------------------------------------------------------
def test_result_cache_hit_miss_accounting(engine, serve_queries):
    cache = QueryResultCache(maxsize=8)
    fingerprint = engine_fingerprint(engine.config)
    key = QueryResultCache.key(serve_queries[0], 2.0, fingerprint, 0)
    assert cache.get(key) is None
    assert (cache.hits, cache.misses) == (0, 1)
    result = engine.search(serve_queries[0], 2.0)
    cache.put(key, result)
    hit = cache.get(key)
    assert hit is not None and hit.from_cache
    assert (cache.hits, cache.misses) == (1, 1)
    assert _payload(hit) == _payload(result)
    # A hit is an independent copy: mutating it never corrupts the cache.
    hit.answer_ids.append(-1)
    assert _payload(cache.get(key)) == _payload(result)
    # A from_cache result is never re-stored.
    other = QueryResultCache.key(serve_queries[1], 2.0, fingerprint, 0)
    cache.put(other, hit)
    assert cache.get(other) is None
    stats = cache.stats()
    assert stats["name"] == "query_results" and stats["size"] == 1


def test_result_cache_key_separates_engine_states(serve_queries):
    config = EngineConfig()
    base = QueryResultCache.key(
        serve_queries[0], 2.0, engine_fingerprint(config), 5
    )
    assert base != QueryResultCache.key(
        serve_queries[0], 3.0, engine_fingerprint(config), 5
    )
    assert base != QueryResultCache.key(
        serve_queries[0], 2.0, engine_fingerprint(config), 6
    )
    assert base != QueryResultCache.key(
        serve_queries[0],
        2.0,
        engine_fingerprint(config.replace(strategy="topoPrune")),
        5,
    )
    assert base == QueryResultCache.key(
        serve_queries[0], 2.0, engine_fingerprint(EngineConfig()), 5
    )


# ----------------------------------------------------------------------
# engine lifecycle
# ----------------------------------------------------------------------
def test_engine_start_close_lifecycle(engine, serve_queries):
    assert not engine.started and engine.result_cache is None
    uncached = engine.search(serve_queries[0], 2.0)
    assert not uncached.from_cache
    with engine:
        assert engine.started and engine.result_cache is not None
        cold = engine.search(serve_queries[0], 2.0)
        warm = engine.search(serve_queries[0], 2.0)
        assert not cold.from_cache and warm.from_cache
        assert _payload(uncached) == _payload(cold) == _payload(warm)
        assert engine.result_cache.hits == 1
    assert not engine.started and engine.result_cache is None
    # A closed engine still answers, uncached.
    assert not engine.search(serve_queries[0], 2.0).from_cache


def test_engine_start_respects_cache_size_zero(engine, serve_queries):
    engine.start(result_cache_size=0)
    try:
        assert engine.started and engine.result_cache is None
        assert not engine.search(serve_queries[0], 2.0).from_cache
        assert not engine.search(serve_queries[0], 2.0).from_cache
    finally:
        engine.close()


def test_started_engine_reuses_executors(serve_database, serve_queries, monkeypatch):
    engine = Engine.build(serve_database, shards=2, executor="thread")
    calls = []
    real = facade_module.make_executor

    def counting(name, **kwargs):
        calls.append(name)
        return real(name, **kwargs)

    monkeypatch.setattr(facade_module, "make_executor", counting)
    with engine:
        for query in serve_queries[:3]:
            engine.search(query, 5.0)
        # One resident pool serves every scatter; without start() each
        # search would construct its own executor.
        assert calls == ["thread"]
        pool = engine._resident_executors[("thread", 2)]
        assert pool.started
    assert not pool.started  # close() shuts the resident pool down


def test_engine_pickles_without_serving_state(serve_database, serve_queries):
    engine = Engine.build(serve_database)
    engine.start()
    engine.search(serve_queries[0], 2.0)
    clone = pickle.loads(pickle.dumps(engine))
    assert not clone.started
    assert clone.result_cache is None
    assert _payload(clone.search(serve_queries[0], 2.0)) == _payload(
        engine.search(serve_queries[0], 2.0)
    )
    engine.close()


def test_profile_and_serving_stats_expose_result_cache(engine, serve_queries):
    with engine:
        engine.search(serve_queries[0], 2.0)
        engine.search(serve_queries[0], 2.0)
        names = [entry["name"] for entry in engine.profile()["caches"]]
        assert "query_results" in names
        stats = engine.serving_stats()
        assert stats["started"] is True
        assert stats["result_cache"]["hits"] == 1
        assert stats["num_graphs"] == len(engine.database)


# ----------------------------------------------------------------------
# cache correctness under mutation
# ----------------------------------------------------------------------
def test_cache_invalidated_by_add_and_remove(engine, serve_queries):
    query = serve_queries[0]
    with engine:
        engine.search(query, 2.0)
        assert engine.search(query, 2.0).from_cache
        added = engine.add_graphs(
            [random_molecule(random.Random(888), num_vertices=8, extra_edges=2)]
        )
        after_add = engine.search(query, 2.0)
        assert not after_add.from_cache
        assert len(engine.result_cache) == 1
        engine.remove_graphs(added)
        after_remove = engine.search(query, 2.0)
        assert not after_remove.from_cache
        # Back to the original database: answers match a from-scratch build.
        fresh = Engine.build(engine.database)
        assert _payload(after_remove) == _payload(fresh.search(query, 2.0))


@pytest.mark.parametrize("seed", [0, 1])
def test_cached_answers_identical_under_random_interleavings(
    serve_database, serve_queries, seed
):
    """A started (caching) engine and an unstarted one never diverge.

    Random interleavings of searches, adds, and removes run against two
    engines built over copies of the same database; the started engine may
    serve any search from its cache, the control engine always computes.
    Every pair of results must be byte-identical in answers and distances.
    """
    import copy

    rng = random.Random(1000 + seed)
    served = Engine.build(copy.deepcopy(serve_database))
    control = Engine.build(copy.deepcopy(serve_database))
    served.start()
    try:
        for step in range(12):
            action = rng.choice(["search", "search", "search", "add", "remove"])
            if action == "add":
                graph = random_molecule(
                    random.Random(rng.randint(0, 10**6)),
                    num_vertices=8,
                    extra_edges=2,
                )
                assert served.add_graphs([graph]) == control.add_graphs([graph])
            elif action == "remove" and len(served.database) > 5:
                victim = rng.choice(sorted(served.database.graph_ids()))
                served.remove_graphs([victim])
                control.remove_graphs([victim])
            query = rng.choice(serve_queries)
            sigma = rng.choice([1.0, 2.0])
            assert _payload(served.search(query, sigma)) == _payload(
                control.search(query, sigma)
            ), f"divergence at step {step} (seed {seed})"
    finally:
        served.close()


# ----------------------------------------------------------------------
# QueryServer
# ----------------------------------------------------------------------
def test_query_server_batches_concurrent_queries(engine, serve_queries):
    async def run():
        server = QueryServer(engine, batch_window_ms=25.0, max_batch=16)
        async with server:
            results = await asyncio.gather(
                *(server.submit(query, 2.0) for query in serve_queries)
            )
            again = await asyncio.gather(
                *(server.submit(query, 2.0) for query in serve_queries)
            )
            counters = server.counters.as_dict()
        return results, again, counters

    results, again, counters = asyncio.run(run())
    for query, first, second in zip(serve_queries, results, again):
        direct = engine.search(query, 2.0)
        assert _payload(first) == _payload(second) == _payload(direct)
    assert all(result.from_cache for result in again)
    assert counters["serve.requests"] == 2 * len(serve_queries)
    # Concurrent submits coalesce: far fewer batches than requests.
    assert counters["serve.batches"] < counters["serve.requests"]
    assert counters["serve.cache_hits"] == len(serve_queries)
    assert not engine.started  # close() released the managed engine


def test_query_server_rejects_unstarted_submit(engine, serve_queries):
    async def run():
        server = QueryServer(engine)
        with pytest.raises(ServeError):
            await server.submit(serve_queries[0], 2.0)

    asyncio.run(run())


def test_query_server_validates_parameters(engine):
    with pytest.raises(ServeError):
        QueryServer(engine, batch_window_ms=-1.0)
    with pytest.raises(ServeError):
        QueryServer(engine, max_batch=0)


def test_query_server_tcp_protocol(engine, serve_queries):
    reference = [engine.search(query, 2.0) for query in serve_queries]

    async def run():
        server = QueryServer(engine, batch_window_ms=5.0)
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

        def client_session():
            with ServeClient(address["host"], address["port"]) as client:
                assert client.ping()
                responses = [
                    client.search(query, 2.0) for query in serve_queries
                ]
                stats = client.stats()
                # Malformed lines answer with an error, not a hangup.
                bad = client.request({"op": "search", "graph": {"bogus": 1}})
                assert not bad["ok"] and "error" in bad
                unknown = client.request({"op": "nope"})
                assert not unknown["ok"]
                return responses, stats

        responses, stats = await asyncio.to_thread(client_session)
        stop.set()
        await task
        return responses, stats

    responses, stats = asyncio.run(run())
    for result, response in zip(reference, responses):
        assert response["answers"] == result.answer_ids
        assert response["distances"] == {
            str(gid): result.answer_distances[gid] for gid in result.answer_ids
        }
        assert response["num_answers"] == result.num_answers
    assert stats["engine"]["started"] is True
    assert stats["server"]["counters"]["serve.connections"] == 1
    assert not engine.started


# ----------------------------------------------------------------------
# CLI: pis serve + pis bench-serve
# ----------------------------------------------------------------------
def test_serve_cli_round_trip(tmp_path):
    database_path = tmp_path / "db.json"
    engine_path = tmp_path / "engine.json"
    port_file = tmp_path / "server.addr"
    assert main(
        ["generate", "--count", "30", "--seed", "5", "--output", str(database_path)]
    ) == 0
    assert main(
        [
            "index",
            "--database",
            str(database_path),
            "--engine-output",
            str(engine_path),
        ]
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
            "--engine",
            str(engine_path),
            "--port",
            "0",
            "--port-file",
            str(port_file),
        ],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    try:
        code = main(
            [
                "bench-serve",
                "--database",
                str(database_path),
                "--engine",
                str(engine_path),
                "--port-file",
                str(port_file),
                "--clients",
                "3",
                "--rounds",
                "2",
                "--count",
                "6",
                "--connect-timeout",
                "60",
            ]
        )
        assert code == 0  # answers-identical=True, else bench-serve returns 1
    finally:
        server.send_signal(signal.SIGTERM)
        output, _ = server.communicate(timeout=30)
    assert server.returncode == 0, output
    assert "server stopped cleanly" in output
    host, port = port_file.read_text().split()
    # The listener is really gone after a clean shutdown.
    with pytest.raises(OSError):
        socket.create_connection((host, int(port)), timeout=0.5).close()


def test_bench_serve_requires_reachable_server(tmp_path):
    database_path = tmp_path / "db.json"
    assert main(
        ["generate", "--count", "10", "--seed", "6", "--output", str(database_path)]
    ) == 0
    with pytest.raises(SystemExit):
        # argparse error: --port-file and fallback host/port both unusable
        main(["bench-serve"])
    import argparse

    from repro.cli import _resolve_server_address

    missing = tmp_path / "absent.addr"
    start = time.monotonic()
    with pytest.raises(EngineConfigError):
        _resolve_server_address(
            argparse.Namespace(
                port_file=missing, host="127.0.0.1", port=1, connect_timeout=0.2
            )
        )
    assert time.monotonic() - start < 5.0


def test_engine_config_serving_knobs_round_trip():
    config = EngineConfig(
        result_cache_size=64, serve_batch_window_ms=1.5, serve_max_batch=8
    )
    data = json.loads(json.dumps(config.to_dict()))
    restored = EngineConfig.from_dict(data)
    assert restored.result_cache_size == 64
    assert restored.serve_batch_window_ms == 1.5
    assert restored.serve_max_batch == 8
    with pytest.raises(EngineConfigError):
        EngineConfig(result_cache_size=-1)
    with pytest.raises(EngineConfigError):
        EngineConfig(serve_batch_window_ms=-0.1)
    with pytest.raises(EngineConfigError):
        EngineConfig(serve_max_batch=0)


# ----------------------------------------------------------------------
# live mutation through the serve protocol (PR 7)
# ----------------------------------------------------------------------
def test_query_server_update_op(serve_database, serve_queries):
    engine = Engine.build(serve_database)
    rng = random.Random(71)
    additions = [
        random_molecule(rng, num_vertices=6, extra_edges=1) for _ in range(2)
    ]
    query = serve_queries[0]

    async def run():
        server = QueryServer(engine, batch_window_ms=5.0)
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

        def client_session():
            with ServeClient(address["host"], address["port"]) as client:
                before = client.search(query, 2.0)
                response = client.update(
                    add=additions, remove=[3, 7], reuse_ids=True
                )
                after = client.search(query, 2.0)
                # malformed updates answer with an error, not a hangup
                empty = client.request({"op": "update"})
                assert not empty["ok"] and "empty update" in empty["error"]
                bad = client.request({"op": "update", "remove": ["x"]})
                assert not bad["ok"]
                missing = client.request({"op": "update", "remove": [999]})
                assert not missing["ok"]
                stats = client.stats()
                return before, response, after, stats

        outcome = await asyncio.to_thread(client_session)
        stop.set()
        await task
        return outcome

    before, response, after, stats = asyncio.run(run())
    assert response["ok"] and response["op"] == "update"
    assert response["added"] == [3, 7]  # reuse_ids lands on the freed slots
    assert response["removed"] == 2 and response["removed_entries"] > 0
    assert response["generation"] == engine.index.generation
    assert "wal_lsn" not in response  # no WAL attached in durability="none"
    assert stats["server"]["counters"]["serve.updates"] == 1
    # the post-update answers match a direct search on the mutated engine
    direct = engine.search(query, 2.0)
    assert after["answers"] == direct.answer_ids
    assert before["ok"] and after["ok"]


def test_query_server_update_reports_wal_position(tmp_path, serve_database, serve_queries):
    engine = Engine.build(
        serve_database, EngineConfig(durability="wal")
    )
    engine_path = tmp_path / "engine.json"
    engine.attach_wal(Engine.wal_path_for(engine_path))
    engine.checkpoint(engine_path, database_path=tmp_path / "db.json")

    async def run():
        server = QueryServer(engine, batch_window_ms=5.0)
        async with server:
            request = {
                "op": "update",
                "id": 1,
                "remove": [1],
            }
            response = await server._respond(
                json.dumps(request).encode("utf-8")
            )
        return response

    response = asyncio.run(run())
    assert response["ok"]
    assert response["wal_lsn"] == 1
    # the batch is on disk before the server even acknowledged it
    records = list(engine.wal.records())
    assert [(r.lsn, r.op) for r in records] == [(1, "remove")]


def test_query_server_update_is_atomic():
    """Searches racing one remove+add ``update`` see the pre-batch or the
    post-batch answers, never the removals without the additions.

    The batch removes an answer graph and re-adds an identical copy under
    the reclaimed id, so the pre- and post-batch answers coincide and only
    a half-applied batch can answer differently.  A pause before the
    additions widens the window a non-atomic update would expose.
    """
    import copy

    from repro.datasets import sample_connected_subgraph

    rng = random.Random(23)
    database = GraphDatabase(
        [random_molecule(rng, num_vertices=8, extra_edges=2) for _ in range(24)]
    )
    engine = Engine.build(database)
    victim = 1
    query = sample_connected_subgraph(database[victim], 4, random.Random(5))
    sigma = 1.0
    expected = _payload(engine.search(query, sigma))
    assert victim in expected[0]

    add_graphs = engine.add_graphs

    def slow_add_graphs(*args, **kwargs):
        time.sleep(0.2)
        return add_graphs(*args, **kwargs)

    engine.add_graphs = slow_add_graphs

    async def run():
        server = QueryServer(engine, batch_window_ms=1.0)
        async with server:
            stop = asyncio.Event()
            seen = []

            async def reader():
                while not stop.is_set():
                    seen.append(_payload(await server.submit(query, sigma)))

            readers = [asyncio.create_task(reader()) for _ in range(2)]
            await asyncio.sleep(0.05)
            outcome = await server.update(
                add=[copy.deepcopy(database[victim])], remove=[victim], reuse_ids=True
            )
            await asyncio.sleep(0.05)
            stop.set()
            await asyncio.gather(*readers)
        return outcome, seen

    outcome, seen = asyncio.run(run())
    assert outcome["added"] == [victim]
    assert seen
    assert [payload for payload in seen if payload != expected] == []
    assert _payload(engine.search(query, sigma)) == expected


def test_query_server_nan_sigma_answers_error_and_keeps_connection(
    engine, serve_queries
):
    query = serve_queries[0]

    async def run():
        server = QueryServer(engine, batch_window_ms=5.0)
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

        def client_session():
            with ServeClient(address["host"], address["port"]) as client:
                bad = client.request(
                    {"op": "search", "graph": query.to_dict(), "sigma": float("nan")}
                )
                good = client.search(query, 2.0)  # same connection
                return bad, good

        outcome = await asyncio.to_thread(client_session)
        stop.set()
        await task
        return outcome

    bad, good = asyncio.run(run())
    assert bad["ok"] is False and "sigma" in bad["error"]
    assert good["ok"] and good["answers"] == engine.search(query, 2.0).answer_ids
