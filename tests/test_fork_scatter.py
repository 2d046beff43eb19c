"""Tests for the fork-inherited shard scatter.

The sharded engine publishes its per-shard strategies before every scatter
and ships only plain items naming them (publication token, shard position,
index generation, queries, plans, sigma, the verify flag); process workers
read the shards from the memory they inherited at fork.  Covered here:

* answers equal the oracle for shards {1, 2, 4} x every executor, started
  and unstarted, across a schedule of writes;
* a started engine re-forks its resident scatter pool after a write, and
  only then;
* a task whose token or generation is not the published one raises
  :class:`~repro.core.errors.StaleShardStateError`;
* scatter items carry no engine, index, database or view, sharded or not;
* a worker forked while another thread holds a counter or cache lock
  still runs (``repro.perf`` renews the locks in the child);
* a worker killed mid-scatter costs a counted fallback, not an answer, and
  the next scatter forks a working pool, which a started engine keeps as
  its resident pool.
"""

from __future__ import annotations

import copy
import io
import multiprocessing
import os
import pickle
import signal
import sys
import threading

import pytest

import repro.engine.facade
import repro.exec
from repro.core import GraphDatabase
from repro.core.errors import StaleShardStateError
from repro.datasets.generator import generate_chemical_database
from repro.datasets.queries import QueryWorkload
from repro.engine import Engine, EngineConfig
from repro.engine.facade import _shard_task
from repro.exec import ProcessExecutor
from repro.index.fragment_index import FragmentIndex
from repro.index.sharded import ShardDatabaseView, ShardedFragmentIndex
from repro.perf import GLOBAL_COUNTERS
from repro.search.strategy import SearchStrategy

from helpers import oracle_answers

CONFIG = EngineConfig(
    selector="exhaustive",
    selector_params={
        "max_edges": 3,
        "min_support": 0.1,
        "max_features": 40,
        "sample_size": 15,
    },
)

EXECUTORS = ("serial", "thread", "process")

needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="the platform has no fork start method",
)


@pytest.fixture(scope="module")
def database():
    return generate_chemical_database(20, seed=7)


@pytest.fixture(scope="module")
def queries(database):
    return QueryWorkload(database, seed=3).sample_queries(num_edges=5, count=2)


@pytest.fixture(scope="module")
def additions():
    return list(generate_chemical_database(3, seed=41))


def build(database, shards, executor="process"):
    return Engine.build(
        copy.deepcopy(database), CONFIG.replace(executor=executor), shards=shards
    )


def answers(result):
    ids = list(result.answer_ids)
    return ids, {graph_id: result.answer_distances[graph_id] for graph_id in ids}


def assert_oracle(engine, queries, executor, sigma=1.0):
    batch = engine.search_many(queries, sigma, workers=2, executor=executor)
    for query, result in zip(queries, batch):
        assert answers(result) == oracle_answers(
            engine.database, engine.measure, query, sigma
        )
    for query in queries:
        assert answers(engine.search(query, sigma)) == oracle_answers(
            engine.database, engine.measure, query, sigma
        )


def write_schedule(engine, additions):
    """The writes of the schedule, one at a time: add, remove, re-add
    into the retired ids."""
    yield lambda: engine.add_graphs(additions[:2])
    yield lambda: engine.remove_graphs([1, 2, 5])
    yield lambda: engine.add_graphs(additions[2:] + additions[:1], reuse_ids=True)


@pytest.fixture()
def fork_counter(monkeypatch):
    """Counts the process pools forked (resident or per call)."""
    forks = []
    original = repro.exec._fork_pool

    def counted(size):
        forks.append(size)
        return original(size)

    monkeypatch.setattr(repro.exec, "_fork_pool", counted)
    return forks


# ----------------------------------------------------------------------
# answers across writes
# ----------------------------------------------------------------------
class TestAcrossWrites:
    @pytest.mark.parametrize("started", [False, True], ids=["unstarted", "started"])
    @pytest.mark.parametrize("executor", EXECUTORS)
    @pytest.mark.parametrize("shards", [1, 2, 4])
    def test_answers_equal_oracle_across_writes(
        self, database, queries, additions, shards, executor, started
    ):
        engine = build(database, shards, executor)
        if started:
            engine.start()
        try:
            assert_oracle(engine, queries, executor)
            for write in write_schedule(engine, additions):
                write()
                assert_oracle(engine, queries, executor)
        finally:
            engine.close()
        assert engine.database.graph_ids() == sorted(set(range(22)) - {5})
        if shards > 1:
            assert engine.index.counters.get("exec.process_fallbacks") == 0

    @needs_fork
    @pytest.mark.parametrize("shards", [2, 4])
    def test_started_engine_reforks_only_after_a_write(
        self, database, queries, additions, shards, fork_counter
    ):
        engine = build(database, shards)
        with engine.start(result_cache_size=0):
            engine.search(queries[0], 1.0)
            assert len(fork_counter) == 1
            engine.search(queries[1], 1.0)
            assert len(fork_counter) == 1  # same generation: same workers
            for step, write in enumerate(write_schedule(engine, additions), 2):
                write()
                assert len(fork_counter) == step - 1  # re-forked lazily ...
                for query in queries:
                    assert answers(engine.search(query, 1.0)) == oracle_answers(
                        engine.database, engine.measure, query, 1.0
                    )
                assert len(fork_counter) == step  # ... once, before the map
        assert engine.index.counters.get("exec.process_fallbacks") == 0

    @needs_fork
    def test_concurrent_searches_after_a_write_fork_once(
        self, database, queries, additions, fork_counter
    ):
        """More searching threads than cores race to the first scatter
        after each write: exactly one republishes and re-forks, and every
        search answers from the new state."""
        engine = build(database, 2)
        failures = []

        def searcher():
            try:
                for query in queries:
                    result = engine.search(query, 1.0)
                    expected = oracle_answers(
                        engine.database, engine.measure, query, 1.0
                    )
                    if answers(result) != expected:
                        failures.append(("answers", query))
            except Exception as exc:  # reported below, with its type
                failures.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with engine.start(result_cache_size=0):
                for step, write in enumerate(write_schedule(engine, additions), 1):
                    write()
                    threads = [threading.Thread(target=searcher) for _ in range(4)]
                    for thread in threads:
                        thread.start()
                    for thread in threads:
                        thread.join(timeout=60)
                    assert not any(thread.is_alive() for thread in threads)
                    assert failures == []
                    assert len(fork_counter) == step
        finally:
            sys.setswitchinterval(interval)

    @needs_fork
    def test_unstarted_engine_forks_per_scatter(
        self, database, queries, fork_counter
    ):
        engine = build(database, 2)
        for query in queries:
            engine.search(query, 1.0)
        assert len(fork_counter) == len(queries)

    def test_config_change_republishes(self, database, queries):
        engine = build(database, 2, "serial")
        engine.search(queries[0], 1.0)
        first = engine._published
        engine.config = engine.config.replace(verify=False)
        result = engine.search(queries[0], 1.0)
        assert engine._published is not first
        assert result.answer_ids == [] and result.candidate_ids


# ----------------------------------------------------------------------
# stale items are refused
# ----------------------------------------------------------------------
class TestStaleItems:
    @pytest.fixture()
    def item(self, database, queries):
        engine = build(database, 2, "serial")
        engine.search(queries[0], 1.0)
        published = engine._published
        item = {
            "token": published.token,
            "shard": 0,
            "generation": published.generation,
            "queries": [queries[0]],
            "plans": [None],
            "sigma": 1.0,
            "verify": True,
        }
        return engine, item

    def test_matching_item_answers(self, item):
        engine, item = item
        (result,) = _shard_task(item)
        assert set(result.answer_ids) <= set(engine.database.graph_ids())
        assert all(graph_id % 2 == 0 for graph_id in result.answer_ids)

    def test_other_generation_raises(self, item):
        _, item = item
        with pytest.raises(StaleShardStateError, match="generation"):
            _shard_task(dict(item, generation=item["generation"] + 1))

    def test_unknown_token_raises(self, item):
        _, item = item
        with pytest.raises(StaleShardStateError, match="holds none"):
            _shard_task(dict(item, token=-1))

    def test_write_retires_the_publication(self, item, additions):
        engine, item = item
        engine.add_graphs(additions[:1])
        engine.search(item["queries"][0], 1.0)
        assert engine._published.token != item["token"]
        with pytest.raises(StaleShardStateError):
            _shard_task(item)

    def test_engine_copy_never_shares_a_publication(self, item, queries):
        engine, item = item
        twin = copy.deepcopy(engine)
        assert twin._published is None
        twin.search(queries[0], 1.0)
        assert twin._published.token != item["token"]
        assert _shard_task(item)  # the original's publication still stands


# ----------------------------------------------------------------------
# what a scatter ships
# ----------------------------------------------------------------------
class _ShardFlagger(pickle.Pickler):
    """Pickles normally; records every shard-sized object it meets."""

    SHARD_TYPES = (
        Engine,
        FragmentIndex,
        ShardedFragmentIndex,
        GraphDatabase,
        ShardDatabaseView,
        SearchStrategy,
    )

    def __init__(self, file):
        super().__init__(file, pickle.HIGHEST_PROTOCOL)
        self.flagged = []

    def persistent_id(self, obj):
        if isinstance(obj, self.SHARD_TYPES):
            self.flagged.append(type(obj).__name__)
        return None


@needs_fork
def test_scatter_items_carry_no_shard(database, queries, monkeypatch):
    shipped = []
    original = ProcessExecutor.map_counted

    def recording(self, task, items, sink=None):
        items = list(items)
        shipped.append((task, items))
        return original(self, task, items, sink)

    monkeypatch.setattr(ProcessExecutor, "map_counted", recording)
    sharded = build(database, 4)
    sharded.search_many(queries, 1.0)
    sharded.search(queries[0], 2.0)
    # one shard: each worker takes a contiguous run of the batch
    unsharded = build(database, 1)
    unsharded.search_many(queries, 1.0, workers=2, executor="process")
    assert [len(items) for _, items in shipped] == [4, 4, 2]
    for task, items in shipped:
        assert task is _shard_task
        for item in items:
            flagger = _ShardFlagger(io.BytesIO())
            flagger.dump((task, item))
            assert flagger.flagged == []
    for engine in (sharded, unsharded):
        assert engine.index.counters.get("exec.process_fallbacks") == 0


# ----------------------------------------------------------------------
# fork safety: locks held by another thread at the fork
# ----------------------------------------------------------------------
def _global_lock(engine):
    return GLOBAL_COUNTERS._lock


def _shard_counter_lock(engine):
    return engine.index.shards[0].counters._lock


def _shard_cache_lock(engine):
    return engine.index.shards[0].distance_cache._lock


@needs_fork
@pytest.mark.parametrize(
    "lock_of", [_global_lock, _shard_counter_lock, _shard_cache_lock]
)
def test_fork_while_another_thread_holds_a_lock(
    database, queries, monkeypatch, lock_of
):
    """A per-call process scatter forks while a helper thread holds a lock
    the workers use; the workers must not inherit it held."""
    engine = build(database, 2)
    lock = lock_of(engine)
    forks = []  # (held, release) events of every forking call

    def holder(held, release):
        with lock:
            held.set()
            release.wait(timeout=120)

    original = ProcessExecutor._pooled_outcomes

    def forking_while_held(self, *args):
        held, release = threading.Event(), threading.Event()
        forks.append((held, release))
        threading.Thread(target=holder, args=(held, release), daemon=True).start()
        held.wait(timeout=30)
        try:
            return original(self, *args)  # forks with the lock held
        finally:
            release.set()

    monkeypatch.setattr(ProcessExecutor, "_pooled_outcomes", forking_while_held)
    outcome = {}

    def scatter():
        outcome["results"] = [engine.search(query, 1.0) for query in queries]

    runner = threading.Thread(target=scatter, daemon=True)
    runner.start()
    runner.join(timeout=60)
    for _, release in forks:
        release.set()
    assert not runner.is_alive(), "scatter hung on a lock inherited at fork"
    assert len(forks) == len(queries)
    assert all(held.is_set() for held, _ in forks)
    for query, result in zip(queries, outcome["results"]):
        assert answers(result) == oracle_answers(
            engine.database, engine.measure, query, 1.0
        )
    assert engine.index.counters.get("exec.process_fallbacks") == 0


# ----------------------------------------------------------------------
# a worker killed mid-scatter
# ----------------------------------------------------------------------
#: ``(parent pid, marker path)`` while a kill is armed; forked workers
#: inherit it
_KILL = None


def _killing_shard_task(item):
    """:func:`_shard_task`, except that the first forked worker to reach
    shard 0 SIGKILLs itself (the marker file makes it happen once)."""
    if _KILL is not None and item["shard"] == 0 and os.getpid() != _KILL[0]:
        try:
            os.close(os.open(_KILL[1], os.O_CREAT | os.O_EXCL))
        except FileExistsError:
            pass
        else:
            os.kill(os.getpid(), signal.SIGKILL)
    return _shard_task(item)


def _search_within(engine, query, timeout=60):
    """``engine.search`` in a helper thread, failing instead of hanging."""
    outcome = {}

    def run():
        outcome["result"] = engine.search(query, 1.0)

    runner = threading.Thread(target=run, daemon=True)
    runner.start()
    runner.join(timeout=timeout)
    assert not runner.is_alive(), "scatter hung after a worker was killed"
    return outcome["result"]


@needs_fork
@pytest.mark.parametrize("started", [False, True], ids=["per-call", "resident"])
def test_killed_worker_mid_scatter(
    database, queries, started, tmp_path, monkeypatch, fork_counter
):
    """One of two forked workers dies by SIGKILL while it runs a shard.

    The broken pool is counted in ``exec.process_fallbacks`` and the whole
    scatter reruns — serially when the pool was per call, on a fresh
    per-call pool when it was the started engine's resident one — so the
    answers still equal the oracle.  The next scatter forks a pool again,
    and that pool works.  On the started engine that pool is the new
    resident one, so a third scatter forks nothing.
    """
    engine = build(database, 2)
    marker = tmp_path / "killed"
    monkeypatch.setattr(
        sys.modules[__name__], "_KILL", (os.getpid(), str(marker))
    )
    monkeypatch.setattr(repro.engine.facade, "_shard_task", _killing_shard_task)
    fallbacks = engine.index.counters
    if started:
        engine.start(result_cache_size=0)
    try:
        first = _search_within(engine, queries[0])
        assert marker.exists(), "no worker was killed"
        assert answers(first) == oracle_answers(
            engine.database, engine.measure, queries[0], 1.0
        )
        assert fallbacks.get("exec.process_fallbacks") == 1
        # per call: the killed pool, then the serial rerun; resident: the
        # resident pool, then the per-call rerun
        assert len(fork_counter) == (2 if started else 1)

        forks_before = len(fork_counter)
        second = _search_within(engine, queries[1])
        assert len(fork_counter) == forks_before + 1
        assert fallbacks.get("exec.process_fallbacks") == 1
        assert answers(second) == oracle_answers(
            engine.database, engine.measure, queries[1], 1.0
        )

        # per call: every scatter forks its own pool; resident: the pool
        # forked by the second scatter is resident again and serves this one
        forks_before = len(fork_counter)
        third = _search_within(engine, queries[0])
        assert len(fork_counter) == forks_before + (0 if started else 1)
        assert fallbacks.get("exec.process_fallbacks") == 1
        assert answers(third) == answers(first)
    finally:
        engine.close()
