#!/usr/bin/env python
"""Benchmark gate: work counters, oracle answers and speed floors, for CI.

The **oracle** is NaiveSearch configured with ``verifier="legacy"`` and
``verify_kernel="legacy"``: every live graph verified by the recursive
reference superposition search, with no filtering, caches or array kernel.

The filtering workloads behind ``test_bench_pruning_cost`` (Q16 filtering
under several thresholds) and ``test_bench_figure10`` (Q24 filtering) gate
on **exact, hardware-independent work counters**: the range queries the
planner issues (``plan.range_queries``) and the candidates the filter
keeps (``filter.candidates``) must equal the checked-in baseline values,
and full searches over the same queries must answer exactly like the
oracle.

A **verification workload** (``figure10_verify``: full figure10 searches,
filter *and* verify) runs twice: once with the oracle's verification
configuration (``verifier="legacy"``, ``verify_kernel="legacy"``) and once
with the defaults (the bounded verifier of ``repro.search.verify`` over the
array kernel, with its distance cache).  Answers must be byte-identical and
the verify-phase speedup must meet ``--min-verify-speedup``.

It additionally runs an **incremental-update workload**: a churn batch of
adds + removes applied through ``FragmentIndex.add_graph`` /
``remove_graph`` versus a from-scratch rebuild over the same final
database, with byte-identical search answers required from both indexes.

Two **sharding workloads** protect the sharded engine (PR 5):

* ``sharded_search`` — full scatter-gather searches on a 4-shard engine
  with the process executor versus the same searches on a 1-shard serial
  engine (both cold-cache); answer ids and distances must be byte-identical
  and the speedup must meet ``--min-sharded-speedup`` (default 1.5×).
* ``sharded_build`` — a 4-shard build in 4 worker processes (enumeration
  *and* store insertion parallelized) versus the serial unsharded build;
  the parallel-built shards must serialize byte-identically to serially
  built ones and the speedup must meet ``--min-sharded-build-speedup``
  (default 1.0×).

Both sharding speedup floors (and their baseline regression checks) are
enforced only on machines with at least 2 CPU cores — a single-core runner
cannot exhibit process parallelism — but the byte-identity requirements
hold everywhere.

A **serving workload** (PR 6) protects the always-on serving subsystem:
``serving_throughput`` starts the engine in resident mode behind an
in-process :class:`repro.serve.QueryServer` and drives it with 4 concurrent
clients, twice — a **cold** pass (every query computed) and a **warm** pass
replaying the same queries against the generation-keyed result cache.  Both
passes must answer byte-identically to direct uncached ``Engine.search``
calls, and the warm pass must be at least ``--min-serving-speedup``
(default 5×) faster than the cold one.  A cache hit needs no parallel
hardware, so this floor is enforced on every machine.

A **mixed serving workload** (PR 8) protects admission control:
``serving_mixed`` storms a tiny-queue (``serve_max_queue``-bounded) server
with concurrent search bursts plus a mutating ``update`` client, and gates
on hardware-independent invariants instead of a speedup — every submitted
request is answered or reported shed (none lost), the queue high-water
mark stays within the bound, and the final database/index state and a
post-storm query pass are byte-identical to a *serial* replay of the same
mutation batches on a control engine.

A **kernel workload** (PR 10) protects the array superposition kernel:
``verify_kernel`` answers the figure10 query set cold — the index caches
are cleared before every search, so each search pays its full verification
cost — once in the oracle's verification configuration (legacy verifier,
recursive search) and once in the default one (bounded verifier, array
kernel).  Answer ids and exact distances must be
byte-identical, a 4-shard engine running the kernel must answer
byte-identically too, and the verify-phase speedup must meet
``--min-kernel-speedup`` (default 3×).  The per-path
``verify.nodes_expanded`` counters are recorded so pruning power stays
observable in the history file.

A **planner workload** (PR 9) protects plan-once scatter-gather:
``global_plan`` answers the same full searches on a 4-shard serial engine
and a 1-shard engine and compares **total filter-phase work** (summed
``filter.seconds`` + ``plan.seconds`` across all shards).  With the global
planner shipping one plan to every shard, the 4-shard total must stay
within ``--max-plan-ratio`` (default 1.3×) of the single-shard cost,
answers must be byte-identical across topologies, and a warm repeat pass
must be served from the plan cache (``plan.cache_hits`` observed).  Work
totals are executor-independent, so this gate holds on single-core
machines too.

It asserts **identical answer ids and distances** on every workload,
records the speedups, work counters and counter deltas into the ``gate``
section of ``benchmarks/history/BENCH_pr10.json``, and exits non-zero when

* answer sets differ from the oracle or between the compared paths,
* a filter workload's ``plan.range_queries`` or ``filter.candidates``
  differs from the baseline value (``--check-baseline``),
* the verify-phase speedup is below ``--min-verify-speedup`` (default
  2.5×),
* the cold kernel verify-phase speedup is below ``--min-kernel-speedup``
  (default 3×),
* the incremental-update speedup over a rebuild is below
  ``--min-update-speedup`` (default 2×),
* the warm-over-cold serving speedup is below ``--min-serving-speedup``,
* a sharding floor is violated on a multi-core machine, or
* any workload regresses more than ``--tolerance`` (default 20%) against
  the checked-in baseline (``--check-baseline benchmarks/BENCH_baseline.json``).

Usage::

    python benchmarks/perf_gate.py --quick --check-baseline benchmarks/BENCH_baseline.json
    python benchmarks/perf_gate.py --quick --write-baseline benchmarks/BENCH_baseline.json
"""

import argparse
import asyncio
import copy
import hashlib
import json
import os
import sys
import time
from pathlib import Path

# Make the script runnable without an installed package (repo checkout).
_REPO_ROOT = Path(__file__).resolve().parent.parent
if str(_REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(_REPO_ROOT / "src"))
if str(_REPO_ROOT / "benchmarks") not in sys.path:
    sys.path.insert(0, str(_REPO_ROOT / "benchmarks"))

from repro.core.canonical import structure_code_cache  # noqa: E402
from repro.datasets.generator import generate_chemical_database  # noqa: E402
from repro.engine import Engine  # noqa: E402
from repro.experiments import build_environment  # noqa: E402
from repro.index.fragment_index import FragmentIndex  # noqa: E402
from repro.index.persistence import index_to_dict  # noqa: E402
from repro.index.sharded import ShardedFragmentIndex  # noqa: E402
from repro.perf import GLOBAL_COUNTERS  # noqa: E402
from repro.search.baselines import NaiveSearch  # noqa: E402
from repro.search.pis import PISearch  # noqa: E402
from repro.serve import QueryServer, ServeOverloadedError  # noqa: E402

import bench_common  # noqa: E402
from bench_common import full_bench_config, quick_bench_config  # noqa: E402


#: the counter-gated filtering workloads: (name, query edges, thresholds, rounds)
WORKLOADS = (
    ("pruning_cost", 16, (1.0, 2.0, 3.0), 2),
    ("figure10", 24, (1.0, 3.0, 5.0), 2),
)

#: the verification workload: full searches on the figure10 query set
VERIFY_WORKLOAD = ("figure10_verify", 24, (1.0, 3.0, 5.0), 2)

#: the kernel workload: (name, query edges, sigmas, rounds, shard count)
KERNEL_WORKLOAD = ("verify_kernel", 24, (1.0, 3.0, 5.0), 2, 4)

#: the incremental-update workload: (name, churn fraction, query edges, sigmas)
UPDATE_WORKLOAD = ("incremental_update", 0.1, 16, (1.0, 2.0))

#: the sharded-search workload: (name, query edges, sigmas, shard count)
SHARDED_WORKLOAD = ("sharded_search", 24, (1.0, 3.0, 5.0), 4)

#: the sharded-build workload: (name, shard count)
SHARDED_BUILD_WORKLOAD = ("sharded_build", 4)

#: the serving workload: (name, query edges, sigma, concurrent clients)
SERVING_WORKLOAD = ("serving_throughput", 16, 2.0, 4)

#: the mixed read/write serving workload:
#: (name, query edges, sigma, search clients, update batches, max queue)
SERVING_MIXED_WORKLOAD = ("serving_mixed", 12, 2.0, 4, 3, 3)

#: the global-planner workload: (name, query edges, sigmas, shard count,
#: query count).  The batch is deliberately larger than the quick-mode
#: query sets: planning cost amortizes over the fragment overlap between
#: queries (the serving-shaped workload the planner exists for), and a
#: 4-query batch would mostly measure per-shard range-walk constants.
GLOBAL_PLAN_WORKLOAD = ("global_plan", 16, (1.0, 2.0), 4, 32)

#: workloads whose *speedup* floors need real parallel hardware; their
#: byte-identity checks are enforced everywhere regardless
PARALLEL_WORKLOADS = frozenset({"sharded_search", "sharded_build"})

#: the exact work counters the filtering workloads are gated on
GATED_COUNTERS = ("plan.range_queries", "filter.candidates")

#: verification keyword arguments of the oracle configuration
ORACLE_VERIFICATION = {"verifier": "legacy", "verify_kernel": "legacy"}


def _clear_caches(environment) -> None:
    environment.index.clear_caches()
    structure_code_cache().clear()


def _run_filters(environment, queries, sigmas, rounds):
    """Run the PIS filtering phase over the workload; return (seconds, candidates)."""
    pis = PISearch(environment.index, environment.database)
    candidates = []
    start = time.perf_counter()
    for _ in range(rounds):
        for query in queries:
            for sigma in sigmas:
                candidates.append(pis.candidates(query, sigma))
    return time.perf_counter() - start, candidates


def _run_searches(
    environment, queries, sigmas, rounds, strategy=None, cold=False, **params
):
    """Run full searches (filter + verify) over the workload.

    ``strategy`` defaults to a PIS search over the environment's index,
    built with ``params`` (e.g. :data:`ORACLE_VERIFICATION`); ``cold``
    clears the index caches before every search, so each one pays its full
    verification cost.  Returns ``(verify_seconds, total_seconds,
    answers)`` where ``answers`` is a JSON-comparable payload of every
    search's answer ids and exact distances, in execution order.
    """
    pis = strategy or PISearch(environment.database, index=environment.index, **params)
    answers = []
    verify_seconds = 0.0
    start = time.perf_counter()
    for _ in range(rounds):
        for query in queries:
            for sigma in sigmas:
                if cold:
                    environment.index.clear_caches()
                result = pis.search(query, sigma)
                verify_seconds += result.verify_seconds
                answers.append(
                    [
                        result.answer_ids,
                        {
                            str(graph_id): result.answer_distances[graph_id]
                            for graph_id in result.answer_ids
                        },
                    ]
                )
    return verify_seconds, time.perf_counter() - start, answers


def run_verify_workload(environment, name, query_edges, sigmas, rounds):
    """Measure the verification phase: oracle configuration vs default.

    The speedup compares summed verify-phase seconds (``legacy`` = the
    oracle's sequential loop over the recursive search, ``optimized`` = the
    bounded verifier with ordering, short-circuit, memoized distances,
    early exit and the array kernel); the answer ids and distances of every
    search must be byte-identical.
    """
    queries = environment.workload.sample_queries(
        num_edges=query_edges, count=environment.config.queries_per_set
    )

    _clear_caches(environment)
    legacy_verify, legacy_total, legacy_answers = _run_searches(
        environment, queries, sigmas, rounds, **ORACLE_VERIFICATION
    )

    _clear_caches(environment)
    before = GLOBAL_COUNTERS.snapshot()
    optimized_verify, optimized_total, optimized_answers = _run_searches(
        environment, queries, sigmas, rounds
    )
    counters = GLOBAL_COUNTERS.delta(before)

    identical = legacy_answers == optimized_answers
    blob = json.dumps(optimized_answers).encode("utf-8")
    record = {
        "query_edges": query_edges,
        "num_queries": len(queries),
        "sigmas": list(sigmas),
        "rounds": rounds,
        "legacy_verify_seconds": round(legacy_verify, 6),
        "optimized_verify_seconds": round(optimized_verify, 6),
        "legacy_total_seconds": round(legacy_total, 6),
        "optimized_total_seconds": round(optimized_total, 6),
        "speedup": round(legacy_verify / max(optimized_verify, 1e-9), 3),
        "answers_identical": identical,
        "answers_sha256": hashlib.sha256(blob).hexdigest(),
        "counters": {key: round(value, 6) for key, value in sorted(counters.items())},
    }
    print(
        f"{name}: legacy verify {legacy_verify:.3f}s, optimized verify "
        f"{optimized_verify:.3f}s -> {record['speedup']:.2f}x speedup, "
        f"identical={identical}"
    )
    return record


def run_kernel_workload(environment, name, query_edges, sigmas, rounds, num_shards):
    """Measure the array superposition kernel against the recursive search.

    Unlike :func:`run_verify_workload`, **both** sides run cold: the index
    caches are cleared before every search, so each side pays its full
    branch-and-bound cost on every search and the speedup isolates the
    kernel (plus the bounded verifier it feeds) instead of cache reuse.

    * **legacy** — the oracle's verification configuration: the recursive
      reference search under the sequential legacy verifier.
    * **kernel** — the default configuration: the array kernel under the
      bounded verifier.

    Answer ids and exact distances must be byte-identical, and a 4-shard
    engine running the kernel must scatter-gather to the same answers.
    The ``verify.nodes_expanded`` counter deltas of both paths are
    recorded so the pruning behaviour of the suffix bounds stays visible.
    """
    queries = environment.workload.sample_queries(
        num_edges=query_edges, count=environment.config.queries_per_set
    )

    _clear_caches(environment)
    before = GLOBAL_COUNTERS.snapshot()
    legacy_verify, legacy_total, legacy_answers = _run_searches(
        environment, queries, sigmas, rounds, cold=True, **ORACLE_VERIFICATION
    )
    legacy_counters = GLOBAL_COUNTERS.delta(before)

    _clear_caches(environment)
    before = GLOBAL_COUNTERS.snapshot()
    kernel_verify, kernel_total, kernel_answers = _run_searches(
        environment, queries, sigmas, rounds, cold=True
    )
    kernel_counters = GLOBAL_COUNTERS.delta(before)

    identical = legacy_answers == kernel_answers

    # Sharded byte-identity: the same searches on a 4-shard engine with the
    # kernel forced on must merge to the identical answer payload.
    sharded_index = ShardedFragmentIndex.build(
        environment.database,
        environment.features,
        environment.measure,
        num_shards=num_shards,
    )
    sharded_engine = Engine.from_index(
        environment.database, sharded_index, executor="serial", kernel="array"
    )
    sharded_answers = []
    for _ in range(rounds):
        for query in queries:
            for sigma in sigmas:
                result = sharded_engine.search(query, sigma)
                sharded_answers.append(
                    [
                        result.answer_ids,
                        {
                            str(graph_id): result.answer_distances[graph_id]
                            for graph_id in result.answer_ids
                        },
                    ]
                )
    sharded_identical = sharded_answers == kernel_answers

    blob = json.dumps(kernel_answers).encode("utf-8")
    record = {
        "query_edges": query_edges,
        "num_queries": len(queries),
        "sigmas": list(sigmas),
        "rounds": rounds,
        "num_shards": num_shards,
        "legacy_verify_seconds": round(legacy_verify, 6),
        "kernel_verify_seconds": round(kernel_verify, 6),
        "legacy_total_seconds": round(legacy_total, 6),
        "kernel_total_seconds": round(kernel_total, 6),
        "speedup": round(legacy_verify / max(kernel_verify, 1e-9), 3),
        "legacy_nodes_expanded": legacy_counters.get("verify.nodes_expanded", 0.0),
        "kernel_nodes_expanded": kernel_counters.get("verify.nodes_expanded", 0.0),
        "answers_identical": identical,
        "sharded_answers_identical": sharded_identical,
        "answers_sha256": hashlib.sha256(blob).hexdigest(),
    }
    print(
        f"{name}: legacy verify {legacy_verify:.3f}s, kernel verify "
        f"{kernel_verify:.3f}s -> {record['speedup']:.2f}x speedup, "
        f"identical={identical}, sharded-identical={sharded_identical}, "
        f"nodes {legacy_counters.get('verify.nodes_expanded', 0.0):.0f} -> "
        f"{kernel_counters.get('verify.nodes_expanded', 0.0):.0f}"
    )
    return record


def run_update_workload(environment, name, churn, query_edges, sigmas):
    """Measure a batch of adds+removes applied incrementally vs a rebuild.

    A churn batch (``churn`` of the database removed, the same number of
    fresh graphs added) is applied two ways to copies of the environment's
    database and index:

    * **incremental** — ``remove_graph`` / ``add_graph`` on the live index
      (the update subsystem this gate protects), and
    * **rebuild** — a from-scratch ``FragmentIndex.build`` over the final
      database, which is what serving the same churn used to cost.

    The speedup is ``rebuild_seconds / incremental_seconds``; the two
    indexes must answer a probe query set with byte-identical answer ids
    and exact distances.
    """
    database = copy.deepcopy(environment.database)
    index = copy.deepcopy(environment.index)
    batch = max(2, int(len(database) * churn))
    victims = list(database.graph_ids())[::2][:batch]
    newcomers = list(generate_chemical_database(batch, seed=4242))

    start = time.perf_counter()
    for graph_id in victims:
        database.remove(graph_id)
        index.remove_graph(graph_id)
    for graph in newcomers:
        index.add_graph(database.add(graph), graph)
    incremental_seconds = time.perf_counter() - start

    start = time.perf_counter()
    rebuilt = FragmentIndex(
        environment.features,
        environment.measure,
    ).build(database)
    rebuild_seconds = time.perf_counter() - start

    queries = environment.workload.sample_queries(
        num_edges=query_edges, count=min(2, environment.config.queries_per_set)
    )
    payloads = []
    for active in (index, rebuilt):
        active.clear_caches()
        pis = PISearch(database, index=active)
        payload = []
        for query in queries:
            for sigma in sigmas:
                result = pis.search(query, sigma)
                payload.append(
                    [
                        result.answer_ids,
                        {
                            str(graph_id): result.answer_distances[graph_id]
                            for graph_id in result.answer_ids
                        },
                    ]
                )
        payloads.append(payload)
    identical = payloads[0] == payloads[1]
    blob = json.dumps(payloads[0]).encode("utf-8")
    record = {
        "database_size": len(database),
        "batch_adds": len(newcomers),
        "batch_removes": len(victims),
        "incremental_seconds": round(incremental_seconds, 6),
        "rebuild_seconds": round(rebuild_seconds, 6),
        "speedup": round(rebuild_seconds / max(incremental_seconds, 1e-9), 3),
        "answers_identical": identical,
        "answers_sha256": hashlib.sha256(blob).hexdigest(),
    }
    print(
        f"{name}: rebuild {rebuild_seconds:.3f}s, incremental "
        f"{incremental_seconds:.3f}s -> {record['speedup']:.2f}x speedup, "
        f"identical={identical}"
    )
    return record


def _answers_payload(batch):
    """JSON-comparable answer ids + exact distances of one search batch."""
    return [
        [
            result.answer_ids,
            {
                str(graph_id): result.answer_distances[graph_id]
                for graph_id in result.answer_ids
            },
        ]
        for result in batch
    ]


def run_sharded_workload(environment, name, query_edges, sigmas, num_shards):
    """Measure 4-shard process scatter-gather vs 1-shard serial search.

    Both engines answer the same full searches (filter *and* verify) over
    the same database; every ``search_many`` call starts cold (all memo
    caches cleared) so neither side banks cross-call cache reuse the other
    cannot have.  Answer ids and exact distances must be byte-identical —
    the sharded engine is required to be indistinguishable from the
    unsharded one in everything but wall clock.
    """
    queries = environment.workload.sample_queries(
        num_edges=query_edges, count=environment.config.queries_per_set
    )
    serial_engine = Engine.from_index(environment.database, environment.index)
    sharded_index = ShardedFragmentIndex.build(
        environment.database,
        environment.features,
        environment.measure,
        num_shards=num_shards,
    )
    sharded_engine = Engine.from_index(
        environment.database, sharded_index, executor="process"
    )

    serial_seconds = 0.0
    sharded_seconds = 0.0
    serial_answers = []
    sharded_answers = []
    for sigma in sigmas:
        _clear_caches(environment)
        start = time.perf_counter()
        batch = serial_engine.search_many(queries, sigma, executor="serial")
        serial_seconds += time.perf_counter() - start
        serial_answers.extend(_answers_payload(batch))

        sharded_index.clear_caches()
        structure_code_cache().clear()
        start = time.perf_counter()
        batch = sharded_engine.search_many(queries, sigma, executor="process")
        sharded_seconds += time.perf_counter() - start
        sharded_answers.extend(_answers_payload(batch))

    identical = serial_answers == sharded_answers
    blob = json.dumps(sharded_answers).encode("utf-8")
    record = {
        "query_edges": query_edges,
        "num_queries": len(queries),
        "sigmas": list(sigmas),
        "num_shards": num_shards,
        "cpu_count": os.cpu_count() or 1,
        "serial_seconds": round(serial_seconds, 6),
        "sharded_seconds": round(sharded_seconds, 6),
        "speedup": round(serial_seconds / max(sharded_seconds, 1e-9), 3),
        "answers_identical": identical,
        "answers_sha256": hashlib.sha256(blob).hexdigest(),
    }
    print(
        f"{name}: 1-shard serial {serial_seconds:.3f}s, {num_shards}-shard "
        f"process {sharded_seconds:.3f}s -> {record['speedup']:.2f}x speedup, "
        f"identical={identical}"
    )
    return record


def run_sharded_build_workload(environment, name, num_shards):
    """Measure a parallel 4-shard build vs the serial unsharded build.

    The parallel build constructs whole shards — fragment enumeration *and*
    store insertion — in worker processes; it must serialize
    byte-identically to a serially built sharded index, so the speedup can
    never come from doing different work.
    """
    database = environment.database
    features = environment.features
    measure = environment.measure

    start = time.perf_counter()
    FragmentIndex(features, measure).build(database)
    serial_seconds = time.perf_counter() - start

    start = time.perf_counter()
    parallel_sharded = ShardedFragmentIndex.build(
        database,
        features,
        measure,
        num_shards=num_shards,
        workers=num_shards,
    )
    parallel_seconds = time.perf_counter() - start

    serial_sharded = ShardedFragmentIndex.build(
        database,
        features,
        measure,
        num_shards=num_shards,
    )
    parallel_payload = json.dumps(index_to_dict(parallel_sharded)).encode("utf-8")
    serial_payload = json.dumps(index_to_dict(serial_sharded)).encode("utf-8")
    identical = parallel_payload == serial_payload
    record = {
        "database_size": len(database),
        "num_shards": num_shards,
        "cpu_count": os.cpu_count() or 1,
        "serial_build_seconds": round(serial_seconds, 6),
        "parallel_sharded_seconds": round(parallel_seconds, 6),
        "speedup": round(serial_seconds / max(parallel_seconds, 1e-9), 3),
        "shards_identical": identical,
        "shards_sha256": hashlib.sha256(parallel_payload).hexdigest(),
    }
    print(
        f"{name}: serial build {serial_seconds:.3f}s, {num_shards}-shard "
        f"parallel build {parallel_seconds:.3f}s -> "
        f"{record['speedup']:.2f}x speedup, identical={identical}"
    )
    return record


def run_serving_workload(environment, name, query_edges, sigma, clients):
    """Measure the serving front door: cold compute vs warm result cache.

    An engine over the environment's index is started in resident mode
    behind an in-process :class:`repro.serve.QueryServer`; ``clients``
    concurrent client tasks each submit a disjoint slice of the query set
    (so the cold pass computes every query exactly once), then replay the
    identical slice in a warm pass that is answered entirely from the
    generation-keyed result cache.  Both passes must be byte-identical —
    answer ids and exact distances — to direct uncached ``Engine.search``
    calls, and the warm pass must beat the cold one by the gate's
    ``--min-serving-speedup``.  The floor is hardware-independent: a cache
    hit is an O(1) lookup, not a parallel computation.
    """
    queries = environment.workload.sample_queries(
        num_edges=query_edges, count=environment.config.queries_per_set
    )
    engine = Engine.from_index(environment.database, environment.index)

    _clear_caches(environment)
    reference = _answers_payload([engine.search(query, sigma) for query in queries])

    # Disjoint per-client slices: every cold submit is a cache miss, every
    # warm submit a hit, so the speedup measures exactly the cached path.
    slices = [queries[position::clients] for position in range(clients)]

    async def drive(server):
        async def one_client(slice_):
            return [await server.submit(query, sigma) for query in slice_]

        start = time.perf_counter()
        gathered = await asyncio.gather(
            *(one_client(slice_) for slice_ in slices)
        )
        elapsed = time.perf_counter() - start
        # Re-interleave the slices back into query order.
        results = [None] * len(queries)
        for offset, chunk in enumerate(gathered):
            for position, result in enumerate(chunk):
                results[offset + position * clients] = result
        return elapsed, results

    async def run():
        server = QueryServer(engine, batch_window_ms=1.0)
        async with server:
            _clear_caches(environment)
            cold_seconds, cold_results = await drive(server)
            warm_seconds, warm_results = await drive(server)
            counters = server.counters.as_dict()
        return cold_seconds, cold_results, warm_seconds, warm_results, counters

    cold_seconds, cold_results, warm_seconds, warm_results, counters = (
        asyncio.run(run())
    )
    cold_answers = _answers_payload(cold_results)
    warm_answers = _answers_payload(warm_results)
    identical = cold_answers == reference and warm_answers == reference
    all_cached = all(result.from_cache for result in warm_results)
    blob = json.dumps(warm_answers).encode("utf-8")
    record = {
        "query_edges": query_edges,
        "num_queries": len(queries),
        "sigma": sigma,
        "clients": clients,
        "cpu_count": os.cpu_count() or 1,
        "cold_seconds": round(cold_seconds, 6),
        "warm_seconds": round(warm_seconds, 6),
        "cold_qps": round(len(queries) / max(cold_seconds, 1e-9), 3),
        "warm_qps": round(len(queries) / max(warm_seconds, 1e-9), 3),
        "speedup": round(cold_seconds / max(warm_seconds, 1e-9), 3),
        "warm_all_cached": all_cached,
        "answers_identical": identical,
        "answers_sha256": hashlib.sha256(blob).hexdigest(),
        "counters": {key: round(value, 6) for key, value in sorted(counters.items())},
    }
    print(
        f"{name}: cold {cold_seconds:.3f}s, warm {warm_seconds:.3f}s over "
        f"{clients} clients -> {record['speedup']:.2f}x speedup, "
        f"identical={identical}, all-cached={all_cached}"
    )
    return record


def run_serving_mixed_workload(
    environment, name, query_edges, sigma, clients, update_batches, max_queue
):
    """Sustained mixed read/write traffic against a *tiny-queue* server.

    ``clients`` concurrent search clients fire their query slices in
    bursts (every query of a slice submitted at once) against an
    in-process :class:`repro.serve.QueryServer` whose submission queue is
    bounded at ``max_queue`` — small enough that admission control sheds
    part of the burst — while one update client applies a deterministic
    sequence of mutation batches through :meth:`QueryServer.update`.

    The gate enforces two hardware-independent invariants instead of a
    speedup floor:

    * **shed correctness** — every submitted query is either answered or
      reported shed (``submitted == answered + shed``, ``lost == 0``),
      the server's own accepted/shed counters agree with the clients'
      tallies, and the queue high-water mark never exceeds ``max_queue``;
    * **byte identity** — after the storm, the server's database and
      index serialize byte-identically to a control engine that replayed
      the same mutation batches *serially*, and a final query pass
      answers byte-identically to fresh searches on that control engine.
    """
    queries = environment.workload.sample_queries(
        num_edges=query_edges, count=environment.config.queries_per_set
    )
    database = copy.deepcopy(environment.database)
    index = copy.deepcopy(environment.index)
    engine = Engine.from_index(database, index)
    control_database = copy.deepcopy(environment.database)
    control_index = copy.deepcopy(environment.index)
    control_engine = Engine.from_index(control_database, control_index)

    # Deterministic mutation batches: remove pairs of original ids (both
    # sides start with them), add pairs of generated graphs.  The update
    # client applies them in order, so the live engine and the serial
    # control replay see the identical mutation sequence.
    victims = sorted(environment.database.graph_ids())
    newcomers = list(
        generate_chemical_database(2 * update_batches, seed=777)
    )
    batches = [
        (
            newcomers[2 * position : 2 * position + 2],
            victims[2 * position : 2 * position + 2],
        )
        for position in range(update_batches)
    ]
    slices = [queries[position::clients] for position in range(clients)]
    rounds = 2

    async def run():
        server = QueryServer(engine, batch_window_ms=1.0, max_queue=max_queue)
        async with server:

            async def search_client(slice_):
                tally = {"submitted": 0, "answered": 0, "shed": 0}

                async def one(query):
                    try:
                        await server.submit(query, sigma)
                        tally["answered"] += 1
                    except ServeOverloadedError:
                        tally["shed"] += 1

                for _ in range(rounds):
                    tally["submitted"] += len(slice_)
                    # The whole slice at once: the burst overruns the
                    # tiny queue, so admission control must shed.
                    await asyncio.gather(*(one(query) for query in slice_))
                return tally

            async def update_client():
                for additions, removals in batches:
                    await server.update(add=additions, remove=removals)

            start = time.perf_counter()
            gathered = await asyncio.gather(
                update_client(), *(search_client(slice_) for slice_ in slices)
            )
            elapsed = time.perf_counter() - start
            # Post-storm verification pass: serial submits cannot be
            # shed, so every query has a served answer to compare.
            final_results = [
                await server.submit(query, sigma) for query in queries
            ]
            server_stats = server.stats()["server"]
        return gathered[1:], final_results, server_stats, elapsed

    tallies, final_results, server_stats, elapsed = asyncio.run(run())
    submitted = sum(tally["submitted"] for tally in tallies)
    answered = sum(tally["answered"] for tally in tallies)
    shed = sum(tally["shed"] for tally in tallies)
    lost = submitted - answered - shed

    # Serial control replay: the same mutation batches, in the same
    # order, with no concurrency anywhere.
    for additions, removals in batches:
        control_engine.remove_graphs(removals)
        control_engine.add_graphs(additions)
    control_results = [
        control_engine.search(query, sigma) for query in queries
    ]
    final_answers = _answers_payload(final_results)
    answers_identical = final_answers == _answers_payload(control_results)
    live_state = json.dumps(
        [database.to_dict(), index_to_dict(index)]
    ).encode("utf-8")
    control_state = json.dumps(
        [control_database.to_dict(), index_to_dict(control_index)]
    ).encode("utf-8")
    state_identical = live_state == control_state
    counters_agree = (
        server_stats["shed"] == shed
        and server_stats["accepted"] == answered + len(queries)
    )

    record = {
        "query_edges": query_edges,
        "num_queries": len(queries),
        "sigma": sigma,
        "clients": clients,
        "rounds": rounds,
        "update_batches": update_batches,
        "max_queue": max_queue,
        "elapsed_seconds": round(elapsed, 6),
        "throughput_qps": round(answered / max(elapsed, 1e-9), 3),
        "submitted": submitted,
        "answered": answered,
        "shed": shed,
        "lost": lost,
        "queue_high_water": server_stats["queue_high_water"],
        "server_counters_agree": counters_agree,
        "final_state_identical": state_identical,
        "answers_identical": answers_identical,
        "answers_sha256": hashlib.sha256(
            json.dumps(final_answers).encode("utf-8")
        ).hexdigest(),
        "state_sha256": hashlib.sha256(live_state).hexdigest(),
    }
    print(
        f"{name}: {submitted} submitted = {answered} answered + {shed} shed "
        f"({lost} lost), high-water {record['queue_high_water']}/{max_queue}, "
        f"state-identical={state_identical}, "
        f"answers-identical={answers_identical}"
    )
    return record


def run_global_plan_workload(
    environment, name, query_edges, sigmas, num_shards, num_queries
):
    """Measure total filter-phase work: 4-shard plan-once vs 1-shard.

    Both engines run the same full searches on the serial executor, so the
    comparison is **work**, not wall-clock parallelism: the sum of
    ``filter.seconds`` (per-shard plan execution) and ``plan.seconds``
    (the one global planning pass) across everything that ran, taking
    the best of three paired cold rounds.  With the
    global planner shipping one plan to every shard task, the 4-shard
    total must stay within ``--max-plan-ratio`` of the single-shard cost.
    Answers must be byte-identical across topologies, and a warm repeat of
    the planned sharded batch must hit the plan cache.
    """
    queries = environment.workload.sample_queries(
        num_edges=query_edges, count=num_queries
    )
    single_engine = Engine.from_index(
        environment.database, environment.index, executor="serial"
    )
    sharded_index = ShardedFragmentIndex.build(
        environment.database,
        environment.features,
        environment.measure,
        num_shards=num_shards,
    )
    sharded_engine = Engine.from_index(
        environment.database, sharded_index, executor="serial"
    )

    def _filter_work(delta):
        return delta.get("filter.seconds", 0.0) + delta.get("plan.seconds", 0.0)

    def _measure(engine, index):
        index.clear_caches()
        structure_code_cache().clear()
        if engine.planner is not None:
            # Plans must be recomputed each measurement — a cached plan
            # would reduce the measurement to execution only.
            engine.planner.clear_cache()
        before = GLOBAL_COUNTERS.snapshot()
        answers = []
        for sigma in sigmas:
            batch = engine.search_many(queries, sigma, executor="serial")
            answers.extend(_answers_payload(batch))
        return _filter_work(GLOBAL_COUNTERS.delta(before)), answers

    # Three back-to-back (single, sharded) rounds, keeping the round with
    # the lowest ratio.  Filter work is a few hundred ms in quick mode,
    # where one scheduler hiccup can swing the ratio past the gate; noise
    # within a round hits both topologies alike and cancels in the ratio,
    # so the min over rounds discards the hiccups without favouring
    # either topology.
    rounds = []
    for _ in range(3):
        single_work, single_answers = _measure(single_engine, environment.index)
        sharded_work, sharded_answers = _measure(sharded_engine, sharded_index)
        ratio = sharded_work / max(single_work, 1e-9)
        rounds.append(
            (ratio, single_work, sharded_work, single_answers, sharded_answers)
        )
    plan_ratio, single_work, sharded_work, single_answers, sharded_answers = min(
        rounds, key=lambda round_: round_[0]
    )
    identical = all(
        round_[3] == round_[4] == single_answers for round_ in rounds
    )

    # Warm repeat: the plans are already cached, so the planner must serve
    # them without recomputing (and the answers must not change).
    before = GLOBAL_COUNTERS.snapshot()
    warm_answers = []
    for sigma in sigmas:
        batch = sharded_engine.search_many(queries, sigma, executor="serial")
        warm_answers.extend(_answers_payload(batch))
    warm_delta = GLOBAL_COUNTERS.delta(before)
    warm_cache_hits = warm_delta.get("plan.cache_hits", 0.0)
    warm_identical = warm_answers == sharded_answers

    blob = json.dumps(sharded_answers).encode("utf-8")
    record = {
        "query_edges": query_edges,
        "num_queries": len(queries),
        "sigmas": list(sigmas),
        "num_shards": num_shards,
        "cpu_count": os.cpu_count() or 1,
        "single_filter_seconds": round(single_work, 6),
        "sharded_filter_seconds": round(sharded_work, 6),
        "plan_ratio": round(plan_ratio, 3),
        "warm_plan_cache_hits": warm_cache_hits,
        "warm_identical": warm_identical,
        "answers_identical": identical,
        "answers_sha256": hashlib.sha256(blob).hexdigest(),
    }
    print(
        f"{name}: 1-shard filter work {single_work:.3f}s, {num_shards}-shard "
        f"{sharded_work:.3f}s -> {plan_ratio:.2f}x ratio, "
        f"warm plan hits {warm_cache_hits:.0f}, "
        f"identical={identical}"
    )
    return record


def run_workload(environment, name, query_edges, sigmas, rounds):
    """Count one filtering workload's work and check it against the oracle.

    The filter phase runs cold (every cache cleared first) over ``rounds``
    passes of the query set; the recorded ``plan.range_queries`` and
    ``filter.candidates`` counter deltas are exact and hardware-independent.
    One full search per ``(query, sigma)`` must then answer exactly like
    the oracle.
    """
    queries = environment.workload.sample_queries(
        num_edges=query_edges, count=environment.config.queries_per_set
    )

    _clear_caches(environment)
    before = GLOBAL_COUNTERS.snapshot()
    seconds, candidates = _run_filters(environment, queries, sigmas, rounds)
    counters = GLOBAL_COUNTERS.delta(before)

    _, _, answers = _run_searches(environment, queries, sigmas, 1)
    oracle = NaiveSearch(
        environment.database, environment.measure, **ORACLE_VERIFICATION
    )
    _, _, oracle_answers = _run_searches(
        environment, queries, sigmas, 1, strategy=oracle
    )
    identical = answers == oracle_answers
    blob = json.dumps(candidates).encode("utf-8")
    record = {
        "query_edges": query_edges,
        "num_queries": len(queries),
        "sigmas": list(sigmas),
        "rounds": rounds,
        "filter_seconds": round(seconds, 6),
        "work": {name: int(counters.get(name, 0)) for name in GATED_COUNTERS},
        "answers_identical": identical,
        "candidates_sha256": hashlib.sha256(blob).hexdigest(),
        "counters": {key: round(value, 6) for key, value in sorted(counters.items())},
    }
    work = ", ".join(f"{key}={value}" for key, value in record["work"].items())
    print(f"{name}: filter {seconds:.3f}s, {work}, oracle-identical={identical}")
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="CI-sized configuration")
    parser.add_argument(
        "--output",
        type=Path,
        default=None,
        help="benchmark JSON path (default: $PIS_BENCH_OUTPUT or "
        "benchmarks/history/BENCH_pr10.json)",
    )
    parser.add_argument(
        "--section",
        default="gate",
        help="section name in the benchmark JSON document; lets a quick-mode "
        "and a full-mode gate run coexist in one file (e.g. 'gate_full')",
    )
    parser.add_argument(
        "--min-verify-speedup",
        type=float,
        default=2.5,
        help="required default-over-oracle verify-phase speedup on the "
        "verification workload",
    )
    parser.add_argument(
        "--min-kernel-speedup",
        type=float,
        default=3.0,
        help="required cold kernel-vs-recursive verify-phase speedup on "
        "the verify_kernel workload",
    )
    parser.add_argument(
        "--min-update-speedup",
        type=float,
        default=2.0,
        help="required incremental-vs-rebuild speedup on the "
        "incremental_update workload",
    )
    parser.add_argument(
        "--min-serving-speedup",
        type=float,
        default=5.0,
        help="required warm-cache over cold speedup on the "
        "serving_throughput workload (enforced on every machine: a "
        "result-cache hit needs no parallel hardware)",
    )
    parser.add_argument(
        "--min-sharded-speedup",
        type=float,
        default=1.5,
        help="required 4-process-shard vs 1-shard-serial speedup on the "
        "sharded_search workload (enforced only with >= 2 CPU cores)",
    )
    parser.add_argument(
        "--min-sharded-build-speedup",
        type=float,
        default=1.0,
        help="required parallel-sharded vs serial build speedup on the "
        "sharded_build workload (enforced only with >= 2 CPU cores)",
    )
    parser.add_argument(
        "--max-plan-ratio",
        type=float,
        default=1.3,
        help="largest allowed 4-shard/1-shard total filter-work ratio on "
        "the global_plan workload (work totals are executor-independent, "
        "so this ceiling is enforced on every machine)",
    )
    parser.add_argument(
        "--check-baseline",
        type=Path,
        default=None,
        help="baseline JSON to gate speedup regressions and exact work "
        "counters against",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.2,
        help="allowed relative speedup regression vs the baseline (0.2 = 20%%)",
    )
    parser.add_argument(
        "--write-baseline",
        type=Path,
        default=None,
        help="write the measured speedups and work counters as a new "
        "baseline JSON",
    )
    arguments = parser.parse_args(argv)

    config = quick_bench_config() if arguments.quick else full_bench_config()
    environment = build_environment(config)

    gate = {
        "mode": "quick" if arguments.quick else "full",
        "database_size": config.database_size,
        "workloads": {},
    }
    failures = []
    for name, query_edges, sigmas, rounds in WORKLOADS:
        record = run_workload(environment, name, query_edges, sigmas, rounds)
        gate["workloads"][name] = record
        if not record["answers_identical"]:
            failures.append(f"{name}: PIS answers differ from the oracle")

    verify_name, verify_edges, verify_sigmas, verify_rounds = VERIFY_WORKLOAD
    verify_record = run_verify_workload(
        environment, verify_name, verify_edges, verify_sigmas, verify_rounds
    )
    gate["workloads"][verify_name] = verify_record
    if not verify_record["answers_identical"]:
        failures.append(
            f"{verify_name}: default answer ids/distances differ from the "
            "oracle verification configuration"
        )
    if verify_record["speedup"] < arguments.min_verify_speedup:
        failures.append(
            f"{verify_name}: verify-phase speedup {verify_record['speedup']:.2f}x "
            f"is below the required {arguments.min_verify_speedup:.2f}x"
        )

    (
        kernel_name,
        kernel_edges,
        kernel_sigmas,
        kernel_rounds,
        kernel_shards,
    ) = KERNEL_WORKLOAD
    kernel_record = run_kernel_workload(
        environment,
        kernel_name,
        kernel_edges,
        kernel_sigmas,
        kernel_rounds,
        kernel_shards,
    )
    gate["workloads"][kernel_name] = kernel_record
    if not kernel_record["answers_identical"]:
        failures.append(
            f"{kernel_name}: array-kernel answer ids/distances differ from "
            "the recursive reference search"
        )
    if not kernel_record["sharded_answers_identical"]:
        failures.append(
            f"{kernel_name}: 4-shard kernel answers differ from the "
            "unsharded kernel engine"
        )
    if kernel_record["speedup"] < arguments.min_kernel_speedup:
        failures.append(
            f"{kernel_name}: cold kernel verify-phase speedup "
            f"{kernel_record['speedup']:.2f}x is below the required "
            f"{arguments.min_kernel_speedup:.2f}x"
        )

    update_name, update_churn, update_edges, update_sigmas = UPDATE_WORKLOAD
    update_record = run_update_workload(
        environment, update_name, update_churn, update_edges, update_sigmas
    )
    gate["workloads"][update_name] = update_record
    if not update_record["answers_identical"]:
        failures.append(
            f"{update_name}: incrementally updated index answers differ from "
            "a from-scratch rebuild"
        )
    if update_record["speedup"] < arguments.min_update_speedup:
        failures.append(
            f"{update_name}: incremental-update speedup "
            f"{update_record['speedup']:.2f}x is below the required "
            f"{arguments.min_update_speedup:.2f}x"
        )

    cpu_count = os.cpu_count() or 1
    parallel_hardware = cpu_count >= 2
    gate["cpu_count"] = cpu_count

    sharded_name, sharded_edges, sharded_sigmas, sharded_shards = SHARDED_WORKLOAD
    sharded_record = run_sharded_workload(
        environment, sharded_name, sharded_edges, sharded_sigmas, sharded_shards
    )
    gate["workloads"][sharded_name] = sharded_record
    if not sharded_record["answers_identical"]:
        failures.append(
            f"{sharded_name}: sharded scatter-gather answers differ from the "
            "unsharded engine"
        )
    if sharded_record["speedup"] < arguments.min_sharded_speedup:
        if parallel_hardware:
            failures.append(
                f"{sharded_name}: sharded speedup "
                f"{sharded_record['speedup']:.2f}x is below the required "
                f"{arguments.min_sharded_speedup:.2f}x"
            )
        else:
            print(
                f"SKIP: {sharded_name} speedup floor not enforced on a "
                f"{cpu_count}-core machine (measured "
                f"{sharded_record['speedup']:.2f}x)"
            )

    build_name, build_shards = SHARDED_BUILD_WORKLOAD
    build_record = run_sharded_build_workload(environment, build_name, build_shards)
    gate["workloads"][build_name] = build_record
    if not build_record["shards_identical"]:
        failures.append(
            f"{build_name}: parallel-built shards serialize differently from "
            "serially built shards"
        )
    if build_record["speedup"] < arguments.min_sharded_build_speedup:
        if parallel_hardware:
            failures.append(
                f"{build_name}: parallel build speedup "
                f"{build_record['speedup']:.2f}x is below the required "
                f"{arguments.min_sharded_build_speedup:.2f}x"
            )
        else:
            print(
                f"SKIP: {build_name} speedup floor not enforced on a "
                f"{cpu_count}-core machine (measured "
                f"{build_record['speedup']:.2f}x)"
            )

    serving_name, serving_edges, serving_sigma, serving_clients = SERVING_WORKLOAD
    serving_record = run_serving_workload(
        environment, serving_name, serving_edges, serving_sigma, serving_clients
    )
    gate["workloads"][serving_name] = serving_record
    if not serving_record["answers_identical"]:
        failures.append(
            f"{serving_name}: served answers differ from direct uncached "
            "Engine.search"
        )
    if not serving_record["warm_all_cached"]:
        failures.append(
            f"{serving_name}: warm pass was not served entirely from the "
            "result cache"
        )
    if serving_record["speedup"] < arguments.min_serving_speedup:
        failures.append(
            f"{serving_name}: warm-over-cold speedup "
            f"{serving_record['speedup']:.2f}x is below the required "
            f"{arguments.min_serving_speedup:.2f}x"
        )

    (
        mixed_name,
        mixed_edges,
        mixed_sigma,
        mixed_clients,
        mixed_batches,
        mixed_max_queue,
    ) = SERVING_MIXED_WORKLOAD
    mixed_record = run_serving_mixed_workload(
        environment,
        mixed_name,
        mixed_edges,
        mixed_sigma,
        mixed_clients,
        mixed_batches,
        mixed_max_queue,
    )
    gate["workloads"][mixed_name] = mixed_record
    if mixed_record["lost"] != 0:
        failures.append(
            f"{mixed_name}: {mixed_record['lost']} submitted requests were "
            "neither answered nor reported shed"
        )
    if not mixed_record["server_counters_agree"]:
        failures.append(
            f"{mixed_name}: server accepted/shed counters disagree with the "
            "clients' tallies"
        )
    if mixed_record["queue_high_water"] > mixed_max_queue:
        failures.append(
            f"{mixed_name}: queue high-water "
            f"{mixed_record['queue_high_water']} exceeded "
            f"serve_max_queue={mixed_max_queue}"
        )
    if not mixed_record["final_state_identical"]:
        failures.append(
            f"{mixed_name}: final database/index state differs from a serial "
            "replay of the same mutation batches"
        )
    if not mixed_record["answers_identical"]:
        failures.append(
            f"{mixed_name}: post-storm answers differ from fresh searches on "
            "the serially replayed control engine"
        )

    (
        plan_name,
        plan_edges,
        plan_sigmas,
        plan_shards,
        plan_queries,
    ) = GLOBAL_PLAN_WORKLOAD
    plan_record = run_global_plan_workload(
        environment, plan_name, plan_edges, plan_sigmas, plan_shards, plan_queries
    )
    gate["workloads"][plan_name] = plan_record
    if not plan_record["answers_identical"]:
        failures.append(
            f"{plan_name}: planned sharded answers differ from the "
            "single-shard engine"
        )
    if not plan_record["warm_identical"]:
        failures.append(
            f"{plan_name}: warm (plan-cached) repeat answered differently"
        )
    if plan_record["warm_plan_cache_hits"] <= 0:
        failures.append(
            f"{plan_name}: warm repeat never hit the plan cache"
        )
    if plan_record["plan_ratio"] > arguments.max_plan_ratio:
        failures.append(
            f"{plan_name}: 4-shard filter work is "
            f"{plan_record['plan_ratio']:.2f}x the single-shard cost, above "
            f"the allowed {arguments.max_plan_ratio:.2f}x"
        )

    if arguments.check_baseline is not None:
        try:
            baseline = json.loads(arguments.check_baseline.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            failures.append(f"cannot read baseline {arguments.check_baseline}: {exc}")
            baseline = {}
        for name, entry in baseline.get("workloads", {}).items():
            if "work" in entry:
                measured_work = gate["workloads"].get(name, {}).get("work")
                if measured_work != entry["work"]:
                    failures.append(
                        f"{name}: work counters {measured_work} differ from "
                        f"the baseline {entry['work']}"
                    )
                continue
            expected = float(entry.get("speedup", 0.0))
            measured = gate["workloads"].get(name, {}).get("speedup")
            if measured is None:
                failures.append(f"baseline workload {name!r} was not measured")
                continue
            if name in PARALLEL_WORKLOADS and not parallel_hardware:
                print(
                    f"SKIP: {name} baseline check not enforced on a "
                    f"{cpu_count}-core machine (measured {measured:.2f}x)"
                )
                continue
            floor = expected * (1.0 - arguments.tolerance)
            if measured < floor:
                failures.append(
                    f"{name}: speedup {measured:.2f}x regressed more than "
                    f"{arguments.tolerance:.0%} vs baseline {expected:.2f}x "
                    f"(floor {floor:.2f}x)"
                )

    path = bench_common.write_bench_results(
        section=arguments.section, payload=gate, path=arguments.output
    )
    print(f"gate results written to {path}")

    if arguments.write_baseline is not None:
        baseline = {
            "format": "pis-bench-baseline",
            "version": 1,
            "mode": gate["mode"],
            "workloads": {
                name: (
                    {"work": record["work"]}
                    if "work" in record
                    else {"speedup": record["speedup"]}
                )
                for name, record in gate["workloads"].items()
                if "work" in record or "speedup" in record
                # serving_mixed gates invariants, not a speedup, so it
                # carries no baseline entry
            },
        }
        arguments.write_baseline.write_text(
            json.dumps(baseline, indent=2) + "\n", encoding="utf-8"
        )
        print(f"baseline written to {arguments.write_baseline}")

    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    print("benchmark gate passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
