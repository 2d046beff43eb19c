"""Seeded inputs of every workload: database, query streams, update batches.

Everything here is a pure function of the workload seed, so one seed always
yields the same database, the same query stream and the same update
sequence.  Queries travel as ``LabeledGraph.to_dict()`` dicts and are turned
into fresh graphs at call time by the workload runners: a held ``LabeledGraph``
pins its kernel cost tables (several MB each), which would make RSS and
timings drift with the number of queries kept alive.
"""

from __future__ import annotations

import random
from typing import Dict, List, Sequence, Tuple

from repro import EngineConfig, GraphDatabase, LabeledGraph, generate_chemical_database
from repro.datasets.queries import mutate_edge_labels, sample_connected_subgraph
from repro.perf import graph_signature

#: graphs in every workload's database, and the generator seed of it
DATABASE_SIZE = 300
DATABASE_SEED = 7

#: exhaustive miner settings: structures of up to 5 edges, support counted on
#: a 20-graph sample, at most 60 features (about 18 feature classes; a cold
#: build takes 5-6 s on a 2-vCPU host, which keeps three timed builds per
#: run affordable)
SELECTOR_PARAMS = {
    "max_edges": 5,
    "min_support": 0.1,
    "max_features": 60,
    "sample_size": 20,
    "seed": 7,
}

#: engine config overrides per workload (the served engine logs to a WAL)
ENGINE_OVERRIDES = {
    "large_query": {},
    "small_query": {},
    "sharded_query": {"shards": 2, "executor": "process"},
    "served_writes": {"durability": "wal"},
    "served_mixed": {"durability": "wal"},
}

#: query shapes of the direct workloads: (edge sizes, mutated labels, sigma)
STREAM_SHAPES = {
    "large": (tuple(range(20, 25)), 0, 1.0),
    "small": (tuple(range(8, 13)), 1, 2.0),
}

#: queries generated per direct stream; a run stops at its deadline, so the
#: stream only has to outlast the fastest expected run
STREAM_LENGTH = 600

#: warm-up queries per run, drawn apart from the measured stream
WARMUP_COUNT = 3

#: served pool: query sizes, queries per size, sigma and Zipf exponent
SERVED_SIZES = (8, 12, 16, 24)
SERVED_PER_SIZE = 30
SERVED_SIGMA = 2.0
SERVED_ZIPF = 1.1

#: graphs removed and added by one update batch
UPDATE_REMOVE = 3
UPDATE_ADD = 3


def rng_for(seed: int, purpose: str) -> random.Random:
    """A generator private to one purpose, stable across interpreter runs
    (string seeds are hashed with SHA-512, not with ``hash()``)."""
    return random.Random(f"perfbench:{seed}:{purpose}")


def database() -> GraphDatabase:
    """The 300-graph chemical-like database.

    It is the same for every workload seed: the mined features, and with
    them the cost of every query, change a lot from one generated database
    to the next, so a per-seed database would make run-to-run spread
    mostly a matter of which database was drawn.  The workload seed varies
    the queries and the updates instead.
    """
    return generate_chemical_database(DATABASE_SIZE, seed=DATABASE_SEED)


def engine_config(**overrides) -> EngineConfig:
    """The default engine configuration with the benchmark's miner settings."""
    return EngineConfig(selector="exhaustive", selector_params=dict(SELECTOR_PARAMS), **overrides)


def edge_alphabet(db: GraphDatabase) -> List[str]:
    """Every edge label of the database, sorted (mutation alphabet)."""
    labels = set()
    for graph in db:
        for u, v in graph.edges():
            labels.add(graph.edge_label(u, v))
    return sorted(labels)


def _sample_queries(
    db: GraphDatabase,
    rng: random.Random,
    sizes: Sequence[int],
    mutations: int,
    count: int,
    exclude: set,
) -> List[Dict]:
    """``count`` distinct connected queries, their sizes cycling through
    ``sizes``, with ``mutations`` edge labels changed; signatures in
    ``exclude`` are skipped and the new ones added to it."""
    alphabet = edge_alphabet(db)
    graphs = list(db)
    queries: List[Dict] = []
    while len(queries) < count:
        # Sizes take turns rather than being drawn, so every stretch of the
        # stream has the same size mix whatever the seed.
        size = sizes[len(queries) % len(sizes)]
        source = rng.choice([graph for graph in graphs if graph.num_edges >= size])
        query = sample_connected_subgraph(source, size, rng)
        if query is None:
            continue
        if mutations:
            query = mutate_edge_labels(query, mutations, alphabet, rng)
        signature = graph_signature(query)
        if signature in exclude:
            continue
        exclude.add(signature)
        query.name = f"q{len(queries)}"
        queries.append(query.to_dict())
    return queries


def direct_stream(
    db: GraphDatabase, seed: int, shape: str
) -> Tuple[List[Dict], List[Dict], float]:
    """``(warm-up queries, measured stream, sigma)`` of one direct shape.

    The warm-up queries share the stream's shape but never occur in it, so
    warming pays for lazy imports without pre-answering measured queries.
    """
    sizes, mutations, sigma = STREAM_SHAPES[shape]
    seen: set = set()
    warmup = _sample_queries(db, rng_for(seed, f"warmup-{shape}"), sizes, mutations, WARMUP_COUNT, seen)
    stream = _sample_queries(db, rng_for(seed, f"stream-{shape}"), sizes, mutations, STREAM_LENGTH, seen)
    return warmup, stream, sigma


def served_pool(db: GraphDatabase) -> Tuple[List[Dict], List[float]]:
    """``(pool, weights)``: 120 distinct served queries and their Zipf weights.

    Popularity ranks take the sizes in turn (rank 0 an 8-edge query, rank 1
    a 12-edge one, ...).  The pool is the same for every seed, as the
    database is: which queries are hot sets most of a served run's latency,
    so a per-seed pool made the spread mostly a matter of which pool was
    drawn.  The seed sets the order of the draws and the graphs removed.
    """
    rng = rng_for(0, "served-pool")
    seen: set = set()
    by_size = [
        _sample_queries(db, rng, (size,), 0, SERVED_PER_SIZE, seen) for size in SERVED_SIZES
    ]
    pool = [queries[rank] for rank in range(SERVED_PER_SIZE) for queries in by_size]
    weights = [1.0 / (rank + 1) ** SERVED_ZIPF for rank in range(len(pool))]
    return pool, weights


def update_batches(
    db: GraphDatabase, seed: int, count: int
) -> List[Tuple[List[int], List[Dict]]]:
    """``count`` update batches ``(ids to remove, graph dicts to add)``.

    Ids are planned the way the engine assigns them without id reuse:
    additions append at the id bound, so batch ``k`` can remove graphs that
    batch ``k - 1`` added.  The seed picks the graphs removed; the graphs
    added are the same for every seed (a second generated database), since
    their size sets most of an update's cost.
    """
    rng = rng_for(seed, "updates")
    fresh = list(generate_chemical_database(UPDATE_ADD * count, seed=DATABASE_SEED + 1))
    live = sorted(db.graph_ids())
    next_id = db.id_bound
    batches = []
    for position in range(count):
        removals = sorted(rng.sample(live, UPDATE_REMOVE))
        live = [graph_id for graph_id in live if graph_id not in removals]
        additions = fresh[position * UPDATE_ADD : (position + 1) * UPDATE_ADD]
        live.extend(range(next_id, next_id + len(additions)))
        next_id += len(additions)
        batches.append((removals, [graph.to_dict() for graph in additions]))
    return batches


def graph(data: Dict) -> LabeledGraph:
    """A fresh query graph from its dict (built at call time, then dropped)."""
    return LabeledGraph.from_dict(data)
