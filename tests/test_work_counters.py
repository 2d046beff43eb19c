"""Exact filter work counters and oracle answers on fixed workloads.

Two filtering workloads run on the quick 60-graph environment
(``helpers.quick_environment``):

* ``pruning_cost`` — the Q16 query set at sigma 1, 2 and 3;
* ``figure10`` — the Q24 query set at sigma 1, 3 and 5.

Each runs the PIS filter cold (every memo cache cleared first) over two
passes of its query set.  Four counts are hardware-independent, so they
are pinned to exact values:

* the range queries the planner issues (``plan.range_queries``); plans
  are not cached, so the second pass plans again and issues them again;
* the range queries that reach a class store (``range_query.calls``, the
  range-memo misses);
* the fragment enumerations that run (``enumerate_query_fragments.calls``,
  the fragment-memo misses: one per distinct query);
* the candidates the filter keeps (``filter.candidates``).

A change to enumeration, the memos, the planner or the partition that
does more (or different) filter work shows up here as a changed count.
One full search per ``(query, sigma)`` must also answer exactly like the
NaiveSearch oracle.

What the build writes is pinned too: the mined feature codes in order, and
the SHA-256 of the saved index, as built and after one removal-and-addition
batch.  Saved indexes list store entries in a canonical order, so the
digests pin the content of every class store and its occurrence counts.

Wall-clock speed is judged by the repository benchmark (``perfbench/``),
not here.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.core.canonical import structure_code, structure_code_cache
from repro.index import FragmentIndex, save_index
from repro.perf import GLOBAL_COUNTERS
from repro.search import PISearch

from helpers import oracle_answers, quick_environment

#: (name, query edges, sigmas, rounds, exact plan.range_queries,
#: exact range_query.calls, exact enumerate_query_fragments.calls,
#: exact filter.candidates)
WORKLOADS = [
    ("pruning_cost", 16, (1.0, 2.0, 3.0), 2, 2976, 306, 4, 1042),
    ("figure10", 24, (1.0, 3.0, 5.0), 2, 4998, 315, 4, 964),
]


@pytest.fixture(scope="module")
def environment():
    return quick_environment()


def workload_queries(environment, query_edges):
    return environment.workload.sample_queries(
        num_edges=query_edges, count=environment.config.queries_per_set
    )


@pytest.mark.parametrize(
    "name, query_edges, sigmas, rounds, range_queries, store_queries, "
    "enumerations, candidates",
    WORKLOADS,
    ids=[workload[0] for workload in WORKLOADS],
)
def test_cold_filter_work_is_exact(
    environment,
    name,
    query_edges,
    sigmas,
    rounds,
    range_queries,
    store_queries,
    enumerations,
    candidates,
):
    queries = workload_queries(environment, query_edges)
    environment.index.clear_caches()
    structure_code_cache().clear()
    pis = PISearch(environment.database, index=environment.index)

    before = GLOBAL_COUNTERS.snapshot()
    for _ in range(rounds):
        for query in queries:
            for sigma in sigmas:
                pis.candidates(query, sigma)
    work = GLOBAL_COUNTERS.delta(before)

    assert int(work.get("plan.range_queries", 0)) == range_queries, name
    assert int(work.get("range_query.calls", 0)) == store_queries, name
    assert (
        int(work.get("enumerate_query_fragments.calls", 0)) == enumerations
    ), name
    assert int(work.get("filter.candidates", 0)) == candidates, name


@pytest.mark.parametrize(
    "name, query_edges, sigmas",
    [workload[:3] for workload in WORKLOADS],
    ids=[workload[0] for workload in WORKLOADS],
)
def test_searches_answer_like_the_oracle(environment, name, query_edges, sigmas):
    pis = PISearch(environment.database, index=environment.index)
    for query in workload_queries(environment, query_edges):
        for sigma in sigmas:
            result = pis.search(query, sigma)
            answers = (
                list(result.answer_ids),
                {
                    graph_id: result.answer_distances[graph_id]
                    for graph_id in result.answer_ids
                },
            )
            expected = oracle_answers(
                environment.database, environment.measure, query, sigma
            )
            assert answers == expected, (name, query.name, sigma)


#: SHA-256 of ``repr`` of the mined feature codes, in selection order
MINED_CODES_SHA256 = "e3695279b384e5d173dde5582982fbad50819529c7ab417927f1f02f1a9c8107"
#: SHA-256 of the saved index file, as built and after the update batch
BUILT_INDEX_SHA256 = "c82b2405a62d1e2c9ed7d3784d070c2a6c9ee6c31ab1d143c0d80a41a54a5599"
UPDATED_INDEX_SHA256 = "7c9b1d6602d3ea3bcec4073e722710a8be2694d001ec44a74e9091fb129d5c5d"


def _sha256_of_saved(index, path):
    save_index(index, path)
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_mined_features_are_pinned(environment):
    codes = [structure_code(feature) for feature in environment.features]
    assert len(codes) == 10
    assert hashlib.sha256(repr(codes).encode()).hexdigest() == MINED_CODES_SHA256


def test_saved_index_is_pinned(environment, tmp_path):
    path = tmp_path / "index.json"
    assert _sha256_of_saved(environment.index, path) == BUILT_INDEX_SHA256
    database = environment.database
    index = FragmentIndex(environment.features, environment.measure).build(database)
    assert _sha256_of_saved(index, path) == BUILT_INDEX_SHA256
    index.remove_graphs([5, 20, 41])
    index.add_graphs([(5, database[41]), (60, database[20]), (61, database[5])])
    assert _sha256_of_saved(index, path) == UPDATED_INDEX_SHA256
