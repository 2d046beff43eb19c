"""Integration tests of PIS against the baselines.

The central correctness properties of the whole system:

* **No false dismissal** — every true answer survives PIS filtering.
* **PIS candidates ⊆ topoPrune candidates** — the superimposed-distance
  lower bound only ever removes graphs on top of structure filtering.
* **Answer agreement** — PIS, topoPrune, exact-topoPrune and the naive scan
  return identical answer sets.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import GraphDatabase, default_edge_mutation_distance
from repro.datasets import mutate_edge_labels, sample_connected_subgraph
from repro.index import FragmentIndex
from repro.mining import cycle_structure, path_structure
from repro.search import (
    ExactTopoPruneSearch,
    NaiveSearch,
    PISearch,
    TopoPruneSearch,
)

from helpers import BONDS, random_molecule


def build_small_setup(seed, num_graphs=10, max_feature_edges=3):
    rng = random.Random(seed)
    database = GraphDatabase(
        [random_molecule(rng, num_vertices=rng.randint(7, 11), extra_edges=2)
         for _ in range(num_graphs)]
    )
    measure = default_edge_mutation_distance()
    features = [path_structure(k) for k in range(1, max_feature_edges + 1)]
    features.append(cycle_structure(3))
    index = FragmentIndex(features, measure).build(database)
    return rng, database, measure, index


def sample_query(rng, database, num_edges, mutations):
    source = database[rng.randrange(len(database))]
    query = None
    while query is None:
        query = sample_connected_subgraph(source, num_edges, rng)
    if mutations:
        query = mutate_edge_labels(query, mutations, BONDS, rng)
    return query


class TestPISAgainstBaselines:
    @pytest.mark.parametrize("seed", range(6))
    def test_answers_match_and_candidates_nest(self, seed):
        rng, database, measure, index = build_small_setup(seed)
        query = sample_query(rng, database, num_edges=5, mutations=1)
        sigma = rng.choice([0, 1, 2])

        pis = PISearch(database, index=index)
        topo = TopoPruneSearch(database, index=index)
        exact_topo = ExactTopoPruneSearch(database, measure)
        naive = NaiveSearch(database, measure)

        pis_result = pis.search(query, sigma)
        topo_result = topo.search(query, sigma)
        exact_result = exact_topo.search(query, sigma)
        naive_result = naive.search(query, sigma)

        truth = set(naive_result.answer_ids)
        assert set(pis_result.answer_ids) == truth
        assert set(topo_result.answer_ids) == truth
        assert set(exact_result.answer_ids) == truth

        # candidate nesting: answers ⊆ PIS ⊆ topoPrune ⊆ database
        assert truth <= set(pis_result.candidate_ids)
        assert set(pis_result.candidate_ids) <= set(topo_result.candidate_ids)
        assert set(exact_result.candidate_ids) <= set(topo_result.candidate_ids)
        assert len(topo_result.candidate_ids) <= len(database)

        # exact distances reported for answers are within sigma
        for graph_id, distance in pis_result.answer_distances.items():
            assert distance <= sigma

    def test_filter_outcome_reporting(self):
        rng, database, measure, index = build_small_setup(99)
        query = sample_query(rng, database, num_edges=6, mutations=0)
        pis = PISearch(database, index=index)
        outcome = pis.filter_candidates(query, sigma=1)
        report = outcome.report
        assert report.num_database_graphs == len(database)
        assert report.num_query_fragments == len(outcome.fragments) > 0
        assert report.num_candidates == len(outcome.candidate_ids)
        assert report.num_candidates <= report.num_structure_candidates
        assert report.partition_size >= 1
        assert outcome.partition is not None
        # every candidate's recorded lower bound is within sigma
        for graph_id in outcome.candidate_ids:
            assert outcome.lower_bounds[graph_id] <= 1

    def test_epsilon_drops_unselective_fragments(self):
        rng, database, measure, index = build_small_setup(5)
        query = sample_query(rng, database, num_edges=5, mutations=0)
        permissive = PISearch(database, index=index, epsilon=0.0)
        strict = PISearch(database, index=index, epsilon=10.0)
        outcome_permissive = permissive.filter_candidates(query, sigma=1)
        outcome_strict = strict.filter_candidates(query, sigma=1)
        assert outcome_strict.report.num_fragments_after_epsilon == 0
        # with every fragment dropped, no distance pruning happens
        assert (
            outcome_strict.report.num_candidates
            == outcome_strict.report.num_structure_candidates
        )
        assert (
            outcome_permissive.report.num_candidates
            <= outcome_strict.report.num_candidates
        )

    def test_partition_method_variants_are_sound(self):
        rng, database, measure, index = build_small_setup(13)
        query = sample_query(rng, database, num_edges=5, mutations=1)
        naive_answers = set(
            NaiveSearch(database, measure).search(query, 1).answer_ids
        )
        for method in ("greedy", "enhanced-greedy"):
            pis = PISearch(database, index=index, partition_method=method)
            result = pis.search(query, 1)
            assert set(result.answer_ids) == naive_answers

    def test_query_with_no_indexed_fragment(self):
        # A query consisting of a structure that is not indexed at all (a
        # 5-cycle when only paths/triangles are indexed still contains paths,
        # so use an index with only triangles and a tree query).
        rng = random.Random(0)
        database = GraphDatabase(
            [random_molecule(rng, num_vertices=8, extra_edges=0) for _ in range(5)]
        )
        measure = default_edge_mutation_distance()
        index = FragmentIndex([cycle_structure(3)], measure).build(database)
        query = sample_connected_subgraph(database[0], 3, rng)
        pis = PISearch(database, index=index)
        # tree query contains no triangle: the filter cannot prune anything
        assert pis.candidates(query, 1) == list(database.graph_ids())

    def test_sigma_zero_equals_exact_labeled_search(self):
        rng, database, measure, index = build_small_setup(21)
        source = database[0]
        query = sample_connected_subgraph(source, 5, rng)
        pis_result = PISearch(database, index=index).search(query, 0)
        assert 0 in pis_result.answer_ids
        assert pis_result.answer_distances[0] == 0.0

    def test_monotone_in_sigma(self):
        rng, database, measure, index = build_small_setup(8)
        query = sample_query(rng, database, num_edges=6, mutations=1)
        pis = PISearch(database, index=index)
        previous_answers = set()
        previous_candidates = set()
        for sigma in (0, 1, 2, 3):
            result = pis.search(query, sigma)
            assert previous_answers <= set(result.answer_ids)
            assert previous_candidates <= set(result.candidate_ids)
            previous_answers = set(result.answer_ids)
            previous_candidates = set(result.candidate_ids)


class TestNoFalseDismissalProperty:
    @given(st.integers(min_value=0, max_value=100_000))
    @settings(max_examples=12, deadline=None)
    def test_pis_never_dismisses_a_true_answer(self, seed):
        rng, database, measure, index = build_small_setup(seed, num_graphs=8)
        query = sample_query(rng, database, num_edges=rng.randint(3, 6),
                             mutations=rng.randint(0, 2))
        sigma = rng.choice([0, 1, 2])
        truth = set(NaiveSearch(database, measure).search(query, sigma).answer_ids)
        pis = PISearch(database, index=index, cutoff_lambda=rng.choice([0.5, 1.0, 2.0]))
        candidates = set(pis.candidates(query, sigma))
        assert truth <= candidates
        assert set(pis.search(query, sigma).answer_ids) == truth
