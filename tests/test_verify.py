"""Tests for the candidate-verification subsystem (repro.search.verify)."""

from __future__ import annotations

import random

import pytest

from repro.core import GraphDatabase, default_edge_mutation_distance
from repro.core import kernel as kernel_module
from repro.core.superimposed import best_superposition
from repro.engine import Engine, EngineConfig
from repro.perf import MemoCache
from repro.search import (
    BoundedVerifier,
    ExactTopoPruneSearch,
    NaiveSearch,
    PISearch,
    TopoPruneSearch,
)
from repro.search.strategy import SearchStrategy
from repro.search.verify import query_cache_key
from repro.core.errors import EngineConfigError

from helpers import oracle_answers, random_connected_subgraph


# ----------------------------------------------------------------------
# shared setup
# ----------------------------------------------------------------------
@pytest.fixture
def query(small_database):
    """A deterministic query subgraph of the small database."""
    rng = random.Random(7)
    graph = small_database[3]
    sub = random_connected_subgraph(graph, num_edges=5, rng=rng)
    assert sub is not None
    return sub


# ----------------------------------------------------------------------
# ordering + short-circuit
# ----------------------------------------------------------------------
class TestBoundedPlan:
    def test_ordering_respects_lower_bounds(self, small_database, edge_measure):
        verifier = BoundedVerifier(small_database, edge_measure)
        candidates = [0, 1, 2, 3, 4]
        bounds = {0: 2.0, 1: 0.0, 2: 1.0, 3: 0.5, 4: 9.0}
        ordered, skipped = verifier.plan(3.0, candidates, bounds)
        assert ordered == [1, 3, 2, 0]  # ascending bound
        assert skipped == [4]  # bound 9.0 > sigma 3.0

    def test_missing_bounds_keep_candidate_order(self, small_database, edge_measure):
        verifier = BoundedVerifier(small_database, edge_measure)
        ordered, skipped = verifier.plan(1.0, [5, 2, 9], None)
        assert ordered == [5, 2, 9]
        assert skipped == []

    def test_verify_runs_in_bound_order(self, small_database, edge_measure, query):
        verifier = BoundedVerifier(small_database, edge_measure)
        candidates = list(small_database.graph_ids())
        bounds = {graph_id: float(graph_id % 3) for graph_id in candidates}
        verifier.verify(query, 5.0, candidates, lower_bounds=bounds)
        observed = [bounds[graph_id] for graph_id in verifier.last_order]
        assert observed == sorted(observed)

    def test_short_circuit_never_drops_a_true_answer(
        self, small_database, edge_measure, query
    ):
        """With *valid* lower bounds the skipped candidates cannot be answers."""
        sigma = 2.0
        truth_answers, truth_distances = oracle_answers(
            small_database, edge_measure, query, sigma
        )
        # Valid bounds: half the true distance (never exceeds the truth).
        bounds = {}
        for graph_id in small_database.graph_ids():
            exact = best_superposition(
                query, small_database[graph_id], edge_measure
            ).distance
            if exact != float("inf"):
                bounds[graph_id] = exact / 2.0
            else:
                bounds[graph_id] = sigma + 100.0  # no superposition at all
        verifier = BoundedVerifier(small_database, edge_measure)
        answers, distances = verifier.verify(
            query, sigma, list(small_database.graph_ids()), lower_bounds=bounds
        )
        assert answers == truth_answers
        assert distances == truth_distances

    def test_skips_counted(self, small_database, edge_measure, query):
        verifier = BoundedVerifier(small_database, edge_measure)
        candidates = list(small_database.graph_ids())
        bounds = {graph_id: 100.0 for graph_id in candidates}
        answers, distances = verifier.verify(
            query, 1.0, candidates, lower_bounds=bounds
        )
        assert answers == [] and distances == {}
        assert verifier.counters.get("verify.lower_bound_skips") == len(candidates)
        # No distance computations happened at all.
        assert verifier.counters.get("verify.superpositions_explored") == 0


# ----------------------------------------------------------------------
# equivalence with the legacy loop
# ----------------------------------------------------------------------
class TestEquivalence:
    @pytest.mark.parametrize("sigma", [0.0, 1.0, 2.0, 4.0])
    def test_bounded_matches_legacy(self, small_database, edge_measure, query, sigma):
        truth = oracle_answers(small_database, edge_measure, query, sigma)
        verifier = BoundedVerifier(small_database, edge_measure)
        assert (
            verifier.verify(query, sigma, list(small_database.graph_ids())) == truth
        )

    def test_pis_search_matches_naive_all_paths(self, small_database, small_index):
        """End-to-end: PIS with the bounded verifier equals the naive truth."""
        rng = random.Random(17)
        queries = [
            random_connected_subgraph(small_database[i], num_edges=4, rng=rng)
            for i in (0, 5, 11)
        ]
        naive = NaiveSearch(small_database, small_index.measure)
        pis = PISearch(small_database, index=small_index)
        for query in queries:
            if query is None:
                continue
            for sigma in (1.0, 2.0):
                truth = naive.search(query, sigma)
                optimized = pis.search(query, sigma)
                assert set(optimized.answer_ids) == set(truth.answer_ids)
                assert optimized.answer_distances == truth.answer_distances


# ----------------------------------------------------------------------
# memoization
# ----------------------------------------------------------------------
class TestMemoization:
    def test_repeated_query_hits_cache(self, small_database, edge_measure, query):
        verifier = BoundedVerifier(small_database, edge_measure)
        candidates = list(small_database.graph_ids())
        first = verifier.verify(query, 2.0, candidates)
        misses_after_first = verifier.distance_cache.misses
        second = verifier.verify(query, 2.0, candidates)
        assert second == first
        assert verifier.distance_cache.hits >= len(candidates)
        # The repeat did not add a single new computation.
        assert verifier.distance_cache.misses == misses_after_first

    def test_cache_shared_through_index(self, small_database, small_index, query):
        """Two strategies over one index reuse each other's distances."""
        pis = PISearch(small_database, index=small_index)
        topo = TopoPruneSearch(small_database, index=small_index)
        small_index.clear_caches()
        topo.search(query, 2.0)  # verifies every structure candidate
        hits_before = small_index.distance_cache.hits
        pis.search(query, 2.0)
        assert small_index.distance_cache.hits > hits_before

    def test_growing_sigma_refreshes_inf_entries(
        self, small_database, edge_measure, query
    ):
        verifier = BoundedVerifier(small_database, edge_measure)
        candidates = list(small_database.graph_ids())
        low = verifier.verify(query, 0.0, candidates)
        high = verifier.verify(query, 10.0, candidates)
        truth_low = oracle_answers(small_database, edge_measure, query, 0.0)
        truth_high = oracle_answers(small_database, edge_measure, query, 10.0)
        assert low == truth_low
        assert high == truth_high

    def test_shrinking_sigma_reuses_exact_entries(
        self, small_database, edge_measure, query
    ):
        verifier = BoundedVerifier(small_database, edge_measure)
        candidates = list(small_database.graph_ids())
        verifier.verify(query, 10.0, candidates)
        misses = verifier.distance_cache.misses
        low = verifier.verify(query, 1.0, candidates)
        assert verifier.distance_cache.misses == misses  # all from cache
        assert low == oracle_answers(small_database, edge_measure, query, 1.0)

    def test_query_cache_key_separates_measures(self, query, edge_measure, full_measure):
        assert query_cache_key(query, edge_measure) != query_cache_key(
            query, full_measure
        )
        assert query_cache_key(query, edge_measure) == query_cache_key(
            query, default_edge_mutation_distance()
        )


# ----------------------------------------------------------------------
# the oracle: NaiveSearch verifies on its own reference path
# ----------------------------------------------------------------------
class TestOracleConfiguration:
    def test_legacy_verifier_is_a_configured_choice(
        self, small_database, edge_measure, query
    ):
        """``verifier="legacy", verify_kernel="legacy"`` — the one selection
        left — builds the same oracle as the plain constructor."""
        strategy = NaiveSearch(
            small_database, edge_measure, verifier="legacy", verify_kernel="legacy"
        )
        bounds = {graph_id: 100.0 for graph_id in small_database.graph_ids()}
        answers, distances = strategy.verify(
            query, 2.0, list(small_database.graph_ids()), lower_bounds=bounds
        )
        # The reference scan ignores bounds entirely: nothing was skipped and
        # every candidate was decided by a full distance computation.
        assert strategy.counters.get("verify.lower_bound_skips") == 0
        assert strategy.counters.get("verify.candidates") == len(small_database)
        assert strategy.counters.get("verify.nodes_expanded") > 0
        assert (answers, distances) == oracle_answers(
            small_database, edge_measure, query, 2.0
        )

    @pytest.mark.parametrize(
        "keywords",
        [
            {"verifier": "bounded"},
            {"verify_kernel": "array"},
            {"verifier": "auto"},
            {"verify_kernel": "auto"},
            {"verifier": "legacy", "verify_kernel": "array"},
        ],
    )
    def test_naive_refuses_other_verifier_selections(
        self, small_database, edge_measure, keywords
    ):
        with pytest.raises(EngineConfigError, match="legacy"):
            NaiveSearch(small_database, edge_measure, **keywords)

    def test_strategies_take_no_verifier_selection(self, small_database, small_index):
        for strategy_class in (PISearch, TopoPruneSearch):
            with pytest.raises(TypeError):
                strategy_class(small_database, index=small_index, verifier="legacy")

    @pytest.mark.parametrize("shards", [1, 2])
    def test_oracle_does_not_depend_on_the_engine_path(
        self, small_database, query, monkeypatch, shards
    ):
        """The oracle answers with the array kernel and the bounded verifier
        both broken, and those answers equal the engine's."""
        engine = Engine.build(
            small_database,
            EngineConfig(selector_params={"max_edges": 3}),
            shards=shards,
        )
        expected = {
            sigma: engine.search(query, sigma) for sigma in (0.0, 1.0, 2.0)
        }

        def broken(*args, **kwargs):
            raise AssertionError("the oracle reached the engine's verify path")

        monkeypatch.setattr(kernel_module, "kernel_best_superposition", broken)
        monkeypatch.setattr(BoundedVerifier, "verify", broken)
        naive = NaiveSearch(small_database, engine.measure)
        for sigma, result in expected.items():
            truth = naive.search(query, sigma)
            assert truth.answer_ids == result.answer_ids
            assert truth.answer_distances == result.answer_distances
        assert any(result.answer_ids for result in expected.values())

    def test_default_pis_search_matches_oracle(
        self, small_database, small_index, query
    ):
        pis = PISearch(small_database, index=small_index)
        assert isinstance(pis.get_verifier(), BoundedVerifier)
        for sigma in (0.0, 1.0, 2.0):
            result = pis.search(query, sigma)
            assert (result.answer_ids, result.answer_distances) == oracle_answers(
                small_database, small_index.measure, query, sigma
            )


# ----------------------------------------------------------------------
# report unification (regression: PISearch vs base template)
# ----------------------------------------------------------------------
class TestReportUnification:
    def test_all_strategies_populate_report_identically(
        self, small_database, small_index, query
    ):
        strategies = [
            PISearch(small_database, index=small_index),
            NaiveSearch(small_database, small_index.measure),
        ]
        from repro.search import TopoPruneSearch

        strategies.append(TopoPruneSearch(small_database, index=small_index))
        for strategy in strategies:
            result = strategy.search(query, 1.0)
            assert result.report.num_database_graphs == len(small_database)
            assert result.report.num_candidates == len(result.candidate_ids)

    def test_pis_report_keeps_filter_diagnostics(
        self, small_database, small_index, query
    ):
        result = PISearch(small_database, index=small_index).search(query, 1.0)
        assert result.report.num_query_fragments > 0


# ----------------------------------------------------------------------
# engine / config wiring
# ----------------------------------------------------------------------
class TestEngineWiring:
    @pytest.fixture
    def engine(self, small_database):
        config = EngineConfig(
            selector="exhaustive",
            selector_params={"max_edges": 3, "min_support": 0.2, "sample_size": 10},
        )
        return Engine.build(small_database, config)

    def test_engine_verifies_with_bounded_array_kernel(
        self, engine, query, monkeypatch
    ):
        """The engine verifies one way: the bounded verifier over the array
        kernel, sharing the index's distance cache.  The verifiers checked
        are the ones ``engine.search`` verifies with — each search task
        builds its own, over the task's private counter sink."""
        used = []
        get_verifier = SearchStrategy.get_verifier

        def recording(strategy, *args, **kwargs):
            verifier = get_verifier(strategy, *args, **kwargs)
            used.append(verifier)
            return verifier

        monkeypatch.setattr(SearchStrategy, "get_verifier", recording)
        result = engine.search(query, 1.0)
        assert used
        for verifier in used:
            assert type(verifier) is BoundedVerifier
            assert verifier.distance_cache is engine.index.distance_cache
        assert (result.answer_ids, result.answer_distances) == oracle_answers(
            engine.database, engine.measure, query, 1.0
        )

    def test_config_round_trips_verifier_fields(self):
        """``verifier``/``verify_workers``/``kernel`` are retired keys: a
        saved config carrying them loads, and re-saving drops them."""
        data = EngineConfig(selector_params={"max_edges": 4}).to_dict()
        assert not {"verifier", "verify_workers", "kernel"} & set(data)
        retired = dict(data, verifier="legacy", verify_workers=3, kernel="legacy")
        rebuilt = EngineConfig.from_dict(retired)
        assert rebuilt == EngineConfig.from_dict(data)
        assert rebuilt.to_dict() == data

    def test_config_rejects_bad_verifier_fields(self):
        """The retired fields are not constructor arguments any more."""
        for key, value in (
            ("verifier", "legacy"),
            ("verifier", ""),
            ("verify_workers", 2),
            ("verify_workers", -1),
            ("kernel", "array"),
        ):
            with pytest.raises(TypeError):
                EngineConfig(**{key: value})

    @pytest.mark.parametrize("key", ["verifier", "verify_kernel"])
    def test_config_refuses_legacy_strategy_params(self, key):
        """``strategy_params`` cannot reach the reference verifier or
        kernel: only the NaiveSearch oracle uses them."""
        with pytest.raises(EngineConfigError, match=key):
            EngineConfig(strategy_params={"epsilon": 0.1, key: "legacy"})
        with pytest.raises(EngineConfigError, match=key):
            EngineConfig().replace(strategy_params={key: "auto"})

    @pytest.mark.parametrize("key", ["verifier", "verify_kernel"])
    def test_saved_legacy_strategy_params_are_dropped(self, key):
        """A saved config whose ``strategy_params`` carry a retired key
        loads without it."""
        data = EngineConfig(strategy_params={"epsilon": 0.1}).to_dict()
        data["strategy_params"][key] = "legacy"
        rebuilt = EngineConfig.from_dict(data)
        assert rebuilt.strategy_params == {"epsilon": 0.1}
        assert rebuilt == EngineConfig(strategy_params={"epsilon": 0.1})

    def test_config_reassignment_rebuilds_strategy(
        self, engine, small_database, query
    ):
        """Assigning engine.config must drop the cached strategy, so a
        strategy-parameter change takes effect even after the engine was
        queried."""
        engine.search(query, 1.0)  # builds and caches the strategy
        assert engine.strategy.epsilon == 0.0
        engine.config = engine.config.replace(strategy_params={"epsilon": 0.25})
        assert engine.strategy.epsilon == 0.25
        with pytest.raises(EngineConfigError):
            engine.config = "not a config"

    def test_index_cache_stats_include_distance_cache(self, engine):
        names = {entry["name"] for entry in engine.index.cache_stats()}
        assert "verify_distance" in names

    def test_plain_contract_third_party_strategy_still_constructible(
        self, engine, query
    ):
        """Engine must not force verifier kwargs onto strategies that keep
        the documented plain (database, measure, index=None) contract."""
        from repro.search import SearchStrategy, register_strategy
        from repro.search import registry as registry_module

        class PlainStrategy(SearchStrategy):
            name = "plain-contract-test"

            def __init__(self, database, measure=None, index=None):
                super().__init__(database, measure=measure, index=index)

            def candidates(self, query, sigma):
                return list(self.database.graph_ids())

        register_strategy(PlainStrategy)
        try:
            strategy = engine.make_strategy("plain-contract-test")
            result = strategy.search(query, 1.0)
            truth = engine.make_strategy("naive").search(query, 1.0)
            assert result.answer_ids == truth.answer_ids
        finally:
            del registry_module._STRATEGIES["plain-contract-test"]


# ----------------------------------------------------------------------
# early exit in the branch-and-bound search
# ----------------------------------------------------------------------
class TestEarlyExit:
    def test_known_lower_bound_preserves_exactness(self, small_database, edge_measure):
        rng = random.Random(3)
        for _ in range(20):
            graph = small_database[rng.randrange(len(small_database))]
            query = random_connected_subgraph(graph, num_edges=4, rng=rng)
            if query is None:
                continue
            target = small_database[rng.randrange(len(small_database))]
            exact = best_superposition(query, target, edge_measure)
            bounded = best_superposition(
                query,
                target,
                edge_measure,
                known_lower_bound=exact.distance
                if exact.distance != float("inf")
                else None,
            )
            assert bounded.distance == exact.distance

    def test_early_exit_flag_reported(self, small_database, edge_measure):
        rng = random.Random(5)
        graph = small_database[0]
        query = random_connected_subgraph(graph, num_edges=4, rng=rng)
        result = best_superposition(query, graph, edge_measure)
        assert result.distance == 0.0
        # The true distance is 0, so a zero lower bound must stop the search
        # at the first perfect superposition.
        bounded = best_superposition(
            query, graph, edge_measure, known_lower_bound=0.0
        )
        assert bounded.distance == 0.0
        assert bounded.early_exit
        assert bounded.explored <= result.explored


# ----------------------------------------------------------------------
# private cache fallback for index-free strategies
# ----------------------------------------------------------------------
class TestPrivateCache:
    def test_index_free_strategy_owns_private_cache(
        self, small_database, edge_measure
    ):
        strategy = ExactTopoPruneSearch(small_database, edge_measure)
        verifier = strategy.get_verifier()
        assert isinstance(verifier.distance_cache, MemoCache)
        assert strategy.get_verifier() is verifier

    def test_index_backed_strategy_shares_index_cache(
        self, small_database, small_index
    ):
        strategy = PISearch(small_database, index=small_index)
        assert strategy.get_verifier().distance_cache is small_index.distance_cache
