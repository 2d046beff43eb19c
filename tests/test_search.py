"""Tests for selectivity, the overlapping-relation graph, MWIS, and partitions."""

import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.search.planner as planner_module
from repro import Engine, EngineConfig, QueryWorkload, generate_chemical_database
from repro.core.errors import EngineConfigError, PartitionError
from repro.index.fragment_index import QueryFragment
from repro.search import (
    GlobalPlanner,
    OverlapGraph,
    PartitionResult,
    PISearch,
    SelectivityEstimator,
    enhanced_greedy_mwis,
    exact_mwis,
    greedy_mwis,
    select_partition,
    solve_mwis,
    validate_partition,
)


def make_fragment(vertices, code="c", sequence=("x",)):
    return QueryFragment(
        code=code,
        vertices=frozenset(vertices),
        edges=frozenset((v, v + 1) for v in list(vertices)[:-1]),
        sequence=sequence,
    )


def overlap_graph_from_sets(vertex_sets, weights):
    fragments = [make_fragment(vertices) for vertices in vertex_sets]
    return OverlapGraph.build(fragments, weights)


def pairwise_overlap_graph(fragments, weights):
    """The overlapping-relation graph by its definition: test every pair."""
    adjacency = {node: set() for node in range(len(fragments))}
    for i in range(len(fragments)):
        for j in range(i + 1, len(fragments)):
            if fragments[i].overlaps(fragments[j]):
                adjacency[i].add(j)
                adjacency[j].add(i)
    return OverlapGraph(
        fragments=list(fragments),
        weights={node: float(weight) for node, weight in enumerate(weights)},
        adjacency=adjacency,
    )


def literal_greedy(graph):
    """Algorithm 1 word for word: take the heaviest remaining node (lowest
    index on ties), delete it and its neighbours, repeat."""
    remaining = set(range(graph.num_nodes))
    selected = set()
    while remaining:
        best = max(remaining, key=lambda node: (graph.weights[node], -node))
        selected.add(best)
        remaining.discard(best)
        remaining -= graph.adjacency[best]
    return selected


class TestSelectivity:
    def test_definition5_with_cutoff(self):
        estimator = SelectivityEstimator(num_graphs=4, sigma=2.0, cutoff_lambda=1.0)
        selectivity = estimator.from_range_result({0: 0.0, 1: 1.0})
        # (0 + 1 + 2*sigma) / 4 = (1 + 4) / 4
        assert selectivity.weight == pytest.approx(1.25)
        assert selectivity.num_matching_graphs == 2
        assert selectivity.mean_matched_distance == pytest.approx(0.5)

    def test_lambda_scales_missing_contribution(self):
        low = SelectivityEstimator(4, sigma=2.0, cutoff_lambda=0.5)
        high = SelectivityEstimator(4, sigma=2.0, cutoff_lambda=2.0)
        result = {0: 0.0}
        assert low.from_range_result(result).weight < high.from_range_result(result).weight

    def test_empty_database(self):
        estimator = SelectivityEstimator(0, sigma=1.0)
        assert estimator.from_range_result({}).weight == 0.0

    def test_all_graphs_match_at_zero(self):
        estimator = SelectivityEstimator(3, sigma=2.0)
        assert estimator.from_range_result({0: 0.0, 1: 0.0, 2: 0.0}).weight == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            SelectivityEstimator(-1, 1.0)
        with pytest.raises(ValueError):
            SelectivityEstimator(1, 1.0, cutoff_lambda=-0.1)


class TestOverlapGraph:
    def test_edges_mark_vertex_overlap(self):
        graph = overlap_graph_from_sets(
            [{0, 1}, {1, 2}, {3, 4}], weights=[1.0, 2.0, 3.0]
        )
        assert graph.num_nodes == 3
        assert graph.num_edges == 1
        assert graph.neighbors(0) == {1}
        assert graph.neighbors(2) == set()
        assert graph.is_independent_set({0, 2})
        assert not graph.is_independent_set({0, 1})
        assert graph.total_weight({0, 2}) == 4.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            OverlapGraph.build([make_fragment({0, 1})], [1.0, 2.0])


class TestMWIS:
    def test_paper_example_greedy(self):
        """Figure 7: a path of 7 vertices; greedy picks w4, then w2 (or
        symmetric), never two adjacent vertices."""
        weights = {0: 4.0, 1: 3.0, 2: 1.0, 3: 10.0, 4: 6.0, 5: 7.0, 6: 5.0}
        vertex_sets = [{i, i + 0.5} | {i + 0.6} for i in range(7)]
        # chain overlaps: fragment i overlaps i+1
        sets = []
        for i in range(7):
            sets.append({i, i + 1})
        graph = overlap_graph_from_sets(sets, [weights[i] for i in range(7)])
        result = greedy_mwis(graph)
        assert 3 in result.nodes  # the heaviest vertex is always taken
        assert graph.is_independent_set(result.nodes)

    def test_greedy_on_triangle_of_overlaps(self):
        graph = overlap_graph_from_sets(
            [{0, 1}, {1, 2}, {0, 2}], weights=[5.0, 3.0, 4.0]
        )
        result = greedy_mwis(graph)
        assert result.nodes == frozenset({0})
        assert result.weight == 5.0

    def test_enhanced_greedy_at_least_as_good_on_known_trap(self):
        # Star: center overlaps every leaf.  Greedy takes the heavy center
        # (weight 5); the optimum takes the three leaves (weight 6).
        sets = [{0, 1, 2, 3}, {1, 4}, {2, 5}, {3, 6}]
        weights = [5.0, 2.0, 2.0, 2.0]
        graph = overlap_graph_from_sets(sets, weights)
        greedy = greedy_mwis(graph)
        enhanced = enhanced_greedy_mwis(graph, k=3)
        exact = exact_mwis(graph)
        assert greedy.weight == 5.0
        assert exact.weight == 6.0
        assert enhanced.weight >= greedy.weight
        assert exact.weight >= enhanced.weight

    def test_exact_is_optimal_on_random_graphs(self):
        rng = random.Random(3)
        for _ in range(10):
            count = rng.randint(1, 9)
            sets = []
            for _ in range(count):
                sets.append(set(rng.sample(range(12), rng.randint(1, 3))))
            weights = [round(rng.uniform(0.1, 5.0), 2) for _ in range(count)]
            graph = overlap_graph_from_sets(sets, weights)
            exact = exact_mwis(graph)
            # brute force over all subsets
            best = 0.0
            for mask in range(1 << count):
                nodes = [i for i in range(count) if mask >> i & 1]
                if graph.is_independent_set(nodes):
                    best = max(best, graph.total_weight(nodes))
            assert exact.weight == pytest.approx(best)
            assert greedy_mwis(graph).weight <= exact.weight + 1e-9
            assert enhanced_greedy_mwis(graph).weight <= exact.weight + 1e-9

    def test_exact_size_limit(self):
        graph = overlap_graph_from_sets([{i} for i in range(50)], [1.0] * 50)
        with pytest.raises(PartitionError, match="limited to 40 fragments.* has 50") as excinfo:
            exact_mwis(graph, max_nodes=40)
        assert isinstance(excinfo.value, ValueError)

    def test_solve_dispatch(self):
        graph = overlap_graph_from_sets([{0}, {1}], [1.0, 2.0])
        assert solve_mwis(graph, "greedy").weight == 3.0
        assert solve_mwis(graph, "enhanced-greedy", k=2).weight == 3.0
        assert solve_mwis(graph, "exact").weight == 3.0
        with pytest.raises(ValueError):
            solve_mwis(graph, "magic")

    def test_enhanced_greedy_k_validation(self):
        graph = overlap_graph_from_sets([{0}], [1.0])
        with pytest.raises(ValueError):
            enhanced_greedy_mwis(graph, k=0)

    @given(st.integers(min_value=0, max_value=50_000))
    @settings(max_examples=30, deadline=None)
    def test_solvers_return_independent_sets(self, seed):
        rng = random.Random(seed)
        count = rng.randint(1, 12)
        sets = [set(rng.sample(range(15), rng.randint(1, 4))) for _ in range(count)]
        weights = [round(rng.uniform(0, 3), 2) for _ in range(count)]
        graph = overlap_graph_from_sets(sets, weights)
        for result in (greedy_mwis(graph), enhanced_greedy_mwis(graph, k=2)):
            assert graph.is_independent_set(result.nodes)
            assert result.weight == pytest.approx(graph.total_weight(result.nodes))


class TestPartition:
    def test_select_partition_is_vertex_disjoint(self):
        fragments = [
            make_fragment({0, 1}),
            make_fragment({1, 2}),
            make_fragment({3, 4}),
            make_fragment({4, 5}),
        ]
        weights = [1.0, 5.0, 2.0, 1.0]
        partition = select_partition(fragments, weights)
        validate_partition(partition.fragments)
        assert partition.weight >= 5.0
        covered = partition.covered_vertices()
        assert covered == frozenset().union(*[f.vertices for f in partition.fragments])

    def test_validate_partition_rejects_overlap(self):
        with pytest.raises(PartitionError):
            validate_partition([make_fragment({0, 1}), make_fragment({1, 2})])

    def test_partition_methods_agree_on_disjoint_inputs(self):
        fragments = [make_fragment({i, i + 100}) for i in range(5)]
        weights = [1.0, 2.0, 3.0, 4.0, 5.0]
        for method in ("greedy", "enhanced-greedy", "exact"):
            partition = select_partition(fragments, weights, method=method)
            assert partition.size == 5
            assert partition.weight == pytest.approx(15.0)


# Vertex sets drawn from a small pool so duplicates are common, and weights
# from a few values (0.1 + 0.2 included) so ties and float-order effects are.
_vertex_sets = st.frozensets(st.integers(min_value=0, max_value=9), min_size=1, max_size=4)
_weights = st.sampled_from([0.0, 0.1, 0.2, 0.3, 0.1 + 0.2, 1.0, 2.5, 7.0])
_fragment_lists = st.lists(st.tuples(_vertex_sets, _weights), min_size=0, max_size=30)


class TestGreedySweep:
    """The default greedy partition sweeps fragments without an overlap
    graph; it must pick exactly what Algorithm 1 picks on that graph."""

    @given(_fragment_lists)
    @settings(max_examples=200, deadline=None)
    def test_select_partition_equals_greedy_mwis_on_pairwise_graph(self, items):
        fragments = [make_fragment(vertices) for vertices, _ in items]
        weights = [weight for _, weight in items]
        reference = greedy_mwis(pairwise_overlap_graph(fragments, weights))
        partition = select_partition(fragments, weights)
        assert partition.mwis.nodes == reference.nodes
        assert partition.weight == reference.weight
        assert partition.fragments == [fragments[node] for node in sorted(reference.nodes)]

    @given(_fragment_lists)
    @settings(max_examples=200, deadline=None)
    def test_greedy_mwis_equals_literal_algorithm_1(self, items):
        graph = pairwise_overlap_graph(
            [make_fragment(vertices) for vertices, _ in items],
            [weight for _, weight in items],
        )
        selected = literal_greedy(graph)
        result = greedy_mwis(graph)
        assert result.nodes == frozenset(selected)
        assert result.weight == graph.total_weight(selected)

    @given(_fragment_lists)
    @settings(max_examples=200, deadline=None)
    def test_inverted_list_build_equals_pairwise_reference(self, items):
        fragments = [make_fragment(vertices) for vertices, _ in items]
        weights = [weight for _, weight in items]
        built = OverlapGraph.build(fragments, weights)
        reference = pairwise_overlap_graph(fragments, weights)
        assert built.adjacency == reference.adjacency
        assert built.weights == reference.weights

    def test_duplicate_vertex_sets_overlap_and_ties_take_lowest_index(self):
        fragments = [make_fragment({0, 1}), make_fragment({0, 1}), make_fragment({2})]
        partition = select_partition(fragments, [1.0, 1.0, 1.0])
        assert partition.mwis.nodes == frozenset({0, 2})

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            select_partition([make_fragment({0, 1})], [1.0, 2.0])


@pytest.fixture(scope="module")
def chemical_engine():
    database = generate_chemical_database(30, seed=5)
    return Engine.build(
        database,
        EngineConfig(
            selector="exhaustive",
            selector_params={
                "max_edges": 4, "min_support": 0.1,
                "sample_size": 15, "max_features": 40, "seed": 3,
            },
        ),
    )


@pytest.fixture(scope="module")
def large_queries(chemical_engine):
    workload = QueryWorkload(chemical_engine.database, seed=4)
    queries = workload.sample_queries(num_edges=20, count=3)
    queries += workload.sample_queries(num_edges=24, count=2)
    assert all(query.num_edges >= 20 for query in queries)
    return queries


def _reference_partition(fragments, weights, method="greedy", k=2):
    """The overlap-graph route: pairwise graph, then ``greedy_mwis``."""
    mwis = greedy_mwis(pairwise_overlap_graph(fragments, weights))
    return PartitionResult(
        fragments=[fragments[node] for node in sorted(mwis.nodes)],
        weight=mwis.weight,
        method=mwis.method,
        mwis=mwis,
    )


class TestPlannedPartition:
    def test_large_query_plans_equal_the_overlap_graph_route(
        self, chemical_engine, large_queries, monkeypatch
    ):
        sweep_planner = GlobalPlanner(chemical_engine.index)
        swept = [sweep_planner.plan(query, 1.0) for query in large_queries]
        monkeypatch.setattr(planner_module, "select_partition", _reference_partition)
        reference_planner = GlobalPlanner(chemical_engine.index)
        for query, plan in zip(large_queries, swept):
            reference = reference_planner.plan(query, 1.0)
            assert plan.partition is not None
            assert plan.partition_positions == reference.partition_positions
            assert plan.lower_bounds == reference.lower_bounds
            assert plan.partition.weight == reference.partition.weight
            assert plan.as_dict() == reference.as_dict()

    def test_cached_plans_hold_no_overlap_graph(self, chemical_engine, large_queries):
        planner = GlobalPlanner(chemical_engine.index)
        for query in large_queries:
            plan = planner.plan(query, 1.0)
            assert not hasattr(plan.partition, "overlap_graph")
            assert len(pickle.dumps(plan.partition)) < len(pickle.dumps(plan.fragments))

    def test_greedy_path_builds_no_overlap_graph(
        self, chemical_engine, large_queries, monkeypatch
    ):
        def refuse(*args, **kwargs):
            raise AssertionError("the greedy partition built an overlap graph")

        monkeypatch.setattr(OverlapGraph, "build", refuse)
        plan = GlobalPlanner(chemical_engine.index).plan(large_queries[0], 1.0)
        assert plan.partition is not None


class TestPartitionConfig:
    @pytest.mark.parametrize(
        "params",
        [{"partition_method": "bogus"}, {"partition_k": 0}, {"partition_k": "2"}],
    )
    def test_bad_partition_config_rejected_by_engine_build(self, params):
        database = generate_chemical_database(6, seed=1)
        config = EngineConfig(
            selector="paths", selector_params={"max_path_edges": 2}, strategy_params=params
        )
        with pytest.raises(EngineConfigError):
            Engine.build(database, config)

    @pytest.mark.parametrize(
        "params", [{"partition_method": "bogus"}, {"partition_k": 0}]
    )
    def test_bad_partition_config_rejected_by_strategy_and_planner(
        self, chemical_engine, params
    ):
        with pytest.raises(EngineConfigError):
            PISearch(chemical_engine.database, index=chemical_engine.index, **params)
        with pytest.raises(EngineConfigError):
            GlobalPlanner(chemical_engine.index, **params)

    def test_exact_on_a_large_query_raises_partition_error(
        self, chemical_engine, large_queries
    ):
        planner = GlobalPlanner(chemical_engine.index, partition_method="exact")
        query = large_queries[0]
        eligible = len(GlobalPlanner(chemical_engine.index).plan(query, 1.0).eligible)
        assert eligible > 40
        with pytest.raises(PartitionError) as excinfo:
            planner.plan(query, 1.0)
        assert isinstance(excinfo.value, ValueError)
        assert "limited to 40 fragments" in str(excinfo.value)
        assert f"has {eligible}" in str(excinfo.value)
