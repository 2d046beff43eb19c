"""Tests for connected fragment enumeration."""

import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    GraphDatabase,
    LinearMutationDistance,
    MutationDistance,
    code_to_graph,
    iter_edge_shapes,
    structure_code,
)
from repro.index import FragmentIndex
from repro.mining import ExhaustiveFeatureSelector

from helpers import (
    build_graph,
    cycle_graph,
    path_graph,
    random_molecule,
    reference_fragments,
)


def edge_sets(graph, max_edges, min_edges=1):
    """The connected edge sets ``iter_edge_shapes`` grows, as frozensets."""
    return [
        frozenset(edges)
        for edges, _, _ in iter_edge_shapes(graph, max_edges, min_edges=min_edges)
    ]


def brute_force_edge_sets(graph, max_edges, min_edges=1):
    """Reference enumeration by filtering all edge subsets."""
    all_edges = list(graph.edges())
    found = set()
    for size in range(min_edges, max_edges + 1):
        for subset in combinations(all_edges, size):
            if graph.edge_subgraph(subset).is_connected():
                found.add(frozenset(subset))
    return found


class TestSmallCases:
    def test_triangle_counts(self):
        triangle = cycle_graph(3)
        assert len(edge_sets(triangle, max_edges=1)) == 3
        assert len(edge_sets(triangle, max_edges=2)) == 6
        assert len(edge_sets(triangle, max_edges=3)) == 7

    def test_path_counts(self):
        # a path with k edges has k*(k+1)/2 connected sub-paths
        path = path_graph(4)
        assert len(edge_sets(path, max_edges=4)) == 10

    def test_min_edges_filter(self):
        triangle = cycle_graph(3)
        sets = edge_sets(triangle, max_edges=3, min_edges=2)
        assert all(len(s) >= 2 for s in sets)
        assert len(sets) == 4

    def test_invalid_bounds(self):
        with pytest.raises(ValueError):
            edge_sets(cycle_graph(3), max_edges=0)
        with pytest.raises(ValueError):
            edge_sets(cycle_graph(3), max_edges=2, min_edges=3)

    def test_fragment_materialization_preserves_labels(self):
        graph = cycle_graph(4, edge_labels=["a", "b", "c", "d"])
        edge_set = edge_sets(graph, max_edges=2, min_edges=2)[0]
        fragment = graph.edge_subgraph(edge_set)
        assert fragment.num_edges == 2
        for (u, v) in fragment.edges():
            assert fragment.edge_label(u, v) == graph.edge_label(u, v)

    def test_iter_connected_fragments_are_connected(self):
        graph = cycle_graph(5)
        for edge_set in edge_sets(graph, max_edges=3):
            assert graph.edge_subgraph(edge_set).is_connected()


class TestAgainstBruteForce:
    @pytest.mark.parametrize("trial", range(8))
    def test_matches_brute_force_enumeration(self, trial):
        rng = random.Random(trial)
        graph = random_molecule(rng, num_vertices=rng.randint(5, 8), extra_edges=2)
        expected = brute_force_edge_sets(graph, max_edges=3)
        actual = set(edge_sets(graph, max_edges=3))
        assert actual == expected

    @given(st.integers(min_value=0, max_value=50_000))
    @settings(max_examples=20, deadline=None)
    def test_no_duplicates_and_all_connected(self, seed):
        rng = random.Random(seed)
        graph = random_molecule(rng, num_vertices=rng.randint(4, 8), extra_edges=2)
        seen = []
        for edge_set in edge_sets(graph, max_edges=4):
            assert graph.edge_subgraph(edge_set).is_connected()
            seen.append(edge_set)
        assert len(seen) == len(set(seen))


class TestEdgeShapes:
    def test_shape_key_numbers_vertices_by_first_appearance(self):
        graph = build_graph(5, [(0, 1), (1, 2), (2, 3), (1, 3), (3, 4)])
        for edges, key, vertices in iter_edge_shapes(graph, max_edges=4):
            assert key[0] == (0, 1)
            assert len(key) == len(edges) == len(set(edges))
            assert [(vertices[a], vertices[b]) for a, b in key] == list(edges)
            first_seen = list(dict.fromkeys(v for edge in edges for v in edge))
            assert list(vertices) == first_seen

    def test_sets_come_root_by_root_in_rank_order(self):
        graph = cycle_graph(5)
        ranked = sorted(graph.edges(), key=repr)
        roots = [edges[0] for edges, _, _ in iter_edge_shapes(graph, max_edges=3)]
        assert roots == sorted(roots, key=ranked.index)
        for edges, _, _ in iter_edge_shapes(graph, max_edges=3):
            assert min(edges, key=ranked.index) == edges[0]

    def test_isomorphic_sets_share_shape_keys(self):
        graph = path_graph(6)
        shapes = list(iter_edge_shapes(graph, max_edges=2, min_edges=2))
        assert {structure_code(graph.edge_subgraph(edges)) for edges, _, _ in shapes} == {
            structure_code(path_graph(2))
        }
        assert len({key for _, key, _ in shapes}) < len(shapes)


#: feature classes of the differential test: every connected structure of
#: one to four edges, the 5-edge path, star and cycle, and the 6-cycle
_CLASS_CODES = list(
    dict.fromkeys(
        structure_code(graph)
        for graph in [
            path_graph(1),
            path_graph(2),
            path_graph(3),
            path_graph(4),
            path_graph(5),
            cycle_graph(3),
            cycle_graph(4),
            cycle_graph(5),
            cycle_graph(6),
            build_graph(4, [(0, 1), (0, 2), (0, 3)]),
            build_graph(5, [(0, 1), (0, 2), (0, 3), (0, 4)]),
            build_graph(6, [(0, 1), (0, 2), (0, 3), (0, 4), (0, 5)]),
            build_graph(5, [(0, 1), (0, 2), (0, 3), (3, 4)]),
            build_graph(4, [(0, 1), (1, 2), (2, 0), (2, 3)]),
        ]
    )
)

_MEASURES = [
    MutationDistance(),
    MutationDistance(include_vertices=False),
    MutationDistance(include_edges=False),
    LinearMutationDistance(),
    LinearMutationDistance(include_vertices=False),
    LinearMutationDistance(include_edges=False),
]


def _random_host(seed, string_ids):
    """A random connected labeled and weighted graph of up to 11 edges;
    ``string_ids`` renames every odd vertex to a string id."""
    rng = random.Random(seed)
    graph = random_molecule(
        rng, num_vertices=rng.randint(2, 9), extra_edges=rng.randint(0, 3)
    )
    for vertex in graph.vertices():
        graph.set_vertex_weight(vertex, rng.randint(0, 9))
    for u, v in graph.edges():
        graph.set_edge_weight(u, v, rng.randint(0, 9))
    if string_ids:
        graph = graph.relabeled({v: f"v{v}" if v % 2 else v for v in graph.vertices()})
    return graph


class TestEnumeratorMatchesPerClassSearch:
    """The one-pass enumerator against one embedding search per class
    (``helpers.reference_fragments``)."""

    @given(
        seed=st.integers(min_value=0, max_value=10**6),
        string_ids=st.booleans(),
        measure=st.sampled_from(_MEASURES),
        class_order=st.permutations(range(len(_CLASS_CODES))),
        num_classes=st.integers(min_value=1, max_value=len(_CLASS_CODES)),
    )
    @settings(max_examples=40, deadline=None)
    def test_query_database_and_miner_sides(
        self, seed, string_ids, measure, class_order, num_classes
    ):
        # a random selection of classes in a random order: sparse
        # selections are where growth stops below the largest class
        host = _random_host(seed, string_ids)
        codes = [_CLASS_CODES[position] for position in class_order[:num_classes]]

        # query side: one fragment per indexed edge set, in the same order
        # and with the same insertion order inside each frozenset
        index = FragmentIndex([code_to_graph(code) for code in codes], measure).build([])
        assert list(index.codes()) == codes
        expected = reference_fragments(codes, measure, host, every_variant=False)
        assert [
            (f.code, tuple(f.vertices), tuple(f.edges), f.sequence)
            for f in index.enumerate_query_fragments(host)
        ] == [
            (code, tuple(vertices), tuple(edges), sequence)
            for code, vertices, edges, sequence in expected
        ]

        # database side: every variant's sequence, per class, in order
        grouped = {}
        for code, _, _, sequence in reference_fragments(
            codes, measure, host, every_variant=True
        ):
            grouped.setdefault(code, []).append(sequence)
        assert index.enumerator.class_sequences(host) == [
            (code, grouped[code]) for code in codes if code in grouped
        ]

        # miner: one candidate per structure, in order of first occurrence,
        # although codes are memoized by shape key
        supports = ExhaustiveFeatureSelector(max_edges=4).enumerate_supports(
            GraphDatabase([host])
        )
        assert [support.code for support in supports] == list(
            dict.fromkeys(
                structure_code(host.edge_subgraph(edge_set))
                for edge_set in edge_sets(host, max_edges=4)
            )
        )

    def test_growth_stops_below_sparse_classes(self):
        # paths P1..P4 and the 6-cycle: a set with a branching vertex is no
        # subgraph of any class, so it is classified but never grown (a
        # shape key minus its last edge is the key of the set it grew from)
        features = [path_graph(k) for k in range(1, 5)] + [cycle_graph(6)]
        index = FragmentIndex(features, MutationDistance()).build([])
        host = build_graph(
            9, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (0, 6), (6, 7), (1, 8)]
        )
        fragments = index.enumerate_query_fragments(host)
        assert sum(f.code == structure_code(cycle_graph(6)) for f in fragments) == 1
        def branches(key):
            ends = [vertex for edge in key for vertex in edge]
            return any(ends.count(vertex) > 2 for vertex in ends)

        shapes = index.enumerator._shapes
        assert max(len(key) for key in shapes) == 6
        assert any(branches(key) for key in shapes)
        assert not any(branches(key[:-1]) for key in shapes)

    def test_miner_supports_match_per_subset_codes(self):
        rng = random.Random(3)
        graphs = [random_molecule(rng, num_vertices=8, extra_edges=2) for _ in range(6)]
        supports = ExhaustiveFeatureSelector(max_edges=4).enumerate_supports(
            GraphDatabase(graphs)
        )
        expected = {}
        for graph_id, graph in enumerate(graphs):
            for edge_set in brute_force_edge_sets(graph, max_edges=4):
                code = structure_code(graph.edge_subgraph(edge_set))
                expected.setdefault(code, set()).add(graph_id)
        assert {s.code: s.supporting_graphs for s in supports} == expected
        for support in supports:
            assert structure_code(support.structure) == support.code
