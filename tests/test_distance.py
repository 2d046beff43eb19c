"""Tests for distance measures (mutation matrix, MD, LD)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    DistanceError,
    LinearMutationDistance,
    MutationDistance,
    MutationScoreMatrix,
    default_edge_mutation_distance,
    find_embeddings,
)

from helpers import build_graph, path_graph


class TestMutationScoreMatrix:
    def test_default_zero_one(self):
        matrix = MutationScoreMatrix()
        assert matrix.score("C", "C") == 0.0
        assert matrix.score("C", "N") == 1.0

    def test_custom_scores_are_symmetric(self):
        matrix = MutationScoreMatrix()
        matrix.set_score("single", "double", 0.5)
        assert matrix.score("double", "single") == 0.5
        assert matrix.score("single", "triple") == 1.0

    def test_custom_mismatch_and_match_cost(self):
        matrix = MutationScoreMatrix(mismatch_cost=2.0, match_cost=0.1)
        assert matrix.score("a", "b") == 2.0
        assert matrix.score("a", "a") == 0.1

    def test_negative_costs_rejected(self):
        with pytest.raises(DistanceError):
            MutationScoreMatrix(mismatch_cost=-1)
        matrix = MutationScoreMatrix()
        with pytest.raises(DistanceError):
            matrix.set_score("a", "b", -0.5)

    def test_serialization_round_trip(self):
        matrix = MutationScoreMatrix(mismatch_cost=2.0)
        matrix.set_score("s", "d", 0.25)
        rebuilt = MutationScoreMatrix.from_dict(matrix.to_dict())
        assert rebuilt.score("d", "s") == 0.25
        assert rebuilt.score("x", "y") == 2.0

    @given(st.text(max_size=3), st.text(max_size=3))
    @settings(max_examples=50, deadline=None)
    def test_symmetry_property(self, a, b):
        matrix = MutationScoreMatrix()
        assert matrix.score(a, b) == matrix.score(b, a)
        assert matrix.score(a, a) == 0.0


class TestMutationDistance:
    def test_embedding_cost_counts_mismatches(self):
        query = path_graph(2, edge_labels=["single", "double"])
        target = path_graph(2, edge_labels=["single", "single"])
        measure = MutationDistance()
        embedding = [
            e for e in find_embeddings(query, target) if e.mapping[0] == 0
        ][0]
        # vertices all match (all "C"), one edge label differs
        assert measure.embedding_cost(query, target, embedding) == 1.0

    def test_vertex_and_edge_inclusion_flags(self):
        query = build_graph(2, [(0, 1)], vertex_labels="CN", edge_labels=["single"])
        target = build_graph(2, [(0, 1)], vertex_labels="CC", edge_labels=["double"])
        embedding = find_embeddings(query, target)[0]
        both = MutationDistance()
        vertices_only = MutationDistance(include_edges=False)
        edges_only = MutationDistance(include_vertices=False)
        assert both.embedding_cost(query, target, embedding) == pytest.approx(2.0)
        assert vertices_only.embedding_cost(query, target, embedding) == pytest.approx(1.0)
        assert edges_only.embedding_cost(query, target, embedding) == pytest.approx(1.0)

    def test_must_score_something(self):
        with pytest.raises(DistanceError):
            MutationDistance(include_vertices=False, include_edges=False)

    def test_sequence_distance(self):
        measure = MutationDistance()
        assert measure.sequence_distance(("a", "b", "c"), ("a", "x", "c")) == 1.0
        with pytest.raises(DistanceError):
            measure.sequence_distance(("a",), ("a", "b"))

    def test_annotation_distances_match_scalar(self):
        # the score-row hook equals annotation_distance bit for bit, for a
        # graded matrix too
        matrix = MutationScoreMatrix()
        matrix.set_score("single", "double", 0.1)
        matrix.set_score("double", "aromatic", 0.7)
        measure = MutationDistance(matrix=matrix, include_vertices=False)
        labels = ["single", "double", "aromatic", "triple", 3]
        for label in labels:
            row = measure.annotation_distances(label, labels)
            assert row.dtype == np.float64
            assert row.tolist() == [
                measure.annotation_distance(label, other) for other in labels
            ]
        assert measure.annotation_distances("single", []).tolist() == []

    def test_default_edge_measure_matches_paper_setup(self):
        measure = default_edge_mutation_distance()
        assert measure.include_edges and not measure.include_vertices

    def test_custom_matrix_graded_costs(self):
        matrix = MutationScoreMatrix()
        matrix.set_score("single", "double", 0.5)
        measure = MutationDistance(matrix=matrix, include_vertices=False)
        assert measure.annotation_distance("single", "double") == 0.5
        assert measure.annotation_distance("single", "aromatic") == 1.0

    def test_describe_round_trips_matrix(self):
        matrix = MutationScoreMatrix()
        matrix.set_score("s", "d", 0.3)
        measure = MutationDistance(matrix=matrix, include_vertices=False)
        description = measure.describe()
        assert description["name"] == "mutation"
        assert description["include_vertices"] is False
        assert any(entry["cost"] == 0.3 for entry in description["matrix"]["scores"])


class TestLinearMutationDistance:
    def test_embedding_cost_sums_absolute_differences(self):
        query = path_graph(2)
        target = path_graph(2)
        for (u, v), w in zip(query.edges(), [1.0, 2.0]):
            query.set_edge_weight(u, v, w)
        for (u, v), w in zip(target.edges(), [1.5, 2.5]):
            target.set_edge_weight(u, v, w)
        measure = LinearMutationDistance(include_vertices=False)
        embedding = [
            e for e in find_embeddings(query, target) if e.mapping[0] == 0
        ][0]
        assert measure.embedding_cost(query, target, embedding) == pytest.approx(1.0)

    def test_vertex_weights_counted_when_enabled(self):
        query = build_graph(2, [(0, 1)])
        target = build_graph(2, [(0, 1)])
        query.set_vertex_weight(0, 1.0)
        target.set_vertex_weight(0, 0.0)
        target.set_vertex_weight(1, 0.0)
        measure = LinearMutationDistance()
        embedding = [e for e in find_embeddings(query, target) if e.mapping[0] == 0][0]
        assert measure.embedding_cost(query, target, embedding) == pytest.approx(1.0)

    @given(
        st.floats(min_value=-50, max_value=50),
        st.lists(st.floats(min_value=-50, max_value=50), max_size=12),
    )
    @settings(max_examples=50, deadline=None)
    def test_annotation_distances_match_scalar(self, weight, weights):
        # the numpy score row equals annotation_distance bit for bit
        measure = LinearMutationDistance()
        row = measure.annotation_distances(weight, weights)
        assert row.tolist() == [
            measure.annotation_distance(weight, other) for other in weights
        ]
        assert measure.annotation_distances(1, [2, 2.5]).tolist() == [1.0, 1.5]

    @given(
        st.lists(st.floats(min_value=-50, max_value=50), min_size=1, max_size=6),
        st.lists(st.floats(min_value=-50, max_value=50), min_size=1, max_size=6),
    )
    @settings(max_examples=50, deadline=None)
    def test_sequence_distance_is_l1_metric(self, a, b):
        size = min(len(a), len(b))
        a, b = tuple(a[:size]), tuple(b[:size])
        measure = LinearMutationDistance()
        forward = measure.sequence_distance(a, b)
        backward = measure.sequence_distance(b, a)
        assert forward == pytest.approx(backward)
        assert forward >= 0
        assert measure.sequence_distance(a, a) == 0
