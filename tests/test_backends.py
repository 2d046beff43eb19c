"""Tests for the per-class range-query store.

The central property: the one store (:class:`SequenceStore`) returns exactly
the range-query results of the test-local linear-scan reference
(:class:`helpers.LinearScanBackend`) — the same graphs at bit-identical
distances — under the categorical (mutation) measure and the numeric
(linear) measure alike.

The store replaced a trie (categorical labels) and a vector store (numeric
weights); the test names kept from then name the measure: ``trie`` and
``TestTrieBackend`` are the categorical cases, ``vector`` and
``TestVectorStore`` the numeric ones.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    LinearMutationDistance,
    MutationDistance,
    MutationScoreMatrix,
    structure_code,
)
from repro.index import EquivalenceClassIndex
from repro.index.class_index import SequenceStore

from helpers import LinearScanBackend, path_graph


CATEGORICAL_ALPHABET = ["single", "double", "aromatic", "triple"]

#: an 11-position pair whose L1 distance numpy's pairwise row sum rounds
#: differently from the sequential sum
STORED_11 = (3.115, 3.709, 3.976, 4.712, 3.699, 4.612, 0.145, 2.328, 4.717, 3.245, 4.505)
QUERY_11 = (0.566, 2.345, 1.233, 2.719, 2.87, 0.066, 1.084, 1.397, 4.582, 3.829, 0.798)


def graded_measure():
    """A mutation measure whose costs are not all 0/1, so sums round."""
    matrix = MutationScoreMatrix()
    matrix.set_score("single", "double", 0.1)
    matrix.set_score("double", "aromatic", 0.7)
    matrix.set_score("aromatic", "triple", 0.3)
    return MutationDistance(matrix=matrix)


def random_categorical_sequences(rng, count, length):
    return [
        tuple(rng.choice(CATEGORICAL_ALPHABET) for _ in range(length))
        for _ in range(count)
    ]


def random_numeric_sequences(rng, count, length):
    return [
        tuple(round(rng.uniform(0, 5), 3) for _ in range(length)) for _ in range(count)
    ]


def store_under_test(measure_name):
    """A fresh 2-position store plus its measure and two nearby sequences;
    ``trie`` is the categorical measure, ``vector`` the numeric one."""
    if measure_name == "trie":
        measure = MutationDistance()
        return SequenceStore(measure, 2), measure, ("a", "b"), ("x", "b")
    measure = LinearMutationDistance()
    return SequenceStore(measure, 2), measure, (1.0, 2.0), (1.5, 2.0)


class TestFactory:
    def test_auto_selection(self):
        code = structure_code(path_graph(2))
        categorical = EquivalenceClassIndex(code, MutationDistance())
        numeric = EquivalenceClassIndex(code, LinearMutationDistance())
        assert type(categorical.store) is type(numeric.store) is SequenceStore
        # the layout length: 3 vertices + 2 edges
        assert categorical.store.length == numeric.store.length == 5


class TestStoreContract:
    """Behaviour under both measures, each checked against the reference."""

    @pytest.mark.parametrize("name", ["trie", "vector"])
    def test_insert_dedupe(self, name):
        store, measure, sequence, _ = store_under_test(name)
        reference = LinearScanBackend(measure)
        for target in (store, reference):
            target.insert(sequence, 1)
            target.insert(sequence, 1)
            target.insert(sequence, 2)
        assert len(store) == len(reference) == 2
        assert sorted(store.entries()) == sorted(reference.entries())

    @pytest.mark.parametrize("name", ["trie", "vector"])
    def test_keeps_min_distance_per_graph(self, name):
        store, measure, near, far = store_under_test(name)
        reference = LinearScanBackend(measure)
        for target in (store, reference):
            target.insert(far, 7)
            target.insert(near, 7)
        assert store.range_query(near, 2) == reference.range_query(near, 2) == {7: 0.0}

    @pytest.mark.parametrize(
        "measure, one, two",
        [
            (MutationDistance(include_vertices=False), ("a",), ("a", "b")),
            (LinearMutationDistance(include_vertices=False), (1.0,), (1.0, 2.0)),
        ],
        ids=["categorical", "numeric"],
    )
    def test_class_rejects_other_sequence_lengths(self, measure, one, two):
        # a 1-edge class scoring edges only: every sequence has 1 annotation
        class_index = EquivalenceClassIndex(structure_code(path_graph(1)), measure)
        class_index.insert_sequence(one, 0)
        with pytest.raises(ValueError):
            class_index.insert_sequence(two, 1)
        with pytest.raises(ValueError):
            class_index.range_query(two, 0.0)
        assert class_index.range_query(one, 0.0) == {0: 0.0}
        assert list(class_index.entries()) == [(one, 0)]


class TestLinearBackend:
    def test_insert_dedupe_and_range(self):
        measure = MutationDistance()
        backend = LinearScanBackend(measure)
        backend.insert(("a", "b"), 1)
        backend.insert(("a", "b"), 1)
        backend.insert(("a", "c"), 2)
        assert len(backend) == 2
        result = backend.range_query(("a", "b"), 0)
        assert result == {1: 0.0}
        result = backend.range_query(("a", "b"), 1)
        assert result == {1: 0.0, 2: 1.0}

    def test_keeps_min_distance_per_graph(self):
        measure = MutationDistance()
        backend = LinearScanBackend(measure)
        backend.insert(("a", "b"), 7)
        backend.insert(("x", "b"), 7)
        assert backend.range_query(("a", "b"), 2) == {7: 0.0}

    def test_graph_ids_and_entries(self):
        backend = LinearScanBackend(MutationDistance())
        backend.insert(("a",), 1)
        backend.insert(("b",), 2)
        assert backend.graph_ids() == {1, 2}
        assert len(list(backend.entries())) == 2


class TestTrieBackend:
    """The store under the categorical (mutation) measure."""

    def test_length_mismatch_rejected(self):
        store = SequenceStore(MutationDistance(), 2)
        store.insert(("a", "b"), 0)
        with pytest.raises(ValueError):
            store.insert(("a",), 1)
        with pytest.raises(ValueError):
            store.range_query(("a",), 1)
        assert len(store) == 1

    def test_graded_costs_respected(self):
        matrix = MutationScoreMatrix()
        matrix.set_score("single", "double", 0.4)
        measure = MutationDistance(matrix=matrix, include_vertices=False)
        store = SequenceStore(measure, 2)
        store.insert(("double", "single"), 3)
        result = store.range_query(("single", "single"), 0.5)
        assert result == {3: pytest.approx(0.4)}
        assert store.range_query(("single", "single"), 0.3) == {}

    @given(st.integers(min_value=0, max_value=50_000))
    @settings(max_examples=30, deadline=None)
    def test_agrees_with_linear_scan(self, seed):
        rng = random.Random(seed)
        measure = graded_measure()
        length = rng.randint(1, 11)
        sequences = random_categorical_sequences(rng, rng.randint(1, 80), length)
        store = SequenceStore(measure, length)
        reference = LinearScanBackend(measure)
        for position, sequence in enumerate(sequences):
            graph_id = position % 7
            store.insert(sequence, graph_id)
            reference.insert(sequence, graph_id)
        assert len(store) == len(reference)
        query = tuple(rng.choice(CATEGORICAL_ALPHABET) for _ in range(length))
        radius = rng.choice([0, 0.5, 1, 2, length])
        assert store.range_query(query, radius) == reference.range_query(query, radius)


class TestVectorStore:
    """The store under the numeric (linear) measure."""

    def test_duplicate_entries_ignored(self):
        store = SequenceStore(LinearMutationDistance(), 2)
        store.insert((1.0, 2.0), 4)
        store.insert((1.0, 2.0), 4)
        assert len(store) == 1
        assert list(store.entries()) == [((1.0, 2.0), 4)]
        assert store.range_query((1.0, 2.0), 0.0) == {4: 0.0}

    def test_incremental_insert_then_query(self):
        measure = LinearMutationDistance()
        store = SequenceStore(measure, 2)
        for graph_id in range(40):
            store.insert((10.0 + graph_id, 10.0), graph_id)
        assert store.range_query((1.0, 2.0), 1.0) == {}
        store.insert((1.5, 2.0), 99)
        assert store.range_query((1.0, 2.0), 1.0) == {99: 0.5}

    @given(st.integers(min_value=0, max_value=50_000))
    @settings(max_examples=30, deadline=None)
    def test_agrees_with_linear_scan(self, seed):
        rng = random.Random(seed)
        measure = LinearMutationDistance()
        length = rng.randint(1, 11)
        sequences = random_numeric_sequences(rng, rng.randint(1, 80), length)
        store = SequenceStore(measure, length)
        reference = LinearScanBackend(measure)
        for position, sequence in enumerate(sequences):
            graph_id = position % 9
            store.insert(sequence, graph_id)
            reference.insert(sequence, graph_id)
        assert len(store) == len(reference)
        query = tuple(round(rng.uniform(0, 5), 3) for _ in range(length))
        radius = rng.choice([0.1, 0.5, 1.5, 4.0, 5.0 * length])
        assert store.range_query(query, radius) == reference.range_query(query, radius)

    def test_distance_independent_of_class_size(self):
        # A 5-edge class scoring vertices too: 11 positions.  Its one
        # entry's distance must equal the measure's sequence distance
        # exactly, however many rows the class holds.
        measure = LinearMutationDistance()
        class_index = EquivalenceClassIndex(structure_code(path_graph(5)), measure)
        expected = measure.sequence_distance(QUERY_11, STORED_11)
        class_index.insert_sequence(STORED_11, 0)
        assert class_index.range_query(QUERY_11, 100.0) == {0: expected}
        for graph_id in range(1, 40):
            class_index.insert_sequence((500.0 + graph_id,) * 11, graph_id)
        assert class_index.range_query(QUERY_11, 100.0) == {0: expected}
