"""Tests for the per-class range-query stores (trie and vector store).

The central property: each store returns exactly the range-query results of
the test-local linear-scan reference (:class:`helpers.LinearScanBackend`) —
the trie for categorical (mutation) measures, the vector store for numeric
(linear) ones.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import LinearMutationDistance, MutationDistance, structure_code
from repro.index import EquivalenceClassIndex, TrieBackend
from repro.index.class_index import _SCALAR_SCAN_MAX, _VectorStore

from helpers import LinearScanBackend, path_graph


CATEGORICAL_ALPHABET = ["single", "double", "aromatic", "triple"]


def random_categorical_sequences(rng, count, length):
    return [
        tuple(rng.choice(CATEGORICAL_ALPHABET) for _ in range(length))
        for _ in range(count)
    ]


def random_numeric_sequences(rng, count, length):
    return [
        tuple(round(rng.uniform(0, 5), 3) for _ in range(length)) for _ in range(count)
    ]


def store_under_test(name):
    """A fresh store plus the measure and a pair of nearby sequences."""
    if name == "trie":
        measure = MutationDistance()
        return TrieBackend(measure), measure, ("a", "b"), ("x", "b")
    measure = LinearMutationDistance()
    return _VectorStore(measure), measure, (1.0, 2.0), (1.5, 2.0)


class TestFactory:
    def test_auto_selection(self):
        code = structure_code(path_graph(2))
        categorical = EquivalenceClassIndex(code, MutationDistance())
        numeric = EquivalenceClassIndex(code, LinearMutationDistance())
        assert isinstance(categorical.store, TrieBackend)
        assert isinstance(numeric.store, _VectorStore)


class TestStoreContract:
    """Behaviour shared by both stores, each checked against the reference."""

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
    def test_length_mismatch_rejected(self):
        backend = TrieBackend(MutationDistance())
        backend.insert(("a", "b"), 0)
        with pytest.raises(ValueError):
            backend.insert(("a",), 1)
        with pytest.raises(ValueError):
            backend.range_query(("a",), 1)

    def test_node_count(self):
        backend = TrieBackend(MutationDistance())
        backend.insert(("a", "b"), 0)
        backend.insert(("a", "c"), 1)
        # root + 'a' + 'b' + 'c'
        assert backend.node_count() == 4

    def test_graded_costs_respected(self):
        from repro.core import MutationScoreMatrix

        matrix = MutationScoreMatrix()
        matrix.set_score("single", "double", 0.4)
        measure = MutationDistance(matrix=matrix, include_vertices=False)
        backend = TrieBackend(measure)
        backend.insert(("double", "single"), 3)
        result = backend.range_query(("single", "single"), 0.5)
        assert result == {3: pytest.approx(0.4)}
        assert backend.range_query(("single", "single"), 0.3) == {}

    @given(st.integers(min_value=0, max_value=50_000))
    @settings(max_examples=30, deadline=None)
    def test_agrees_with_linear_scan(self, seed):
        rng = random.Random(seed)
        measure = MutationDistance()
        length = rng.randint(1, 6)
        sequences = random_categorical_sequences(rng, rng.randint(1, 40), length)
        trie = TrieBackend(measure)
        reference = LinearScanBackend(measure)
        for position, sequence in enumerate(sequences):
            graph_id = position % 7
            trie.insert(sequence, graph_id)
            reference.insert(sequence, graph_id)
        query = tuple(rng.choice(CATEGORICAL_ALPHABET) for _ in range(length))
        radius = rng.choice([0, 1, 2, length])
        assert trie.range_query(query, radius) == reference.range_query(query, radius)


class TestVectorStore:
    def test_duplicate_entries_ignored(self):
        store = _VectorStore(LinearMutationDistance())
        store.insert((1.0, 2.0), 4)
        store.insert((1.0, 2.0), 4)
        assert len(store) == 1
        assert list(store.entries()) == [((1.0, 2.0), 4)]
        assert store.range_query((1.0, 2.0), 0.0) == {4: 0.0}

    def test_incremental_insert_then_query(self):
        # enough rows for the numpy pass, whose cached matrix every insert
        # must invalidate
        measure = LinearMutationDistance()
        store = _VectorStore(measure)
        for graph_id in range(_SCALAR_SCAN_MAX + 1):
            store.insert((10.0 + graph_id, 10.0), graph_id)
        assert store.range_query((1.0, 2.0), 1.0) == {}
        store.insert((1.5, 2.0), 99)
        assert store.range_query((1.0, 2.0), 1.0) == {99: 0.5}

    @given(st.integers(min_value=0, max_value=50_000))
    @settings(max_examples=30, deadline=None)
    def test_agrees_with_linear_scan(self, seed):
        rng = random.Random(seed)
        measure = LinearMutationDistance()
        length = rng.randint(1, 5)
        # up to twice the scalar-scan bound: both scan paths run
        sequences = random_numeric_sequences(
            rng, rng.randint(1, 2 * _SCALAR_SCAN_MAX), length
        )
        store = _VectorStore(measure)
        reference = LinearScanBackend(measure)
        for position, sequence in enumerate(sequences):
            graph_id = position % 9
            store.insert(sequence, graph_id)
            reference.insert(sequence, graph_id)
        assert len(store) == len(reference)
        query = tuple(round(rng.uniform(0, 5), 3) for _ in range(length))
        radius = rng.choice([0.1, 0.5, 1.5, 4.0])
        expected = reference.range_query(query, radius)
        actual = store.range_query(query, radius)
        assert set(actual) == set(expected)
        for graph_id, distance in actual.items():
            assert distance == pytest.approx(expected[graph_id])
