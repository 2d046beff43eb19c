"""Tests for the fragment sequencer, per-class index, and fragment index."""

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    FragmentEnumerator,
    GraphDatabase,
    INFINITE_DISTANCE,
    LinearMutationDistance,
    MutationDistance,
    minimum_superimposed_distance,
    structure_code,
)
from repro.core.errors import (
    FeatureNotIndexedError,
    IndexNotBuiltError,
    SerializationError,
)
from repro.index import (
    EquivalenceClassIndex,
    FragmentIndex,
    FragmentSequencer,
    index_from_dict,
    index_to_dict,
    load_index,
    save_index,
)
from repro.mining import cycle_structure, path_structure

from helpers import build_graph, cycle_graph, path_graph, random_molecule


class TestFragmentSequencer:
    def test_sequence_layout(self, full_measure):
        code = structure_code(path_graph(2))
        sequencer = FragmentSequencer(code)
        assert sequencer.num_vertices == 3
        assert sequencer.num_edges == 2
        assert sequencer.sequence_length(full_measure) == 5

    def test_edge_only_sequence_length(self, edge_measure):
        sequencer = FragmentSequencer(structure_code(cycle_graph(3)))
        assert sequencer.sequence_length(edge_measure) == 3

    def test_occurrences_in_host(self, edge_measure):
        host = cycle_graph(3, edge_labels=["a", "b", "c"])
        code = structure_code(path_graph(1))
        [(found, sequences)] = FragmentEnumerator(
            [FragmentSequencer(code)], edge_measure
        ).class_sequences(
            host
        )
        assert found == code
        assert len(sequences) == 6  # 3 edges x 2 orientations
        assert set(sequences) == {("a",), ("b",), ("c",)}

    def test_sequence_for_fragment_requires_membership(self, edge_measure):
        enumerator = FragmentEnumerator(
            [FragmentSequencer(structure_code(cycle_graph(3)))], edge_measure
        )
        assert enumerator.class_sequences(path_graph(3)) == []
        [(_, vertices, edges, sequence)] = enumerator.query_fragments(
            cycle_graph(3, edge_labels=["x", "y", "z"])
        )
        assert vertices == {0, 1, 2} and len(edges) == 3
        assert sorted(sequence) == ["x", "y", "z"]


class TestEquivalenceClassIndex:
    def test_index_graph_counts_occurrences(self, edge_measure):
        code = structure_code(path_graph(1))
        index = FragmentIndex([path_graph(1)], edge_measure)
        host = path_graph(2, edge_labels=["a", "b"])
        occurrences = index.index_graph(0, host)
        assert occurrences == 4  # 2 edges x 2 orientations
        class_index = index.get_class(code)
        assert class_index.num_containing_graphs == 1
        assert class_index.containing_graphs() == {0}
        assert class_index.num_entries == 2  # deduplicated (sequence, gid)

    def test_range_query_min_distance_semantics(self, edge_measure):
        code = structure_code(path_graph(1))
        class_index = EquivalenceClassIndex(code, edge_measure)
        enumerator = FragmentEnumerator([FragmentSequencer(code)], edge_measure)
        for graph_id, graph in enumerate(
            [
                path_graph(2, edge_labels=["single", "double"]),
                path_graph(1, edge_labels=["aromatic"]),
            ]
        ):
            for _, sequences in enumerator.class_sequences(graph):
                class_index.insert_occurrences(graph_id, sequences)
        result = class_index.range_query(("single",), 0)
        assert result == {0: 0.0}
        result = class_index.range_query(("single",), 1)
        assert result == {0: 0.0, 1: 1.0}


class TestFragmentIndex:
    def test_build_and_stats(self, small_database, small_features, edge_measure):
        index = FragmentIndex(small_features, edge_measure).build(small_database)
        stats = index.stats()
        assert stats.num_classes == len(small_features)
        assert stats.num_graphs == len(small_database)
        assert stats.num_entries > 0
        assert stats.min_fragment_edges == 1
        assert stats.max_fragment_edges == 3
        assert index.fragment_size_range() == (1, 3)

    def test_feature_must_have_an_edge(self, edge_measure):
        lone_vertex = build_graph(1, [])
        with pytest.raises(ValueError):
            FragmentIndex([lone_vertex], edge_measure)

    def test_duplicate_features_collapse(self, edge_measure):
        index = FragmentIndex(
            [path_structure(2), path_graph(2), path_structure(2)], edge_measure
        )
        assert index.num_classes == 1

    def test_get_class_unknown_code(self, small_index):
        with pytest.raises(FeatureNotIndexedError):
            small_index.get_class(("bogus",))

    def test_enumerate_query_fragments_requires_build(self, small_features, edge_measure):
        index = FragmentIndex(small_features, edge_measure)
        with pytest.raises(IndexNotBuiltError):
            index.enumerate_query_fragments(path_graph(3))

    def test_query_fragments_cover_query_edges(self, small_index, small_database):
        query = small_database[0]
        fragments = small_index.enumerate_query_fragments(query)
        assert fragments
        for fragment in fragments:
            assert fragment.edges <= set(query.edges()) | {
                tuple(reversed(edge)) for edge in query.edges()
            }
            assert 1 <= fragment.num_edges <= 3
            assert fragment.num_vertices >= 2

    def test_range_query_matches_direct_distance(
        self, small_index, small_database, edge_measure
    ):
        query = small_database[3]
        fragments = small_index.enumerate_query_fragments(query)
        fragment = max(fragments, key=lambda f: f.num_edges)
        fragment_graph = query.edge_subgraph(fragment.edges)
        sigma = 2.0
        result = small_index.range_query(fragment, sigma)
        for graph_id, graph in small_database.items():
            direct = minimum_superimposed_distance(
                fragment_graph, graph, edge_measure, threshold=sigma
            )
            if direct <= sigma:
                assert result.get(graph_id) == pytest.approx(direct)
            else:
                assert graph_id not in result

    def test_incremental_index_graph(self, small_features, edge_measure):
        index = FragmentIndex(small_features, edge_measure)
        index.index_graph(0, cycle_graph(5))
        index.index_graph(1, path_graph(4))
        assert index.num_graphs == 2
        fragments = index.enumerate_query_fragments(path_graph(2))
        assert fragments

    def test_repr(self, small_index):
        assert "FragmentIndex" in repr(small_index)


class TestPersistence:
    def test_round_trip_file(self, tmp_path, small_index, small_database, edge_measure):
        path = tmp_path / "index.json"
        save_index(small_index, path)
        loaded = load_index(path)
        assert loaded.num_classes == small_index.num_classes
        assert loaded.num_graphs == small_index.num_graphs

        query = small_database[1]
        fragments = small_index.enumerate_query_fragments(query)
        fragment = fragments[0]
        assert loaded.range_query(fragment, 1.5) == small_index.range_query(fragment, 1.5)

    def test_round_trip_dict_linear_measure(self, linear_measure):
        database = GraphDatabase([cycle_graph(4), path_graph(3)])
        for graph in database:
            for (u, v) in graph.edges():
                graph.set_edge_weight(u, v, 1.5)
        index = FragmentIndex([path_structure(2)], linear_measure).build(database)
        rebuilt = index_from_dict(index_to_dict(index))
        assert rebuilt.measure.name == "linear"
        assert rebuilt.stats().num_entries == index.stats().num_entries

    @pytest.mark.parametrize("version", [1, 2, 3, 4, 5])
    def test_documents_naming_a_backend_load(self, small_index, version):
        """Documents written while the per-class store was configurable
        still load; new documents omit the keys."""
        document = index_to_dict(small_index)
        assert "backend" not in document and "backend_options" not in document
        legacy = json.loads(json.dumps(document))
        legacy.update(version=version, backend="vptree", backend_options={"seed": 2})
        loaded = index_from_dict(legacy)
        for key in ("backend", "backend_options"):
            legacy.pop(key)
        legacy["version"] = document["version"]
        assert json.dumps(index_to_dict(loaded)) == json.dumps(legacy)

    @pytest.mark.parametrize("measure_name", ["mutation", "linear"])
    def test_load_rejects_entry_of_wrong_length(self, measure_name):
        database = GraphDatabase([cycle_graph(4), path_graph(3)])
        for graph in database:
            for (u, v) in graph.edges():
                graph.set_edge_weight(u, v, 1.5)
        measure = (
            LinearMutationDistance(include_vertices=False)
            if measure_name == "linear"
            else MutationDistance(include_vertices=False)
        )
        index = FragmentIndex([path_structure(2)], measure).build(database)
        document = index_to_dict(index)
        entry = document["classes"][0]["entries"][0]
        assert len(entry["sequence"]) == 2
        entry["sequence"] = entry["sequence"][:1]
        with pytest.raises(SerializationError, match="annotations"):
            index_from_dict(document)

    def test_load_rejects_other_formats(self, tmp_path):
        from repro.core.errors import SerializationError

        path = tmp_path / "not_index.json"
        path.write_text('{"format": "something-else"}', encoding="utf-8")
        with pytest.raises(SerializationError):
            load_index(path)


class TestExactnessProperty:
    """Property: index range queries equal direct superimposed distances."""

    @given(st.integers(min_value=0, max_value=20_000))
    @settings(max_examples=10, deadline=None)
    def test_range_query_is_exact(self, seed):
        rng = random.Random(seed)
        database = GraphDatabase(
            [random_molecule(rng, num_vertices=rng.randint(6, 9)) for _ in range(6)]
        )
        from repro.core import default_edge_mutation_distance

        measure = default_edge_mutation_distance()
        features = [path_structure(1), path_structure(2), cycle_structure(3)]
        index = FragmentIndex(features, measure).build(database)

        source = database[rng.randrange(len(database))]
        from repro.datasets import sample_connected_subgraph

        query = sample_connected_subgraph(source, rng.randint(2, 4), rng)
        fragments = index.enumerate_query_fragments(query)
        if not fragments:
            return
        fragment = rng.choice(fragments)
        fragment_graph = query.edge_subgraph(fragment.edges)
        sigma = rng.choice([0, 1, 2])
        result = index.range_query(fragment, sigma)
        for graph_id, graph in database.items():
            direct = minimum_superimposed_distance(
                fragment_graph, graph, measure, threshold=sigma
            )
            if direct <= sigma:
                assert result.get(graph_id) == pytest.approx(direct)
            else:
                assert graph_id not in result
