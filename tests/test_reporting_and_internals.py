"""Additional coverage: result containers, trie internals, strategy glue,
the gIndex-selected end-to-end path, and the quickstart example script."""

import subprocess
import sys
from pathlib import Path

import pytest

from repro.core import GraphDatabase, default_edge_mutation_distance
from repro.index import FragmentIndex
from repro.index.class_index import SequenceStore
from repro.mining import GIndexFeatureSelector
from repro.search import NaiveSearch, PISearch, SearchResult, TopoPruneSearch
from repro.search.results import PruningReport
from repro.datasets import example_database, figure2_query, generate_chemical_database
from repro.datasets import QueryWorkload

from helpers import build_graph


class TestResultContainers:
    def test_search_result_properties_and_dict(self):
        result = SearchResult(
            sigma=2.0,
            candidate_ids=[1, 2, 3],
            answer_ids=[2],
            answer_distances={2: 1.0},
            prune_seconds=0.5,
            verify_seconds=1.5,
            method="pis",
        )
        assert result.num_candidates == 3
        assert result.num_answers == 1
        assert result.total_seconds == pytest.approx(2.0)
        as_dict = result.as_dict()
        assert as_dict["method"] == "pis"
        assert as_dict["num_candidates"] == 3
        assert "report" in as_dict

    def test_pruning_report_dict(self):
        report = PruningReport(
            num_database_graphs=10,
            num_query_fragments=5,
            num_fragments_after_epsilon=4,
            partition_size=2,
            partition_weight=1.23456789,
            num_structure_candidates=6,
            num_candidates=3,
        )
        as_dict = report.as_dict()
        assert as_dict["partition_weight"] == pytest.approx(1.234568)
        assert as_dict["num_candidates"] == 3


class TestTrieInternals:
    """The class store's coded rows decode back to the inserted entries."""

    def test_entries_round_trip(self, edge_measure):
        store = SequenceStore(edge_measure, 2)
        store.insert(("a", "b"), 1)
        store.insert(("a", "b"), 2)
        store.insert(("c", "d"), 1)
        entries = sorted(store.entries())
        assert entries == [(("a", "b"), 1), (("a", "b"), 2), (("c", "d"), 1)]
        assert {graph_id for _, graph_id in store.entries()} == {1, 2}
        assert store.delete(1) == 2
        assert list(store.entries()) == [(("a", "b"), 2)]


class TestStrategyGlue:
    def test_verify_filters_by_true_distance(self, small_database, edge_measure):
        naive = NaiveSearch(small_database, edge_measure)
        query = small_database[0].edge_subgraph(list(small_database[0].edges())[:4])
        answers, distances = naive.verify(query, 0, list(small_database.graph_ids()))
        assert 0 in answers
        assert distances[0] == 0.0
        result = naive.search(query, 0)
        assert result.method == "naive"
        assert result.report.num_database_graphs == len(small_database)


class TestGIndexEndToEnd:
    def test_pis_with_gindex_features_matches_naive(self):
        database = generate_chemical_database(25, seed=41)
        measure = default_edge_mutation_distance()
        features = GIndexFeatureSelector(
            min_support=0.3, max_edges=3, gamma=1.2, max_features=40
        ).select(database)
        assert features
        index = FragmentIndex(features, measure).build(database)
        query = QueryWorkload(database, seed=6).sample_queries(8, 1)[0]
        pis_result = PISearch(database, index=index).search(query, 1)
        naive_result = NaiveSearch(database, measure).search(query, 1)
        topo_result = TopoPruneSearch(database, index=index).search(query, 1)
        assert set(pis_result.answer_ids) == set(naive_result.answer_ids)
        assert set(pis_result.candidate_ids) <= set(topo_result.candidate_ids)


class TestExample1EndToEnd:
    def test_pis_answers_example1(self, edge_measure):
        from repro.mining import PathFeatureSelector

        database = example_database()
        features = PathFeatureSelector(max_path_edges=3).select(database)
        index = FragmentIndex(features, edge_measure).build(database)
        result = PISearch(database, index=index).search(figure2_query(), 1.9)
        assert sorted(result.answer_ids) == [0, 2]
        # the omephine stand-in is pruned or rejected, never answered
        assert 1 not in result.answer_ids


class TestExampleScript:
    def test_quickstart_example_runs(self):
        script = Path(__file__).resolve().parents[1] / "examples" / "quickstart.py"
        completed = subprocess.run(
            [sys.executable, str(script)],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert completed.returncode == 0, completed.stderr
        assert "verified: PIS answers match the naive scan" in completed.stdout
