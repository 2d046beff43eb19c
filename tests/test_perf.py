"""Tests of the performance subsystem: counters, caches, parallel build.

Covers:

* cache hit/miss accounting (``MemoCache``, structure-code cache, the
  fragment index's query-fragment and range-query caches);
* PIS and topoPrune candidate sets sound against the NaiveSearch oracle
  on randomized databases, across thresholds;
* parallel vs serial ``Engine.build`` producing identical indexes;
* counters surfacing in ``SearchResult`` / ``BatchSearchResult`` and
  ``Engine.profile()``;
* the versioned index schema (v2 round-trips occurrence counts, v1 files
  still load).
"""

import json

import pytest

from repro import (
    Engine,
    EngineConfig,
    LabeledGraph,
    MemoCache,
    PerfCounters,
    QueryWorkload,
    generate_chemical_database,
)
from repro.core.canonical import structure_code, structure_code_cache
from repro.index.persistence import (
    INDEX_SCHEMA_VERSION,
    index_from_dict,
    index_to_dict,
)
from repro.perf import graph_signature, skeleton_signature

from helpers import LinearScanBackend, oracle_answers


SMALL_CONFIG = EngineConfig(
    selector="exhaustive",
    selector_params={
        "max_edges": 3,
        "min_support": 0.1,
        "max_features": 60,
        "sample_size": 20,
    },
)


@pytest.fixture(scope="module")
def small_db():
    return generate_chemical_database(40, seed=11)


@pytest.fixture(scope="module")
def small_engine(small_db):
    return Engine.build(small_db, SMALL_CONFIG)


# ----------------------------------------------------------------------
# PerfCounters
# ----------------------------------------------------------------------
class TestPerfCounters:
    def test_increment_and_get(self):
        counters = PerfCounters()
        counters.increment("a")
        counters.increment("a", 2.5)
        assert counters.get("a") == 3.5
        assert counters.get("missing") == 0.0

    def test_timer_accumulates_seconds_and_calls(self):
        counters = PerfCounters()
        with counters.timer("phase"):
            pass
        with counters.timer("phase"):
            pass
        assert counters.get("phase.calls") == 2
        assert counters.get("phase.seconds") >= 0.0

    def test_delta_reports_only_changes(self):
        counters = PerfCounters()
        counters.increment("x", 5)
        before = counters.snapshot()
        counters.increment("y", 2)
        counters.increment("x", 1)
        delta = counters.delta(before)
        assert delta == {"x": 1, "y": 2}

    def test_merge_adds_values(self):
        a = PerfCounters()
        b = PerfCounters()
        a.increment("n", 1)
        b.increment("n", 2)
        b.increment("m", 4)
        a.merge(b)
        assert a.get("n") == 3 and a.get("m") == 4

    def test_mirror_receives_updates(self):
        sink = PerfCounters()
        counters = PerfCounters(mirror=sink)
        counters.increment("k", 7)
        assert sink.get("k") == 7

    def test_as_dict_is_sorted_and_rounded(self):
        counters = PerfCounters()
        counters.increment("b", 1.23456789)
        counters.increment("a")
        data = counters.as_dict()
        assert list(data) == ["a", "b"]
        assert data["b"] == 1.234568


# ----------------------------------------------------------------------
# MemoCache
# ----------------------------------------------------------------------
class TestMemoCache:
    def test_hit_miss_accounting(self):
        cache = MemoCache("t", maxsize=4)
        assert cache.get("k") is MemoCache.MISS
        cache.put("k", 41)
        assert cache.get("k") == 41
        stats = cache.stats()
        assert stats["hits"] == 1 and stats["misses"] == 1
        assert stats["size"] == 1

    def test_none_is_a_cacheable_value(self):
        cache = MemoCache("t")
        cache.put("k", None)
        assert cache.get("k") is None

    def test_lru_eviction(self):
        cache = MemoCache("t", maxsize=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")  # refresh "a": "b" becomes the LRU entry
        cache.put("c", 3)
        assert cache.get("b") is MemoCache.MISS
        assert cache.get("a") == 1
        assert cache.stats()["evictions"] == 1

    def test_size_zero_stores_nothing(self):
        cache = MemoCache("t", maxsize=0)
        cache.put("k", 1)
        assert cache.get("k") is MemoCache.MISS
        assert cache.stats()["size"] == 0 and cache.stats()["evictions"] == 0
        with pytest.raises(ValueError):
            MemoCache("t", maxsize=-1)

    def test_counters_sink_records_hits_and_misses(self):
        sink = PerfCounters()
        cache = MemoCache("probe", maxsize=4, counters=sink)
        cache.get("k")
        cache.put("k", 1)
        cache.get("k")
        assert sink.get("probe.cache_misses") == 1
        assert sink.get("probe.cache_hits") == 1


# ----------------------------------------------------------------------
# signatures and the structure-code cache
# ----------------------------------------------------------------------
class TestSignaturesAndStructureCode:
    def test_graph_signature_distinguishes_labels(self):
        a = LabeledGraph.from_edges([(0, 1)], edge_labels={(0, 1): "x"})
        b = LabeledGraph.from_edges([(0, 1)], edge_labels={(0, 1): "y"})
        c = LabeledGraph.from_edges([(0, 1)], edge_labels={(0, 1): "x"})
        assert graph_signature(a) != graph_signature(b)
        assert graph_signature(a) == graph_signature(c)

    def test_skeleton_signature_ignores_labels(self):
        a = LabeledGraph.from_edges([(0, 1)], edge_labels={(0, 1): "x"})
        b = LabeledGraph.from_edges([(0, 1)], edge_labels={(0, 1): "y"})
        assert skeleton_signature(a) == skeleton_signature(b)

    def test_structure_code_cache_hits_on_identical_content(self):
        graph = LabeledGraph.from_edges([(0, 1), (1, 2), (2, 0)])
        cache = structure_code_cache()
        first = structure_code(graph)
        hits_before = cache.stats()["hits"]
        second = structure_code(graph.copy())
        assert first == second
        assert cache.stats()["hits"] == hits_before + 1


# ----------------------------------------------------------------------
# index caches
# ----------------------------------------------------------------------
class TestIndexCaches:
    def test_query_fragment_cache_accounting(self, small_db):
        engine = Engine.build(small_db, SMALL_CONFIG)
        query = QueryWorkload(small_db, seed=5).sample_queries(8, 1)[0]
        index = engine.index
        first = index.enumerate_query_fragments(query)
        second = index.enumerate_query_fragments(query)
        assert [f.sequence for f in first] == [f.sequence for f in second]
        stats = {entry["name"]: entry for entry in index.cache_stats()}
        assert stats["query_fragments"]["hits"] >= 1
        assert stats["query_fragments"]["misses"] >= 1

    def test_range_query_cache_accounting(self, small_db):
        engine = Engine.build(small_db, SMALL_CONFIG)
        query = QueryWorkload(small_db, seed=5).sample_queries(8, 1)[0]
        engine.strategy.candidates(query, 1)
        engine.strategy.candidates(query, 1)
        stats = {entry["name"]: entry for entry in engine.index.cache_stats()}
        assert stats["range_query"]["hits"] >= 1

    def test_cache_invalidated_on_index_mutation(self, small_db):
        engine = Engine.build(small_db, SMALL_CONFIG)
        query = QueryWorkload(small_db, seed=5).sample_queries(8, 1)[0]
        index = engine.index
        index.enumerate_query_fragments(query)
        extra = generate_chemical_database(1, seed=99)[0]
        index.index_graph(len(small_db), extra)
        stats = {entry["name"]: entry for entry in index.cache_stats()}
        assert stats["query_fragments"]["size"] == 0

    def test_cached_results_equal_uncached(self, small_engine, small_db):
        queries = QueryWorkload(small_db, seed=21).sample_queries(10, 3)
        for query in queries:
            for sigma in (0, 1, 2):
                warm = small_engine.strategy.candidates(query, sigma)
                cached = small_engine.strategy.candidates(query, sigma)
                # a fresh engine has empty plan, fragment and range caches
                cold = Engine.build(small_db, SMALL_CONFIG).strategy.candidates(
                    query, sigma
                )
                assert warm == cached == cold


# ----------------------------------------------------------------------
# candidate sets vs the NaiveSearch oracle, randomized
# ----------------------------------------------------------------------
class TestCandidateSets:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_pis_and_topo_sound_against_oracle(self, seed):
        database = generate_chemical_database(30, seed=seed)
        engine = Engine.build(database, SMALL_CONFIG)
        topo = engine.make_strategy("topoPrune")
        queries = QueryWorkload(database, seed=seed + 50).sample_queries(8, 2)
        for query in queries:
            for sigma in (0, 1, 3):
                ids, distances = oracle_answers(
                    database, engine.measure, query, sigma
                )
                pis = engine.strategy.candidates(query, sigma)
                structure = topo.candidates(query, sigma)
                # PIS prunes at least as hard as structure containment and
                # never prunes a true answer
                assert pis == sorted(pis)
                assert set(ids) <= set(pis) <= set(structure)
                result = engine.search(query, sigma)
                assert (result.answer_ids, result.answer_distances) == (
                    ids,
                    distances,
                )


# ----------------------------------------------------------------------
# parallel build
# ----------------------------------------------------------------------
class TestParallelBuild:
    def test_parallel_build_identical_to_serial(self, small_db):
        serial = Engine.build(small_db, SMALL_CONFIG)
        parallel = Engine.build(small_db, SMALL_CONFIG, workers=3)
        assert json.dumps(index_to_dict(serial.index), sort_keys=True) == json.dumps(
            index_to_dict(parallel.index), sort_keys=True
        )

    def test_parallel_build_answers_identically(self, small_db):
        serial = Engine.build(small_db, SMALL_CONFIG)
        parallel = Engine.build(small_db, SMALL_CONFIG, workers=2)
        query = QueryWorkload(small_db, seed=4).sample_queries(8, 1)[0]
        assert (
            serial.search(query, 1).answer_ids == parallel.search(query, 1).answer_ids
        )


# ----------------------------------------------------------------------
# counters surfaced through results and the engine profile
# ----------------------------------------------------------------------
class TestCounterSurfacing:
    def test_search_result_carries_counters(self, small_engine, small_db):
        query = QueryWorkload(small_db, seed=6).sample_queries(8, 1)[0]
        result = small_engine.search(query, 1)
        assert result.counters.get("filter.calls") == 1
        assert "verify.candidates" in result.counters
        assert "counters" in result.as_dict()

    def test_batch_result_aggregates_counters(self, small_engine, small_db):
        queries = QueryWorkload(small_db, seed=7).sample_queries(8, 3)
        batch = small_engine.search_many(queries, 1)
        totals = batch.total_counters
        assert totals.get("filter.calls") == 3
        assert batch.as_dict()["total_counters"] == totals

    def test_engine_profile_shape(self, small_engine, small_db):
        query = QueryWorkload(small_db, seed=8).sample_queries(8, 1)[0]
        small_engine.search(query, 1)
        profile = small_engine.profile()
        assert profile["counters"].get("filter.calls", 0) >= 1
        cache_names = {entry["name"] for entry in profile["caches"]}
        assert {"query_fragments", "range_query", "structure_code"} <= cache_names
        assert profile["index"]["num_classes"] == small_engine.index.num_classes

    def test_engine_pickles_with_counters_and_caches(self, small_engine, small_db):
        # A pickled engine (counters, memo caches and all) answers like
        # the original.
        import pickle

        query = QueryWorkload(small_db, seed=15).sample_queries(8, 1)[0]
        small_engine.search(query, 1)  # populate counters and caches
        clone = pickle.loads(pickle.dumps(small_engine))
        assert clone.search(query, 1).answer_ids == small_engine.search(query, 1).answer_ids
        assert clone.index.counters.get("filter.calls") >= 1

    def test_search_many_process_executor(self, small_engine, small_db):
        queries = QueryWorkload(small_db, seed=16).sample_queries(8, 2)
        batch = small_engine.search_many(queries, 1, workers=2, executor="process")
        sequential = small_engine.search_many(queries, 1)
        assert [r.answer_ids for r in batch] == [r.answer_ids for r in sequential]

    def test_filter_only_search_reports_counters(self, small_db):
        engine = Engine.build(small_db, SMALL_CONFIG, verify=False)
        query = QueryWorkload(small_db, seed=9).sample_queries(8, 1)[0]
        result = engine.search(query, 1)
        assert result.answer_ids == []
        assert result.counters.get("filter.calls") == 1


# ----------------------------------------------------------------------
# versioned index schema
# ----------------------------------------------------------------------
class TestIndexSchema:
    def test_current_roundtrip_preserves_occurrences(self, small_engine):
        data = index_to_dict(small_engine.index)
        assert data["version"] == INDEX_SCHEMA_VERSION == 3
        reloaded = index_from_dict(data)
        assert (
            reloaded.stats().as_dict() == small_engine.index.stats().as_dict()
        )

    def test_v2_documents_still_load(self, small_engine):
        data = index_to_dict(small_engine.index)
        data["version"] = 2
        data.pop("removed_ids")
        data.pop("generation")
        for class_data in data["classes"]:
            class_data.pop("occurrences_by_graph")
        reloaded = index_from_dict(data)
        assert (
            reloaded.stats().as_dict() == small_engine.index.stats().as_dict()
        )

    def test_v1_documents_still_load(self, small_engine):
        data = index_to_dict(small_engine.index)
        data["version"] = 1
        for class_data in data["classes"]:
            class_data.pop("num_occurrences")
        reloaded = index_from_dict(data)
        assert reloaded.num_classes == small_engine.index.num_classes
        assert reloaded.stats().as_dict()["num_entries"] == (
            small_engine.index.stats().as_dict()["num_entries"]
        )

    def test_unsupported_version_rejected(self, small_engine):
        data = index_to_dict(small_engine.index)
        data["version"] = 99
        with pytest.raises(Exception):
            index_from_dict(data)

    def test_loaded_engine_answers_identically(self, small_engine, small_db):
        reloaded = Engine.from_dict(small_engine.to_dict(), small_db)
        query = QueryWorkload(small_db, seed=10).sample_queries(8, 1)[0]
        assert (
            reloaded.search(query, 1).answer_ids
            == small_engine.search(query, 1).answer_ids
        )


# ----------------------------------------------------------------------
# coded-column range scans under the linear measure
# ----------------------------------------------------------------------
class TestVectorizedScans:
    def test_vectorized_matches_backend_on_weighted_graphs(self):
        # vertices and edges are scored, so a 3-edge fragment has up to 7
        # positions; every distance must equal the reference's exactly
        from repro import generate_weighted_database

        database = generate_weighted_database(25, seed=3)
        config = EngineConfig(
            selector="exhaustive",
            selector_params={
                "max_edges": 3,
                "min_support": 0.1,
                "max_features": 40,
                "sample_size": 15,
            },
            measure={"name": "linear", "include_vertices": True, "include_edges": True},
        )
        engine = Engine.build(database, config)
        queries = QueryWorkload(database, seed=13).sample_queries(6, 2)
        for query in queries:
            for fragment in engine.index.enumerate_query_fragments(query):
                class_index = engine.index.get_class(fragment.code)
                reference = LinearScanBackend(engine.measure)
                for sequence, graph_id in class_index.entries():
                    reference.insert(sequence, graph_id)
                for sigma in (0.5, 1.5, 3.0):
                    fast = class_index.range_query(fragment.sequence, sigma)
                    slow = reference.range_query(fragment.sequence, sigma)
                    assert fast == slow
