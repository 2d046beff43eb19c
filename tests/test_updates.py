"""Tests for the incremental-update subsystem (dynamic graph database).

Covers the whole stack: tombstoned :class:`GraphDatabase` mutation, store
``delete`` support (trie and vector store), per-class removal bookkeeping,
:class:`FragmentIndex` add/remove with generation-stamped cache
invalidation, revision-keyed distance memoization, persistence schema v3,
the :class:`Engine` mutation API, the ``pis update`` CLI command, and —
most importantly — the equivalence property: after any interleaving of
adds and removes, search results are byte-identical (answer ids *and*
distances) to a from-scratch build over the same final database and to the
NaiveSearch oracle, for both the categorical and the numeric measure.
"""

from __future__ import annotations

import json
import random

import pytest

from repro.cli import main as cli_main
from repro.core import (
    GraphDatabase,
    LinearMutationDistance,
    default_edge_mutation_distance,
)
from repro.core.errors import (
    DatasetError,
    EngineError,
    IndexError_,
    SerializationError,
)
from repro.core.superimposed import best_superposition
from repro.datasets.generator import (
    generate_chemical_database,
    generate_weighted_database,
)
from repro.datasets.queries import QueryWorkload
from repro.engine import Engine, EngineConfig
from repro.index.class_index import SequenceStore
from repro.index.fragment_index import FragmentIndex
from repro.index.persistence import (
    INDEX_SCHEMA_VERSION,
    index_from_dict,
    index_to_dict,
    load_index,
    save_index,
)
from repro.mining.exhaustive import ExhaustiveFeatureSelector
from repro.search import BoundedVerifier

from helpers import LinearScanBackend, oracle_answers, random_connected_subgraph


# ----------------------------------------------------------------------
# shared setup
# ----------------------------------------------------------------------
SELECTOR_PARAMS = {
    "max_edges": 3,
    "min_support": 0.1,
    "max_features": 40,
    "sample_size": 15,
}

CATEGORICAL_CONFIG = dict(
    selector="exhaustive", selector_params=dict(SELECTOR_PARAMS)
)
NUMERIC_MEASURE = {"name": "linear", "include_vertices": False, "include_edges": True}


def chem_features(database, measure):
    """Deterministic feature set shared by incremental and rebuilt indexes."""
    return ExhaustiveFeatureSelector(**SELECTOR_PARAMS).select(database)


def answers_payload(result):
    """JSON-comparable (ids, distances) payload of one search result."""
    return (
        list(result.answer_ids),
        {graph_id: result.answer_distances[graph_id] for graph_id in result.answer_ids},
    )


# ----------------------------------------------------------------------
# dynamic GraphDatabase
# ----------------------------------------------------------------------
class TestDynamicDatabase:
    def test_remove_tombstones_without_renumbering(self):
        database = generate_chemical_database(6, seed=1)
        third = database[3]
        removed = database.remove(2)
        assert removed is not None
        assert len(database) == 5
        assert database.graph_ids() == [0, 1, 3, 4, 5]
        assert database.removed_ids() == [2]
        assert database.id_bound == 6
        assert database[3] is third  # ids are stable
        with pytest.raises(DatasetError):
            database[2]
        assert 2 not in database and 3 in database

    def test_revisions_track_slot_rebinding(self):
        database = generate_chemical_database(4, seed=1)
        assert database.revision(1) == 0
        graph = database.remove(1)
        assert database.revision(1) == 1
        assert database.add(graph, graph_id=1) == 1
        assert database.revision(1) == 2
        database.replace(1, generate_chemical_database(1, seed=9)[0])
        assert database.revision(1) == 3
        # out-of-range ids are reported as revision 0, not an error
        assert database.revision(99) == 0

    def test_generation_bumps_on_every_mutation(self):
        database = generate_chemical_database(3, seed=1)
        generation = database.generation
        database.remove(0)
        assert database.generation == generation + 1
        database.add(generate_chemical_database(1, seed=5)[0])
        assert database.generation == generation + 2

    def test_add_rejects_live_slot_and_unknown_slot(self):
        database = generate_chemical_database(3, seed=1)
        graph = database[0]
        with pytest.raises(DatasetError):
            database.add(graph, graph_id=1)  # live
        with pytest.raises(DatasetError):
            database.add(graph, graph_id=7)  # never assigned

    def test_persistence_roundtrips_tombstones_and_revisions(self, tmp_path):
        database = generate_chemical_database(5, seed=2)
        graph = database.remove(1)
        database.remove(3)
        database.add(graph, graph_id=3)
        path = tmp_path / "db.json"
        database.save(path)
        reloaded = GraphDatabase.load(path)
        assert reloaded.graph_ids() == database.graph_ids()
        assert reloaded.removed_ids() == [1]
        assert reloaded.id_bound == 5
        assert [reloaded.revision(i) for i in range(5)] == [
            database.revision(i) for i in range(5)
        ]

    def test_legacy_database_files_still_load(self, tmp_path):
        database = generate_chemical_database(3, seed=2)
        data = database.to_dict()
        assert "revisions" not in data  # never-mutated databases stay lean
        reloaded = GraphDatabase.from_dict(data)
        assert reloaded.graph_ids() == [0, 1, 2]
        assert reloaded.generation == 0


# ----------------------------------------------------------------------
# store delete support
# ----------------------------------------------------------------------
CATEGORICAL_ENTRIES = [
    (("a", "b"), 0),
    (("a", "c"), 1),
    (("b", "b"), 1),
    (("c", "c"), 2),
    (("a", "b"), 2),
]
NUMERIC_ENTRIES = [
    ((1.0, 2.0), 0),
    ((1.5, 2.5), 1),
    ((9.0, 9.0), 1),
    ((3.0, 1.0), 2),
    ((1.0, 2.0), 2),
]


def store_under_test(name):
    """A fresh store, its measure and entries: ``trie`` is the store under
    the categorical measure, ``vector`` under the numeric one, and
    ``linear`` the reference scan."""
    if name == "trie":
        measure = default_edge_mutation_distance()
        entries = CATEGORICAL_ENTRIES
    else:
        measure = LinearMutationDistance(include_vertices=False, include_edges=True)
        entries = NUMERIC_ENTRIES
    if name == "linear":
        return LinearScanBackend(measure), measure, entries
    return SequenceStore(measure, 2), measure, entries


class TestBackendDelete:
    @pytest.mark.parametrize("name", ["linear", "trie", "vector"])
    def test_delete_matches_fresh_backend(self, name):
        store, measure, entries = store_under_test(name)
        for sequence, graph_id in entries:
            store.insert(sequence, graph_id)
        removed = store.delete(1)
        assert removed == len({(s, g) for s, g in entries if g == 1})
        fresh = LinearScanBackend(measure)
        for sequence, graph_id in entries:
            if graph_id != 1:
                fresh.insert(sequence, graph_id)
        assert len(store) == len(fresh)
        assert sorted(store.entries()) == sorted(fresh.entries())
        for sequence, _ in entries:
            assert store.range_query(sequence, 100.0) == fresh.range_query(
                sequence, 100.0
            )
        # deleting an absent id is a no-op
        assert store.delete(99) == 0
        assert len(store) == len(fresh)

    def test_reinsert_after_delete(self):
        for name in ("trie", "vector"):
            store, _, entries = store_under_test(name)
            (first, _), (second, _) = entries[0], entries[1]
            store.insert(first, 0)
            store.delete(0)
            store.insert(second, 0)
            assert store.range_query(second, 0.0) == {0: 0.0}
            assert list(store.entries()) == [(second, 0)]

    def test_reinsert_after_delete_hides_stale_vectors(self):
        measure = LinearMutationDistance(include_vertices=False, include_edges=True)
        filler = [((50.0 + k, 50.0), 3) for k in range(40)]
        store = SequenceStore(measure, 2)
        for sequence, graph_id in NUMERIC_ENTRIES + filler:
            store.insert(sequence, graph_id)
        assert store.range_query((9.0, 9.0), 0.0) == {1: 0.0}
        store.delete(1)
        store.insert((7.0, 7.0), 1)
        # only the new entry of graph 1 is visible, never the old two
        assert store.range_query((9.0, 9.0), 0.0) == {}
        assert store.range_query((1.5, 2.5), 0.0) == {}
        assert store.range_query((7.0, 7.0), 0.0) == {1: 0.0}
        assert [entry for entry in store.entries() if entry[1] == 1] == [
            ((7.0, 7.0), 1)
        ]

    @pytest.mark.parametrize("name", ["trie", "vector"])
    def test_churn_matches_reference(self, name):
        # Rounds of deletes and fresh inserts: the store keeps answering
        # like the reference scan, and its memo of distinct sequences
        # (which deletes leave behind) stays bounded by the live rows.
        store, measure, _ = store_under_test(name)
        reference = LinearScanBackend(measure)
        rng = random.Random(11)
        pick = (
            (lambda: (rng.choice("abc"), rng.choice("abc")))
            if name == "trie"
            else (lambda: (round(rng.uniform(0, 5), 2), round(rng.uniform(0, 5), 2)))
        )
        for round_ in range(30):
            for graph_id in range(round_ * 4, round_ * 4 + 4):
                for _ in range(3):
                    sequence = pick()
                    store.insert(sequence, graph_id)
                    reference.insert(sequence, graph_id)
            for graph_id in range(round_ * 4 - 8, round_ * 4 - 4):
                assert store.delete(graph_id) == reference.delete(graph_id)
            assert len(store) == len(reference)
            assert sorted(store.entries()) == sorted(reference.entries())
            query = pick()
            assert store.range_query(query, 1.5) == reference.range_query(query, 1.5)
        assert len(store._sequences) <= 2 * len(store) + 32


# ----------------------------------------------------------------------
# FragmentIndex mutation
# ----------------------------------------------------------------------
class TestFragmentIndexMutation:
    @pytest.fixture
    def built(self):
        database = generate_chemical_database(10, seed=3)
        measure = default_edge_mutation_distance()
        features = chem_features(database, measure)
        index = FragmentIndex(features, measure).build(database)
        return database, measure, features, index

    def test_remove_graph_matches_rebuild(self, built):
        database, measure, features, index = built
        index.remove_graph(4)
        database.remove(4)
        rebuilt = FragmentIndex(features, measure).build(database)
        assert index.live_graph_ids() == rebuilt.live_graph_ids()
        assert index.removed_graph_ids == frozenset({4})
        for incremental, fresh in zip(index.classes(), rebuilt.classes()):
            assert incremental.containing_graphs() == fresh.containing_graphs()
            assert incremental.num_occurrences == fresh.num_occurrences
            assert incremental.occurrences_by_graph == fresh.occurrences_by_graph
            assert sorted(incremental.entries()) == sorted(fresh.entries())

    def test_add_graph_matches_rebuild(self, built):
        database, measure, features, index = built
        newcomer = generate_chemical_database(1, seed=77)[0]
        graph_id = database.add(newcomer)
        index.add_graph(graph_id, newcomer)
        rebuilt = FragmentIndex(features, measure).build(database)
        assert index.num_graphs == rebuilt.num_graphs == 11
        for incremental, fresh in zip(index.classes(), rebuilt.classes()):
            assert incremental.containing_graphs() == fresh.containing_graphs()
            assert sorted(incremental.entries()) == sorted(fresh.entries())

    def test_add_graph_rejects_live_id(self, built):
        _, _, _, index = built
        graph = generate_chemical_database(1, seed=5)[0]
        with pytest.raises(IndexError_):
            index.add_graph(3, graph)

    def test_remove_graph_rejects_dead_or_unknown_ids(self, built):
        _, _, _, index = built
        index.remove_graph(2)
        with pytest.raises(IndexError_):
            index.remove_graph(2)
        with pytest.raises(IndexError_):
            index.remove_graph(42)

    def test_generation_bumps_and_caches_invalidate(self, built):
        database, _, _, index = built
        query = QueryWorkload(database, seed=1).sample_queries(3, 1)[0]
        index.enumerate_query_fragments(query)
        assert len(index._fragment_cache) > 0
        index._distance_cache.put(("poison", 0, 0), (1.0, 2.0))
        generation = index.generation
        index.remove_graph(0)
        assert index.generation == generation + 1
        assert len(index._fragment_cache) == 0
        # removal can rebind id 0's meaning: the distance cache must go too
        assert len(index._distance_cache) == 0

    def test_pure_append_keeps_distance_cache(self, built):
        database, _, _, index = built
        index._distance_cache.put(("warm", 5, 0), (1.0, 2.0))
        newcomer = generate_chemical_database(1, seed=88)[0]
        index.add_graph(database.add(newcomer), newcomer)
        # a fresh id cannot collide with any cached (query, id, revision)
        assert len(index._distance_cache) == 1

    def test_stats_report_removed_graphs(self, built):
        _, _, _, index = built
        index.remove_graph(1)
        stats = index.stats().as_dict()
        assert stats["num_removed_graphs"] == 1
        assert stats["num_graphs"] == 10
        assert index.num_live_graphs == 9


# ----------------------------------------------------------------------
# the equivalence property (tentpole acceptance)
# ----------------------------------------------------------------------
def mutation_equivalence_scenario(weighted, seed):
    """Random add/remove interleaving; compare against a fresh rebuild."""
    if weighted:
        database = generate_weighted_database(12, seed=seed)
        pool = generate_weighted_database(10, seed=seed + 100)
        measure = LinearMutationDistance(include_vertices=False, include_edges=True)
        config = EngineConfig(
            selector="exhaustive",
            selector_params=dict(SELECTOR_PARAMS),
            measure=dict(NUMERIC_MEASURE),
        )
        sigmas = (0.8, 2.0)
    else:
        database = generate_chemical_database(12, seed=seed)
        pool = generate_chemical_database(10, seed=seed + 100)
        measure = default_edge_mutation_distance()
        config = EngineConfig(**CATEGORICAL_CONFIG)
        sigmas = (1.0, 2.0)

    engine = Engine.build(database, config)
    rng = random.Random(seed)
    pool_iter = iter(pool)
    for _ in range(8):
        live = database.graph_ids()
        if rng.random() < 0.5 and len(live) > 6:
            engine.remove_graphs([rng.choice(live)])
        else:
            try:
                engine.add_graphs([next(pool_iter)], reuse_ids=rng.random() < 0.5)
            except StopIteration:
                engine.remove_graphs([rng.choice(live)])

    queries = QueryWorkload(database, seed=seed + 1).sample_queries(4, 2)
    rebuilt = Engine.build(database, config)
    for query in queries:
        for sigma in sigmas:
            incremental = answers_payload(engine.search(query, sigma))
            fresh = answers_payload(rebuilt.search(query, sigma))
            oracle = oracle_answers(database, measure, query, sigma)
            assert incremental == fresh == oracle, (weighted, sigma)


class TestMutationEquivalence:
    def test_categorical_store_matches_rebuild(self):
        mutation_equivalence_scenario(weighted=False, seed=11)

    def test_numeric_store_matches_rebuild(self):
        mutation_equivalence_scenario(weighted=True, seed=13)

    def test_index_level_candidates_match_rebuild(self):
        """Same feature set: even the candidate sets must be identical."""
        database = generate_chemical_database(12, seed=5)
        measure = default_edge_mutation_distance()
        features = chem_features(database, measure)
        index = FragmentIndex(features, measure).build(database)
        pool = generate_chemical_database(4, seed=205)
        rng = random.Random(5)
        for graph in pool:
            victim = rng.choice(database.graph_ids())
            database.remove(victim)
            index.remove_graph(victim)
            graph_id = database.add(graph)
            index.add_graph(graph_id, graph)
        rebuilt = FragmentIndex(features, measure).build(database)
        from repro.search import PISearch

        incremental = PISearch(database, index=index)
        fresh = PISearch(database, index=rebuilt)
        for query in QueryWorkload(database, seed=6).sample_queries(4, 2):
            for sigma in (1.0, 2.0):
                assert incremental.candidates(query, sigma) == fresh.candidates(
                    query, sigma
                )


# ----------------------------------------------------------------------
# stale-distance regression (satellites 1 and 2)
# ----------------------------------------------------------------------
class TestStaleDistanceRegression:
    def test_reused_id_never_serves_stale_distance(self):
        """Delete + insert at the same id must re-verify, not replay.

        Before the update subsystem, ``FragmentIndex._invalidate_caches``
        skipped the exact-distance cache and the verifier keyed entries by
        ``(query, graph id)`` alone, so this test read the *old* graph's
        distance for the new occupant of the id.
        """
        database = generate_chemical_database(8, seed=2)
        engine = Engine.build(database, EngineConfig(**CATEGORICAL_CONFIG))
        target = 1
        rng = random.Random(3)
        query = random_connected_subgraph(database[target], num_edges=4, rng=rng)
        assert query is not None
        sigma = 4.0
        first = engine.search(query, sigma)
        assert first.answer_distances[target] == 0.0  # exact subgraph, cached

        replacement = generate_chemical_database(6, seed=404)[5]
        engine.remove_graphs([target])
        assigned = engine.add_graphs([replacement], reuse_ids=True)
        assert assigned == [target]

        truth = best_superposition(
            query, replacement, engine.measure, threshold=sigma
        ).distance
        second = engine.search(query, sigma)
        if truth <= sigma:
            assert second.answer_distances[target] == truth
        else:
            assert target not in second.answer_ids
        assert truth != 0.0  # the regression would replay the cached 0.0

    def test_private_verifier_cache_is_revision_keyed(self):
        """Even index-free verifiers must notice a database rebinding."""
        from helpers import path_graph

        database = generate_chemical_database(5, seed=4)
        measure = default_edge_mutation_distance()
        rng = random.Random(1)
        query = random_connected_subgraph(database[2], num_edges=3, rng=rng)
        assert query is not None
        verifier = BoundedVerifier(database, measure)
        _, first = verifier.verify(query, 5.0, [2])
        assert first[2] == 0.0
        # a replacement the query provably cannot superimpose at distance 0:
        # a single aromatic edge is too small to host a 3-edge query
        replacement = path_graph(1, edge_labels=["aromatic"])
        database.replace(2, replacement)
        truth = best_superposition(query, replacement, measure, threshold=5.0).distance
        assert truth != 0.0
        _, second = verifier.verify(query, 5.0, [2])
        assert second.get(2) == (truth if truth <= 5.0 else None)


# ----------------------------------------------------------------------
# persistence schema v3 (+ satellite 3: missing version)
# ----------------------------------------------------------------------
class TestPersistenceV3:
    @pytest.fixture
    def mutated_index(self):
        database = generate_chemical_database(8, seed=6)
        measure = default_edge_mutation_distance()
        features = chem_features(database, measure)
        index = FragmentIndex(features, measure).build(database)
        index.remove_graph(3)
        return index

    def test_v3_roundtrips_update_state(self, mutated_index, tmp_path):
        path = tmp_path / "index.json"
        save_index(mutated_index, path)
        data = json.loads(path.read_text())
        assert data["version"] == INDEX_SCHEMA_VERSION == 3
        assert data["removed_ids"] == [3]
        loaded = load_index(path)
        assert loaded.removed_graph_ids == frozenset({3})
        assert loaded.generation == mutated_index.generation
        assert loaded.live_graph_ids() == mutated_index.live_graph_ids()
        for fresh, original in zip(loaded.classes(), mutated_index.classes()):
            assert fresh.occurrences_by_graph == original.occurrences_by_graph

    def test_v2_loaded_index_reconciles_occurrences_on_removal(self, tmp_path):
        """v2 files lack per-graph counts; removal must not inflate totals.

        Duplicate occurrences collapse at save time, so a v2 reload only
        knows distinct-entry per-graph counts.  Removing a graph then
        reconciles the class total to the per-graph basis instead of
        leaving it permanently too high.
        """
        database = generate_chemical_database(8, seed=6)
        measure = default_edge_mutation_distance()
        features = chem_features(database, measure)
        index = FragmentIndex(features, measure).build(database)
        data = index_to_dict(index)
        data["version"] = 2
        data.pop("removed_ids")
        data.pop("generation")
        for class_data in data["classes"]:
            class_data.pop("occurrences_by_graph")
        loaded = index_from_dict(data)
        affected = [
            class_index.code
            for class_index in loaded.classes()
            if 3 in class_index.containing_graphs()
        ]
        assert affected  # the scenario must exercise the reconcile path
        before = {
            class_index.code: class_index.num_occurrences
            for class_index in loaded.classes()
        }
        loaded.remove_graph(3)
        for class_index in loaded.classes():
            if class_index.code in affected:
                # mutated classes reconcile to the per-graph basis...
                assert class_index.num_occurrences == sum(
                    class_index.occurrences_by_graph.values()
                )
            else:
                # ...while untouched classes keep their exact stored totals
                assert class_index.num_occurrences == before[class_index.code]

    def test_loaded_index_keeps_mutating_exactly(self, mutated_index, tmp_path):
        path = tmp_path / "index.json"
        save_index(mutated_index, path)
        loaded = load_index(path)
        loaded.remove_graph(0)
        mutated_index.remove_graph(0)
        for fresh, original in zip(loaded.classes(), mutated_index.classes()):
            assert fresh.num_occurrences == original.num_occurrences
            assert fresh.containing_graphs() == original.containing_graphs()

    def test_missing_version_warns_and_strict_raises(self, mutated_index, tmp_path):
        data = index_to_dict(mutated_index)
        del data["version"]
        path = tmp_path / "index.json"
        path.write_text(json.dumps(data))
        with pytest.warns(UserWarning, match="version"):
            load_index(path)
        with pytest.raises(SerializationError, match="version"):
            load_index(path, strict=True)
        with pytest.raises(SerializationError):
            index_from_dict(data, strict=True)

    def test_present_version_does_not_warn(self, mutated_index):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            index_from_dict(index_to_dict(mutated_index))


# ----------------------------------------------------------------------
# Engine update API
# ----------------------------------------------------------------------
class TestEngineUpdates:
    @pytest.fixture
    def engine(self):
        database = generate_chemical_database(10, seed=8)
        return Engine.build(database, EngineConfig(**CATEGORICAL_CONFIG))

    def test_add_graphs_assigns_fresh_ids(self, engine):
        newcomers = list(generate_chemical_database(2, seed=300))
        assert engine.add_graphs(newcomers) == [10, 11]
        assert engine.index.num_graphs == 12
        assert engine.database[11] is newcomers[1]

    def test_remove_then_reuse_ids(self, engine):
        engine.remove_graphs([2, 5])
        assert engine.database.removed_ids() == [2, 5]
        newcomers = list(generate_chemical_database(3, seed=301))
        assert engine.add_graphs(newcomers, reuse_ids=True) == [2, 5, 10]

    def test_remove_rejects_bad_batches(self, engine):
        with pytest.raises(EngineError):
            engine.remove_graphs([1, 1])
        with pytest.raises(EngineError):
            engine.remove_graphs([99])
        engine.remove_graphs([4])
        with pytest.raises(EngineError):
            engine.remove_graphs([4])

    def test_mutated_engine_roundtrips(self, engine, tmp_path):
        engine.remove_graphs([0])
        engine.add_graphs(list(generate_chemical_database(1, seed=302)))
        engine_path = tmp_path / "engine.json"
        database_path = tmp_path / "db.json"
        engine.save(engine_path)
        engine.database.save(database_path)
        database = GraphDatabase.load(database_path)
        reloaded = Engine.load(engine_path, database)
        query = QueryWorkload(database, seed=9).sample_queries(4, 1)[0]
        assert answers_payload(reloaded.search(query, 2.0)) == answers_payload(
            engine.search(query, 2.0)
        )


# ----------------------------------------------------------------------
# CLI: pis update
# ----------------------------------------------------------------------
class TestCLIUpdate:
    def test_update_roundtrip(self, tmp_path, capsys):
        db = tmp_path / "db.json"
        delta = tmp_path / "delta.json"
        engine = tmp_path / "engine.json"
        assert cli_main(["generate", "--count", "15", "--seed", "3", "--output", str(db)]) == 0
        assert (
            cli_main(
                [
                    "index",
                    "--database",
                    str(db),
                    "--max-edges",
                    "3",
                    "--engine-output",
                    str(engine),
                ]
            )
            == 0
        )
        assert cli_main(["generate", "--count", "3", "--seed", "9", "--output", str(delta)]) == 0
        capsys.readouterr()
        assert (
            cli_main(
                [
                    "update",
                    "--database",
                    str(db),
                    "--engine",
                    str(engine),
                    "--add",
                    str(delta),
                    "--remove",
                    "1,4",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "removed 2 graphs" in out
        assert "added 3 graphs" in out
        # the mutated engine + database still answer queries
        assert (
            cli_main(
                [
                    "query",
                    "--database",
                    str(db),
                    "--engine",
                    str(engine),
                    "--edges",
                    "4",
                    "--count",
                    "1",
                    "--sigma",
                    "1",
                    "--compare-naive",
                ]
            )
            == 0
        )
        assert "naive-agrees=True" in capsys.readouterr().out

    def test_update_requires_work(self, tmp_path, capsys):
        db = tmp_path / "db.json"
        engine = tmp_path / "engine.json"
        assert (
            cli_main(["update", "--database", str(db), "--engine", str(engine)]) == 2
        )
        assert "nothing to do" in capsys.readouterr().err

    def test_update_rejects_malformed_remove_list(self, tmp_path, capsys):
        db = tmp_path / "db.json"
        engine = tmp_path / "engine.json"
        assert (
            cli_main(
                [
                    "update",
                    "--database",
                    str(db),
                    "--engine",
                    str(engine),
                    "--remove",
                    "1,x",
                ]
            )
            == 2
        )
        assert "integer ids" in capsys.readouterr().err


# ----------------------------------------------------------------------
# epoch-based reader/writer isolation (PR 7)
# ----------------------------------------------------------------------
def run_epoch_schedule(engine, batches, queries, sigma=2.0, readers=2):
    """Concurrent readers vs. a batch writer; returns isolation violations.

    Stage snapshots are captured on a pickled clone (one per batch
    boundary); reader threads then hammer ``search`` while the main thread
    applies the batches to the live engine.  Under epoch isolation every
    observed result must equal one of the boundary snapshots — a
    half-applied batch would produce a payload outside the set.
    """
    import pickle
    import threading
    import time

    clone = pickle.loads(pickle.dumps(engine))
    allowed = [[answers_payload(clone.search(query, sigma))] for query in queries]
    for apply_batch in batches:
        apply_batch(clone)
        for position, query in enumerate(queries):
            payload = answers_payload(clone.search(query, sigma))
            if payload not in allowed[position]:
                allowed[position].append(payload)

    violations = []
    stop = threading.Event()

    def reader():
        while not stop.is_set():
            for position, query in enumerate(queries):
                payload = answers_payload(engine.search(query, sigma))
                if payload not in allowed[position]:
                    violations.append((position, payload))

    threads = [threading.Thread(target=reader) for _ in range(readers)]
    for thread in threads:
        thread.start()
    try:
        for apply_batch in batches:
            time.sleep(0.02)  # let readers observe the pre-batch state
            apply_batch(engine)
        time.sleep(0.02)
    finally:
        stop.set()
        for thread in threads:
            thread.join(10)
    return violations


def scripted_batches():
    delta_a = generate_chemical_database(2, seed=31)
    delta_b = generate_chemical_database(3, seed=32)
    return [
        lambda e: e.remove_graphs([2, 5]),
        lambda e: e.add_graphs(list(delta_a), reuse_ids=True),
        lambda e: e.remove_graphs([7]),
        lambda e: e.add_graphs(list(delta_b)),
    ]


class TestEpochIsolation:
    @pytest.fixture()
    def mutable_engine(self):
        database = generate_chemical_database(16, seed=11)
        return Engine.build(
            database, EngineConfig(selector_params=dict(SELECTOR_PARAMS))
        )

    def test_concurrent_readers_never_see_partial_batches(self, mutable_engine):
        queries = QueryWorkload(
            mutable_engine.database, seed=5
        ).sample_queries(4, 2)
        batches = scripted_batches()
        epoch_before = mutable_engine.index.epochs.current
        violations = run_epoch_schedule(mutable_engine, batches, queries)
        assert violations == []
        # every batch bumped the epoch exactly once
        assert mutable_engine.index.epochs.current == epoch_before + len(batches)

    def test_writer_blocks_while_reader_is_pinned(self, mutable_engine):
        import threading

        epochs = mutable_engine.index.epochs
        entered = threading.Event()
        with epochs.read():
            writer = threading.Thread(
                target=lambda: (
                    mutable_engine.remove_graphs([0]),
                    entered.set(),
                )
            )
            writer.start()
            assert not entered.wait(0.1)  # parked behind the read pin
        writer.join(10)
        assert entered.is_set()
        assert 0 not in mutable_engine.database


# ----------------------------------------------------------------------
# CLI: pis update --wal / pis recover (PR 7)
# ----------------------------------------------------------------------
class TestCLIDurableUpdate:
    def make_files(self, tmp_path):
        db = tmp_path / "db.json"
        delta = tmp_path / "delta.json"
        engine = tmp_path / "engine.json"
        assert cli_main(
            ["generate", "--count", "15", "--seed", "3", "--output", str(db)]
        ) == 0
        assert cli_main(
            ["generate", "--count", "3", "--seed", "9", "--output", str(delta)]
        ) == 0
        assert cli_main(
            [
                "index",
                "--database", str(db),
                "--max-edges", "3",
                "--engine-output", str(engine),
            ]
        ) == 0
        return db, delta, engine

    def test_wal_update_checkpoints_and_prunes(self, tmp_path, capsys):
        db, delta, engine = self.make_files(tmp_path)
        capsys.readouterr()
        assert cli_main(
            [
                "update",
                "--database", str(db),
                "--engine", str(engine),
                "--add", str(delta),
                "--remove", "1,4",
                "--wal",
            ]
        ) == 0
        assert "removed 2 graphs" in capsys.readouterr().out
        wal_dir = tmp_path / "engine.json.wal"
        assert wal_dir.is_dir()
        from repro.store import WriteAheadLog

        wal = WriteAheadLog(wal_dir)
        assert list(wal.records()) == []  # checkpoint folded + pruned the log
        assert wal.committed_lsn == 2
        # both snapshots record the checkpointed position
        assert json.loads(db.read_text())["wal"] == {"committed_lsn": 2}
        assert json.loads(engine.read_text())["index"]["wal"] == {
            "committed_lsn": 2
        }
        # the durable pair still answers queries correctly
        assert cli_main(
            [
                "query",
                "--database", str(db),
                "--engine", str(engine),
                "--edges", "4",
                "--count", "1",
                "--sigma", "1",
                "--compare-naive",
            ]
        ) == 0
        assert "naive-agrees=True" in capsys.readouterr().out

    def test_recover_after_clean_update_is_a_noop(self, tmp_path, capsys):
        db, delta, engine = self.make_files(tmp_path)
        assert cli_main(
            [
                "update",
                "--database", str(db),
                "--engine", str(engine),
                "--add", str(delta),
                "--wal",
            ]
        ) == 0
        before = (db.read_bytes(), engine.read_bytes())
        capsys.readouterr()
        assert cli_main(
            ["recover", "--database", str(db), "--engine", str(engine)]
        ) == 0
        assert "recovered to WAL record 1" in capsys.readouterr().out
        assert (db.read_bytes(), engine.read_bytes()) == before

    def test_recover_replays_an_uncheckpointed_log(self, tmp_path, capsys):
        db, delta, engine = self.make_files(tmp_path)
        # run the mutation through the API, skipping the checkpoint — the
        # same on-disk shape a crash right after the last fsync leaves
        database = GraphDatabase.load(db)
        live = Engine.load(engine, database, durability="wal")
        live.remove_graphs([1, 4])
        live.add_graphs(list(GraphDatabase.load(delta)), reuse_ids=True)
        del live
        capsys.readouterr()
        assert cli_main(
            ["recover", "--database", str(db), "--engine", str(engine)]
        ) == 0
        assert "recovered to WAL record 2" in capsys.readouterr().out
        recovered = GraphDatabase.load(db)
        assert recovered.removed_ids() == []  # reused slots are live again
        assert recovered.id_bound == 16
        assert cli_main(
            [
                "query",
                "--database", str(db),
                "--engine", str(engine),
                "--edges", "4",
                "--count", "1",
                "--sigma", "1",
                "--compare-naive",
            ]
        ) == 0
        assert "naive-agrees=True" in capsys.readouterr().out
