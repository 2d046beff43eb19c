"""Tests of the :mod:`repro.engine` facade, config, and registries."""

import json
import threading
import time

import pytest

from repro import (
    Engine,
    EngineConfig,
    ExhaustiveFeatureSelector,
    FragmentIndex,
    LabeledGraph,
    NaiveSearch,
    PISearch,
    QueryWorkload,
    TopoPruneSearch,
    available_selectors,
    available_strategies,
    default_edge_mutation_distance,
    generate_chemical_database,
    generate_weighted_database,
    make_selector,
    make_strategy,
)
from repro.core import (
    EngineConfigError,
    EngineError,
    IndexNotBuiltError,
    InvalidSigmaError,
    PISError,
    SerializationError,
    UnknownComponentError,
)

SELECTOR_PARAMS = {"max_edges": 3, "min_support": 0.2}
LINEAR_MEASURE = {"name": "linear", "include_vertices": False, "include_edges": True}
CONFIG = EngineConfig(selector="exhaustive", selector_params=dict(SELECTOR_PARAMS))


@pytest.fixture(scope="module")
def database():
    """The seeded 100-graph workload database."""
    return generate_chemical_database(100, seed=11)


@pytest.fixture(scope="module")
def engine(database):
    return Engine.build(database, CONFIG)


@pytest.fixture(scope="module")
def queries(database):
    return QueryWorkload(database, seed=5).sample_queries(num_edges=8, count=4)


class TestEngineConfig:
    def test_round_trip_through_dict(self):
        config = EngineConfig(
            selector="paths",
            selector_params={"max_path_edges": 3},
            measure={"name": "linear", "include_vertices": False, "include_edges": True},
            strategy="pis",
            strategy_params={"partition_method": "exact"},
            verify=False,
        )
        assert EngineConfig.from_dict(config.to_dict()) == config

    def test_round_trip_through_json(self):
        config = EngineConfig(selector_params={"max_edges": 4})
        reloaded = EngineConfig.from_dict(json.loads(json.dumps(config.to_dict())))
        assert reloaded == config

    def test_unknown_keys_rejected(self):
        with pytest.raises(EngineConfigError):
            EngineConfig.from_dict({"selector": "paths", "selector_prams": {}})

    def test_retired_store_keys_dropped(self):
        data = EngineConfig(selector_params={"max_edges": 4}).to_dict()
        assert not {"backend", "backend_options", "rebuild_threshold"} & set(data)
        retired = dict(
            data,
            backend="rtree",
            backend_options={"max_entries": 8},
            rebuild_threshold=0.5,
        )
        assert EngineConfig.from_dict(retired) == EngineConfig.from_dict(data)
        with pytest.raises(TypeError):
            EngineConfig(backend="trie")

    def test_bad_field_types_rejected(self):
        with pytest.raises(EngineConfigError):
            EngineConfig(selector="")
        with pytest.raises(EngineConfigError):
            EngineConfig(selector_params=["max_edges"])
        with pytest.raises(EngineConfigError):
            EngineConfig(measure="mutation")

    def test_live_measure_normalised_to_spec(self):
        config = EngineConfig(measure=default_edge_mutation_distance())
        assert isinstance(config.measure, dict)
        assert config.measure["name"] == "mutation"

    def test_replace_returns_modified_copy(self):
        replaced = CONFIG.replace(strategy="topoPrune")
        assert replaced.strategy == "topoPrune"
        assert CONFIG.strategy == "pis"

    def test_copies_do_not_share_nested_dicts(self):
        config = EngineConfig(selector_params={"max_edges": 3})
        replaced = config.replace(strategy="topoPrune")
        replaced.selector_params["max_edges"] = 9
        assert config.selector_params["max_edges"] == 3
        as_dict = config.to_dict()
        as_dict["selector_params"]["max_edges"] = 7
        assert config.selector_params["max_edges"] == 3


class TestRegistries:
    def test_available_names(self):
        assert {"paths", "exhaustive", "gspan", "gindex"} <= set(available_selectors())
        assert {"pis", "naive", "topoPrune", "exact-topoPrune"} <= set(
            available_strategies()
        )

    def test_unknown_selector_raises_pis_error(self):
        with pytest.raises(UnknownComponentError) as excinfo:
            make_selector("no-such-selector")
        assert isinstance(excinfo.value, PISError)
        assert "no-such-selector" in str(excinfo.value)

    def test_unknown_strategy_raises_pis_error(self, database):
        with pytest.raises(UnknownComponentError) as excinfo:
            make_strategy("no-such-strategy", database, default_edge_mutation_distance())
        assert isinstance(excinfo.value, PISError)

    def test_bad_selector_params_raise_config_error(self):
        with pytest.raises(EngineConfigError):
            make_selector("exhaustive", no_such_param=1)

    def test_index_requiring_strategy_without_index(self, database):
        with pytest.raises(EngineConfigError):
            make_strategy("pis", database, default_edge_mutation_distance())

    def test_strategy_without_measure_raises_pis_error(self, database):
        with pytest.raises(EngineConfigError):
            make_strategy("naive", database)

    def test_make_selector_builds_configured_instance(self):
        selector = make_selector("exhaustive", **SELECTOR_PARAMS)
        assert isinstance(selector, ExhaustiveFeatureSelector)
        assert selector.max_edges == 3

    def test_unknown_component_error_round_trips_through_pickle(self):
        # Process-pool workers ship exceptions back pickled; a custom
        # __init__ signature must not break that.
        import pickle

        error = UnknownComponentError("search strategy", "nope", {"pis": None})
        reloaded = pickle.loads(pickle.dumps(error))
        assert str(reloaded) == str(error)
        assert reloaded.available == ["pis"]


class TestStrategySignatures:
    """Every strategy is instantiable with (database, measure, index=None)."""

    def test_missing_index_raises(self, small_database, edge_measure):
        with pytest.raises(IndexNotBuiltError):
            PISearch(small_database, edge_measure)
        with pytest.raises(IndexNotBuiltError):
            TopoPruneSearch(small_database, edge_measure)

    def test_naive_accepts_index_kwarg(self, small_database, edge_measure, small_index):
        strategy = NaiveSearch(small_database, edge_measure, index=small_index)
        assert strategy.index is small_index


class TestEngineBuildAndSearch:
    def test_matches_manual_wiring_byte_for_byte(self, database, engine, queries):
        """Engine.build + search == manual FragmentIndex/PISearch wiring."""
        measure = default_edge_mutation_distance()
        features = ExhaustiveFeatureSelector(**SELECTOR_PARAMS).select(database)
        index = FragmentIndex(features, measure).build(database)
        manual = PISearch(database, index=index)
        for query in queries:
            from_engine = engine.search(query, 1)
            from_manual = manual.search(query, 1)
            assert from_engine.answer_ids == from_manual.answer_ids
            assert from_engine.candidate_ids == from_manual.candidate_ids
            assert from_engine.answer_distances == from_manual.answer_distances

    def test_build_with_overrides(self, database, queries):
        topo_engine = Engine.build(database, CONFIG, strategy="topoPrune")
        result = topo_engine.search(queries[0], 1)
        assert result.method == "topoPrune"

    def test_strategy_is_cached(self, engine):
        assert engine.strategy is engine.strategy

    def test_make_strategy_for_cross_checks(self, engine, queries):
        naive = engine.make_strategy("naive")
        for query in queries:
            assert set(naive.search(query, 1).answer_ids) == set(
                engine.search(query, 1).answer_ids
            )

    def test_filter_only_mode(self, database, queries):
        filter_engine = Engine.build(database, CONFIG.replace(verify=False))
        full_engine = Engine.build(database, CONFIG)
        full_result = full_engine.search(queries[0], 1)
        result = filter_engine.search(queries[0], 1)
        assert result.answer_ids == []
        assert result.candidate_ids == full_result.candidate_ids
        assert result.method.endswith("(filter-only)")
        # The full pruning report survives — it is the point of the mode.
        assert result.report.as_dict() == full_result.report.as_dict()
        assert result.report.num_query_fragments > 0

    def test_from_index_wraps_prebuilt_index(self, database, queries):
        measure = default_edge_mutation_distance()
        features = ExhaustiveFeatureSelector(**SELECTOR_PARAMS).select(database)
        index = FragmentIndex(features, measure).build(database)
        engine = Engine.from_index(database, index)
        assert engine.config.measure["name"] == "mutation"
        # Feature provenance is unknown, so the config must not pretend the
        # default selector built this index.
        assert engine.config.selector == "prebuilt"
        assert engine.search(queries[0], 1).answer_ids == PISearch(
            database, index=index
        ).search(queries[0], 1).answer_ids

    def test_stats_summarises_components(self, engine, database):
        stats = engine.stats()
        assert stats["num_graphs"] == len(database)
        assert stats["strategy"] == "pis"
        assert stats["index"]["num_classes"] == engine.index.num_classes


class TestBatchSearch:
    def test_search_many_matches_sequential(self, engine, queries):
        sequential = [engine.search(query, 1) for query in queries]
        batch = engine.search_many(queries, 1, workers=4)
        assert batch.num_queries == len(queries)
        assert batch.workers == 4 and batch.executor == "thread"
        for one, many in zip(sequential, batch):
            assert one.answer_ids == many.answer_ids
            assert one.candidate_ids == many.candidate_ids
            assert one.answer_distances == many.answer_distances

    def test_sequential_fallback(self, engine, queries):
        batch = engine.search_many(queries, 1)
        assert batch.executor == "sequential" and batch.workers == 1
        assert [result.answer_ids for result in batch] == [
            engine.search(query, 1).answer_ids for query in queries
        ]

    def test_timing_aggregation(self, engine, queries):
        batch = engine.search_many(queries, 1, workers=2)
        assert batch.wall_seconds > 0
        assert batch.total_prune_seconds >= 0
        assert batch.total_seconds == pytest.approx(
            sum(result.total_seconds for result in batch.results)
        )
        summary = batch.as_dict()
        assert summary["num_queries"] == len(queries)
        assert len(summary["results"]) == len(queries)

    def test_invalid_executor_rejected(self, engine, queries):
        with pytest.raises(EngineConfigError):
            engine.search_many(queries, 1, workers=2, executor="fibers")

    def test_writer_waits_for_one_query_of_a_serial_batch(self, monkeypatch):
        """A serial batch (every ``pis serve`` batch) pins the index per
        query: a writer that arrives during the first query is applied
        before the second one runs, not after the whole batch."""
        mutable = Engine.build(generate_chemical_database(16, seed=11), CONFIG)
        queries = QueryWorkload(mutable.database, seed=5).sample_queries(4, 3)
        written = threading.Event()
        seen = []
        search = PISearch.search

        def hooked(strategy, *args, **kwargs):
            if not seen:
                threading.Thread(
                    target=lambda: (mutable.remove_graphs([0]), written.set())
                ).start()
                time.sleep(0.1)  # the writer parks behind this query's pin
                seen.append(written.is_set())
            else:
                seen.append(written.wait(5))
            return search(strategy, *args, **kwargs)

        monkeypatch.setattr(PISearch, "search", hooked)
        batch = mutable.search_many(queries, 1)
        assert seen == [False, True, True]
        assert all(0 not in result.candidate_ids for result in batch.results[1:])


class TestEnginePersistence:
    def test_save_load_answers_identically(self, tmp_path, database, engine, queries):
        path = tmp_path / "engine.json"
        engine.save(path)
        reloaded = Engine.load(path, database)
        assert reloaded.config == engine.config
        for query in queries:
            original = engine.search(query, 1)
            from_disk = reloaded.search(query, 1)
            assert original.answer_ids == from_disk.answer_ids
            assert original.candidate_ids == from_disk.candidate_ids
            assert original.answer_distances == from_disk.answer_distances

    def test_load_rejects_wrong_database(self, tmp_path, database, engine):
        path = tmp_path / "engine.json"
        engine.save(path)
        other = generate_chemical_database(7, seed=2)
        with pytest.raises(EngineError):
            Engine.load(path, other)

    def test_load_rejects_same_size_different_database(self, tmp_path, database, engine):
        # Same graph count, different graphs: the ids in the index would
        # silently point at unrelated graphs.
        path = tmp_path / "engine.json"
        engine.save(path)
        same_size = generate_chemical_database(len(database), seed=2)
        with pytest.raises(EngineError):
            Engine.load(path, same_size)

    def test_load_rejects_non_engine_file(self, tmp_path, database):
        path = tmp_path / "bogus.json"
        path.write_text(json.dumps({"format": "something-else"}))
        with pytest.raises(SerializationError):
            Engine.load(path, database)

    def test_load_rejects_unreadable_file(self, tmp_path, database):
        with pytest.raises(SerializationError):
            Engine.load(tmp_path / "missing.json", database)

    def test_save_to_unwritable_path_raises_pis_error(self, tmp_path, engine):
        with pytest.raises(SerializationError):
            engine.save(tmp_path / "no-such-dir" / "engine.json")

    @pytest.mark.parametrize("shards", [1, 2], ids=["unsharded", "2-shards"])
    @pytest.mark.parametrize(
        "backend, options, measure",
        [
            ("auto", {}, None),
            ("trie", {}, None),
            ("vptree", {"seed": 23}, None),
            ("linear", {}, LINEAR_MEASURE),
            ("rtree", {"max_entries": 8, "min_entries": 3}, LINEAR_MEASURE),
        ],
        ids=["auto", "trie", "vptree", "linear", "rtree"],
    )
    def test_retired_backend_keys_load(
        self, tmp_path, backend, options, measure, shards
    ):
        """Engine files that still name a per-class backend load and answer
        exactly; re-saving drops the retired keys."""
        from helpers import oracle_answers

        if measure is None:
            database = generate_chemical_database(20, seed=3)
        else:
            database = generate_weighted_database(20, seed=3)
        config = EngineConfig(
            selector="paths",
            selector_params={"max_path_edges": 2, "include_cycles": False},
            measure=measure,
            shards=shards,
        )
        path = tmp_path / "engine.json"
        Engine.build(database, config).save(path)
        data = json.loads(path.read_text())
        data["config"].update(
            backend=backend, backend_options=options, rebuild_threshold=0.5
        )
        for document in [data["index"], *data["index"].get("shards", [])]:
            document.update(backend=backend, backend_options=options)
        path.write_text(json.dumps(data))

        reloaded = Engine.load(path, database)
        assert reloaded.config.shards == shards
        queries = QueryWorkload(database, seed=5).sample_queries(num_edges=4, count=2)
        for query in queries:
            for sigma in (0.5, 1.0):
                result = reloaded.search(query, sigma)
                assert (result.answer_ids, result.answer_distances) == oracle_answers(
                    database, reloaded.measure, query, sigma
                )
        reloaded.save(path)
        text = path.read_text()
        assert '"backend' not in text and '"rebuild_threshold"' not in text

    @pytest.mark.parametrize("shards", [1, 2], ids=["unsharded", "2-shards"])
    @pytest.mark.parametrize(
        "retired",
        [
            {"verifier": "auto", "verify_workers": 0, "kernel": "auto"},
            {"verifier": "legacy", "verify_workers": 0, "kernel": "legacy"},
            {"verifier": "bounded", "verify_workers": 2, "kernel": "array"},
        ],
        ids=["defaults", "legacy", "pooled"],
    )
    def test_retired_verifier_keys_load(self, tmp_path, retired, shards):
        """Engine files that still carry the verification knobs load, verify
        the one way (bounded verifier, array kernel) and answer exactly;
        re-saving drops the retired keys."""
        from helpers import oracle_answers
        from repro.search import BoundedVerifier

        database = generate_chemical_database(20, seed=3)
        config = EngineConfig(
            selector="paths",
            selector_params={"max_path_edges": 2, "include_cycles": False},
            shards=shards,
        )
        path = tmp_path / "engine.json"
        Engine.build(database, config).save(path)
        data = json.loads(path.read_text())
        data["config"].update(retired)
        path.write_text(json.dumps(data))

        reloaded = Engine.load(path, database)
        assert reloaded.config == config
        queries = QueryWorkload(database, seed=5).sample_queries(num_edges=4, count=2)
        for query in queries:
            for sigma in (0.5, 1.0):
                result = reloaded.search(query, sigma)
                assert (result.answer_ids, result.answer_distances) == oracle_answers(
                    database, reloaded.measure, query, sigma
                )
        strategies = (
            reloaded._shard_strategy_list() if shards > 1 else [reloaded.strategy]
        )
        for strategy in strategies:
            verifier = strategy.get_verifier()
            assert type(verifier) is BoundedVerifier
        reloaded.save(path)
        saved = json.loads(path.read_text())["config"]
        assert not {"verifier", "verify_workers", "kernel"} & set(saved)


class TestDegenerateSigma:
    """Each degenerate threshold has a defined answer or a typed error."""

    @pytest.fixture(scope="class")
    def small(self):
        database = generate_chemical_database(20, seed=3)
        query = QueryWorkload(database, seed=4).sample_queries(num_edges=5, count=1)[0]
        engines = [Engine.build(database, CONFIG, shards=shards) for shards in (1, 2)]
        return database, query, engines

    @pytest.mark.parametrize(
        "sigma, expected",
        [
            (0.0, "exact matches only"),
            (-1.0, "no answers"),
            (float("nan"), InvalidSigmaError),
            (float("inf"), "every live graph"),
        ],
        ids=["zero", "negative", "nan", "inf"],
    )
    def test_sigma_table(self, small, sigma, expected):
        from helpers import oracle_answers

        database, query, engines = small
        for engine in engines:
            if expected is InvalidSigmaError:
                with pytest.raises(InvalidSigmaError) as raised:
                    engine.search(query, sigma)
                assert isinstance(raised.value, EngineError)
                assert isinstance(raised.value, ValueError)
                with pytest.raises(InvalidSigmaError):
                    engine.search_many([query], sigma)
                continue
            result = engine.search(query, sigma)
            answer = (result.answer_ids, result.answer_distances)
            assert answer == oracle_answers(database, engine.measure, query, sigma)
            batch = engine.search_many([query], sigma)[0]
            assert (batch.answer_ids, batch.answer_distances) == answer
            if expected == "exact matches only":
                assert result.answer_ids
                assert set(result.answer_distances.values()) == {0.0}
            elif expected == "no answers":
                assert result.answer_ids == []
            else:
                assert result.answer_ids == database.graph_ids()


class TestDegenerateQueries:
    """Queries with no edges or several components have a defined answer:
    the oracle's.  An empty query (and a lone vertex under an edge-only
    measure) superimposes on every live graph at distance 0; a
    disconnected query is matched component by component under one
    injective vertex mapping, exactly as Definition 1 reads."""

    @pytest.fixture(scope="class")
    def database(self):
        return generate_chemical_database(20, seed=3)

    @pytest.fixture(scope="class")
    def engines(self, database):
        return {
            (shards, executor): Engine.build(
                database, CONFIG.replace(executor=executor), shards=shards
            )
            for shards in (1, 2)
            for executor in ("serial", "process")
        }

    @staticmethod
    def degenerate_query(kind):
        query = LabeledGraph(kind)
        if kind == "single-vertex":
            query.add_vertex(0, "C")
        elif kind == "disconnected":
            for vertex, label in enumerate("CCOC"):
                query.add_vertex(vertex, label)
            query.add_edge(0, 1, label="single")
            query.add_edge(2, 3, label="double")
        return query

    @pytest.mark.parametrize("kind", ["empty", "single-vertex", "disconnected"])
    @pytest.mark.parametrize("executor", ["serial", "process"])
    @pytest.mark.parametrize("shards", [1, 2], ids=["unsharded", "2-shards"])
    def test_answers_equal_oracle(self, database, engines, shards, executor, kind):
        from helpers import oracle_answers

        engine = engines[(shards, executor)]
        query = self.degenerate_query(kind)
        for sigma in (0.0, 1.0):
            expected = oracle_answers(database, engine.measure, query, sigma)
            result = engine.search(query, sigma)
            assert (result.answer_ids, result.answer_distances) == expected
            batch = engine.search_many([query, query], sigma, workers=2, executor=executor)
            for result in batch:
                assert (result.answer_ids, result.answer_distances) == expected
            if kind != "disconnected":
                assert expected[0] == database.graph_ids()
                assert set(expected[1].values()) == {0.0}
