"""Tests for the global query planner (PR 9).

Covers :class:`repro.search.planner.GlobalPlanner` /
:class:`~repro.search.planner.QueryPlan` (replanning from the index memos,
generation stamping, pickling), the merged global range results (the
sharded merge vs. the unsharded index — bit-identical selectivity inputs,
one range memo per sharded index), the plan/execute
split in :class:`~repro.search.pis.PISearch` (sound against the
NaiveSearch oracle), the randomized property test — planned sharded search
byte-identical (ids + distances + reports) to unsharded across 1/2/4
shard topologies with interleaved add/remove mutations, and answer-
identical to the NaiveSearch oracle — the global ``num_database_graphs``
report fix, memo warming
(:meth:`Engine.warm`), ``Engine.explain``, the retired
``plan_cache_size`` key, and the ``pis explain`` / ``pis serve --warm``
CLI surface.
"""

from __future__ import annotations

import copy
import json
import pickle
import random

import pytest

from repro.cli import _load_warm_queries, main as cli_main
from repro.core import GraphDatabase, default_edge_mutation_distance
from repro.core.canonical import structure_code_cache
from repro.core.errors import EngineConfigError
from repro.datasets.generator import generate_chemical_database
from repro.datasets.queries import QueryWorkload
from repro.engine import Engine, EngineConfig
from repro.index import FragmentIndex, ShardedFragmentIndex
from repro.mining.exhaustive import ExhaustiveFeatureSelector
from repro.perf import GLOBAL_COUNTERS
from repro.search import GlobalPlanner, PISearch, QueryPlan

from helpers import oracle_answers, quick_environment

SELECTOR_PARAMS = {
    "max_edges": 3,
    "min_support": 0.1,
    "max_features": 40,
    "sample_size": 15,
}

CONFIG = dict(selector="exhaustive", selector_params=dict(SELECTOR_PARAMS))


def chem_features(database):
    return ExhaustiveFeatureSelector(**SELECTOR_PARAMS).select(database)


def answers_payload(result):
    """JSON-comparable (ids, distances) payload of one search result."""
    return (
        list(result.answer_ids),
        {graph_id: result.answer_distances[graph_id] for graph_id in result.answer_ids},
    )


def full_payload(result):
    """Byte-identity payload: answers, distances, candidates, AND report."""
    return answers_payload(result) + (
        list(result.candidate_ids),
        result.report.as_dict(),
    )


@pytest.fixture(scope="module")
def database():
    return generate_chemical_database(20, seed=7)


@pytest.fixture(scope="module")
def engines(database):
    """(unsharded, 2-shard, 4-shard) engines over copies of one database."""
    config = EngineConfig(**CONFIG)
    return tuple(
        Engine.build(copy.deepcopy(database), config, shards=shards)
        for shards in (1, 2, 4)
    )


@pytest.fixture(scope="module")
def queries(database):
    return QueryWorkload(database, seed=3).sample_queries(num_edges=6, count=3)


# ----------------------------------------------------------------------
# global fragment statistics (per-fragment range results): identical
# across topologies
# ----------------------------------------------------------------------
class TestFragmentStatistics:
    @pytest.fixture(scope="class")
    def indexes(self, database):
        features = chem_features(database)
        measure = default_edge_mutation_distance()
        unsharded = FragmentIndex(features, measure).build(database)
        sharded = ShardedFragmentIndex.build(database, features, measure, num_shards=4)
        return unsharded, sharded

    def test_sharded_bit_identical_to_unsharded(self, indexes, database):
        """The selectivity inputs — the per-fragment range results —
        never drift.

        The sharded merge is the union of the shards' disjoint maps, so
        the count and the exactly rounded distance sum the planner derives
        selectivities from, and therefore the MWIS partition, are
        identical on every topology.
        """
        import math

        unsharded, sharded = indexes
        query = QueryWorkload(database, seed=5).sample_queries(5, 1)[0]
        for fragment in unsharded.enumerate_query_fragments(query):
            for sigma in (1.0, 2.0, 3.0):
                merged = sharded.range_query(fragment, sigma)
                single = unsharded.range_query(fragment, sigma)
                assert merged == single
                assert math.fsum(merged.values()) == math.fsum(single.values())

    def test_sharded_statistics_are_cached(self, indexes, database):
        """A repeated merged range query is served from the merged range
        memo, not re-merged from every shard, and the shards' own range
        memos are never filled on the way."""
        _, sharded = indexes
        query = QueryWorkload(database, seed=5).sample_queries(5, 1)[0]
        fragment = sharded.enumerate_query_fragments(query)[0]
        before = sharded.counters.get("range_query.cache_hits", 0.0)
        first = sharded.range_query(fragment, 2.5)
        assert sharded.range_query(fragment, 2.5) is first
        assert sharded.counters.get("range_query.cache_hits", 0.0) > before
        names = [stats["name"] for stats in sharded.cache_stats()]
        assert names[0] == "range_query"
        assert all(len(shard._range_cache) == 0 for shard in sharded.shards)


# ----------------------------------------------------------------------
# GlobalPlanner: replanning from memos, generation stamping, pickling,
# plan execution
# ----------------------------------------------------------------------
class TestGlobalPlanner:
    def test_repeated_planning_hits_the_cache(self, engines, queries):
        """A repeated plan is built again, but entirely from the index's
        fragment and range memos: no enumeration, no store lookup."""
        plain, _, _ = engines
        planner = plain.planner
        assert isinstance(planner, GlobalPlanner)
        first = planner.plan(queries[0], 2.0)
        before = GLOBAL_COUNTERS.snapshot()
        second = planner.plan(queries[0], 2.0)
        delta = GLOBAL_COUNTERS.delta(before)
        assert second is not first
        assert second.as_dict() == first.as_dict()
        assert second.lower_bounds == first.lower_bounds
        assert delta.get("plan.calls", 0) == 1
        assert delta.get("range_query.cache_hits", 0) == first.num_fragments
        assert delta.get("range_query.cache_misses", 0) == 0
        assert delta.get("enumerate_query_fragments.calls", 0) == 0

    def test_repeated_search_replans_from_the_memos(self, database, queries):
        """Through the engine, a repeated search plans once more and reads
        every fragment and range result from the memos."""
        engine = Engine.build(copy.deepcopy(database), EngineConfig(**CONFIG))
        first = engine.search(queries[0], 2.0)
        before = GLOBAL_COUNTERS.snapshot()
        second = engine.search(queries[0], 2.0)
        delta = GLOBAL_COUNTERS.delta(before)
        assert full_payload(second) == full_payload(first)
        assert delta.get("plan.calls", 0) == 1
        assert delta.get("range_query.cache_misses", 0) == 0
        assert delta.get("enumerate_query_fragments.calls", 0) == 0

    def test_mutation_invalidates_via_generation_key(self, database, queries):
        engine = Engine.build(copy.deepcopy(database), EngineConfig(**CONFIG))
        first = engine.planner.plan(queries[0], 2.0)
        extra = list(generate_chemical_database(1, seed=55))
        engine.add_graphs(extra)
        second = engine.planner.plan(queries[0], 2.0)
        assert second is not first
        assert second.generation > first.generation

    def test_plan_pickles_and_executes_identically(self, engines, queries):
        plain, _, _ = engines
        strategy = plain.strategy
        assert isinstance(strategy, PISearch)
        plan = strategy.plan(queries[0], 2.0)
        restored = pickle.loads(pickle.dumps(plan))
        assert isinstance(restored, QueryPlan)
        original = strategy.execute_plan(plan)
        replayed = strategy.execute_plan(restored)
        assert replayed.candidate_ids == original.candidate_ids
        assert replayed.report.as_dict() == original.report.as_dict()

    def test_planned_outcome_sound_against_oracle(self, engines, queries):
        """Plan execution never prunes a true answer, and every Eq. 2
        lower bound is at most the exact distance."""
        plain, _, _ = engines
        strategy = plain.strategy
        for query in queries:
            for sigma in (1.0, 2.0):
                planned = strategy.execute_plan(strategy.plan(query, sigma))
                ids, distances = oracle_answers(
                    plain.database, plain.measure, query, sigma
                )
                assert set(ids) <= set(planned.candidate_ids)
                report = planned.report
                assert report.num_candidates == len(planned.candidate_ids)
                assert report.num_candidates <= report.num_structure_candidates
                for graph_id in ids:
                    bound = planned.lower_bounds.get(graph_id, 0.0)
                    assert bound <= distances[graph_id]

    def test_plan_as_dict_is_json_friendly(self, engines, queries):
        plain, _, _ = engines
        plan = plain.planner.plan(queries[0], 2.0)
        document = json.loads(json.dumps(plan.as_dict()))
        assert document["num_database_graphs"] == len(plain.database)
        assert document["num_fragments"] == plan.num_fragments
        assert document["estimated_candidates"] >= 0


# ----------------------------------------------------------------------
# global report fields: the shard-local denominator bug stays fixed
# ----------------------------------------------------------------------
class TestGlobalReportFields:
    def test_sharded_report_counts_global_graphs(self, engines, queries):
        plain, two, four = engines
        expected = len(plain.database)
        for engine in (two, four):
            result = engine.search(queries[0], 2.0)
            assert result.report.num_database_graphs == expected
            assert result.report.planned is True
            assert result.plan is not None

    def test_report_round_trips_planner_fields(self, engines, queries):
        plain, _, _ = engines
        result = plain.search(queries[0], 2.0)
        document = result.report.as_dict()
        assert document["planned"] is True
        assert document["estimated_candidates"] == result.plan.estimated_candidates


# ----------------------------------------------------------------------
# the property test: planned sharded == unsharded, byte for byte
# ----------------------------------------------------------------------
def planner_scenario(seed):
    """One random add/remove interleaving applied to 1/2/4-shard engines."""
    base = generate_chemical_database(14, seed=seed)
    config = EngineConfig(**CONFIG)
    engines = tuple(
        Engine.build(copy.deepcopy(base), config, shards=shards)
        for shards in (1, 2, 4)
    )
    plain = engines[0]
    pool = iter(generate_chemical_database(6, seed=seed + 100))
    rng = random.Random(seed)
    for _ in range(8):
        live = plain.database.graph_ids()
        if rng.random() < 0.5 and len(live) > 6:
            victim = rng.choice(live)
            for engine in engines:
                engine.remove_graphs([victim])
        else:
            try:
                graph = next(pool)
            except StopIteration:
                victim = rng.choice(live)
                for engine in engines:
                    engine.remove_graphs([victim])
                continue
            reuse = rng.random() < 0.5
            assigned = plain.add_graphs([graph], reuse_ids=reuse)
            for engine in engines[1:]:
                assert engine.add_graphs([graph], reuse_ids=reuse) == assigned

    queries = QueryWorkload(plain.database, seed=seed + 1).sample_queries(4, 2)
    for query in queries:
        for sigma in (1.0, 2.0):
            reference = full_payload(plain.search(query, sigma))
            for engine in engines[1:]:
                result = engine.search(query, sigma)
                assert result.report.planned, (seed, sigma)
                assert full_payload(result) == reference, (seed, sigma)
            oracle = oracle_answers(plain.database, plain.measure, query, sigma)
            assert reference[:2] == oracle, (seed, sigma)


class TestPlannedEquivalence:
    @pytest.mark.parametrize("seed", [17, 29])
    def test_planned_sharded_byte_identical_across_topologies(self, seed):
        planner_scenario(seed)

    def test_sharded_filter_work_equals_single_shard(self):
        """One plan per query, shipped to every shard: a 4-shard engine
        plans, range-queries and keeps candidates exactly like 1 shard."""
        environment = quick_environment()
        queries = environment.workload.sample_queries(num_edges=16, count=32)
        sharded = ShardedFragmentIndex.build(
            environment.database,
            environment.features,
            environment.measure,
            num_shards=4,
        )
        counted = ("plan.calls", "plan.range_queries", "filter.candidates")

        def run_batch(engine):
            before = GLOBAL_COUNTERS.snapshot()
            payloads = [
                answers_payload(result)
                for sigma in (1.0, 2.0)
                for result in engine.search_many(queries, sigma)
            ]
            return GLOBAL_COUNTERS.delta(before), payloads

        work, answers = [], []
        for index in (environment.index, sharded):
            index.clear_caches()
            structure_code_cache().clear()
            engine = Engine.from_index(
                environment.database, index, executor="serial"
            )
            delta, payloads = run_batch(engine)
            work.append([int(delta.get(name, 0)) for name in counted])
            answers.append(payloads)
        assert work[0] == work[1] == [64, 7884, 2046]
        assert answers[0] == answers[1]

        # A warm repeat on the sharded engine (the last one built) plans
        # every query again, entirely from the memos of the index it plans
        # over: no range-memo miss and no fragment enumeration.
        delta, payloads = run_batch(engine)
        assert delta.get("plan.calls", 0) == 64
        assert delta.get("range_query.cache_misses", 0) == 0
        assert delta.get("enumerate_query_fragments.calls", 0) == 0
        assert payloads == answers[1]

    @pytest.mark.parametrize("executor", ["serial", "thread", "process"])
    def test_executors_ship_the_same_plan(self, engines, queries, executor):
        plain, _, four = engines
        four.config = four.config.replace(executor=executor)
        try:
            for query in queries:
                reference = full_payload(plain.search(query, 2.0))
                result = four.search(query, 2.0)
                assert result.report.planned
                assert full_payload(result) == reference
        finally:
            four.config = four.config.replace(executor="thread")

    def test_search_many_ships_plans(self, engines, queries):
        plain, _, four = engines
        batch = four.search_many(queries, 2.0)
        for query, result in zip(queries, batch):
            assert result.report.planned
            assert full_payload(result) == full_payload(plain.search(query, 2.0))


# ----------------------------------------------------------------------
# warming, explain, and the retired plan-cache key
# ----------------------------------------------------------------------
class TestWarmAndExplain:
    @pytest.mark.parametrize("shards", [1, 2])
    def test_warm_fills_the_fragment_and_range_memos(
        self, database, queries, shards
    ):
        """After warming, a warmed query at a warmed sigma plans without
        enumerating or querying a store, on one shard or several."""
        engine = Engine.build(
            copy.deepcopy(database), EngineConfig(**CONFIG), shards=shards
        )
        summary = engine.warm(queries, sigmas=[1.0, 2.0])
        assert summary == {"queries": len(queries), "plans": 2 * len(queries)}
        before = GLOBAL_COUNTERS.snapshot()
        result = engine.search(queries[0], 2.0)
        delta = GLOBAL_COUNTERS.delta(before)
        assert delta.get("plan.calls", 0) == 1
        assert delta.get("range_query.cache_misses", 0) == 0
        assert delta.get("enumerate_query_fragments.calls", 0) == 0
        assert answers_payload(result) == oracle_answers(
            engine.database, engine.measure, queries[0], 2.0
        )

    def test_warm_without_sigmas_only_touches_fragments(self, database, queries):
        engine = Engine.build(copy.deepcopy(database), EngineConfig(**CONFIG))
        assert engine.warm(queries) == {"queries": len(queries), "plans": 0}

    def test_explain_reports_plan_and_actuals(self, engines, queries):
        plain, _, _ = engines
        document = plain.explain(queries[0], 2.0)
        assert document["planned"] is True
        assert document["plan"]["num_database_graphs"] == len(plain.database)
        assert document["estimated_candidates"] >= 0
        assert document["actual_candidates"] == len(
            plain.search(queries[0], 2.0).candidate_ids
        )
        assert "plan_cache" not in document
        json.dumps(document)  # JSON-friendly end to end

    @pytest.mark.parametrize("verify", [True, False])
    def test_explain_plans_once(self, database, queries, verify):
        """``explain`` reads the plan its own search ran, so it plans the
        query exactly once, with or without verification."""
        engine = Engine.build(
            copy.deepcopy(database), EngineConfig(verify=verify, **CONFIG)
        )
        before = GLOBAL_COUNTERS.snapshot()
        document = engine.explain(queries[0], 2.0)
        assert GLOBAL_COUNTERS.delta(before).get("plan.calls", 0) == 1
        assert document["plan"] is not None
        assert document["plan"]["num_fragments"] > 0

    def test_explain_of_a_cached_result_plans_nothing(self, database, queries):
        """On a started engine, the result cache returns the stored plan:
        a repeated ``explain`` plans nothing and explains the same plan."""
        engine = Engine.build(copy.deepcopy(database), EngineConfig(**CONFIG))
        with engine:
            first = engine.explain(queries[0], 2.0)
            before = GLOBAL_COUNTERS.snapshot()
            second = engine.explain(queries[0], 2.0)
            assert GLOBAL_COUNTERS.delta(before).get("plan.calls", 0) == 0
        assert second["from_cache"] is True
        assert second["plan"] == first["plan"]

    def test_plan_cache_size_config_round_trips(self):
        """``plan_cache_size`` is a retired key: a saved config that
        carries it still loads (and re-saves without it), and the
        constructor refuses it."""
        saved = EngineConfig(**CONFIG).to_dict()
        assert "plan_cache_size" not in saved
        saved["plan_cache_size"] = 16
        loaded = EngineConfig.from_dict(saved)
        assert loaded == EngineConfig(**CONFIG)
        assert "plan_cache_size" not in loaded.to_dict()
        with pytest.raises(TypeError):
            EngineConfig(plan_cache_size=16)

    def test_serving_stats_expose_plan_cache(self, engines):
        """Plans are not cached, so neither ``serving_stats`` nor
        ``profile`` reports a plan cache, sharded or not."""
        plain, _, four = engines
        for engine in (plain, four):
            assert "plan_cache" not in engine.serving_stats()
            names = {cache["name"] for cache in engine.profile()["caches"]}
            assert "plan" not in names


# ----------------------------------------------------------------------
# CLI: pis explain and the serve --warm file format
# ----------------------------------------------------------------------
class TestPlannerCLI:
    def test_explain_command(self, tmp_path, capsys):
        db_path = tmp_path / "db.json"
        engine_path = tmp_path / "engine.json"
        assert cli_main(
            ["generate", "--count", "16", "--seed", "3", "--output", str(db_path)]
        ) == 0
        assert cli_main(
            [
                "index",
                "--database", str(db_path),
                "--max-edges", "3",
                "--shards", "2",
                "--engine-output", str(engine_path),
            ]
        ) == 0
        capsys.readouterr()
        assert cli_main(
            [
                "explain",
                "--database", str(db_path),
                "--engine", str(engine_path),
                "--edges", "5",
                "--count", "2",
                "--sigma", "1.5",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert out.count("query ") == 2
        assert '"estimated_candidates"' in out
        assert '"actual_candidates"' in out
        assert '"partition"' in out
        assert '"plan_cache"' not in out

    def test_explain_requires_one_source(self, tmp_path, capsys):
        db_path = tmp_path / "db.json"
        cli_main(["generate", "--count", "8", "--output", str(db_path)])
        capsys.readouterr()
        assert cli_main(["explain", "--database", str(db_path)]) == 2

    def test_warm_file_formats(self, tmp_path, database, queries):
        full = tmp_path / "full.json"
        full.write_text(
            json.dumps(
                {
                    "sigmas": [1.0, 2.0],
                    "queries": [query.to_dict() for query in queries],
                }
            )
        )
        warm_queries, sigmas = _load_warm_queries(full)
        assert len(warm_queries) == len(queries)
        assert sigmas == [1.0, 2.0]
        assert warm_queries[0].num_edges == queries[0].num_edges

        bare = tmp_path / "bare.json"
        bare.write_text(json.dumps([query.to_dict() for query in queries]))
        warm_queries, sigmas = _load_warm_queries(bare)
        assert len(warm_queries) == len(queries)
        assert sigmas == []

        broken = tmp_path / "broken.json"
        broken.write_text('"not a workload"')
        with pytest.raises(EngineConfigError):
            _load_warm_queries(broken)

    @pytest.mark.parametrize(
        "keys, expected_sigmas",
        [
            (("sigmas", "queries"), [1.0, 2.0]),
            (("queries",), []),
            (("sigmas",), [1.0, 2.0]),
            ((), []),
        ],
        ids=["sigmas-and-queries", "queries-only", "sigmas-only", "empty-object"],
    )
    def test_warm_file_object_forms(self, tmp_path, queries, keys, expected_sigmas):
        """Either key of the object form may be left out."""
        full = {"sigmas": [1, 2.0], "queries": [query.to_dict() for query in queries]}
        path = tmp_path / "warm.json"
        path.write_text(json.dumps({key: full[key] for key in keys}))
        warm_queries, sigmas = _load_warm_queries(path)
        assert sigmas == expected_sigmas
        expected = queries if "queries" in keys else []
        assert [query.to_dict() for query in warm_queries] == [
            query.to_dict() for query in expected
        ]

    @pytest.mark.parametrize(
        "text",
        [
            "{not json",
            "3",
            '{"queries": {"name": "q"}}',
            '{"queries": [], "sigmas": 1}',
            '{"queries": [], "sigmas": ["wide"]}',
            "[1, 2]",
            '[{"vertices": [{"label": "C"}]}]',
            '[{"edges": [{"u": 0}]}]',
        ],
        ids=[
            "not-json",
            "number",
            "queries-not-a-list",
            "sigmas-not-a-list",
            "sigma-not-a-number",
            "query-not-an-object",
            "vertex-without-id",
            "edge-without-endpoint",
        ],
    )
    def test_warm_file_rejects_malformed_documents(self, tmp_path, text):
        path = tmp_path / "warm.json"
        path.write_text(text)
        with pytest.raises(EngineConfigError):
            _load_warm_queries(path)

    def test_warm_file_that_cannot_be_read(self, tmp_path):
        with pytest.raises(EngineConfigError):
            _load_warm_queries(tmp_path / "missing.json")

    def test_serve_refuses_a_malformed_warm_file(self, tmp_path, capsys, database):
        """A malformed ``--warm`` file stops ``pis serve`` with exit
        status 1 before it binds a port."""
        db_path = tmp_path / "db.json"
        database.save(db_path)
        broken = tmp_path / "broken.json"
        broken.write_text('{"queries": 7}')
        assert cli_main(
            ["serve", "--database", str(db_path), "--warm", str(broken), "--port", "0"]
        ) == 1
        assert "--warm file" in capsys.readouterr().err
