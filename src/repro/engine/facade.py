"""The :class:`Engine` facade: one object that is the whole PIS system.

The paper presents PIS as a single coherent system — feature selection,
fragment index, partition-based search — and this module exposes it that
way: :meth:`Engine.build` turns a database plus a declarative
:class:`~repro.engine.config.EngineConfig` into a ready-to-query engine
(one fragment index, or ``config.shards`` of them built in parallel
processes), :meth:`Engine.search` / :meth:`Engine.search_many` answer SSSD
queries, and :meth:`Engine.save` / :meth:`Engine.load` round-trip the
configuration and the built index together, so a reloaded engine answers
every query identically.

Every search and batch, on one shard or many, takes one path: resolve
result-cache hits, plan the misses once on the coordinator (process
workers plan their own runs of an unsharded batch, in parallel), publish
the generation's per-shard strategies (an unsharded engine is one shard)
under a token, map :func:`_shard_task` over a :mod:`repro.exec` executor
with plain items that name the publication, and merge per query when
sharded — byte-identically to the unsharded answers.  Process workers
inherit the publication at fork, so no task ships an index or a database.

For serving, the engine has an explicit lifecycle: :meth:`Engine.start`
(also entered via ``with engine:``) switches it into *resident* mode —
executors become long-lived pools reused across every search until the
next write republishes — and a generation-keyed query-result cache
(:mod:`repro.serve`) answers repeated queries in O(1), byte-identically to
a fresh search.  :meth:`Engine.close` shuts the pools down and drops the
cache; an engine that is never started uses per-call executors and no
result cache.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
import weakref
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple, Union

from ..core.database import GraphDatabase
from ..core.distance import DistanceMeasure
from ..core.errors import (
    EngineConfigError,
    EngineError,
    InvalidSigmaError,
    SerializationError,
    StaleShardStateError,
    WalError,
)
from ..core.graph import LabeledGraph
from ..exec import Executor, ProcessExecutor, available_executors, make_executor
from ..index.fragment_index import FragmentIndex
from ..index.persistence import (
    index_from_dict,
    index_to_dict,
    index_wal_position,
    measure_to_dict,
)
from ..index.sharded import (
    ShardDatabaseView,
    ShardedFragmentIndex,
    merge_search_results,
)
from ..mining.registry import make_selector
from ..perf import PerfCounters
from ..core.canonical import structure_code_cache
from ..search.partition import check_partition_params
from ..search.planner import GlobalPlanner, QueryPlan
from ..search.registry import make_strategy, strategy_class
from ..search.results import PruningReport, SearchResult
from ..search.strategy import SearchStrategy
from ..serve.cache import QueryResultCache, engine_fingerprint
from ..store.atomic import atomic_write_text
from ..store.wal import WriteAheadLog
from .config import EngineConfig

__all__ = ["Engine", "BatchSearchResult"]

ENGINE_FORMAT = "pis-engine"


@dataclass
class BatchSearchResult:
    """Results of one batched :meth:`Engine.search_many` call.

    Holds the per-query :class:`~repro.search.results.SearchResult` objects
    in query order plus the aggregate timing of the batch: ``wall_seconds``
    is the elapsed wall clock of the whole batch (which, with workers,
    is less than the summed per-query time), while the ``total_*``
    properties aggregate the per-query phase timings.
    """

    sigma: float
    results: List[SearchResult] = field(default_factory=list)
    wall_seconds: float = 0.0
    workers: int = 1
    executor: str = "sequential"

    def __len__(self) -> int:
        return len(self.results)

    def __iter__(self) -> Iterator[SearchResult]:
        return iter(self.results)

    def __getitem__(self, position: int) -> SearchResult:
        return self.results[position]

    @property
    def num_queries(self) -> int:
        """Number of queries in the batch."""
        return len(self.results)

    @property
    def total_prune_seconds(self) -> float:
        """Summed filtering time across all queries."""
        return sum(result.prune_seconds for result in self.results)

    @property
    def total_verify_seconds(self) -> float:
        """Summed verification time across all queries."""
        return sum(result.verify_seconds for result in self.results)

    @property
    def total_seconds(self) -> float:
        """Summed per-query processing time (>= wall_seconds with workers)."""
        return sum(result.total_seconds for result in self.results)

    @property
    def total_answers(self) -> int:
        """Total number of answers across all queries."""
        return sum(result.num_answers for result in self.results)

    @property
    def total_counters(self) -> Dict[str, float]:
        """Per-query performance counters summed over the batch."""
        totals = PerfCounters()
        for result in self.results:
            totals.merge(result.counters)
        return totals.as_dict()

    @property
    def total_candidates(self) -> int:
        """Total number of verified candidates across all queries."""
        return sum(result.num_candidates for result in self.results)

    def as_dict(self) -> Dict[str, Any]:
        """Return a JSON-friendly summary of the batch."""
        return {
            "sigma": self.sigma,
            "num_queries": self.num_queries,
            "workers": self.workers,
            "executor": self.executor,
            "wall_seconds": round(self.wall_seconds, 6),
            "total_prune_seconds": round(self.total_prune_seconds, 6),
            "total_verify_seconds": round(self.total_verify_seconds, 6),
            "total_candidates": self.total_candidates,
            "total_answers": self.total_answers,
            "total_counters": self.total_counters,
            "results": [result.as_dict() for result in self.results],
        }


def _database_fingerprint(database: GraphDatabase) -> Dict[str, int]:
    """A cheap database identity check for :meth:`Engine.load`.

    Size totals catch the common mistake — loading an engine against a
    different database of the same length — without the cost of hashing
    every graph.
    """
    return {
        "num_graphs": len(database),
        "total_vertices": sum(graph.num_vertices for graph in database),
        "total_edges": sum(graph.num_edges for graph in database),
    }


def _check_sigma(sigma: float) -> None:
    """Reject a NaN threshold (see :class:`InvalidSigmaError`)."""
    if sigma != sigma:  # NaN is the only value unequal to itself
        raise InvalidSigmaError(f"sigma must be a number, got {sigma!r}")


def _filter_only_search(
    strategy: SearchStrategy,
    query: LabeledGraph,
    sigma: float,
    plan: Optional[QueryPlan],
) -> SearchResult:
    """Run one query's filtering phase only (``EngineConfig.verify=False``).

    The answer set is left empty on purpose; strategies exposing a full
    pruning report (PIS) keep it, so filter-only mode remains usable for
    pruning-power studies over any strategy.  ``plan`` is the query's plan
    (``None`` for strategies that do not plan).
    """
    before = strategy.counters.snapshot()
    start = time.perf_counter()
    if hasattr(strategy, "filter_candidates"):
        # Keep the strategy's full pruning report — filter-only mode
        # exists precisely to study it.
        outcome = strategy.filter_candidates(query, sigma, plan=plan)
        candidate_ids = outcome.candidate_ids
        report = outcome.report
    else:
        candidate_ids = strategy.candidates(query, sigma)
        report = PruningReport(
            num_database_graphs=len(strategy.database),
            num_candidates=len(candidate_ids),
        )
    prune_seconds = time.perf_counter() - start
    return SearchResult(
        sigma=sigma,
        candidate_ids=list(candidate_ids),
        answer_ids=[],
        prune_seconds=prune_seconds,
        report=report,
        method=f"{strategy.name}(filter-only)",
        counters=strategy.counters.delta(before),
        plan=plan,
    )


_PUBLICATION_TOKENS = itertools.count()


class _Publication:
    """One generation's per-shard strategies, published for scatter tasks.

    Each strategy pairs a shard's :class:`FragmentIndex` with its
    :class:`~repro.index.ShardDatabaseView`; an unsharded engine publishes
    its own strategy as the one shard.  ``token`` is unique per publication
    within a process, so a task can never pick up another engine's shards,
    nor a republished engine's previous ones.
    """

    __slots__ = ("token", "generation", "strategies", "__weakref__")

    def __init__(self, generation: int, strategies: List[SearchStrategy]):
        self.token = next(_PUBLICATION_TOKENS)
        self.generation = generation
        self.strategies = strategies


#: token -> publication.  A module global because a task can reach nothing
#: else by name: process workers forked after a publication inherit this
#: registry, so scatter items carry the token, not the shards.  Weak
#: values: an entry lives as long as its engine keeps it current.
_PUBLISHED: "weakref.WeakValueDictionary[int, _Publication]" = (
    weakref.WeakValueDictionary()
)


def _shard_task(item: Dict[str, Any]) -> List[SearchResult]:
    """The executor task of every search: one shard, a run of queries.

    ``item`` is plain data: the publication ``token`` and index
    ``generation`` the coordinator published under, the ``shard`` position,
    the ``queries`` with their coordinator-side ``plans`` (``None``: plan
    each query here, over ``num_graphs`` live graphs), ``sigma`` and the
    ``verify`` flag.  The shard itself comes from :data:`_PUBLISHED` —
    looked up in-process by the serial and thread executors, inherited at
    fork by process workers.  A task whose publication this process does
    not hold raises :class:`~repro.core.errors.StaleShardStateError`
    instead of answering from stale shards.  Queries run sequentially,
    against a copy of the shard's strategy with a private counter sink that
    mirrors into the shard's, so each result's counters hold this task's
    work only, however many tasks run at once.
    """
    published = _PUBLISHED.get(item["token"])
    if published is None or published.generation != item["generation"]:
        held = "none" if published is None else f"generation {published.generation}"
        raise StaleShardStateError(
            f"scatter task for publication {item['token']} at generation "
            f"{item['generation']}, but this process holds {held}"
        )
    shard = published.strategies[item["shard"]]
    strategy = shard.with_counters(PerfCounters(mirror=shard.counters))
    sigma = item["sigma"]
    plans = item["plans"]
    results: List[SearchResult] = []
    for position, query in enumerate(item["queries"]):
        if plans is None:
            plan, seconds, delta = _plan_counted(
                shard.planner, query, sigma, item["num_graphs"], [shard.counters]
            )
        else:
            plan, seconds, delta = plans[position], 0.0, {}
        if item["verify"]:
            result = strategy.search(query, sigma, plan=plan)
        else:
            result = _filter_only_search(strategy, query, sigma, plan=plan)
        results.append(_with_planning(result, seconds, delta))
    return results


def _plan_counted(
    planner: GlobalPlanner,
    query: LabeledGraph,
    sigma: float,
    num_graphs: int,
    sinks: List[PerfCounters],
) -> Tuple[QueryPlan, float, Dict[str, float]]:
    """Plan one query: ``(plan, seconds, delta)``, where ``delta`` is the
    planning's counter delta summed over ``sinks``, every sink it feeds."""
    before = [sink.snapshot() for sink in sinks]
    start = time.perf_counter()
    plan = planner.plan(query, sigma, num_graphs=num_graphs)
    seconds = time.perf_counter() - start
    delta = PerfCounters()
    for sink, snapshot in zip(sinks, before):
        delta.merge(sink.delta(snapshot))
    return plan, seconds, delta.snapshot()


def _with_planning(
    result: SearchResult, seconds: float, delta: Dict[str, float]
) -> SearchResult:
    """Fold one query's planning into its result."""
    result.prune_seconds += seconds
    if delta:
        counters = PerfCounters()
        counters.merge(delta)
        counters.merge(result.counters)
        result.counters = counters.snapshot()
    return result


class Engine:
    """Facade over feature selection, fragment index, and search.

    Build one with :meth:`Engine.build` (from a database and a config),
    :meth:`Engine.from_index` (around an already-built index), or
    :meth:`Engine.load` (from a file written by :meth:`save`).
    """

    def __init__(
        self,
        database: GraphDatabase,
        config: EngineConfig,
        index: Union[FragmentIndex, ShardedFragmentIndex],
    ):
        self.database = database
        self.index = index
        self._strategy: Optional[SearchStrategy] = None
        self._planner: Optional[GlobalPlanner] = None
        self._started = False
        self._resident_executors: Dict[Tuple[str, int], Executor] = {}
        self._published: Optional[_Publication] = None
        self._publish_lock = threading.Lock()
        self._result_cache: Optional[QueryResultCache] = None
        self._wal: Optional[WriteAheadLog] = None
        self._wal_applied_lsn = 0
        self.config = config  # property setter validates

    @property
    def config(self) -> EngineConfig:
        """The engine's declarative configuration.

        Assigning a new config (e.g. ``engine.config =
        engine.config.replace(strategy_params={"epsilon": 0.1})``) drops
        the cached strategy, so the next query is answered under the new
        settings regardless of whether the engine has been queried before.
        """
        return self._config

    @config.setter
    def config(self, value: EngineConfig) -> None:
        if not isinstance(value, EngineConfig):
            raise EngineConfigError(
                f"config must be an EngineConfig, got {type(value).__name__}"
            )
        if self._supports_planning(value.strategy):
            # Reject a bad partition config now, not on the first search.
            params = value.strategy_params
            check_partition_params(
                params.get("partition_method", "greedy"),
                params.get("partition_k", 2),
            )
        self._config = value
        self._strategy = None
        self._shard_strategies: Optional[List[SearchStrategy]] = None
        self._fingerprint: Optional[str] = None
        # The planner's parameters (epsilon, cutoff, MWIS method) all come
        # from the config, so a new config needs a new planner.  Mutations
        # keep it: the planner holds no state that a write can make stale.
        self._planner = None

    # ------------------------------------------------------------------
    # serving lifecycle (resident pools + result cache)
    # ------------------------------------------------------------------
    @property
    def started(self) -> bool:
        """Whether the engine is in resident (serving) mode."""
        return self._started

    @property
    def result_cache(self) -> Optional[QueryResultCache]:
        """The query-result cache (``None`` unless the engine is started)."""
        return self._result_cache

    def start(self, result_cache_size: Optional[int] = None) -> "Engine":
        """Switch into resident mode: long-lived pools + result cache.

        After ``start()``, every executor the engine's searches run on is
        created once, started, and reused across calls — worker processes
        survive between queries until a write republishes the shards,
        which retires every resident process pool forked before it — and
        repeated queries are answered from a bounded
        :class:`~repro.serve.QueryResultCache` keyed by query content,
        sigma, the engine fingerprint, and the index generation (so
        mutations can never serve stale answers).

        ``result_cache_size`` overrides the config's ``result_cache_size``;
        ``0`` starts resident pools without a result cache.  Idempotent;
        also available as a context manager (``with engine: ...``), which
        guarantees :meth:`close`.
        """
        if self._started:
            return self
        self._started = True
        size = (
            self.config.result_cache_size
            if result_cache_size is None
            else int(result_cache_size)
        )
        if size > 0:
            self._result_cache = QueryResultCache(
                size, counters=self.index.counters
            )
        return self

    def close(self) -> None:
        """Leave resident mode: shut down pools, drop the result cache.

        Idempotent.  A closed engine keeps answering queries — it just
        reverts to per-call executors and uncached searches.
        """
        for executor in self._resident_executors.values():
            executor.close()
        self._resident_executors.clear()
        self._result_cache = None
        self._started = False

    def __enter__(self) -> "Engine":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def serving_stats(self) -> Dict[str, Any]:
        """JSON-friendly serving-side view of the engine state."""
        return {
            "started": self._started,
            "num_graphs": len(self.database),
            "index_generation": self.index.generation,
            "shards": self.index.num_shards if self.is_sharded else 1,
            "result_cache": (
                self._result_cache.stats()
                if self._result_cache is not None
                else None
            ),
            "resident_executors": [
                {"executor": name, "workers": workers}
                for name, workers in sorted(self._resident_executors)
            ],
            "verify": self._verify_stats(),
        }

    def __getstate__(self) -> Dict[str, Any]:
        # No query path pickles an engine, but copies (pickle, deepcopy)
        # must stay cold: resident pools and the result cache are
        # per-process resources and must not ride along (the Executor base
        # also refuses to pickle live pools).
        state = dict(self.__dict__)
        state["_started"] = False
        state["_resident_executors"] = {}
        state["_result_cache"] = None
        # Worker copies must never log to the parent's write-ahead log:
        # the parent already committed the batch before the copy was made.
        state["_wal"] = None
        # A copy publishes its own shards: reusing the original's
        # publication token would scatter over the original's state.
        state["_published"] = None
        state["_shard_strategies"] = None
        del state["_publish_lock"]
        return state

    def __setstate__(self, state: Dict[str, Any]) -> None:
        self.__dict__.update(state)
        self._publish_lock = threading.Lock()

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        database: GraphDatabase,
        config: Optional[EngineConfig] = None,
        workers: Optional[int] = None,
        shards: Optional[int] = None,
        **overrides,
    ) -> "Engine":
        """Build an engine from scratch: select features, index, wire search.

        ``overrides`` replace individual config fields, so quick variants
        read naturally: ``Engine.build(db, strategy="topoPrune")``; the
        ``shards`` parameter overrides ``config.shards`` the same way.

        With one shard (the default), ``workers > 1`` parallelizes fragment
        enumeration — the dominant build cost — across a process pool
        (:meth:`repro.index.FragmentIndex.build`).  With ``shards > 1``,
        whole shards build in parallel worker processes instead —
        enumeration *and* store insertion
        (:meth:`repro.index.ShardedFragmentIndex.build`).  Either way the
        result is identical to a serial build.
        """
        if config is None:
            config = EngineConfig()
        if overrides:
            config = config.replace(**overrides)
        if shards is not None:
            config = config.replace(shards=int(shards))
        measure = config.make_measure()
        selector = make_selector(config.selector, **config.selector_params)
        features = selector.select(database)
        if config.shards > 1:
            index: Union[FragmentIndex, ShardedFragmentIndex] = (
                ShardedFragmentIndex.build(
                    database,
                    features,
                    measure,
                    num_shards=config.shards,
                    workers=workers,
                )
            )
        else:
            index = FragmentIndex(features, measure).build(database, workers=workers)
        return cls(database, config, index)

    @classmethod
    def from_index(
        cls,
        database: GraphDatabase,
        index: Union[FragmentIndex, ShardedFragmentIndex],
        config: Optional[EngineConfig] = None,
        **overrides,
    ) -> "Engine":
        """Wrap an already-built fragment index in an engine.

        The config's measure is taken from the index so that a subsequent
        :meth:`save` captures the semantics the index was built with.  When
        no config is supplied the feature provenance is unknown, so the
        selector is recorded as ``"prebuilt"`` — an unregistered name that
        makes :meth:`build` fail loudly rather than silently rebuilding a
        different index from a made-up selector claim.
        """
        if config is None:
            config = EngineConfig(selector="prebuilt")
        if overrides:
            config = config.replace(**overrides)
        config = config.replace(measure=measure_to_dict(index.measure))
        if isinstance(index, ShardedFragmentIndex):
            # The index is the ground truth for the sharding topology.
            config = config.replace(shards=index.num_shards)
        return cls(database, config, index)

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def measure(self) -> DistanceMeasure:
        """The distance measure the engine's index was built with."""
        return self.index.measure

    @property
    def is_sharded(self) -> bool:
        """Whether the engine's index is partitioned across shards."""
        return isinstance(self.index, ShardedFragmentIndex)

    @property
    def strategy(self) -> SearchStrategy:
        """The configured search strategy (built lazily, then cached)."""
        if self._strategy is None:
            self._strategy = self.make_strategy(
                self.config.strategy, **self.config.strategy_params
            )
            if hasattr(self._strategy, "planner"):
                # Share the engine-owned planner: a direct
                # ``engine.strategy.search`` then plans like the engine.
                self._strategy.planner = self._ensure_planner()
        return self._strategy

    # ------------------------------------------------------------------
    # global query planning
    # ------------------------------------------------------------------
    def _ensure_planner(self) -> GlobalPlanner:
        """The engine-owned :class:`~repro.search.planner.GlobalPlanner`.

        Built once per config from the strategy's pruning parameters; it
        survives index mutations, which only the index's memos track.
        """
        if self._planner is None:
            params = self.config.strategy_params
            self._planner = GlobalPlanner(
                self.index,
                epsilon=params.get("epsilon", 0.0),
                cutoff_lambda=params.get("cutoff_lambda", 1.0),
                partition_method=params.get("partition_method", "greedy"),
                partition_k=params.get("partition_k", 2),
                counters=self.index.counters,
            )
        return self._planner

    @property
    def planner(self) -> Optional[GlobalPlanner]:
        """The engine's query planner, or ``None`` for non-planning
        strategies (the baselines have no plan/execute split)."""
        if self._supports_planning():
            return self._ensure_planner()
        return None

    def _supports_planning(self, strategy: Optional[str] = None) -> bool:
        """Whether the configured (or named) strategy has a plan/execute
        split."""
        try:
            return hasattr(
                strategy_class(strategy or self.config.strategy), "execute_plan"
            )
        except Exception:
            return False

    def _global_database_size(self) -> int:
        """The global live-graph count ``n`` used as the selectivity
        denominator — never any shard-local size."""
        return max(self.index.num_live_graphs, len(self.database))

    def _counter_sinks(self) -> List[PerfCounters]:
        """The index's counter sink and, when sharded, every shard's."""
        sinks = [self.index.counters]
        if self.is_sharded:
            sinks.extend(shard.counters for shard in self.index.shards)
        return sinks

    def plan_queries(
        self, queries: Sequence[LabeledGraph], sigma: float
    ) -> Optional[List[QueryPlan]]:
        """Plan each query once, or ``None`` when the strategy does not
        plan.  Searches plan with the same planner and ship the plans to
        their tasks."""
        if not self._supports_planning():
            return None
        num_graphs = self._global_database_size()
        planner = self._ensure_planner()
        return [planner.plan(query, sigma, num_graphs=num_graphs) for query in queries]

    def warm(
        self,
        queries: Sequence[LabeledGraph],
        sigmas: Sequence[float] = (),
    ) -> Dict[str, int]:
        """Pre-populate the query-side memos for an expected workload.

        Enumerates each query's fragments into the index's fragment memo
        and, when the strategy plans, plans each ``(query, sigma)`` pair,
        which fills the range memo with the range queries those plans
        issue.  Plans themselves are not kept.  The memos are dropped by
        the next write, so warming pays until then.  ``pis serve --warm``
        calls this on startup so the first real queries find warm memos.

        Returns ``{"queries": ..., "plans": ...}``: the queries enumerated
        and the ``(query, sigma)`` pairs planned.
        """
        queries = list(queries)
        for query in queries:
            self.index.enumerate_query_fragments(query)
        planned = 0
        for sigma in sigmas:
            planned += len(self.plan_queries(queries, float(sigma)) or ())
        return {"queries": len(queries), "plans": planned}

    def explain(self, query: LabeledGraph, sigma: float) -> Dict[str, Any]:
        """Search one query and compare its plan against the actuals.

        Returns a JSON-friendly document with the plan the search ran
        (chosen partition, per-fragment selectivities, estimated
        candidates; ``None`` for strategies that do not plan) and the
        actual candidate/answer counts.  The query is planned once, by the
        search itself.  Powers the ``pis explain`` CLI command.
        """
        result = self.search(query, sigma)
        plan = result.plan
        return {
            "sigma": sigma,
            "plan": plan.as_dict() if plan is not None else None,
            "planned": result.report.planned,
            "estimated_candidates": (
                plan.estimated_candidates if plan is not None else None
            ),
            "actual_candidates": result.report.num_candidates,
            "num_structure_candidates": result.report.num_structure_candidates,
            "num_answers": result.num_answers,
            "method": result.method,
            "from_cache": result.from_cache,
        }

    def make_strategy(self, name: str, **params) -> SearchStrategy:
        """Build any registered strategy over this engine's database/index.

        ``params`` go to the strategy's constructor unchanged.  Strategies
        built here verify like the engine does (the bounded verifier over
        the array kernel), except ``make_strategy("naive")``, which is the
        oracle: it verifies every live graph with the reference search.
        On a sharded engine the strategy is built over the *merged* index
        view — it answers over the whole database, exactly like a strategy
        over an unsharded index — and its verifier owns a private distance
        cache (the engine's shard tasks use each shard's cache).
        """
        return make_strategy(
            name, self.database, measure=self.measure, index=self.index, **params
        )

    # ------------------------------------------------------------------
    # the query pipeline: plan, publish, scatter, merge
    # ------------------------------------------------------------------
    def _shard_strategy_list(self) -> List[SearchStrategy]:
        """The strategies scatter tasks run, one per shard (built lazily,
        then cached until the next write or config change).

        An unsharded engine is one shard: its own :attr:`strategy`.  On a
        sharded engine each strategy pairs one shard's fragment index with
        a :class:`~repro.index.ShardDatabaseView` restricted to the shard's
        graph ids, so filtering, fallbacks, and verification are all
        shard-local.
        """
        if self._shard_strategies is None and not self.is_sharded:
            self._shard_strategies = [self.strategy]
        elif self._shard_strategies is None:
            index: ShardedFragmentIndex = self.index
            self._shard_strategies = [
                make_strategy(
                    self.config.strategy,
                    ShardDatabaseView(self.database, index.num_shards, position),
                    measure=shard.measure,
                    index=shard,
                    **self.config.strategy_params,
                )
                for position, shard in enumerate(index.shards)
            ]
        return self._shard_strategies

    def _publish(
        self, executor_name: str, workers: int
    ) -> Tuple[_Publication, Executor]:
        """Publish this generation's shards; return them with the pool.

        A new publication is made when the shard strategies were rebuilt
        (after a write or a config change) or the index generation moved.
        The pool is a fresh per-call executor on an unstarted engine; on a
        started one it is *resident*, created and started on first use and
        reused by every later call of the same shape.  Workers of a
        resident process pool hold what they inherited at fork, so a new
        publication also closes every resident process pool; the pool
        returned here is then forked afresh, after the publication.  One
        lock covers both steps, so concurrent searches never map over a
        pool forked before the publication they scatter under.
        """
        with self._publish_lock:
            strategies = self._shard_strategy_list()
            published = self._published
            if (
                published is None
                or published.strategies is not strategies
                or published.generation != self.index.generation
            ):
                published = _Publication(self.index.generation, strategies)
                _PUBLISHED[published.token] = published
                self._published = published
                for key, stale in list(self._resident_executors.items()):
                    if isinstance(stale, ProcessExecutor):
                        del self._resident_executors[key]
                        stale.close()
            key = (executor_name, workers)
            pool = self._resident_executors.get(key)
            if pool is None:
                pool = make_executor(
                    executor_name, workers=workers, counters=self.index.counters
                )
                if self._started:
                    self._resident_executors[key] = pool.start()
        return published, pool

    def _compute(
        self,
        queries: List[LabeledGraph],
        sigma: float,
        executor_name: str,
        workers: int,
    ) -> List[SearchResult]:
        """Answer the queries through one scatter; see :meth:`search_many`.

        Plans every query once on the coordinator, publishes, and maps
        :func:`_shard_task` over plain items — the publication token, shard
        position and generation, the queries with their plans, sigma and
        the verify flag.  Each shard of a sharded engine takes the whole
        batch and the per-shard results merge per query
        (:func:`repro.index.merge_search_results`); the one shard of an
        unsharded engine is split into ``workers`` contiguous runs of
        queries whose results come back unchanged.  Process workers'
        counter deltas merge into the index's sink, so :meth:`profile`
        sees the work wherever it ran.  Each result absorbs its query's
        planning time and counters (over every sink planning feeds).
        """
        if self.is_sharded:
            num_shards = self.index.num_shards
            runs = [(shard, 0, len(queries)) for shard in range(num_shards)]
        else:
            size = -(-len(queries) // workers)
            runs = [(0, first, first + size) for first in range(0, len(queries), size)]
        published, pool = self._publish(executor_name, workers)
        num_graphs = self._global_database_size()
        # Process workers plan their own runs of an unsharded batch: in
        # parallel (planning is most of a large query's cost), and exactly
        # counted, since a worker's sinks hold only its task's work.  Shards
        # need one global plan, and thread tasks share the index's sinks.
        planning = self._supports_planning()
        plan_in_tasks = (
            planning
            and not self.is_sharded
            and len(runs) > 1
            and isinstance(pool, ProcessExecutor)
        )
        planned = [(None, 0.0, {})] * len(queries)
        if planning and not plan_in_tasks:
            planner, sinks = self._ensure_planner(), self._counter_sinks()
            planned = [
                _plan_counted(planner, query, sigma, num_graphs, sinks)
                for query in queries
            ]
        plans = [plan for plan, _, _ in planned]
        items = [
            {
                "token": published.token,
                "shard": shard,
                "generation": published.generation,
                "queries": queries[first:last],
                "plans": None if plan_in_tasks else plans[first:last],
                "num_graphs": num_graphs,
                "sigma": sigma,
                "verify": self.config.verify,
            }
            for shard, first, last in runs
        ]
        outputs = pool.map_counted(_shard_task, items, sink=self.index.counters)
        if self.is_sharded:
            num_live = len(self.database)
            results = [
                merge_search_results(
                    [output[position] for output in outputs],
                    num_database_graphs=num_live,
                    num_shards=num_shards,
                )
                for position in range(len(queries))
            ]
        else:
            results = [result for output in outputs for result in output]
        return [
            _with_planning(result, seconds, delta)
            for result, (_, seconds, delta) in zip(results, planned)
        ]

    def stats(self) -> Dict[str, Any]:
        """Return a JSON-friendly summary of the engine's components."""
        return {
            "num_graphs": len(self.database),
            "config": self.config.to_dict(),
            "index": self.index.stats().as_dict(),
            "strategy": self.config.strategy,
            "verify": self._verify_stats(),
        }

    def _merged_counters(self) -> PerfCounters:
        """Fold every counter sink the engine feeds into one view.

        Per-shard work lands in each shard's own sink (serial/thread
        executors) or is merged into the index's sink from worker deltas
        (process executor); the active strategy may own a private sink.
        """
        counters = PerfCounters()
        for sink in self._counter_sinks():
            counters.merge(sink)
        if (
            self._strategy is not None
            and self._strategy.counters is not self.index.counters
        ):
            counters.merge(self._strategy.counters)
        return counters

    def _verify_stats(self) -> Dict[str, Any]:
        """Verification view: the search effort so far.

        ``nodes_expanded`` counts partial placements the superposition
        search descended into across all queries so far — the direct
        measure of branch-and-bound pruning power (the array kernel's
        suffix bounds expand fewer nodes for the same answers).
        """
        snapshot = self._merged_counters().as_dict()
        return {
            "candidates": snapshot.get("verify.candidates", 0),
            "superpositions_explored": snapshot.get(
                "verify.superpositions_explored", 0
            ),
            "nodes_expanded": snapshot.get("verify.nodes_expanded", 0),
            "early_exits": snapshot.get("verify.early_exits", 0),
        }

    def profile(self) -> Dict[str, Any]:
        """Return the engine's accumulated performance profile.

        The profile aggregates the index's counters (build, enumeration,
        range queries) with the active strategy's (filtering, verification)
        and reports the memo-cache accounting — everything needed to see
        where query time goes without attaching an external profiler.
        """
        counters = self._merged_counters()
        caches = self.index.cache_stats() + [structure_code_cache().stats()]
        if self._result_cache is not None:
            caches.append(self._result_cache.stats())
        return {
            "counters": counters.as_dict(),
            "caches": caches,
            "index": self.index.stats().as_dict(),
        }

    # ------------------------------------------------------------------
    # incremental updates
    # ------------------------------------------------------------------
    def add_graphs(
        self,
        graphs: Sequence[LabeledGraph],
        reuse_ids: bool = False,
    ) -> List[int]:
        """Add graphs to the database *and* the index, without a rebuild.

        Each graph is appended to the database (``reuse_ids=True`` reclaims
        retired identifiers first, lowest first) and incrementally indexed
        — equivalence classes, occurrence counts, and posting lists update
        in place, and the affected memo caches are invalidated, so
        subsequent searches answer exactly as a from-scratch rebuild over
        the grown database would.

        Returns the assigned graph ids, in input order.

        With ``durability="wal"`` (a WAL attached), the whole batch —
        including the ids it will assign, planned deterministically up
        front — is fsync'd to the write-ahead log *before* anything
        mutates, so a crash at any later point replays to exactly this
        post-batch state.  The in-memory apply runs under the index's
        exclusive write epoch: concurrent searches see the pre-batch index
        or the post-batch index, never a half-applied one.
        """
        graphs = list(graphs)
        entries = list(zip(self._plan_additions(graphs, reuse_ids), graphs))
        self._write("add", entries)
        return [graph_id for graph_id, _ in entries]

    def _plan_additions(
        self, graphs: Sequence[LabeledGraph], reuse_ids: bool
    ) -> List[int]:
        """Pre-assign the ids :meth:`add_graphs` will hand out.

        Replicates the database's assignment rule (reclaim tombstoned
        slots lowest-first when ``reuse_ids``, else append at the bound)
        without mutating anything, so the WAL record of a batch can name
        its ids *before* the batch applies — replay is then deterministic
        by construction.
        """
        reclaimable = self.database.removed_ids() if reuse_ids else []
        next_fresh = self.database.id_bound
        planned: List[int] = []
        for _ in graphs:
            if reclaimable:
                planned.append(reclaimable.pop(0))
            else:
                planned.append(next_fresh)
                next_fresh += 1
        return planned

    def remove_graphs(self, graph_ids: Sequence[int]) -> int:
        """Remove graphs from the database and the index, without a rebuild.

        The identifiers are retired (tombstoned), never renumbered, so
        every other graph keeps its id.  Returns the number of distinct
        index entries removed.  Removing an unknown or already-removed id
        raises before anything is mutated.
        """
        graph_ids = list(graph_ids)
        if len(set(graph_ids)) != len(graph_ids):
            raise EngineError(f"duplicate graph ids in removal batch: {graph_ids}")
        for graph_id in graph_ids:
            if graph_id not in self.database:
                raise EngineError(
                    f"cannot remove graph id {graph_id}: not a live database graph"
                )
        # Validation above means the record can always replay.
        return self._write("remove", graph_ids)

    def _write(self, op: str, entries: Sequence) -> int:
        """Log, apply and invalidate after one write batch; see :meth:`_apply`.

        With a WAL attached the batch is committed before the first
        in-memory mutation.  The apply runs under the index's exclusive
        write epoch.  Returns the number of index entries removed.
        """
        lsn: Optional[int] = None
        if self._wal is not None:
            if op == "add":
                payload = {
                    "graphs": [
                        [graph_id, graph.to_dict()] for graph_id, graph in entries
                    ]
                }
            else:
                payload = {"graph_ids": [int(graph_id) for graph_id in entries]}
            lsn = self._wal.append(op, payload)
        with self.index.epochs.write():
            removed = self._apply(op, entries)
        if lsn is not None:
            self._wal_applied_lsn = lsn
            self.database.wal_position = lsn
        self._written()
        return removed

    def _apply(
        self,
        op: str,
        entries: Sequence,
        to_database: bool = True,
        to_index: bool = True,
    ) -> int:
        """Apply one batch to the selected stores: the one write routine.

        ``op`` is ``"add"`` with ``(graph_id, graph)`` entries, each added
        to the database under its planned id, or ``"remove"`` with graph
        ids.  An index removal is skipped for an id the index no longer
        holds live (a replay may reach the index after the database).
        Returns the number of index entries removed.
        """
        removed = 0
        if op == "add":
            for graph_id, graph in entries:
                if to_database:
                    actual = (
                        self.database.add(graph, graph_id=graph_id)
                        if graph_id < self.database.id_bound
                        else self.database.add(graph)
                    )
                    if actual != graph_id:
                        raise EngineError(
                            f"graph id {graph_id} was planned but the database "
                            f"assigned {actual}; the database does not match "
                            "the write's base state"
                        )
                if to_index:
                    self.index.add_graph(graph_id, graph)
        elif op == "remove":
            for graph_id in entries:
                if to_database:
                    self.database.remove(graph_id)
                if to_index and (
                    graph_id < self.index.num_graphs
                    and graph_id not in self.index.removed_graph_ids
                ):
                    removed += self.index.remove_graph(graph_id)
        else:
            raise WalError(f"unknown WAL operation {op!r}")
        return removed

    def _written(self) -> None:
        """Drop what a write makes stale: the strategies built over the old
        state (which also republishes the shards) and cached results."""
        self._strategy = None
        self._shard_strategies = None
        if self._result_cache is not None:
            # The generation bump already makes old entries unreachable;
            # clearing releases their memory immediately.
            self._result_cache.clear()

    # ------------------------------------------------------------------
    # durability (write-ahead log)
    # ------------------------------------------------------------------
    @staticmethod
    def wal_path_for(engine_path: Union[str, Path]) -> Path:
        """Conventional WAL directory for an engine file: ``<engine>.wal``."""
        return Path(str(engine_path) + ".wal")

    @property
    def wal(self) -> Optional[WriteAheadLog]:
        """The attached write-ahead log (``None`` in ``durability="none"``)."""
        return self._wal

    @property
    def wal_applied_lsn(self) -> int:
        """Last WAL record folded into the in-memory engine state."""
        return self._wal_applied_lsn

    def attach_wal(
        self,
        wal: Union[WriteAheadLog, str, Path],
        applied_lsn: Optional[int] = None,
        replay: bool = True,
    ) -> int:
        """Attach a write-ahead log and (by default) replay pending records.

        ``applied_lsn`` names the position the in-memory state already
        folds in (defaults to the current tracked position — 0 for a
        freshly built engine).  Returns the number of records replayed.
        """
        if not isinstance(wal, WriteAheadLog):
            wal = WriteAheadLog(wal)
        self._wal = wal
        if applied_lsn is not None:
            self._wal_applied_lsn = int(applied_lsn)
        return self.replay_wal() if replay else 0

    def replay_wal(self) -> int:
        """Bring the engine forward to the WAL's last committed batch.

        Each committed record is applied to exactly the stores that missed
        it: the index side replays records beyond the engine snapshot's
        position, the database side records beyond the database file's own
        position (a crash between the two atomic file writes leaves them
        one batch apart).  Replaying the same operations the original
        batch ran makes the recovered state — generations, revisions,
        persisted bytes — identical to an uninterrupted run.

        Returns the number of records applied.
        """
        if self._wal is None:
            return 0
        database_lsn = int(getattr(self.database, "wal_position", 0) or 0)
        start_lsn = min(self._wal_applied_lsn, database_lsn)
        applied = 0
        with self.index.epochs.write():
            for record in self._wal.pending(start_lsn):
                self._apply_wal_record(
                    record,
                    to_database=record.lsn > database_lsn,
                    to_index=record.lsn > self._wal_applied_lsn,
                )
                self._wal_applied_lsn = max(self._wal_applied_lsn, record.lsn)
                applied += 1
        self._wal_applied_lsn = max(self._wal_applied_lsn, database_lsn)
        self.database.wal_position = self._wal_applied_lsn
        if applied:
            self._written()
        return applied

    def _apply_wal_record(
        self, record, to_database: bool = True, to_index: bool = True
    ) -> None:
        """Apply one committed WAL record to the selected stores."""
        if record.op == "add":
            entries: List[Any] = [
                (int(graph_id), LabeledGraph.from_dict(graph_data))
                for graph_id, graph_data in record.payload.get("graphs", [])
            ]
        else:
            entries = [int(graph_id) for graph_id in record.payload.get("graph_ids", [])]
        self._apply(record.op, entries, to_database=to_database, to_index=to_index)

    def checkpoint(
        self,
        path: Union[str, Path],
        database_path: Union[str, Path, None] = None,
    ) -> int:
        """Fold the WAL into version-5 snapshots and prune the log.

        Writes the database first (when ``database_path`` is given), the
        engine snapshot second, and prunes the log last — each file
        replaced atomically — so a crash between any two steps leaves a
        combination :meth:`load` recovers from: the log still holds every
        record a lagging file is missing.  Returns the checkpointed LSN.
        """
        if self._wal is None:
            raise EngineError(
                "no write-ahead log attached; checkpoint requires "
                'durability="wal"'
            )
        lsn = self._wal_applied_lsn
        if database_path is not None:
            self.database.save(database_path, wal_position=lsn)
        self.save(path)
        self._wal.checkpoint(lsn)
        return lsn

    # ------------------------------------------------------------------
    # querying
    # ------------------------------------------------------------------
    def fingerprint(self) -> str:
        """The config fingerprint used in result-cache keys (memoized)."""
        if self._fingerprint is None:
            self._fingerprint = engine_fingerprint(self.config)
        return self._fingerprint

    def _cache_key(
        self, query: LabeledGraph, sigma: float
    ) -> Optional[Tuple[Any, float, str, int]]:
        """This query's result-cache key, or ``None`` when not caching."""
        if self._result_cache is None:
            return None
        return QueryResultCache.key(
            query, sigma, self.fingerprint(), self.index.generation
        )

    def _answer(
        self,
        queries: List[LabeledGraph],
        sigma: float,
        executor_name: str,
        workers: int,
    ) -> List[SearchResult]:
        """The one query pipeline behind :meth:`search` and :meth:`search_many`.

        Resolves result-cache hits, computes the misses through one scatter
        (:meth:`_compute`) under one read pin — a concurrent add/remove
        batch waits, so every query sees the pre-batch or the post-batch
        index, never a half-applied one — and caches what it computed.  A
        batch that runs as one serial task on an unsharded engine (every
        ``pis serve`` batch) scatters and pins per query instead, so a
        writer waits for one query, not the whole batch.  A query repeated
        within the batch is computed once; its repeats are answered from
        the cache, as they would be one search at a time.
        """
        resolved: List[Optional[SearchResult]] = [None] * len(queries)
        keys = [self._cache_key(query, sigma) for query in queries]
        first: Dict[Any, int] = {}
        misses: List[int] = []
        for position, key in enumerate(keys):
            if key is not None:
                if key in first:
                    continue
                resolved[position] = self._result_cache.get(key)
                if resolved[position] is not None:
                    continue
                first[key] = position
            misses.append(position)
        if self.is_sharded or workers > 1:
            groups = [misses] if misses else []
        else:
            groups = [[position] for position in misses]
        for group in groups:
            with self.index.epochs.read():
                fresh = self._compute(
                    [queries[position] for position in group],
                    sigma,
                    executor_name,
                    workers,
                )
            for position, result in zip(group, fresh):
                resolved[position] = result
                if keys[position] is not None:
                    self._result_cache.put(keys[position], result)
        for position, key in enumerate(keys):
            if resolved[position] is None:
                resolved[position] = (
                    self._result_cache.get(key) or resolved[first[key]]
                )
        return resolved

    def _dispatch(
        self, executor: Optional[str], workers: Optional[int], num_queries: int
    ) -> Tuple[str, int, str]:
        """``(executor, pool size, reported executor)`` for one call.

        A sharded engine runs one task per shard on ``executor`` (default:
        the config's).  An unsharded engine runs ``workers`` tasks on
        ``executor`` (default ``"thread"``), or one serial task when there
        is no pool to spread over.
        """
        if self.is_sharded:
            name = executor or self.config.executor
            size = self.index.num_shards
        else:
            name = executor or "thread"
            size = 0 if name == "serial" else int(workers or 0)
        if name not in available_executors():
            raise EngineConfigError(
                f"unknown executor {name!r}; available: {available_executors()}"
            )
        if not self.is_sharded and (size <= 1 or num_queries <= 1):
            return "serial", 1, "sequential"
        return name, size, name

    def search(self, query: LabeledGraph, sigma: float) -> SearchResult:
        """Answer one SSSD query with the configured strategy.

        Parameters
        ----------
        query:
            The query graph.
        sigma:
            Distance threshold of the SSSD query.

        Returns
        -------
        SearchResult
            Candidates, answers with exact distances, per-phase timings
            (``prune_seconds`` includes the coordinator's planning),
            pruning report, and counter deltas.  On a sharded engine the
            query scatter-gathers across every shard (through the config's
            executor) and the merged result is byte-identical in answer ids
            and distances to an unsharded engine's; an unsharded engine
            runs it as one serial task.  On a *started* engine a repeated
            query is answered from the result cache (``result.from_cache``
            is set), byte-identically to a fresh search against the current
            index generation.

        Raises
        ------
        InvalidSigmaError
            If ``sigma`` is NaN.
        """
        _check_sigma(sigma)
        name, size, _ = self._dispatch(None, None, 1)
        return self._answer([query], sigma, name, size)[0]

    def search_many(
        self,
        queries: Sequence[LabeledGraph],
        sigma: float,
        workers: Optional[int] = None,
        executor: Optional[str] = None,
    ) -> BatchSearchResult:
        """Answer a batch of queries, optionally in a worker pool.

        Parameters
        ----------
        queries:
            The query graphs; results come back in the same order.
        sigma:
            Distance threshold shared by the whole batch.
        workers:
            Pool size.  ``None``, ``0`` or ``1`` runs the batch as one
            serial task in the calling thread.  Ignored on a sharded
            engine, whose parallelism is one task per shard.
        executor:
            ``"serial"`` runs in the calling thread; ``"thread"`` runs the
            tasks in a thread pool; ``"process"`` runs them in forked
            worker processes (the only executor that sidesteps the GIL for
            pure-Python verification).  ``None`` picks the default:
            ``"thread"`` on an unsharded engine, the config's ``executor``
            on a sharded one.  On a sharded engine each task is one shard
            covering the whole batch; on an unsharded engine each task is a
            contiguous run of the batch's queries.  Either way each query
            verifies its candidates serially in the task that runs it.

        Returns
        -------
        BatchSearchResult
            Per-query results in input order plus batch-level timing.

        Raises
        ------
        InvalidSigmaError
            If ``sigma`` is NaN.
        """
        _check_sigma(sigma)
        queries = list(queries)
        name, size, reported = self._dispatch(executor, workers, len(queries))
        start = time.perf_counter()
        if len(queries) == 1 and name == self._dispatch(None, None, 1)[0]:
            # The same call as a search: make it one, so whatever observes
            # searches (a tracer wrapping ``Engine.search``) sees it.
            results = [self.search(queries[0], sigma)]
        else:
            results = self._answer(queries, sigma, name, size)
        return BatchSearchResult(
            sigma=sigma,
            results=results,
            wall_seconds=time.perf_counter() - start,
            workers=size,
            executor=reported,
        )

    # ------------------------------------------------------------------
    # persistence
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """Serialize the engine (config + built index) to a JSON dict.

        The database itself is never stored — exactly as in the paper, the
        index holds only fragment sequences and graph ids — so loading
        takes the database as an argument.  With a write-ahead log
        attached the snapshot also records the last WAL record it folds
        in, so :meth:`load` knows which committed batches to replay.
        """
        wal_position = self._wal_applied_lsn if self._wal is not None else None
        return {
            "format": ENGINE_FORMAT,
            "version": 1,
            "config": self.config.to_dict(),
            "database_fingerprint": _database_fingerprint(self.database),
            "index": index_to_dict(self.index, wal_position=wal_position),
        }

    @classmethod
    def from_dict(
        cls,
        data: Dict[str, Any],
        database: GraphDatabase,
        _defer_consistency: bool = False,
    ) -> "Engine":
        """Rebuild an engine from :meth:`to_dict` output plus its database.

        ``_defer_consistency`` (internal, used by :meth:`load` during WAL
        recovery) skips the database/index cross-checks: a crash between
        the database and engine snapshot writes legitimately leaves the
        two files one batch apart, and the checks only hold again after
        the pending records replay.
        """
        if not isinstance(data, dict) or data.get("format") != ENGINE_FORMAT:
            raise SerializationError("not a serialized PIS engine")
        config = EngineConfig.from_dict(data.get("config", {}))
        index = index_from_dict(data.get("index", {}))
        # The built index is the ground truth for the sharding topology; a
        # hand-edited config cannot silently disagree with it.
        if isinstance(index, ShardedFragmentIndex):
            if config.shards != index.num_shards:
                config = config.replace(shards=index.num_shards)
        elif config.shards != 1:
            config = config.replace(shards=1)
        if _defer_consistency:
            return cls(database, config, index)
        # Compare identifier bounds, not live counts: a database that has
        # seen removals legitimately holds fewer live graphs than its id
        # bound, and the index tracks the same bound.
        database_bound = getattr(database, "id_bound", len(database))
        if index.num_graphs != database_bound:
            raise EngineError(
                f"engine was built over {index.num_graphs} graph ids but the "
                f"supplied database spans {database_bound}; load the engine "
                "with the database it was built from"
            )
        stored = data.get("database_fingerprint")
        if stored is not None and stored != _database_fingerprint(database):
            raise EngineError(
                "the supplied database does not match the one this engine "
                f"was built from (fingerprint {stored} != "
                f"{_database_fingerprint(database)}); index graph ids would "
                "point at unrelated graphs"
            )
        return cls(database, config, index)

    def save(self, path: Union[str, Path]) -> None:
        """Write the engine (config + index) to a JSON file.

        The file is replaced atomically (write-temp + fsync + rename): a
        crash mid-save leaves the previous snapshot intact, never a
        truncated one.
        """
        try:
            text = json.dumps(self.to_dict())
        except TypeError as exc:
            raise SerializationError(
                f"engine contains values that are not JSON-serializable: {exc}"
            ) from exc
        try:
            atomic_write_text(path, text)
        except OSError as exc:
            raise SerializationError(
                f"cannot write engine to {path}: {exc}"
            ) from exc

    @classmethod
    def load(
        cls,
        path: Union[str, Path],
        database: GraphDatabase,
        durability: Optional[str] = None,
    ) -> "Engine":
        """Load an engine written by :meth:`save`, binding it to ``database``.

        ``durability`` overrides the snapshot's configured mode: ``"wal"``
        forces a write-ahead log open (creating ``<path>.wal`` if absent),
        ``"none"`` ignores any log on disk, and ``None`` (the default)
        follows the stored config — also opening an existing ``<path>.wal``
        directory left by a ``durability="wal"`` writer.

        In WAL mode, committed batches the snapshot (or the database file)
        missed — e.g. because the writer crashed before checkpointing —
        are replayed before the engine is returned, so the loaded state
        always reflects the last *committed* mutation batch.
        """
        try:
            data = json.loads(Path(path).read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            raise SerializationError(
                f"cannot load engine from {path}: {exc}"
            ) from exc
        if durability is not None and durability not in ("none", "wal"):
            raise EngineConfigError(
                f"durability must be 'none' or 'wal', got {durability!r}"
            )
        wal_dir = cls.wal_path_for(path)
        mode = durability
        if mode is None:
            stored_config = data.get("config")
            stored_mode = (
                stored_config.get("durability", "none")
                if isinstance(stored_config, dict)
                else "none"
            )
            mode = (
                "wal"
                if stored_mode == "wal" or wal_dir.is_dir()
                else "none"
            )
        if mode != "wal":
            return cls.from_dict(data, database)
        wal = WriteAheadLog(wal_dir)
        snapshot_lsn = index_wal_position(data.get("index") or {})
        database_lsn = int(getattr(database, "wal_position", 0) or 0)
        pending = any(
            True for _ in wal.pending(min(snapshot_lsn, database_lsn))
        )
        if pending and database_lsn == snapshot_lsn:
            # Both files describe the same pre-replay state, so the
            # fingerprint is checkable now — a foreign database must not
            # silently absorb someone else's log.
            stored = data.get("database_fingerprint")
            if stored is not None and stored != _database_fingerprint(database):
                raise EngineError(
                    "the supplied database does not match the one this "
                    f"engine was built from (fingerprint {stored} != "
                    f"{_database_fingerprint(database)}); refusing to "
                    "replay its write-ahead log"
                )
        # With records pending, the two files may legitimately disagree
        # (crash between the database and engine writes); the cross-checks
        # re-run below once replay has brought both forward.
        engine = cls.from_dict(data, database, _defer_consistency=pending)
        if engine.config.durability != "wal":
            engine.config = engine.config.replace(durability="wal")
        engine._wal = wal
        engine._wal_applied_lsn = snapshot_lsn
        engine.replay_wal()
        if pending:
            database_bound = getattr(database, "id_bound", len(database))
            if engine.index.num_graphs != database_bound:
                raise WalError(
                    f"WAL replay left the index spanning "
                    f"{engine.index.num_graphs} graph ids but the database "
                    f"spans {database_bound}; the log does not belong to "
                    "this database/engine pair"
                )
        return engine
