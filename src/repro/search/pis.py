"""PIS: partition-based graph index and search (Sections 3, 5, 6).

:class:`PISearch` implements the full three-step framework:

1. **Fragment-based index** — supplied as a built
   :class:`~repro.index.fragment_index.FragmentIndex`.
2. **Partition-based search** (Algorithm 2) — enumerate the indexed
   fragments of the query, run one range query per fragment, intersect the
   matching graph sets, estimate fragment selectivities, pick a
   vertex-disjoint partition by greedy MWIS on the overlapping-relation
   graph, and drop every graph whose summed fragment distances exceed the
   threshold (the lower bound of Eq. 2).  The
   :class:`~repro.search.planner.GlobalPlanner` computes all of this once
   per query and index generation; :meth:`PISearch.execute_plan` restricts
   the plan's outcome to the index's live graph ids.
3. **Candidate verification** — compute the true minimum superimposed
   distance of the surviving candidates and keep those within the
   threshold.  Delegated to the bounded verifier of
   :mod:`repro.search.verify`, which reuses the lower bounds this module's
   filtering phase computes (:attr:`FilterOutcome.lower_bounds`).

The filtering phase touches only the index (never the database graphs);
verification is the only step that needs the graphs themselves, exactly as
in the paper's implementation notes (Section 6).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Tuple

from ..core.database import GraphDatabase
from ..core.errors import IndexNotBuiltError
from ..core.graph import LabeledGraph
from ..index.fragment_index import FragmentIndex, QueryFragment
from .partition import PartitionResult, check_partition_params
from .planner import GlobalPlanner, QueryPlan
from .results import PruningReport
from .strategy import SearchStrategy

__all__ = ["PISearch", "FilterOutcome"]


@dataclass
class FilterOutcome:
    """Everything the filtering phase of one query produced.

    Exposed separately from :class:`SearchResult` so experiments can study
    the pruning behaviour (candidate counts, partitions, selectivities)
    without paying for verification.
    """

    candidate_ids: List[int]
    fragment_distances: Dict[int, Dict[int, float]]
    fragments: List[QueryFragment]
    selectivities: List[float]
    partition: Optional[PartitionResult]
    report: PruningReport
    lower_bounds: Dict[int, float]


class PISearch(SearchStrategy):
    """Partition-based index and search engine.

    Parameters
    ----------
    database:
        The graph database (needed only for verification).
    measure:
        Ignored when given: the index's measure defines the distance
        semantics.  Accepted so every strategy shares the registry shape
        ``(database, measure, index=None)``.
    index:
        A built fragment index (required).
    epsilon:
        Selectivity floor; fragments with ``w(g) <= epsilon`` are dropped
        before the partition is selected (Algorithm 2, line 5).
    cutoff_lambda:
        Cutoff factor for selectivity estimation (Figure 11).
    partition_method / partition_k:
        MWIS solver used for the partition ("greedy", "enhanced-greedy",
        "exact") and its ``k`` parameter (an int >= 1).  Anything else
        raises :class:`~repro.core.errors.EngineConfigError` here.
    """

    name = "pis"
    requires_index = True

    def __init__(
        self,
        database: GraphDatabase,
        measure=None,
        index: Optional[FragmentIndex] = None,
        epsilon: float = 0.0,
        cutoff_lambda: float = 1.0,
        partition_method: str = "greedy",
        partition_k: int = 2,
    ):
        if index is None:
            raise IndexNotBuiltError("PISearch requires a built fragment index")
        check_partition_params(partition_method, partition_k)
        super().__init__(database=database, measure=index.measure, index=index)
        self.epsilon = epsilon
        self.cutoff_lambda = cutoff_lambda
        self.partition_method = partition_method
        self.partition_k = partition_k
        self._planner: Optional[GlobalPlanner] = None
        # A one-slot box, so the copies tasks run (see
        # :meth:`SearchStrategy.with_counters`) fill one shared memo.
        self._live_ids_memo: List[Optional[Tuple[int, FrozenSet[int]]]] = [None]

    # ------------------------------------------------------------------
    # planning (the plan half of the plan/execute split)
    # ------------------------------------------------------------------
    @property
    def planner(self) -> GlobalPlanner:
        """The query planner (lazily built over the strategy's own index).

        The engine injects its own :class:`~repro.search.planner
        .GlobalPlanner` here so the unsharded strategy, the scatter path,
        and cache warming all plan with the same parameters.
        """
        if self._planner is None:
            self._planner = GlobalPlanner(
                self.index,
                epsilon=self.epsilon,
                cutoff_lambda=self.cutoff_lambda,
                partition_method=self.partition_method,
                partition_k=self.partition_k,
                counters=self.counters,
            )
        return self._planner

    @planner.setter
    def planner(self, planner: Optional[GlobalPlanner]) -> None:
        self._planner = planner

    def plan(self, query: LabeledGraph, sigma: float) -> QueryPlan:
        """Plan the filtering phase for one query."""
        return self.planner.plan(query, sigma, num_graphs=self._database_size())

    def plan_query(self, query: LabeledGraph, sigma: float) -> QueryPlan:
        """Planning hook of the :meth:`SearchStrategy.search` template."""
        return self.plan(query, sigma)

    # ------------------------------------------------------------------
    # filtering (Algorithm 2)
    # ------------------------------------------------------------------
    def filter_candidates(
        self,
        query: LabeledGraph,
        sigma: float,
        plan: Optional[QueryPlan] = None,
    ) -> FilterOutcome:
        """Run the partition-based filtering phase and return its outcome.

        The phase is :meth:`plan` followed by :meth:`execute_plan`; a
        caller-supplied ``plan`` (the scatter path) skips planning.
        """
        if plan is None:
            plan = self.plan(query, sigma)
        return self.execute_plan(plan)

    def execute_plan(self, plan: QueryPlan) -> FilterOutcome:
        """Execute a precomputed :class:`QueryPlan` against this index.

        The plan already carries the *global* filtering outcome — the
        intersected structure-candidate set and every candidate's Eq. 2
        lower bound, both computed once by the planner — so execution is a
        restriction of that outcome to this index's live graph ids.  On a
        shard it is exactly the global outcome restricted to the shard's
        slice (shards partition the live ids, so the restricted candidate
        sets are disjoint and the restricted reports sum back to the global
        one).
        """
        with self.counters.timer("filter"):
            return self._execute_plan(plan)

    def _execute_plan(self, plan: QueryPlan) -> FilterOutcome:
        sigma = plan.sigma
        report = PruningReport(
            num_database_graphs=plan.num_database_graphs,
            num_query_fragments=plan.num_fragments,
            num_fragments_after_epsilon=len(plan.eligible),
            planned=True,
            estimated_candidates=plan.estimated_candidates,
        )

        if plan.structure_candidates is None:
            # No indexed fragment occurs in the query: the index cannot
            # prune anything and every locally live graph stays a candidate.
            candidate_ids: List[int] = self._all_graph_ids()
        else:
            live = self._live_id_set()
            candidate_ids = [
                graph_id
                for graph_id in plan.structure_candidates
                if graph_id in live
            ]

        report.num_structure_candidates = len(candidate_ids)

        # The Eq. 2 sweep already ran globally; partition report fields are
        # stated exactly when it did (``plan.partition_applied``: some
        # fragment passed the selectivity floor and the global candidate
        # set is non-empty).
        partition: Optional[PartitionResult] = None
        lower_bounds: Dict[int, float] = {}
        if plan.partition_applied:
            partition = plan.partition
            report.partition_size = partition.size
            report.partition_weight = partition.weight
            bounds = plan.lower_bounds
            lower_bounds = {
                graph_id: bounds[graph_id] for graph_id in candidate_ids
            }
            candidate_ids = [
                graph_id
                for graph_id in candidate_ids
                if bounds[graph_id] <= sigma
            ]

        report.num_candidates = len(candidate_ids)
        self.counters.increment("filter.candidates", len(candidate_ids))
        return FilterOutcome(
            candidate_ids=candidate_ids,
            fragment_distances=dict(enumerate(plan.fragment_distances)),
            fragments=list(plan.fragments),
            selectivities=list(plan.selectivities),
            partition=partition,
            report=report,
            lower_bounds=lower_bounds,
        )

    def _live_id_set(self) -> FrozenSet[int]:
        """This index's live graph ids as a set, memoized per generation.

        Plan execution restricts the plan's global candidate sets by
        membership here; mutations bump the index generation, dropping the
        memo, so a stale id can never pass the restriction.
        """
        generation = self.index.generation
        memo = self._live_ids_memo[0]
        if memo is not None and memo[0] == generation:
            return memo[1]
        live = frozenset(self.index.live_graph_ids())
        self._live_ids_memo[0] = (generation, live)
        return live

    # ------------------------------------------------------------------
    # full search (filtering + verification)
    # ------------------------------------------------------------------
    def candidates(self, query: LabeledGraph, sigma: float) -> List[int]:
        """Return the candidate graph ids (filtering phase only)."""
        return self.filter_candidates(query, sigma).candidate_ids

    def _execute(
        self, plan: QueryPlan
    ) -> Tuple[List[int], PruningReport, Optional[Dict[int, float]]]:
        """Plan-execution hook of the :meth:`SearchStrategy.search` template."""
        outcome = self.execute_plan(plan)
        return outcome.candidate_ids, outcome.report, outcome.lower_bounds
