"""Partition-based search: selectivity, MWIS partition, PIS, baselines,
and candidate verification (:mod:`repro.search.verify`)."""

from .baselines import ExactTopoPruneSearch, NaiveSearch, TopoPruneSearch
from .mwis import (
    MWISResult,
    enhanced_greedy_mwis,
    exact_mwis,
    greedy_mwis,
    solve_mwis,
)
from .overlap_graph import OverlapGraph
from .partition import PartitionResult, select_partition, validate_partition
from .pis import FilterOutcome, PISearch
from .planner import GlobalPlanner, QueryPlan
from .registry import available_strategies, make_strategy, register_strategy
from .results import PruningReport, SearchResult
from .selectivity import FragmentSelectivity, SelectivityEstimator
from .strategy import SearchStrategy
from .verify import BoundedVerifier

__all__ = [
    "SearchStrategy",
    "SearchResult",
    "PruningReport",
    "SelectivityEstimator",
    "FragmentSelectivity",
    "OverlapGraph",
    "MWISResult",
    "greedy_mwis",
    "enhanced_greedy_mwis",
    "exact_mwis",
    "solve_mwis",
    "PartitionResult",
    "select_partition",
    "validate_partition",
    "PISearch",
    "FilterOutcome",
    "GlobalPlanner",
    "QueryPlan",
    "NaiveSearch",
    "TopoPruneSearch",
    "ExactTopoPruneSearch",
    "register_strategy",
    "make_strategy",
    "available_strategies",
    "BoundedVerifier",
]
