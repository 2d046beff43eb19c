"""Index-based partition selection (Section 5).

Given the indexed fragments found in a query graph and their selectivities,
pick a vertex-disjoint subset of maximum total selectivity — MWIS on the
overlapping-relation graph (Theorem 1).  The returned partition is what the
superimposed-distance lower bound of Eq. (2) is summed over.

The default greedy solver (Algorithm 1) never materializes that graph: it
sweeps the fragments heaviest first and takes each one whose vertices miss
the query vertices already covered, which picks exactly the nodes
:func:`~repro.search.mwis.greedy_mwis` picks on the graph.  Only
``"enhanced-greedy"`` and ``"exact"`` build the graph, and drop it again
before returning.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Sequence

from ..core.errors import EngineConfigError, PartitionError
from ..index.fragment_index import QueryFragment
from .mwis import MWISResult, greedy_sweep, solve_mwis
from .overlap_graph import OverlapGraph

__all__ = [
    "PARTITION_METHODS",
    "PartitionResult",
    "check_partition_params",
    "select_partition",
    "validate_partition",
]

#: MWIS solver names accepted by :func:`select_partition`.
PARTITION_METHODS = ("greedy", "enhanced-greedy", "enhanced_greedy", "exact")


@dataclass(frozen=True)
class PartitionResult:
    """A vertex-disjoint set of query fragments chosen for pruning."""

    fragments: List[QueryFragment]
    weight: float
    method: str
    mwis: MWISResult

    @property
    def size(self) -> int:
        """Number of fragments in the partition."""
        return len(self.fragments)

    def covered_vertices(self) -> frozenset:
        """Union of the query vertices covered by the partition."""
        covered: set = set()
        for fragment in self.fragments:
            covered |= fragment.vertices
        return frozenset(covered)


def check_partition_params(method: Any, k: Any) -> None:
    """Raise :class:`EngineConfigError` unless ``method`` and ``k`` are usable.

    Called when a planner or PIS strategy is configured, so a typo fails
    there instead of on the first search.
    """
    if method not in PARTITION_METHODS:
        raise EngineConfigError(
            f"unknown partition_method {method!r}; "
            f"expected one of {list(PARTITION_METHODS)}"
        )
    if isinstance(k, bool) or not isinstance(k, int) or k < 1:
        raise EngineConfigError(f"partition_k must be an int >= 1, got {k!r}")


def validate_partition(fragments: Sequence[QueryFragment]) -> None:
    """Raise :class:`PartitionError` unless the fragments are vertex-disjoint."""
    seen: set = set()
    for fragment in fragments:
        if fragment.vertices & seen:
            raise PartitionError("fragments in a partition must be vertex-disjoint")
        seen |= fragment.vertices


def select_partition(
    fragments: Sequence[QueryFragment],
    weights: Sequence[float],
    method: str = "greedy",
    k: int = 2,
) -> PartitionResult:
    """Choose a vertex-disjoint, maximum-selectivity subset of fragments.

    Parameters
    ----------
    fragments:
        Candidate indexed fragments found in the query graph.
    weights:
        Selectivity of each fragment (same order as ``fragments``).
    method:
        MWIS solver: ``"greedy"`` (Algorithm 1), ``"enhanced-greedy"``
        (Theorem 3, with parameter ``k``) or ``"exact"`` (small queries
        only; raises :class:`PartitionError` beyond its node limit).
    """
    if method == "greedy":
        if len(fragments) != len(weights):
            raise ValueError("fragments and weights must have the same length")
        vertex_sets = [fragment.vertices for fragment in fragments]
        mwis = greedy_sweep(
            [float(weight) for weight in weights],
            vertex_sets.__getitem__,
            vertex_sets.__getitem__,
        )
    else:
        mwis = solve_mwis(OverlapGraph.build(fragments, weights), method=method, k=k)
    chosen = [fragments[node] for node in sorted(mwis.nodes)]
    validate_partition(chosen)
    return PartitionResult(
        fragments=chosen,
        weight=mwis.weight,
        method=mwis.method,
        mwis=mwis,
    )
