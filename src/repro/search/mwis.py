"""Maximum weighted independent set solvers (Section 5).

The index-based partition problem is equivalent to MWIS on the
overlapping-relation graph (Theorem 1).  The paper uses:

* ``Greedy()`` (Algorithm 1) — repeatedly pick the heaviest remaining vertex
  and delete its neighbourhood; runs in O(c·n) rounds and has optimality
  ratio 1/c where c is the maximum independent-set size (Theorem 2);
* ``EnhancedGreedy(k)`` — pick a maximum-weight independent k-set per round,
  guaranteeing a c/k ratio in O(c^k · n^k) time (Theorem 3); the paper finds
  k = 2 performs like plain greedy on real data;
* an exact solver is added here (branch and bound with a weight bound) so
  that the optimality-ratio claims can actually be measured in the ablation
  experiments and tests.

All solvers operate on an :class:`~repro.search.overlap_graph.OverlapGraph`
(or any object exposing ``weights``, ``adjacency``).  Greedy is one sweep
(:func:`greedy_sweep`) that also runs without the graph: the default
partition feeds it the fragments' vertex sets directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import (
    Callable,
    FrozenSet,
    Hashable,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from ..core.errors import PartitionError

from .overlap_graph import OverlapGraph

__all__ = [
    "MWISResult",
    "greedy_sweep",
    "greedy_mwis",
    "enhanced_greedy_mwis",
    "exact_mwis",
    "solve_mwis",
]


@dataclass(frozen=True)
class MWISResult:
    """An independent set and its total weight."""

    nodes: FrozenSet[int]
    weight: float
    method: str

    def __len__(self) -> int:
        return len(self.nodes)


def _check_independent(graph: OverlapGraph, nodes: Iterable[int]) -> None:
    if not graph.is_independent_set(nodes):
        raise AssertionError("solver returned a dependent set; this is a bug")


def greedy_order(weights: Sequence[float]) -> List[int]:
    """Nodes in Algorithm 1's pick order: heaviest first, lowest index on ties.

    ``weights`` is indexed by node (a list, or a ``{node: weight}`` dict over
    ``range(len(weights))``).
    """
    return sorted(range(len(weights)), key=lambda node: (-weights[node], node))


def greedy_sweep(
    weights: Sequence[float],
    probe: Callable[[int], Iterable[Hashable]],
    claim: Callable[[int], Iterable[Hashable]],
) -> MWISResult:
    """Algorithm 1 as one pass over :func:`greedy_order`.

    A node is taken when ``probe(node)`` misses everything claimed so far;
    taking it claims ``claim(node)``.  Visiting nodes heaviest first this
    way picks exactly what "take the heaviest remaining node, delete its
    neighbours" picks, without rescanning the remaining nodes each round.
    """
    claimed: Set[Hashable] = set()
    selected: Set[int] = set()
    for node in greedy_order(weights):
        if claimed.isdisjoint(probe(node)):
            selected.add(node)
            claimed.update(claim(node))
    return MWISResult(
        nodes=frozenset(selected),
        # Summed over the set as built, as this solver always has: the
        # frozenset can iterate in another order, which can change the
        # float sum in its last bit.
        weight=sum(weights[node] for node in selected),
        method="greedy",
    )


def greedy_mwis(graph: OverlapGraph) -> MWISResult:
    """Algorithm 1: repeatedly take the heaviest vertex, drop its neighbours.

    One :func:`greedy_sweep` whose claimed set is the neighbours dropped.
    """
    result = greedy_sweep(
        graph.weights, lambda node: (node,), graph.adjacency.__getitem__
    )
    _check_independent(graph, result.nodes)
    return result


def enhanced_greedy_mwis(graph: OverlapGraph, k: int = 2) -> MWISResult:
    """EnhancedGreedy(k): take a maximum-weight independent k-set per round.

    A "k-set" may contain fewer than ``k`` vertices (the paper allows it);
    each round enumerates all independent subsets of the remaining vertices
    with at most ``k`` elements, keeps the heaviest, and removes it together
    with its neighbourhood.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    remaining: Set[int] = set(range(graph.num_nodes))
    selected: Set[int] = set()
    while remaining:
        best_subset: Optional[Tuple[int, ...]] = None
        best_weight = float("-inf")
        candidates = sorted(remaining)
        for size in range(1, min(k, len(candidates)) + 1):
            for subset in combinations(candidates, size):
                subset_set = set(subset)
                independent = True
                for node in subset:
                    if graph.adjacency[node] & subset_set - {node}:
                        independent = False
                        break
                if not independent:
                    continue
                weight = graph.total_weight(subset)
                if weight > best_weight:
                    best_weight = weight
                    best_subset = subset
        if best_subset is None:
            break
        selected.update(best_subset)
        for node in best_subset:
            remaining.discard(node)
            remaining -= graph.adjacency[node]
    _check_independent(graph, selected)
    return MWISResult(
        nodes=frozenset(selected),
        weight=graph.total_weight(selected),
        method=f"enhanced-greedy-{k}",
    )


def exact_mwis(graph: OverlapGraph, max_nodes: int = 40) -> MWISResult:
    """Exact MWIS by branch and bound (small overlap graphs only).

    Raises
    ------
    PartitionError
        If the overlap graph has more than ``max_nodes`` nodes; the exact
        solver is meant for small queries, tests and ablations.
    """
    if graph.num_nodes > max_nodes:
        raise PartitionError(
            f"exact MWIS is limited to {max_nodes} fragments; this query has "
            f"{graph.num_nodes} (use 'greedy' or 'enhanced-greedy' for "
            "large queries)"
        )
    # Order vertices by decreasing weight so good solutions are found early.
    order = greedy_order(graph.weights)
    suffix_weight = [0.0] * (len(order) + 1)
    for position in range(len(order) - 1, -1, -1):
        suffix_weight[position] = suffix_weight[position + 1] + max(
            0.0, graph.weights[order[position]]
        )

    best_nodes: Set[int] = set()
    best_weight = 0.0

    def branch(position: int, chosen: Set[int], blocked: Set[int], weight: float):
        nonlocal best_nodes, best_weight
        if weight > best_weight:
            best_weight = weight
            best_nodes = set(chosen)
        if position == len(order):
            return
        # Bound: even taking every remaining positive weight cannot win.
        if weight + suffix_weight[position] <= best_weight:
            return
        node = order[position]
        if node not in blocked:
            branch(
                position + 1,
                chosen | {node},
                blocked | graph.adjacency[node],
                weight + graph.weights[node],
            )
        branch(position + 1, chosen, blocked, weight)

    branch(0, set(), set(), 0.0)
    _check_independent(graph, best_nodes)
    return MWISResult(
        nodes=frozenset(best_nodes), weight=best_weight, method="exact"
    )


def solve_mwis(graph: OverlapGraph, method: str = "greedy", k: int = 2) -> MWISResult:
    """Dispatch to a solver by name: ``greedy``, ``enhanced-greedy``, ``exact``."""
    if method == "greedy":
        return greedy_mwis(graph)
    if method in ("enhanced-greedy", "enhanced_greedy"):
        return enhanced_greedy_mwis(graph, k=k)
    if method == "exact":
        return exact_mwis(graph)
    raise ValueError(f"unknown MWIS method {method!r}")
