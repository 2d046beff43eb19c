"""Minimum superimposed distance (Definition 1) and verification operators.

Given a query graph ``Q``, a target graph ``G`` and a decomposable distance
measure, the minimum superimposed distance is

```
d(Q, G) = min over monomorphisms f: Q -> G of cost(f)
```

and ``inf`` when no monomorphism exists (the paper writes ``d(g, G) = ∞``
when ``g ⊄ G``).  The candidate verification step of PIS evaluates exactly
this quantity — with a threshold so the search can stop as soon as a
superposition within ``sigma`` is found.

The implementation is a branch-and-bound backtracking search: the partial
superposition cost is accumulated as vertices are mapped (vertex cost when a
vertex is placed, edge cost when both endpoints of a query edge are placed)
and a branch is abandoned as soon as the partial cost exceeds the current
bound.  Costs are non-negative for both paper measures, so partial cost is a
valid lower bound of the full cost.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Hashable, List, Optional, Sequence, Tuple

from .distance import DistanceMeasure
from .graph import LabeledGraph
from .isomorphism import Embedding, _match_order

__all__ = [
    "SuperpositionResult",
    "minimum_superimposed_distance",
    "best_superposition",
    "within_distance",
    "graph_pair_distance",
    "INFINITE_DISTANCE",
]

#: Distance reported when the query structure is not contained in the target.
INFINITE_DISTANCE = math.inf


@dataclass(frozen=True)
class SuperpositionResult:
    """Result of a minimum superimposed distance computation.

    Attributes
    ----------
    distance:
        The minimum superimposed distance (``inf`` if no superposition).
    embedding:
        A best superposition achieving ``distance`` (``None`` if none exists,
        or if the search stopped early at a threshold and only the bound is
        needed).
    explored:
        Number of complete superpositions examined (diagnostics).
    early_exit:
        ``True`` when the search stopped before exhausting the branch-and-
        bound tree — either because ``stop_at_threshold`` was requested, or
        because a superposition matching ``known_lower_bound`` proved the
        minimum had been reached.
    nodes_expanded:
        Number of partial placements the search descended into (every
        accepted candidate at every position).  Together with ``explored``
        this makes pruning power observable: tighter bounds expand fewer
        nodes for the same answer.
    """

    distance: float
    embedding: Optional[Embedding]
    explored: int = 0
    early_exit: bool = False
    nodes_expanded: int = 0

    @property
    def exists(self) -> bool:
        """Return ``True`` if at least one superposition exists."""
        return self.distance != INFINITE_DISTANCE


def best_superposition(
    query: LabeledGraph,
    target: LabeledGraph,
    measure: DistanceMeasure,
    threshold: Optional[float] = None,
    stop_at_threshold: bool = False,
    known_lower_bound: Optional[float] = None,
) -> SuperpositionResult:
    """Find the superposition of ``query`` in ``target`` with minimum cost.

    Runs the array kernel of :mod:`repro.core.kernel` where it can run and
    the recursive reference search where it cannot (a target above
    :data:`~repro.core.kernel.MAX_KERNEL_VERTICES`, or a measure without
    cost tables).  The two return byte-identical distances.

    Parameters
    ----------
    query, target:
        Pattern and host graphs.
    measure:
        Decomposable superimposed distance measure.
    threshold:
        If given, branches whose partial cost exceeds ``threshold`` are
        pruned.  The returned distance is exact whenever it is
        ``<= threshold``; otherwise it is reported as ``inf``.
    stop_at_threshold:
        If ``True`` the search returns as soon as *any* superposition with
        cost ``<= threshold`` is found (used by the boolean verification
        :func:`within_distance`).  The returned distance is then an upper
        bound, not necessarily the minimum.
    known_lower_bound:
        A proven lower bound on the true distance (e.g. the partition-based
        bound of Eq. 2 computed during filtering).  The search stops as soon
        as a complete superposition with cost ``<= known_lower_bound`` is
        found: since no superposition can cost less than the bound, that
        superposition is provably minimal and the returned distance is still
        exact.  Passing a value that is *not* a true lower bound can make
        the result an upper bound instead of the minimum.

    Returns
    -------
    SuperpositionResult
        The minimum distance, a witnessing embedding, the number of
        complete superpositions explored, and whether the search exited
        early.
    """
    if 0 < query.num_vertices <= target.num_vertices and (
        query.num_edges <= target.num_edges
    ):
        from . import kernel as _kernel  # lazy: kernel imports our result type

        result = _kernel.kernel_best_superposition(
            query,
            target,
            measure,
            threshold=threshold,
            stop_at_threshold=stop_at_threshold,
            known_lower_bound=known_lower_bound,
        )
        if result is not None:
            return result
    return _reference_best_superposition(
        query,
        target,
        measure,
        threshold=threshold,
        stop_at_threshold=stop_at_threshold,
        known_lower_bound=known_lower_bound,
    )


def _reference_best_superposition(
    query: LabeledGraph,
    target: LabeledGraph,
    measure: DistanceMeasure,
    threshold: Optional[float] = None,
    stop_at_threshold: bool = False,
    known_lower_bound: Optional[float] = None,
) -> SuperpositionResult:
    """The recursive reference search behind :func:`best_superposition`.

    Same parameters and result.  It is the fallback where the kernel cannot
    run and the search :class:`~repro.search.NaiveSearch`, the correctness
    oracle, verifies with.
    """
    if query.num_vertices == 0:
        return SuperpositionResult(distance=0.0, embedding=Embedding({}), explored=1)
    if (
        query.num_vertices > target.num_vertices
        or query.num_edges > target.num_edges
    ):
        return SuperpositionResult(distance=INFINITE_DISTANCE, embedding=None)

    order = _match_order(query)
    position_of = {v: i for i, v in enumerate(order)}

    # Edges are charged at the position where their *second* endpoint is
    # mapped, so the partial cost is monotone along a branch.
    edges_at_position: List[List[Tuple[Hashable, Hashable]]] = [
        [] for _ in order
    ]
    for (u, v) in query.edges():
        position = max(position_of[u], position_of[v])
        edges_at_position[position].append((u, v))

    earlier_neighbors: List[List[Hashable]] = []
    seen: set = set()
    for v in order:
        earlier_neighbors.append([w for w in query.neighbors(v) if w in seen])
        seen.add(v)

    query_degrees = {v: query.degree(v) for v in query.vertices()}
    target_degrees = {v: target.degree(v) for v in target.vertices()}
    target_vertices = list(target.vertices())

    best_cost = INFINITE_DISTANCE
    best_mapping: Optional[Dict[Hashable, Hashable]] = None
    explored = 0
    nodes_expanded = 0
    bound = threshold if threshold is not None else INFINITE_DISTANCE

    mapping: Dict[Hashable, Hashable] = {}
    used: set = set()
    finished = False

    def backtrack(position: int, cost: float) -> None:
        nonlocal best_cost, best_mapping, explored, nodes_expanded, finished
        if finished:
            return
        if position == len(order):
            explored += 1
            if cost < best_cost:
                best_cost = cost
                best_mapping = dict(mapping)
                if stop_at_threshold and threshold is not None and cost <= threshold:
                    finished = True
                # A complete superposition at (or below) a proven lower bound
                # cannot be improved on: the minimum has been reached.
                if known_lower_bound is not None and cost <= known_lower_bound:
                    finished = True
            return

        qv = order[position]
        anchors = earlier_neighbors[position]
        if anchors:
            # Draw the candidate pool from the mapped anchor with the
            # smallest neighborhood: every anchor's neighborhood is a valid
            # pool (the adjacency check below covers the rest), so the
            # smallest one gives strictly fewer candidates to scan.
            pool_anchor = min(anchors, key=lambda a: target_degrees[mapping[a]])
            pool = target.neighbors(mapping[pool_anchor])
        else:
            pool = target_vertices
        for tv in pool:
            if tv in used:
                continue
            if target_degrees[tv] < query_degrees[qv]:
                continue
            consistent = True
            for anchor in anchors:
                if not target.has_edge(mapping[anchor], tv):
                    consistent = False
                    break
            if not consistent:
                continue

            step_cost = 0.0
            if measure.include_vertices:
                step_cost += measure.vertex_cost(query, qv, target, tv)
            if measure.include_edges:
                for (a, b) in edges_at_position[position]:
                    ta = tv if a == qv else mapping[a]
                    tb = tv if b == qv else mapping[b]
                    step_cost += measure.edge_cost(query, (a, b), target, (ta, tb))

            new_cost = cost + step_cost
            # Prune against both the best solution so far and the caller's
            # threshold; costs are non-negative so the partial cost is a
            # lower bound on any completion.
            if new_cost > bound or new_cost >= best_cost:
                continue
            nodes_expanded += 1
            mapping[qv] = tv
            used.add(tv)
            backtrack(position + 1, new_cost)
            del mapping[qv]
            used.discard(tv)
            if finished:
                return

    backtrack(0, 0.0)

    if best_mapping is None:
        return SuperpositionResult(
            distance=INFINITE_DISTANCE,
            embedding=None,
            explored=explored,
            nodes_expanded=nodes_expanded,
        )
    return SuperpositionResult(
        distance=best_cost,
        embedding=Embedding(best_mapping),
        explored=explored,
        early_exit=finished,
        nodes_expanded=nodes_expanded,
    )


def minimum_superimposed_distance(
    query: LabeledGraph,
    target: LabeledGraph,
    measure: DistanceMeasure,
    threshold: Optional[float] = None,
) -> float:
    """Return ``d(query, target)`` under ``measure`` (Definition 1).

    When ``threshold`` is given the result is exact if it does not exceed
    the threshold; otherwise ``inf`` is returned (sufficient for SSSD).
    """
    return best_superposition(query, target, measure, threshold=threshold).distance


def within_distance(
    query: LabeledGraph,
    target: LabeledGraph,
    measure: DistanceMeasure,
    sigma: float,
) -> bool:
    """Return ``True`` if ``d(query, target) <= sigma`` (verification test)."""
    result = best_superposition(
        query, target, measure, threshold=sigma, stop_at_threshold=True
    )
    return result.distance <= sigma


def graph_pair_distance(
    a: LabeledGraph,
    b: LabeledGraph,
    measure: DistanceMeasure,
) -> float:
    """Distance between two graphs with identical structure, ``d(a, b)``.

    This is the quantity the per-class indexes answer range queries over:
    both graphs belong to the same structural equivalence class, and the
    distance is the minimum cost over all isomorphisms between them.
    """
    if a.num_vertices != b.num_vertices or a.num_edges != b.num_edges:
        return INFINITE_DISTANCE
    return best_superposition(a, b, measure).distance
