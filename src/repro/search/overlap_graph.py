"""Overlapping-relation graph (Section 5, Figure 6).

Given the indexed fragments found in a query graph, PIS must choose a
vertex-disjoint subset of maximum total selectivity.  The fragments'
overlap structure is captured by the *overlapping-relation graph*: one node
per fragment, weighted by the fragment's selectivity, with an edge between
two fragments whenever they share a query-graph vertex.  A vertex-disjoint
partition of the query is exactly an independent set of this graph, which
is why the optimal partition problem reduces to maximum weighted
independent set (Theorem 1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, Iterable, List, Sequence, Set

from ..index.fragment_index import QueryFragment

__all__ = ["OverlapGraph"]


@dataclass
class OverlapGraph:
    """Weighted graph over query fragments; edges mark vertex overlaps.

    Nodes are integer indices into ``fragments``.
    """

    fragments: List[QueryFragment]
    weights: Dict[int, float]
    adjacency: Dict[int, Set[int]]

    @classmethod
    def build(
        cls,
        fragments: Sequence[QueryFragment],
        weights: Sequence[float],
    ) -> "OverlapGraph":
        """Build the overlapping-relation graph for the given fragments."""
        if len(fragments) != len(weights):
            raise ValueError("fragments and weights must have the same length")
        nodes = list(range(len(fragments)))
        # Two fragments overlap exactly when some query vertex lists both,
        # so an inverted list finds every overlap without testing all pairs.
        holders: Dict[Hashable, List[int]] = {}
        for node, fragment in enumerate(fragments):
            for vertex in fragment.vertices:
                holders.setdefault(vertex, []).append(node)
        adjacency: Dict[int, Set[int]] = {node: set() for node in nodes}
        for members in holders.values():
            for node in members:
                adjacency[node].update(members)
        for node in nodes:
            adjacency[node].discard(node)
        return cls(
            fragments=list(fragments),
            weights={node: float(weights[node]) for node in nodes},
            adjacency=adjacency,
        )

    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        """Number of fragment nodes."""
        return len(self.fragments)

    @property
    def num_edges(self) -> int:
        """Number of overlap edges."""
        return sum(len(neighbors) for neighbors in self.adjacency.values()) // 2

    def neighbors(self, node: int) -> Set[int]:
        """Neighbors (overlapping fragments) of ``node``."""
        return self.adjacency[node]

    def is_independent_set(self, nodes: Iterable[int]) -> bool:
        """Return ``True`` if no two of the given nodes overlap."""
        selected = list(nodes)
        selected_set = set(selected)
        for node in selected:
            if self.adjacency[node] & selected_set:
                return False
        return True

    def total_weight(self, nodes: Iterable[int]) -> float:
        """Sum of the weights of the given nodes."""
        return sum(self.weights[node] for node in nodes)

    def select_fragments(self, nodes: Iterable[int]) -> List[QueryFragment]:
        """Materialize the fragments corresponding to the given node ids."""
        return [self.fragments[node] for node in nodes]
