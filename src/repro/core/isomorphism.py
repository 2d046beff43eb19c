"""Subgraph isomorphism (superposition) enumeration.

The paper's subgraph isomorphism is *structure-only*: a query graph ``Q`` is
a subgraph of ``G`` if ``G`` contains a subgraph whose skeleton is isomorphic
to ``Q``'s skeleton (Section 2).  Labels are compared afterwards by the
superimposed distance measure.  This module therefore enumerates
*monomorphisms* — injective mappings from the pattern's vertices to the
target's vertices that preserve adjacency — ignoring labels by default, with
an optional label-compatibility hook used by the exact-match fast paths.

The implementation is a VF2-style backtracking search with:

* candidate ordering by pattern connectivity (always extend from a vertex
  adjacent to the already-mapped frontier when possible),
* degree-based pruning (a pattern vertex cannot map to a target vertex with
  smaller degree),
* optional early termination (``limit``) and a pure existence check.

An :class:`Embedding` records the vertex mapping and exposes helpers to read
off the image subgraph and the superimposed vertex/edge pairs needed by the
distance measures.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Hashable, Iterator, List, Optional, Sequence, Tuple

from .graph import LabeledGraph, edge_key

__all__ = [
    "Embedding",
    "find_embeddings",
    "iter_embeddings",
    "count_embeddings",
    "has_embedding",
    "is_subgraph",
    "is_isomorphic",
    "automorphisms",
    "match_plan",
]

VertexId = Hashable
LabelPredicate = Callable[[LabeledGraph, VertexId, LabeledGraph, VertexId], bool]


@dataclass(frozen=True)
class Embedding:
    """An injective, adjacency-preserving map from a pattern into a target.

    Attributes
    ----------
    mapping:
        Dictionary from pattern vertex id to target vertex id.
    """

    mapping: Dict[VertexId, VertexId]

    def __len__(self) -> int:
        return len(self.mapping)

    def image_vertices(self) -> Tuple[VertexId, ...]:
        """Return the target vertices covered by this embedding."""
        return tuple(self.mapping.values())

    def image_edges(self, pattern: LabeledGraph) -> List[Tuple[VertexId, VertexId]]:
        """Return the target edges that are images of pattern edges."""
        return [
            edge_key(self.mapping[u], self.mapping[v]) for (u, v) in pattern.edges()
        ]

    def image_subgraph(
        self, pattern: LabeledGraph, target: LabeledGraph
    ) -> LabeledGraph:
        """Return the image of the pattern inside the target as a graph.

        Only pattern edges are carried over (the image is a subgraph, not
        necessarily an induced subgraph, matching the paper's definition).
        """
        sub = LabeledGraph(name=target.name)
        for pv, tv in self.mapping.items():
            sub.add_vertex(
                tv,
                label=target.vertex_label(tv),
                weight=target.vertex_weight(tv) or None,
            )
        for (u, v) in pattern.edges():
            tu, tv = self.mapping[u], self.mapping[v]
            sub.add_edge(
                tu,
                tv,
                label=target.edge_label(tu, tv),
                weight=target.edge_weight(tu, tv) or None,
            )
        return sub

    def vertex_pairs(self) -> List[Tuple[VertexId, VertexId]]:
        """Return superimposed ``(pattern vertex, target vertex)`` pairs."""
        return list(self.mapping.items())

    def edge_pairs(
        self, pattern: LabeledGraph
    ) -> List[Tuple[Tuple[VertexId, VertexId], Tuple[VertexId, VertexId]]]:
        """Return superimposed ``(pattern edge, target edge)`` pairs."""
        pairs = []
        for (u, v) in pattern.edges():
            pairs.append(((u, v), edge_key(self.mapping[u], self.mapping[v])))
        return pairs


def _match_order(pattern: LabeledGraph) -> List[VertexId]:
    """Choose a matching order that keeps the mapped frontier connected.

    Starts from a vertex of maximum degree and repeatedly appends the
    unvisited vertex with the most already-ordered neighbors (ties broken by
    degree).  Keeping the frontier connected makes the adjacency-consistency
    check prune aggressively.
    """
    vertices = list(pattern.vertices())
    if not vertices:
        return []
    ordered: List[VertexId] = []
    placed = set()
    remaining = set(vertices)
    while remaining:
        if ordered:
            # Prefer vertices adjacent to what is already ordered.
            def score(v: VertexId) -> Tuple[int, int]:
                adjacent = sum(1 for w in pattern.neighbors(v) if w in placed)
                return (adjacent, pattern.degree(v))

            best = max(remaining, key=score)
        else:
            best = max(remaining, key=pattern.degree)
        ordered.append(best)
        placed.add(best)
        remaining.discard(best)
    return ordered


def match_plan(
    pattern: LabeledGraph,
) -> Tuple[List[VertexId], List[List[VertexId]]]:
    """Return ``(order, earlier_neighbors)`` of :func:`iter_embeddings`.

    ``order`` is the matching order; ``earlier_neighbors[i]`` lists the
    pattern neighbours of ``order[i]`` that come before it.  The search
    draws candidates for ``order[0]`` from ``target.vertices()`` and for a
    later vertex from ``target.neighbors()`` of the first earlier
    neighbour's image, so embeddings come out in lexicographic order of
    their positions in those sequences.  :mod:`repro.core.fragments`
    reproduces that order without running the search.
    """
    order = _match_order(pattern)
    earlier_neighbors: List[List[VertexId]] = []
    seen_so_far: set = set()
    for v in order:
        earlier_neighbors.append([w for w in pattern.neighbors(v) if w in seen_so_far])
        seen_so_far.add(v)
    return order, earlier_neighbors


def iter_embeddings(
    pattern: LabeledGraph,
    target: LabeledGraph,
    vertex_compatible: Optional[LabelPredicate] = None,
    limit: Optional[int] = None,
) -> Iterator[Embedding]:
    """Yield monomorphisms from ``pattern`` into ``target``.

    Parameters
    ----------
    pattern:
        The (usually small) graph to embed.
    target:
        The host graph.
    vertex_compatible:
        Optional predicate ``f(pattern, pv, target, tv)`` restricting which
        target vertex a pattern vertex may map to.  The default accepts any
        pair, which is the structure-only semantics of the paper.
    limit:
        If given, stop after yielding this many embeddings.

    Notes
    -----
    Every adjacency-preserving injective mapping is yielded, so embeddings
    that differ only by an automorphism of the pattern appear as distinct
    results.  This is exactly what the fragment index needs: by enumerating
    *all* embeddings of a feature structure, automorphism variants are
    covered on the database side (see ``repro.index.fragment_index``).
    """
    if pattern.num_vertices == 0:
        yield Embedding(mapping={})
        return
    if pattern.num_vertices > target.num_vertices:
        return
    if pattern.num_edges > target.num_edges:
        return

    order, earlier_neighbors = match_plan(pattern)
    target_vertices = list(target.vertices())
    pattern_degrees = {v: pattern.degree(v) for v in pattern.vertices()}
    target_degrees = {v: target.degree(v) for v in target_vertices}

    mapping: Dict[VertexId, VertexId] = {}
    used = set()
    yielded = 0

    def candidates(position: int) -> Sequence[VertexId]:
        pv = order[position]
        anchors = earlier_neighbors[position]
        if anchors:
            # Restrict to neighbors of an already-mapped anchor vertex.
            pool = target.neighbors(mapping[anchors[0]])
        else:
            pool = target_vertices
        result = []
        for tv in pool:
            if tv in used:
                continue
            if target_degrees[tv] < pattern_degrees[pv]:
                continue
            if vertex_compatible is not None and not vertex_compatible(
                pattern, pv, target, tv
            ):
                continue
            ok = True
            for anchor in anchors:
                if not target.has_edge(mapping[anchor], tv):
                    ok = False
                    break
            if ok:
                result.append(tv)
        return result

    def backtrack(position: int) -> Iterator[Embedding]:
        nonlocal yielded
        if position == len(order):
            yielded += 1
            yield Embedding(mapping=dict(mapping))
            return
        pv = order[position]
        for tv in candidates(position):
            mapping[pv] = tv
            used.add(tv)
            yield from backtrack(position + 1)
            del mapping[pv]
            used.discard(tv)
            if limit is not None and yielded >= limit:
                return

    for embedding in backtrack(0):
        yield embedding
        if limit is not None and yielded >= limit:
            return


def find_embeddings(
    pattern: LabeledGraph,
    target: LabeledGraph,
    vertex_compatible: Optional[LabelPredicate] = None,
    limit: Optional[int] = None,
) -> List[Embedding]:
    """Return the list of monomorphisms from ``pattern`` into ``target``."""
    return list(
        iter_embeddings(
            pattern, target, vertex_compatible=vertex_compatible, limit=limit
        )
    )


def count_embeddings(
    pattern: LabeledGraph,
    target: LabeledGraph,
    vertex_compatible: Optional[LabelPredicate] = None,
) -> int:
    """Return the number of monomorphisms from ``pattern`` into ``target``."""
    return sum(
        1
        for _ in iter_embeddings(
            pattern, target, vertex_compatible=vertex_compatible
        )
    )


def has_embedding(
    pattern: LabeledGraph,
    target: LabeledGraph,
    vertex_compatible: Optional[LabelPredicate] = None,
) -> bool:
    """Return ``True`` if at least one monomorphism exists."""
    for _ in iter_embeddings(
        pattern, target, vertex_compatible=vertex_compatible, limit=1
    ):
        return True
    return False


def is_subgraph(pattern: LabeledGraph, target: LabeledGraph) -> bool:
    """Structure-only subgraph test: ``pattern ⊆ target`` per the paper."""
    return has_embedding(pattern, target)


def is_isomorphic(a: LabeledGraph, b: LabeledGraph) -> bool:
    """Structure-only graph isomorphism test.

    Two graphs are isomorphic when each is a subgraph of the other; for
    equal-sized graphs a single monomorphism check suffices.
    """
    if a.num_vertices != b.num_vertices or a.num_edges != b.num_edges:
        return False
    degree_a = sorted(a.degree(v) for v in a.vertices())
    degree_b = sorted(b.degree(v) for v in b.vertices())
    if degree_a != degree_b:
        return False
    return has_embedding(a, b)


def automorphisms(graph: LabeledGraph) -> List[Embedding]:
    """Return all structure-only automorphisms of ``graph``.

    Automorphisms are monomorphisms from the graph into itself; because the
    vertex counts match, every such mapping is a bijection.
    """
    return find_embeddings(graph, graph)
