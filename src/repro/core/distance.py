"""Superimposed distance measures.

The paper defines a *superimposed distance* as a distance applied to two
graphs that have been superimposed (aligned) by a structure-only isomorphism.
Two concrete measures are given:

* **Mutation Distance (MD)** — ``sum_v D(l(v), l'(f(v))) + sum_e D(l(e),
  l'(f(e)))`` where ``D`` is a mutation score matrix over categorical labels.
  With the default 0/1 matrix this counts mismatched labels, which is the
  measure used throughout the paper's experiments ("number of edges whose
  labels are mismatched").
* **Linear Mutation Distance (LD)** — ``sum_v |w(v) - w'(f(v))| + sum_e
  |w(e) - w'(f(e))|`` over numeric weights.

Both measures decompose over vertices and edges, which is exactly why the
partition lower bound (Eq. 2 in the paper) holds: the distance of the whole
superposition is the sum of per-element costs, and a vertex-disjoint
partition of the query touches disjoint subsets of those elements.

A measure exposes three views used by different parts of the system:

``embedding_cost``
    cost of a concrete superposition (used by verification),
``sequence_distance``
    distance between two label/weight sequences read in the same canonical
    order (the definition the per-class index store reproduces),
``annotation_distances``
    distances from one annotation to an array of annotations: the score
    row the per-class index store gathers by code.  The base class loops
    ``annotation_distance``; the linear measure computes it in one numpy
    pass, bit-equal to the scalar form.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, Hashable, List, Mapping, Optional, Sequence, Tuple

import numpy as _np

from .errors import DistanceError
from .graph import LabeledGraph
from .isomorphism import Embedding

__all__ = [
    "MutationScoreMatrix",
    "DistanceMeasure",
    "MutationDistance",
    "LinearMutationDistance",
    "default_edge_mutation_distance",
]

Label = Hashable


class MutationScoreMatrix:
    """Symmetric mutation cost matrix over categorical labels.

    The default behaviour is the 0/1 matrix: identical labels cost 0, any
    mutation costs ``mismatch_cost`` (1 by default).  Specific label pairs
    can be overridden with :meth:`set_score`, e.g. to make a single→double
    bond mutation cheaper than single→triple.

    Examples
    --------
    >>> matrix = MutationScoreMatrix()
    >>> matrix.score("C", "C")
    0.0
    >>> matrix.score("C", "N")
    1.0
    >>> matrix.set_score("single", "double", 0.5)
    >>> matrix.score("double", "single")
    0.5
    """

    def __init__(
        self,
        scores: Optional[Mapping[Tuple[Label, Label], float]] = None,
        mismatch_cost: float = 1.0,
        match_cost: float = 0.0,
    ):
        if mismatch_cost < 0 or match_cost < 0:
            raise DistanceError("mutation costs must be non-negative")
        self.mismatch_cost = float(mismatch_cost)
        self.match_cost = float(match_cost)
        self._scores: Dict[Tuple[Label, Label], float] = {}
        if scores:
            for (a, b), cost in scores.items():
                self.set_score(a, b, cost)

    @staticmethod
    def _key(a: Label, b: Label) -> Tuple[Label, Label]:
        pair = sorted(((type(a).__name__, repr(a), a), (type(b).__name__, repr(b), b)))
        return (pair[0][2], pair[1][2])

    def set_score(self, a: Label, b: Label, cost: float) -> None:
        """Set the mutation cost between labels ``a`` and ``b`` (symmetric)."""
        if cost < 0:
            raise DistanceError("mutation costs must be non-negative")
        self._scores[self._key(a, b)] = float(cost)

    def score(self, a: Label, b: Label) -> float:
        """Return the mutation cost between labels ``a`` and ``b``."""
        default = self.match_cost if a == b else self.mismatch_cost
        if not self._scores:
            return default
        return self._scores.get(self._key(a, b), default)

    def to_dict(self) -> Dict[str, Any]:
        """Return a JSON-serializable description of the matrix."""
        return {
            "mismatch_cost": self.mismatch_cost,
            "match_cost": self.match_cost,
            "scores": [
                {"a": a, "b": b, "cost": cost}
                for (a, b), cost in sorted(
                    self._scores.items(), key=lambda item: repr(item[0])
                )
            ],
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "MutationScoreMatrix":
        """Rebuild a matrix from :meth:`to_dict` output."""
        matrix = cls(
            mismatch_cost=data.get("mismatch_cost", 1.0),
            match_cost=data.get("match_cost", 0.0),
        )
        for entry in data.get("scores", []):
            matrix.set_score(entry["a"], entry["b"], entry["cost"])
        return matrix


class DistanceMeasure:
    """Base class for superimposed distance measures.

    A measure declares which graph elements it scores (vertices and/or
    edges) and how a single superimposed pair is scored.  All derived
    quantities (embedding cost, sequence distance, partial costs for
    branch-and-bound) are implemented here once.
    """

    #: short identifier used in serialized indexes and reports
    name = "abstract"

    def __init__(self, include_vertices: bool = True, include_edges: bool = True):
        if not include_vertices and not include_edges:
            raise DistanceError(
                "a distance measure must score vertices, edges, or both"
            )
        self.include_vertices = include_vertices
        self.include_edges = include_edges

    # ------------------------------------------------------------------
    # element-level costs (to be overridden)
    # ------------------------------------------------------------------
    def vertex_cost(
        self,
        query: LabeledGraph,
        query_vertex: Hashable,
        target: LabeledGraph,
        target_vertex: Hashable,
    ) -> float:
        """Cost of superimposing one query vertex onto one target vertex."""
        raise NotImplementedError

    def edge_cost(
        self,
        query: LabeledGraph,
        query_edge: Tuple[Hashable, Hashable],
        target: LabeledGraph,
        target_edge: Tuple[Hashable, Hashable],
    ) -> float:
        """Cost of superimposing one query edge onto one target edge."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # vectorized cost tables (used by repro.core.kernel)
    # ------------------------------------------------------------------
    def vertex_cost_matrix(
        self,
        query: LabeledGraph,
        query_vertices: Sequence[Hashable],
        target: LabeledGraph,
        target_vertices: Sequence[Hashable],
    ) -> Any:
        """Dense ``len(query_vertices) x len(target_vertices)`` cost matrix.

        Entry ``[i, j]`` must equal ``vertex_cost(query, query_vertices[i],
        target, target_vertices[j])`` *exactly* (bit-for-bit): the kernel
        relies on this to stay byte-identical to the recursive path.  The
        generic implementation evaluates the scalar hook per cell, so any
        third-party measure is automatically kernel-compatible; subclasses
        override it with batched computation.  An override may return
        ``None`` to keep the kernel off for this measure.
        """
        table = _np.empty(
            (len(query_vertices), len(target_vertices)), dtype=_np.float64
        )
        for i, qv in enumerate(query_vertices):
            for j, tv in enumerate(target_vertices):
                table[i, j] = self.vertex_cost(query, qv, target, tv)
        return table

    def edge_cost_table(
        self,
        query: LabeledGraph,
        query_edges: Sequence[Tuple[Hashable, Hashable]],
        target: LabeledGraph,
        target_edges: Sequence[Tuple[Hashable, Hashable]],
    ) -> Any:
        """Dense ``len(query_edges) x len(target_edges)`` edge-cost table.

        Entry ``[i, j]`` must equal ``edge_cost(query, query_edges[i],
        target, target_edges[j])`` exactly, mirroring
        :meth:`vertex_cost_matrix`.
        """
        table = _np.empty((len(query_edges), len(target_edges)), dtype=_np.float64)
        for i, qe in enumerate(query_edges):
            for j, te in enumerate(target_edges):
                table[i, j] = self.edge_cost(query, qe, target, te)
        return table

    # ------------------------------------------------------------------
    # element annotations (used by the index stores)
    # ------------------------------------------------------------------
    def vertex_annotation(self, graph: LabeledGraph, vertex: Hashable) -> Any:
        """Value stored per vertex in index sequences (label or weight)."""
        raise NotImplementedError

    def edge_annotation(
        self, graph: LabeledGraph, edge: Tuple[Hashable, Hashable]
    ) -> Any:
        """Value stored per edge in index sequences (label or weight)."""
        raise NotImplementedError

    def annotation_distance(self, a: Any, b: Any) -> float:
        """Distance between two per-element annotations."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # derived quantities
    # ------------------------------------------------------------------
    def embedding_cost(
        self, query: LabeledGraph, target: LabeledGraph, embedding: Embedding
    ) -> float:
        """Total cost of superimposing ``query`` onto ``target`` via ``embedding``."""
        total = 0.0
        if self.include_vertices:
            for qv, tv in embedding.mapping.items():
                total += self.vertex_cost(query, qv, target, tv)
        if self.include_edges:
            for q_edge, t_edge in embedding.edge_pairs(query):
                total += self.edge_cost(query, q_edge, target, t_edge)
        return total

    def sequence_distance(self, a: Sequence[Any], b: Sequence[Any]) -> float:
        """Distance between two annotation sequences of equal length.

        Sequences are read by :class:`repro.core.fragments.FragmentEnumerator`
        in the layout of a structural equivalence class
        (:class:`repro.index.sequence.FragmentSequencer`), so position ``i``
        of both sequences refers to the same canonical element.  The
        per-position distances are added in sequence order starting from
        ``0.0`` (builtin ``sum`` compensates rounding on Python 3.12+, which
        no range-query store reproduces).
        """
        if len(a) != len(b):
            raise DistanceError(
                f"sequences must have equal length ({len(a)} != {len(b)})"
            )
        total = 0.0
        for x, y in zip(a, b):
            total += self.annotation_distance(x, y)
        return total

    def annotation_distances(self, annotation: Any, annotations: Sequence[Any]) -> Any:
        """Distances from ``annotation`` to each of ``annotations``.

        Returns a float64 array whose entry ``i`` equals
        ``annotation_distance(annotation, annotations[i])`` exactly, so a
        store summing gathered entries in sequence order reproduces
        :meth:`sequence_distance` bit for bit.  Subclasses may override it
        with a batched computation that keeps that equality.
        """
        return _np.array(
            [self.annotation_distance(annotation, other) for other in annotations],
            dtype=_np.float64,
        )

    def describe(self) -> Dict[str, Any]:
        """Return a JSON-serializable description of this measure."""
        return {
            "name": self.name,
            "include_vertices": self.include_vertices,
            "include_edges": self.include_edges,
        }

    def cache_token(self) -> str:
        """Stable identity token of the measure's semantics, for cache keys.

        Two measures with the same :meth:`describe` output score every
        superposition identically, so memoized distances keyed by this token
        can safely be shared between measure instances (and never between
        semantically different measures).

        Examples
        --------
        >>> default_edge_mutation_distance().cache_token() == \\
        ...     default_edge_mutation_distance().cache_token()
        True
        >>> MutationDistance().cache_token() == \\
        ...     LinearMutationDistance().cache_token()
        False
        """
        return json.dumps(self.describe(), sort_keys=True, default=repr)


class MutationDistance(DistanceMeasure):
    """Mutation distance (MD) over categorical labels.

    Parameters
    ----------
    matrix:
        Mutation score matrix; defaults to the 0/1 matrix, in which case the
        distance is simply the number of mismatched labels.
    include_vertices / include_edges:
        Which elements are scored.  The paper's experiments use
        ``include_vertices=False, include_edges=True`` ("we ignore vertex
        labels in this test"); see :func:`default_edge_mutation_distance`.
    """

    name = "mutation"

    def __init__(
        self,
        matrix: Optional[MutationScoreMatrix] = None,
        include_vertices: bool = True,
        include_edges: bool = True,
    ):
        super().__init__(include_vertices=include_vertices, include_edges=include_edges)
        self.matrix = matrix if matrix is not None else MutationScoreMatrix()

    def vertex_cost(self, query, query_vertex, target, target_vertex) -> float:
        return self.matrix.score(
            query.vertex_label(query_vertex), target.vertex_label(target_vertex)
        )

    def edge_cost(self, query, query_edge, target, target_edge) -> float:
        return self.matrix.score(
            query.edge_label(*query_edge), target.edge_label(*target_edge)
        )

    def _label_cost_table(self, q_labels: List[Any], t_labels: List[Any]) -> Any:
        """Score every label pair, evaluating the matrix once per unique pair.

        Labels are uniqued by ``(type(label), label)`` so that values that
        compare equal across types (``1`` vs ``True``) keep distinct codes.
        Unhashable labels fall back to the per-cell scalar loop.
        """
        try:
            q_unique: Dict[Any, int] = {}
            q_codes = [
                q_unique.setdefault((type(lab), lab), len(q_unique))
                for lab in q_labels
            ]
            t_unique: Dict[Any, int] = {}
            t_codes = [
                t_unique.setdefault((type(lab), lab), len(t_unique))
                for lab in t_labels
            ]
        except TypeError:
            table = _np.empty((len(q_labels), len(t_labels)), dtype=_np.float64)
            for i, a in enumerate(q_labels):
                for j, b in enumerate(t_labels):
                    table[i, j] = self.matrix.score(a, b)
            return table
        base = _np.empty((len(q_unique), len(t_unique)), dtype=_np.float64)
        for (_, a), i in q_unique.items():
            for (_, b), j in t_unique.items():
                base[i, j] = self.matrix.score(a, b)
        rows = _np.asarray(q_codes, dtype=_np.intp)
        cols = _np.asarray(t_codes, dtype=_np.intp)
        return base[rows[:, None], cols[None, :]]

    @staticmethod
    def _edge_label_list(
        graph: LabeledGraph, edges: Sequence[Tuple[Hashable, Hashable]]
    ) -> List[Any]:
        """Edge labels for ``edges`` via one bulk read of the label map.

        The kernel passes canonical edge keys, which index the label map
        directly; non-canonical keys fall back to the accessor.
        """
        labels = graph.edge_labels()
        try:
            return [labels[e] for e in edges]
        except (KeyError, TypeError):
            return [graph.edge_label(*e) for e in edges]

    def vertex_cost_matrix(self, query, query_vertices, target, target_vertices):
        query_labels = query.vertex_labels()
        target_labels = target.vertex_labels()
        return self._label_cost_table(
            [query_labels[v] for v in query_vertices],
            [target_labels[v] for v in target_vertices],
        )

    def edge_cost_table(self, query, query_edges, target, target_edges):
        return self._label_cost_table(
            self._edge_label_list(query, query_edges),
            self._edge_label_list(target, target_edges),
        )

    def vertex_annotation(self, graph, vertex):
        return graph.vertex_label(vertex)

    def edge_annotation(self, graph, edge):
        return graph.edge_label(*edge)

    def annotation_distance(self, a, b) -> float:
        return self.matrix.score(a, b)

    def describe(self) -> Dict[str, Any]:
        data = super().describe()
        data["matrix"] = self.matrix.to_dict()
        return data


class LinearMutationDistance(DistanceMeasure):
    """Linear mutation distance (LD) over numeric weights.

    The per-element cost is ``|w - w'|``; elements without an explicit
    weight default to 0.  Annotations are numeric, so the score rows of
    :meth:`annotation_distances` come from one numpy pass.
    """

    name = "linear"

    def __init__(self, include_vertices: bool = True, include_edges: bool = True):
        super().__init__(include_vertices=include_vertices, include_edges=include_edges)

    def vertex_cost(self, query, query_vertex, target, target_vertex) -> float:
        return abs(
            query.vertex_weight(query_vertex) - target.vertex_weight(target_vertex)
        )

    def edge_cost(self, query, query_edge, target, target_edge) -> float:
        return abs(query.edge_weight(*query_edge) - target.edge_weight(*target_edge))

    def vertex_cost_matrix(self, query, query_vertices, target, target_vertices):
        q = _np.array(
            [query.vertex_weight(v) for v in query_vertices], dtype=_np.float64
        )
        t = _np.array(
            [target.vertex_weight(v) for v in target_vertices], dtype=_np.float64
        )
        return _np.abs(q[:, None] - t[None, :])

    def edge_cost_table(self, query, query_edges, target, target_edges):
        q = _np.array([query.edge_weight(*e) for e in query_edges], dtype=_np.float64)
        t = _np.array([target.edge_weight(*e) for e in target_edges], dtype=_np.float64)
        return _np.abs(q[:, None] - t[None, :])

    def vertex_annotation(self, graph, vertex):
        return float(graph.vertex_weight(vertex))

    def edge_annotation(self, graph, edge):
        return float(graph.edge_weight(*edge))

    def annotation_distance(self, a, b) -> float:
        return abs(float(a) - float(b))

    def annotation_distances(self, annotation, annotations):
        return _np.abs(float(annotation) - _np.asarray(annotations, dtype=_np.float64))


def default_edge_mutation_distance() -> MutationDistance:
    """Return the measure used in the paper's experiments.

    Section 7: "We use the edge mutation distance ... the number of edges
    whose labels are mismatched when we superimpose the query graph to a
    target graph.  We ignore vertex labels in this test."
    """
    return MutationDistance(include_vertices=False, include_edges=True)
