"""Per-equivalence-class index (one hash-table entry of Figure 5).

An :class:`EquivalenceClassIndex` couples the canonical skeleton of one
structural equivalence class (Definition 4) with

* a :class:`~repro.index.sequence.FragmentSequencer` that fixes the
  layout of the class's annotation sequences, and
* one range-query store holding ``(sequence, graph id)`` entries, chosen
  from the measure: a :class:`~repro.index.trie.TrieBackend` for the
  mutation distance and a :class:`_VectorStore` for the vectorizable
  linear mutation distance (the paper's Example 3).

The class answers the two questions PIS asks during search (Eq. 3 and
Algorithm 2, lines 9–17): *which database graphs contain a fragment of this
class within distance sigma of a query fragment, and at what minimum
distance?*  It also tracks which database graphs contain the structure at
all, which is what topoPrune and the structure-violation rule use.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, List, Set, Tuple, Union

import numpy as _np

from ..core.canonical import CanonicalCode
from ..core.distance import DistanceMeasure
from ..core.graph import LabeledGraph
from .sequence import FragmentSequencer
from .trie import TrieBackend

__all__ = ["EquivalenceClassIndex"]

AnnotationSequence = Tuple[Any, ...]
Vector = Tuple[float, ...]

#: Below this many stored vectors the scalar loop beats the numpy pass —
#: array construction and ufunc dispatch cost more than the whole scan.
#: Small per-class postings are the norm on database shards, so this keeps
#: a shard's range query from paying full-size fixed costs on a
#: quarter-size posting list.
_SCALAR_SCAN_MAX = 32


class _VectorStore:
    """Pre-vectorized annotation arrays for one equivalence class.

    Keeps every inserted occurrence as a numeric vector (via
    :meth:`DistanceMeasure.vectorize`) plus the owning graph id — one scan
    row per occurrence — and answers L1 range queries with one vectorized
    pass.  The numpy matrix is built lazily and invalidated on every
    change.  The distinct ``(vector, graph_id)`` entries are tracked per
    graph beside the rows, for :meth:`entries`, ``len()`` and removal.
    """

    __slots__ = (
        "measure",
        "_vectors",
        "_graph_ids",
        "_matrix",
        "_by_graph",
        "_num_entries",
    )

    def __init__(self, measure: DistanceMeasure):
        self.measure = measure
        self._vectors: List[Vector] = []
        self._graph_ids: List[int] = []
        self._matrix = None
        self._by_graph: Dict[int, Set[Vector]] = {}
        self._num_entries = 0

    def __len__(self) -> int:
        """Number of distinct ``(vector, graph_id)`` entries."""
        return self._num_entries

    def insert(self, sequence: AnnotationSequence, graph_id: int) -> None:
        vector = self.measure.vectorize(sequence)
        self._vectors.append(vector)
        self._graph_ids.append(graph_id)
        self._matrix = None
        distinct = self._by_graph.setdefault(graph_id, set())
        if vector not in distinct:
            distinct.add(vector)
            self._num_entries += 1

    def delete(self, graph_id: int) -> int:
        """Drop every row of ``graph_id``; return its distinct-entry count."""
        distinct = self._by_graph.pop(graph_id, None)
        if distinct is None:
            return 0
        kept = [
            (vector, owner)
            for vector, owner in zip(self._vectors, self._graph_ids)
            if owner != graph_id
        ]
        self._vectors = [vector for vector, _ in kept]
        self._graph_ids = [owner for _, owner in kept]
        self._matrix = None
        self._num_entries -= len(distinct)
        return len(distinct)

    def entries(self) -> Iterator[Tuple[Vector, int]]:
        for graph_id, vectors in self._by_graph.items():
            for vector in vectors:
                yield vector, graph_id

    def range_query(
        self, sequence: AnnotationSequence, radius: float
    ) -> Dict[int, float]:
        """``{graph_id: min L1 distance}`` over all stored vectors."""
        results: Dict[int, float] = {}
        if not self._vectors:
            return results
        point = self.measure.vectorize(sequence)
        if len(self._vectors) > _SCALAR_SCAN_MAX:
            if self._matrix is None:
                self._matrix = _np.asarray(self._vectors, dtype=float)
            distances = _np.abs(self._matrix - _np.asarray(point, dtype=float)).sum(
                axis=1
            )
            for position in _np.nonzero(distances <= radius)[0]:
                graph_id = self._graph_ids[position]
                distance = float(distances[position])
                best = results.get(graph_id)
                if best is None or distance < best:
                    results[graph_id] = distance
            return results
        for vector, graph_id in zip(self._vectors, self._graph_ids):
            distance = sum(abs(a - b) for a, b in zip(point, vector))
            if distance <= radius:
                best = results.get(graph_id)
                if best is None or distance < best:
                    results[graph_id] = distance
        return results


class EquivalenceClassIndex:
    """Range-query index for the fragments of one structural class."""

    def __init__(self, code: CanonicalCode, measure: DistanceMeasure):
        self.code = code
        self.measure = measure
        self.sequencer = FragmentSequencer(code)
        #: the class's one range-query store, chosen from the measure
        self.store: Union[TrieBackend, _VectorStore] = (
            _VectorStore(measure)
            if measure.supports_vectorization()
            else TrieBackend(measure)
        )
        # graphs that contain at least one occurrence of this structure
        self._containing_graphs: Set[int] = set()
        self._num_occurrences = 0
        # per-graph occurrence counts, so removing a graph can return the
        # class totals to exactly what a build without it would report
        self._occurrences_by_graph: Dict[int, int] = {}

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @property
    def skeleton(self) -> LabeledGraph:
        """Canonical skeleton of the class (vertices are DFS indices)."""
        return self.sequencer.skeleton

    def insert_occurrences(
        self, graph_id: int, sequences: List[AnnotationSequence]
    ) -> int:
        """Insert the occurrence sequences of one graph, in the given order.

        The sequences come from
        :meth:`repro.core.fragments.FragmentEnumerator.class_sequences`, in
        the serial build and in the parallel build's worker processes alike,
        so both produce byte-identical indexes.  Returns the number of
        occurrences inserted (0 if the structure does not appear in the
        graph).
        """
        for sequence in sequences:
            self.store.insert(sequence, graph_id)
        if sequences:
            self._containing_graphs.add(graph_id)
            self._num_occurrences += len(sequences)
            self._occurrences_by_graph[graph_id] = (
                self._occurrences_by_graph.get(graph_id, 0) + len(sequences)
            )
        return len(sequences)

    def insert_sequence(self, sequence: AnnotationSequence, graph_id: int) -> None:
        """Insert a pre-computed occurrence sequence (used when loading)."""
        self.store.insert(tuple(sequence), graph_id)
        self._containing_graphs.add(graph_id)
        self._num_occurrences += 1
        self._occurrences_by_graph[graph_id] = (
            self._occurrences_by_graph.get(graph_id, 0) + 1
        )

    def remove_graph(self, graph_id: int) -> int:
        """Remove every indexed occurrence of ``graph_id`` from this class.

        Updates the store, the containing-graph set, and the occurrence
        counts.  Returns the number of distinct store entries removed (0 if
        the graph never contained this structure).
        """
        if graph_id not in self._containing_graphs:
            return 0
        removed = self.store.delete(graph_id)
        self._containing_graphs.discard(graph_id)
        per_graph_total = sum(self._occurrences_by_graph.values())
        occurrences = self._occurrences_by_graph.pop(graph_id, removed)
        if self._num_occurrences == per_graph_total:
            self._num_occurrences -= occurrences
        else:
            # Indexes loaded from schema v1/v2 files restored an exact
            # total but only a distinct-entry per-graph breakdown
            # (duplicate occurrences collapse at save time), so the two
            # disagree.  Subtracting the undercounted per-graph value
            # would leave the total permanently inflated; reconcile to
            # the per-graph basis instead, which stays self-consistent
            # (num_occurrences == sum(occurrences_by_graph)) from here on.
            self._num_occurrences = per_graph_total - occurrences
        return removed

    def occurrences_of(self, graph_id: int) -> int:
        """Number of indexed occurrences owned by ``graph_id``."""
        return self._occurrences_by_graph.get(graph_id, 0)

    @property
    def occurrences_by_graph(self) -> Dict[int, int]:
        """Copy of the per-graph occurrence counts (graph id -> count)."""
        return dict(self._occurrences_by_graph)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def range_query(
        self, sequence: AnnotationSequence, sigma: float
    ) -> Dict[int, float]:
        """Return ``{graph_id: min distance}`` for fragments within ``sigma``.

        This evaluates ``d(g, G)`` of Eq. (3) restricted to this class: the
        minimum, over the stored occurrences of each graph, of the sequence
        distance to the query fragment — reported only when ``<= sigma``.
        """
        return self.store.range_query(tuple(sequence), sigma)

    def containing_graphs(self) -> Set[int]:
        """Graphs containing at least one occurrence of the structure."""
        return set(self._containing_graphs)

    @property
    def num_containing_graphs(self) -> int:
        """Number of database graphs containing this structure."""
        return len(self._containing_graphs)

    @property
    def num_occurrences(self) -> int:
        """Total number of indexed fragment occurrences."""
        return self._num_occurrences

    @property
    def num_entries(self) -> int:
        """Number of distinct ``(sequence, graph_id)`` entries in the store."""
        return len(self.store)

    def entries(self) -> Iterator[Tuple[AnnotationSequence, int]]:
        """Iterate over stored ``(sequence, graph_id)`` entries.

        The vector store yields each sequence in its vectorized form.
        """
        return self.store.entries()

    def __repr__(self) -> str:
        return (
            f"<EquivalenceClassIndex edges={self.sequencer.num_edges} "
            f"graphs={self.num_containing_graphs} entries={self.num_entries} "
            f"store={type(self.store).__name__}>"
        )
