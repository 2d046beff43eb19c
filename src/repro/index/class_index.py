"""Per-equivalence-class index (one hash-table entry of Figure 5).

An :class:`EquivalenceClassIndex` couples the canonical skeleton of one
structural equivalence class (Definition 4) with

* a :class:`~repro.index.sequence.FragmentSequencer` that fixes the
  layout of the class's annotation sequences, and
* one :class:`SequenceStore` holding the class's ``(sequence, graph id)``
  entries as coded columns, for every measure: categorical labels under
  the mutation distance and numeric weights under the linear mutation
  distance (the paper's Example 3) alike.

The class answers the two questions PIS asks during search (Eq. 3 and
Algorithm 2, lines 9–17): *which database graphs contain a fragment of this
class within distance sigma of a query fragment, and at what minimum
distance?*  It also tracks which database graphs contain the structure at
all, which is what topoPrune and the structure-violation rule use.
"""

from __future__ import annotations

from array import array
from typing import Any, Dict, Iterator, List, Set, Tuple

import numpy as _np

from ..core.canonical import CanonicalCode
from ..core.distance import DistanceMeasure
from ..core.graph import LabeledGraph
from .sequence import FragmentSequencer

__all__ = ["EquivalenceClassIndex", "SequenceStore"]

AnnotationSequence = Tuple[Any, ...]


class SequenceStore:
    """Coded-column range-query store of one class's annotation sequences.

    Every distinct sequence is encoded once, as a row of small integer
    codes over per-position alphabets (the first annotation seen at a
    position gets code 0, the next new one code 1, ...), and memoised, so
    an insert costs one dict lookup plus a dedup-set check.  Every distinct
    ``(sequence, graph_id)`` entry is one row holding the sequence's number
    and the graph id.  All of it lives in flat ``array("q")`` buffers that
    grow by amortised append and shrink by mask compaction on
    :meth:`delete`, so the store is always complete: a range query reads
    the buffers through zero-copy numpy views, and forked workers inherit
    them as they are.  Distinct sequences outlive their rows; once they
    outnumber twice the rows (plus 32), :meth:`delete` re-encodes the live
    entries, so numeric annotations under churn cannot grow the store
    without bound.

    A range query builds one score row per position — the distances from
    the query's annotation to that position's alphabet, from
    :meth:`~repro.core.distance.DistanceMeasure.annotation_distances` —
    gathers it by code and adds the columns in sequence order starting
    from ``0.0``: the float additions of
    :meth:`~repro.core.distance.DistanceMeasure.sequence_distance`, in its
    order, so every distance is bit-identical to it.  Rows within the
    radius are kept and each graph's minimum is reported.

    >>> from repro.core import MutationDistance
    >>> store = SequenceStore(MutationDistance(), 2)
    >>> store.insert(("C", "N"), 0)
    >>> store.insert(("C", "N"), 0)
    >>> store.insert(("C", "O"), 1)
    >>> len(store), store.range_query(("C", "O"), 1.0)
    (2, {0: 1.0, 1: 0.0})
    """

    def __init__(self, measure: DistanceMeasure, length: int):
        self.measure = measure
        #: the class's layout length; every sequence must have it
        self.length = length
        # distinct sequences: by number, number by sequence, and their code
        # rows (row-major, ``length`` codes each)
        self._sequences: List[AnnotationSequence] = []
        self._numbers: Dict[AnnotationSequence, int] = {}
        self._codes = array("q")
        # per position: code by annotation, in code order
        self._alphabets: List[Dict[Any, int]] = [{} for _ in range(length)]
        # one row per entry: its sequence number and graph id
        self._rows = array("q")
        self._ids = array("q")
        # the graphs owning each sequence, by number: insert's dedup sets
        self._owners: List[Set[int]] = []

    def __len__(self) -> int:
        """Number of distinct ``(sequence, graph_id)`` entries (rows)."""
        return len(self._ids)

    def _check_length(self, sequence: AnnotationSequence) -> None:
        if len(sequence) != self.length:
            raise ValueError(
                f"sequence of length {len(sequence)} in an equivalence class "
                f"whose sequences have length {self.length}"
            )

    def _number(self, sequence: AnnotationSequence) -> int:
        number = self._numbers.get(sequence)
        if number is None:
            self._check_length(sequence)
            codes = self._codes
            for alphabet, annotation in zip(self._alphabets, sequence):
                codes.append(alphabet.setdefault(annotation, len(alphabet)))
            number = self._numbers[sequence] = len(self._sequences)
            self._sequences.append(sequence)
            self._owners.append(set())
        return number

    def insert(self, sequence: AnnotationSequence, graph_id: int) -> None:
        number = self._number(sequence)
        owners = self._owners[number]
        if graph_id in owners:
            return
        owners.add(graph_id)
        self._rows.append(number)
        self._ids.append(graph_id)

    def delete(self, graph_id: int) -> int:
        """Drop every row of ``graph_id``; return how many there were."""
        ids = _np.frombuffer(self._ids, dtype=_np.int64)
        keep = ids != graph_id
        removed = len(ids) - int(_np.count_nonzero(keep))
        if not removed:
            return 0
        rows = _np.frombuffer(self._rows, dtype=_np.int64)
        for number in rows[~keep].tolist():
            self._owners[number].discard(graph_id)
        self._rows = array("q", rows[keep].tobytes())
        self._ids = array("q", ids[keep].tobytes())
        if len(self._sequences) > 2 * len(self._ids) + 32:
            # amortised over the inserts that made the dead sequences
            entries = list(self.entries())
            self.__init__(self.measure, self.length)
            for sequence, owner in entries:
                self.insert(sequence, owner)
        return removed

    def entries(self) -> Iterator[Tuple[AnnotationSequence, int]]:
        """The stored ``(sequence, graph_id)`` entries, read from the rows."""
        sequences = self._sequences
        return zip([sequences[number] for number in self._rows], self._ids.tolist())

    def range_query(
        self, sequence: AnnotationSequence, radius: float
    ) -> Dict[int, float]:
        """Return ``{graph_id: min distance}`` for distances ``<= radius``."""
        self._check_length(sequence)
        if not self._ids:
            return {}
        codes = _np.frombuffer(self._codes, dtype=_np.int64).reshape(
            len(self._sequences), self.length
        )
        scores = _np.zeros(len(codes))
        for position, (annotation, alphabet) in enumerate(
            zip(sequence, self._alphabets)
        ):
            row = self.measure.annotation_distances(annotation, list(alphabet))
            scores += row[codes[:, position]]
        rows = _np.frombuffer(self._rows, dtype=_np.int64)
        hits = _np.flatnonzero((scores <= radius)[rows])
        numbers = rows[hits]
        ids = _np.frombuffer(self._ids, dtype=_np.int64)[hits]
        # by graph, then distance: each graph's first row is its minimum
        order = _np.lexsort((scores[numbers], ids))
        ids = ids[order]
        first = _np.ones(len(ids), dtype=bool)
        first[1:] = ids[1:] != ids[:-1]
        best = order[first]
        # one float object per sequence, shared by the graphs it reaches
        distances = scores.tolist()
        return {
            graph_id: distances[number]
            for graph_id, number in zip(ids[first].tolist(), numbers[best].tolist())
        }


class EquivalenceClassIndex:
    """Range-query index for the fragments of one structural class."""

    def __init__(self, code: CanonicalCode, measure: DistanceMeasure):
        self.code = code
        self.measure = measure
        self.sequencer = FragmentSequencer(code)
        #: the class's range-query store
        self.store = SequenceStore(measure, self.sequencer.sequence_length(measure))
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
        """Iterate over stored ``(sequence, graph_id)`` entries."""
        return self.store.entries()

    def __repr__(self) -> str:
        return (
            f"<EquivalenceClassIndex edges={self.sequencer.num_edges} "
            f"graphs={self.num_containing_graphs} entries={self.num_entries}>"
        )
