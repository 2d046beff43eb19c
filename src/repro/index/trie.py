"""Trie store for categorical annotation sequences (mutation distance).

The paper stores sequentialized labeled fragments of one structural class in
a trie and answers range queries ``d(g, g') <= sigma`` against it.  With the
mutation distance, the distance between two equal-length sequences is the
sum of per-position mutation scores, so a depth-first walk of the trie can
accumulate the score position by position and abandon a subtree as soon as
the partial score exceeds the radius — giving sub-linear behaviour whenever
fragments share prefixes (which chemical fragments overwhelmingly do: most
bonds are single carbon-carbon bonds).

The trie stores ``(sequence, graph_id)`` pairs (identical sequences from the
same graph collapse into one entry) and is dynamic: :meth:`TrieBackend.delete`
drops every entry of one graph id and prunes the branches it leaves empty,
so the fragment index can remove database graphs without a rebuild.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, List, Optional, Tuple

from ..core.distance import DistanceMeasure

__all__ = ["TrieBackend", "TrieNode"]

AnnotationSequence = Tuple[Any, ...]


class TrieNode:
    """One trie node; children are keyed by the annotation at that depth."""

    __slots__ = ("children", "graph_ids")

    def __init__(self):
        self.children: Dict[Any, "TrieNode"] = {}
        # graph ids whose sequence terminates at this node
        self.graph_ids: set = set()

    def subtree_size(self) -> int:
        """Number of ``(sequence, graph_id)`` entries below (and at) this node."""
        total = len(self.graph_ids)
        for child in self.children.values():
            total += child.subtree_size()
        return total


class TrieBackend:
    """Prefix tree over annotation sequences with branch-and-bound search."""

    def __init__(self, measure: DistanceMeasure):
        self.measure = measure
        self._root = TrieNode()
        self._num_entries = 0
        self._sequence_length: Optional[int] = None

    def insert(self, sequence: AnnotationSequence, graph_id: int) -> None:
        sequence = tuple(sequence)
        if self._sequence_length is None:
            self._sequence_length = len(sequence)
        elif len(sequence) != self._sequence_length:
            raise ValueError(
                "all sequences in one equivalence class must have equal length"
            )
        node = self._root
        for annotation in sequence:
            child = node.children.get(annotation)
            if child is None:
                child = TrieNode()
                node.children[annotation] = child
            node = child
        if graph_id not in node.graph_ids:
            node.graph_ids.add(graph_id)
            self._num_entries += 1

    def delete(self, graph_id: int) -> int:
        """Remove ``graph_id`` everywhere; prune branches left empty.

        Returns the number of distinct entries dropped.
        """
        removed = self._delete_below(self._root, graph_id)
        self._num_entries -= removed
        return removed

    def _delete_below(self, node: TrieNode, graph_id: int) -> int:
        removed = 0
        if graph_id in node.graph_ids:
            node.graph_ids.discard(graph_id)
            removed += 1
        emptied = []
        for annotation, child in node.children.items():
            removed += self._delete_below(child, graph_id)
            if not child.children and not child.graph_ids:
                emptied.append(annotation)
        for annotation in emptied:
            del node.children[annotation]
        return removed

    def range_query(
        self, sequence: AnnotationSequence, radius: float
    ) -> Dict[int, float]:
        """Return ``{graph_id: min distance}`` for distances ``<= radius``."""
        sequence = tuple(sequence)
        if self._sequence_length is not None and len(sequence) != self._sequence_length:
            raise ValueError("query sequence length does not match indexed length")
        results: Dict[int, float] = {}

        # Iterative DFS carrying (node, depth, accumulated cost); costs are
        # non-negative so the accumulated cost is a valid lower bound.
        stack: List[Tuple[TrieNode, int, float]] = [(self._root, 0, 0.0)]
        annotation_distance = self.measure.annotation_distance
        while stack:
            node, depth, cost = stack.pop()
            if node.graph_ids and depth == len(sequence):
                for graph_id in node.graph_ids:
                    best = results.get(graph_id)
                    if best is None or cost < best:
                        results[graph_id] = cost
            if depth >= len(sequence):
                continue
            query_annotation = sequence[depth]
            for annotation, child in node.children.items():
                step = annotation_distance(query_annotation, annotation)
                new_cost = cost + step
                if new_cost <= radius:
                    stack.append((child, depth + 1, new_cost))
        return results

    def __len__(self) -> int:
        """Number of distinct ``(sequence, graph_id)`` entries."""
        return self._num_entries

    def entries(self) -> Iterator[Tuple[AnnotationSequence, int]]:
        def walk(node: TrieNode, prefix: Tuple[Any, ...]):
            for graph_id in node.graph_ids:
                yield prefix, graph_id
            for annotation, child in node.children.items():
                yield from walk(child, prefix + (annotation,))

        yield from walk(self._root, ())

    # ------------------------------------------------------------------
    # diagnostics
    # ------------------------------------------------------------------
    def node_count(self) -> int:
        """Total number of trie nodes (a proxy for memory footprint)."""

        def count(node: TrieNode) -> int:
            return 1 + sum(count(child) for child in node.children.values())

        return count(self._root)
