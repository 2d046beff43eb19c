"""Canonical representations of (labeled) graphs.

Section 4 of the paper requires a representation function ``s`` such that
``s(G) == s(G')`` exactly when ``G`` and ``G'`` are isomorphic, so that
fragments can be hashed into structural equivalence classes.  The paper
mentions two options: the minimum adjacency-matrix code and the DFS coding
of gSpan.  This module implements both:

* :func:`min_dfs_code` — the gSpan-style minimum DFS code, computed by the
  standard greedy minimal-extension procedure over all embeddings of the
  current minimal prefix.  This is the production code path.
* :func:`adjacency_code` — the brute-force minimum adjacency-matrix code
  obtained by trying every vertex permutation.  Exponential, but an
  independent oracle used by the test-suite to validate the DFS code on
  small graphs.

Both functions accept ``use_vertex_labels`` / ``use_edge_labels`` switches.
The *structure code* (labels ignored) is what keys the fragment index's hash
table; the fully labeled code is used for deduplication in mining.
"""

from __future__ import annotations

from itertools import permutations
from typing import Any, Dict, Hashable, List, Optional, Sequence, Tuple

from ..perf import GLOBAL_COUNTERS, MemoCache, skeleton_signature
from .graph import DEFAULT_LABEL, LabeledGraph, edge_key

__all__ = [
    "DFSEdge",
    "CanonicalCode",
    "min_dfs_code",
    "min_dfs_vertex_order",
    "structure_code",
    "labeled_code",
    "code_to_graph",
    "adjacency_code",
    "structure_code_cache",
]

# A DFS code entry: (from_index, to_index, from_label, edge_label, to_label).
DFSEdge = Tuple[int, int, Any, Any, Any]
# A canonical code: tuple of DFS edges, or for edgeless graphs a tuple of
# vertex labels marked with a leading sentinel.
CanonicalCode = Tuple[Any, ...]

_VERTEX_ONLY_MARKER = "__vertices__"


def _label_sort_key(label: Any) -> Tuple[str, str]:
    """Total order over arbitrary hashable labels (type name, then repr)."""
    return (type(label).__name__, repr(label))


class _Embedding:
    """One DFS traversal prefix consistent with the current minimal code."""

    __slots__ = ("vertex_of", "index_of", "used_edges", "rightmost_path")

    def __init__(
        self,
        vertex_of: List[Hashable],
        index_of: Dict[Hashable, int],
        used_edges: frozenset,
        rightmost_path: Tuple[int, ...],
    ):
        self.vertex_of = vertex_of
        self.index_of = index_of
        self.used_edges = used_edges
        self.rightmost_path = rightmost_path


def _vertex_label(graph: LabeledGraph, vertex: Hashable, use_labels: bool) -> Any:
    return graph.vertex_label(vertex) if use_labels else DEFAULT_LABEL


def _edge_label(
    graph: LabeledGraph, u: Hashable, v: Hashable, use_labels: bool
) -> Any:
    return graph.edge_label(u, v) if use_labels else DEFAULT_LABEL


def _min_code_connected(
    graph: LabeledGraph, use_vertex_labels: bool, use_edge_labels: bool
) -> Tuple[CanonicalCode, List[Hashable]]:
    """Minimum DFS code of a connected graph plus one witnessing vertex order."""
    vertices = list(graph.vertices())
    if not vertices:
        return ((_VERTEX_ONLY_MARKER,), [])
    if graph.num_edges == 0:
        if len(vertices) != 1:
            raise ValueError("edgeless connected graph must have a single vertex")
        v = vertices[0]
        label = _vertex_label(graph, v, use_vertex_labels)
        return ((_VERTEX_ONLY_MARKER, label), [v])

    # --- step 0: minimal initial edge ------------------------------------
    best_first: Optional[Tuple] = None
    initial: List[Tuple[Tuple, _Embedding, DFSEdge]] = []
    for (u, v) in graph.edges():
        for a, b in ((u, v), (v, u)):
            la = _vertex_label(graph, a, use_vertex_labels)
            lb = _vertex_label(graph, b, use_vertex_labels)
            le = _edge_label(graph, a, b, use_edge_labels)
            key = (
                _label_sort_key(la),
                _label_sort_key(le),
                _label_sort_key(lb),
            )
            edge_entry: DFSEdge = (0, 1, la, le, lb)
            embedding = _Embedding(
                vertex_of=[a, b],
                index_of={a: 0, b: 1},
                used_edges=frozenset({edge_key(a, b)}),
                rightmost_path=(0, 1),
            )
            if best_first is None or key < best_first:
                best_first = key
                initial = [(key, embedding, edge_entry)]
            elif key == best_first:
                initial.append((key, embedding, edge_entry))

    assert initial, "graph with edges must yield an initial extension"
    code: List[DFSEdge] = [initial[0][2]]
    embeddings: List[_Embedding] = [entry[1] for entry in initial]

    # --- grow one edge at a time ------------------------------------------
    total_edges = graph.num_edges
    while len(code) < total_edges:
        best_key: Optional[Tuple] = None
        best_entries: List[Tuple[_Embedding, DFSEdge]] = []

        for emb in embeddings:
            rightmost_index = emb.rightmost_path[-1]
            rightmost_vertex = emb.vertex_of[rightmost_index]

            # Backward extensions: rightmost vertex -> vertex on the
            # rightmost path (excluding its DFS parent, whose edge is used).
            for path_index in emb.rightmost_path[:-1]:
                path_vertex = emb.vertex_of[path_index]
                if not graph.has_edge(rightmost_vertex, path_vertex):
                    continue
                ekey = edge_key(rightmost_vertex, path_vertex)
                if ekey in emb.used_edges:
                    continue
                le = _edge_label(
                    graph, rightmost_vertex, path_vertex, use_edge_labels
                )
                li = _vertex_label(graph, rightmost_vertex, use_vertex_labels)
                lj = _vertex_label(graph, path_vertex, use_vertex_labels)
                sort_key = (0, path_index, _label_sort_key(le))
                entry: DFSEdge = (rightmost_index, path_index, li, le, lj)
                if best_key is None or sort_key < best_key:
                    best_key = sort_key
                    best_entries = [(emb, entry)]
                elif sort_key == best_key:
                    best_entries.append((emb, entry))

            # Forward extensions: from a rightmost-path vertex to an
            # unvisited vertex; growing from deeper vertices is preferred.
            new_index = len(emb.vertex_of)
            for path_index in reversed(emb.rightmost_path):
                path_vertex = emb.vertex_of[path_index]
                for neighbor in graph.neighbors(path_vertex):
                    if neighbor in emb.index_of:
                        continue
                    le = _edge_label(graph, path_vertex, neighbor, use_edge_labels)
                    li = _vertex_label(graph, path_vertex, use_vertex_labels)
                    lj = _vertex_label(graph, neighbor, use_vertex_labels)
                    sort_key = (
                        1,
                        -path_index,
                        _label_sort_key(le),
                        _label_sort_key(lj),
                    )
                    entry = (path_index, new_index, li, le, lj)
                    if best_key is None or sort_key < best_key:
                        best_key = sort_key
                        best_entries = [(emb, entry)]
                    elif sort_key == best_key:
                        best_entries.append((emb, entry))

        assert best_entries, "connected graph must always have an extension"
        chosen_entry = best_entries[0][1]
        code.append(chosen_entry)

        # Advance every embedding that realises the chosen entry.  Distinct
        # (embedding, target vertex) realisations become separate embeddings.
        next_embeddings: List[_Embedding] = []
        seen_states = set()
        from_index, to_index = chosen_entry[0], chosen_entry[1]
        is_forward = to_index > from_index
        for emb, entry in best_entries:
            if entry != chosen_entry:
                continue
            rightmost_index = emb.rightmost_path[-1]
            rightmost_vertex = emb.vertex_of[rightmost_index]
            if not is_forward:
                path_vertex = emb.vertex_of[to_index]
                new_used = emb.used_edges | {
                    edge_key(rightmost_vertex, path_vertex)
                }
                state = (tuple(emb.vertex_of), new_used)
                if state in seen_states:
                    continue
                seen_states.add(state)
                next_embeddings.append(
                    _Embedding(
                        vertex_of=list(emb.vertex_of),
                        index_of=dict(emb.index_of),
                        used_edges=new_used,
                        rightmost_path=emb.rightmost_path,
                    )
                )
            else:
                source_vertex = emb.vertex_of[from_index]
                for neighbor in graph.neighbors(source_vertex):
                    if neighbor in emb.index_of:
                        continue
                    le = _edge_label(graph, source_vertex, neighbor, use_edge_labels)
                    lj = _vertex_label(graph, neighbor, use_vertex_labels)
                    if le != chosen_entry[3] or lj != chosen_entry[4]:
                        continue
                    new_vertex_of = list(emb.vertex_of) + [neighbor]
                    new_index_of = dict(emb.index_of)
                    new_index_of[neighbor] = to_index
                    new_used = emb.used_edges | {
                        edge_key(source_vertex, neighbor)
                    }
                    # The rightmost path is truncated at the forward source
                    # and extended with the new vertex.
                    truncated = tuple(
                        idx
                        for idx in emb.rightmost_path
                        if idx <= from_index
                    )
                    new_path = truncated + (to_index,)
                    state = (tuple(new_vertex_of), new_used)
                    if state in seen_states:
                        continue
                    seen_states.add(state)
                    next_embeddings.append(
                        _Embedding(
                            vertex_of=new_vertex_of,
                            index_of=new_index_of,
                            used_edges=new_used,
                            rightmost_path=new_path,
                        )
                    )
        embeddings = next_embeddings

    witness = embeddings[0].vertex_of
    return (tuple(code), witness)


def _split_components(graph: LabeledGraph) -> List[LabeledGraph]:
    return [graph.subgraph(component) for component in graph.connected_components()]


def min_dfs_code(
    graph: LabeledGraph,
    use_vertex_labels: bool = True,
    use_edge_labels: bool = True,
) -> CanonicalCode:
    """Return the minimum DFS code of ``graph``.

    Isomorphic graphs (with matching labels, when enabled) produce identical
    codes and non-isomorphic graphs produce different codes.  Disconnected
    graphs are encoded as the sorted tuple of their components' codes.
    """
    components = _split_components(graph)
    if len(components) <= 1:
        target = components[0] if components else graph
        code, _ = _min_code_connected(target, use_vertex_labels, use_edge_labels)
        return code
    codes = [
        _min_code_connected(component, use_vertex_labels, use_edge_labels)[0]
        for component in components
    ]
    codes.sort(key=repr)
    return ("__components__",) + tuple(codes)


def min_dfs_vertex_order(
    graph: LabeledGraph,
    use_vertex_labels: bool = True,
    use_edge_labels: bool = True,
) -> List[Hashable]:
    """Return one vertex order witnessing the minimum DFS code.

    Index ``i`` of the returned list is the vertex assigned DFS index ``i``.
    Only defined for connected graphs.
    """
    if not graph.is_connected():
        raise ValueError("vertex order is only defined for connected graphs")
    _, witness = _min_code_connected(graph, use_vertex_labels, use_edge_labels)
    return witness


#: memo cache for :func:`structure_code`, keyed by skeleton content.  The
#: minimum-DFS-code computation explores every embedding of the minimal
#: prefix, so it dwarfs the cost of the signature key; mining and fragment
#: enumeration canonicalize the same (sub)graphs over and over.
_STRUCTURE_CODE_CACHE = MemoCache(
    "structure_code", maxsize=8192, counters=GLOBAL_COUNTERS
)


def structure_code_cache() -> MemoCache:
    """Return the process-wide structure-code memo cache (for stats/tests)."""
    return _STRUCTURE_CODE_CACHE


def structure_code(graph: LabeledGraph) -> CanonicalCode:
    """Canonical code of the *skeleton* (labels ignored).

    This is the hash-table key for structural equivalence classes
    (Definition 4).  Results are memoized on the skeleton's content
    signature.
    """
    key = skeleton_signature(graph)
    cached = _STRUCTURE_CODE_CACHE.get(key)
    if cached is not MemoCache.MISS:
        return cached
    code = min_dfs_code(graph, use_vertex_labels=False, use_edge_labels=False)
    _STRUCTURE_CODE_CACHE.put(key, code)
    return code


def labeled_code(graph: LabeledGraph) -> CanonicalCode:
    """Canonical code including vertex and edge labels."""
    return min_dfs_code(graph, use_vertex_labels=True, use_edge_labels=True)


def code_to_graph(code: CanonicalCode) -> LabeledGraph:
    """Reconstruct a graph from a connected-graph canonical code.

    The reconstructed graph uses the DFS indices ``0..n-1`` as vertex ids,
    so it is the *canonical skeleton* of the equivalence class: its vertex
    and edge orders are exactly the orders used by the fragment sequencer.
    """
    graph = LabeledGraph()
    if code and code[0] == _VERTEX_ONLY_MARKER:
        for offset, label in enumerate(code[1:]):
            graph.add_vertex(offset, label=label)
        return graph
    if code and code[0] == "__components__":
        raise ValueError("cannot rebuild a disconnected code into one skeleton")
    for (i, j, li, le, lj) in code:
        if i not in graph:
            graph.add_vertex(i, label=li)
        if j not in graph:
            graph.add_vertex(j, label=lj)
        graph.add_edge(i, j, label=le)
    return graph


def adjacency_code(
    graph: LabeledGraph,
    use_vertex_labels: bool = True,
    use_edge_labels: bool = True,
) -> CanonicalCode:
    """Brute-force canonical code (minimum adjacency string over permutations).

    Exponential in the number of vertices; intended for validation on small
    graphs only (the test-suite uses it as an oracle for
    :func:`min_dfs_code`).
    """
    vertices = list(graph.vertices())
    if len(vertices) > 9:
        raise ValueError("adjacency_code is a test oracle for graphs with <= 9 vertices")
    best: Optional[Tuple] = None
    for perm in permutations(vertices):
        index_of = {v: i for i, v in enumerate(perm)}
        rows: List[Tuple] = []
        if use_vertex_labels:
            rows.append(
                tuple(_label_sort_key(graph.vertex_label(v)) for v in perm)
            )
        cells: List[Tuple] = []
        for i in range(len(perm)):
            for j in range(i + 1, len(perm)):
                u, v = perm[i], perm[j]
                if graph.has_edge(u, v):
                    label = (
                        graph.edge_label(u, v) if use_edge_labels else DEFAULT_LABEL
                    )
                    cells.append((1, _label_sort_key(label)))
                else:
                    cells.append((0, ("", "")))
        candidate = (tuple(rows), tuple(cells))
        if best is None or candidate < best:
            best = candidate
    return ("__adjacency__", best)
