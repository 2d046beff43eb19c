"""Importable graph-building helpers shared by the test modules.

These used to live in ``tests/conftest.py``, but importing helpers *from* a
conftest is fragile: pytest imports every ``conftest.py`` it discovers
under the module name ``conftest``, so when another directory's conftest
is collected first, ``from conftest import build_graph`` in a test module
resolves to the wrong file.  A regular module with a unique name has no
such ambiguity — test modules do ``from helpers import build_graph``.
"""

from __future__ import annotations

from repro.core import LabeledGraph

ATOMS = "CCCCNOS"
BONDS = ["single", "single", "single", "double", "aromatic"]

__all__ = [
    "ATOMS",
    "BONDS",
    "build_graph",
    "path_graph",
    "cycle_graph",
    "random_molecule",
    "random_connected_subgraph",
    "oracle_answers",
    "quick_environment",
    "reference_fragments",
    "LinearScanBackend",
]


def build_graph(num_vertices, edges, vertex_labels=None, edge_labels=None, name=""):
    """Build a graph from an edge list with optional label sequences."""
    graph = LabeledGraph(name=name)
    for vertex in range(num_vertices):
        label = vertex_labels[vertex] if vertex_labels else "C"
        graph.add_vertex(vertex, label=label)
    for position, (u, v) in enumerate(edges):
        label = edge_labels[position] if edge_labels else "single"
        graph.add_edge(u, v, label=label)
    return graph


def path_graph(num_edges, edge_labels=None, name="path"):
    """A path with ``num_edges`` edges."""
    return build_graph(
        num_edges + 1,
        [(i, i + 1) for i in range(num_edges)],
        edge_labels=edge_labels,
        name=name,
    )


def cycle_graph(num_vertices, edge_labels=None, name="cycle"):
    """A cycle with ``num_vertices`` vertices."""
    return build_graph(
        num_vertices,
        [(i, (i + 1) % num_vertices) for i in range(num_vertices)],
        edge_labels=edge_labels,
        name=name,
    )


def random_molecule(rng, num_vertices=10, extra_edges=2):
    """A random connected labeled graph (spanning tree + extra edges)."""
    graph = LabeledGraph()
    for vertex in range(num_vertices):
        graph.add_vertex(vertex, label=rng.choice(ATOMS))
    order = list(range(num_vertices))
    rng.shuffle(order)
    for position in range(1, num_vertices):
        graph.add_edge(
            order[position], rng.choice(order[:position]), label=rng.choice(BONDS)
        )
    added = 0
    attempts = 0
    while added < extra_edges and attempts < 50:
        attempts += 1
        u, v = rng.sample(range(num_vertices), 2)
        if not graph.has_edge(u, v):
            graph.add_edge(u, v, label=rng.choice(BONDS))
            added += 1
    return graph


def random_connected_subgraph(graph, num_edges, rng):
    """A random connected subgraph with ``num_edges`` edges (or None)."""
    from repro.datasets import sample_connected_subgraph

    return sample_connected_subgraph(graph, num_edges, rng)


def oracle_answers(database, measure, query, sigma):
    """The exact answer as ``(ids, {id: distance})``: NaiveSearch verifying
    every live graph with the recursive reference superposition search (no
    filtering, no array kernel, no caches)."""
    from repro.search import NaiveSearch

    result = NaiveSearch(database, measure).search(query, sigma)
    ids = list(result.answer_ids)
    return ids, {graph_id: result.answer_distances[graph_id] for graph_id in ids}


def quick_environment():
    """The 60-graph experiment environment the exact work-counter checks
    run on (4 queries per set, features up to 4 edges).  Built once per
    process: :func:`repro.experiments.build_environment` caches it."""
    from repro.experiments import build_environment, paper_scaled_config

    return build_environment(
        paper_scaled_config(
            database_size=60,
            queries_per_set=4,
            feature_max_edges=4,
            max_features=100,
            feature_sample_size=20,
        )
    )


def reference_fragments(codes, measure, host, every_variant):
    """Per-class reference enumeration: one embedding search per class.

    Returns ``(code, vertices, edges, sequence)`` per occurrence, in class
    order and then search order.  ``every_variant=False`` keeps the first
    occurrence of each ``(code, covered edges)`` (the query side);
    ``True`` keeps every automorphism variant (the database side).
    """
    from repro.core import code_to_graph, edge_key, iter_embeddings

    found, seen = [], set()
    for code in codes:
        skeleton = code_to_graph(code)
        for embedding in iter_embeddings(skeleton, host):
            mapping = embedding.mapping
            edges = frozenset(edge_key(mapping[u], mapping[v]) for u, v in skeleton.edges())
            if not every_variant and (code, edges) in seen:
                continue
            seen.add((code, edges))
            sequence = []
            if measure.include_vertices:
                sequence += [
                    measure.vertex_annotation(host, mapping[v])
                    for v in sorted(skeleton.vertices())
                ]
            if measure.include_edges:
                sequence += [
                    measure.edge_annotation(host, (mapping[u], mapping[v]))
                    for u, v in skeleton.edges()
                ]
            found.append((code, frozenset(mapping.values()), edges, tuple(sequence)))
    return found


class LinearScanBackend:
    """Reference range-query store: a flat map scanned on every query.

    Measure-agnostic and obviously correct; the trie and the vector store
    of :mod:`repro.index.class_index` are checked against it.  Stores
    distinct ``(sequence, graph_id)`` entries.
    """

    def __init__(self, measure):
        self.measure = measure
        self._by_sequence = {}

    def insert(self, sequence, graph_id):
        self._by_sequence.setdefault(tuple(sequence), set()).add(graph_id)

    def delete(self, graph_id):
        """Drop every entry of ``graph_id``; return how many were dropped."""
        removed = 0
        for sequence in list(self._by_sequence):
            graph_ids = self._by_sequence[sequence]
            if graph_id in graph_ids:
                graph_ids.discard(graph_id)
                removed += 1
                if not graph_ids:
                    del self._by_sequence[sequence]
        return removed

    def range_query(self, sequence, radius):
        """``{graph_id: min distance}`` for stored sequences within ``radius``."""
        sequence = tuple(sequence)
        results = {}
        for stored, graph_ids in self._by_sequence.items():
            distance = self.measure.sequence_distance(sequence, stored)
            if distance > radius:
                continue
            for graph_id in graph_ids:
                best = results.get(graph_id)
                if best is None or distance < best:
                    results[graph_id] = distance
        return results

    def __len__(self):
        return sum(len(ids) for ids in self._by_sequence.values())

    def entries(self):
        for sequence, graph_ids in self._by_sequence.items():
            for graph_id in graph_ids:
                yield sequence, graph_id

    def graph_ids(self):
        return {graph_id for _, graph_id in self.entries()}
