"""Enumeration of connected fragments (edge-induced subgraphs).

A *fragment* in the paper is a small connected subgraph of a database or
query graph, carrying its label information.  Index construction needs
every fragment of a database graph whose structure was selected as a
feature, query planning needs every indexed fragment of a query, and
feature selection (the exhaustive selector) needs every small connected
structure present in a set of graphs.

All three are served by one pass: :func:`iter_edge_shapes` grows every
connected edge set with between ``min_edges`` and ``max_edges`` edges
exactly once and gives each set a vertex-id-free *shape key*.
:class:`FragmentEnumerator` (index builds, updates and query planning)
classifies each set through a memo keyed by that shape key.  A memo miss
computes the structure code and the embeddings of the class skeleton into
the tiny shape graph once; a hit only composes index lists, so no subgraph
isomorphism search runs per graph.  The enumerator skips any set whose
structure is neither a feature nor a subgraph of a larger one, so a sparse
class list (paths and cycles, say) is not charged for every branched set up
to its largest class's size.  The exhaustive miner memoizes structure codes
by the same shape key.  The number of edge sets grows exponentially with
``max_edges``, which is exactly the trade-off the paper discusses in
Section 5; callers keep ``max_edges`` small (4–7 for chemical
data).
"""

from __future__ import annotations

from operator import itemgetter
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    FrozenSet,
    Hashable,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from .canonical import CanonicalCode, structure_code
from .distance import DistanceMeasure
from .graph import LabeledGraph
from .isomorphism import iter_embeddings, match_plan

if TYPE_CHECKING:
    from ..index.sequence import FragmentSequencer

__all__ = [
    "FragmentEnumerator",
    "iter_edge_shapes",
    "shape_code",
]

EdgeKey = Tuple[Hashable, Hashable]
#: ``((0, 1), (local(a), local(b)), ...)``: a set's edges in growth order,
#: vertices numbered by first appearance
ShapeKey = Tuple[Tuple[int, int], ...]
#: ``(edges in growth order, shape key, host vertex of each local number)``
EdgeShape = Tuple[Tuple[EdgeKey, ...], ShapeKey, Tuple[Hashable, ...]]
AnnotationSequence = Tuple[Any, ...]


def iter_edge_shapes(
    graph: LabeledGraph,
    max_edges: int,
    min_edges: int = 1,
    wanted: Optional[Callable[[ShapeKey], bool]] = None,
) -> Iterator[EdgeShape]:
    """Yield every connected edge set of size ``min_edges..max_edges`` once.

    Edges are ranked by ``repr`` and a set is grown only from its
    lowest-ranked edge, the root (ESU-style growth): the list of candidate
    extensions is carried down the recursion, an extension once explored is
    hidden from the branches after it, and an edge that brings in a new
    vertex adds only that vertex's edges which rank above the root and touch
    no vertex already in the set (every other edge at the new vertex is
    already a candidate).  Each set is therefore produced exactly once,
    without a global seen-set, and in rooted-growth order.

    ``wanted``, if given, is asked with the shape key of each set before
    the set is built; a set it declines is neither produced nor grown, so
    it must decline only sets none of whose supersets is wanted.
    """
    if max_edges < 1 or min_edges < 1:
        raise ValueError("edge bounds must be >= 1")
    if min_edges > max_edges:
        raise ValueError("min_edges must not exceed max_edges")

    edges: List[EdgeKey] = sorted(graph.edges(), key=repr)
    incident: Dict[Hashable, List[Tuple[int, Hashable]]] = {
        v: [] for v in graph.vertices()
    }
    for rank, (u, v) in enumerate(edges):
        incident[u].append((rank, v))
        incident[v].append((rank, u))

    chosen: List[EdgeKey] = []
    vertices: List[Hashable] = []
    local: Dict[Hashable, int] = {}

    def grow(
        key: ShapeKey, extensions: List[int], added: Optional[Hashable], root: int
    ) -> Iterator[EdgeShape]:
        # ``extensions`` are the candidates inherited from the parent set;
        # ``added`` is the vertex the set's last edge brought in, if any.  A
        # set's own candidate list is built only once it is known to grow.
        if len(chosen) >= min_edges:
            yield tuple(chosen), key, tuple(vertices)
        if len(chosen) == max_edges:
            return
        if added is not None:
            fresh = [r for r, w in incident[added] if r > root and w not in local]
            if fresh:
                extensions = sorted(extensions + fresh)
        for position, rank in enumerate(extensions):
            edge = edges[rank]
            u, v = edge
            # a new vertex takes the next local number
            child = key + ((local.get(u, len(vertices)), local.get(v, len(vertices))),)
            if wanted is not None and not wanted(child):
                continue
            new = u if u not in local else v if v not in local else None
            if new is not None:
                local[new] = len(vertices)
                vertices.append(new)
            chosen.append(edge)
            yield from grow(child, extensions[position + 1 :], new, root)
            chosen.pop()
            if new is not None:
                del local[new]
                vertices.pop()

    if wanted is not None and not wanted(((0, 1),)):
        return
    for root, edge in enumerate(edges):
        u, v = edge
        chosen.append(edge)
        vertices.extend(edge)
        local[u], local[v] = 0, 1
        extensions = sorted(r for r, _ in incident[u] + incident[v] if r > root)
        yield from grow(((0, 1),), extensions, None, root)
        chosen.clear()
        vertices.clear()
        local.clear()


def _signature(edges: Iterable[Tuple[Hashable, Hashable]]) -> Tuple[int, ...]:
    """Sorted vertex degrees of a connected edge list (an isomorphism
    invariant)."""
    degrees: Dict[Hashable, int] = {}
    for a, b in edges:
        degrees[a] = degrees.get(a, 0) + 1
        degrees[b] = degrees.get(b, 0) + 1
    return tuple(sorted(degrees.values()))


def _shape_graph(key: ShapeKey) -> LabeledGraph:
    """The unlabeled graph of a shape key (vertex ids are local numbers)."""
    graph = LabeledGraph()
    for a, b in key:
        for vertex in (a, b):
            if vertex not in graph:
                graph.add_vertex(vertex)
        graph.add_edge(a, b)
    return graph


def shape_code(key: ShapeKey) -> CanonicalCode:
    """Structure code of the edge sets with shape ``key``."""
    return structure_code(_shape_graph(key))


class _Variant:
    """One embedding of a class skeleton into a shape graph, as index lists.

    ``rank_path`` pairs each matching-order position with ``(anchor, local
    vertex)``, ``anchor`` being the local number of the first earlier
    neighbour or ``-1`` for the first position; it rebuilds the order in
    which :func:`~repro.core.isomorphism.iter_embeddings` would find the
    embedding in a host.  ``slots`` index the annotation sequence in the
    set's annotation list (its vertices' annotations by local number, then
    its edges' in growth order); ``match_slots`` and ``edge_slots`` give the
    host vertices in matching order and the host edges in skeleton edge
    order.
    """

    __slots__ = ("rank_path", "slots", "match_slots", "edge_slots")

    def __init__(
        self,
        rank_path: Tuple[Tuple[int, int], ...],
        slots: Tuple[int, ...],
        match_slots: Tuple[int, ...],
        edge_slots: Tuple[int, ...],
    ):
        self.rank_path = rank_path
        self.slots = slots
        self.match_slots = match_slots
        self.edge_slots = edge_slots


def _read(slots: Tuple[int, ...], annotations: List[Any]) -> AnnotationSequence:
    return tuple([annotations[slot] for slot in slots])


class _ClassPlan:
    """A feature class's sequence layout plus the embedding search's
    matching order over its skeleton."""

    __slots__ = ("layout", "order", "anchors")

    def __init__(self, layout: "FragmentSequencer"):
        self.layout = layout
        self.order, earlier = match_plan(layout.skeleton)
        self.anchors = [neighbors[0] if neighbors else None for neighbors in earlier]


class _HostRanks:
    """Positions of every vertex in ``graph.vertices()`` and of every
    neighbour in ``graph.neighbors(v)`` — the sequences the embedding search
    draws its candidates from."""

    __slots__ = ("vertex", "neighbor")

    def __init__(self, graph: LabeledGraph):
        self.vertex = {v: i for i, v in enumerate(graph.vertices())}
        self.neighbor = {
            v: {w: i for i, w in enumerate(graph.neighbors(v))}
            for v in self.vertex
        }

    def rank(
        self, rank_path: Tuple[Tuple[int, int], ...], vertices: Tuple[Hashable, ...]
    ) -> Tuple[int, ...]:
        vertex, neighbor = self.vertex, self.neighbor
        return tuple(
            [
                vertex[vertices[slot]]
                if anchor < 0
                else neighbor[vertices[anchor]][vertices[slot]]
                for anchor, slot in rank_path
            ]
        )


class FragmentEnumerator:
    """Finds every fragment of a fixed list of feature classes in one pass.

    Parameters
    ----------
    layouts:
        The sequence layouts (:class:`repro.index.sequence.FragmentSequencer`)
        of the feature classes, in class order.  Outputs are grouped by
        class in this order.
    measure:
        The measure whose annotations make up fragment sequences.

    The shape memo maps each shape key to ``(class position or -1,
    variants, wanted)``: the position of the edge set's class in
    :attr:`codes` (``-1`` when the structure is not a feature), every
    embedding of the class skeleton into the shape graph, and whether
    the set is a feature or a subgraph of some class with more edges.  An
    unwanted set, and so every set grown from it, cannot be a feature and
    is skipped.  The memo is a plain dict: on the benchmark's 18-class index
    it holds about a thousand shapes.

    Within a class, occurrences come out in the order a per-class embedding
    search of the host (:func:`~repro.core.isomorphism.iter_embeddings`)
    would find them, so the database side inserts store entries, and the
    query side lists fragments, exactly as such a search would.
    """

    def __init__(self, layouts: Sequence["FragmentSequencer"], measure: DistanceMeasure):
        self.codes: Tuple[CanonicalCode, ...] = tuple(layout.code for layout in layouts)
        self.measure = measure
        self._positions = {code: position for position, code in enumerate(self.codes)}
        self._plans = [_ClassPlan(layout) for layout in layouts]
        self.max_edges = max((layout.num_edges for layout in layouts), default=0)
        # structures worth growing: the proper connected subgraphs of every
        # class skeleton
        subgraph_keys = {
            key
            for layout in layouts
            if layout.num_edges > 1
            for _, key, _ in iter_edge_shapes(layout.skeleton, layout.num_edges - 1)
        }
        self._growable: Set[CanonicalCode] = {shape_code(key) for key in subgraph_keys}
        # degree signatures of every wanted structure: a shape with another
        # signature is rejected without computing its structure code
        self._signatures = {_signature(key) for key in subgraph_keys} | {
            _signature(layout.skeleton.edges()) for layout in layouts
        }
        self._shapes: Dict[ShapeKey, Tuple[int, List[_Variant], bool]] = {}

    def _wanted(self, key: ShapeKey) -> bool:
        return self._shape(key)[2]

    def _shape(self, key: ShapeKey) -> Tuple[int, List[_Variant], bool]:
        entry = self._shapes.get(key)
        if entry is None:
            entry = self._shapes[key] = self._classify(key)
        return entry

    def _classify(self, key: ShapeKey) -> Tuple[int, List[_Variant], bool]:
        if _signature(key) not in self._signatures:
            return -1, [], False
        local_graph = _shape_graph(key)
        code = structure_code(local_graph)
        position = self._positions.get(code, -1)
        if position < 0:
            return position, [], code in self._growable
        plan = self._plans[position]
        layout = plan.layout
        include_vertices = self.measure.include_vertices
        include_edges = self.measure.include_edges
        offset = local_graph.num_vertices if include_vertices else 0
        edge_slot: Dict[Tuple[int, int], int] = {}
        for slot, (a, b) in enumerate(key):
            edge_slot[(a, b)] = edge_slot[(b, a)] = slot
        variants = []
        for embedding in iter_embeddings(layout.skeleton, local_graph):
            mapping = embedding.mapping
            edge_slots = tuple(edge_slot[(mapping[u], mapping[v])] for u, v in layout.edge_order)
            slots: Tuple[int, ...] = ()
            if include_vertices:
                slots += tuple(mapping[vertex] for vertex in layout.vertex_order)
            if include_edges:
                slots += tuple(offset + slot for slot in edge_slots)
            rank_path = tuple(
                (-1 if anchor is None else mapping[anchor], mapping[vertex])
                for vertex, anchor in zip(plan.order, plan.anchors)
            )
            variants.append(
                _Variant(
                    rank_path,
                    slots,
                    tuple(mapping[vertex] for vertex in plan.order),
                    edge_slots,
                )
            )
        return position, variants, True

    def _annotation_reader(self, graph: LabeledGraph):
        """Per-graph annotation tables, read once; returns a function from
        ``(edges, vertices)`` of one edge set to its annotation list."""
        measure = self.measure
        vertex_table = (
            {v: measure.vertex_annotation(graph, v) for v in graph.vertices()}
            if measure.include_vertices
            else None
        )
        edge_table = (
            {e: measure.edge_annotation(graph, e) for e in graph.edges()}
            if measure.include_edges
            else None
        )

        def annotations(edges: Tuple[EdgeKey, ...], vertices: Tuple[Hashable, ...]) -> List[Any]:
            values: List[Any] = []
            if vertex_table is not None:
                values = [vertex_table[v] for v in vertices]
            if edge_table is not None:
                values += [edge_table[e] for e in edges]
            return values

        return annotations

    def _occurrences(self, graph: LabeledGraph) -> Iterator[Tuple[int, List[_Variant], EdgeShape]]:
        if not self.codes:
            return
        for shape in iter_edge_shapes(graph, self.max_edges, wanted=self._wanted):
            position, variants, _ = self._shape(shape[1])
            if position >= 0:
                yield position, variants, shape

    def query_fragments(
        self, graph: LabeledGraph
    ) -> List[Tuple[CanonicalCode, FrozenSet[Hashable], FrozenSet[EdgeKey], AnnotationSequence]]:
        """One ``(code, vertices, edges, sequence)`` per indexed edge set.

        The automorphism variants of one edge set collapse into the one an
        embedding search would find first; fragments are listed in class
        order, then in that search's order.
        """
        ranks = _HostRanks(graph)
        annotations = self._annotation_reader(graph)
        found: List[List[Tuple[Tuple[int, ...], _Variant, EdgeShape]]] = [[] for _ in self.codes]
        for position, variants, shape in self._occurrences(graph):
            vertices = shape[2]
            best_rank, best = None, None
            for variant in variants:
                rank = ranks.rank(variant.rank_path, vertices)
                if best_rank is None or rank < best_rank:
                    best_rank, best = rank, variant
            found[position].append((best_rank, best, shape))
        fragments = []
        for code, occurrences in zip(self.codes, found):
            occurrences.sort(key=itemgetter(0))
            for _, variant, (edges, _, vertices) in occurrences:
                fragments.append(
                    (
                        code,
                        frozenset([vertices[slot] for slot in variant.match_slots]),
                        frozenset([edges[slot] for slot in variant.edge_slots]),
                        _read(variant.slots, annotations(edges, vertices)),
                    )
                )
        return fragments

    def class_sequences(
        self, graph: LabeledGraph
    ) -> List[Tuple[CanonicalCode, List[AnnotationSequence]]]:
        """Every occurrence sequence of every class found in ``graph``.

        All automorphism variants are kept (the database side indexes each
        one).  Classes without an occurrence are left out; the others come
        in class order, each with its sequences in embedding-search order.
        """
        ranks = _HostRanks(graph)
        annotations = self._annotation_reader(graph)
        found: List[List[Tuple[Tuple[int, ...], AnnotationSequence]]] = [[] for _ in self.codes]
        for position, variants, (edges, _, vertices) in self._occurrences(graph):
            values = annotations(edges, vertices)
            bucket = found[position]
            for variant in variants:
                bucket.append(
                    (ranks.rank(variant.rank_path, vertices), _read(variant.slots, values))
                )
        result = []
        for code, bucket in zip(self.codes, found):
            if bucket:
                bucket.sort(key=itemgetter(0))
                result.append((code, [sequence for _, sequence in bucket]))
        return result
