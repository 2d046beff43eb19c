"""Array-encoded branch-and-bound kernel for minimum superimposed distance.

This module is the optimized backend of :func:`repro.core.superimposed.
best_superposition`.  It reproduces the recursive reference search
*exactly* — same distances (bit-for-bit), same accept/reject decisions —
while being dramatically faster on cold caches:

* **Array encoding** (:class:`GraphArrays`): vertices become dense integer
  rows; adjacency becomes a CSR structure plus a dense ``edge_id`` matrix so
  "is there an edge, and which one" is a single integer load instead of a
  canonical-key dict probe.  The encoding is cached on the
  :class:`~repro.core.graph.LabeledGraph` keyed by its structural revision,
  so repeated verifications of the same graph pay for it once.
* **Batched cost tables**: the measure is evaluated once per (query, target)
  pair into a dense vertex-cost matrix and edge-cost table via
  :meth:`DistanceMeasure.vertex_cost_matrix` /
  :meth:`DistanceMeasure.edge_cost_table`, replacing per-candidate scalar
  ``vertex_cost``/``edge_cost`` calls (for the mutation measure those calls
  dominate the legacy profile: every score goes through ``repr``-based key
  normalization).
* **Batch extension scoring**: the root frontier — all target vertices — is
  masked (degree filter) and scored in one numpy pass.  Deeper frontiers are
  anchored neighborhoods, typically a handful of vertices, where numpy call
  overhead exceeds the work; those are scored through flat-list views of the
  same precomputed tables, with zero measure or graph-dict calls.  Every
  frame is then consumed cheapest-first so the incumbent drops early.
* **Remaining-cost suffix bound**: ``suffix[p]`` is a proven lower bound on
  the cost of completing any partial superposition from position ``p``
  (cheapest feasible vertex assignment per unmapped position plus the
  cheapest target edge for every still-uncharged query edge).  A branch is
  cut when ``partial + suffix[p] > min(threshold, best) + slack`` — strictly
  more pruning than the legacy ``partial > bound``.

Exactness.  The kernel keeps the legacy prune conditions *verbatim*
(``new_cost > bound``, ``new_cost >= best``) and applies the suffix bound
only with a small relative ``slack``, so floating-point association
differences between the vectorized suffix sum and the sequential path cost
can never cause a false prune.  Step costs are accumulated in the legacy
order (vertex cost first, then charged edges in ``query.edges()`` order,
each as one float64 add), so every complete superposition gets the exact
same binary cost on both paths and the minimum is bit-identical.

When a measure cannot produce cost tables, or the target is too large for
the dense edge-id matrix, the public entry point returns ``None`` and the
caller falls back to the recursive search.
"""

from __future__ import annotations

import weakref
from typing import Any, Dict, List, Optional, Tuple

import numpy as _np

from .graph import LabeledGraph
from .isomorphism import Embedding, _match_order

__all__ = [
    "GraphArrays",
    "QueryPlan",
    "graph_arrays",
    "query_plan",
    "kernel_best_superposition",
    "MAX_KERNEL_VERTICES",
]

#: Largest target (in vertices) encoded with a dense edge-id matrix; bigger
#: graphs fall back to the recursive search rather than allocating O(n^2).
MAX_KERNEL_VERTICES = 1024

#: Relative slack applied to suffix-bound prunes only (see module docstring).
_SUFFIX_SLACK = 1e-9

#: Per-query cap on cached (target, measure) cost-table bundles; the cache
#: is cleared wholesale when it fills (verification touches each pair in
#: bursts — one per sigma — so recency bookkeeping would cost more than the
#: rare rebuild it saves).  The cap must exceed one query's candidate count
#: or every sigma pass rebuilds every table: a bundle is a few KB and the
#: cache dies with the query object, so 256 is cheap headroom over the
#: benchmark databases' 150 graphs.
_MAX_PAIR_TABLES = 256


class GraphArrays:
    """Integer-encoded form of a :class:`LabeledGraph` used as a target.

    Attributes
    ----------
    vertex_ids:
        Vertex ids in iteration order; row ``r`` of every array refers to
        ``vertex_ids[r]``.
    vertex_index:
        Inverse mapping ``vertex id -> row``.
    degrees / degree_list:
        ``int64[n]`` vertex degrees, plus a flat-list view for scalar access.
    indptr / indices:
        CSR adjacency over rows (neighbor rows sorted ascending).
    adjacency_rows:
        Per-row neighbor lists (the CSR rows as plain lists, for the
        small-frontier scoring path).
    edge_keys:
        Canonical edge keys in ``graph.edges()`` order; column ``j`` of an
        edge-cost table refers to ``edge_keys[j]``.
    edge_ids / edge_id_rows:
        Dense ``int32[n, n]`` matrix mapping a row pair to its edge index
        (``-1`` where no edge exists), plus its list-of-lists view.
    """

    __slots__ = (
        "vertex_ids",
        "vertex_index",
        "degrees",
        "degree_list",
        "indptr",
        "indices",
        "adjacency_rows",
        "edge_keys",
        "edge_ids",
        "edge_id_rows",
    )

    def __init__(self, graph: LabeledGraph):
        self.vertex_ids = list(graph.vertices())
        self.vertex_index = {v: r for r, v in enumerate(self.vertex_ids)}
        n = len(self.vertex_ids)
        indptr = _np.zeros(n + 1, dtype=_np.intp)
        adjacency_rows: List[List[int]] = []
        flat: List[int] = []
        for r, v in enumerate(self.vertex_ids):
            rows = sorted(self.vertex_index[w] for w in graph.neighbors(v))
            adjacency_rows.append(rows)
            indptr[r + 1] = indptr[r] + len(rows)
            flat.extend(rows)
        self.adjacency_rows = adjacency_rows
        self.degree_list = [len(rows) for rows in adjacency_rows]
        self.degrees = _np.asarray(self.degree_list, dtype=_np.int64)
        self.indptr = indptr
        self.indices = _np.asarray(flat, dtype=_np.intp)
        self.edge_keys = list(graph.edges())
        edge_ids = _np.full((n, n), -1, dtype=_np.int32)
        for idx, (u, v) in enumerate(self.edge_keys):
            ru = self.vertex_index[u]
            rv = self.vertex_index[v]
            edge_ids[ru, rv] = idx
            edge_ids[rv, ru] = idx
        self.edge_ids = edge_ids
        self.edge_id_rows = edge_ids.tolist()


class QueryPlan:
    """Match-order encoding of a query graph, shared across all targets.

    Attributes
    ----------
    order:
        Query vertices in :func:`_match_order` order; position ``p`` of every
        per-position structure refers to ``order[p]``.
    degrees:
        Query degrees per position.
    anchor_positions:
        For each position, the positions of already-mapped query neighbors.
    charged_edges:
        For each position ``p``, ``(edge_index, other_position)`` pairs for
        the query edges charged at ``p`` (the edges whose second endpoint is
        mapped at ``p``), in ``query.edges()`` order — the legacy cost
        accumulation order.
    edge_keys:
        Canonical query edge keys in ``query.edges()`` order; row ``i`` of an
        edge-cost table refers to ``edge_keys[i]``.
    """

    __slots__ = ("order", "degrees", "anchor_positions", "charged_edges", "edge_keys")

    def __init__(self, query: LabeledGraph):
        self.order = _match_order(query)
        position_of = {v: p for p, v in enumerate(self.order)}
        nq = len(self.order)
        self.degrees = [query.degree(v) for v in self.order]
        anchors: List[List[int]] = []
        seen: set = set()
        for v in self.order:
            anchors.append(
                sorted(position_of[w] for w in query.neighbors(v) if w in seen)
            )
            seen.add(v)
        self.anchor_positions = anchors
        self.edge_keys = list(query.edges())
        charged: List[List[Tuple[int, int]]] = [[] for _ in range(nq)]
        for idx, (u, v) in enumerate(self.edge_keys):
            pu = position_of[u]
            pv = position_of[v]
            if pu > pv:
                charged[pu].append((idx, pv))
            else:
                charged[pv].append((idx, pu))
        self.charged_edges = charged


def _cache_slot(graph: LabeledGraph) -> Dict[str, Any]:
    """Per-revision cache dict stored on the graph (cleared by mutations)."""
    cached = graph._kernel_arrays
    if cached is None or cached[0] != graph.revision:
        cached = (graph.revision, {})
        graph._kernel_arrays = cached
    return cached[1]


def graph_arrays(graph: LabeledGraph) -> Optional[GraphArrays]:
    """Return the cached :class:`GraphArrays` encoding of ``graph``.

    Returns ``None`` (and caches the refusal) when the graph exceeds
    :data:`MAX_KERNEL_VERTICES`.
    """
    slot = _cache_slot(graph)
    if "arrays" not in slot:
        if graph.num_vertices > MAX_KERNEL_VERTICES:
            slot["arrays"] = None
        else:
            slot["arrays"] = GraphArrays(graph)
    return slot["arrays"]


def query_plan(query: LabeledGraph) -> QueryPlan:
    """Return the cached :class:`QueryPlan` for ``query``."""
    slot = _cache_slot(query)
    if "plan" not in slot:
        slot["plan"] = QueryPlan(query)
    return slot["plan"]


class _PairTables:
    """Precomputed cost tables + suffix bound for one (query, target, measure).

    Everything here is threshold-independent, so one bundle serves every
    search of the pair (all sigmas, all rounds).  ``usable`` is ``False``
    when the measure produced no tables — the refusal is cached too, so
    repeated searches of an unsupported pair skip straight to the
    recursive path.
    """

    __slots__ = (
        "target_ref",
        "measure_ref",
        "target_revision",
        "usable",
        "vcost",
        "vcost_rows",
        "ecost_rows",
        "suffix",
    )

    def __init__(self, query, plan, target, arrays, measure):
        # Weak references validate the identity keys: a dead (or different)
        # referent means the id() was reused and the entry is stale.
        self.target_ref = weakref.ref(target)
        self.measure_ref = weakref.ref(measure)
        self.target_revision = target.revision
        self.usable = False
        self.vcost = None
        self.vcost_rows: Optional[List[List[float]]] = None
        self.ecost_rows: Optional[List[List[float]]] = None

        nq = len(plan.order)
        nt = len(arrays.vertex_ids)
        edge_minima = None
        if measure.include_vertices:
            vcost = measure.vertex_cost_matrix(
                query, plan.order, target, arrays.vertex_ids
            )
            if vcost is None:
                return
            self.vcost = _np.ascontiguousarray(vcost, dtype=_np.float64)
            self.vcost_rows = self.vcost.tolist()
        if measure.include_edges and plan.edge_keys:
            ecost = measure.edge_cost_table(
                query, plan.edge_keys, target, arrays.edge_keys
            )
            if ecost is None:
                return
            ecost = _np.ascontiguousarray(ecost, dtype=_np.float64)
            self.ecost_rows = ecost.tolist()
            if ecost.size:
                edge_minima = ecost.min(axis=1)

        # Remaining-cost suffix bound: per position, the cheapest feasible
        # vertex assignment plus the cheapest target edge for every edge
        # charged there.  Ignores injectivity/adjacency, so it lower-bounds
        # any completion.
        if self.vcost is not None and nt:
            per_position = self.vcost.min(axis=1).tolist()
        else:
            per_position = [0.0] * nq
        if edge_minima is not None:
            minima = edge_minima.tolist()
            for p, charged in enumerate(plan.charged_edges):
                for edge_index, _ in charged:
                    per_position[p] += minima[edge_index]
        suffix: List[float] = [0.0] * (nq + 1)
        accumulated = 0.0
        for p in range(nq - 1, -1, -1):
            accumulated += per_position[p]
            suffix[p] = accumulated
        self.suffix = suffix
        self.usable = True

    def valid_for(self, target, measure) -> bool:
        return (
            self.target_ref() is target
            and self.measure_ref() is measure
            and self.target_revision == target.revision
        )


def _pair_tables(query, plan, target, arrays, measure) -> _PairTables:
    """The cached cost-table bundle for this (query, target, measure).

    Stored in the *query's* revision-keyed cache slot (a query mutation
    drops the whole slot), keyed by the identities of target and measure
    and validated against weak references plus the target's revision —
    so a recycled ``id()`` or a mutated target can never serve stale
    tables.
    """
    slot = _cache_slot(query)
    cache = slot.get("tables")
    if cache is None:
        cache = slot["tables"] = {}
    key = (id(target), id(measure))
    tables = cache.get(key)
    if tables is None or not tables.valid_for(target, measure):
        if len(cache) >= _MAX_PAIR_TABLES:
            cache.clear()
        tables = _PairTables(query, plan, target, arrays, measure)
        cache[key] = tables
    return tables


def kernel_best_superposition(
    query: LabeledGraph,
    target: LabeledGraph,
    measure: Any,
    threshold: Optional[float] = None,
    stop_at_threshold: bool = False,
    known_lower_bound: Optional[float] = None,
) -> Optional[Any]:
    """Array-kernel equivalent of :func:`best_superposition`.

    Assumes the caller already handled the trivial cases (empty query,
    size-based non-containment).  Returns ``None`` when the kernel cannot
    run for this input (oversized target, or a measure whose cost tables
    are unavailable); the caller then falls back to the recursive path.
    """
    arrays = graph_arrays(target)
    if arrays is None:
        return None
    plan = query_plan(query)
    # Imported here (not at module top) because superimposed imports us
    # lazily; this import is resolved from sys.modules after first use.
    from .superimposed import INFINITE_DISTANCE, SuperpositionResult

    nq = len(plan.order)
    nt = len(arrays.vertex_ids)

    tables = _pair_tables(query, plan, target, arrays, measure)
    if not tables.usable:
        return None
    vcost = tables.vcost
    vcost_rows = tables.vcost_rows
    ecost_rows = tables.ecost_rows
    suffix = tables.suffix

    bound = threshold if threshold is not None else INFINITE_DISTANCE
    best_cost = INFINITE_DISTANCE
    best_rows: Optional[List[int]] = None
    explored = 0
    expanded = 0
    early = False

    used = [False] * nt
    assigned = [-1] * nq
    degree_list = arrays.degree_list
    adjacency_rows = arrays.adjacency_rows
    edge_id_rows = arrays.edge_id_rows
    anchor_positions = plan.anchor_positions
    charged_edges = plan.charged_edges
    q_degrees = plan.degrees

    def root_frame(position: int) -> Optional[List[Tuple[float, int]]]:
        """Score an unanchored frontier (all target rows) in one numpy pass.

        Unanchored positions have no charged edges (a charged edge's other
        endpoint would be an anchor), so the step cost is the vertex cost
        row alone; the accumulation ``0.0 + v`` is bit-identical to the
        legacy scalar sequence.
        """
        mask = arrays.degrees >= q_degrees[position]
        if position and any(used):
            mask = mask & ~_np.asarray(used, dtype=bool)
        cand = _np.flatnonzero(mask)
        if cand.size == 0:
            return None
        costs = _np.zeros(cand.size, dtype=_np.float64)
        if vcost is not None:
            costs = costs + vcost[position, cand]
        keep = costs <= bound  # legacy prune: new_cost > bound
        if not keep.all():
            cand = cand[keep]
            costs = costs[keep]
            if cand.size == 0:
                return None
        frame = list(zip(costs.tolist(), cand.tolist()))
        frame.sort()
        return frame

    def make_frame(
        position: int, cost: float
    ) -> Optional[List[Tuple[float, int]]]:
        """Score every candidate extension of ``position``, cheapest-first.

        The static threshold filter is applied here; dynamic prunes
        (incumbent, suffix bound) happen at consumption time so they see
        the freshest ``best_cost``.
        """
        anchors = anchor_positions[position]
        if not anchors:
            return root_frame(position)
        if len(anchors) == 1:
            pool_row = assigned[anchors[0]]
            checks: List[List[int]] = []
        else:
            anchor_rows = [assigned[a] for a in anchors]
            # Satellite fix, kernel side: draw the pool from the mapped
            # anchor with the smallest neighborhood.
            pool_row = min(anchor_rows, key=degree_list.__getitem__)
            checks = [edge_id_rows[r] for r in anchor_rows if r != pool_row]
        q_degree = q_degrees[position]
        vrow = vcost_rows[position] if vcost_rows is not None else None
        charged = charged_edges[position] if ecost_rows is not None else ()
        pool = adjacency_rows[pool_row]
        frame: List[Tuple[float, int]] = []
        # All step costs follow the legacy accumulation order: 0.0, + vertex
        # cost, + each charged edge in query.edges() order — one float64 add
        # per term, so complete costs are bit-identical to the scalar path.
        if vrow is None and not checks and len(charged) == 1:
            # Dominant shape (edge-only measure, tree-like extension):
            # single anchor, single charged edge, no extra adjacency checks.
            cost_row = ecost_rows[charged[0][0]]
            id_row = edge_id_rows[assigned[charged[0][1]]]
            for tv in pool:
                if used[tv] or degree_list[tv] < q_degree:
                    continue
                new_cost = cost + (0.0 + cost_row[id_row[tv]])
                if new_cost > bound:  # legacy prune, verbatim
                    continue
                frame.append((new_cost, tv))
        else:
            charged_rows = [
                (ecost_rows[edge_index], edge_id_rows[assigned[other_position]])
                for edge_index, other_position in charged
            ]
            for tv in pool:
                if used[tv] or degree_list[tv] < q_degree:
                    continue
                ok = True
                for row in checks:
                    if row[tv] < 0:
                        ok = False
                        break
                if not ok:
                    continue
                step = 0.0
                if vrow is not None:
                    step = step + vrow[tv]
                for cost_row, id_row in charged_rows:
                    step = step + cost_row[id_row[tv]]
                new_cost = cost + step
                if new_cost > bound:  # legacy prune, verbatim
                    continue
                frame.append((new_cost, tv))
        if not frame:
            return None
        frame.sort()
        return frame

    def process_leaf(frame: List[Tuple[float, int]]) -> None:
        """Consume a complete-superposition frame (cheapest-first)."""
        nonlocal best_cost, best_rows, explored, expanded, early
        leaf_cost, leaf_row = frame[0]
        if leaf_cost >= best_cost:
            # Sorted ascending: nothing here improves the incumbent.
            return
        explored += 1
        expanded += 1
        best_cost = leaf_cost
        rows = list(assigned)
        rows[nq - 1] = leaf_row
        best_rows = rows
        if stop_at_threshold and threshold is not None and best_cost <= threshold:
            early = True
        if known_lower_bound is not None and best_cost <= known_lower_bound:
            early = True

    root = make_frame(0, 0.0)
    if root is not None:
        if nq == 1:
            process_leaf(root)
        else:
            # Explicit DFS stack; stack[i] = [frame, ptr, placed_row] drives
            # position i.  Leaves (position nq - 1) are consumed inline.
            stack: List[List[Any]] = [[root, 0, -1]]
            while stack and not early:
                entry = stack[-1]
                frame, ptr, placed = entry
                position = len(stack) - 1
                if placed >= 0:
                    used[placed] = False
                    entry[2] = -1
                descended = False
                size = len(frame)
                suffix_next = suffix[position + 1]
                while ptr < size:
                    new_cost, row = frame[ptr]
                    ptr += 1
                    if new_cost >= best_cost:  # legacy prune, verbatim
                        ptr = size  # sorted: the rest cannot improve either
                        break
                    limit = best_cost if best_cost < bound else bound
                    if (
                        new_cost + suffix_next
                        > limit + _SUFFIX_SLACK * (1.0 + abs(limit))
                    ):
                        ptr = size  # sorted: the rest are bounded out too
                        break
                    expanded += 1
                    assigned[position] = row
                    used[row] = True
                    child = make_frame(position + 1, new_cost)
                    if child is None:
                        used[row] = False
                        continue
                    if position + 1 == nq - 1:
                        process_leaf(child)
                        used[row] = False
                        if early:
                            break
                        continue
                    entry[2] = row
                    stack.append([child, 0, -1])
                    descended = True
                    break
                entry[1] = ptr
                if not descended and ptr >= size:
                    stack.pop()

    if best_rows is None:
        return SuperpositionResult(
            distance=INFINITE_DISTANCE,
            embedding=None,
            explored=explored,
            nodes_expanded=expanded,
        )
    mapping = {
        plan.order[p]: arrays.vertex_ids[best_rows[p]] for p in range(nq)
    }
    return SuperpositionResult(
        distance=best_cost,
        embedding=Embedding(mapping),
        explored=explored,
        early_exit=early,
        nodes_expanded=expanded,
    )
