"""Fragment-based index (Section 4, Figures 4 and 5).

The :class:`FragmentIndex` is the first component of PIS.  It is built in
two steps, mirroring the paper:

1. *feature selection* — a set of bare structures (skeletons, no labels) is
   chosen by one of the selectors in :mod:`repro.mining`;
2. *fragment enumeration* — for every database graph ``G``, all fragments
   of ``G`` belonging to the structural equivalence class ``[f]`` of a
   selected structure ``f`` are enumerated and inserted, as annotation
   sequences, into the per-class range-query index.  One pass of
   :class:`repro.core.fragments.FragmentEnumerator` grows every connected
   edge set of ``G`` (up to the largest class's edge count) once and
   classifies it through the index's shape memo, so every class is served
   by the same pass rather than by one embedding search per class.

The hash table of Figure 5 is the ``code -> EquivalenceClassIndex`` mapping,
keyed by the canonical (minimum DFS) code of the structure.

At query time, :meth:`FragmentIndex.enumerate_query_fragments` finds every
indexed fragment inside a query graph with the same enumerator; the
partition-based search then picks
a vertex-disjoint subset of them and combines their per-class range queries
into the lower bound of Eq. (2).

Performance machinery:

* every index owns a :class:`~repro.perf.PerfCounters` instance shared with
  the strategies built over it;
* query-fragment enumeration and per-fragment range queries are memoized in
  bounded LRU caches (invalidated whenever the index mutates), and exact
  verification distances are memoized in a cache shared with the
  verifiers of :mod:`repro.search.verify`;
* :meth:`build` can fan fragment enumeration out over worker processes
  (``workers=N``), producing an index byte-identical to the serial build.

The index is *dynamic*: :meth:`add_graph` / :meth:`remove_graph` update the
equivalence classes, per-class occurrence counts, and posting lists in
place — removed ids are retired (never silently renumbered) and every
mutation bumps the :attr:`generation` counter and invalidates the affected
memo caches, so searches against a mutated index answer exactly as a
from-scratch rebuild over the same final database would.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass
from typing import Any, Dict, FrozenSet, Hashable, Iterable, Iterator, List, Optional, Tuple, Union

from ..core.canonical import CanonicalCode, structure_code
from ..core.database import GraphDatabase
from ..core.distance import DistanceMeasure
from ..core.errors import FeatureNotIndexedError, IndexError_, IndexNotBuiltError
from ..core.fragments import FragmentEnumerator
from ..core.graph import LabeledGraph
from ..perf import GLOBAL_COUNTERS, MemoCache, PerfCounters, graph_signature
from ..store.epoch import EpochManager
from .class_index import EquivalenceClassIndex
from .sequence import FragmentSequencer

__all__ = ["FragmentIndex", "QueryFragment", "IndexStats"]

AnnotationSequence = Tuple[Any, ...]
EdgeKey = Tuple[Hashable, Hashable]


@dataclass(frozen=True)
class QueryFragment:
    """One indexed fragment found inside a query graph.

    Attributes
    ----------
    code:
        Structure code of the fragment's equivalence class.
    vertices:
        The query-graph vertices covered by the fragment (used for the
        overlapping-relation graph: Definition 3 requires vertex-disjoint
        partitions).
    edges:
        The query-graph edges covered by the fragment.
    sequence:
        The fragment's annotation sequence under the index's measure.
    """

    code: CanonicalCode
    vertices: FrozenSet[Hashable]
    edges: FrozenSet[EdgeKey]
    sequence: AnnotationSequence

    @property
    def num_edges(self) -> int:
        """Number of edges in the fragment."""
        return len(self.edges)

    @property
    def num_vertices(self) -> int:
        """Number of vertices in the fragment."""
        return len(self.vertices)

    def overlaps(self, other: "QueryFragment") -> bool:
        """Vertex-overlap test used by the overlapping-relation graph."""
        return bool(self.vertices & other.vertices)


@dataclass(frozen=True)
class IndexStats:
    """Summary statistics of a built fragment index."""

    num_classes: int
    num_graphs: int
    num_occurrences: int
    num_entries: int
    min_fragment_edges: int
    max_fragment_edges: int
    num_removed_graphs: int = 0

    def as_dict(self) -> Dict[str, int]:
        """Return the statistics as a plain dictionary."""
        return {
            "num_classes": self.num_classes,
            "num_graphs": self.num_graphs,
            "num_occurrences": self.num_occurrences,
            "num_entries": self.num_entries,
            "min_fragment_edges": self.min_fragment_edges,
            "max_fragment_edges": self.max_fragment_edges,
            "num_removed_graphs": self.num_removed_graphs,
        }


def _enumerate_chunk(
    codes: List[CanonicalCode],
    measure: DistanceMeasure,
    chunk: List[Tuple[int, LabeledGraph]],
) -> List[Tuple[int, List[Tuple[CanonicalCode, List[AnnotationSequence]]]]]:
    """Worker task of the parallel build: enumerate one slice of the database.

    Returns, per graph, the occurrence sequences of every class in the order
    the classes were given, so the parent process can replay insertions in
    exactly the serial order.
    """
    enumerator = FragmentEnumerator([FragmentSequencer(code) for code in codes], measure)
    return [(graph_id, enumerator.class_sequences(graph)) for graph_id, graph in chunk]


class FragmentIndex:
    """Hash table of structural equivalence classes with per-class indexes.

    Parameters
    ----------
    features:
        Iterable of feature structures (labels are ignored; only skeletons
        matter).  Duplicated structures collapse into one class.
    measure:
        The superimposed distance measure the index is built for.  The
        measure decides what is stored per fragment (labels vs. weights)
        and scores it in each class's one store
        (:class:`~repro.index.class_index.SequenceStore`).
    """

    def __init__(self, features: Iterable[LabeledGraph], measure: DistanceMeasure):
        self.measure = measure
        self._classes: Dict[CanonicalCode, EquivalenceClassIndex] = {}
        self._num_graphs = 0
        self._removed_ids: set = set()
        self._generation = 0
        self._built = False
        # Reader/writer isolation (repro.store.epoch): searches pin the
        # current epoch via ``epochs.read()`` and every mutator below runs
        # under ``epochs.write()``, so a concurrent reader never observes a
        # half-applied mutation.  The manager is reentrant, so the engine
        # wrapping a whole batch in one write session composes with the
        # per-graph sessions taken here.
        self.epochs = EpochManager()
        self.counters = PerfCounters(mirror=GLOBAL_COUNTERS)
        self._fragment_cache = MemoCache(
            "query_fragments", maxsize=256, counters=self.counters
        )
        self._range_cache = MemoCache(
            "range_query", maxsize=16384, counters=self.counters
        )
        # Exact verification distances keyed by (measure+query content,
        # graph id, graph revision); shared with every verifier built over
        # this index (repro.search.verify).  A cached distance describes
        # the *database graph* behind an id, so it must die whenever that
        # binding can change: removals (and re-adds of a retired id) clear
        # the cache here, and the verifiers additionally key every entry
        # by the database's per-slot revision, so an id reused for a
        # different graph can never resurface a stale distance.  The
        # verifiers count its lookups, into their own sinks.
        self._distance_cache = MemoCache("verify_distance", maxsize=65536)
        # The one fragment enumerator over the current class list; it owns
        # the shape memo and is rebuilt lazily after add_feature.
        self._enumerator: Optional[FragmentEnumerator] = None
        for feature in features:
            self.add_feature(feature)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def _invalidate_caches(self, distances: bool = False) -> None:
        """Drop memo caches after a mutation.

        The fragment and range caches reflect what is indexed and are
        always dropped.  ``distances=True`` also drops the exact-distance
        cache — required whenever a graph id's binding may have changed
        (removal, or re-indexing a retired id), because cached distances
        describe database graphs, not index contents.
        """
        self._fragment_cache.clear()
        self._range_cache.clear()
        if distances:
            self._distance_cache.clear()

    def _mark_mutation(self, distances: bool = False) -> None:
        self._generation += 1
        self._invalidate_caches(distances=distances)

    def clear_caches(self) -> None:
        """Drop all index-owned memo caches (fragments, ranges, distances)."""
        self._invalidate_caches()
        self._distance_cache.clear()

    def cache_stats(self) -> List[Dict[str, Any]]:
        """Accounting of the index-owned memo caches (JSON-friendly)."""
        return [
            self._fragment_cache.stats(),
            self._range_cache.stats(),
            self._distance_cache.stats(),
        ]

    @property
    def distance_cache(self) -> MemoCache:
        """Exact-distance memo cache shared with the verifiers.

        :class:`repro.search.verify.BoundedVerifier` memoizes per-(query
        content, graph id) exact superimposed distances here, so batched
        searches and repeated sigma sweeps over one index reuse each other's
        verification work.
        """
        return self._distance_cache

    def add_feature(self, feature: LabeledGraph) -> CanonicalCode:
        """Register a feature structure; returns its canonical code."""
        if feature.num_edges == 0:
            raise ValueError("feature structures must contain at least one edge")
        code = structure_code(feature)
        if code not in self._classes:
            self._classes[code] = EquivalenceClassIndex(code, self.measure)
            self._enumerator = None
            self._mark_mutation()
        return code

    @property
    def enumerator(self) -> FragmentEnumerator:
        """The fragment enumerator over the indexed classes, in class order.

        Query-side and database-side enumeration both go through it, so
        they share its shape memo (:mod:`repro.core.fragments`).
        """
        if self._enumerator is None:
            self._enumerator = FragmentEnumerator(
                [class_index.sequencer for class_index in self._classes.values()],
                self.measure,
            )
        return self._enumerator

    def build(
        self,
        database: Union[GraphDatabase, Iterable[LabeledGraph]],
        workers: Optional[int] = None,
    ) -> "FragmentIndex":
        """Scan the database and index every fragment of every feature class.

        Each graph takes one enumeration pass that grows every connected
        edge set up to the largest class's edge count once and classifies
        it through the shape memo (:attr:`enumerator`).  ``workers > 1``
        fans that pass (the dominant cost) out over a process pool;
        insertions are replayed in database order, so the resulting index
        is identical to a serial build.  Falls back to the serial path if a
        worker pool cannot be created.

        Returns ``self`` so construction can be chained.
        """
        if not isinstance(database, GraphDatabase):
            database = GraphDatabase(database)
        with self.epochs.write():
            # Index identifiers up to the database's id bound; tombstoned
            # slots are recorded so candidate fallbacks never report
            # retired ids.
            self._num_graphs = database.id_bound
            self._removed_ids = set(database.removed_ids())
            pool_size = int(workers or 0)
            generation_before = self._generation
            with self.counters.timer("index_build"):
                if pool_size > 1 and len(database) > 1 and self._classes:
                    self._build_parallel(database, pool_size)
                else:
                    for graph_id, graph in database.items():
                        self.index_graph(graph_id, graph)
            # One whole build counts as one mutation regardless of how many
            # per-graph steps (or worker chunks) it took, so serial and
            # parallel builds serialize identically.
            self._generation = generation_before + 1
            self._built = True
        return self

    def _build_parallel(self, database: GraphDatabase, workers: int) -> None:
        """Enumerate fragments in a process pool; insert in serial order."""
        from concurrent.futures import ProcessPoolExecutor

        items = list(database.items())
        chunk_size = max(1, (len(items) + workers - 1) // workers)
        chunks = [
            items[position : position + chunk_size]
            for position in range(0, len(items), chunk_size)
        ]
        codes = list(self._classes)
        try:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                chunk_results = list(
                    pool.map(
                        _enumerate_chunk,
                        [codes] * len(chunks),
                        [self.measure] * len(chunks),
                        chunks,
                    )
                )
        except (OSError, ValueError, RuntimeError, TypeError, pickle.PicklingError, AttributeError):
            # Sandboxes without process support, unpicklable measures or
            # graphs (PicklingError/TypeError/AttributeError), etc.:
            # degrade to the serial build rather than failing the caller.
            self.counters.increment("index_build.parallel_fallbacks")
            for graph_id, graph in items:
                self.index_graph(graph_id, graph)
            return
        self.counters.increment("index_build.parallel_chunks", len(chunks))
        for chunk_result in chunk_results:
            for graph_id, per_graph in chunk_result:
                for code, sequences in per_graph:
                    inserted = self._classes[code].insert_occurrences(
                        graph_id, sequences
                    )
                    self.counters.increment("index_build.occurrences", inserted)
        self._invalidate_caches()

    def index_graph(self, graph_id: int, graph: LabeledGraph) -> int:
        """Index all feature occurrences of a single graph.

        Returns the total number of occurrences inserted.  Exposed so that
        incremental loads and streaming builders can add graphs one by one;
        :meth:`add_graph` wraps it with the stricter id bookkeeping of the
        update subsystem.
        """
        with self.epochs.write():
            reused = graph_id in self._removed_ids
            total = 0
            for code, sequences in self.enumerator.class_sequences(graph):
                total += self._classes[code].insert_occurrences(graph_id, sequences)
            self._removed_ids.discard(graph_id)
            if graph_id >= self._num_graphs:
                self._num_graphs = graph_id + 1
            self._built = True
            self.counters.increment("index_build.occurrences", total)
            self._mark_mutation(distances=reused)
        return total

    # ------------------------------------------------------------------
    # incremental updates
    # ------------------------------------------------------------------
    def add_graph(self, graph_id: int, graph: LabeledGraph) -> int:
        """Incrementally index one database graph under ``graph_id``.

        Unlike the permissive :meth:`index_graph`, this is the update
        subsystem's entry point: the id must be *fresh* (at or beyond the
        current bound) or *retired* (previously removed) — re-adding a live
        id raises, because silently indexing a second graph under an
        existing id would corrupt the posting lists.  Ids skipped over
        (``add_graph(7, ...)`` on an index bounded at 5) are recorded as
        retired so candidate fallbacks never invent them.

        Returns the number of fragment occurrences indexed.
        """
        if not isinstance(graph_id, int) or isinstance(graph_id, bool) or graph_id < 0:
            raise IndexError_(f"graph id must be a non-negative int, got {graph_id!r}")
        if graph_id < self._num_graphs and graph_id not in self._removed_ids:
            raise IndexError_(
                f"graph id {graph_id} is already indexed; remove it before "
                "re-adding"
            )
        with self.epochs.write():
            if graph_id > self._num_graphs:
                self._removed_ids.update(range(self._num_graphs, graph_id))
            with self.counters.timer("index_update"):
                total = self.index_graph(graph_id, graph)
            self.counters.increment("index_update.added_graphs")
        return total

    def add_graphs(
        self, graphs: Iterable[Tuple[int, LabeledGraph]]
    ) -> int:
        """Incrementally index ``(graph_id, graph)`` pairs; returns occurrences."""
        return sum(self.add_graph(graph_id, graph) for graph_id, graph in graphs)

    def align_id_bound(self, id_bound: int) -> None:
        """Extend the graph-id bound, retiring every id in the gap.

        Sharded deployments (:class:`repro.index.sharded.ShardedFragmentIndex`)
        partition one global id space across several indexes; each shard
        aligns to the global bound so ids owned by *other* shards are retired
        locally and can never resurface from a candidate fallback.  The bound
        never shrinks; aligning to a smaller or equal bound is a no-op.
        """
        id_bound = int(id_bound)
        if id_bound > self._num_graphs:
            with self.epochs.write():
                self._removed_ids.update(range(self._num_graphs, id_bound))
                self._num_graphs = id_bound
                self._built = True

    def mark_retired(self, graph_id: int) -> None:
        """Record ``graph_id`` as retired here without touching postings.

        The sharding layer calls this on every shard that does *not* own a
        newly added graph id, keeping all shards' id spaces aligned.  Ids at
        or beyond the bound extend it (like :meth:`add_graph` gaps); ids
        below the bound must already be retired — retiring a live id would
        silently hide indexed postings, so it raises instead.
        """
        if not isinstance(graph_id, int) or isinstance(graph_id, bool) or graph_id < 0:
            raise IndexError_(f"graph id must be a non-negative int, got {graph_id!r}")
        if graph_id >= self._num_graphs:
            self.align_id_bound(graph_id + 1)
            return
        if graph_id not in self._removed_ids:
            raise IndexError_(
                f"cannot mark graph id {graph_id} retired: it is live in this "
                "index (remove it instead)"
            )

    def remove_graph(self, graph_id: int) -> int:
        """Remove one graph from every equivalence class.

        Posting lists, occurrence counts, and per-class store entries are
        updated in place; the id is retired (it stays out of candidate
        fallbacks until explicitly re-added).  All
        memo caches — including the exact-distance cache, whose entries
        describe the graph being removed — are invalidated.

        Returns the number of distinct store entries removed.  Removing
        an id that is not live raises
        :class:`~repro.core.errors.IndexError_`.
        """
        if (
            not isinstance(graph_id, int)
            or isinstance(graph_id, bool)
            or not 0 <= graph_id < self._num_graphs
            or graph_id in self._removed_ids
        ):
            raise IndexError_(f"graph id {graph_id!r} is not a live indexed graph")
        with self.epochs.write():
            with self.counters.timer("index_update"):
                removed = sum(
                    class_index.remove_graph(graph_id)
                    for class_index in self._classes.values()
                )
            self._removed_ids.add(graph_id)
            self.counters.increment("index_update.removed_graphs")
            self._mark_mutation(distances=True)
        return removed

    def remove_graphs(self, graph_ids: Iterable[int]) -> int:
        """Remove several graphs; returns total store entries removed."""
        return sum(self.remove_graph(graph_id) for graph_id in list(graph_ids))

    # ------------------------------------------------------------------
    # lookup
    # ------------------------------------------------------------------
    @property
    def num_graphs(self) -> int:
        """Graph-id bound of the index (one past the highest id ever seen).

        Removed graphs keep their ids retired, so this bound never shrinks;
        use :attr:`num_live_graphs` for the live count.
        """
        return self._num_graphs

    @property
    def num_live_graphs(self) -> int:
        """Number of live (non-removed) database graphs the index covers."""
        return self._num_graphs - len(self._removed_ids)

    @property
    def generation(self) -> int:
        """Counter bumped by every mutation (feature, graph add/remove).

        Memo caches are invalidated on every bump, so two identical
        generation values bracket a window in which cached results are
        valid.
        """
        return self._generation

    @property
    def removed_graph_ids(self) -> FrozenSet[int]:
        """The retired (removed, not re-added) graph ids."""
        return frozenset(self._removed_ids)

    def live_graph_ids(self) -> List[int]:
        """Every live graph id below the bound, in ascending order."""
        if not self._removed_ids:
            return list(range(self._num_graphs))
        return [
            graph_id
            for graph_id in range(self._num_graphs)
            if graph_id not in self._removed_ids
        ]

    @property
    def num_classes(self) -> int:
        """Number of structural equivalence classes."""
        return len(self._classes)

    def codes(self) -> Iterator[CanonicalCode]:
        """Iterate over the canonical codes of the indexed classes."""
        return iter(self._classes)

    def classes(self) -> Iterator[EquivalenceClassIndex]:
        """Iterate over the per-class indexes."""
        return iter(self._classes.values())

    def is_indexed(self, code: CanonicalCode) -> bool:
        """Return ``True`` if the structure code has an index entry."""
        return code in self._classes

    def get_class(self, code: CanonicalCode) -> EquivalenceClassIndex:
        """Return the per-class index for ``code``.

        Raises
        ------
        FeatureNotIndexedError
            If the code is not an indexed structure.
        """
        try:
            return self._classes[code]
        except KeyError:
            raise FeatureNotIndexedError(code) from None

    def fragment_size_range(self) -> Tuple[int, int]:
        """Return ``(min, max)`` edge counts over the indexed structures."""
        sizes = [c.sequencer.num_edges for c in self._classes.values()]
        if not sizes:
            return (0, 0)
        return (min(sizes), max(sizes))

    def stats(self) -> IndexStats:
        """Return :class:`IndexStats` for reporting."""
        low, high = self.fragment_size_range()
        return IndexStats(
            num_classes=self.num_classes,
            num_graphs=self._num_graphs,
            num_occurrences=sum(c.num_occurrences for c in self._classes.values()),
            num_entries=sum(c.num_entries for c in self._classes.values()),
            min_fragment_edges=low,
            max_fragment_edges=high,
            num_removed_graphs=len(self._removed_ids),
        )

    # ------------------------------------------------------------------
    # query-side fragment enumeration
    # ------------------------------------------------------------------
    def enumerate_query_fragments(self, query: LabeledGraph) -> List[QueryFragment]:
        """Find every indexed fragment inside the query graph.

        Each connected edge set of the query whose structure is indexed
        yields one :class:`QueryFragment`, found by one pass of the
        :attr:`enumerator`.  The automorphism variants of one fragment are
        collapsed into a single entry, because all database-side variants
        are indexed and the range query is therefore insensitive to which
        variant represents the query fragment.  Fragments come in class
        order, then in the order a per-class embedding search of the query
        would first meet them.

        Results are memoized per query content (the same query graph is
        filtered repeatedly — by PIS and topoPrune, under several
        thresholds, across benchmark rounds); the cache is invalidated
        whenever the index mutates.
        """
        if not self._built and self._num_graphs == 0:
            raise IndexNotBuiltError(
                "the fragment index must be built before enumerating query fragments"
            )
        key = graph_signature(query)
        cached = self._fragment_cache.get(key)
        if cached is not MemoCache.MISS:
            return list(cached)
        with self.counters.timer("enumerate_query_fragments"):
            result = [
                QueryFragment(code, vertices, edges, sequence)
                for code, vertices, edges, sequence in self.enumerator.query_fragments(
                    query
                )
            ]
        self.counters.increment("query_fragments.enumerated", len(result))
        # Return a copy, never the cached list itself: a caller mutating its
        # fragment list must not corrupt later cache hits.
        self._fragment_cache.put(key, result)
        return list(result)

    def range_query(
        self, fragment: QueryFragment, sigma: float
    ) -> Dict[int, float]:
        """Range query for one query fragment: ``{graph_id: min distance}``.

        Memoized per ``(class, sequence, sigma)``; the returned mapping may
        be shared with the memo cache — treat it as read-only.
        """
        key = (fragment.code, fragment.sequence, sigma)
        distances = self._range_cache.get(key)
        if distances is MemoCache.MISS:
            with self.counters.timer("range_query"):
                distances = self.get_class(fragment.code).range_query(
                    fragment.sequence, sigma
                )
            self._range_cache.put(key, distances)
        return distances

    def __repr__(self) -> str:
        low, high = self.fragment_size_range()
        return (
            f"<FragmentIndex classes={self.num_classes} graphs={self._num_graphs} "
            f"fragment_edges={low}..{high} measure={self.measure.name}>"
        )
