"""Candidate verification: the one bounded, memoized path.

Verification — computing the true minimum superimposed distance of every
candidate that survived filtering (Definition 1) and keeping it when the
distance is within ``sigma`` — dominates query time at low selectivity
(see ``verify.seconds`` in :meth:`repro.engine.Engine.profile`).
:class:`BoundedVerifier` is the one path every engine search takes.  It
runs serially in the thread that runs the query (or the shard task), calls
:func:`repro.core.best_superposition` (the array kernel where it can run)
and exploits the per-candidate lower bounds that the PIS filtering phase
already computes (:attr:`repro.search.pis.FilterOutcome.lower_bounds`):

* **ordering** — candidates are verified in ascending lower-bound order,
  so the most promising candidates (and the cheapest branch-and-bound
  runs) are decided first;
* **short-circuit** — a candidate whose lower bound already exceeds
  ``sigma`` is rejected without calling ``best_superposition`` at all (its
  true distance can only be larger).  A safety net rather than a pipeline
  speedup: PIS filtering already drops such candidates, so this fires only
  for direct :meth:`BoundedVerifier.verify` calls or strategies that do not
  pre-prune on the bound;
* **early exit** — the lower bound is threaded into the branch-and-bound
  search as ``known_lower_bound``: a complete superposition that meets the
  bound is provably minimal, so the search stops without exploring the
  rest of the tree;
* **memoization** — exact distances are cached per
  ``(measure, query content, graph id, graph revision)`` in a bounded
  :class:`~repro.perf.MemoCache` shared through the fragment index, so
  repeated queries (batches, benchmark rounds, sigma sweeps) stop
  recomputing.  The *revision* component is the database's per-slot
  rebinding counter (:meth:`repro.core.GraphDatabase.revision`): when a
  graph id is removed and later reused for a different graph, its revision
  changes and the old entry can never be served again.

Answers come back in the original candidate order, so cached and cold runs
produce byte-identical results.  The reference every configuration must
match is not a verifier: :class:`~repro.search.NaiveSearch` verifies every
live graph with the recursive reference search, with no bounds and no
cache.
"""

from __future__ import annotations

import hashlib
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from ..core.database import GraphDatabase
from ..core.distance import DistanceMeasure
from ..core.graph import LabeledGraph
from ..core.superimposed import INFINITE_DISTANCE, best_superposition
from ..perf import GLOBAL_COUNTERS, MemoCache, PerfCounters, graph_signature

__all__ = ["BoundedVerifier", "query_cache_key"]

#: cache-size default for verifiers that own a private distance cache
PRIVATE_DISTANCE_CACHE_SIZE = 16384


def query_cache_key(query: LabeledGraph, measure: DistanceMeasure) -> str:
    """Stable content key of ``(measure, query)`` for distance memoization.

    The key digests the measure's :meth:`~repro.core.DistanceMeasure.cache_token`
    together with the full content signature of the query graph (vertex ids,
    labels, weights, edges), so two structurally identical query objects
    share cached distances while any semantic difference — a relabeled edge,
    a different measure — separates them.

    This key identifies only the *query* side of a cached distance.  The
    graph side is identified by ``(graph id, graph revision)`` — the id
    alone is not enough, because a dynamic database can retire an id and
    rebind it to a different graph (delete + insert), and a distance cached
    for the previous occupant must never be served for the new one.
    :meth:`BoundedVerifier._verify_one` therefore includes
    ``database.revision(graph_id)`` in every cache key.

    Parameters
    ----------
    query:
        The query graph.
    measure:
        The distance measure the cached distances are exact under.

    Returns
    -------
    str
        A hex digest usable as the query part of a cache key.
    """
    payload = repr((measure.cache_token(), graph_signature(query)))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


class BoundedVerifier:
    """Lower-bound-driven verifier: order, short-circuit, memoize, early-exit.

    See the module docstring for the four optimizations.  Every one of them
    preserves exactness:

    * a candidate is skipped only when its proven lower bound exceeds
      ``sigma`` (so its true distance must too);
    * the branch-and-bound search stops early only when a complete
      superposition meets the proven lower bound (so it is the minimum);
    * cached distances are exact by construction — an ``inf`` computed under
      threshold ``t`` is recorded as "greater than ``t``" and recomputed
      when a later query needs a larger threshold.

    The verification order (ascending lower bound, ties in candidate order)
    is exposed as :attr:`last_order` for diagnostics and tests; answers are
    always reported in the original candidate order regardless.

    Parameters
    ----------
    database:
        The graph database candidates refer into.
    measure:
        Decomposable superimposed distance measure (verification semantics).
    counters:
        Optional :class:`~repro.perf.PerfCounters` sink; a private sink
        mirroring the process-wide counters is created when omitted.
    distance_cache:
        Optional :class:`~repro.perf.MemoCache` for exact distances, shared
        through the fragment index so batches and sigma sweeps reuse work.
        Without one (an index-free strategy, or one over a sharded index's
        merged view) the verifier owns a private cache.
    """

    def __init__(
        self,
        database: GraphDatabase,
        measure: DistanceMeasure,
        counters: Optional[PerfCounters] = None,
        distance_cache: Optional[MemoCache] = None,
    ):
        self.database = database
        self.measure = measure
        self.counters = (
            counters
            if isinstance(counters, PerfCounters)
            else PerfCounters(mirror=GLOBAL_COUNTERS)
        )
        self.distance_cache = (
            distance_cache
            if distance_cache is not None
            else MemoCache("verify_distance", maxsize=PRIVATE_DISTANCE_CACHE_SIZE)
        )
        #: candidate ids in the order the last :meth:`verify` decided them
        self.last_order: List[int] = []

    def _graph_revision(self, graph_id: int) -> int:
        """Rebinding revision of ``graph_id`` in the database (0 if static).

        Part of every distance-cache key: a dynamic database bumps the
        revision whenever a slot is removed, replaced, or reclaimed, which
        retires every cached distance of the previous occupant.  Databases
        without revision tracking are immutable-by-convention and report 0.
        """
        revision = getattr(self.database, "revision", None)
        if callable(revision):
            return revision(graph_id)
        return 0

    # ------------------------------------------------------------------
    # the verification plan
    # ------------------------------------------------------------------
    def plan(
        self,
        sigma: float,
        candidate_ids: Sequence[int],
        lower_bounds: Optional[Mapping[int, float]] = None,
    ) -> Tuple[List[int], List[int]]:
        """Split candidates into ``(ordered, skipped)`` without verifying.

        ``ordered`` holds the candidates that need a distance computation,
        sorted by ascending filtering lower bound (ties keep candidate
        order); ``skipped`` holds the candidates whose lower bound already
        exceeds ``sigma`` and which are therefore rejected outright.

        Exposed separately so tests and diagnostics can inspect the
        ordering and short-circuit decisions without paying for
        verification.
        """
        bounds = lower_bounds or {}
        ordered: List[Tuple[float, int, int]] = []
        skipped: List[int] = []
        for position, graph_id in enumerate(candidate_ids):
            bound = bounds.get(graph_id, 0.0)
            if bound > sigma:
                skipped.append(graph_id)
            else:
                ordered.append((bound, position, graph_id))
        ordered.sort()
        return [graph_id for _, _, graph_id in ordered], skipped

    # ------------------------------------------------------------------
    # verification
    # ------------------------------------------------------------------
    def verify(
        self,
        query: LabeledGraph,
        sigma: float,
        candidate_ids: Sequence[int],
        lower_bounds: Optional[Mapping[int, float]] = None,
    ) -> Tuple[List[int], Dict[int, float]]:
        """Verify candidates: keep graphs whose true distance is within sigma.

        Parameters
        ----------
        query:
            The query graph.
        sigma:
            Distance threshold.
        candidate_ids:
            Graph ids surviving the filtering phase.
        lower_bounds:
            Optional proven lower bounds per candidate id (the filtering
            phase's Eq. 2 bounds).  Bounds must be *true* lower bounds of the
            superimposed distance — a wrong bound can drop a true answer.

        Returns
        -------
        tuple
            ``(answer_ids, answer_distances)``: the surviving ids in
            candidate order and their exact distances.
        """
        candidate_ids = list(candidate_ids)
        bounds = lower_bounds or {}
        with self.counters.timer("verify"):
            ordered, skipped = self.plan(sigma, candidate_ids, bounds)
            self.last_order = list(ordered)
            query_key = query_cache_key(query, self.measure)
            outcomes = [
                self._verify_one(
                    query, query_key, graph_id, sigma, bounds.get(graph_id)
                )
                for graph_id in ordered
            ]
        found = {
            graph_id: distance
            for graph_id, distance in zip(ordered, (o[0] for o in outcomes))
            if distance is not None
        }
        # Deterministic output: answers in original candidate order, exactly
        # as the oracle's scan reports them.
        answers = [graph_id for graph_id in candidate_ids if graph_id in found]
        distances = {graph_id: found[graph_id] for graph_id in answers}
        self.counters.increment("verify.candidates", len(candidate_ids))
        self.counters.increment("verify.lower_bound_skips", len(skipped))
        self.counters.increment(
            "verify.superpositions_explored", sum(o[1] for o in outcomes)
        )
        self.counters.increment("verify.early_exits", sum(o[2] for o in outcomes))
        self.counters.increment("verify.nodes_expanded", sum(o[3] for o in outcomes))
        return answers, distances

    def _cached_outcome(
        self, cache_key: Tuple[str, Any, int], sigma: float
    ) -> Optional[Tuple[Optional[float], int, int, int]]:
        """Resolve one candidate from the distance cache, if possible.

        Returns the outcome tuple when the cache decides the candidate, or
        ``None`` when a distance computation is needed (miss, or an entry
        cached only as "> threshold" at a smaller threshold — the refresh
        case, which is also accounted here).
        """
        entry = self.distance_cache.get(cache_key)
        # The verifier, not the shared cache, counts its lookups: they then
        # land in this verifier's sink, whichever task it serves.
        outcome = "misses" if entry is MemoCache.MISS else "hits"
        self.counters.increment(f"{self.distance_cache.name}.cache_{outcome}")
        if entry is MemoCache.MISS:
            return None
        distance, threshold = entry
        if distance != INFINITE_DISTANCE:
            # Finite cached distances are exact minima.
            return (distance if distance <= sigma else None, 0, 0, 0)
        if sigma <= threshold:
            # The true distance exceeds the cached threshold, which
            # already covers this sigma.
            return (None, 0, 0, 0)
        # Cached only as "> threshold" — recompute with the larger
        # threshold and refresh the entry.
        self.counters.increment("verify.cache_refreshes")
        return None

    def _verify_one(
        self,
        query: LabeledGraph,
        query_key: str,
        graph_id: int,
        sigma: float,
        bound: Optional[float],
    ) -> Tuple[Optional[float], int, int, int]:
        """Decide one candidate:
        ``(distance-or-None, explored, early_exits, nodes_expanded)``.

        ``distance`` is the exact minimum superimposed distance when it is
        within ``sigma`` and ``None`` otherwise.  Thread-safe: the memo
        cache takes its own lock and everything else is local.
        """
        cache_key = (query_key, graph_id, self._graph_revision(graph_id))
        cached = self._cached_outcome(cache_key, sigma)
        if cached is not None:
            return cached
        result = best_superposition(
            query,
            self.database[graph_id],
            self.measure,
            threshold=sigma,
            known_lower_bound=bound,
        )
        self.distance_cache.put(cache_key, (result.distance, sigma))
        return (
            result.distance if result.distance <= sigma else None,
            result.explored,
            1 if result.early_exit else 0,
            result.nodes_expanded,
        )
