"""Result containers shared by PIS and the baseline search strategies."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

__all__ = ["SearchResult", "PruningReport"]


@dataclass
class PruningReport:
    """Diagnostics of the pruning (filtering) phase of one query.

    Attributes
    ----------
    num_database_graphs:
        Database size ``n``.
    num_query_fragments:
        Indexed fragments enumerated in the query (``|F|`` in Algorithm 2).
    num_fragments_after_epsilon:
        Fragments surviving the selectivity floor ``epsilon``.
    partition_size:
        Number of fragments in the selected vertex-disjoint partition.
    partition_weight:
        Total selectivity of the partition (the MWIS objective).
    num_structure_candidates:
        Graphs surviving structure/range intersection only (the quantity a
        purely structural filter would return for the same fragments).
    num_candidates:
        Final candidate count after the superimposed-distance lower bound
        (``Y_p`` in the experiments).
    planned:
        ``True`` when the filtering phase executed a precomputed
        :class:`~repro.search.planner.QueryPlan` (global selectivities and
        a single MWIS solve); ``False`` for strategies that do not plan.
    estimated_candidates:
        The planner's candidate-count estimate for this query (``0`` for
        strategies that do not plan).  Compared against ``num_candidates`` by
        ``pis explain``.
    """

    num_database_graphs: int = 0
    num_query_fragments: int = 0
    num_fragments_after_epsilon: int = 0
    partition_size: int = 0
    partition_weight: float = 0.0
    num_structure_candidates: int = 0
    num_candidates: int = 0
    planned: bool = False
    estimated_candidates: int = 0

    def as_dict(self) -> Dict[str, Any]:
        """Return the report as a plain dictionary."""
        return {
            "num_database_graphs": self.num_database_graphs,
            "num_query_fragments": self.num_query_fragments,
            "num_fragments_after_epsilon": self.num_fragments_after_epsilon,
            "partition_size": self.partition_size,
            "partition_weight": round(self.partition_weight, 6),
            "num_structure_candidates": self.num_structure_candidates,
            "num_candidates": self.num_candidates,
            "planned": self.planned,
            "estimated_candidates": self.estimated_candidates,
        }


@dataclass
class SearchResult:
    """Outcome of one SSSD query.

    Attributes
    ----------
    sigma:
        Distance threshold used.
    candidate_ids:
        Graph ids surviving the filtering phase (before verification).
    answer_ids:
        Graph ids whose true minimum superimposed distance is ``<= sigma``.
    answer_distances:
        Exact distances for the answers (when the strategy computes them).
    prune_seconds / verify_seconds:
        Wall-clock split between filtering and verification.
    report:
        Filtering diagnostics (PIS only; baselines fill what applies).
    method:
        Name of the strategy that produced this result.
    counters:
        Performance counter deltas attributable to this query (cache
        hits/misses, range-query calls, verification work); populated by
        strategies that share a :class:`~repro.perf.PerfCounters` sink.
        An engine search adds its coordinator planning.  Each engine task
        counts into a private sink, so a batch's concurrent tasks never
        mix; planning from concurrent calls on one engine still may.

    from_cache:
        ``True`` when this result was served from the engine's
        query-result cache (:mod:`repro.serve`) instead of being computed;
        answers, distances, candidates, and report are byte-identical to
        the originally computed result, but the timings describe the
        original computation, not the (O(1)) cache hit.  Deliberately
        excluded from :meth:`as_dict`, which describes the query's answer,
        not how it was served.

    plan:
        The :class:`~repro.search.planner.QueryPlan` the filtering phase
        executed (``None`` for strategies that do not plan).  Like ``from_cache`` it is
        excluded from :meth:`as_dict`: it describes how the query was
        executed, not its answer.

        Verification (:mod:`repro.search.verify`) reports
        under the ``verify.*`` prefix: ``verify.candidates`` (ids passed to
        the verifier), ``verify.superpositions_explored`` (complete
        superpositions examined), ``verify.lower_bound_skips`` (candidates
        rejected by the filtering lower bound without a distance
        computation — zero in the standard PIS pipeline, whose filtering
        already drops bound-exceeding candidates), ``verify.early_exits`` (branch-and-bound searches
        stopped by a bound-matching superposition),
        ``verify.cache_refreshes`` (memoized "> threshold" entries
        recomputed at a larger sigma), and the memo-cache accounting under
        ``verify_distance.cache_hits`` / ``verify_distance.cache_misses``.
    """

    sigma: float
    candidate_ids: List[int]
    answer_ids: List[int]
    answer_distances: Dict[int, float] = field(default_factory=dict)
    prune_seconds: float = 0.0
    verify_seconds: float = 0.0
    report: PruningReport = field(default_factory=PruningReport)
    method: str = ""
    counters: Dict[str, float] = field(default_factory=dict)
    from_cache: bool = False
    plan: Optional[Any] = None

    @property
    def num_candidates(self) -> int:
        """Number of candidate graphs passed to verification."""
        return len(self.candidate_ids)

    @property
    def num_answers(self) -> int:
        """Number of true answers."""
        return len(self.answer_ids)

    @property
    def total_seconds(self) -> float:
        """Total query processing time."""
        return self.prune_seconds + self.verify_seconds

    def as_dict(self) -> Dict[str, Any]:
        """Return a JSON-friendly summary (ids included, distances rounded)."""
        return {
            "method": self.method,
            "sigma": self.sigma,
            "num_candidates": self.num_candidates,
            "num_answers": self.num_answers,
            "prune_seconds": round(self.prune_seconds, 6),
            "verify_seconds": round(self.verify_seconds, 6),
            "report": self.report.as_dict(),
            "counters": {
                name: round(value, 6)
                for name, value in sorted(self.counters.items())
            },
        }
