"""Baseline SSSD strategies: naive scan and topoPrune (Section 2, Section 7).

* **Naive scan** verifies every database graph — the "not scalable" solution
  the paper opens with.  It is the correctness oracle every other strategy
  is validated against: Definition 1 evaluated by the recursive reference
  search, with none of the engine's filtering, bounds, caches or kernel.
* **topoPrune** first removes the graphs that cannot contain the query
  *structure* and verifies the rest.  Following the paper's experimental
  setup ("we build topoPrune and PIS based on the gIndex algorithm"), the
  structure filter is feature-based: the candidate set is the intersection,
  over the indexed structures occurring in the query, of the sets of
  database graphs containing that structure.  Its candidate count is the
  ``Y_t`` of Figures 8–10 and does not depend on the distance threshold.
* **ExactTopoPrune** replaces the feature-based containment filter with a
  full subgraph-isomorphism test of the query skeleton.  It is slower but
  returns the tightest possible structure-only candidate set; experiments
  use it to show how much of PIS's gain comes from the distance lower bound
  rather than from structure filtering alone.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

from ..core.database import GraphDatabase
from ..core.distance import DistanceMeasure
from ..core.errors import EngineConfigError, IndexNotBuiltError
from ..core.graph import LabeledGraph
from ..core.isomorphism import has_embedding
from ..core.superimposed import _reference_best_superposition
from ..index.fragment_index import FragmentIndex
from .strategy import SearchStrategy

__all__ = ["NaiveSearch", "TopoPruneSearch", "ExactTopoPruneSearch"]


class NaiveSearch(SearchStrategy):
    """The correctness oracle: verify every live graph by Definition 1.

    No filtering at all, and its own :meth:`verify`: one recursive
    reference search per graph, in candidate order, with the threshold as
    the only pruning device — no bounds, no cache, no array kernel.  The
    engine's answers (and ``pis query --compare-naive``) are checked
    against it.

    ``verifier`` and ``verify_kernel`` are deprecated and accepted only with
    the value ``"legacy"``; any other value raises
    :class:`~repro.core.errors.EngineConfigError`.  Their last callers are
    the benchmark's two oracle calls; both keywords go with them (item B in
    ``ROADMAP.md``).
    """

    name = "naive"

    def __init__(
        self,
        database: GraphDatabase,
        measure: Optional[DistanceMeasure] = None,
        index=None,
        verifier: str = "legacy",
        verify_kernel: str = "legacy",
    ):
        for key, value in (("verifier", verifier), ("verify_kernel", verify_kernel)):
            if value != "legacy":
                raise EngineConfigError(
                    f"NaiveSearch accepts {key}='legacy' only, not {value!r}: "
                    "it always verifies with the reference search"
                )
        super().__init__(database, measure=measure, index=index)

    def candidates(self, query: LabeledGraph, sigma: float) -> List[int]:
        """Return every graph id: the naive scan never filters."""
        return list(self.database.graph_ids())

    def verify(
        self,
        query: LabeledGraph,
        sigma: float,
        candidate_ids: Sequence[int],
        lower_bounds: Optional[Mapping[int, float]] = None,
    ) -> Tuple[List[int], Dict[int, float]]:
        """Verify candidates with one full reference search each.

        ``lower_bounds`` is ignored.  Returns ``(answer_ids,
        answer_distances)`` in candidate order.
        """
        answers: List[int] = []
        distances: Dict[int, float] = {}
        explored = 0
        expanded = 0
        with self.counters.timer("verify"):
            for graph_id in candidate_ids:
                result = _reference_best_superposition(
                    query, self.database[graph_id], self.measure, threshold=sigma
                )
                explored += result.explored
                expanded += result.nodes_expanded
                if result.distance <= sigma:
                    answers.append(graph_id)
                    distances[graph_id] = result.distance
        self.counters.increment("verify.candidates", len(candidate_ids))
        self.counters.increment("verify.superpositions_explored", explored)
        self.counters.increment("verify.nodes_expanded", expanded)
        return answers, distances


class TopoPruneSearch(SearchStrategy):
    """Feature-based structure pruning (gIndex-style), then verification.

    The candidate set is independent of ``sigma``: only containment of the
    query's indexed structures matters.
    """

    name = "topoPrune"
    requires_index = True

    def __init__(
        self,
        database: GraphDatabase,
        measure: Optional[DistanceMeasure] = None,
        index: Optional[FragmentIndex] = None,
    ):
        if index is None:
            raise IndexNotBuiltError(
                "TopoPruneSearch requires a built fragment index"
            )
        super().__init__(database=database, measure=index.measure, index=index)

    def candidates(self, query: LabeledGraph, sigma: float) -> List[int]:
        """Graphs containing every indexed structure of the query.

        ``sigma`` is accepted for interface uniformity but ignored:
        structure containment does not depend on the distance threshold.
        """
        fragments = self.index.enumerate_query_fragments(query)
        candidate_ids: Optional[Set[int]] = None
        seen_codes: Set = set()
        for fragment in fragments:
            # Structure containment depends only on the equivalence class,
            # so each class is intersected once.
            if fragment.code in seen_codes:
                continue
            seen_codes.add(fragment.code)
            containing = self.index.get_class(fragment.code).containing_graphs()
            candidate_ids = (
                containing if candidate_ids is None else candidate_ids & containing
            )
        self.counters.increment("topo.classes_intersected", len(seen_codes))
        if candidate_ids is None:
            return self._all_graph_ids()
        return sorted(candidate_ids)


class ExactTopoPruneSearch(SearchStrategy):
    """Structure pruning by a full subgraph-isomorphism test of the skeleton."""

    name = "exact-topoPrune"

    def candidates(self, query: LabeledGraph, sigma: float) -> List[int]:
        """Graphs whose skeleton embeds the query skeleton (sigma ignored)."""
        skeleton = query.skeleton()
        matched: List[int] = []
        for graph_id, graph in self.database.items():
            if has_embedding(skeleton, graph):
                matched.append(graph_id)
        return matched
