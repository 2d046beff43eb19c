"""Baseline SSSD strategies: naive scan and topoPrune (Section 2, Section 7).

* **Naive scan** verifies every database graph — the "not scalable" solution
  the paper opens with.  It is the ground truth every other strategy is
  validated against.
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

from typing import List, Optional, Set

from ..core.database import GraphDatabase
from ..core.distance import DistanceMeasure
from ..core.errors import IndexNotBuiltError
from ..core.graph import LabeledGraph
from ..core.isomorphism import has_embedding
from ..index.fragment_index import FragmentIndex
from .strategy import SearchStrategy
from .verify import AUTO_VERIFIER

__all__ = ["NaiveSearch", "TopoPruneSearch", "ExactTopoPruneSearch"]


class NaiveSearch(SearchStrategy):
    """Verify every graph in the database (no filtering at all)."""

    name = "naive"

    def candidates(self, query: LabeledGraph, sigma: float) -> List[int]:
        """Return every graph id: the naive scan never filters."""
        return list(self.database.graph_ids())


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
        verifier: str = AUTO_VERIFIER,
        verify_kernel: str = "auto",
    ):
        if index is None:
            raise IndexNotBuiltError(
                "TopoPruneSearch requires a built fragment index"
            )
        super().__init__(
            database=database,
            measure=index.measure,
            index=index,
            verifier=verifier,
            verify_kernel=verify_kernel,
        )

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
