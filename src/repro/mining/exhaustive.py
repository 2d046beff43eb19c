"""Exhaustive small-structure feature selection.

Enumerates every connected structure (skeleton) with ``min_edges`` to
``max_edges`` edges that appears in the database, counts in how many graphs
each occurs, and keeps the frequent ones.  With chemical-sized fragments
(up to 6–7 edges) this is affordable and gives the experiments a precisely
controlled feature set — which is what the paper's Figure 12 varies ("the
maximum size of indexed fragments, from 4 edges to 6 edges").

For large databases the enumeration runs on a random sample of graphs
(support is still counted over the full database for the surviving
candidates unless ``count_support_on_sample`` is set).
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional

from ..core.canonical import CanonicalCode
from ..core.database import GraphDatabase
from ..core.fragments import ShapeKey, iter_edge_shapes, shape_code
from ..core.graph import LabeledGraph
from ..core.isomorphism import has_embedding
from .base import FeatureSelector, StructureSupport

__all__ = ["ExhaustiveFeatureSelector"]


class ExhaustiveFeatureSelector(FeatureSelector):
    """Index every frequent structure up to a maximum number of edges.

    Parameters
    ----------
    min_edges, max_edges:
        Edge-count bounds of the enumerated structures.
    min_support:
        Support threshold; fractions in ``(0, 1]`` are relative to the
        database size, larger values are absolute counts.
    max_features:
        Optional cap on the number of returned structures; the most frequent
        structures of each size are preferred, larger sizes first (larger
        fragments are more selective, Section 5).
    sample_size:
        If set, structures are enumerated from a random sample of this many
        graphs (support counting still uses every sampled graph's counts and,
        for surviving candidates, the full database unless
        ``count_support_on_sample``).
    seed:
        Random seed for sampling.
    """

    name = "exhaustive"

    def __init__(
        self,
        min_edges: int = 1,
        max_edges: int = 4,
        min_support: float = 0.05,
        max_features: Optional[int] = None,
        sample_size: Optional[int] = None,
        count_support_on_sample: bool = True,
        seed: int = 7,
    ):
        if min_edges < 1 or max_edges < min_edges:
            raise ValueError("require 1 <= min_edges <= max_edges")
        self.min_edges = min_edges
        self.max_edges = max_edges
        self.min_support = min_support
        self.max_features = max_features
        self.sample_size = sample_size
        self.count_support_on_sample = count_support_on_sample
        self.seed = seed

    # ------------------------------------------------------------------
    def enumerate_supports(self, database: GraphDatabase) -> List[StructureSupport]:
        """Enumerate candidate structures with their supporting graph ids."""
        rng = random.Random(self.seed)
        graph_ids = list(database.graph_ids())
        if self.sample_size is not None and self.sample_size < len(graph_ids):
            sampled = rng.sample(graph_ids, self.sample_size)
        else:
            sampled = graph_ids

        # structure codes by vertex-id-free shape key, so isomorphic edge
        # sets that grow alike share one canonical-code computation
        codes: Dict[ShapeKey, CanonicalCode] = {}
        candidates: Dict[CanonicalCode, StructureSupport] = {}
        for graph_id in sampled:
            graph = database[graph_id]
            for edges, key, _ in iter_edge_shapes(
                graph, self.max_edges, min_edges=self.min_edges
            ):
                code = codes.get(key)
                if code is None:
                    code = codes[key] = shape_code(key)
                support = candidates.get(code)
                if support is None:
                    candidates[code] = StructureSupport(
                        structure=graph.edge_subgraph(edges).skeleton(),
                        code=code,
                        supporting_graphs={graph_id},
                    )
                else:
                    support.supporting_graphs.add(graph_id)

        if not self.count_support_on_sample and len(sampled) < len(graph_ids):
            unsampled = [gid for gid in graph_ids if gid not in set(sampled)]
            for support in candidates.values():
                for graph_id in unsampled:
                    if has_embedding(support.structure, database[graph_id]):
                        support.supporting_graphs.add(graph_id)
        return list(candidates.values())

    def select_supports(self, database: GraphDatabase) -> List[StructureSupport]:
        """Return the frequent structures (with supports), most useful first."""
        supports = self.enumerate_supports(database)
        reference = (
            self.sample_size
            if self.sample_size is not None
            and self.count_support_on_sample
            and self.sample_size < len(database)
            else len(database)
        )
        threshold = self.resolve_min_support(self.min_support, reference)
        frequent = [s for s in supports if s.support >= threshold]
        # Larger fragments first (more selective), then by support.
        frequent.sort(key=lambda s: (-s.num_edges, -s.support, repr(s.code)))
        if self.max_features is not None:
            frequent = frequent[: self.max_features]
        return frequent

    def select(self, database: GraphDatabase) -> List[LabeledGraph]:
        return [support.structure for support in self.select_supports(database)]
