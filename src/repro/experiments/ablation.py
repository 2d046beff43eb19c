"""Ablations and secondary claims of the paper.

Beyond the five candidate-count figures, Section 5 and Section 7 make two
quantitative claims that this module reproduces:

* **Pruning cost vs. verification cost** — "The pruning process in PIS takes
  less than 1 second per query, which is negligible compared to the result
  verification cost."  :func:`timing_breakdown` measures the wall-clock
  split of PIS queries and the verification-only cost a topoPrune user would
  pay instead.
* **Greedy vs. EnhancedGreedy(2) vs. optimal** — "EnhancedGreedy(k) (k is
  set at 2) has comparable performance with Greedy() in real datasets."
  :func:`mwis_ablation` compares the partition weights (the MWIS objective)
  achieved by the three solvers on real query overlap graphs.
"""

from __future__ import annotations

from typing import Optional

from ..search.mwis import enhanced_greedy_mwis, exact_mwis, greedy_mwis
from ..search.overlap_graph import OverlapGraph
from .config import ExperimentConfig, paper_scaled_config
from .harness import build_environment
from .report import Table

__all__ = ["timing_breakdown", "mwis_ablation"]


def timing_breakdown(
    config: Optional[ExperimentConfig] = None,
    query_edges: int = 16,
    sigma: float = 2,
    num_queries: int = 6,
) -> Table:
    """E6: wall-clock split between PIS pruning and candidate verification."""
    environment = build_environment(config or paper_scaled_config())
    queries = environment.workload.sample_queries(query_edges, num_queries)
    pis = environment.pis()
    topo = environment.topo()

    table = Table(
        title=f"Pruning vs verification cost (Q{query_edges}, sigma={sigma:g})",
        columns=[
            "query",
            "PIS prune (s)",
            "PIS verify (s)",
            "PIS candidates",
            "topoPrune candidates",
        ],
        notes=[
            "verification dominates; PIS spends its pruning time to shrink the "
            "candidate set verification has to pay for",
        ],
    )
    for position, query in enumerate(queries):
        result = pis.search(query, sigma)
        yt = len(topo.candidates(query, sigma))
        table.add_row(
            [
                f"q{position}",
                round(result.prune_seconds, 4),
                round(result.verify_seconds, 4),
                result.num_candidates,
                yt,
            ]
        )
    return table


def mwis_ablation(
    config: Optional[ExperimentConfig] = None,
    query_edges: int = 16,
    sigma: float = 2,
    num_queries: int = 8,
    exact_node_limit: int = 28,
) -> Table:
    """E7: partition weight achieved by Greedy / EnhancedGreedy(2) / exact.

    The overlap graphs are taken from real queries: fragments and
    selectivities are computed exactly as PIS would, then each solver picks
    a partition and the achieved total selectivity (the MWIS objective) is
    reported.  The exact solver is skipped for overlap graphs larger than
    ``exact_node_limit`` nodes.
    """
    environment = build_environment(config or paper_scaled_config())
    queries = environment.workload.sample_queries(query_edges, num_queries)
    pis = environment.pis()

    table = Table(
        title=f"MWIS ablation on query overlap graphs (Q{query_edges}, sigma={sigma:g})",
        columns=[
            "query",
            "fragments",
            "greedy weight",
            "enhanced-greedy(2) weight",
            "exact weight",
            "greedy/exact",
        ],
        notes=["'-' in the exact columns means the overlap graph exceeded the exact solver's size limit"],
    )
    for position, query in enumerate(queries):
        outcome = pis.filter_candidates(query, sigma)
        eligible = [
            index
            for index in range(len(outcome.fragments))
            if outcome.selectivities[index] > pis.epsilon
        ]
        fragments = [outcome.fragments[index] for index in eligible]
        weights = [outcome.selectivities[index] for index in eligible]
        if not fragments:
            continue
        overlap = OverlapGraph.build(fragments, weights)
        greedy = greedy_mwis(overlap)
        enhanced = enhanced_greedy_mwis(overlap, k=2)
        if overlap.num_nodes <= exact_node_limit:
            exact = exact_mwis(overlap, max_nodes=exact_node_limit)
            exact_weight: Optional[float] = round(exact.weight, 3)
            ratio: Optional[float] = round(
                greedy.weight / exact.weight if exact.weight else 1.0, 3
            )
        else:
            exact_weight = None
            ratio = None
        table.add_row(
            [
                f"q{position}",
                overlap.num_nodes,
                round(greedy.weight, 3),
                round(enhanced.weight, 3),
                exact_weight if exact_weight is not None else "-",
                ratio if ratio is not None else "-",
            ]
        )
    return table

