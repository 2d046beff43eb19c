"""Regeneration of every figure in the paper's evaluation (Section 7).

Each ``figureN`` function runs the corresponding experiment and returns a
:class:`~repro.experiments.report.Table` whose rows/series mirror the
figure's axes:

* **Figure 8** — average number of candidate graphs per Yt bucket for
  topoPrune and PIS with sigma ∈ {1, 2, 4}, query set Q16.
* **Figure 9** — average reduction ratio ``Y_t / Y_p`` per bucket, Q16.
* **Figure 10** — reduction ratio for Q24 with sigma ∈ {1, 3, 5}.
* **Figure 11** — cutoff sensitivity: reduction ratio for Q16, sigma = 2,
  with cutoff factor lambda ∈ {0.5, 1, 2}.
* **Figure 12** — reduction ratio for Q16 with maximum indexed fragment
  size ∈ {4, 5, 6} edges.

Database and query-set sizes are configurable; the default
:func:`~repro.experiments.config.paper_scaled_config` keeps runtimes
laptop-friendly while preserving the relative shapes the paper reports.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List, Optional, Sequence

from ..index.fragment_index import FragmentIndex
from ..mining.exhaustive import ExhaustiveFeatureSelector
from .config import ExperimentConfig, paper_scaled_config
from .harness import (
    Environment,
    build_environment,
    bucketize,
    candidate_series,
    collect_query_records,
    reduction_series,
)
from .report import Table, table_from_series

__all__ = [
    "figure8",
    "figure9",
    "figure10",
    "figure11",
    "figure12",
    "FIGURE_DEFAULT_SIGMAS",
]

#: thresholds used by each figure in the paper
FIGURE_DEFAULT_SIGMAS: Dict[str, Sequence[float]] = {
    "figure8": (1, 2, 4),
    "figure9": (1, 2, 4),
    "figure10": (1, 3, 5),
    "figure11": (2,),
    "figure12": (2,),
}


def _environment(config: Optional[ExperimentConfig]) -> Environment:
    return build_environment(config or paper_scaled_config())


def figure8(
    config: Optional[ExperimentConfig] = None,
    query_edges: int = 16,
    sigmas: Sequence[float] = FIGURE_DEFAULT_SIGMAS["figure8"],
) -> Table:
    """Figure 8: candidate counts of topoPrune vs PIS on Q16."""
    environment = _environment(config)
    records = collect_query_records(environment, query_edges, sigmas)
    buckets = bucketize(records, environment.config)
    series = candidate_series(buckets, sigmas)
    table = table_from_series(
        f"Figure 8 — structure query with {query_edges} edges "
        f"(avg # candidate graphs, n={len(environment.database)})",
        series,
        row_order=environment.config.bucket_labels(),
        notes=[
            "buckets are defined by the topoPrune candidate count Y_t, as in the paper",
            f"{len(records)} queries sampled from the database",
        ],
    )
    return table


def figure9(
    config: Optional[ExperimentConfig] = None,
    query_edges: int = 16,
    sigmas: Sequence[float] = FIGURE_DEFAULT_SIGMAS["figure9"],
) -> Table:
    """Figure 9: reduction ratio Y_t / Y_p of PIS over topoPrune on Q16."""
    environment = _environment(config)
    records = collect_query_records(environment, query_edges, sigmas)
    buckets = bucketize(records, environment.config)
    series = reduction_series(buckets, sigmas)
    return table_from_series(
        f"Figure 9 — reduction ratio (PIS over topoPrune), Q{query_edges}",
        series,
        row_order=environment.config.bucket_labels(),
        notes=["reduction ratio = Y_t / Y_p, averaged per bucket"],
    )


def figure10(
    config: Optional[ExperimentConfig] = None,
    query_edges: int = 24,
    sigmas: Sequence[float] = FIGURE_DEFAULT_SIGMAS["figure10"],
) -> Table:
    """Figure 10: reduction ratio for the larger query set Q24."""
    return table_with_title_update(
        figure9(config=config, query_edges=query_edges, sigmas=sigmas),
        f"Figure 10 — reduction ratio (PIS over topoPrune), Q{query_edges}",
    )


def figure11(
    config: Optional[ExperimentConfig] = None,
    query_edges: int = 16,
    sigma: float = 2,
    lambdas: Sequence[float] = (0.5, 1.0, 2.0),
) -> Table:
    """Figure 11: sensitivity of the selectivity cutoff ``lambda * sigma``."""
    environment = _environment(config)
    series: Dict[str, Dict[str, Optional[float]]] = {}
    for cutoff_lambda in lambdas:
        records = collect_query_records(
            environment, query_edges, [sigma], cutoff_lambda=cutoff_lambda
        )
        buckets = bucketize(records, environment.config)
        partial = reduction_series(buckets, [sigma])
        for label, row in partial.items():
            series.setdefault(label, {})[f"PIS lambda={cutoff_lambda:g}"] = row[
                f"PIS sigma={sigma:g}"
            ]
    return table_from_series(
        f"Figure 11 — cutoff value sensitivity (Q{query_edges}, sigma={sigma:g})",
        series,
        row_order=environment.config.bucket_labels(),
        notes=["cutoff of d(g, G) set to lambda * sigma in the selectivity estimate"],
    )


def figure12(
    config: Optional[ExperimentConfig] = None,
    query_edges: int = 16,
    sigma: float = 2,
    fragment_sizes: Sequence[int] = (4, 5, 6),
) -> Table:
    """Figure 12: pruning performance vs maximum indexed fragment size."""
    base_config = config or paper_scaled_config()
    # The environment (database, workload, bucket boundaries) is shared; only
    # the index changes with the maximum fragment size.
    environment = build_environment(base_config)
    series: Dict[str, Dict[str, Optional[float]]] = {}
    for size in fragment_sizes:
        selector = ExhaustiveFeatureSelector(
            min_edges=base_config.feature_min_edges,
            max_edges=size,
            min_support=base_config.feature_min_support,
            max_features=base_config.max_features,
            sample_size=base_config.feature_sample_size,
            seed=base_config.database_seed,
        )
        features = selector.select(environment.database)
        index = FragmentIndex(features, environment.measure).build(
            environment.database
        )
        records = collect_query_records(
            environment, query_edges, [sigma], index=index
        )
        buckets = bucketize(records, environment.config)
        partial = reduction_series(buckets, [sigma])
        for label, row in partial.items():
            series.setdefault(label, {})[f"PIS size={size}"] = row[
                f"PIS sigma={sigma:g}"
            ]
    return table_from_series(
        f"Figure 12 — performance vs fragment size (Q{query_edges}, sigma={sigma:g})",
        series,
        row_order=environment.config.bucket_labels(),
        notes=["one index per maximum fragment size; same database and queries"],
    )


def table_with_title_update(table: Table, title: str) -> Table:
    """Return the same table under a different title."""
    table.title = title
    return table
