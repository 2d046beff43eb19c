"""Experiment harness: regenerates every table and figure of the paper."""

from .ablation import mwis_ablation, timing_breakdown
from .config import ExperimentConfig, paper_scaled_config, smoke_config
from .dataset_stats import dataset_statistics
from .example1 import example1_table
from .figures import FIGURE_DEFAULT_SIGMAS, figure8, figure9, figure10, figure11, figure12
from .harness import (
    Environment,
    QueryRecord,
    bucketize,
    build_environment,
    candidate_series,
    clear_environment_cache,
    collect_query_records,
    reduction_series,
    select_features,
)
from .report import Table, table_from_series
from .run_all import generate_report

__all__ = [
    "ExperimentConfig",
    "paper_scaled_config",
    "smoke_config",
    "Environment",
    "QueryRecord",
    "build_environment",
    "clear_environment_cache",
    "select_features",
    "collect_query_records",
    "bucketize",
    "candidate_series",
    "reduction_series",
    "Table",
    "table_from_series",
    "figure8",
    "figure9",
    "figure10",
    "figure11",
    "figure12",
    "FIGURE_DEFAULT_SIGMAS",
    "dataset_statistics",
    "example1_table",
    "timing_breakdown",
    "mwis_ablation",
    "generate_report",
]
