"""Experiment configuration.

All experiment entry points (the tests, the ``run_all`` report generator,
the CLI) share one configuration object so the same environment — database,
feature set, index, query workload — is built identically everywhere.  Two
presets are provided:

* :func:`paper_scaled_config` — the default used by the experiment harness.
  The database is smaller than the paper's 10,000-graph sample (pure-Python
  subgraph isomorphism is orders of magnitude slower than the authors' C++),
  but all *relative* quantities (candidate-set ratios, bucket shapes) are
  preserved because the query sets and bucket boundaries scale with the
  database size.
* :func:`smoke_config` — a tiny configuration used by the integration tests
  so the full pipeline runs in seconds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

__all__ = ["ExperimentConfig", "paper_scaled_config", "smoke_config"]


@dataclass(frozen=True)
class ExperimentConfig:
    """Parameters controlling one experiment environment.

    Attributes
    ----------
    database_size:
        Number of synthetic molecules in the database.
    database_seed:
        Seed of the chemical generator.
    feature_max_edges / feature_min_edges:
        Edge-count range of the indexed structures.
    feature_min_support:
        Support threshold of the exhaustive feature selector (fraction of
        the sampled graphs).
    feature_sample_size:
        Number of graphs sampled during structure enumeration.
    max_features:
        Cap on the number of indexed structures.
    queries_per_set:
        Queries sampled per query set ``Q_m``.
    query_seed:
        Seed of the query workload sampler.
    bucket_fractions:
        Upper bounds (as fractions of the database size) of the Yt buckets.
        The paper's buckets (300 / 750 / 1.5k / 3k / 5k over 10k graphs)
        reflect the strength of a ~2000-feature gIndex structure filter; the
        defaults here are scaled to the structure-filter strength achievable
        with the smaller exhaustive feature set, so queries spread over the
        buckets the same way they do in the paper's figures.
    """

    database_size: int = 300
    database_seed: int = 7
    feature_max_edges: int = 5
    feature_min_edges: int = 1
    feature_min_support: float = 0.08
    feature_sample_size: int = 40
    max_features: Optional[int] = 250
    queries_per_set: int = 15
    query_seed: int = 42
    bucket_fractions: Tuple[float, ...] = (0.22, 0.30, 0.42, 0.60, 0.80)

    def bucket_labels(self) -> Tuple[str, ...]:
        """Human-readable bucket labels matching the paper's figure axes."""
        labels = []
        for fraction in self.bucket_fractions:
            bound = int(round(fraction * self.database_size))
            if not labels:
                labels.append(f"Q<{bound}")
            else:
                labels.append(f"Q{bound}")
        labels.append(f"Q>{int(round(self.bucket_fractions[-1] * self.database_size))}")
        return tuple(labels)

    def bucket_bounds(self) -> Tuple[int, ...]:
        """Absolute candidate-count upper bounds of the buckets."""
        return tuple(
            int(round(fraction * self.database_size))
            for fraction in self.bucket_fractions
        )


def paper_scaled_config(**overrides) -> ExperimentConfig:
    """Default configuration used by the experiment harness."""
    return ExperimentConfig(**overrides)


def smoke_config(**overrides) -> ExperimentConfig:
    """Small configuration for integration tests (runs in a few seconds)."""
    defaults = dict(
        database_size=40,
        database_seed=3,
        feature_max_edges=4,
        feature_min_support=0.1,
        feature_sample_size=15,
        max_features=60,
        queries_per_set=4,
        query_seed=11,
    )
    defaults.update(overrides)
    return ExperimentConfig(**defaults)
