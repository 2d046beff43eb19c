"""Smoke and shape tests for the experiment harness (Figures 8-12, ablations)."""

import pytest

from repro.experiments import (
    ExperimentConfig,
    Table,
    bucketize,
    build_environment,
    candidate_series,
    clear_environment_cache,
    collect_query_records,
    dataset_statistics,
    example1_table,
    figure8,
    figure9,
    figure10,
    figure11,
    figure12,
    mwis_ablation,
    reduction_series,
    smoke_config,
    table_from_series,
    timing_breakdown,
)
from repro.experiments.harness import QueryRecord


@pytest.fixture(scope="module")
def config():
    return smoke_config(database_size=30, queries_per_set=4, feature_max_edges=4)


@pytest.fixture(scope="module")
def environment(config):
    return build_environment(config)


def column_mean(table, column):
    values = [value for value in table.column_series(column) if value is not None]
    return sum(values) / len(values)


class TestTable:
    def test_add_row_validates_width(self):
        table = Table(title="t", columns=["a", "b"])
        with pytest.raises(ValueError):
            table.add_row([1])
        table.add_row([1, 2])
        assert "t" in table.to_text()
        assert "| a | b |" in table.to_markdown()

    def test_table_from_series_and_column_access(self):
        series = {"r1": {"x": 1.0, "y": 2.0}, "r2": {"x": 3.0}}
        table = table_from_series("demo", series, row_order=["r1", "r2"])
        assert table.columns == ["query subset", "x", "y"]
        assert table.column_series("x") == [1.0, 3.0]
        assert table.column_series("y") == [2.0, None]
        assert "-" in table.to_text()


class TestHarness:
    def test_environment_is_cached(self, config, environment):
        assert build_environment(config) is environment
        assert len(environment.database) == 30
        assert environment.index.num_classes > 0

    def test_records_and_bucketing(self, config, environment):
        records = collect_query_records(environment, query_edges=8, sigmas=(1, 2))
        assert len(records) == config.queries_per_set
        for record in records:
            assert 0 <= record.yp[1] <= record.yp[2] <= record.yt <= 30
            assert record.reduction(1) >= record.reduction(2) >= 1.0 or record.yt == 0
        buckets = bucketize(records, config)
        assert sum(len(bucket) for bucket in buckets.values()) == len(records)
        assert list(buckets) == list(config.bucket_labels())

    def test_record_cache_reuse(self, config, environment):
        first = collect_query_records(environment, query_edges=8, sigmas=(1, 2))
        second = collect_query_records(environment, query_edges=8, sigmas=(1, 2))
        assert first is second

    def test_series_extraction(self, config, environment):
        records = [
            QueryRecord(query_index=0, num_edges=8, yt=10, yp={1: 2}),
            QueryRecord(query_index=1, num_edges=8, yt=25, yp={1: 25}),
        ]
        buckets = bucketize(records, config)
        candidates = candidate_series(buckets, [1])
        reductions = reduction_series(buckets, [1])
        non_empty = [label for label, bucket in buckets.items() if bucket]
        for label in non_empty:
            assert candidates[label]["topoPrune"] is not None
            assert reductions[label]["PIS sigma=1"] >= 1.0


class TestFigures:
    def test_figure8_shape(self, config):
        table = figure8(config, query_edges=8, sigmas=(1, 2, 4))
        assert "topoPrune" in table.columns
        assert "PIS sigma=1" in table.columns
        # For every non-empty bucket PIS must not exceed topoPrune, and a
        # tighter sigma must not give more candidates.
        for row in table.rows:
            values = dict(zip(table.columns, row))
            if values["topoPrune"] is None:
                continue
            assert values["PIS sigma=1"] <= values["PIS sigma=2"] + 1e-9
            assert values["PIS sigma=2"] <= values["PIS sigma=4"] + 1e-9
            assert values["PIS sigma=4"] <= values["topoPrune"] + 1e-9

    def test_figure9_ratios_at_least_one(self, config):
        table = figure9(config, query_edges=8, sigmas=(1, 2))
        for row in table.rows:
            for value in row[1:]:
                if value is not None:
                    assert value >= 1.0 - 1e-9
        # the tighter threshold prunes at least as well on average
        assert column_mean(table, "PIS sigma=1") >= column_mean(
            table, "PIS sigma=2"
        ) - 1e-9

    def test_figure10_ratios_and_threshold_order(self, config):
        table = figure10(config, query_edges=24, sigmas=(1, 3, 5))
        for row in table.rows:
            for value in row[1:]:
                if value is not None:
                    assert value >= 1.0 - 1e-9
        assert column_mean(table, "PIS sigma=1") >= column_mean(
            table, "PIS sigma=5"
        ) - 1e-9

    def test_figure11_lambda_one_and_above_agree(self, config):
        # The paper reports that pruning is insensitive to the cutoff for
        # lambda >= 1; greedy tie-breaking can still move individual queries
        # slightly, so the series must agree closely but not bit-for-bit.
        table = figure11(config, query_edges=8, sigma=1, lambdas=(0.5, 1.0, 2.0))
        ones = table.column_series("PIS lambda=1")
        twos = table.column_series("PIS lambda=2")
        for a, b in zip(ones, twos):
            if a is not None and b is not None:
                assert a >= 1.0 - 1e-9 and b >= 1.0 - 1e-9
                assert abs(a - b) / max(a, b) < 0.2
        # and a cutoff below 1 prunes no better than lambda = 1
        assert column_mean(table, "PIS lambda=0.5") <= column_mean(
            table, "PIS lambda=1"
        ) + 1e-9

    def test_figure12_larger_fragments_prune_no_worse(self, config):
        table = figure12(config, query_edges=8, sigma=1, fragment_sizes=(3, 5))
        smallest = column_mean(table, "PIS size=3")
        assert smallest >= 1.0 - 1e-9
        assert column_mean(table, "PIS size=5") >= smallest - 0.15


class TestReports:
    def test_dataset_statistics(self, config):
        table = dataset_statistics(config)
        text = table.to_text()
        assert "avg vertices" in text
        assert "this reproduction" in table.columns[2]

    def test_example1_table(self):
        table = example1_table()
        returned = dict((row[0], row[2]) for row in table.rows)
        assert returned["1H-indene"] == "yes"
        assert returned["omephine"] == "no"
        assert returned["digitoxigenin"] == "yes"

    def test_timing_breakdown(self, config):
        table = timing_breakdown(config, query_edges=8, sigma=1, num_queries=2)
        assert len(table.rows) == 2
        for row in table.rows:
            values = dict(zip(table.columns, row))
            assert values["PIS candidates"] <= values["topoPrune candidates"]

    def test_mwis_ablation(self, config):
        for query_edges in (8, 16):
            table = mwis_ablation(
                config, query_edges=query_edges, sigma=1, num_queries=2
            )
            for row in table.rows:
                values = dict(zip(table.columns, row))
                # EnhancedGreedy(2) is never worse than Greedy (the paper's
                # observation), and Greedy never beats the exact optimum.
                assert (
                    values["enhanced-greedy(2) weight"]
                    >= values["greedy weight"] - 1e-6
                )
                if values["exact weight"] != "-":
                    assert values["greedy weight"] <= values["exact weight"] + 1e-6
