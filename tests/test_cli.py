"""End-to-end tests of the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main


@pytest.fixture
def generated_db(tmp_path):
    path = tmp_path / "db.json"
    assert main(["generate", "--count", "15", "--seed", "3", "--output", str(path)]) == 0
    return path


@pytest.fixture
def built_index(tmp_path, generated_db):
    path = tmp_path / "index.json"
    code = main(
        [
            "index",
            "--database",
            str(generated_db),
            "--max-edges",
            "3",
            "--output",
            str(path),
        ]
    )
    assert code == 0
    return path


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_known_subcommands(self):
        parser = build_parser()
        for command in ("generate", "index", "query", "stats", "experiments"):
            arguments = parser.parse_args(
                [command] + {
                    "generate": ["--output", "x.json"],
                    "index": ["--database", "d.json", "--output", "i.json"],
                    "query": ["--database", "d.json", "--index", "i.json"],
                    "stats": [],
                    "experiments": [],
                }[command]
            )
            assert arguments.command == command


class TestCommands:
    def test_generate_writes_database(self, generated_db):
        data = json.loads(generated_db.read_text())
        assert len(data["graphs"]) == 15
        assert all(graph["edges"] for graph in data["graphs"])

    def test_index_writes_index(self, built_index):
        data = json.loads(built_index.read_text())
        assert data["format"] == "pis-fragment-index"
        assert data["classes"]
        assert data["measure"]["name"] == "mutation"

    def test_query_runs_and_agrees_with_naive(self, generated_db, built_index, capsys):
        code = main(
            [
                "query",
                "--database",
                str(generated_db),
                "--index",
                str(built_index),
                "--edges",
                "6",
                "--count",
                "2",
                "--sigma",
                "1",
                "--compare-naive",
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert output.count("naive-agrees=True") == 2

    def test_compare_naive_checks_the_engine_kernel(
        self, generated_db, built_index, capsys, monkeypatch
    ):
        """The oracle verifies on its own path, so a fault in the array
        kernel the engine verifies with shows up as a disagreement."""
        import dataclasses

        from repro.core import kernel

        original = kernel.kernel_best_superposition

        def inflated(*args, **kwargs):
            result = original(*args, **kwargs)
            return dataclasses.replace(result, distance=result.distance + 0.5)

        monkeypatch.setattr(kernel, "kernel_best_superposition", inflated)
        code = main(
            [
                "query",
                "--database",
                str(generated_db),
                "--index",
                str(built_index),
                "--edges",
                "6",
                "--count",
                "2",
                "--sigma",
                "1",
                "--compare-naive",
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert output.count("naive-agrees=False") == 2

    def test_stats_reports_both(self, generated_db, built_index, capsys):
        assert (
            main(["stats", "--database", str(generated_db), "--index", str(built_index)])
            == 0
        )
        output = capsys.readouterr().out
        assert "num_graphs" in output and "num_classes" in output

    def test_stats_without_arguments_fails(self, capsys):
        assert main(["stats"]) == 2

    def test_stats_engine_reports_perf_counters(self, tmp_path, generated_db, capsys):
        engine_path = tmp_path / "engine.json"
        assert (
            main(
                [
                    "index",
                    "--database",
                    str(generated_db),
                    "--max-edges",
                    "3",
                    "--engine-output",
                    str(engine_path),
                ]
            )
            == 0
        )
        capsys.readouterr()
        assert (
            main(
                [
                    "stats",
                    "--database",
                    str(generated_db),
                    "--engine",
                    str(engine_path),
                ]
            )
            == 0
        )
        output = capsys.readouterr().out
        # The profile section must carry real counter lines from the probe
        # query the stats command runs against the loaded engine.
        assert '"counters"' in output
        assert "filter.calls" in output
        assert '"caches"' in output

    def test_index_parallel_workers_matches_serial(self, tmp_path, generated_db):
        serial = tmp_path / "serial.json"
        parallel = tmp_path / "parallel.json"
        for path, workers in ((serial, []), (parallel, ["--workers", "2"])):
            assert (
                main(
                    [
                        "index",
                        "--database",
                        str(generated_db),
                        "--max-edges",
                        "3",
                        "--output",
                        str(path),
                    ]
                    + workers
                )
                == 0
            )
        assert json.loads(serial.read_text()) == json.loads(parallel.read_text())

    def test_query_rejects_index_engine_ambiguity(self, generated_db, built_index):
        assert main(["query", "--database", str(generated_db)]) == 2
        assert (
            main(
                [
                    "query",
                    "--database",
                    str(generated_db),
                    "--index",
                    str(built_index),
                    "--engine",
                    str(built_index),
                ]
            )
            == 2
        )

    def test_query_rejects_engine_with_config(self, tmp_path, generated_db, built_index):
        config = tmp_path / "config.json"
        config.write_text("{}")
        assert (
            main(
                [
                    "query",
                    "--database",
                    str(generated_db),
                    "--engine",
                    str(built_index),
                    "--config",
                    str(config),
                ]
            )
            == 2
        )
