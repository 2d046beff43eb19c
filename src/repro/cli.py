"""Command-line interface for the PIS library.

Subcommands
-----------
``generate``
    Generate a synthetic chemical-like database and write it to JSON.
``index``
    Build an engine (feature selection + fragment index) over a database
    file, from CLI flags or a declarative ``--config`` JSON file, and save
    the index and/or the whole engine to JSON.  ``--shards N`` partitions
    the database across N per-shard indexes (built in parallel processes
    with ``--workers``); a sharded index saves as a manifest plus one
    payload file per shard.
``query``
    Answer SSSD queries against a database + index (or saved engine),
    comparing PIS with the baselines; ``--workers`` batches the queries
    over a worker pool, and ``--compare-naive`` checks every answer and
    distance against the oracle (the naive scan over the recursive
    reference search).
``explain``
    Search sampled queries without mutating anything and print each
    query's plan — chosen partition, per-fragment selectivities, and
    estimated vs. actual candidate counts.
``update``
    Incrementally add and/or remove graphs in a saved engine — no rebuild:
    the fragment index and its posting lists are updated in place and both
    the engine and the (mutated) database are written back out (atomically,
    via write-temp + fsync + rename).  ``--wal`` additionally fsyncs every
    batch to a write-ahead log at ``<engine>.wal`` *before* mutating, so a
    crash mid-update never loses a committed batch.
``recover``
    Replay the write-ahead log left by a crashed ``pis update --wal``: the
    engine and database are brought forward to the last committed batch,
    checkpointed, and the log is pruned.  Recovery is idempotent — running
    it twice (or after a clean update) is a no-op.
``stats``
    Print database / index statistics.
``serve``
    Run the always-on query server (:mod:`repro.serve`): a TCP JSON-lines
    front door that micro-batches concurrent queries over the engine's
    resident worker pools and answers repeated queries from the
    generation-keyed result cache.  ``--port 0`` binds an ephemeral port;
    ``--port-file`` publishes the bound address for clients and CI.
    ``--warm queries.json`` fills the index's query-fragment and
    range-query memos before the server accepts its first connection;
    they stay warm until the first write.
``bench-serve``
    Drive a running server with N concurrent clients and report sustained
    throughput; ``--engine`` cross-checks every response against a direct
    (uncached) search and prints ``answers-identical=True/False``.
``experiments``
    Regenerate the EXPERIMENTS.md report (same as
    ``python -m repro.experiments.run_all``).

Example session::

    pis generate --count 200 --output db.json
    pis index --database db.json --max-edges 5 --shards 4 --workers 4 \\
        --engine-output engine.json
    pis query --database db.json --engine engine.json --sigma 2 \\
        --executor process
    pis generate --count 20 --seed 9 --output delta.json
    pis update --database db.json --engine engine.json \\
        --add delta.json --remove 3,17 \\
        --database-output db.json --engine-output engine.json
    pis serve --database db.json --engine engine.json \\
        --port 0 --port-file server.addr &
    pis bench-serve --database db.json --engine engine.json \\
        --port-file server.addr --clients 4 --rounds 3

or, with a declarative engine config::

    echo '{"selector": "exhaustive", "selector_params": {"max_edges": 5},
           "strategy": "pis"}' > config.json
    pis index --database db.json --config config.json --engine-output engine.json
"""

from __future__ import annotations

import argparse
import asyncio
import json
import signal
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import List, Optional, Tuple

from .core.database import GraphDatabase
from .core.errors import EngineConfigError, PISError
from .datasets.generator import generate_chemical_database
from .datasets.queries import QueryWorkload
from .engine import Engine, EngineConfig
from .index.persistence import load_index, save_index
from .search.baselines import NaiveSearch
from .serve import QueryServer, ServeClient

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser for the ``pis`` command."""
    parser = argparse.ArgumentParser(
        prog="pis",
        description="Partition-based graph index and search (ICDE 2006 reproduction)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    generate = subparsers.add_parser("generate", help="generate a synthetic database")
    generate.add_argument("--count", type=int, default=200, help="number of graphs")
    generate.add_argument("--seed", type=int, default=7, help="generator seed")
    generate.add_argument("--output", type=Path, required=True, help="output JSON path")

    index = subparsers.add_parser("index", help="build an engine / fragment index")
    index.add_argument("--database", type=Path, required=True, help="database JSON path")
    index.add_argument(
        "--config",
        type=Path,
        help="engine config JSON; cannot be combined with the individual "
        "selector flags below",
    )
    index.add_argument(
        "--max-edges", type=int, help="max fragment size (default 4)"
    )
    index.add_argument(
        "--min-support", type=float, help="feature support (default 0.08)"
    )
    index.add_argument(
        "--max-features", type=int, help="feature cap (default 250)"
    )
    index.add_argument(
        "--workers",
        type=int,
        default=0,
        help="worker processes for the parallel build (0 = serial): fragment "
        "enumeration on an unsharded engine, whole shards with --shards",
    )
    index.add_argument(
        "--shards",
        type=int,
        default=None,
        help="partition the database across N shards (overrides the config; "
        "default: the config's shards, i.e. 1)",
    )
    index.add_argument(
        "--executor",
        choices=("serial", "thread", "process"),
        default=None,
        help="executor for the engine's shard scatter-gather "
        "(overrides the config; default thread)",
    )
    index.add_argument("--output", type=Path, help="index-only output JSON path")
    index.add_argument(
        "--engine-output",
        type=Path,
        help="whole-engine output JSON path (config + index)",
    )

    query = subparsers.add_parser("query", help="run SSSD queries")
    query.add_argument("--database", type=Path, required=True, help="database JSON path")
    query.add_argument("--index", type=Path, help="index JSON path")
    query.add_argument(
        "--engine", type=Path, help="saved engine JSON path (alternative to --index)"
    )
    query.add_argument(
        "--config",
        type=Path,
        help="engine config JSON (strategy + params) used with --index",
    )
    query.add_argument("--edges", type=int, default=12, help="query size (edges)")
    query.add_argument("--count", type=int, default=3, help="number of queries")
    query.add_argument("--sigma", type=float, default=2.0, help="distance threshold")
    query.add_argument("--seed", type=int, default=42, help="query sampling seed")
    query.add_argument(
        "--workers",
        type=int,
        default=0,
        help="worker-pool size for batched query execution (0 = sequential)",
    )
    query.add_argument(
        "--executor",
        choices=("serial", "thread", "process"),
        default=None,
        help="worker pool kind; 'process' sidesteps the GIL for CPU-bound "
        "verification at the cost of pickling work into each worker "
        "(default: thread, or the engine config's executor when sharded)",
    )
    query.add_argument(
        "--compare-naive",
        action="store_true",
        help="also run the oracle — the naive scan over the reference "
        "search (slow) — and check answers and distances",
    )

    explain = subparsers.add_parser(
        "explain",
        help="plan sampled queries and print partition/selectivity details",
    )
    explain.add_argument(
        "--database", type=Path, required=True, help="database JSON path"
    )
    explain.add_argument("--index", type=Path, help="index JSON path")
    explain.add_argument(
        "--engine", type=Path, help="saved engine JSON path (alternative to --index)"
    )
    explain.add_argument(
        "--config",
        type=Path,
        help="engine config JSON (strategy + params) used with --index",
    )
    explain.add_argument("--edges", type=int, default=12, help="query size (edges)")
    explain.add_argument("--count", type=int, default=3, help="number of queries")
    explain.add_argument("--sigma", type=float, default=2.0, help="distance threshold")
    explain.add_argument("--seed", type=int, default=42, help="query sampling seed")

    update = subparsers.add_parser(
        "update", help="incrementally add/remove graphs in a saved engine"
    )
    update.add_argument(
        "--database", type=Path, required=True, help="database JSON path"
    )
    update.add_argument(
        "--engine", type=Path, required=True, help="saved engine JSON path"
    )
    update.add_argument(
        "--add",
        type=Path,
        help="database JSON whose graphs are appended and indexed",
    )
    update.add_argument(
        "--remove",
        help="comma-separated graph ids to remove (e.g. 3,17,42)",
    )
    update.add_argument(
        "--reuse-ids",
        action="store_true",
        help="assign added graphs to retired (removed) ids before fresh ones",
    )
    update.add_argument(
        "--database-output",
        type=Path,
        help="where to write the mutated database (default: --database)",
    )
    update.add_argument(
        "--engine-output",
        type=Path,
        help="where to write the updated engine (default: --engine)",
    )
    update.add_argument(
        "--wal",
        action="store_true",
        help="durable mode: fsync each batch to the write-ahead log at "
        "<engine>.wal before mutating, then checkpoint the outputs — a "
        "crash at any point is repairable with 'pis recover'",
    )

    recover = subparsers.add_parser(
        "recover",
        help="replay a write-ahead log after a crashed 'pis update --wal'",
    )
    recover.add_argument(
        "--database", type=Path, required=True, help="database JSON path"
    )
    recover.add_argument(
        "--engine",
        type=Path,
        required=True,
        help="saved engine JSON path (its log is at <engine>.wal)",
    )
    recover.add_argument(
        "--database-output",
        type=Path,
        help="where to write the recovered database (default: --database)",
    )
    recover.add_argument(
        "--engine-output",
        type=Path,
        help="where to write the recovered engine (default: --engine)",
    )

    stats = subparsers.add_parser("stats", help="print database / index statistics")
    stats.add_argument("--database", type=Path, help="database JSON path")
    stats.add_argument("--index", type=Path, help="index JSON path")
    stats.add_argument("--engine", type=Path, help="engine JSON path")

    serve = subparsers.add_parser(
        "serve", help="run the always-on query server (TCP JSON lines)"
    )
    serve.add_argument(
        "--database", type=Path, required=True, help="database JSON path"
    )
    serve.add_argument(
        "--engine",
        type=Path,
        help="saved engine JSON path (default: build a default engine "
        "over the database at startup)",
    )
    serve.add_argument("--host", default="127.0.0.1", help="bind address")
    serve.add_argument(
        "--port",
        type=int,
        default=9999,
        help="bind port (0 picks an ephemeral port; see --port-file)",
    )
    serve.add_argument(
        "--port-file",
        type=Path,
        help="write the bound 'host port' here once listening — the "
        "readiness signal for clients started concurrently",
    )
    serve.add_argument(
        "--batch-window-ms",
        type=float,
        default=None,
        help="micro-batching window (default: the engine config's "
        "serve_batch_window_ms)",
    )
    serve.add_argument(
        "--max-batch",
        type=int,
        default=None,
        help="batch size cap (default: the engine config's serve_max_batch)",
    )
    serve.add_argument(
        "--result-cache-size",
        type=int,
        default=None,
        help="query-result cache capacity; 0 disables the cache "
        "(default: the engine config's result_cache_size)",
    )
    serve.add_argument(
        "--max-queue",
        type=int,
        default=None,
        help="submission-queue bound before requests are shed as "
        "'overloaded'; 0 disables shedding (default: the engine "
        "config's serve_max_queue)",
    )
    serve.add_argument(
        "--max-inflight",
        type=int,
        default=None,
        help="per-connection pipelining cap; 0 means unlimited "
        "(default: the engine config's serve_max_inflight_per_conn)",
    )
    serve.add_argument(
        "--max-request-bytes",
        type=int,
        default=None,
        help="largest accepted request line; longer lines are discarded "
        "and answered with a 'too_large' error (default: the engine "
        "config's serve_max_request_bytes)",
    )
    serve.add_argument(
        "--warm",
        type=Path,
        help="JSON file of representative queries whose fragments and range "
        "queries fill the index's memos before serving (they stay warm "
        'until the first write): either {"sigmas": [...], "queries": '
        "[graph dicts]} or a bare list of graph dicts (fragment memo only)",
    )

    bench_serve = subparsers.add_parser(
        "bench-serve", help="drive a running query server with concurrent clients"
    )
    bench_serve.add_argument(
        "--database", type=Path, required=True, help="database JSON path"
    )
    bench_serve.add_argument(
        "--engine",
        type=Path,
        help="saved engine JSON; when given, every response is cross-checked "
        "against a direct search and answers-identical is reported",
    )
    bench_serve.add_argument("--host", default="127.0.0.1", help="server address")
    bench_serve.add_argument("--port", type=int, default=9999, help="server port")
    bench_serve.add_argument(
        "--port-file",
        type=Path,
        help="read the server address from a file written by "
        "'pis serve --port-file' (overrides --host/--port)",
    )
    bench_serve.add_argument(
        "--edges", type=int, default=12, help="query size (edges)"
    )
    bench_serve.add_argument(
        "--count", type=int, default=8, help="number of distinct queries"
    )
    bench_serve.add_argument(
        "--sigma", type=float, default=2.0, help="distance threshold"
    )
    bench_serve.add_argument(
        "--seed", type=int, default=42, help="query sampling seed"
    )
    bench_serve.add_argument(
        "--clients", type=int, default=4, help="concurrent client connections"
    )
    bench_serve.add_argument(
        "--rounds",
        type=int,
        default=3,
        help="times each client replays its queries (round 2+ hits the "
        "result cache)",
    )
    bench_serve.add_argument(
        "--connect-timeout",
        type=float,
        default=15.0,
        help="how long to wait for the server to accept connections",
    )
    bench_serve.add_argument(
        "--retries",
        type=int,
        default=8,
        help="bounded exponential-backoff retries per request when the "
        "server sheds it as overloaded",
    )

    experiments = subparsers.add_parser(
        "experiments", help="regenerate the EXPERIMENTS.md report"
    )
    experiments.add_argument("--quick", action="store_true", help="reduced configuration")
    experiments.add_argument(
        "--output", type=Path, default=Path("EXPERIMENTS.md"), help="report path"
    )
    return parser


def _load_config(path: Optional[Path]) -> Optional[EngineConfig]:
    """Load an :class:`EngineConfig` from a JSON file (None passes through)."""
    if path is None:
        return None
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise EngineConfigError(
            f"cannot load engine config from {path}: {exc}"
        ) from exc
    return EngineConfig.from_dict(data)


def _command_generate(arguments: argparse.Namespace) -> int:
    database = generate_chemical_database(arguments.count, seed=arguments.seed)
    database.save(arguments.output)
    print(f"wrote {len(database)} graphs to {arguments.output}")
    print(json.dumps(database.stats().as_dict(), indent=2))
    return 0


def _command_index(arguments: argparse.Namespace) -> int:
    if arguments.output is None and arguments.engine_output is None:
        print("nothing to write: pass --output and/or --engine-output", file=sys.stderr)
        return 2
    explicit_flags = [
        flag
        for flag, value in (
            ("--max-edges", arguments.max_edges),
            ("--min-support", arguments.min_support),
            ("--max-features", arguments.max_features),
        )
        if value is not None
    ]
    if arguments.config is not None and explicit_flags:
        # A config file and individual flags would silently shadow each
        # other; make the user pick one source of truth.
        print(
            f"cannot combine --config with {', '.join(explicit_flags)}",
            file=sys.stderr,
        )
        return 2
    database = GraphDatabase.load(arguments.database)
    config = _load_config(arguments.config)
    if config is None:
        config = EngineConfig(
            selector="exhaustive",
            selector_params={
                "max_edges": arguments.max_edges if arguments.max_edges is not None else 4,
                "min_support": (
                    arguments.min_support if arguments.min_support is not None else 0.08
                ),
                "max_features": (
                    arguments.max_features if arguments.max_features is not None else 250
                ),
                "sample_size": min(50, len(database)),
            },
        )
    if arguments.executor is not None:
        config = config.replace(executor=arguments.executor)
    engine = Engine.build(
        database, config, workers=arguments.workers, shards=arguments.shards
    )
    if arguments.output is not None:
        save_index(engine.index, arguments.output)
    if arguments.engine_output is not None:
        engine.save(arguments.engine_output)
    sharding = (
        f" across {engine.index.num_shards} shards" if engine.is_sharded else ""
    )
    print(
        f"indexed {len(database)} graphs with {engine.index.num_classes} "
        f"structure classes{sharding}"
    )
    print(json.dumps(engine.index.stats().as_dict(), indent=2))
    return 0


def _command_query(arguments: argparse.Namespace) -> int:
    if (arguments.index is None) == (arguments.engine is None):
        print("pass exactly one of --index or --engine", file=sys.stderr)
        return 2
    if arguments.engine is not None and arguments.config is not None:
        # A saved engine carries its own config; a second one would be
        # silently ignored, so reject the combination loudly.
        print("cannot combine --engine with --config", file=sys.stderr)
        return 2
    database = GraphDatabase.load(arguments.database)
    if arguments.engine is not None:
        engine = Engine.load(arguments.engine, database)
    else:
        index = load_index(arguments.index)
        engine = Engine.from_index(
            database, index, config=_load_config(arguments.config)
        )
    workload = QueryWorkload(database, seed=arguments.seed)
    queries = workload.sample_queries(arguments.edges, arguments.count)

    batch = engine.search_many(
        queries,
        arguments.sigma,
        workers=arguments.workers,
        executor=arguments.executor,
    )
    topo = engine.make_strategy("topoPrune")
    # The oracle verifies on its own path — the recursive reference search,
    # no bounds or caches — so a fault in the engine's kernel shows up here.
    naive = (
        NaiveSearch(engine.database, engine.measure)
        if arguments.compare_naive
        else None
    )

    for position, (query, result) in enumerate(zip(queries, batch)):
        yt = len(topo.candidates(query, arguments.sigma))
        line = (
            f"query {position}: answers={result.num_answers} "
            f"PIS candidates={result.num_candidates} topoPrune candidates={yt} "
            f"prune={result.prune_seconds:.3f}s verify={result.verify_seconds:.3f}s"
        )
        if naive is not None:
            naive_result = naive.search(query, arguments.sigma)
            agreement = naive_result.answer_distances == result.answer_distances
            line += f" naive-agrees={agreement}"
        print(line)
    print(
        f"batch: {batch.num_queries} queries in {batch.wall_seconds:.3f}s "
        f"({batch.executor}, workers={batch.workers})"
    )
    return 0


def _command_explain(arguments: argparse.Namespace) -> int:
    if (arguments.index is None) == (arguments.engine is None):
        print("pass exactly one of --index or --engine", file=sys.stderr)
        return 2
    if arguments.engine is not None and arguments.config is not None:
        print("cannot combine --engine with --config", file=sys.stderr)
        return 2
    database = GraphDatabase.load(arguments.database)
    if arguments.engine is not None:
        engine = Engine.load(arguments.engine, database)
    else:
        index = load_index(arguments.index)
        engine = Engine.from_index(
            database, index, config=_load_config(arguments.config)
        )
    workload = QueryWorkload(database, seed=arguments.seed)
    queries = workload.sample_queries(arguments.edges, arguments.count)
    for position, query in enumerate(queries):
        explanation = engine.explain(query, arguments.sigma)
        print(f"query {position}:")
        print(json.dumps(explanation, indent=2, sort_keys=True))
    return 0


def _load_warm_queries(path: Path) -> Tuple[List[object], List[float]]:
    """Parse a ``--warm`` file into ``(queries, sigmas)``.

    Accepts ``{"sigmas": [...], "queries": [graph dicts]}`` (either key may
    be left out) or a bare list of graph dicts, which warms the fragment
    memo only: with no sigmas nothing is planned, so no range query runs.
    Any other document, and unreadable JSON, raises
    :class:`~repro.core.errors.EngineConfigError`.
    """
    from .core.graph import LabeledGraph

    try:
        document = json.loads(path.read_text(encoding="utf-8"))
        if isinstance(document, list):
            payload, sigmas = document, []
        elif isinstance(document, dict):
            payload = document.get("queries", [])
            sigmas = document.get("sigmas", [])
        else:
            raise TypeError(f"got a JSON {type(document).__name__}")
        if not isinstance(payload, list) or not isinstance(sigmas, list):
            raise TypeError('"queries" and "sigmas" must be lists')
        sigmas = [float(sigma) for sigma in sigmas]
        queries = [LabeledGraph.from_dict(entry) for entry in payload]
    except (OSError, ValueError, TypeError, KeyError, AttributeError, PISError) as exc:
        raise EngineConfigError(
            f"--warm file {path} must hold a list of graph dicts or a "
            f'{{"sigmas": [...], "queries": [...]}} document: {exc}'
        ) from exc
    return queries, sigmas


def _command_update(arguments: argparse.Namespace) -> int:
    if arguments.add is None and arguments.remove is None:
        print("nothing to do: pass --add and/or --remove", file=sys.stderr)
        return 2
    removals: List[int] = []
    if arguments.remove is not None:
        try:
            removals = [
                int(token) for token in arguments.remove.split(",") if token.strip()
            ]
        except ValueError:
            print(
                f"--remove expects comma-separated integer ids, got "
                f"{arguments.remove!r}",
                file=sys.stderr,
            )
            return 2
    database = GraphDatabase.load(arguments.database)
    engine = Engine.load(
        arguments.engine, database, durability="wal" if arguments.wal else None
    )
    removed_entries = 0
    if removals:
        removed_entries = engine.remove_graphs(removals)
    added_ids: List[int] = []
    if arguments.add is not None:
        additions = GraphDatabase.load(arguments.add)
        added_ids = engine.add_graphs(list(additions), reuse_ids=arguments.reuse_ids)
    if engine.wal is not None:
        # Fold the log into fresh snapshots; every batch above is already
        # fsync'd, so a crash anywhere in here is repairable by replay.
        engine.checkpoint(
            arguments.engine_output or arguments.engine,
            database_path=arguments.database_output or arguments.database,
        )
    else:
        database.save(arguments.database_output or arguments.database)
        engine.save(arguments.engine_output or arguments.engine)
    print(
        f"removed {len(removals)} graphs ({removed_entries} index entries), "
        f"added {len(added_ids)} graphs"
        + (f" at ids {added_ids}" if added_ids else "")
    )
    print(
        f"database: {len(database)} live graphs "
        f"({len(database.removed_ids())} retired ids); "
        f"index generation {engine.index.generation}"
    )
    print(json.dumps(engine.index.stats().as_dict(), indent=2))
    return 0


def _command_recover(arguments: argparse.Namespace) -> int:
    database = GraphDatabase.load(arguments.database)
    database_lsn = database.wal_position
    # durability="wal" replays every committed record the snapshot (or the
    # database file) missed, creating the log directory if a crash struck
    # before the first append.
    engine = Engine.load(arguments.engine, database, durability="wal")
    recovered_lsn = engine.wal_applied_lsn
    engine.checkpoint(
        arguments.engine_output or arguments.engine,
        database_path=arguments.database_output or arguments.database,
    )
    print(
        f"recovered to WAL record {recovered_lsn} "
        f"(database file was at {database_lsn}); checkpointed and pruned"
    )
    print(
        f"database: {len(database)} live graphs "
        f"({len(database.removed_ids())} retired ids); "
        f"index generation {engine.index.generation}"
    )
    return 0


def _command_stats(arguments: argparse.Namespace) -> int:
    if arguments.database is None and arguments.index is None and arguments.engine is None:
        print(
            "nothing to report: pass --database, --index and/or --engine",
            file=sys.stderr,
        )
        return 2
    if arguments.engine is not None and arguments.database is None:
        print("--engine requires --database", file=sys.stderr)
        return 2
    database = None
    if arguments.database is not None:
        database = GraphDatabase.load(arguments.database)
        print("database:")
        print(json.dumps(database.stats().as_dict(), indent=2))
    if arguments.index is not None:
        index = load_index(arguments.index)
        print("index:")
        print(json.dumps(index.stats().as_dict(), indent=2))
    if arguments.engine is not None:
        engine = Engine.load(arguments.engine, database)
        print("engine:")
        print(json.dumps(engine.stats(), indent=2))
        # Exercise the filtering phase once so the performance profile
        # reflects a real pass (a freshly loaded engine has idle counters).
        # Verification is skipped on purpose: it can dominate query time,
        # and a stats command must stay cheap on large databases.
        try:
            probe = QueryWorkload(database, seed=0).sample_queries(
                num_edges=min(6, max(1, min(g.num_edges for g in database))),
                count=1,
            )
            engine.strategy.candidates(probe[0], sigma=1.0)
        except (PISError, ValueError):
            pass  # degenerate databases still get the (idle) profile
        print("profile:")
        print(json.dumps(engine.profile(), indent=2))
    return 0


def _serve_engine(arguments: argparse.Namespace) -> Engine:
    """Load (or build) the engine a serve-family command runs against."""
    database = GraphDatabase.load(arguments.database)
    if arguments.engine is not None:
        return Engine.load(arguments.engine, database)
    return Engine.build(database)


def _command_serve(arguments: argparse.Namespace) -> int:
    if arguments.warm is not None:
        # Read the file first: a malformed one fails before the build.
        warm_queries, warm_sigmas = _load_warm_queries(arguments.warm)
    engine = _serve_engine(arguments)
    if arguments.result_cache_size is not None:
        engine.config = engine.config.replace(
            result_cache_size=arguments.result_cache_size
        )
    if arguments.warm is not None:
        summary = engine.warm(warm_queries, warm_sigmas)
        print(
            f"warmed {summary['queries']} queries "
            f"({summary['plans']} plans run; the index memos stay warm "
            "until the first write)",
            flush=True,
        )
    server = QueryServer(
        engine,
        batch_window_ms=arguments.batch_window_ms,
        max_batch=arguments.max_batch,
        max_queue=arguments.max_queue,
        max_inflight_per_conn=arguments.max_inflight,
        max_request_bytes=arguments.max_request_bytes,
    )

    async def run() -> None:
        loop = asyncio.get_running_loop()
        stop = asyncio.Event()
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(signum, stop.set)
            except (NotImplementedError, RuntimeError):
                pass  # platforms without signal support: Ctrl-C raises

        def ready(host: str, port: int) -> None:
            print(f"serving on {host}:{port}", flush=True)
            if arguments.port_file is not None:
                arguments.port_file.write_text(f"{host} {port}\n", encoding="utf-8")

        await server.serve_forever(
            host=arguments.host, port=arguments.port, ready=ready, stop=stop
        )

    asyncio.run(run())
    print("server stopped cleanly")
    return 0


def _resolve_server_address(arguments: argparse.Namespace) -> Tuple[str, int]:
    """The server address: ``--port-file`` contents, else ``--host/--port``.

    The port file doubles as a readiness handshake, so a missing or
    still-empty file is polled for up to ``--connect-timeout`` seconds
    before giving up.
    """
    if arguments.port_file is None:
        return arguments.host, arguments.port
    deadline = time.monotonic() + arguments.connect_timeout
    while True:
        try:
            text = arguments.port_file.read_text(encoding="utf-8").strip()
            if text:
                host, port = text.split()
                return host, int(port)
        except (OSError, ValueError):
            pass
        if time.monotonic() >= deadline:
            raise EngineConfigError(
                f"no server address in {arguments.port_file} after "
                f"{arguments.connect_timeout:.1f}s; is 'pis serve' running?"
            )
        time.sleep(0.05)


def _command_bench_serve(arguments: argparse.Namespace) -> int:
    host, port = _resolve_server_address(arguments)
    database = GraphDatabase.load(arguments.database)
    workload = QueryWorkload(database, seed=arguments.seed)
    queries = workload.sample_queries(arguments.edges, arguments.count)
    reference = None
    if arguments.engine is not None:
        reference_engine = Engine.load(arguments.engine, database)
        reference = [
            reference_engine.search(query, arguments.sigma) for query in queries
        ]

    # Round-robin the queries across the clients; every client replays its
    # slice --rounds times over one long-lived connection, so round 2+
    # measures the warm (result-cached) path.
    assignments: List[List[Tuple[int, object]]] = [
        [] for _ in range(arguments.clients)
    ]
    for position, query in enumerate(queries):
        assignments[position % arguments.clients].append((position, query))

    def client_task(slice_):
        responses = []
        with ServeClient(
            host,
            port,
            connect_timeout=arguments.connect_timeout,
            max_retries=arguments.retries,
        ) as client:
            for _ in range(arguments.rounds):
                for position, query in slice_:
                    responses.append(
                        (position, client.search(query, arguments.sigma))
                    )
        return responses

    start = time.perf_counter()
    with ThreadPoolExecutor(max_workers=arguments.clients) as pool:
        responses = [
            response
            for chunk in pool.map(client_task, assignments)
            for response in chunk
        ]
    elapsed = time.perf_counter() - start
    cached = sum(1 for _, response in responses if response.get("cached"))
    qps = len(responses) / elapsed if elapsed > 0 else float("inf")
    print(
        f"bench-serve: {len(responses)} requests from {arguments.clients} "
        f"clients in {elapsed:.3f}s ({qps:.1f} qps, {cached} cached)"
    )
    with ServeClient(
        host, port, connect_timeout=arguments.connect_timeout
    ) as client:
        metrics = client.stats()["server"]
    print("metrics:")
    print(json.dumps(metrics, indent=2, sort_keys=True))
    if reference is not None:
        identical = all(
            response["answers"] == reference[position].answer_ids
            and response["distances"]
            == {
                str(graph_id): distance
                for graph_id, distance in reference[
                    position
                ].answer_distances.items()
                if graph_id in reference[position].answer_ids
            }
            for position, response in responses
        )
        print(f"answers-identical={identical}")
        return 0 if identical else 1
    return 0


def _command_experiments(arguments: argparse.Namespace) -> int:
    from .experiments.run_all import generate_report, quick_config
    from .experiments.config import paper_scaled_config

    configuration = quick_config() if arguments.quick else paper_scaled_config()
    generate_report(configuration, output=arguments.output, echo=True)
    print(f"wrote {arguments.output}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point of the ``pis`` console script."""
    parser = build_parser()
    arguments = parser.parse_args(argv)
    handlers = {
        "generate": _command_generate,
        "index": _command_index,
        "query": _command_query,
        "explain": _command_explain,
        "update": _command_update,
        "recover": _command_recover,
        "stats": _command_stats,
        "serve": _command_serve,
        "bench-serve": _command_bench_serve,
        "experiments": _command_experiments,
    }
    try:
        return handlers[arguments.command](arguments)
    except PISError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
