"""Direct workloads: one closed-loop caller searching an in-process engine.

``large_query``
    Distinct 20-24-edge queries at sigma=1 on the unsharded default
    engine; planning dominates.
``small_query``
    Distinct 8-12-edge queries with one mutated edge label at sigma=2 on
    the same engine; verification dominates.
``sharded_query``
    The ``small_query`` stream on 2 shards with the process executor; the
    engine is not started, so every search scatters to a fresh (cold)
    worker pool.

A run times :data:`SETUP_REPEATS` cold engine builds (``setup_s`` is the
median), warms up on queries outside the stream, applies
:data:`UPDATE_BATCHES` durable update batches (``update_p50_ms``), then
searches the stream until the deadline, building each query graph at call
time.  Afterwards it checks every answer against the record for its seed
and a sample against ``NaiveSearch``.  ``record.py`` prepares the engine
with the same functions (:func:`build_engine`, :func:`warm`,
:func:`apply_updates`), so recorded work counts match a run's.
"""

from __future__ import annotations

import gc
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

import hostspeed
import layers
import records
import spans
import workload_inputs as inputs
from repro import Engine
from repro.perf import GLOBAL_COUNTERS
from repro.search.baselines import NaiveSearch

#: query stream shape per direct workload
SHAPES = {"large_query": "large", "small_query": "small", "sharded_query": "small"}

#: cold engine builds per run (this process's plus fresh-interpreter
#: probes); setup_s is their median.  A build takes ~6 s, most of a run's
#: set-up, so two keep a run within its share of the benchmark's time.
SETUP_REPEATS = 2

#: host-speed probes taken right before and right after each timed build;
#: each build is scaled by the probes around it
SETUP_PROBES = 10

#: measured queries re-answered by NaiveSearch (Definition 1 oracle), when
#: the seed has a record and when it has none
ORACLE_SAMPLE = 2
UNRECORDED_ORACLE_SAMPLE = 10

#: measured queries after which rss_peak_mb is read (at the deadline when a
#: run answers fewer; only sharded_query does, and the memory of its
#: coordinating process hardly grows per query)
RSS_QUERIES = 100

#: durable update batches applied before the timed queries
UPDATE_BATCHES = 20


def build_engine(workload: str, db) -> Engine:
    return Engine.build(db, inputs.engine_config(**inputs.ENGINE_OVERRIDES[workload]))


def warm(engine: Engine, warmup: List[Dict], sigma: float) -> None:
    for data in warmup:
        engine.search(inputs.graph(data), sigma)


def apply_updates(
    engine: Engine, db, seed: int, wal_dir: Path, before: Callable[[], None] = lambda: None
) -> Tuple[List[float], List[str]]:
    """Attach a fresh WAL and apply the seed's update batches:
    ``(milliseconds per batch, failures)``.  ``before`` runs ahead of each
    timed batch."""
    shutil.rmtree(wal_dir, ignore_errors=True)
    engine.attach_wal(wal_dir)
    update_ms: List[float] = []
    failures: List[str] = []
    for removals, additions in inputs.update_batches(db, seed, UPDATE_BATCHES):
        graphs = [inputs.graph(data) for data in additions]
        expected_ids = list(range(engine.database.id_bound, engine.database.id_bound + len(graphs)))
        before()
        start = time.perf_counter()
        try:
            engine.remove_graphs(removals)
            added = engine.add_graphs(graphs)
        except Exception as exc:  # a failed update is a failed operation
            failures.append(f"update: {type(exc).__name__}: {exc}")
            continue
        update_ms.append((time.perf_counter() - start) * 1000.0)
        if added != expected_ids:
            failures.append(f"update: added ids {added}, expected {expected_ids}")
    return update_ms, failures


def oracle(engine: Engine) -> NaiveSearch:
    """The oracle: verify every live graph with the recursive reference
    search, no filtering and no array kernel."""
    return NaiveSearch(engine.database, engine.measure, verifier="legacy", verify_kernel="legacy")


def answer_of(result: Any) -> Tuple[List[int], Dict[int, float]]:
    """Answer ids with their exact distances (all a check needs; the full
    result would keep its plan's distance maps alive)."""
    ids = list(result.answer_ids)
    return ids, {graph_id: result.answer_distances[graph_id] for graph_id in ids}


def _probe_build(workload: str, seed: int) -> float:
    """Seconds of one cold build in a fresh interpreter."""
    completed = subprocess.run(
        [sys.executable, str(Path(__file__).resolve().parent / "build_probe.py"), workload, str(seed)],
        check=True,
        capture_output=True,
        text=True,
        timeout=120,
    )
    return float(completed.stdout.strip().splitlines()[-1])


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run(workload: str, seed: int, seconds: float, trace: bool, workdir: Path) -> Dict[str, Any]:
    with hostspeed.Prober() as prober:
        return _run(workload, seed, seconds, trace, workdir, prober)


def _run(
    workload: str, seed: int, seconds: float, trace: bool, workdir: Path, prober: hostspeed.Prober
) -> Dict[str, Any]:
    db = inputs.database()
    warmup, stream, sigma = inputs.direct_stream(db, seed, SHAPES[workload])
    tracer = spans.Tracer().install() if trace else None

    def span_mark() -> int:
        return len(tracer.spans) if tracer else 0

    # Each build is scaled by the host-speed probes taken right around it,
    # so a slow phase during one build does not bend the others.
    setup: List[float] = []
    setup_scaled: List[float] = []
    setup_probes: List[float] = []

    def timed_build(build: Callable[[], float]) -> None:
        around = prober.phase()
        around.probe(SETUP_PROBES)
        seconds = build()
        around.probe(SETUP_PROBES)
        setup.append(seconds)
        setup_scaled.append(seconds * around.factor())
        setup_probes.extend(around.samples)

    engine: Optional[Engine] = None

    def build_here() -> float:
        nonlocal engine
        start = time.perf_counter()
        engine = build_engine(workload, db)
        return time.perf_counter() - start

    timed_build(build_here)
    setup_spans = (0, span_mark())
    for _ in range(SETUP_REPEATS - 1):
        timed_build(lambda: _probe_build(workload, seed))

    warm(engine, warmup, sigma)

    # Durable update batches come before the timed queries, so they always
    # meet the same heap (a post-query heap would grow with throughput) and
    # every measured query runs on the updated database.
    update_host = prober.phase()
    wal_dir = workdir / f"{workload}.wal"
    first_update_span = span_mark()
    update_ms, failures = apply_updates(engine, db, seed, wal_dir, update_host.probe)
    update_spans = (first_update_span, span_mark())
    wal_bytes = sum(path.stat().st_size for path in wal_dir.glob("*") if path.is_file())
    gc.collect()

    host = prober.phase()
    probing = 0.0
    record = records.Record(SHAPES[workload], seed)
    latencies: List[float] = []
    deltas: List[Dict[str, float]] = []
    answers: List[Optional[Tuple[List[int], Dict[int, float]]]] = []
    rss_mb = 0.0
    first_span = span_mark()
    begin = time.perf_counter()
    deadline = begin + seconds
    for position, data in enumerate(stream):
        if position >= records.FINGERPRINT_QUERIES and time.perf_counter() >= deadline:
            break
        start = time.perf_counter()
        host.probe()
        probing += time.perf_counter() - start
        query = inputs.graph(data)
        before = GLOBAL_COUNTERS.snapshot()
        start = time.perf_counter()
        try:
            result = engine.search(query, sigma)
        except Exception as exc:  # a failed search is a failed operation
            failures.append(f"query {position}: {type(exc).__name__}: {exc}")
            answers.append(None)
            deltas.append({})
            continue
        latencies.append(time.perf_counter() - start)
        deltas.append(GLOBAL_COUNTERS.delta(before))
        digest = records.answer_digest(result.answer_ids, result.answer_distances)
        if record.check_answer(position, digest) is False:
            failures.append(f"query {position}: answers differ from the record for seed {seed}")
        answers.append(answer_of(result))
        del query, result
        if position + 1 == RSS_QUERIES:
            # Peak RSS after a fixed amount of work: the plan cache grows
            # with every distinct large query, so a reading at the deadline
            # would rise with throughput.
            rss_mb = _peak_rss_mb()
    elapsed = time.perf_counter() - begin - probing
    last_span = span_mark()
    done = len(answers)
    if done < RSS_QUERIES:
        rss_mb = _peak_rss_mb()

    # A sample of the measured queries against the oracle, over the same
    # (updated) database; a larger one when no record checked the answers.
    naive = oracle(engine)
    rng = inputs.rng_for(seed, "oracle")
    sample = ORACLE_SAMPLE if record.data["answers"] else UNRECORDED_ORACLE_SAMPLE
    checked = [p for p in rng.sample(range(done), min(sample, done)) if answers[p] is not None]
    for position in checked:
        if answers[position] != answer_of(naive.search(inputs.graph(stream[position]), sigma)):
            failures.append(f"query {position}: answers differ from NaiveSearch")
    shutil.rmtree(wal_dir, ignore_errors=True)

    # Work-count fingerprint of the stream head: flagged, never failed,
    # since a planner or kernel change may rightly alter it.
    head = deltas[: records.FINGERPRINT_QUERIES]
    counts = [[int(d.get(counter, 0)) for _, counter in records.FINGERPRINT_COUNTERS] for d in head]
    mismatches = record.check_counts(workload, counts) or 0
    if mismatches:
        print(
            f"fingerprint: {mismatches} of the first {len(counts)} queries did work counts "
            f"different from the record for seed {seed}",
            file=sys.stderr,
        )
    if not record.data["answers"]:
        print(f"no record for seed {seed}: answers checked against NaiveSearch only", file=sys.stderr)

    if tracer:
        tracer.uninstall()
        tree = spans.SpanTree(tracer.spans)
        roots = tree.roots("engine.search", first_span, last_span)
        metrics = _per_layer(tree, roots, setup_spans, update_spans, deltas, answers)
        metrics.update(
            {
                "store.wal_bytes_per_update": wal_bytes / UPDATE_BATCHES,
                "fingerprint.mismatches": float(mismatches),
                "trace.coverage": layers.coverage(tree, roots),
                # Scaled like query_p50_ms: the tracing overhead is this
                # over the untraced query_p50_ms of the same seed.
                "trace.query_p50_ms": layers.percentile(latencies, 0.5) * 1000.0 * host.factor(),
                "host.probe_ms": host.seconds() * 1000.0,
            }
        )
        if metrics["trace.coverage"] < 0.95:
            failures.append(
                f"spans cover {metrics['trace.coverage']:.3f} of Engine.search wall time (< 0.95)"
            )
    else:
        measured = {
            "setup_s": statistics.median(setup),
            "query_p50_ms": layers.percentile(latencies, 0.5) * 1000.0,
            "query_p90_ms": layers.percentile(latencies, 0.9) * 1000.0,
            "query_qps": len(latencies) / elapsed,
            "update_p50_ms": layers.percentile(update_ms, 0.5),
        }
        print(f"measured (unscaled): {measured}", file=sys.stderr)
        metrics = {
            "setup_s": statistics.median(setup_scaled),
            "query_p50_ms": measured["query_p50_ms"] * host.factor(),
            "query_p90_ms": measured["query_p90_ms"] * host.factor(),
            "query_qps": measured["query_qps"] / host.factor(),
            "update_p50_ms": measured["update_p50_ms"] * update_host.factor(),
            "rss_peak_mb": rss_mb,
        }
    print(
        f"host probe: setup {statistics.median(setup_probes) * 1000:.3f} ms, "
        f"updates {update_host.seconds() * 1000:.3f} ms, queries {host.seconds() * 1000:.3f} ms "
        f"(reference {hostspeed.REFERENCE_SECONDS * 1000:.1f} ms)",
        file=sys.stderr,
    )
    print(
        f"{workload}: seed {seed}, {done} queries in {elapsed:.2f}s, "
        f"{len(checked)} oracle checks, {len(update_ms)} updates",
        file=sys.stderr,
    )
    return {
        "attempted": done + UPDATE_BATCHES + len(checked),
        "failures": failures,
        "metrics": metrics,
    }


def _per_layer(
    tree: spans.SpanTree,
    roots: List[int],
    setup_spans: Tuple[int, int],
    update_spans: Tuple[int, int],
    deltas: List[Dict[str, float]],
    answers: List[Any],
) -> Dict[str, float]:
    """Per-layer metrics of a traced run."""
    measured = [delta for delta, answer in zip(deltas, answers) if answer is not None]
    totals = layers.sum_counters(measured)
    head = layers.sum_counters(deltas[: records.FINGERPRINT_QUERIES])
    metrics = layers.request_layers(tree, roots, measured)
    metrics.update(layers.counter_ratios(totals))
    metrics.update(layers.update_layers(tree, *update_spans))
    metrics["mining.select_s"] = sum(tree.duration(n) for n in tree.roots("mining.select", *setup_spans))
    metrics["index.build_s"] = sum(tree.duration(n) for n in tree.roots("index.build", *setup_spans))
    metrics["pis.answer_ratio"] = layers.ratio(
        sum(len(answer[0]) for answer in answers if answer is not None),
        totals.get("filter.candidates", 0.0),
    )
    for name, counter in records.FINGERPRINT_COUNTERS:
        metrics[name] = head.get(counter, 0.0)
    return metrics
