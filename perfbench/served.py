"""Served workloads: an open-loop read/write mix against ``pis serve``.

The server is a subprocess running the default engine (1 shard, thread
executor, result cache on) with ``durability="wal"``.  This process is the
load generator: searches at a fixed rate, Zipf draws from a 120-query pool
at sigma=2, and ``update`` ops at a fixed cadence, spread over
:data:`CONNECTIONS` pipelined connections.  Each write clears the result
cache, so cache refills, queueing and WAL cost interact.

``served_writes``
    8 searches per second; every 3 s five ``update`` ops 0.1 s apart,
    each adding 3 fresh graphs, with no search due from 0.3 s before the
    first of them to the last.
``served_mixed``
    15 searches per second; every 6 s an ``update`` that removes 3 live
    graphs and adds 3 fresh ones in one batch.  Not declared in
    ``BENCHMARK.json``: its check finds searches answered from a
    half-applied batch (see ``WORKLOADS.md``).

Latency is timed from each request's *scheduled* send time, so a stall
also charges the requests queued behind it.  After the run, a control
engine loaded from the same snapshot replays the same updates and every
response is checked against it; since responses carry no generation, a
response is accepted when it matches any generation that was current
while the request was in flight.
"""

from __future__ import annotations

import asyncio
import bisect
import itertools
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

import hostspeed
import layers
import spans
import workload_inputs as inputs
from repro import Engine, GraphDatabase
from repro.search.baselines import NaiveSearch

#: per workload: offered searches per second, seconds between update
#: ticks, update ops per tick, seconds before each op in which no search is
#: due, and whether an op removes graphs as well as adding them
WORKLOADS = {
    "served_writes": {"rate": 8.0, "period": 3.0, "updates": 5, "lull": 0.3, "remove": False},
    "served_mixed": {"rate": 15.0, "period": 6.0, "updates": 1, "lull": 0.0, "remove": True},
}

#: when the first update op lands (seconds into the schedule), and the
#: seconds between the update ops of one tick
UPDATE_FIRST = 1.0
UPDATE_GAP = 0.1

#: pipelined client connections (the host has 2 vCPUs)
CONNECTIONS = 2

#: server starts per run; setup_s is the median start-to-ready time
SETUP_REPEATS = 3

#: host-speed probes right before and right after the open loop, and the
#: seconds between probes during it
PROBES = 20
PROBE_INTERVAL = 0.2

#: control answers re-checked against NaiveSearch per run
ORACLE_SAMPLE = 2

_GOLDEN = (5 ** 0.5 - 1) / 2

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


@dataclass
class Event:
    """One scheduled request and what became of it."""

    at: float
    conn: int
    kind: str  # "search" | "update"
    line: bytes
    query: int = -1
    update: int = -1
    removals: List[int] = field(default_factory=list)
    additions: List[Dict] = field(default_factory=list)
    expected_ids: List[int] = field(default_factory=list)
    scheduled: float = 0.0
    sent: float = 0.0
    received: float = 0.0
    response: Optional[Dict[str, Any]] = None


def _schedule(workload: str, seed: int, seconds: float, pool: List[Dict], weights: List[float], db) -> List[Event]:
    shape = WORKLOADS[workload]
    rate = shape["rate"]
    # Low-discrepancy Zipf draws: the golden-ratio sequence (offset by the
    # seed) spreads the draws evenly over the distribution, so every run
    # gets close to the ideal mix of hot and cold queries.
    offset = inputs.rng_for(seed, "served-schedule").random()
    cumulative = list(itertools.accumulate(weights))
    ticks = [UPDATE_FIRST + shape["period"] * k for k in range(int((seconds - UPDATE_FIRST) // shape["period"]) + 1)]
    times = [tick + UPDATE_GAP * k for tick in ticks for k in range(shape["updates"])]
    quiet = [(tick - shape["lull"], tick + UPDATE_GAP * (shape["updates"] - 1)) for tick in ticks]
    events: List[Event] = []
    for number in range(int(seconds * rate)):
        # No search is due from the lull before a tick's first update to
        # its last one, so the updates seldom queue behind a search
        # (otherwise whether they did decides update_p50_ms).
        if shape["lull"] and any(begin <= number / rate <= end for begin, end in quiet):
            continue
        draw = ((offset + number * _GOLDEN) % 1.0) * cumulative[-1]
        query = min(bisect.bisect_right(cumulative, draw), len(pool) - 1)
        line = json.dumps({"op": "search", "id": number, "graph": pool[query], "sigma": inputs.SERVED_SIGMA})
        events.append(Event(number / rate, number % CONNECTIONS, "search", (line + "\n").encode(), query=query))
    batches = inputs.update_batches(db, seed, len(times))
    next_id = db.id_bound
    for number, (at, (removals, additions)) in enumerate(zip(times, batches)):
        if not shape["remove"]:
            removals = []
        line = json.dumps({"op": "update", "id": f"u{number}", "remove": removals, "add": additions})
        expected = list(range(next_id, next_id + len(additions)))
        next_id += len(additions)
        events.append(
            Event(
                at, number % CONNECTIONS, "update", (line + "\n").encode(), update=number,
                removals=removals, additions=additions, expected_ids=expected,
            )
        )
    events.sort(key=lambda event: (event.at, event.kind != "update"))
    return events


async def _drive(
    address: Tuple[str, int], events: List[Event], timeout: float, host: hostspeed.HostSpeed
) -> Dict[str, Any]:
    """Send every event on schedule, probing host speed meanwhile; collect
    responses; then ask for stats."""
    links = [await asyncio.open_connection(*address, limit=1 << 24) for _ in range(CONNECTIONS)]
    waiting: List[List[Event]] = [[] for _ in links]
    arrived = asyncio.Event()
    outstanding = [len(events)]
    answered = {event.update: asyncio.Event() for event in events if event.kind == "update"}

    async def read(position: int) -> None:
        reader = links[position][0]
        queue = waiting[position]
        while True:
            line = await reader.readline()
            if not line:
                return
            event = queue.pop(0)
            event.received = time.perf_counter()
            event.response = json.loads(line)
            if event.kind == "update":
                answered[event.update].set()
            outstanding[0] -= 1
            if outstanding[0] == 0:
                arrived.set()

    readers = [asyncio.create_task(read(position)) for position in range(len(links))]
    probing = [True]

    async def probe() -> None:
        while probing[0]:
            await asyncio.to_thread(host.probe)
            await asyncio.sleep(PROBE_INTERVAL)

    prober = asyncio.create_task(probe())
    start = time.perf_counter() + 0.05
    for event in events:
        event.scheduled = start + event.at
        delay = event.scheduled - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        if event.kind == "update" and event.update > 0:
            # One writer: an update goes out once the one before it is
            # answered, since the server may run requests of two
            # connections (or pipelined ones of one) in either order.
            try:
                await asyncio.wait_for(answered[event.update - 1].wait(), timeout)
            except asyncio.TimeoutError:
                pass
        writer = links[event.conn][1]
        event.sent = time.perf_counter()
        waiting[event.conn].append(event)
        writer.write(event.line)
        await writer.drain()
    try:
        await asyncio.wait_for(arrived.wait(), timeout)
    except asyncio.TimeoutError:
        pass
    probing[0] = False
    await prober
    stats_reader, stats_writer = await asyncio.open_connection(*address, limit=1 << 24)
    stats_writer.write(b'{"op": "stats", "id": "stats"}\n')
    await stats_writer.drain()
    stats = json.loads(await asyncio.wait_for(stats_reader.readline(), timeout))
    for _, link_writer in links + [(stats_reader, stats_writer)]:
        link_writer.close()
    for link_reader, link_writer in links + [(stats_reader, stats_writer)]:
        try:
            await link_writer.wait_closed()
        except (ConnectionError, OSError):
            pass
    for task in readers:
        task.cancel()
    await asyncio.gather(*readers, return_exceptions=True)
    return stats["stats"]


class _Server:
    """One ``pis serve`` subprocess (optionally behind the span launcher)."""

    def __init__(self, workdir: Path, trace_path: Optional[Path], tag: str):
        self.port_file = workdir / f"port-{tag}"
        self.port_file.unlink(missing_ok=True)
        command = [
            "serve",
            "--database", str(workdir / "db.json"),
            "--engine", str(workdir / "engine.json"),
            "--port", "0",
            "--port-file", str(self.port_file),
        ]
        if trace_path is None:
            argv = [sys.executable, "-m", "repro.cli"] + command
        else:
            argv = [sys.executable, str(BENCH_DIR / "serve_launcher.py"), str(trace_path)] + command
        env = {
            key: value
            for key, value in os.environ.items()
            if not key.startswith("REPRO_CRASH")
        }
        env.update(PYTHONHASHSEED="0", PYTHONPATH=str(ROOT / "src"))
        self.log = open(workdir / f"server-{tag}.log", "wb")
        self.started = time.perf_counter()
        self.process = subprocess.Popen(argv, cwd=str(ROOT), env=env, stdout=self.log, stderr=subprocess.STDOUT)

    def wait_ready(self, timeout: float = 120.0) -> Tuple[Tuple[str, int], float]:
        """``((host, port), seconds from start until the port file appeared)``."""
        deadline = self.started + timeout
        while True:
            try:
                text = self.port_file.read_text(encoding="utf-8").strip()
            except OSError:
                text = ""
            if text:
                ready = time.perf_counter() - self.started
                host, port = text.split()
                return (host, int(port)), ready
            if self.process.poll() is not None:
                raise RuntimeError(f"pis serve exited with {self.process.returncode} before it was ready")
            if time.perf_counter() > deadline:
                raise RuntimeError("pis serve did not become ready in time")
            time.sleep(0.005)

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.process.pid}/status", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        return 0.0

    def stop(self) -> None:
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.log.close()


def _accepting_generations(events: List[Event], number_of_updates: int) -> Dict[int, List[int]]:
    """Per search event: the generations current at some instant while it
    was in flight (generation ``k`` follows update ``k - 1``)."""
    updates = sorted((e for e in events if e.kind == "update"), key=lambda e: e.update)
    accepted: Dict[int, List[int]] = {}
    for position, event in enumerate(events):
        if event.kind != "search" or event.response is None:
            continue
        generations = []
        for generation in range(number_of_updates + 1):
            begins = updates[generation - 1].sent if generation > 0 else float("-inf")
            ends = updates[generation].received if generation < number_of_updates else float("inf")
            if begins <= event.received and ends >= event.sent:
                generations.append(generation)
        accepted[position] = generations
    return accepted


def _wire_answers(result) -> Tuple[List[int], Dict[str, float]]:
    ids = list(result.answer_ids)
    return ids, {str(graph_id): result.answer_distances[graph_id] for graph_id in ids}


def _check(events, pool, workdir: Path, seed: int) -> List[str]:
    """Replay the updates on a control engine and check every response."""
    failures: List[str] = []
    updates = [e for e in events if e.kind == "update"]
    for event in updates:
        response = event.response or {}
        if not response.get("ok"):
            failures.append(f"update {event.update}: {response.get('error', 'no response')}")
        elif response.get("added") != event.expected_ids:
            failures.append(f"update {event.update}: added {response.get('added')}, expected {event.expected_ids}")
    accepted = _accepting_generations(events, len(updates))
    unresolved = {}
    for position, event in enumerate(events):
        if event.kind != "search":
            continue
        response = event.response
        if response is None:
            failures.append(f"search {position}: no response")
        elif not response.get("ok"):
            failures.append(f"search {position}: {response.get('error')}")
        else:
            unresolved[position] = accepted[position]
    control = Engine.load(workdir / "engine.json", GraphDatabase.load(workdir / "db.json"), durability="none")
    half_applied = set()

    def resolve(generation: int, found: set) -> None:
        answers: Dict[int, Any] = {}
        for position in [p for p, gens in unresolved.items() if generation in gens]:
            event = events[position]
            if event.query not in answers:
                answers[event.query] = _wire_answers(
                    control.search(inputs.graph(pool[event.query]), inputs.SERVED_SIGMA)
                )
            if (event.response["answers"], event.response["distances"]) == answers[event.query]:
                found.add(position)

    for generation in range(len(updates) + 1):
        if generation > 0:
            update = updates[generation - 1]
            if update.removals:
                control.remove_graphs(update.removals)
            if update.removals and update.additions:
                # Between the removals and the additions of one update: a
                # response matching this state saw a half-applied batch.
                resolve(generation, half_applied)
            if update.additions:
                control.add_graphs([inputs.graph(data) for data in update.additions])
        matched: set = set()
        resolve(generation, matched)
        for position in matched:
            del unresolved[position]
            half_applied.discard(position)
    for position in unresolved:
        if position in half_applied:
            failures.append(f"search {position}: answers match a half-applied update batch")
        else:
            failures.append(f"search {position}: answers match no generation current while in flight")
    # The control engine itself against the Definition 1 oracle.
    naive = NaiveSearch(control.database, control.measure, verifier="legacy", verify_kernel="legacy")
    rng = inputs.rng_for(seed, "served-oracle")
    for query in rng.sample(range(len(pool)), ORACLE_SAMPLE):
        graph = inputs.graph(pool[query])
        if _wire_answers(control.search(graph, inputs.SERVED_SIGMA)) != _wire_answers(
            naive.search(graph, inputs.SERVED_SIGMA)
        ):
            failures.append(f"control query {query}: answers differ from NaiveSearch")
    return failures


def _histogram_quantile(histogram: Dict[str, Any], share: float) -> float:
    """Quantile of a ``repro.perf.Histogram`` summary, interpolated inside
    the bucket that holds it (the overflow bucket ends at the maximum)."""
    count = histogram.get("count") or 0
    if not count:
        return 0.0
    target = share * count
    lower, seen = 0.0, 0
    for bucket in histogram["buckets"]:
        upper = histogram["max"] if bucket["le"] == "+inf" else float(bucket["le"])
        if bucket["count"] and seen + bucket["count"] >= target:
            low = max(lower, histogram["min"])
            high = min(upper, histogram["max"])
            return low + (high - low) * (target - seen) / bucket["count"]
        seen += bucket["count"]
        lower = upper
    return float(histogram["max"])


def run(workload: str, seed: int, seconds: float, trace: bool, workdir: Path) -> Dict[str, Any]:
    with hostspeed.Prober() as prober:
        return _run(workload, seed, seconds, trace, workdir, prober)


def _run(
    workload: str, seed: int, seconds: float, trace: bool, workdir: Path, prober: hostspeed.Prober
) -> Dict[str, Any]:
    workdir = workdir / "served"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    tracer = spans.Tracer().install() if trace else None
    db = inputs.database()
    engine = Engine.build(db, inputs.engine_config(**inputs.ENGINE_OVERRIDES[workload]))
    engine.save(workdir / "engine.json")
    db.save(workdir / "db.json")
    setup_spans = list(tracer.spans) if tracer else []
    if tracer:
        tracer.uninstall()
    del engine
    pool, weights = inputs.served_pool(db)
    events = _schedule(workload, seed, seconds, pool, weights, db)

    host = prober.phase()
    setup: List[float] = []
    for repeat in range(SETUP_REPEATS - 1):
        probe = _Server(workdir, None, f"probe{repeat}")
        try:
            setup.append(probe.wait_ready()[1])
        finally:
            probe.stop()
    trace_path = workdir / "spans.json" if trace else None
    server = _Server(workdir, trace_path, "main")
    try:
        address, ready = server.wait_ready()
        setup.append(ready)
        host.probe(PROBES)
        stats = asyncio.run(_drive(address, events, max(60.0, seconds * 4), host))
        host.probe(PROBES)
        rss_mb = server.peak_rss_mb()
    finally:
        server.stop()
    wal_bytes = sum(p.stat().st_size for p in (workdir / "engine.json.wal").glob("*") if p.is_file())

    failures = _check(events, pool, workdir, seed)
    searches = [e for e in events if e.kind == "search" and e.response and e.response.get("ok")]
    updates = [e for e in events if e.kind == "update" and e.response and e.response.get("ok")]
    latencies = [(e.received - e.scheduled) * 1000.0 for e in searches]
    first = min(e.scheduled for e in events)
    last = max((e.received for e in searches), default=first)
    server_stats = stats["server"]
    if trace:
        metrics = _per_layer(
            setup_spans, trace_path, stats, events, searches, updates, wal_bytes
        )
        metrics["host.probe_ms"] = host.seconds() * 1000.0
        # Scaled like query_p50_ms: the tracing overhead is this over the
        # untraced query_p50_ms of the same seed.
        metrics["trace.query_p50_ms"] *= host.factor()
    else:
        measured = {
            "setup_s": layers.percentile(setup, 0.5),
            "query_p50_ms": layers.percentile(latencies, 0.5),
            "query_p90_ms": layers.percentile(latencies, 0.9),
            "query_qps": len(searches) / (last - first) if last > first else 0.0,
            "update_p50_ms": layers.percentile([(e.received - e.scheduled) * 1000.0 for e in updates], 0.5),
        }
        print(f"measured (unscaled): {measured}", file=sys.stderr)
        # Times of the open loop are scaled by the probes taken during it;
        # its rate is set by the schedule, and the server starts have no
        # probes of their own, so query_qps and setup_s stay as measured.
        metrics = {
            name: value * host.factor() if name.endswith("_ms") else value
            for name, value in measured.items()
        }
        metrics["rss_peak_mb"] = rss_mb
    print(
        f"host probe: run {host.seconds() * 1000:.3f} ms (reference {hostspeed.REFERENCE_SECONDS * 1000:.1f} ms)",
        file=sys.stderr,
    )
    print(
        f"{workload}: seed {seed}, {len(searches)} searches and {len(updates)} updates answered, "
        f"shed {server_stats.get('shed')}, queue high water {server_stats.get('queue_high_water')}",
        file=sys.stderr,
    )
    shutil.rmtree(workdir, ignore_errors=True)
    return {"attempted": len(events), "failures": failures, "metrics": metrics}


def _per_layer(setup_spans, trace_path, stats, events, searches, updates, wal_bytes) -> Dict[str, float]:
    server_spans, extra = spans.load(str(trace_path))
    tree = spans.SpanTree(server_spans)
    roots = tree.roots("engine.search")
    counters = extra.get("counters", {})
    setup_tree = spans.SpanTree(setup_spans)
    server_stats = stats["server"]
    engine_stats = stats["engine"]
    server_ms = _histogram_quantile(server_stats["op_latency_ms"].get("search", {}), 0.5)
    sent_latency = [(e.received - e.sent) * 1000.0 for e in searches]
    metrics: Dict[str, float] = {}
    metrics.update(layers.request_layers(tree, roots))
    metrics.update(layers.counter_ratios(counters))
    metrics.update(layers.update_layers(tree, 0))
    plan_cache = server_stats.get("plan_cache") or {}
    result_cache = engine_stats.get("result_cache") or {}
    metrics.update(
        {
            "mining.select_s": sum(setup_tree.duration(n) for n in setup_tree.roots("mining.select")),
            "index.build_s": sum(setup_tree.duration(n) for n in setup_tree.roots("index.build")),
            "index.fragments": counters.get("query_fragments.enumerated", 0.0),
            "index.range_queries": counters.get("range_query.calls", 0.0),
            "planner.cache_hit_ratio": float(plan_cache.get("hit_rate", 0.0)),
            "engine.result_cache_hit_ratio": layers.ratio(
                result_cache.get("hits", 0), result_cache.get("hits", 0) + result_cache.get("misses", 0)
            ),
            "pis.candidates": counters.get("filter.candidates", 0.0),
            "pis.answer_ratio": layers.ratio(
                sum(len(e.response["answers"]) for e in searches if not e.response.get("cached")),
                counters.get("filter.candidates", 0.0),
            ),
            "kernel.nodes_expanded": counters.get("verify.nodes_expanded", 0.0),
            "serve.server_ms_p50": server_ms,
            "serve.batch_wait_ms_p50": _histogram_quantile(server_stats.get("batch_wait_ms", {}), 0.5),
            "serve.batch_size_mean": float(server_stats.get("batch_size", {}).get("mean") or 0.0),
            "serve.queue_high_water": float(server_stats.get("queue_high_water", 0)),
            "serve.shed": float(server_stats.get("shed", 0)),
            "serve.wire_ms": layers.percentile(sent_latency, 0.5) - server_ms,
            "generator.late_ms_p99": layers.percentile([(e.sent - e.scheduled) * 1000.0 for e in events], 0.99),
            "store.wal_bytes_per_update": layers.ratio(wal_bytes, len(updates)),
            "trace.coverage": layers.coverage(tree, [r for r in roots if tree.children.get(r)]),
            "trace.query_p50_ms": layers.percentile([(e.received - e.scheduled) * 1000.0 for e in searches], 0.5),
        }
    )
    return metrics
