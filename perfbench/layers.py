"""Per-layer arithmetic shared by every workload.

Per-layer times are means per search request, so the layers of one
request add up to its end-to-end time; counts named in the fingerprint
are exact totals over the head of the stream; ratios are useful outcomes
per attempt, summed over the run.
"""

from __future__ import annotations

import math
import statistics
from typing import Dict, Iterable, List, Mapping, Optional, Sequence

from spans import PAYLOAD_SPAN, SpanTree


def percentile(values: Sequence[float], share: float) -> float:
    """Linear-interpolated percentile (``share`` in [0, 1])."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = share * (len(ordered) - 1)
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def sum_counters(deltas: Iterable[Mapping[str, float]]) -> Dict[str, float]:
    totals: Dict[str, float] = {}
    for delta in deltas:
        for name, value in delta.items():
            totals[name] = totals.get(name, 0.0) + value
    return totals


def counter_ratios(totals: Mapping[str, float]) -> Dict[str, float]:
    """The ratio metrics, from counters summed over the measured requests."""

    def hit_ratio(cache: str) -> float:
        hits = totals.get(f"{cache}.cache_hits", 0.0)
        return ratio(hits, hits + totals.get(f"{cache}.cache_misses", 0.0))

    # Every distance-cache miss, and every refresh of an entry cached only
    # as "over a smaller threshold", is one superposition search.
    searches = totals.get("verify_distance.cache_misses", 0.0) + totals.get(
        "verify.cache_refreshes", 0.0
    )
    return {
        "index.range_cache_hit_ratio": hit_ratio("range_query"),
        "planner.cache_hit_ratio": hit_ratio("plan"),
        "verify.distance_cache_hit_ratio": hit_ratio("verify_distance"),
        "verify.early_exit_ratio": ratio(totals.get("verify.early_exits", 0.0), searches),
        "engine.result_cache_hit_ratio": hit_ratio("query_results"),
    }


#: (metric, span, field) of the per-request layer times; ``total`` and
#: ``calls`` also count spans folded into counters by forked workers
_REQUEST_LAYERS = (
    ("engine.self_ms", "engine.search", "self"),
    ("planner.plan_ms", "planner.plan", "total"),
    ("planner.partition_ms", "planner.partition", "total"),
    ("planner.self_ms", "planner.plan", "self"),
    ("index.enumerate_ms", "index.enumerate", "total"),
    ("index.range_query_ms", "index.range_query", "total"),
    ("pis.execute_ms", "pis.execute", "total"),
    ("verify.ms", "verify", "total"),
    ("kernel.search_ms", "kernel.search", "total"),
    ("kernel.calls", "kernel.search", "calls"),
    ("exec.scatter_ms", "exec.scatter", "total"),
)


def request_layers(
    tree: SpanTree,
    roots: Sequence[int],
    worker_deltas: Optional[Sequence[Mapping[str, float]]] = None,
) -> Dict[str, float]:
    """Per-request mean layer times of ``roots`` (``Engine.search`` spans).

    ``worker_deltas`` are the per-request counter deltas seen by the
    caller; they carry the spans folded into counters by forked executor
    workers (``span.<name>.seconds`` / ``.calls``).
    """
    rows: Dict[str, List[float]] = {metric: [] for metric, _, _ in _REQUEST_LAYERS}
    rows["exec.worker_ms"] = []
    payloads: List[float] = []
    for position, root in enumerate(roots):
        sums = tree.per_request(root)
        folded = worker_deltas[position] if worker_deltas and position < len(worker_deltas) else {}
        for metric, span, field in _REQUEST_LAYERS:
            value = sums[span][field] if span in sums else 0.0
            if field == "calls":
                rows[metric].append(value + folded.get(f"span.{span}.calls", 0.0))
            else:
                if field == "total":
                    value += folded.get(f"span.{span}.seconds", 0.0)
                rows[metric].append(value * 1000.0)
        slowest = 0.0
        for number in tree.descendants(root):
            if tree.name(number) == "exec.scatter":
                attrs = tree.attrs(number)
                slowest += max(attrs.get("worker_seconds") or [0.0]) * 1000.0
                payloads.extend(attrs.get("payload_bytes") or [])
            elif tree.name(number) == PAYLOAD_SPAN:
                # The tracer's own pickling is no part of the scatter.
                rows["exec.scatter_ms"][-1] -= tree.duration(number) * 1000.0
        rows["exec.worker_ms"].append(slowest)
    result = {metric: mean(values) for metric, values in rows.items()}
    result["exec.dispatch_ms"] = max(0.0, result["exec.scatter_ms"] - result["exec.worker_ms"])
    result["exec.payload_bytes"] = mean(payloads)
    return result


def coverage(tree: SpanTree, roots: Sequence[int]) -> float:
    """Share of the roots' wall time covered by their child spans."""
    covered = sum(tree.covered(root) for root in roots)
    return ratio(covered, sum(tree.duration(root) for root in roots))


def update_layers(
    tree: SpanTree, first_span: int = 0, last_span: Optional[int] = None
) -> Dict[str, float]:
    """Mean self time of ``Engine.add_graphs``/``remove_graphs`` (the index
    work, without the WAL append below them) and the mean WAL append."""
    self_ms: Dict[str, List[float]] = {"engine.add_graphs": [], "engine.remove_graphs": []}
    append = []
    for number in tree.roots(None, first_span, last_span):
        if tree.name(number) in self_ms:
            self_ms[tree.name(number)].append(tree.self_time(number) * 1000.0)
            append.extend(
                tree.duration(child) * 1000.0
                for child in tree.descendants(number)
                if tree.name(child) == "store.wal_append"
            )
    return {
        "index.add_ms": mean(self_ms["engine.add_graphs"]),
        "index.remove_ms": mean(self_ms["engine.remove_graphs"]),
        "store.wal_append_ms": mean(append),
    }


def mean(values: Sequence[float]) -> float:
    return statistics.fmean(values) if values else 0.0
