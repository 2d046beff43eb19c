"""Record the answers and work-count fingerprints the direct workloads check.

Usage (from the root of a checkout)::

    python3 perfbench/record.py --seeds 1-10

For each seed this prepares the engine exactly as a run of ``direct.py``
does (cold build, warm-up, the seed's durable update batches), answers the
whole measured stream, and writes ``records/<stream>-<seed>.json``: the
answer digest of every stream position and the work counts of the first
:data:`records.FINGERPRINT_QUERIES` queries per workload.  Every answer
recorded is checked against ``NaiveSearch`` first, and the sharded engine
must give the unsharded answers on the fingerprint head.  Benchmark runs
only read these files.  Re-record only when a change is meant to alter
answers or work counts, and say so with the change.
"""

from __future__ import annotations

import argparse
import gc
import os
import shutil
import sys
from pathlib import Path
from typing import Dict, List

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent

#: (stream, workload whose engine answers every position, workloads that
#: only add their fingerprint)
STREAMS = (("large", "large_query", ()), ("small", "small_query", ("sharded_query",)))

#: stream positions between plan-cache clears (distinct large queries keep
#: ~5 MB of plan each; clearing alters no answer)
PLAN_CACHE_CLEAR = 25


def _seeds(text: str) -> List[int]:
    seeds: List[int] = []
    for part in text.split(","):
        first, _, last = part.partition("-")
        seeds.extend(range(int(first), int(last or first) + 1))
    return seeds


def _answer(workload: str, seed: int, count: int, workdir: Path):
    """``(digests, head counts, naive mismatches)`` of the first ``count``
    positions of the workload's stream."""
    import direct
    import records
    import workload_inputs as inputs
    from repro.perf import GLOBAL_COUNTERS

    db = inputs.database()
    warmup, stream, sigma = inputs.direct_stream(db, seed, direct.SHAPES[workload])
    engine = direct.build_engine(workload, db)
    direct.warm(engine, warmup, sigma)
    wal_dir = workdir / f"record-{workload}-{os.getpid()}.wal"
    _, failures = direct.apply_updates(engine, db, seed, wal_dir)
    if failures:
        raise SystemExit(f"{workload} seed {seed}: {failures}")
    gc.collect()
    answers = []
    counts: List[List[int]] = []
    for position, data in enumerate(stream[:count]):
        before = GLOBAL_COUNTERS.snapshot()
        result = engine.search(inputs.graph(data), sigma)
        delta = GLOBAL_COUNTERS.delta(before)
        if position < records.FINGERPRINT_QUERIES:
            counts.append([int(delta.get(counter, 0)) for _, counter in records.FINGERPRINT_COUNTERS])
        answers.append(direct.answer_of(result))
        del result
        if position >= records.FINGERPRINT_QUERIES and position % PLAN_CACHE_CLEAR == 0:
            engine.planner.clear_cache()
    # The oracle runs after the stream, as in a benchmark run, so it cannot
    # touch the state the work counts were taken in.
    naive = direct.oracle(engine)
    wrong = [
        position
        for position, data in enumerate(stream[:count])
        if answers[position] != direct.answer_of(naive.search(inputs.graph(data), sigma))
    ]
    digests = [records.answer_digest(ids, distances) for ids, distances in answers]
    engine.close()
    shutil.rmtree(wal_dir, ignore_errors=True)
    return digests, counts, wrong


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", required=True, help="e.g. 1-10 or 1,4,7")
    parser.add_argument("--stream", choices=[stream for stream, _, _ in STREAMS])
    arguments = parser.parse_args(argv)
    if os.environ.get("PYTHONHASHSEED") != "0":
        env = dict(os.environ, PYTHONHASHSEED="0")
        os.execve(sys.executable, [sys.executable, str(Path(__file__).resolve())] + sys.argv[1:], env)
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(BENCH_DIR))
    import records
    import workload_inputs as inputs

    workdir = ROOT / ".perfbench_work"
    workdir.mkdir(exist_ok=True)
    for seed in _seeds(arguments.seeds):
        for stream, workload, followers in STREAMS:
            if arguments.stream not in (None, stream):
                continue
            digests, head, wrong = _answer(workload, seed, inputs.STREAM_LENGTH, workdir)
            if wrong:
                raise SystemExit(f"{workload} seed {seed}: positions {wrong} differ from NaiveSearch")
            counts: Dict[str, List[List[int]]] = {workload: head}
            for follower in followers:
                follow, follow_head, wrong = _answer(follower, seed, records.FINGERPRINT_QUERIES, workdir)
                if wrong or follow != digests[: len(follow)]:
                    raise SystemExit(f"{follower} seed {seed}: answers differ from {workload}")
                counts[follower] = follow_head
            records.write(stream, seed, digests, counts)
            print(f"recorded {stream} seed {seed}: {len(digests)} answers", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
