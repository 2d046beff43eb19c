"""Run one benchmark workload and print its metrics as one JSON line.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload large_query --seed 1 --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` installs the
layer wrappers of ``spans.py`` and prints the per-layer metrics instead.
The last line of standard output is
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``;
the exit code is 0 only when every answer checked out.  Progress and
diagnostics go to standard error.  See ``WORKLOADS.md`` for what each
workload measures and why.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

DIRECT = ("large_query", "small_query", "sharded_query")
SERVED = ("served_writes", "served_mixed")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=DIRECT + SERVED)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    arguments = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program sources at {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    if os.environ.get("PYTHONHASHSEED") != "0":
        # Fixed hashing keeps set and dict iteration orders, and with them
        # the work counts, identical from run to run.
        env = dict(os.environ, PYTHONHASHSEED="0")
        os.execve(sys.executable, [sys.executable, str(Path(__file__).resolve())] + sys.argv[1:], env)
    sys.path.insert(0, str(SRC))

    workdir = ROOT / ".perfbench_work"
    workdir.mkdir(exist_ok=True)
    if arguments.workload in DIRECT:
        import direct

        outcome = direct.run(
            arguments.workload, arguments.seed, arguments.seconds, bool(arguments.trace), workdir
        )
    else:
        import served

        outcome = served.run(
            arguments.workload, arguments.seed, arguments.seconds, bool(arguments.trace), workdir
        )

    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = declared["per_layer" if arguments.trace else "end_to_end"]
    extra = {
        name: value
        for name, value in outcome["metrics"].items()
        if name not in {entry["name"] for entry in names}
    }
    if extra:
        print(f"metrics not declared in BENCHMARK.json: {extra}", file=sys.stderr)
    # A layer the workload does not exercise (exec.* without shards,
    # serve.* without a server) did no work: it reports 0.
    metrics = {
        entry["name"]: {
            "value": float(outcome["metrics"].get(entry["name"], 0.0)),
            "unit": entry["unit"],
        }
        for entry in names
    }
    failures = outcome["failures"]
    for failure in failures[:20]:
        print(f"FAILED: {failure}", file=sys.stderr)
    result = {
        "correct": not failures,
        "attempted": int(outcome["attempted"]),
        "failed": len(failures),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0 if not failures else 1


if __name__ == "__main__":
    raise SystemExit(main())
