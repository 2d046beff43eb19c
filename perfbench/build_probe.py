"""Time one cold engine build in a fresh interpreter.

``python3 perfbench/build_probe.py <workload> <seed>`` builds the engine of
a direct workload (or the served engine) over the seed's database and
prints the seconds ``Engine.build`` took.  ``setup_s`` takes the median of
these probes and the benchmark process's own build, so every sample pays the
process-wide caches cold, as a freshly started program does.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workload_inputs as inputs  # noqa: E402
from repro import Engine  # noqa: E402


def main() -> int:
    workload, seed = sys.argv[1], int(sys.argv[2])
    db = inputs.database()
    config = inputs.engine_config(**inputs.ENGINE_OVERRIDES[workload])
    start = time.perf_counter()
    Engine.build(db, config)
    print(time.perf_counter() - start)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
