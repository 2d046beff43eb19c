"""Start ``pis serve`` with the layer wrappers installed.

``python3 perfbench/serve_launcher.py <spans.json> serve --database ...``
installs the wrappers of ``spans.py``, then runs the ``pis`` command line
with the remaining arguments in this process.  When the server stops
(SIGTERM), every span and the process-wide counters are written to
``<spans.json>``.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import spans  # noqa: E402


def main() -> int:
    output, argv = sys.argv[1], sys.argv[2:]
    tracer = spans.Tracer().install()
    from repro.cli import main as cli_main
    from repro.perf import GLOBAL_COUNTERS

    try:
        return cli_main(argv)
    finally:
        tracer.dump(output, {"counters": GLOBAL_COUNTERS.snapshot()})


if __name__ == "__main__":
    raise SystemExit(main())
