"""Host-speed probe: a fixed slice of interpreter work, independent of the program.

The shared 2-vCPU host this benchmark was written on runs through slow
phases lasting tens of seconds: an identical pure-Python loop timed in
10-second blocks varied by ~6%, and identical runs of ``large_query`` by up
to 25% in every timing at once.  Each run therefore times this probe next
to its own work and reports end-to-end times scaled to a reference host
speed::

    reported = measured * REFERENCE_SECONDS / median(probe seconds)

The probe runs in its own small interpreter, only while the program is
idle, so neither the program's heap nor its cache footprint reaches it: a
change to the program moves the reported numbers exactly as it moves the
measured ones, and only the host's speed at the time of the run cancels
out.  The measured values are printed to standard error next to the
scaled ones.

``python3 perfbench/hostspeed.py`` is the probe process: for each line
``<n>`` on standard input it runs the probe ``n`` times and answers with
the seconds of each, space-separated, on one line.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import time
from typing import List

#: probe time, in seconds, on the reference host (the host this benchmark
#: was tuned on, in a typical phase); reported times are at that speed
REFERENCE_SECONDS = 0.005


def _work() -> int:
    """Allocation-, dict- and sort-heavy Python, like the program's own."""
    rows = [(i, i * 3 % 101, str(i % 50)) for i in range(6000)]
    groups: dict = {}
    for a, b, c in rows:
        groups.setdefault(c, []).append((b, a))
    for members in groups.values():
        members.sort()
    union: set = set()
    for i in range(2000):
        union.update(frozenset((i, i + 1, i + 2)))
    return len(union) + sum(len(members) for members in groups.values())


class HostSpeed:
    """Probe timings of one phase; :meth:`factor` maps a measured time to
    the reference host speed."""

    def __init__(self, prober: "Prober") -> None:
        self.prober = prober
        self.samples: List[float] = []

    def probe(self, repeats: int = 1) -> None:
        self.samples.extend(self.prober.run(repeats))

    def seconds(self) -> float:
        """Median probe time of the phase."""
        return statistics.median(self.samples)

    def factor(self) -> float:
        """Multiply a measured time by this to express it at reference speed."""
        return REFERENCE_SECONDS / self.seconds()


class Prober:
    """The probe interpreter; close it (or use ``with``) when done."""

    def __init__(self) -> None:
        self.process = subprocess.Popen(
            [sys.executable, __file__],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )

    def run(self, repeats: int) -> List[float]:
        # Probe on the vCPU this process last ran on: the two vCPUs of a
        # shared host do not always slow down together.
        self.process.stdin.write(f"{_current_cpu()} {repeats}\n")
        self.process.stdin.flush()
        return [float(value) for value in self.process.stdout.readline().split()]

    def phase(self) -> HostSpeed:
        return HostSpeed(self)

    def close(self) -> None:
        if self.process.poll() is None:
            self.process.stdin.close()
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.process.stdout.close()

    def __enter__(self) -> "Prober":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def _current_cpu() -> int:
    """The CPU this process last ran on (``-1`` when unknown)."""
    try:
        with open("/proc/self/stat", encoding="ascii") as handle:
            return int(handle.read().rsplit(")", 1)[1].split()[36])
    except (OSError, ValueError, IndexError):
        return -1


def _serve() -> int:
    _work()  # warm the interpreter before the first timed probe
    for line in sys.stdin:
        cpu, repeats = (int(field) for field in line.split())
        if cpu >= 0 and hasattr(os, "sched_setaffinity"):
            try:
                os.sched_setaffinity(0, {cpu})
            except OSError:
                pass
        timings = []
        for _ in range(repeats):
            start = time.perf_counter()
            _work()
            timings.append(time.perf_counter() - start)
        print(" ".join(repr(value) for value in timings), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(_serve())
