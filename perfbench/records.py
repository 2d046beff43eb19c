"""Recorded answers and work counts, per query stream and seed.

``records/<stream>-<seed>.json`` holds, for the measured stream of one
seed, the answer digest of every stream position (ids plus exact
distances) and, per workload, the work-count fingerprint of the first
:data:`FINGERPRINT_QUERIES` queries.  Records are written only by the
explicit recording step (``record.py``); a benchmark run reads them and
never writes.  A seed or position without a record is checked only by the
NaiveSearch cross-check of each run.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Dict, List, Optional, Sequence

#: queries at the head of every direct stream whose work counts form the
#: fingerprint; every run completes at least this many
FINGERPRINT_QUERIES = 30

#: counters of the fingerprint, in stored order:
#: (metric name, counter the program increments)
FINGERPRINT_COUNTERS = (
    ("pis.candidates", "filter.candidates"),
    ("index.range_queries", "range_query.calls"),
    ("index.fragments", "query_fragments.enumerated"),
    ("kernel.nodes_expanded", "verify.nodes_expanded"),
)

RECORD_DIR = Path(__file__).resolve().parent / "records"


def answer_digest(answer_ids: Sequence[int], distances: Dict[int, float]) -> str:
    """Digest of one answer set: ids with their exact distances."""
    payload = json.dumps([[int(i), repr(float(distances[i]))] for i in answer_ids])
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


def record_path(stream: str, seed: int) -> Path:
    return RECORD_DIR / f"{stream}-{seed}.json"


class Record:
    """The stored answers and fingerprints of one ``(stream, seed)``
    (empty when the seed was never recorded)."""

    def __init__(self, stream: str, seed: int):
        path = record_path(stream, seed)
        self.data: Dict = {"answers": [], "counts": {}}
        if path.exists():
            self.data = json.loads(path.read_text(encoding="utf-8"))

    def check_answer(self, position: int, digest: str) -> Optional[bool]:
        """``True``/``False`` against the recorded digest; ``None`` when the
        position has no record."""
        answers: List[str] = self.data["answers"]
        if position < len(answers):
            return answers[position] == digest
        return None

    def check_counts(self, workload: str, counts: List[List[int]]) -> Optional[int]:
        """Number of fingerprint queries whose counts differ from the
        record (``None`` when there is none)."""
        stored = self.data["counts"].get(workload)
        if stored is None:
            return None
        return sum(1 for old, new in zip(stored, counts) if old != new)


def write(stream: str, seed: int, answers: List[str], counts: Dict[str, List[List[int]]]) -> None:
    """Store the record of one ``(stream, seed)`` (recording step only)."""
    RECORD_DIR.mkdir(parents=True, exist_ok=True)
    data = {"answers": answers, "counts": counts}
    record_path(stream, seed).write_text(json.dumps(data, separators=(",", ":")) + "\n", encoding="utf-8")
