"""JSON persistence for fragment indexes.

The paper's index stores only fragment sequences and graph identifiers —
never the database graphs themselves — so an index is naturally
serializable: per equivalence class we keep the class skeleton (as an edge
list over DFS indices) and the list of ``(sequence, [graph ids])`` entries,
plus a description of the distance measure so the index can be rebuilt with
identical behaviour.  Every class keeps its entries in the one
range-query store; documents of schema 1–5 written while the store was
configurable still carry ``"backend"`` / ``"backend_options"`` keys, which
load ignores.  Every entry's sequence must have its class's layout length
(one annotation per scored skeleton element); loading a document that
breaks this raises :class:`~repro.core.errors.SerializationError`.

Only JSON-scalar annotations (strings, numbers, booleans) are supported,
which covers both paper measures (categorical labels and numeric weights).
"""

from __future__ import annotations

import json
import warnings
from pathlib import Path
from typing import Any, Dict, Union

from ..core.distance import (
    DistanceMeasure,
    LinearMutationDistance,
    MutationDistance,
    MutationScoreMatrix,
)
from ..core.errors import SerializationError
from ..core.graph import LabeledGraph
from ..store.atomic import atomic_write_text
from .fragment_index import FragmentIndex
from .sharded import ShardedFragmentIndex

__all__ = [
    "measure_to_dict",
    "measure_from_dict",
    "index_to_dict",
    "index_from_dict",
    "index_wal_position",
    "save_index",
    "load_index",
    "INDEX_SCHEMA_VERSION",
    "SHARDED_INDEX_SCHEMA_VERSION",
    "WAL_INDEX_SCHEMA_VERSION",
    "SUPPORTED_INDEX_VERSIONS",
]


def measure_to_dict(measure: DistanceMeasure) -> Dict[str, Any]:
    """Serialize a distance measure (only the two paper measures supported)."""
    return measure.describe()


def measure_from_dict(data: Dict[str, Any]) -> DistanceMeasure:
    """Rebuild a distance measure from :func:`measure_to_dict` output."""
    name = data.get("name")
    include_vertices = data.get("include_vertices", True)
    include_edges = data.get("include_edges", True)
    if name == "mutation":
        matrix = MutationScoreMatrix.from_dict(data.get("matrix", {}))
        return MutationDistance(
            matrix=matrix,
            include_vertices=include_vertices,
            include_edges=include_edges,
        )
    if name == "linear":
        return LinearMutationDistance(
            include_vertices=include_vertices, include_edges=include_edges
        )
    raise SerializationError(f"unknown distance measure {name!r}")


#: current index schema version.  Version 2 added the per-class occurrence
#: count — version 1 conflated it with the distinct-entry count on reload,
#: because duplicate sequences collapse in the store — so a loaded index
#: reports statistics identical to the index that was saved.  Version 3
#: adds the incremental-update state: the retired (tombstoned) graph ids,
#: the mutation generation counter, and per-class *per-graph* occurrence
#: counts, so a reloaded index can keep mutating with exact statistics.
#: A single (unsharded) index still serializes at this version.
INDEX_SCHEMA_VERSION = 3

#: schema version of a *sharded* index: a manifest (sharding topology) plus
#: one version-3 payload per shard — embedded inline by
#: :func:`index_to_dict` or split into per-shard files by
#: :func:`save_index`.  Versions 1–3 keep loading as a single shard.
SHARDED_INDEX_SCHEMA_VERSION = 4

#: schema version of a *checkpoint* snapshot: structurally a version-3
#: single index (or a version-4 sharded manifest), plus a ``"wal"`` section
#: recording the log position the snapshot folds in
#: (``{"committed_lsn": N}``).  Loading a version-5 snapshot next to a
#: write-ahead log replays exactly the records beyond that position —
#: a version-3/4 snapshot is simply a version-5 snapshot at position 0.
WAL_INDEX_SCHEMA_VERSION = 5

#: schema versions this loader understands
SUPPORTED_INDEX_VERSIONS = (1, 2, 3, 4, 5)


def _sharded_manifest(index: ShardedFragmentIndex) -> Dict[str, Any]:
    """The shard-independent header of a sharded-index document."""
    return {
        "format": "pis-fragment-index",
        "version": SHARDED_INDEX_SCHEMA_VERSION,
        "measure": measure_to_dict(index.measure),
        "num_graphs": index.num_graphs,
        "sharding": {"num_shards": index.num_shards, "assignment": "modulo"},
    }


def _is_sharded_payload(data: Dict[str, Any]) -> bool:
    """Whether a serialized index document describes a sharded topology."""
    return "sharding" in data or "shards" in data or "shard_files" in data


def _stamp_wal_position(document: Dict[str, Any], wal_position) -> Dict[str, Any]:
    """Upgrade a v3/v4 document to a v5 snapshot carrying a WAL position."""
    if wal_position is None:
        return document
    document["version"] = WAL_INDEX_SCHEMA_VERSION
    document["wal"] = {"committed_lsn": int(wal_position)}
    return document


def index_wal_position(data: Dict[str, Any]) -> int:
    """The WAL position a serialized snapshot folds in (0 for v1–v4)."""
    wal = data.get("wal")
    if isinstance(wal, dict):
        return int(wal.get("committed_lsn", 0))
    return 0


def index_to_dict(
    index: Union[FragmentIndex, ShardedFragmentIndex],
    wal_position: Union[int, None] = None,
) -> Dict[str, Any]:
    """Serialize a built index to a JSON-friendly dict.

    A :class:`~repro.index.sharded.ShardedFragmentIndex` serializes as a
    version-4 manifest with one embedded version-3 payload per shard; a
    plain :class:`FragmentIndex` keeps the version-3 single-index schema.
    Passing ``wal_position`` upgrades the top-level document to a version-5
    checkpoint snapshot whose ``"wal"`` section records the log position it
    folds in (embedded shard payloads stay version 3 — the position is a
    whole-snapshot property).
    """
    if isinstance(index, ShardedFragmentIndex):
        manifest = _sharded_manifest(index)
        manifest["shards"] = [index_to_dict(shard) for shard in index.shards]
        return _stamp_wal_position(manifest, wal_position)
    classes = []
    for class_index in index.classes():
        grouped: Dict[Any, list] = {}
        for sequence, graph_id in class_index.entries():
            grouped.setdefault(tuple(sequence), []).append(graph_id)
        occurrences = class_index.occurrences_by_graph
        classes.append(
            {
                "skeleton": class_index.skeleton.to_dict(),
                "num_occurrences": class_index.num_occurrences,
                "occurrences_by_graph": [
                    [graph_id, occurrences[graph_id]]
                    for graph_id in sorted(occurrences)
                ],
                # Entries are written in a canonical (sorted) order, not the
                # store's insertion order: insertion order is sensitive to
                # set-iteration details that a pickle round-trip can change,
                # and a canonical form lets serially and parallel-built
                # indexes of identical content serialize byte-identically.
                "entries": sorted(
                    (
                        {"sequence": list(sequence), "graph_ids": sorted(graph_ids)}
                        for sequence, graph_ids in grouped.items()
                    ),
                    key=lambda entry: repr(entry["sequence"]),
                ),
            }
        )
    document = {
        "format": "pis-fragment-index",
        "version": INDEX_SCHEMA_VERSION,
        "measure": measure_to_dict(index.measure),
        "num_graphs": index.num_graphs,
        "removed_ids": sorted(index.removed_graph_ids),
        "generation": index.generation,
        "classes": classes,
    }
    return _stamp_wal_position(document, wal_position)


def index_from_dict(
    data: Dict[str, Any], strict: bool = False
) -> Union[FragmentIndex, ShardedFragmentIndex]:
    """Rebuild an index from :func:`index_to_dict` output.

    Accepts every schema version in :data:`SUPPORTED_INDEX_VERSIONS`;
    version-2 files restore exact per-class occurrence counts, version-1
    files keep their historical behaviour (occurrences == entries), and
    version-3 files additionally restore the incremental-update state
    (retired graph ids, generation counter, per-graph occurrence counts).
    Version-4 manifests with embedded shard payloads rebuild a
    :class:`~repro.index.sharded.ShardedFragmentIndex`; versions 1–3 load
    as a single (unsharded) index exactly as before.  Version-5 checkpoint
    snapshots load like their version-3/4 counterparts — the ``"wal"``
    position they carry is consumed by the engine's replay-on-load, not
    here (:func:`index_wal_position` extracts it).

    A file with *no* ``version`` field is suspicious — it is what a
    truncated or hand-mangled dump looks like — so it triggers a
    :class:`UserWarning` before being treated as version 1, or a
    :class:`~repro.core.errors.SerializationError` under ``strict=True``.
    """
    if data.get("format") != "pis-fragment-index":
        raise SerializationError("not a serialized PIS fragment index")
    if "version" not in data:
        message = (
            "serialized index has no 'version' field; assuming schema "
            "version 1 (a truncated or corrupted file can look like this)"
        )
        if strict:
            raise SerializationError(message)
        warnings.warn(message, UserWarning, stacklevel=2)
    version = data.get("version", 1)
    if version not in SUPPORTED_INDEX_VERSIONS:
        raise SerializationError(
            f"unsupported index schema version {version!r}; "
            f"supported: {list(SUPPORTED_INDEX_VERSIONS)}"
        )
    if version >= SHARDED_INDEX_SCHEMA_VERSION and _is_sharded_payload(data):
        shard_payloads = data.get("shards")
        if not shard_payloads:
            raise SerializationError(
                "sharded index manifest embeds no shard payloads; manifests "
                "that reference per-shard files must be loaded with "
                "load_index (which resolves the files)"
            )
        return ShardedFragmentIndex(
            [index_from_dict(payload, strict=strict) for payload in shard_payloads]
        )
    measure = measure_from_dict(data.get("measure", {}))
    index = FragmentIndex(features=[], measure=measure)
    for class_data in data.get("classes", []):
        skeleton = LabeledGraph.from_dict(class_data["skeleton"])
        code = index.add_feature(skeleton)
        class_index = index.get_class(code)
        length = class_index.store.length
        for entry in class_data.get("entries", []):
            sequence = tuple(entry["sequence"])
            if len(sequence) != length:
                raise SerializationError(
                    f"index entry {list(sequence)!r} has {len(sequence)} "
                    f"annotations; its class's sequences have {length}"
                )
            for graph_id in entry["graph_ids"]:
                class_index.insert_sequence(sequence, graph_id)
        stored_occurrences = class_data.get("num_occurrences")
        if stored_occurrences is not None:
            class_index._num_occurrences = int(stored_occurrences)
        per_graph = class_data.get("occurrences_by_graph")
        if per_graph is not None:
            class_index._occurrences_by_graph = {
                int(graph_id): int(count) for graph_id, count in per_graph
            }
    index._num_graphs = int(data.get("num_graphs", 0))
    index._removed_ids = {int(graph_id) for graph_id in data.get("removed_ids", [])}
    index._generation = int(data.get("generation", index.generation))
    index._built = True
    return index


def save_index(
    index: Union[FragmentIndex, ShardedFragmentIndex],
    path: Union[str, Path],
    wal_position: Union[int, None] = None,
) -> None:
    """Write an index to JSON: one file, or a manifest plus per-shard files.

    A plain :class:`FragmentIndex` writes a single version-3 document.  A
    :class:`~repro.index.sharded.ShardedFragmentIndex` writes a version-4
    *manifest* at ``path`` that names one payload file per shard
    (``<stem>.shard<K>.json``, written next to the manifest), so shards can
    be inspected, copied, or re-hosted independently; :func:`load_index`
    resolves the shard files relative to the manifest.  ``wal_position``
    upgrades the manifest to a version-5 checkpoint snapshot.

    Every file is replaced atomically (write-temp + fsync + rename), so a
    crash mid-save can never leave a torn index file — the old snapshot
    survives until the new one is durable.
    """
    path = Path(path)
    try:
        if isinstance(index, ShardedFragmentIndex):
            manifest = _sharded_manifest(index)
            shard_files = []
            for position, shard in enumerate(index.shards):
                shard_name = f"{path.stem}.shard{position}{path.suffix or '.json'}"
                atomic_write_text(
                    path.parent / shard_name, json.dumps(index_to_dict(shard))
                )
                shard_files.append(shard_name)
            manifest["shard_files"] = shard_files
            _stamp_wal_position(manifest, wal_position)
            atomic_write_text(path, json.dumps(manifest))
            return
        atomic_write_text(
            path, json.dumps(index_to_dict(index, wal_position=wal_position))
        )
    except OSError as exc:
        raise SerializationError(f"cannot write index to {path}: {exc}") from exc
    except TypeError as exc:
        raise SerializationError(
            f"index contains annotations that are not JSON-serializable: {exc}"
        ) from exc


def load_index(
    path: Union[str, Path], strict: bool = False
) -> Union[FragmentIndex, ShardedFragmentIndex]:
    """Load an index previously written by :func:`save_index`.

    Version-4 sharded manifests resolve their per-shard payload files
    relative to the manifest's directory (embedded-shard manifests load
    directly); versions 1–3 load as a single index.  ``strict=True`` turns
    the missing-``version`` warning of :func:`index_from_dict` into a
    :class:`SerializationError`, so pipelines that must not guess about
    corrupt files can opt out of the lenient default.
    """
    path = Path(path)
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise SerializationError(f"cannot load index from {path}: {exc}") from exc
    if (
        isinstance(data, dict)
        and data.get("version", 0) >= SHARDED_INDEX_SCHEMA_VERSION
        and "shard_files" in data
    ):
        shards = []
        for shard_name in data["shard_files"]:
            shard_path = path.parent / shard_name
            try:
                shard_data = json.loads(shard_path.read_text(encoding="utf-8"))
            except (OSError, json.JSONDecodeError) as exc:
                raise SerializationError(
                    f"cannot load shard payload {shard_path} referenced by "
                    f"manifest {path}: {exc}"
                ) from exc
            shards.append(index_from_dict(shard_data, strict=strict))
        return ShardedFragmentIndex(shards)
    return index_from_dict(data, strict=strict)
