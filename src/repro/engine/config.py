"""Declarative engine configuration.

An :class:`EngineConfig` captures every choice that goes into building and
querying a PIS engine — which feature selector picks the indexed
structures, which distance measure defines the semantics (and with it each
class's range-query store), and which search strategy (with which
parameters) answers queries — as plain data.  Components are referenced by
their registry names (:func:`repro.mining.make_selector`,
:func:`repro.search.make_strategy`), so a config round-trips through JSON
and an engine saved to disk can be rebuilt with identical behaviour.
"""

from __future__ import annotations

import copy
import dataclasses
from dataclasses import dataclass, field
from typing import Any, Dict, Optional

from ..core.distance import DistanceMeasure, default_edge_mutation_distance
from ..core.errors import EngineConfigError
from ..index.persistence import measure_from_dict, measure_to_dict

__all__ = ["EngineConfig"]

#: keys of earlier configs that :meth:`EngineConfig.from_dict` drops, so
#: saved configs that carry them keep loading: the per-class range-query
#: store (the measure decides it now), the verification knobs (the engine
#: verifies one way: the bounded verifier with the array kernel, serially
#: in the thread that runs the query) and the plan-cache bound (plans are
#: not cached; the index memoizes fragments and range queries)
_RETIRED_KEYS = (
    "backend",
    "backend_options",
    "rebuild_threshold",
    "verifier",
    "verify_workers",
    "kernel",
    "plan_cache_size",
)

#: ``strategy_params`` keys that :meth:`EngineConfig.from_dict` drops and
#: the constructor refuses: they selected a strategy's verifier and
#: kernel, which no strategy selects any more
_RETIRED_STRATEGY_PARAMS = ("verifier", "verify_kernel")


@dataclass
class EngineConfig:
    """Everything needed to build (and rebuild) an engine, as plain data.

    Attributes
    ----------
    selector / selector_params:
        Registry name of the feature selector plus its constructor
        parameters (e.g. ``"exhaustive"`` with ``{"max_edges": 4}``).
    measure:
        Serialized distance measure (:func:`repro.index.measure_to_dict`
        output) or ``None`` for the paper's default edge-label mutation
        distance.  Every class keeps one range-query store whatever the
        measure; the measure scores its annotations.
    strategy / strategy_params:
        Registry name of the search strategy plus its constructor
        parameters (e.g. ``"pis"`` with ``{"partition_method": "exact"}``).
        ``verifier`` and ``verify_kernel`` are refused: the engine verifies
        one way.
    verify:
        When false, :meth:`repro.engine.Engine.search` stops after the
        filtering phase and reports an empty answer set — useful for
        pruning-power studies that must not pay for verification.  When
        true, candidates are verified by
        :class:`repro.search.BoundedVerifier` with the array kernel,
        serially in the thread that runs the query or the shard task.
    shards:
        Number of database shards (default ``1`` = the classic unsharded
        engine).  With ``shards > 1``, :meth:`repro.engine.Engine.build`
        partitions the graph-id space across per-shard fragment indexes
        (:class:`repro.index.ShardedFragmentIndex`) and every search
        scatter-gathers across the shards — answers are byte-identical to
        the unsharded engine.
    executor:
        Registry name of the :mod:`repro.exec` executor (``"serial"``,
        ``"thread"`` — the default — or ``"process"``) that runs the shard
        scatter-gather of a sharded engine; each shard task verifies its
        candidates serially.  ``"process"`` is the only kind that sidesteps
        the GIL for pure-Python CPU work; its workers fork from the engine's
        process (scatter workers inherit the shards instead of receiving
        them) and it degrades to serial where ``fork`` or process pools are
        unavailable.
    result_cache_size:
        Capacity of the serving-mode query-result cache
        (:class:`repro.serve.QueryResultCache`), in results.  The cache
        only exists on a *started* engine (:meth:`repro.engine.Engine.\
start`); ``0`` disables it even there.  Entries are keyed by query
        content, sigma, the engine fingerprint, and the index generation,
        so a hit is always byte-identical to a fresh search.
    serve_batch_window_ms:
        Default micro-batching window of :class:`repro.serve.QueryServer`:
        how long the server waits, after one query arrives, for more
        concurrent queries to join the same ``search_many`` batch.  ``0``
        batches only queries that are already queued.
    serve_max_batch:
        Default batch-size cap of the query server; a full batch
        dispatches immediately without waiting out the window.
    serve_max_queue:
        Admission-control bound of the query server's submission queue.
        A query arriving while ``serve_max_queue`` submissions are already
        waiting is *shed* — rejected immediately with a retryable
        ``overloaded`` error — instead of buffering without bound.  ``0``
        disables the bound (the pre-admission-control behaviour).
    serve_max_inflight_per_conn:
        Per-connection pipelining cap of the TCP front: how many requests
        of one connection may be in flight at once.  When a connection
        reaches the cap the server stops reading its socket until a
        response completes (TCP flow control pushes the backpressure to
        the client), so one pipelining client cannot monopolize the
        submission queue.  ``0`` removes the cap.
    serve_max_request_bytes:
        Largest request line (one JSON object) the TCP front accepts.
        Longer lines are discarded without buffering them and answered
        with a structured ``too_large`` error — the connection survives.
        The server frames lines itself, so requests above asyncio's
        default 64 KiB stream limit are fine up to this bound.
    durability:
        Mutation durability mode: ``"none"`` (the default — mutations
        apply in memory only, exactly the pre-WAL behaviour) or ``"wal"``
        (every :meth:`repro.engine.Engine.add_graphs` /
        :meth:`~repro.engine.Engine.remove_graphs` batch is fsync'd to a
        write-ahead log *before* the in-memory index mutates, and
        :meth:`~repro.engine.Engine.load` replays committed batches the
        last snapshot missed — see :mod:`repro.store`).
    """

    selector: str = "exhaustive"
    selector_params: Dict[str, Any] = field(default_factory=dict)
    measure: Optional[Dict[str, Any]] = None
    strategy: str = "pis"
    strategy_params: Dict[str, Any] = field(default_factory=dict)
    verify: bool = True
    shards: int = 1
    executor: str = "thread"
    result_cache_size: int = 1024
    serve_batch_window_ms: float = 2.0
    serve_max_batch: int = 32
    serve_max_queue: int = 1024
    serve_max_inflight_per_conn: int = 32
    serve_max_request_bytes: int = 1_048_576
    durability: str = "none"

    def __post_init__(self):
        if self.durability not in ("none", "wal"):
            raise EngineConfigError(
                f"durability must be 'none' or 'wal', got {self.durability!r}"
            )
        if isinstance(self.shards, bool) or not isinstance(self.shards, int):
            raise EngineConfigError(
                f"shards must be an int >= 1, got {self.shards!r}"
            )
        if self.shards < 1:
            raise EngineConfigError(f"shards must be >= 1, got {self.shards}")
        if isinstance(self.result_cache_size, bool) or not isinstance(
            self.result_cache_size, int
        ):
            raise EngineConfigError(
                f"result_cache_size must be an int >= 0, "
                f"got {self.result_cache_size!r}"
            )
        if self.result_cache_size < 0:
            raise EngineConfigError(
                f"result_cache_size must be >= 0, got {self.result_cache_size}"
            )
        if (
            isinstance(self.serve_batch_window_ms, bool)
            or not isinstance(self.serve_batch_window_ms, (int, float))
            or self.serve_batch_window_ms < 0
        ):
            raise EngineConfigError(
                f"serve_batch_window_ms must be a number >= 0, "
                f"got {self.serve_batch_window_ms!r}"
            )
        self.serve_batch_window_ms = float(self.serve_batch_window_ms)
        if (
            isinstance(self.serve_max_batch, bool)
            or not isinstance(self.serve_max_batch, int)
            or self.serve_max_batch < 1
        ):
            raise EngineConfigError(
                f"serve_max_batch must be an int >= 1, "
                f"got {self.serve_max_batch!r}"
            )
        for attribute, minimum in (
            ("serve_max_queue", 0),
            ("serve_max_inflight_per_conn", 0),
            ("serve_max_request_bytes", 1),
        ):
            value = getattr(self, attribute)
            if (
                isinstance(value, bool)
                or not isinstance(value, int)
                or value < minimum
            ):
                raise EngineConfigError(
                    f"{attribute} must be an int >= {minimum}, got {value!r}"
                )
        for attribute in ("selector", "strategy", "executor"):
            value = getattr(self, attribute)
            if not isinstance(value, str) or not value:
                raise EngineConfigError(
                    f"{attribute} must be a non-empty string, got {value!r}"
                )
        for attribute in ("selector_params", "strategy_params"):
            value = getattr(self, attribute)
            if not isinstance(value, dict):
                raise EngineConfigError(
                    f"{attribute} must be a dict, got {type(value).__name__}"
                )
            # Own the nested dicts: dataclasses.replace would otherwise
            # alias them between the original and the copy.
            setattr(self, attribute, copy.deepcopy(value))
        retired = sorted(set(self.strategy_params) & set(_RETIRED_STRATEGY_PARAMS))
        if retired:
            raise EngineConfigError(
                f"strategy_params {retired} are retired: the engine verifies "
                "with the bounded verifier and the array kernel only"
            )
        if self.measure is not None:
            if isinstance(self.measure, DistanceMeasure):
                # Accept a live measure object and normalise it to its spec.
                self.measure = measure_to_dict(self.measure)
            elif isinstance(self.measure, dict):
                self.measure = copy.deepcopy(self.measure)
            else:
                raise EngineConfigError(
                    "measure must be a serialized measure dict, a "
                    f"DistanceMeasure, or None, got {type(self.measure).__name__}"
                )

    # ------------------------------------------------------------------
    # component resolution
    # ------------------------------------------------------------------
    def make_measure(self) -> DistanceMeasure:
        """Build the configured distance measure (default: edge mutation)."""
        if self.measure is None:
            return default_edge_mutation_distance()
        return measure_from_dict(self.measure)

    # ------------------------------------------------------------------
    # serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """Return a JSON-friendly dict that :meth:`from_dict` inverts.

        The nested dicts are deep-copied so mutating the returned value
        never corrupts the live config.
        """
        return {
            "selector": self.selector,
            "selector_params": copy.deepcopy(self.selector_params),
            "measure": copy.deepcopy(self.measure),
            "strategy": self.strategy,
            "strategy_params": copy.deepcopy(self.strategy_params),
            "verify": self.verify,
            "shards": self.shards,
            "executor": self.executor,
            "result_cache_size": self.result_cache_size,
            "serve_batch_window_ms": self.serve_batch_window_ms,
            "serve_max_batch": self.serve_max_batch,
            "serve_max_queue": self.serve_max_queue,
            "serve_max_inflight_per_conn": self.serve_max_inflight_per_conn,
            "serve_max_request_bytes": self.serve_max_request_bytes,
            "durability": self.durability,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "EngineConfig":
        """Rebuild a config from :meth:`to_dict` output.

        Unknown keys are rejected so that typos in hand-written config
        files fail loudly instead of being silently ignored.  The retired
        keys (``_RETIRED_KEYS``, and ``_RETIRED_STRATEGY_PARAMS`` inside
        ``strategy_params``) are dropped, whatever their value, so older
        saved configs load.
        """
        if not isinstance(data, dict):
            raise EngineConfigError(
                f"engine config must be a dict, got {type(data).__name__}"
            )
        data = {key: value for key, value in data.items() if key not in _RETIRED_KEYS}
        params = data.get("strategy_params")
        if isinstance(params, dict):
            data["strategy_params"] = {
                key: value
                for key, value in params.items()
                if key not in _RETIRED_STRATEGY_PARAMS
            }
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise EngineConfigError(
                f"unknown engine config keys: {sorted(unknown)}; "
                f"known keys: {sorted(known)}"
            )
        return cls(**data)

    def replace(self, **overrides) -> "EngineConfig":
        """Return a copy of the config with the given fields replaced."""
        return dataclasses.replace(self, **overrides)
