"""Exception hierarchy for the PIS library.

Every error raised by the library derives from :class:`PISError` so callers
can catch library failures with a single ``except`` clause while still being
able to distinguish the individual failure modes.
"""

from __future__ import annotations

__all__ = [
    "PISError",
    "GraphError",
    "VertexNotFoundError",
    "EdgeNotFoundError",
    "DuplicateVertexError",
    "DuplicateEdgeError",
    "DistanceError",
    "IncompatibleGraphsError",
    "IndexError_",
    "FeatureNotIndexedError",
    "IndexNotBuiltError",
    "PartitionError",
    "DatasetError",
    "SerializationError",
    "EngineError",
    "EngineConfigError",
    "InvalidSigmaError",
    "StaleShardStateError",
    "UnknownComponentError",
    "ServeError",
    "ServeOverloadedError",
    "ServeShuttingDownError",
    "WalError",
    "WalCorruptionError",
]


class PISError(Exception):
    """Base class for all errors raised by the :mod:`repro` library."""


class GraphError(PISError):
    """Base class for errors related to graph construction or access."""


class VertexNotFoundError(GraphError, KeyError):
    """A vertex id was referenced that does not exist in the graph."""

    def __init__(self, vertex):
        super().__init__(f"vertex {vertex!r} is not in the graph")
        self.vertex = vertex


class EdgeNotFoundError(GraphError, KeyError):
    """An edge was referenced that does not exist in the graph."""

    def __init__(self, u, v):
        super().__init__(f"edge ({u!r}, {v!r}) is not in the graph")
        self.edge = (u, v)


class DuplicateVertexError(GraphError, ValueError):
    """A vertex id was added twice to the same graph."""

    def __init__(self, vertex):
        super().__init__(f"vertex {vertex!r} already exists in the graph")
        self.vertex = vertex


class DuplicateEdgeError(GraphError, ValueError):
    """An edge was added twice to the same graph."""

    def __init__(self, u, v):
        super().__init__(f"edge ({u!r}, {v!r}) already exists in the graph")
        self.edge = (u, v)


class DistanceError(PISError):
    """Base class for errors raised by superimposed distance measures."""


class IncompatibleGraphsError(DistanceError, ValueError):
    """Two graphs passed to a superimposed distance are not isomorphic."""


class IndexError_(PISError):
    """Base class for errors raised by the fragment-based index.

    The trailing underscore avoids shadowing the builtin :class:`IndexError`.
    """


class FeatureNotIndexedError(IndexError_, KeyError):
    """A structural equivalence class was queried that is not indexed."""

    def __init__(self, code):
        super().__init__(f"structure code {code!r} is not indexed")
        self.code = code


class IndexNotBuiltError(IndexError_, RuntimeError):
    """An operation requiring a built index was called before building it."""


class PartitionError(PISError, ValueError):
    """A query-graph partition could not be selected or is not vertex-disjoint.

    Raised, for instance, when the exact MWIS solver is asked to partition a
    query with more fragments than it is limited to.
    """


class DatasetError(PISError):
    """Errors raised by dataset generators, loaders, and query samplers."""


class SerializationError(PISError):
    """Errors raised while (de)serializing graphs or indexes."""


class EngineError(PISError):
    """Base class for errors raised by the :class:`repro.engine.Engine` facade."""


class EngineConfigError(EngineError, ValueError):
    """An engine configuration is malformed or inconsistent."""


class InvalidSigmaError(EngineError, ValueError):
    """A search threshold is NaN.

    No distance compares with NaN, so such a query would silently answer
    nothing.  Every other float is a defined threshold: a negative sigma
    answers no graph (superimposed distances are non-negative) and
    ``inf`` answers every live graph.
    """


class StaleShardStateError(EngineError):
    """A scatter task named shard state its process does not hold.

    Scatter tasks find their shard in the state the engine published
    before the pool forked (:mod:`repro.exec`).  A task whose publication
    token is unknown to the process, or whose index generation differs
    from the published one, is refused rather than answered from stale
    shards.
    """


class ServeError(EngineError):
    """Errors raised by the serving subsystem (:mod:`repro.serve`)."""


class ServeOverloadedError(ServeError):
    """A request was shed by admission control (the server is overloaded).

    Shedding happens *before* any work runs, so a shed request had no
    effect and is always safe to retry; ``retryable`` records that so
    generic handlers can branch on it without string-matching.
    :class:`repro.serve.ServeClient` raises this after its (optional)
    bounded exponential-backoff retries are exhausted.
    """

    retryable = True


class ServeShuttingDownError(ServeError):
    """A request arrived while the server was draining for shutdown.

    Like an overload shed, the request was rejected before any work ran —
    but the server is going away, so retrying against the same connection
    cannot succeed (``retryable`` is false).
    """

    retryable = False


class WalError(PISError):
    """Errors raised by the write-ahead log (:mod:`repro.store`)."""


class WalCorruptionError(WalError):
    """A WAL segment holds a record that fails its checksum mid-stream.

    A torn *tail* (the final record of the final segment cut short by a
    crash) is expected and silently dropped; corruption anywhere else means
    the log cannot be trusted and replay must stop loudly.
    """


class UnknownComponentError(EngineError, KeyError):
    """A registry lookup used a name no component was registered under."""

    def __init__(self, kind, name, available):
        super().__init__(
            f"unknown {kind} {name!r}; available: {sorted(available)}"
        )
        self.kind = kind
        self.name = name
        self.available = sorted(available)

    def __str__(self):
        # KeyError.__str__ reprs the message (adding quotes); report it plain.
        return self.args[0]

    def __reduce__(self):
        # BaseException pickling re-invokes cls(*args); args holds the
        # formatted message, not the constructor signature.
        return (self.__class__, (self.kind, self.name, self.available))
