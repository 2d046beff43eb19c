"""Core substrate: graphs, isomorphism, distances, canonical codes, fragments."""

from .errors import (
    DatasetError,
    DistanceError,
    DuplicateEdgeError,
    DuplicateVertexError,
    EdgeNotFoundError,
    EngineConfigError,
    EngineError,
    FeatureNotIndexedError,
    GraphError,
    IncompatibleGraphsError,
    IndexError_,
    IndexNotBuiltError,
    InvalidSigmaError,
    StaleShardStateError,
    PartitionError,
    PISError,
    SerializationError,
    UnknownComponentError,
    VertexNotFoundError,
)
from .graph import DEFAULT_LABEL, GraphStats, LabeledGraph, edge_key
from .database import DatabaseStats, GraphDatabase
from .isomorphism import (
    Embedding,
    automorphisms,
    count_embeddings,
    find_embeddings,
    has_embedding,
    is_isomorphic,
    is_subgraph,
    iter_embeddings,
)
from .distance import (
    DistanceMeasure,
    LinearMutationDistance,
    MutationDistance,
    MutationScoreMatrix,
    default_edge_mutation_distance,
)
from .superimposed import (
    INFINITE_DISTANCE,
    SuperpositionResult,
    best_superposition,
    graph_pair_distance,
    minimum_superimposed_distance,
    within_distance,
)
from .canonical import (
    CanonicalCode,
    adjacency_code,
    code_to_graph,
    labeled_code,
    min_dfs_code,
    min_dfs_vertex_order,
    structure_code,
)
from .fragments import (
    FragmentEnumerator,
    iter_edge_shapes,
)

__all__ = [
    # errors
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
    # graph
    "LabeledGraph",
    "GraphStats",
    "edge_key",
    "DEFAULT_LABEL",
    # database
    "GraphDatabase",
    "DatabaseStats",
    # isomorphism
    "Embedding",
    "iter_embeddings",
    "find_embeddings",
    "count_embeddings",
    "has_embedding",
    "is_subgraph",
    "is_isomorphic",
    "automorphisms",
    # distance
    "DistanceMeasure",
    "MutationDistance",
    "LinearMutationDistance",
    "MutationScoreMatrix",
    "default_edge_mutation_distance",
    # superimposed
    "SuperpositionResult",
    "best_superposition",
    "minimum_superimposed_distance",
    "within_distance",
    "graph_pair_distance",
    "INFINITE_DISTANCE",
    # canonical
    "CanonicalCode",
    "min_dfs_code",
    "min_dfs_vertex_order",
    "structure_code",
    "labeled_code",
    "code_to_graph",
    "adjacency_code",
    # fragments
    "FragmentEnumerator",
    "iter_edge_shapes",
]
