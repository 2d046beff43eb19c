"""Fragment-based index: sequencers, range-query backends, class indexes."""

from .backends import (
    ClassIndexBackend,
    LinearScanBackend,
    available_backends,
    make_backend,
    register_backend,
)
from .class_index import EquivalenceClassIndex
from .fragment_index import FragmentIndex, IndexStats, QueryFragment
from .persistence import (
    index_from_dict,
    index_to_dict,
    load_index,
    measure_from_dict,
    measure_to_dict,
    save_index,
)
from .rtree import RTreeBackend, Rect
from .sequence import FragmentSequencer
from .sharded import (
    ShardDatabaseView,
    ShardedFragmentIndex,
    ShardedIndexStats,
    merge_search_results,
    shard_of,
)
from .trie import TrieBackend
from .vptree import VPTreeBackend

__all__ = [
    "ClassIndexBackend",
    "LinearScanBackend",
    "TrieBackend",
    "RTreeBackend",
    "Rect",
    "VPTreeBackend",
    "make_backend",
    "register_backend",
    "available_backends",
    "FragmentSequencer",
    "EquivalenceClassIndex",
    "FragmentIndex",
    "QueryFragment",
    "IndexStats",
    "ShardedFragmentIndex",
    "ShardedIndexStats",
    "ShardDatabaseView",
    "shard_of",
    "merge_search_results",
    "index_to_dict",
    "index_from_dict",
    "save_index",
    "load_index",
    "measure_to_dict",
    "measure_from_dict",
]
