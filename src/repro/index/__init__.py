"""Fragment-based index: sequencers, per-class range-query stores, class indexes."""

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
from .sequence import FragmentSequencer
from .sharded import (
    ShardDatabaseView,
    ShardedFragmentIndex,
    ShardedIndexStats,
    merge_search_results,
    shard_of,
)

__all__ = [
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
