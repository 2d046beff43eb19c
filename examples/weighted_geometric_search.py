#!/usr/bin/env python
"""Geometric (weighted) substructure search with the linear mutation distance.

Example 3 of the paper: when graph elements carry numeric weights (bond
lengths, distances, charges), the superimposed distance becomes the linear
mutation distance LD = sum |w - w'|, and each structural equivalence class
indexes its fragments' weight vectors for L1 range queries.  This example
builds an engine over a weighted database and checks every answer, with its
distance, against the exact naive scan.

Run with::

    python examples/weighted_geometric_search.py
"""

import time

from repro import (
    Engine,
    EngineConfig,
    LinearMutationDistance,
    NaiveSearch,
    QueryWorkload,
    generate_weighted_database,
)


def main():
    # --- 1. a weighted database ---------------------------------------------
    database = generate_weighted_database(80, seed=31)
    measure = LinearMutationDistance(include_vertices=False, include_edges=True)
    print(f"database: {len(database)} weighted graphs "
          f"(edge weights ~ bond lengths around 1.3-1.6)")

    # --- 2. the engine ---------------------------------------------------------
    config = EngineConfig(
        selector="paths",
        selector_params={"max_path_edges": 3, "include_cycles": True},
        measure=measure.describe(),
    )
    started = time.perf_counter()
    engine = Engine.build(database, config)
    print(f"index: {engine.index.num_classes} structure classes, "
          f"{engine.index.stats().num_entries} fragment vectors, "
          f"built in {time.perf_counter() - started:.2f}s")

    # --- 3. range queries ------------------------------------------------------
    # "Find graphs containing the query structure whose total edge-weight
    #  deviation is at most sigma."
    sigma = 0.4
    queries = QueryWorkload(database, seed=8).sample_queries(num_edges=7, count=4)

    # the exact answer: every graph verified with the reference search
    naive = NaiveSearch(database, measure)

    for position, query in enumerate(queries):
        started = time.perf_counter()
        result = engine.search(query, sigma)
        seconds = time.perf_counter() - started
        expected = naive.search(query, sigma)

        assert result.answer_ids == expected.answer_ids, (
            "PIS answers must match the naive scan"
        )
        assert result.answer_distances == expected.answer_distances, (
            "PIS answer distances must match the naive scan"
        )
        print(f"query {position}: sigma={sigma}  "
              f"candidates={result.num_candidates}/{len(database)}  "
              f"answers={result.num_answers}  "
              f"time={seconds:.2f}s  (== naive scan: ok)")

    print("all queries verified against the naive scan")


if __name__ == "__main__":
    main()
