#!/usr/bin/env python
"""Inside the partition-based search: selectivity, overlap graph, MWIS.

This example opens up the filtering phase of PIS on a single query: it
lists the indexed fragments found in the query, their selectivities, the
overlapping-relation graph, and the partitions chosen by the three MWIS
solvers (Greedy, EnhancedGreedy(2), exact) — the machinery of Section 5 of
the paper.  It asserts that the engine's partition is the one Greedy picks
on the overlap graph, and finally shows how the chosen partition's distance
lower bound prunes the candidate set.

Run with::

    python examples/partition_analysis.py
"""

from repro import (
    Engine,
    EngineConfig,
    QueryWorkload,
    enhanced_greedy_mwis,
    exact_mwis,
    generate_chemical_database,
    greedy_mwis,
)
from repro.search import OverlapGraph


def main():
    database = generate_chemical_database(80, seed=17)
    engine = Engine.build(
        database,
        EngineConfig(
            selector="exhaustive",
            selector_params={
                "max_edges": 4, "min_support": 0.1,
                "sample_size": 30, "max_features": 120,
            },
        ),
    )
    query = QueryWorkload(database, seed=2).sample_queries(num_edges=14, count=1)[0]
    sigma = 2

    # The engine's configured strategy is the PISearch instance; its
    # filtering phase is open for inspection.
    pis = engine.strategy
    outcome = pis.filter_candidates(query, sigma)

    print(f"query: {query.num_vertices} vertices / {query.num_edges} edges, sigma={sigma}")
    print(f"indexed fragments found in the query: {len(outcome.fragments)}")
    print(f"{'fragment':>9}  {'edges':>5}  {'selectivity':>11}  covered query vertices")
    ranked = sorted(
        range(len(outcome.fragments)),
        key=lambda position: -outcome.selectivities[position],
    )
    for position in ranked[:10]:
        fragment = outcome.fragments[position]
        print(f"{position:>9}  {fragment.num_edges:>5}  "
              f"{outcome.selectivities[position]:>11.3f}  {sorted(fragment.vertices)}")
    if len(ranked) > 10:
        print(f"  ... and {len(ranked) - 10} more")

    # The overlapping-relation graph over the fragments that survive the
    # selectivity floor (the ones the engine partitions), and the three
    # MWIS solvers.  The engine's greedy partition never builds this graph.
    eligible = [
        position
        for position in range(len(outcome.fragments))
        if outcome.selectivities[position] > pis.epsilon
    ]
    overlap = OverlapGraph.build(
        [outcome.fragments[position] for position in eligible],
        [outcome.selectivities[position] for position in eligible],
    )
    print(f"\noverlapping-relation graph: {overlap.num_nodes} nodes, "
          f"{overlap.num_edges} overlap edges")
    greedy = greedy_mwis(overlap)
    enhanced = enhanced_greedy_mwis(overlap, k=2)
    print(f"Greedy            : {len(greedy.nodes)} fragments, weight {greedy.weight:.3f}")
    print(f"EnhancedGreedy(2) : {len(enhanced.nodes)} fragments, weight {enhanced.weight:.3f}")
    if overlap.num_nodes <= 28:
        exact = exact_mwis(overlap)
        print(f"exact MWIS        : {len(exact.nodes)} fragments, weight {exact.weight:.3f}")
        print(f"greedy optimality ratio: {greedy.weight / exact.weight:.3f}")
    else:
        print("exact MWIS        : skipped (overlap graph too large)")

    # The engine's partition is exactly what Greedy picks on the graph.
    partition = outcome.partition
    greedy_fragments = [outcome.fragments[eligible[node]] for node in sorted(greedy.nodes)]
    assert partition.fragments == greedy_fragments, "engine partition differs from Greedy"
    assert partition.weight == greedy.weight, "engine partition weight differs from Greedy"

    # What the partition's lower bound buys.
    print(f"\nchosen partition: {partition.size} vertex-disjoint fragments, "
          f"total selectivity {partition.weight:.3f}")
    print(f"structure-only candidates : {outcome.report.num_structure_candidates}")
    print(f"after distance lower bound: {outcome.report.num_candidates}")

    result = engine.search(query, sigma)
    print(f"true answers              : {result.num_answers}")


if __name__ == "__main__":
    main()
