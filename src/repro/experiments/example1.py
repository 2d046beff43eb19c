"""E8: the worked example of Section 1 (Figures 1 and 2).

The paper's Example 1 queries a three-molecule database with a bicyclic
query graph and a mutation-distance threshold of 2, expecting the first and
third molecules back.  This module reproduces the example end to end with
PIS (index build, partition-based filtering, verification) on the stand-in
molecules of :mod:`repro.datasets.molecules`.
"""

from __future__ import annotations

from ..core.distance import default_edge_mutation_distance
from ..core.superimposed import minimum_superimposed_distance
from ..datasets.molecules import example_database, figure2_query
from ..index.fragment_index import FragmentIndex
from ..mining.paths import PathFeatureSelector
from ..search.pis import PISearch
from .report import Table

__all__ = ["example1_table"]


def example1_table(sigma: float = 1.9) -> Table:
    """Run Example 1 and report per-molecule distances and the answer set."""
    database = example_database()
    query = figure2_query()
    measure = default_edge_mutation_distance()

    features = PathFeatureSelector(max_path_edges=3, include_cycles=True).select(
        database
    )
    index = FragmentIndex(features, measure).build(database)
    result = PISearch(database, index=index).search(query, sigma)

    table = Table(
        title="Example 1 — query of Figure 2 against the Figure 1 database "
        f"(edge mutation distance, sigma < 2)",
        columns=["molecule", "mutation distance to query", "returned"],
        notes=[
            "paper: distances 1 / 3 / 1, so the first and third molecules are returned",
        ],
    )
    for graph_id, graph in database.items():
        distance = minimum_superimposed_distance(query, graph, measure)
        table.add_row(
            [
                graph.name,
                distance,
                "yes" if graph_id in result.answer_ids else "no",
            ]
        )
    return table
