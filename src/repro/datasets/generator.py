"""Synthetic chemical-like graph generators (AIDS screen substitute).

The paper's experiments use a 10,000-graph sample of the NCI/NIH AIDS
antiviral screen dataset: molecules averaging 25 atoms and 27 bonds, heavily
dominated by carbon atoms and carbon–carbon single bonds, rich in fused 5-
and 6-membered rings.  That dataset is not redistributable here, so the
generators in this module produce graphs with the same characteristics that
matter for the paper's experiments:

* ring-rich topology (molecules are built from 5/6-rings connected by
  bridges and decorated with side chains), so many graphs share common
  substructures and structure-only filtering is weak;
* skewed label distributions (mostly ``C`` atoms and ``single`` bonds), so
  label information — not topology — is what distinguishes graphs, which is
  exactly the regime the superimposed distance targets;
* sizes tuned to the paper's averages (~25 vertices, ~27 edges by default).

All generation is driven by a seeded :class:`random.Random`, so every
experiment in this repository is reproducible bit for bit.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.database import GraphDatabase
from ..core.graph import LabeledGraph

__all__ = [
    "ATOM_LABELS",
    "BOND_LABELS",
    "ChemicalGeneratorConfig",
    "ChemicalGraphGenerator",
    "WeightedGraphGenerator",
    "generate_chemical_database",
    "generate_weighted_database",
]

#: Atom alphabet with AIDS-like skew (carbon dominates).
ATOM_LABELS: Dict[str, float] = {"C": 0.78, "N": 0.09, "O": 0.09, "S": 0.03, "Cl": 0.01}

#: Bond alphabet with AIDS-like skew (single bonds dominate).
BOND_LABELS: Dict[str, float] = {"single": 0.72, "double": 0.17, "aromatic": 0.11}


def _weighted_choice(rng: random.Random, weights: Dict[str, float]) -> str:
    labels = list(weights)
    return rng.choices(labels, weights=[weights[l] for l in labels], k=1)[0]


@dataclass
class ChemicalGeneratorConfig:
    """Tunable knobs of the chemical-like generator.

    The defaults reproduce the paper's dataset statistics (about 25 vertices
    and 27 edges per graph on average).
    """

    min_rings: int = 1
    max_rings: int = 4
    ring_sizes: Tuple[int, ...] = (5, 6, 6)
    min_chains: int = 2
    max_chains: int = 6
    min_chain_length: int = 1
    max_chain_length: int = 4
    bridge_lengths: Tuple[int, ...] = (0, 0, 1, 2)
    atom_labels: Dict[str, float] = field(default_factory=lambda: dict(ATOM_LABELS))
    bond_labels: Dict[str, float] = field(default_factory=lambda: dict(BOND_LABELS))
    extra_edge_probability: float = 0.15
    #: optional scaffold families: each molecule draws its ring-size palette
    #: from one family, which creates structural sub-populations (as real
    #: screening libraries have) and therefore queries of varying rarity.
    ring_size_families: Tuple[Tuple[int, ...], ...] = (
        (6, 6, 6),
        (5, 6, 6),
        (5, 5, 6),
        (3, 5, 6),
        (4, 6, 6),
        (6, 6, 7),
    )
    family_weights: Tuple[float, ...] = (0.34, 0.26, 0.16, 0.09, 0.09, 0.06)


class ChemicalGraphGenerator:
    """Generates connected, molecule-like labeled graphs."""

    def __init__(
        self, config: Optional[ChemicalGeneratorConfig] = None, seed: int = 7
    ):
        self.config = config or ChemicalGeneratorConfig()
        self.seed = seed

    # ------------------------------------------------------------------
    def generate(self, count: int) -> GraphDatabase:
        """Generate ``count`` graphs into a fresh :class:`GraphDatabase`."""
        rng = random.Random(self.seed)
        database = GraphDatabase(name=f"synthetic-chemical-{count}")
        for index in range(count):
            database.add(self.generate_one(rng, name=f"mol-{index}"))
        return database

    def generate_one(self, rng: random.Random, name: str = "") -> LabeledGraph:
        """Generate a single molecule-like graph."""
        config = self.config
        graph = LabeledGraph(name=name)
        next_vertex = 0

        def new_atom() -> int:
            nonlocal next_vertex
            vertex = next_vertex
            graph.add_vertex(vertex, label=_weighted_choice(rng, config.atom_labels))
            next_vertex += 1
            return vertex

        def new_bond(u: int, v: int) -> None:
            if u != v and not graph.has_edge(u, v):
                graph.add_edge(u, v, label=_weighted_choice(rng, config.bond_labels))

        # 0. pick a scaffold family (ring-size palette) for this molecule
        if config.ring_size_families:
            palette = rng.choices(
                list(config.ring_size_families),
                weights=list(config.family_weights)[: len(config.ring_size_families)],
                k=1,
            )[0]
        else:
            palette = config.ring_sizes

        # 1. rings
        ring_anchor_vertices: List[int] = []
        num_rings = rng.randint(config.min_rings, config.max_rings)
        for _ in range(num_rings):
            size = rng.choice(palette)
            ring = [new_atom() for _ in range(size)]
            for position in range(size):
                new_bond(ring[position], ring[(position + 1) % size])
            anchor = rng.choice(ring)
            if ring_anchor_vertices:
                # connect to a previous ring through a bridge of 0..2 atoms
                previous = rng.choice(ring_anchor_vertices)
                bridge_length = rng.choice(config.bridge_lengths)
                chain_start = previous
                for _ in range(bridge_length):
                    atom = new_atom()
                    new_bond(chain_start, atom)
                    chain_start = atom
                new_bond(chain_start, anchor)
            ring_anchor_vertices.append(anchor)

        # 2. side chains
        num_chains = rng.randint(config.min_chains, config.max_chains)
        for _ in range(num_chains):
            attach_to = rng.randrange(next_vertex)
            length = rng.randint(config.min_chain_length, config.max_chain_length)
            current = attach_to
            for _ in range(length):
                atom = new_atom()
                new_bond(current, atom)
                current = atom

        # 3. occasional extra bond closing a larger ring
        if rng.random() < config.extra_edge_probability and next_vertex >= 4:
            u, v = rng.sample(range(next_vertex), 2)
            new_bond(u, v)

        return graph


class WeightedGraphGenerator:
    """Generates graphs whose edges carry numeric weights (for LD).

    The topology comes from :class:`ChemicalGraphGenerator`; every edge
    additionally receives a weight drawn from a Gaussian whose mean depends
    on the bond label (mimicking bond lengths), and every vertex a weight
    drawn from a small positive range (mimicking partial charges).
    """

    #: mean edge weight per bond label
    BOND_WEIGHT_MEANS: Dict[str, float] = {
        "single": 1.54,
        "double": 1.34,
        "aromatic": 1.40,
    }

    def __init__(
        self,
        config: Optional[ChemicalGeneratorConfig] = None,
        seed: int = 11,
        weight_stddev: float = 0.08,
    ):
        self.topology_generator = ChemicalGraphGenerator(config=config, seed=seed)
        self.seed = seed
        self.weight_stddev = weight_stddev

    def generate(self, count: int) -> GraphDatabase:
        """Generate ``count`` weighted graphs."""
        rng = random.Random(self.seed)
        database = GraphDatabase(name=f"synthetic-weighted-{count}")
        for index in range(count):
            graph = self.topology_generator.generate_one(rng, name=f"wmol-{index}")
            for vertex in graph.vertices():
                graph.set_vertex_weight(vertex, round(rng.uniform(0.0, 1.0), 3))
            for (u, v) in graph.edges():
                mean = self.BOND_WEIGHT_MEANS.get(graph.edge_label(u, v), 1.5)
                graph.set_edge_weight(
                    u, v, round(max(0.5, rng.gauss(mean, self.weight_stddev)), 3)
                )
            database.add(graph)
        return database


def generate_chemical_database(
    count: int,
    seed: int = 7,
    config: Optional[ChemicalGeneratorConfig] = None,
) -> GraphDatabase:
    """Convenience wrapper: generate a chemical-like database of ``count`` graphs."""
    return ChemicalGraphGenerator(config=config, seed=seed).generate(count)


def generate_weighted_database(
    count: int,
    seed: int = 11,
    config: Optional[ChemicalGeneratorConfig] = None,
) -> GraphDatabase:
    """Convenience wrapper: generate a weighted database of ``count`` graphs."""
    return WeightedGraphGenerator(config=config, seed=seed).generate(count)
