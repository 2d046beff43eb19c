"""Fragment sequentialization.

Section 4 of the paper indexes fragments by first transforming them into
sequences: the skeleton of an equivalence class defines a canonical vertex
and edge order, and a concrete (labeled) fragment is represented by reading
its per-element annotations (labels for MD, weights for LD) in that order.
Two fragments of the same class can then be compared positionally with
:meth:`repro.core.distance.DistanceMeasure.sequence_distance`.

The canonical skeleton of a class is the graph reconstructed from its
minimum DFS code (:func:`repro.core.canonical.code_to_graph`): its vertex
ids are the DFS indices ``0..n-1`` and its edge iteration order is the DFS
code order.  A fragment occurrence is an *embedding* of the skeleton into a
host graph, and its sequence lists the host's annotations through the
embedding: vertices in DFS-index order, then edges in DFS-code order.
:class:`FragmentSequencer` holds that layout;
:class:`repro.core.fragments.FragmentEnumerator` reads every sequence
through it during its one enumeration pass over a graph, from annotation
tables built once per graph.

Because the database side keeps **all** embeddings of a feature structure
in each graph, automorphism variants of a fragment are all present there;
a query fragment therefore needs only one sequence for range queries to be
exact (see ``fragment_index``).
"""

from __future__ import annotations

from typing import List, Tuple

from ..core.canonical import CanonicalCode, code_to_graph
from ..core.distance import DistanceMeasure
from ..core.graph import LabeledGraph

__all__ = ["FragmentSequencer"]


class FragmentSequencer:
    """Sequence layout of one structural class.

    Parameters
    ----------
    code:
        The structure code (minimum DFS code of the unlabeled skeleton) that
        identifies the equivalence class.
    """

    def __init__(self, code: CanonicalCode):
        self.code = code
        self.skeleton: LabeledGraph = code_to_graph(code)
        #: skeleton vertices in sequence order (DFS-index order)
        self.vertex_order: List[int] = sorted(self.skeleton.vertices())
        #: skeleton edges in sequence order (DFS-code order)
        self.edge_order: List[Tuple[int, int]] = list(self.skeleton.edges())

    @property
    def num_vertices(self) -> int:
        """Number of vertices in the class skeleton."""
        return self.skeleton.num_vertices

    @property
    def num_edges(self) -> int:
        """Number of edges in the class skeleton."""
        return self.skeleton.num_edges

    def sequence_length(self, measure: DistanceMeasure) -> int:
        """Length of the annotation sequence under ``measure``."""
        length = 0
        if measure.include_vertices:
            length += self.num_vertices
        if measure.include_edges:
            length += self.num_edges
        return length
