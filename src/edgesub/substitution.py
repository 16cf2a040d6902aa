"""Construction of the edge-substituted graph X[V].

Every host edge is replaced by a copy of the substituent V, identifying the
marked vertices a and b with the oriented endpoints of the edge.  Vertex
ordering is deterministic: host vertices first in X order, then interior
vertices in (edge index, interior index) lexicographic order, so interior
vertex i of edge e is vertex |X| + e |V°| + i.  Code may rely on this
contract: `extensions.transfer_extension` fills all interior vertices of X[V]
in one broadcast over (edge, interior index).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .graph import Orientation, Substituent, WeightedGraph
from .operators import ReversibleOperator, eigen


@dataclass(frozen=True)
class SubstitutedGraph:
    graph: WeightedGraph
    host: WeightedGraph
    orientation: Orientation
    substituent: Substituent
    interior_index: dict  # (edge index, substituent vertex) -> X[V] vertex

    @property
    def host_count(self) -> int:
        return self.host.n

    @cached_property
    def edge_ends(self) -> tuple[np.ndarray, np.ndarray]:
        """Index arrays of e^a and e^b over the host edges, in edge order."""
        edges = range(self.host.num_edges)
        o = self.orientation
        return (
            np.array([o.ea(e) for e in edges], dtype=np.intp),
            np.array([o.eb(e) for e in edges], dtype=np.intp),
        )

    def vertex_kind(self, x: int):
        """('host', x) or ('interior', edge index, substituent vertex)."""
        if x < self.host.n:
            return ("host", x)
        interior = self.substituent.interior
        e, i = divmod(x - self.host.n, len(interior))
        return ("interior", e, interior[i])

    def pi(self, e: int, v: int) -> int:
        """Identification map: vertex v of edge e's substituent copy in X[V]."""
        s = self.substituent
        if v == s.a:
            return self.orientation.ea(e)
        if v == s.b:
            return self.orientation.eb(e)
        return self.interior_index[(e, v)]


def substitute(X: WeightedGraph, orient: Orientation, s: Substituent) -> SubstitutedGraph:
    """Build X[V] with conductances a_X(e) * a_V(edge of V)."""
    V = s.graph
    interior = s.interior
    labels = list(X.vertices)
    interior_index: dict[tuple[int, int], int] = {}
    for e in range(X.num_edges):
        for v in interior:
            interior_index[(e, v)] = len(labels)
            labels.append(f"({e}:{V.vertices[v]})")

    def pi(e: int, v: int) -> int:
        if v == s.a:
            return orient.ea(e)
        if v == s.b:
            return orient.eb(e)
        return interior_index[(e, v)]

    edges = []
    for e in range(X.num_edges):
        ax = X.edges[e][2]
        for u, v, c in V.edges:
            edges.append((pi(e, u), pi(e, v), ax * c))

    g = WeightedGraph(labels, edges)
    return SubstitutedGraph(g, X, orient, s, interior_index)


def reorient_equivalence_check(
    X: WeightedGraph, s: Substituent, trials: int, seed: int, tol: float = 1e-8
) -> bool:
    """Spectra of X[V] agree as multisets across random orientations.

    A sanity test utility, not a proof of isomorphism.
    """
    rng = random.Random(seed)
    reference = None
    for _ in range(trials):
        orient = Orientation.random(X, rng)
        sub = substitute(X, orient, s)
        vals = np.sort(
            np.array(eigen(ReversibleOperator.full(sub.graph)).all_values())
        )
        if reference is None:
            reference = vals
        elif len(vals) != len(reference) or np.max(np.abs(vals - reference)) > tol:
            return False
    return True
