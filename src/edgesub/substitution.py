"""The layout of the edge-substituted graph X[V].

Every host edge is replaced by a copy of the substituent V, identifying the
marked vertices a and b with the oriented endpoints of the edge.  Vertex
ordering is deterministic: host vertices first in X order, then interior
vertices in (edge index, interior index) lexicographic order, so interior
vertex i of edge e is vertex |X| + e |V°| + i, and X[V] has
`SubstitutedGraph.n` = |X| + |E_X| |V°| vertices.  This layout is read only
through `interior_block` (the interior vertices as an (edge, interior index)
block) and `edge_ends` (|E_X| rows (e^a, e^b)).  Every eigenfunction family
in `extensions` writes whole rows of the block, so none of them builds X[V]
itself: the exact `WeightedGraph` is `SubstitutedGraph.graph`, built on
first read (by residuals, the oracle and the `substitute` command).  The
layout raises `GraphInvariantError` when its orientation is not one of the
host; the substituent is valid by construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import GraphInvariantError
from .graph import Orientation, Substituent, WeightedGraph


@dataclass(frozen=True)
class SubstitutedGraph:
    host: WeightedGraph
    orientation: Orientation
    substituent: Substituent

    def __post_init__(self):
        g, X = self.orientation.graph, self.host
        if not (g is X or g == X):
            raise GraphInvariantError(
                f"orientation of another graph ({g.n} vertices, {g.num_edges} edges)"
                f" than the host ({X.n} vertices, {X.num_edges} edges)"
            )

    @cached_property
    def n(self) -> int:
        """The number of vertices of X[V], |X| + |E_X| |V°|."""
        return self.host.n + self.host.num_edges * len(self.substituent.interior)

    @cached_property
    def graph(self) -> WeightedGraph:
        """X[V] with conductances a_X(e) * a_V(edge of V), built on first read."""
        X, s = self.host, self.substituent
        V = s.graph
        labels = list(X.vertices) + [
            f"({e}:{V.vertices[v]})" for e in range(X.num_edges) for v in s.interior
        ]
        # copies[e, v]: the X[V] vertex of vertex v on edge e's copy of V
        copies = np.empty((X.num_edges, V.n), dtype=np.intp)
        copies[:, list(s.interior)] = np.arange(X.n, len(labels)).reshape(
            X.num_edges, len(s.interior)
        )
        copies[:, [s.a, s.b]] = self.edge_ends
        edges = [
            (copy[u], copy[v], ax * c)
            for copy, (_, _, ax) in zip(copies.tolist(), X.edges)
            for u, v, c in V.edges
        ]
        return WeightedGraph(labels, edges)

    @cached_property
    def edge_ends(self) -> np.ndarray:
        """The (|E_X|, 2) index array of e^a and e^b, in edge order: e^b is
        the endpoint sum less the head."""
        heads = np.array(self.orientation.heads, dtype=np.intp)
        sums = np.array([u + v for u, v, _ in self.host.edges], dtype=np.intp)
        return np.column_stack((heads, sums - heads))

    @cached_property
    def edge_conductances(self) -> np.ndarray:
        """The host conductances a(e) as floats, in edge order."""
        return np.array([c.numerator / c.denominator for _, _, c in self.host.edges])

    def interior_block(self, values: np.ndarray) -> np.ndarray:
        """The interior entries of a function on X[V] as an (|E_X|, |V°|) view.

        Row e holds edge e's copy of the interior, in `substituent.interior`
        order; writing to the view writes `values`.
        """
        return values[self.host.n :].reshape(
            self.host.num_edges, len(self.substituent.interior)
        )

    def vertex_kind(self, x: int):
        """('host', x) or ('interior', edge index, substituent vertex)."""
        if x < self.host.n:
            return ("host", x)
        interior = self.substituent.interior
        e, i = divmod(x - self.host.n, len(interior))
        return ("interior", e, interior[i])


def substitute(X: WeightedGraph, orient: Orientation, s: Substituent) -> SubstitutedGraph:
    """The layout of X[V]; its graph is built on first read of `.graph`."""
    return SubstitutedGraph(X, orient, s)
