"""Construction of the edge-substituted graph X[V].

Every host edge is replaced by a copy of the substituent V, identifying the
marked vertices a and b with the oriented endpoints of the edge.  Vertex
ordering is deterministic: host vertices first in X order, then interior
vertices in (edge index, interior index) lexicographic order, so interior
vertex i of edge e is vertex |X| + e |V°| + i.  This layout is read only
through `SubstitutedGraph.interior_block` (the interior vertices as an
(edge, interior index) block), `edge_ends` (e^a and e^b of every edge) and
`pi` (the identification map, one vertex at a time).  Every eigenfunction
family in `extensions` writes whole rows of the block.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .graph import Orientation, Substituent, WeightedGraph


def _edge_ends(orient: Orientation) -> tuple[np.ndarray, np.ndarray]:
    edges = range(orient.graph.num_edges)
    return (
        np.array([orient.ea(e) for e in edges], dtype=np.intp),
        np.array([orient.eb(e) for e in edges], dtype=np.intp),
    )


@dataclass(frozen=True)
class SubstitutedGraph:
    graph: WeightedGraph
    host: WeightedGraph
    orientation: Orientation
    substituent: Substituent

    @cached_property
    def edge_ends(self) -> tuple[np.ndarray, np.ndarray]:
        """Index arrays of e^a and e^b over the host edges, in edge order."""
        return _edge_ends(self.orientation)

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

    def pi(self, e: int, v: int) -> int:
        """Identification map: vertex v of edge e's substituent copy in X[V]."""
        s = self.substituent
        if v == s.a:
            return self.orientation.ea(e)
        if v == s.b:
            return self.orientation.eb(e)
        return self.host.n + e * len(s.interior) + s.interior.index(v)


def substitute(X: WeightedGraph, orient: Orientation, s: Substituent) -> SubstitutedGraph:
    """Build X[V] with conductances a_X(e) * a_V(edge of V)."""
    V = s.graph
    labels = list(X.vertices) + [
        f"({e}:{V.vertices[v]})" for e in range(X.num_edges) for v in s.interior
    ]
    # copies[e, v]: the X[V] vertex of vertex v on edge e's copy of V
    copies = np.empty((X.num_edges, V.n), dtype=np.intp)
    copies[:, list(s.interior)] = np.arange(X.n, len(labels)).reshape(
        X.num_edges, len(s.interior)
    )
    copies[:, s.a], copies[:, s.b] = _edge_ends(orient)
    edges = [
        (copy[u], copy[v], ax * c)
        for copy, (_, _, ax) in zip(copies.tolist(), X.edges)
        for u, v, c in V.edges
    ]
    return SubstitutedGraph(WeightedGraph(labels, edges), X, orient, s)
