"""Weighted graphs, substituents, orientations, and the cycle base.

Vertices are dense integer indices 0..n-1; labels are metadata only.
Conductances are exact Fractions.  Parallel edges are allowed, loops are not.
Every float matrix of a graph is read from its float form (`arrays`), each
summed conductance and measure rounded once; only the Q° boundary rows
(`classify._boundary_map`) and `solve_S1`'s q(a, b) round an exact c/m.
The cycle base is a breadth-first spanning tree and its closing edges, one
per fundamental cycle; the nodal families complete each closing edge
through the tree, so no cycle is ever walked.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, reduce
from operator import add
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .errors import (
    EmptyInterior,
    GammaDoesNotSwapAB,
    GammaNotAutomorphism,
    GraphInvariantError,
    VMinusBDisconnected,
)


class FloatForm(NamedTuple):
    """A graph in floats: every ordered adjacent pair (x[k], y[k]) with its
    summed conductance a[k], and the measures m, each rounded once from its
    Fraction.  The arrays are read-only."""

    x: np.ndarray
    y: np.ndarray
    a: np.ndarray
    m: np.ndarray


@dataclass(frozen=True)
class WeightedGraph:
    """Connected undirected graph with at least one edge and positive
    rational conductances.

    The edges are aggregated once, at construction, into per-vertex
    neighbour -> summed conductance maps a(x, .), incident edge lists and
    measures m(x); every query reads these.
    """

    vertices: tuple
    edges: tuple[tuple[int, int, Fraction], ...]

    def __init__(self, vertices: Sequence, edges: Sequence):
        vs = tuple(vertices)
        es = []
        adj: list[dict[int, Fraction]] = [{} for _ in vs]
        incident: list[list[int]] = [[] for _ in vs]
        for k, (x, y, c) in enumerate(edges):
            c = c if isinstance(c, Fraction) else Fraction(c)
            if not (0 <= x < len(vs) and 0 <= y < len(vs)):
                raise GraphInvariantError(f"edge ({x},{y}) out of range")
            if x == y:
                raise GraphInvariantError(f"loop at vertex {x}")
            if c <= 0:
                raise GraphInvariantError(f"non-positive conductance on ({x},{y})")
            es.append((x, y, c))
            for u, v in ((x, y), (y, x)):
                row = adj[u]
                row[v] = row[v] + c if v in row else c
                incident[u].append(k)
        object.__setattr__(self, "vertices", vs)
        object.__setattr__(self, "edges", tuple(es))
        object.__setattr__(self, "_adj", tuple(adj))
        object.__setattr__(self, "_incident", tuple(map(tuple, incident)))
        object.__setattr__(
            self, "_m", tuple(reduce(add, row.values()) if row else Fraction(0) for row in adj)
        )
        if not vs:
            raise GraphInvariantError("empty vertex set")
        if not es:  # every measure is 0, so there is no walk
            raise GraphInvariantError("graph has no edges")
        if not self.connected_on(range(len(vs))):
            raise GraphInvariantError("graph is not connected")

    # -- structure ----------------------------------------------------

    @property
    def n(self) -> int:
        return len(self.vertices)

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def incident(self, x: int) -> list[int]:
        """Edge indices incident to x, in edge order."""
        return list(self._incident[x])

    def degree(self, x: int) -> int:
        return len(self._incident[x])

    def neighbors(self, x: int) -> list[int]:
        """Distinct neighbor indices, ascending."""
        return sorted(self._adj[x])

    def adjacency(self, x: int) -> dict[int, Fraction]:
        """Neighbour -> total conductance a(x, y) at x; shared, do not mutate."""
        return self._adj[x]

    def conductance(self, x: int, y: int) -> Fraction:
        """Total conductance between x and y (parallel edges summed)."""
        return self._adj[x].get(y, Fraction(0))

    def m(self, x: int) -> Fraction:
        """Total conductance at x."""
        return self._m[x]

    def connected_on(self, subset) -> bool:
        """True iff the induced subgraph on `subset` is connected (or empty)."""
        sub = set(subset)
        if not sub:
            return True
        start = next(iter(sub))
        seen = {start}
        queue = deque([start])
        while queue:
            for y in self._adj[queue.popleft()]:
                if y in sub and y not in seen:
                    seen.add(y)
                    queue.append(y)
        return seen == sub

    def bipartition(self) -> Optional[tuple[frozenset, frozenset]]:
        """Two color classes if bipartite, else None; vertex 0 is in the first."""
        color = [-1] * self.n
        color[0] = 0
        order = [0]
        for x in order:  # breadth-first: order grows while it is read
            for y in self._adj[x]:
                if color[y] < 0:
                    color[y] = 1 - color[x]
                    order.append(y)
                elif color[y] == color[x]:
                    return None
        second = frozenset(itertools.compress(range(self.n), color))
        return frozenset(range(self.n)) - second, second

    @cached_property
    def arrays(self) -> FloatForm:
        """The float form, built on first read and then cached.  Numerator /
        denominator skips the generic `numbers.Rational.__float__` path."""
        a = [c for row in self._adj for c in row.values()]
        form = FloatForm(
            np.repeat(np.arange(self.n), [len(row) for row in self._adj]),
            np.array([y for row in self._adj for y in row], dtype=np.intp),
            *(np.array([q.numerator / q.denominator for q in qs], dtype=float) for qs in (a, self._m)),
        )
        for array in form:
            array.flags.writeable = False
        return form

    @cached_property
    def delta_b(self) -> int:
        return 1 if self.bipartition() is not None else 0


@dataclass(frozen=True)
class Orientation:
    """Per-edge choice of initial endpoint e^a; the other endpoint is e^b."""

    graph: WeightedGraph
    heads: tuple[int, ...]  # heads[k] = e^a for edge k

    def __post_init__(self):
        edges = self.graph.edges
        if len(self.heads) != len(edges):
            raise GraphInvariantError(f"{len(self.heads)} heads for {len(edges)} edges")
        for h, (u, v, _) in zip(self.heads, edges):
            if h != u and h != v:
                raise GraphInvariantError(f"head {h!r} is not an endpoint of its edge ({u},{v})")

    def ea(self, k: int) -> int:
        return self.heads[k]

    def eb(self, k: int) -> int:
        u, v, _ = self.graph.edges[k]
        return v if self.heads[k] == u else u

    @staticmethod
    def default(g: WeightedGraph) -> "Orientation":
        """e^a = endpoint with the smaller index."""
        return Orientation(g, tuple(min(u, v) for u, v, _ in g.edges))


# ---------------------------------------------------------------------------
# Substituent
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Substituent:
    """A graph with marked vertices a, b and an automorphism swapping them."""

    graph: WeightedGraph
    a: int
    b: int
    gamma: tuple[int, ...]
    interior: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __init__(self, graph, a, b, gamma):
        object.__setattr__(self, "graph", graph)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "gamma", tuple(gamma))
        object.__setattr__(
            self, "interior", tuple(v for v in range(graph.n) if v not in (a, b))
        )


def _is_automorphism(g: WeightedGraph, perm: Sequence[int]) -> bool:
    """perm is a bijection of the vertices that keeps every conductance: the
    adjacency of each x, mapped by perm, is the adjacency of perm[x]."""
    if sorted(perm) != list(range(g.n)):
        return False
    return all(
        {perm[y]: c for y, c in g.adjacency(x).items()} == g.adjacency(perm[x])
        for x in range(g.n)
    )


def validate_substituent(s: Substituent) -> None:
    """Check all substituent invariants; raise the first violation."""
    g = s.graph
    swaps = (
        0 <= s.a < g.n
        and 0 <= s.b < g.n
        and s.a != s.b
        and len(s.gamma) == g.n
        and sorted(s.gamma) == list(range(g.n))
        and s.gamma[s.a] == s.b
        and s.gamma[s.b] == s.a
    )
    if not swaps:
        raise GammaDoesNotSwapAB(f"a={s.a}, b={s.b}, gamma={s.gamma}")
    if not _is_automorphism(g, s.gamma):
        raise GammaNotAutomorphism(f"gamma={s.gamma}")
    if not g.connected_on(v for v in range(g.n) if v != s.b):
        raise VMinusBDisconnected()
    if g.n <= 2:
        raise EmptyInterior()


def find_gamma(g: WeightedGraph, a: int, b: int) -> Optional[tuple[int, ...]]:
    """Exhaustive search for a valid gamma on small graphs (n <= 10)."""
    if g.n > 10:
        raise GraphInvariantError("gamma search is limited to n <= 10")
    rest = [v for v in range(g.n) if v not in (a, b)]
    for images in itertools.permutations(rest):
        perm = [0] * g.n
        perm[a], perm[b] = b, a
        for v, w in zip(rest, images):
            perm[v] = w
        if _is_automorphism(g, perm):
            return tuple(perm)
    return None


# ---------------------------------------------------------------------------
# Cycle base
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CycleBase:
    """A breadth-first spanning tree and the edges it leaves out.

    `parent` maps each non-root vertex to (parent vertex, tree edge index),
    in breadth-first order; `cycles` holds the non-tree edge indices in edge
    order, each closing one fundamental cycle through the tree."""

    graph: WeightedGraph
    parent: dict[int, tuple[int, int]] = field(repr=False, compare=False)
    cycles: tuple[int, ...]


def fundamental_cycle_base(g: WeightedGraph) -> CycleBase:
    """Spanning tree from vertex 0, neighbours visited in edge-index order,
    and its closing edges."""
    parent: dict[int, tuple[int, int]] = {}
    order = [0]
    for x in order:  # breadth-first: order grows while it is read
        for k in g.incident(x):
            u, v, _ = g.edges[k]
            y = v if u == x else u
            if y != 0 and y not in parent:
                parent[y] = (x, k)
                order.append(y)
    tree = {k for _, k in parent.values()}
    return CycleBase(g, parent, tuple(k for k in range(g.num_edges) if k not in tree))
