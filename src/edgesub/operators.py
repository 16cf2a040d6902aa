"""Reversible transition operators and their float eigendecompositions.

The operator P has entries p(x,y) = a(x,y)/m(x), kept as exact Fractions.
Eigendecomposition symmetrizes by s(x,y) = a(x,y)/sqrt(m(x)m(y)), so a
standard symmetric solver applies.  Every float matrix here is one scatter
from the graph's float form (`WeightedGraph.arrays`), which rounds each
conductance and measure once.  `eigen` finds the eigenvalues alone: on a
bipartite graph S = [[0, B], [B^T, 0]] over the colour classes, so they are
+- the singular values of B and |n1 - n2| zeros; otherwise `eigvalsh` of S.
The orthonormal eigenvectors u map back to m-orthonormal eigenfunctions
h = u/sqrt(m).  Those of an `EigenDecomposition` come from one `eigh` when
`bases` is first read.  The substituent operators Q and Q°, whose types
need every eigenvector, are factorized by `classify.cluster_types`: one
`_descending_eigh` gives their values and bases at once, clustered by
`_clustered`, the rule that `eigen` uses.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import accumulate
from operator import neg
from typing import Optional, Sequence

import numpy as np

from .graph import WeightedGraph

CLUSTER_TOL = 1e-8


@dataclass(frozen=True)
class ReversibleOperator:
    """Transition matrix of the weighted graph, restricted to `support`.

    With support a proper subset, entries to outside vertices are dropped
    but the measure is unchanged, so rows may sum to less than one.
    Indices of the operator are positions within `support`.
    """

    graph: WeightedGraph
    support: tuple[int, ...]

    @staticmethod
    def full(g: WeightedGraph) -> "ReversibleOperator":
        return ReversibleOperator(g, tuple(range(g.n)))

    @staticmethod
    def restricted(g: WeightedGraph, subset: Sequence[int]) -> "ReversibleOperator":
        return ReversibleOperator(g, tuple(sorted(subset)))

    @property
    def dim(self) -> int:
        return len(self.support)

    def measure(self, i: int) -> Fraction:
        return self.graph.m(self.support[i])

    def matrix_exact(self) -> list[list[Fraction]]:
        pos = {x: i for i, x in enumerate(self.support)}
        mat = [[Fraction(0)] * self.dim for _ in self.support]
        for row, x in zip(mat, self.support):
            for y, a in self.graph.adjacency(x).items():
                if y in pos:
                    row[pos[y]] = a / self.graph.m(x)
        return mat

    def matrix_float(self) -> np.ndarray:
        return _scatter(self.graph, self.support, self.support, symmetric=False)

    def symmetrized(self) -> np.ndarray:
        return _scatter(self.graph, self.support, self.support)


def _scatter(g: WeightedGraph, rows: Sequence[int], cols: Sequence[int], symmetric: bool = True) -> np.ndarray:
    """The (len(rows), len(cols)) matrix with a(x, y) / sqrt(m(x) m(y)), or
    a(x, y) / m(x) if not `symmetric`, at each adjacent pair of a vertex x in
    `rows` and a vertex y in `cols`, zeros elsewhere: one scatter from the
    float form of g."""
    form = g.arrays
    at = np.full((2, g.n), -1)
    at[0, list(rows)] = np.arange(len(rows))
    at[1, list(cols)] = np.arange(len(cols))
    i, j = at[0, form.x], at[1, form.y]
    hit = (i >= 0) & (j >= 0)
    mx, my = form.m[form.x[hit]], form.m[form.y[hit]]
    mat = np.zeros((len(rows), len(cols)))
    mat[i[hit], j[hit]] = form.a[hit] / (np.sqrt(mx * my) if symmetric else mx)
    return mat


@dataclass(frozen=True)
class EigenDecomposition:
    """Clustered eigenvalues (descending) with m-orthonormal eigenbases.

    `bases[k]` has one column per eigenfunction of cluster k; rows are
    indexed like the operator's support.  They are computed on first access
    and then cached.
    """

    operator: ReversibleOperator
    values: tuple[float, ...]
    multiplicities: tuple[int, ...]

    @cached_property
    def bases(self) -> tuple[np.ndarray, ...]:
        """One `eigh`, its vectors in descending order, split by the multiplicities."""
        _, h = _descending_eigh(self.operator)
        return _split(h, self.multiplicities)

    @property
    def dim(self) -> int:
        return sum(self.multiplicities)

    def value_multiset(self) -> list[tuple[float, int]]:
        return list(zip(self.values, self.multiplicities))

    def cluster_near(self, value: float) -> Optional[int]:
        """The cluster nearest `value` among those within 1e-7 of it, or None;
        of two equally near, the lower index.  The descending `values` put
        the nearest next to the insertion point of `value`."""
        k = bisect_left(self.values, -value, key=neg)
        above = abs(self.values[k - 1] - value) if k else math.inf
        below = abs(self.values[k] - value) if k < len(self.values) else math.inf
        if not min(above, below) <= 1e-7:  # a NaN is near no cluster
            return None
        return k - 1 if above <= below else k


def _descending_values(op: ReversibleOperator) -> list[float]:
    """Every eigenvalue of the operator, descending.  A bipartite graph's
    colouring splits any support, as no entry of S joins two vertices of one
    class, and only the n1 x n2 block between the classes is built."""
    colours = op.graph.bipartition()
    if colours is None:
        return np.linalg.eigvalsh(op.symmetrized())[::-1].tolist()
    left = [x for x in op.support if x in colours[0]]
    right = [x for x in op.support if x not in colours[0]]
    sigma = np.linalg.svd(_scatter(op.graph, left, right), compute_uv=False).tolist()
    return sigma + [0.0] * abs(len(left) - len(right)) + [-s for s in reversed(sigma)]


def _clustered(descending: list[float]) -> tuple[tuple[float, ...], tuple[int, ...]]:
    """(values, multiplicities) of descending eigenvalues: eigenvalues within
    CLUSTER_TOL of a cluster's largest are one cluster, its value their mean."""
    clusters: list[list[float]] = []
    top = math.inf  # the largest eigenvalue of the last cluster
    for w in descending:
        if top - w <= CLUSTER_TOL:
            clusters[-1].append(w)
        else:
            top = w
            clusters.append([w])
    return tuple(math.fsum(c) / len(c) for c in clusters), tuple(map(len, clusters))


def _descending_eigh(op: ReversibleOperator) -> tuple[np.ndarray, np.ndarray]:
    """One `eigh` of the symmetrized operator: the eigenvalues descending, and
    the m-orthonormal eigenfunctions as columns in the same order."""
    w, u = np.linalg.eigh(op.symmetrized())
    m = op.graph.arrays.m[list(op.support)]
    return w[::-1], u[:, ::-1] / np.sqrt(m)[:, None]


def _split(h: np.ndarray, multiplicities: Sequence[int]) -> tuple[np.ndarray, ...]:
    """The column blocks of `h`, one per cluster."""
    ends = accumulate(multiplicities)
    return tuple(h[:, e - nu : e] for e, nu in zip(ends, multiplicities))


def eigen(op: ReversibleOperator) -> EigenDecomposition:
    """The eigenvalues of the operator, descending and clustered (`_clustered`).
    A bipartite operator's eigenvalues are plus and minus the singular
    values of its colour-class block, with |n1 - n2| exact zeros; any other
    takes `eigvalsh`.  No eigenvector is computed until `bases` is read."""
    return EigenDecomposition(op, *_clustered(_descending_values(op)))


def spectral_radius(op: ReversibleOperator) -> float:
    """Largest eigenvalue of the (sub-)operator."""
    return _descending_values(op)[0]
