"""Reversible transition operators and their float eigendecompositions.

The operator P has entries p(x,y) = a(x,y)/m(x), kept as exact Fractions.
Eigendecomposition symmetrizes by s(x,y) = a(x,y)/sqrt(m(x)m(y)), so a
standard symmetric solver applies.  `eigen` finds the eigenvalues alone: on a
bipartite graph S = [[0, B], [B^T, 0]] over the colour classes, so they are
+- the singular values of B and |n1 - n2| zeros; otherwise `eigvalsh` of S.
The orthonormal eigenvectors u map back to m-orthonormal eigenfunctions
h = u/sqrt(m).  A host's come from one `eigh` when `EigenDecomposition.bases`
is first read.  The substituent operators Q and Q°, whose types need every
eigenvector, take `_eigenpairs`: one `eigh` gives their values and bases at
once, clustered by the same rule as `eigen`.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate, count
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

    def _conductances(self):
        """(i, j, a(x, y)) for every adjacent pair of support positions."""
        pos = {x: i for i, x in enumerate(self.support)}
        for i, x in enumerate(self.support):
            for y, a in self.graph.adjacency(x).items():
                j = pos.get(y)
                if j is not None:
                    yield i, j, a

    def matrix_exact(self) -> list[list[Fraction]]:
        n = self.dim
        m = [self.measure(i) for i in range(n)]
        mat = [[Fraction(0)] * n for _ in range(n)]
        for i, j, a in self._conductances():
            mat[i][j] = a / m[i]
        return mat

    def _measures(self) -> list[float]:
        """m(x) as floats, in support order.  Here and below numerator /
        denominator skips the generic `numbers.Rational.__float__` path."""
        return [q.numerator / q.denominator for q in map(self.graph.m, self.support)]

    def matrix_float(self) -> np.ndarray:
        m = self._measures()
        mat = np.zeros((self.dim, self.dim))
        for i, j, a in self._conductances():
            mat[i, j] = a.numerator / a.denominator / m[i]
        return mat

    def symmetrized(self) -> np.ndarray:
        return self._symmetrized_block(self._measures(), range(self.dim), range(self.dim))

    def _symmetrized_block(self, m: list[float], rows: Sequence[int], cols: Sequence[int]) -> np.ndarray:
        """The symmetrized matrix on support positions `rows` x `cols`, from
        the float measures `m`."""
        col = {self.support[j]: (k, m[j]) for k, j in enumerate(cols)}
        s = np.zeros((len(rows), len(cols)))
        flat = s.reshape(-1)
        for start, i in zip(count(0, len(cols)), rows):
            for y, a in self.graph.adjacency(self.support[i]).items():
                hit = col.get(y)
                if hit is not None:
                    flat[start + hit[0]] = a.numerator / a.denominator / math.sqrt(m[i] * hit[1])
        return s


@dataclass(frozen=True)
class EigenDecomposition:
    """Clustered eigenvalues (descending) with m-orthonormal eigenbases.

    `bases[k]` has one column per eigenfunction of cluster k; rows are
    indexed like the operator's support.  Bases given to the constructor are
    kept; otherwise they are computed on first access and then cached.
    """

    operator: ReversibleOperator
    values: tuple[float, ...]
    multiplicities: tuple[int, ...]
    _bases: Optional[tuple[np.ndarray, ...]] = field(default=None, repr=False, compare=False)

    @property
    def bases(self) -> tuple[np.ndarray, ...]:
        """One `eigh`, its vectors in descending order, split by the multiplicities."""
        if self._bases is None:
            _, h = _descending_eigh(self.operator)
            object.__setattr__(self, "_bases", _split(h, self.multiplicities))
        return self._bases

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
    first = colours[0]
    left = [i for i, x in enumerate(op.support) if x in first]
    right = [i for i, x in enumerate(op.support) if x not in first]
    sigma = np.linalg.svd(op._symmetrized_block(op._measures(), left, right), compute_uv=False).tolist()
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
    m = op._measures()
    w, u = np.linalg.eigh(op._symmetrized_block(m, range(op.dim), range(op.dim)))
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


def _eigenpairs(op: ReversibleOperator) -> EigenDecomposition:
    """Values and bases from one `eigh`, clustered as in `eigen`: for an
    operator whose every eigenvector is read, as Q and Q° are by `classify`."""
    w, h = _descending_eigh(op)
    values, multiplicities = _clustered(w.tolist())
    return EigenDecomposition(op, values, multiplicities, _split(h, multiplicities))


def spectral_radius(op: ReversibleOperator) -> float:
    """Largest eigenvalue of the (sub-)operator."""
    return _descending_values(op)[0]
