"""Reversible transition operators and their float eigendecompositions.

The operator P has entries p(x,y) = a(x,y)/m(x), kept as exact Fractions.
Eigendecomposition symmetrizes by s(x,y) = a(x,y)/sqrt(m(x)m(y)), so a
standard symmetric solver applies.  `eigen` finds the eigenvalues alone; the
orthonormal eigenvectors u, from one `eigh` when `EigenDecomposition.bases`
is first read, map back to m-orthonormal eigenfunctions h = u/sqrt(m).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate
from typing import Optional, Sequence

import numpy as np

from .graph import WeightedGraph

CLUSTER_TOL = 1e-8


def _float(q: Fraction) -> float:
    """float(q), skipping the generic `numbers.Rational.__float__` path."""
    return q.numerator / q.denominator


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

    def entry(self, i: int, j: int) -> Fraction:
        x, y = self.support[i], self.support[j]
        return self.graph.conductance(x, y) / self.graph.m(x)

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
        """m(x) as floats, in support order."""
        return [_float(self.graph.m(x)) for x in self.support]

    def matrix_float(self) -> np.ndarray:
        m = self._measures()
        mat = np.zeros((self.dim, self.dim))
        for i, j, a in self._conductances():
            mat[i, j] = _float(a) / m[i]
        return mat

    def symmetrized(self) -> np.ndarray:
        m = self._measures()
        s = np.zeros((self.dim, self.dim))
        for i, j, a in self._conductances():
            s[i, j] = _float(a) / math.sqrt(m[i] * m[j])
        return s

    def is_stochastic(self) -> bool:
        return all(
            sum(self.entry(i, j) for j in range(self.dim)) == 1
            for i in range(self.dim)
        )


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
            _, u = np.linalg.eigh(self.operator.symmetrized())
            h = u[:, ::-1] / np.sqrt(self.operator._measures())[:, None]
            ends = accumulate(self.multiplicities)
            bases = tuple(h[:, e - nu : e] for e, nu in zip(ends, self.multiplicities))
            object.__setattr__(self, "_bases", bases)
        return self._bases

    @property
    def dim(self) -> int:
        return sum(self.multiplicities)

    def value_multiset(self) -> list[tuple[float, int]]:
        return list(zip(self.values, self.multiplicities))

    def all_values(self) -> list[float]:
        out = []
        for v, nu in zip(self.values, self.multiplicities):
            out.extend([v] * nu)
        return out

    def cluster_near(self, value: float) -> Optional[int]:
        """The cluster nearest `value` among those within 1e-7 of it, or None."""
        hits = [k for k, v in enumerate(self.values) if abs(v - value) <= 1e-7]
        if not hits:
            return None
        return min(hits, key=lambda k: abs(self.values[k] - value))


def eigen(op: ReversibleOperator) -> EigenDecomposition:
    """The eigenvalues of the operator, descending and clustered: eigenvalues
    within CLUSTER_TOL of a cluster's largest are one cluster, its value their
    mean.  No eigenvector is computed until `bases` is read."""
    clusters: list[list[float]] = []
    for w in np.linalg.eigvalsh(op.symmetrized())[::-1].tolist():
        if clusters and clusters[-1][0] - w <= CLUSTER_TOL:
            clusters[-1].append(w)
        else:
            clusters.append([w])
    values = tuple(math.fsum(c) / len(c) for c in clusters)
    return EigenDecomposition(op, values, tuple(map(len, clusters)))


def spectral_radius(op: ReversibleOperator) -> float:
    """Largest eigenvalue of the (sub-)operator."""
    return float(np.max(np.linalg.eigvalsh(op.symmetrized())))


def _local_values(dec: EigenDecomposition) -> list[list[float]]:
    """`local_spectrum` at every support position, read from the decomposition
    `dec`: one sum of squares over all rows per cluster."""
    residues = np.column_stack([(h**2).sum(axis=1) for h in dec.bases])
    residues *= np.array(dec.operator._measures())[:, None]
    values = np.array(dec.values)
    return [values[row > 1e-9].tolist() for row in residues]


def local_spectrum(op: ReversibleOperator, x: int) -> list[float]:
    """Eigenvalues whose eigenspace does not vanish at support position x.

    Membership is decided by the residue m(x) * sum_i h_i(x)^2 of the
    diagonal resolvent entry at x, against 1e-9.
    """
    return _local_values(eigen(op))[x]
