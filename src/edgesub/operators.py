"""Reversible transition operators and their float eigendecompositions.

The operator P has entries p(x,y) = a(x,y)/m(x), kept as exact Fractions.
Eigendecomposition symmetrizes by s(x,y) = a(x,y)/sqrt(m(x)m(y)), so a
standard symmetric solver applies; its orthonormal eigenvectors u map back
to m-orthonormal eigenfunctions h = u/sqrt(m).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
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

    def matrix_float(self) -> np.ndarray:
        n = self.dim
        m = [float(self.measure(i)) for i in range(n)]
        mat = np.zeros((n, n))
        for i, j, a in self._conductances():
            mat[i, j] = float(a) / m[i]
        return mat

    def symmetrized(self) -> np.ndarray:
        n = self.dim
        m = [float(self.measure(i)) for i in range(n)]
        s = np.zeros((n, n))
        for i, j, a in self._conductances():
            s[i, j] = float(a) / math.sqrt(m[i] * m[j])
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
    indexed like the operator's support.
    """

    operator: ReversibleOperator
    values: tuple[float, ...]
    multiplicities: tuple[int, ...]
    bases: tuple[np.ndarray, ...]

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
    """Full symmetric eigendecomposition; eigenvalues within CLUSTER_TOL of a
    cluster's largest are one cluster."""
    n = op.dim
    m = np.array([float(op.measure(i)) for i in range(n)])
    s = op.symmetrized()
    w, u = np.linalg.eigh(s)
    order = np.argsort(-w)
    w, u = w[order], u[:, order]
    h = u / np.sqrt(m)[:, None]

    values, mults, bases = [], [], []
    k = 0
    while k < n:
        k2 = k
        while k2 + 1 < n and abs(w[k2 + 1] - w[k]) <= CLUSTER_TOL:
            k2 += 1
        values.append(float(np.mean(w[k : k2 + 1])))
        mults.append(k2 + 1 - k)
        bases.append(h[:, k : k2 + 1])
        k = k2 + 1
    return EigenDecomposition(op, tuple(values), tuple(mults), tuple(bases))


def spectral_radius(op: ReversibleOperator) -> float:
    """Largest eigenvalue of the (sub-)operator."""
    return float(np.max(np.linalg.eigvalsh(op.symmetrized())))


def _local_values(dec: EigenDecomposition, x: int) -> list[float]:
    """`local_spectrum` at x, read from the decomposition `dec`."""
    mx = float(dec.operator.measure(x))
    return [
        v for v, basis in zip(dec.values, dec.bases) if mx * float(np.sum(basis[x, :] ** 2)) > 1e-9
    ]


def local_spectrum(op: ReversibleOperator, x: int) -> list[float]:
    """Eigenvalues whose eigenspace does not vanish at support position x.

    Membership is decided by the residue m(x) * sum_i h_i(x)^2 of the
    diagonal resolvent entry at x, against 1e-9.
    """
    return _local_values(eigen(op), x)
