"""Type classification of eigenspaces of Q and of its interior restriction.

Each eigenspace is put into a normal form determined by the boundary data of
its eigenfunctions at the marked vertices a, b: the values f(a), f(b) for the
full operator Q, and the one-step averages Qf(a), Qf(b) for the interior
restriction.  On the m-orthonormal coefficients of an eigenspace the data
read as two vectors, s = f(a) + f(b) and d = f(a) - f(b), and the type is
which of them vanish:

    s = 0, d = 0    -> I    (all boundary data vanish)
    s != 0, d = 0   -> II   (symmetric tail, f^gamma = f)
    s = 0, d != 0   -> III  (antisymmetric tail, f^gamma = -f)
    s != 0, d != 0  -> IV   (swapping tail pair)

gamma commutes with Q, keeps the measure m and swaps a and b, so it acts on
the coefficients as an orthogonal map that fixes s and negates d.  Hence s
and d are orthogonal, |s|/sqrt(2) and |d|/sqrt(2) are the singular values of
the boundary data, and the smallest tails with boundary (1, 1) and (1, -1),
the coefficients 2s/|s|^2 and 2d/|d|^2, are gamma-even and gamma-odd by
uniqueness: no average over the powers of gamma is needed, whatever its
order.  The reduced multiplicity nu' counts the basis functions with
vanishing boundary data.

The same vectors weigh each interior cluster in the secular equation of S1
(`assemble.solve_S1`): S = m(a)|s|^2/4 and D = m(a)|d|^2/4, zero where the
type says that s or d vanishes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import Substituent
from .operators import EigenDecomposition, ReversibleOperator, eigen

RANK_TOL = 1e-7


@dataclass(frozen=True)
class TypedEigenvalue:
    """An eigenvalue of Q (source 'Q') or Q_{V°} (source 'Qo') with its type.

    `basis` columns are the normal-form eigenfunctions: first the nu'
    zero-boundary functions, then the tail functions (for type IV the
    (0,1)-tail before the (1,0)-tail).  Rows are indexed by the source
    operator's support.
    """

    value: float
    source: str  # "Q" | "Qo"
    type: str    # "I" | "II" | "III" | "IV"
    nu: int
    nu_prime: int
    basis: np.ndarray
    ambiguous: bool = False
    S: float = 0.0  # m(a)|s|^2/4, the gamma-even secular weight
    D: float = 0.0  # m(a)|d|^2/4, the gamma-odd secular weight

    @property
    def type_label(self) -> str:
        return self.type + ("°" if self.source == "Qo" else "")

    def zero_block(self) -> np.ndarray:
        return self.basis[:, : self.nu_prime]

    def tails(self) -> np.ndarray:
        return self.basis[:, self.nu_prime :]


def _boundary_map(s: Substituent, source: str, support: tuple[int, ...]):
    """Linear map from functions on the support to their (a, b) boundary data."""
    rows = np.zeros((2, len(support)))
    if source == "Q":
        pos = {x: i for i, x in enumerate(support)}
        rows[0, pos[s.a]] = 1.0
        rows[1, pos[s.b]] = 1.0
    else:
        g = s.graph
        for row, x in zip(rows, (s.a, s.b)):
            row[:] = [float(g.conductance(x, v) / g.m(x)) for v in support]
    return rows


def _classify_cluster(
    value: float, basis: np.ndarray, boundary: np.ndarray, source: str, mass: float
) -> TypedEigenvalue:
    nu = basis.shape[1]
    at_a, at_b = boundary @ basis
    pair = (at_a + at_b, at_a - at_b)  # s, d: gamma-fixed and gamma-negated
    norms = [float(np.linalg.norm(v)) / np.sqrt(2.0) for v in pair]
    cut = RANK_TOL * max(1.0, *norms)
    keep = [n > cut for n in norms]
    S, D = (mass * n * n / 2 if k else 0.0 for n, k in zip(norms, keep))
    ambiguous = any(cut / 10 < n < cut * 10 for n in norms)
    kind = ("I", "II", "III", "IV")[keep[0] + 2 * keep[1]]
    kept = [v for v, k in zip(pair, keep) if k]
    rank = len(kept)

    # zero-boundary block: coefficients orthogonal to the kept s and d;
    # orthonormal coefficients keep the m-orthonormal basis m-orthonormal
    if rank == 0:
        zero_block = basis
    elif rank == nu:
        zero_block = basis[:, :0]
    else:
        q = np.linalg.qr(np.column_stack(kept), mode="complete")[0]
        zero_block = basis @ q[:, rank:]

    # boundary (1, 1) from s, (1, -1) from d
    tails = [basis @ (2.0 * v / (v @ v)) for v in kept]
    if rank == 2:
        plus, minus = tails
        tails = [0.5 * (plus - minus), 0.5 * (plus + minus)]  # (0, 1), (1, 0)
    full = np.column_stack([zero_block, *tails])
    return TypedEigenvalue(value, source, kind, nu, nu - rank, full, ambiguous, S, D)


def _classify(s: Substituent, decomp: EigenDecomposition, source: str) -> list[TypedEigenvalue]:
    support = decomp.operator.support
    boundary = _boundary_map(s, source, support)
    mass = float(s.graph.m(s.a))
    return [
        _classify_cluster(v, basis, boundary, source, mass)
        for v, basis in zip(decomp.values, decomp.bases)
    ]


def classify_Q(s: Substituent, decomp: EigenDecomposition | None = None) -> list[TypedEigenvalue]:
    if decomp is None:
        decomp = eigen(ReversibleOperator.full(s.graph))
    return _classify(s, decomp, "Q")


def classify_Qinterior(s: Substituent, decomp: EigenDecomposition | None = None) -> list[TypedEigenvalue]:
    if decomp is None:
        decomp = eigen(ReversibleOperator.restricted(s.graph, s.interior))
    return _classify(s, decomp, "Qo")
