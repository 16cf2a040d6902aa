"""Type classification of eigenspaces of Q and of its interior restriction.

Each eigenspace is put into a normal form determined by the boundary data of
its eigenfunctions at the marked vertices a, b: the values f(a), f(b) for the
full operator Q, and the one-step averages Qf(a), Qf(b) for the interior
restriction.  The rank and symmetry direction of the 2-column boundary
matrix decide the type:

    rank 0                      -> I    (all boundary data vanish)
    rank 1, direction (1, 1)    -> II   (symmetric tail, f^gamma = f)
    rank 1, direction (1, -1)   -> III  (antisymmetric tail, f^gamma = -f)
    rank 2                      -> IV   (swapping tail pair)

The reduced multiplicity nu' counts the basis functions with vanishing
boundary data; the remaining 0/1/2 tail functions are gamma-averaged and
normalized so the designated boundary value equals one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import Substituent
from .operators import EigenDecomposition, ReversibleOperator, eigen

RANK_TOL = 1e-7

TYPE_RANKS = {"I": 0, "II": 1, "III": 1, "IV": 2}


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

    @property
    def type_label(self) -> str:
        return self.type + ("°" if self.source == "Qo" else "")

    def zero_block(self) -> np.ndarray:
        return self.basis[:, : self.nu_prime]

    def tails(self) -> np.ndarray:
        return self.basis[:, self.nu_prime :]


def _gamma_permutation(s: Substituent, support: tuple[int, ...]) -> np.ndarray:
    """Index array g with (f o gamma)[i] = f[g[i]] on the support."""
    pos = {x: i for i, x in enumerate(support)}
    return np.array([pos[s.gamma[x]] for x in support])


def _boundary_map(s: Substituent, source: str, support: tuple[int, ...]):
    """Linear map from functions on the support to their (a, b) boundary data."""
    rows = np.zeros((2, len(support)))
    if source == "Q":
        pos = {x: i for i, x in enumerate(support)}
        rows[0, pos[s.a]] = 1.0
        rows[1, pos[s.b]] = 1.0
    else:
        q = ReversibleOperator.full(s.graph).matrix_exact()
        for i, v in enumerate(support):
            rows[0, i] = float(q[s.a][v])
            rows[1, i] = float(q[s.b][v])
    return rows


def _gamma_average(fn: np.ndarray, gperm: np.ndarray, order: int, signed: bool) -> np.ndarray:
    acc = np.zeros_like(fn)
    cur = fn
    for k in range(order):
        acc += (-1.0) ** k * cur if signed else cur
        cur = cur[gperm]
    return acc / order


def _classify_cluster(
    value: float,
    basis: np.ndarray,
    boundary: np.ndarray,
    gperm: np.ndarray,
    order: int,
    source: str,
) -> TypedEigenvalue:
    nu = basis.shape[1]
    B = (boundary @ basis).T  # nu x 2, row j = boundary data of f_j
    u, sing, vt = np.linalg.svd(B)
    scale = max(1.0, float(sing[0]) if len(sing) else 0.0)
    rank = int(np.sum(sing > RANK_TOL * scale))
    ambiguous = bool(np.any((sing > RANK_TOL * scale / 10) & (sing < RANK_TOL * scale * 10)))

    # zero-boundary block: coefficient vectors in the null space of B^T;
    # orthonormal coefficients keep the m-orthonormal basis m-orthonormal
    zero_block = basis @ u[:, rank:]

    def solve_tail(target):
        # minimum-norm solution of B^T w = target at the decided rank
        w = u[:, :rank] @ ((vt[:rank] @ np.asarray(target, dtype=float)) / sing[:rank])
        return basis @ w

    if rank == 0:
        kind, tails = "I", []
    elif rank == 1:
        d = vt[0]
        sym = abs(d[0] - d[1])
        anti = abs(d[0] + d[1])
        if sym <= anti:
            kind = "II"
            tail = _gamma_average(solve_tail((1.0, 1.0)), gperm, order, signed=False)
        else:
            kind = "III"
            tail = _gamma_average(solve_tail((1.0, -1.0)), gperm, order, signed=True)
        if min(sym, anti) > 1e-6:
            ambiguous = True
        tail = tail / (boundary @ tail)[0]
        tails = [tail]
    else:
        kind = "IV"
        avg_plus = _gamma_average(solve_tail((1.0, 1.0)), gperm, order, signed=False)
        avg_minus = _gamma_average(solve_tail((1.0, -1.0)), gperm, order, signed=True)
        avg_plus = avg_plus / (boundary @ avg_plus)[0]
        avg_minus = avg_minus / (boundary @ avg_minus)[0]
        f_top = 0.5 * (avg_plus + avg_minus)   # boundary (1, 0)
        f_prev = 0.5 * (avg_plus - avg_minus)  # boundary (0, 1)
        tails = [f_prev, f_top]

    full = np.hstack([zero_block] + [t[:, None] for t in tails])
    return TypedEigenvalue(value, source, kind, nu, nu - rank, full, ambiguous)


def _classify(s: Substituent, decomp: EigenDecomposition, source: str) -> list[TypedEigenvalue]:
    support = decomp.operator.support
    boundary = _boundary_map(s, source, support)
    gperm = _gamma_permutation(s, support)
    order = s.gamma_order()
    return [
        _classify_cluster(v, basis, boundary, gperm, order, source)
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


def boundary_data(s: Substituent, t: TypedEigenvalue) -> np.ndarray:
    """Boundary rows (at a, at b) of the normal-form basis, for verification."""
    support = (
        tuple(range(s.graph.n)) if t.source == "Q" else tuple(sorted(s.interior))
    )
    return _boundary_map(s, t.source, support) @ t.basis
