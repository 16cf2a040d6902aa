"""Transfer functions of a substituent and the resolvent identity.

All generating functions are exact rational functions built from the
resolvent of the interior restriction Q_{V°}:

    psi(z)   = sum_{u,v interior} q(a,u) G(u,v|z) q(v,b) + q(a,b)
    theta(z) = sum_{u,v interior} q(a,u) G(u,v|z) q(v,a)
    phi(z)   = (z - theta(z)) / psi(z), reduced

At each of k + 1 integer nodes z, one exact solve of zI - Q_{V°} against
q(., a) and q(., b) is reduced to three numbers, det, det q(a, .) x_a and
det (q(a, b) + q(a, .) x_b), whose interpolants are det(zI - Q_{V°}) and the
numerators of theta and psi; each function is reduced once over det.  The
boundary kernels solve the column q(., a) alone and interpolate every entry,
k + 1 series; the kernels toward b are those toward a, read through gamma.

phi transfers eigenvalues: lambda* is in the non-interior spectrum of the
substituted operator iff phi(lambda*) is an eigenvalue of the host operator.
The spectrum itself needs none of these functions: `assemble.solve_S1`
finds the roots of z - theta - lambda psi from the pole expansions of theta
and psi over the interior eigenvalues, and `assemble.solve_S2` reads the
common zeros of psi and z - theta off the types of Q.  They serve the
`transfer` command, the resolvent identity and callers that map an S1 root
back to its host eigenvalue (`PipelineResult.transfer`, built on first
access).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .algebra import (
    POLE_GUARD,
    RationalFunction,
    interpolate_solves,
    resolvent_matrix,
    solve_fraction_system,
)
from .errors import TooCloseToInteriorSpectrum
from .graph import Substituent
# eigen is unused here but stays importable: bench/spans.py traces transfer.eigen
from .operators import ReversibleOperator, eigen  # noqa: F401
from .substitution import SubstitutedGraph


@dataclass(frozen=True)
class TransferFunctions:
    phi: RationalFunction            # reduced quotient
    psi: RationalFunction
    theta: RationalFunction
    z_minus_theta: RationalFunction


def _kernel_system(s: Substituent, q: list[list[Fraction]]) -> tuple[list, list]:
    """Q_{V°} and the boundary columns q(., a), q(., b) on the interior."""
    M = [[q[u][v] for v in s.interior] for u in s.interior]
    return M, [[q[v][x] for v in s.interior] for x in (s.a, s.b)]


def compute_transfer(s: Substituent) -> TransferFunctions:
    q = ReversibleOperator.full(s.graph).matrix_exact()
    q_a = [q[s.a][u] for u in s.interior]

    def sample(det: Fraction, adjugate_columns: list[list[Fraction]]) -> list[Fraction]:
        theta_num, psi_num = (sum(c * v for c, v in zip(q_a, x) if c) for x in adjugate_columns)
        return [det, theta_num, det * q[s.a][s.b] + psi_num]

    det, theta_num, psi_num = interpolate_solves(*_kernel_system(s, q), sample)
    theta = RationalFunction(theta_num, det)
    psi = RationalFunction(psi_num, det)
    z_minus_theta = RationalFunction.z() - theta
    phi = z_minus_theta / psi
    return TransferFunctions(phi, psi, theta, z_minus_theta)


@dataclass(frozen=True)
class BoundaryKernels:
    """Harmonic-extension kernels toward each marked vertex.

    to_a[u] = F_{V-b}(u, a | z) and to_b[u] = F_{V-a}(u, b | z), defined for
    every vertex u of V with the conventions to_a[a] = 1, to_a[b] = 0 and
    symmetrically for to_b.

    The numerators and reduced denominators of the interior kernels (to_a
    then to_b, each in `substituent.interior` order) are also held as one
    float coefficient table, one column per polynomial, highest degree in
    the first row; short polynomials are padded with zeros at the
    high-degree end.  `eval_interior` runs Horner down the rows, in the
    order of `RationalFunction.eval_float` and on the same float
    coefficients, so its values are bit-identical to evaluating each kernel
    on its own.  It raises `TooCloseToInteriorSpectrum` under the same rule:
    some reduced denominator has magnitude below POLE_GUARD.
    """

    substituent: Substituent
    to_a: dict[int, RationalFunction]
    to_b: dict[int, RationalFunction]
    _horner: tuple[np.ndarray, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        interior = self.substituent.interior
        kernels = [self.to_a[u] for u in interior] + [self.to_b[u] for u in interior]
        polys = [k.num for k in kernels] + [k.den for k in kernels]
        table = np.zeros((max((len(p.coeffs) for p in polys), default=0), len(polys)))
        for column, p in zip(table.T, polys):
            column[: len(p.coeffs)] = [float(c) for c in p.coeffs]
        object.__setattr__(self, "_horner", tuple(table[::-1].copy()))

    def eval_interior(self, z: float) -> tuple[np.ndarray, np.ndarray]:
        """(to_a[u](z), to_b[u](z)) over u in `substituent.interior` order."""
        k = len(self.substituent.interior)
        acc = np.zeros(4 * k)
        for coeffs in self._horner:
            acc *= z
            acc += coeffs
        den = acc[2 * k :]
        if (np.abs(den) < POLE_GUARD).any():
            raise TooCloseToInteriorSpectrum(
                f"denominator magnitude {np.min(np.abs(den)):.3e} at z={z!r}"
            )
        values = acc[: 2 * k] / den
        return values[:k], values[k:]


def boundary_kernels(s: Substituent) -> BoundaryKernels:
    """One exact solve, toward a: gamma swaps a and b and preserves
    conductances, so F_{V-a}(u, b | z) = F_{V-b}(gamma u, a | z)."""
    q = ReversibleOperator.full(s.graph).matrix_exact()
    M, (q_a, _) = _kernel_system(s, q)
    (col_a,) = resolvent_matrix(M, [q_a])
    one = RationalFunction.const(1)
    zero = RationalFunction.const(0)
    to_a = {s.a: one, s.b: zero, **dict(zip(s.interior, col_a))}
    to_b = {u: to_a[s.gamma[u]] for u in range(s.graph.n)}
    return BoundaryKernels(s, to_a, to_b)


def solve_boundary(
    s: Substituent,
    alpha: float,
    beta: float,
    z: float,
    kernels: BoundaryKernels | None = None,
) -> dict[int, float]:
    """The f with Qf = z f on the interior, f(a) = alpha, f(b) = beta.

    f is read off the boundary kernels at z, so this raises
    TooCloseToInteriorSpectrum exactly where `BoundaryKernels.eval_interior`
    does.  Off the interior spectrum f is unique.  At a type-I° interior
    eigenvalue, a pole of no kernel, f is the kernels' particular solution,
    one of many: adding any eigenfunction of Q° at z gives another.
    """
    k = kernels if kernels is not None else boundary_kernels(s)
    fa, fb = k.eval_interior(z)
    return {s.a: alpha, s.b: beta, **dict(zip(s.interior, (alpha * fa + beta * fb).tolist()))}


def _resolvent_column(P: list[list[Fraction]], z: Fraction, y: int) -> list[Fraction]:
    """Column y of (zI - P)^{-1}, solved exactly."""
    n = len(P)
    A = [[(z if i == j else Fraction(0)) - P[i][j] for j in range(n)] for i in range(n)]
    rhs = [Fraction(1) if i == y else Fraction(0) for i in range(n)]
    return solve_fraction_system(A, rhs)


def verify_resolvent_identity(
    sub: SubstitutedGraph, tf: TransferFunctions, z: Fraction, pairs
) -> list[tuple[int, int, bool]]:
    """Check G_sub(x,y|z) * psi(z) = G_host(x,y|phi(z)) exactly at rational z.

    `pairs` are host-vertex index pairs (x, y); host vertices keep their
    indices inside the substituted graph.
    """
    z = Fraction(z)
    phi_z = tf.phi.eval_exact(z)
    psi_z = tf.psi.eval_exact(z)

    P_host = ReversibleOperator.full(sub.host).matrix_exact()
    P_star = ReversibleOperator.full(sub.graph).matrix_exact()

    host_cols: dict[int, list[Fraction]] = {}
    star_cols: dict[int, list[Fraction]] = {}
    results = []
    for x, y in pairs:
        if y not in host_cols:
            host_cols[y] = _resolvent_column(P_host, phi_z, y)
        if y not in star_cols:
            star_cols[y] = _resolvent_column(P_star, z, y)
        lhs = star_cols[y][x] * psi_z
        rhs = host_cols[y][x]
        results.append((x, y, lhs == rhs))
    return results
