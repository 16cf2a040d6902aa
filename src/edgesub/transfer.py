"""Transfer functions of a substituent, its boundary kernels and the
resolvent identity.

The transfer functions are exact rational functions built from the resolvent
of the interior restriction Q_{V°}:

    psi(z)   = sum_{u,v interior} q(a,u) G(u,v|z) q(v,b) + q(a,b)
    theta(z) = sum_{u,v interior} q(a,u) G(u,v|z) q(v,a)
    phi(z)   = (z - theta(z)) / psi(z), reduced

At each of k + 1 integer nodes z, one exact solve of zI - Q_{V°} against
q(., a) and q(., b) is reduced to three numbers, det, det q(a, .) x_a and
det (q(a, b) + q(a, .) x_b), whose interpolants are det = det(zI - Q_{V°})
and the numerators theta_n and psi_n.  `TransferFunctions` holds these
three series; each function is one reduced quotient of them, with one gcd,
built on its first read:

    phi       = (z det - theta_n) / psi_n
    psi       = psi_n / det
    theta     = theta_n / det
    z - theta = (z det - theta_n) / det

phi transfers eigenvalues: lambda* is in the non-interior spectrum of the
substituted operator iff phi(lambda*) is an eigenvalue of the host operator.
The spectrum itself needs none of these functions: `assemble.solve_S1`
finds the roots of z - theta - lambda psi from the pole expansions of theta
and psi over the interior eigenvalues, and `assemble.solve_S2` reads the
common zeros of psi and z - theta off the types of Q.  They serve the
`transfer` command, the resolvent identity and callers that map an S1 root
back to its host eigenvalue (`PipelineResult.transfer`, built on first
access).

The boundary kernels are float pole expansions over the same classified
interior eigenvalues that give `solve_S1` its weights, so no exact solve
builds them and the two agree on which interior eigenvalues are poles; at
one z they are one (2, |V°|) table, a product over the sorted poles.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .algebra import Polynomial, RationalFunction, interpolate_solves, solve_fraction_system
# resolvent_matrix is unused here but stays importable: bench/spans.py traces it
from .algebra import resolvent_matrix  # noqa: F401
from .classify import classify_Qinterior
from .errors import TooCloseToInteriorSpectrum
from .graph import Substituent
from .operators import ReversibleOperator
# eigen is unused here but stays importable: bench/spans.py traces it
from .operators import eigen  # noqa: F401
from .substitution import SubstitutedGraph

POLE_GUARD = 1e-12  # a kernel pole this close to z is a pole at z


@dataclass(frozen=True)
class TransferFunctions:
    """The interpolated series det, theta_n and psi_n; each transfer
    function is reduced from them on its first read."""

    det: Polynomial
    theta_num: Polynomial
    psi_num: Polynomial

    @cached_property
    def _z_minus_theta_num(self) -> Polynomial:
        return Polynomial.z() * self.det - self.theta_num

    @cached_property
    def phi(self) -> RationalFunction:
        return RationalFunction(self._z_minus_theta_num, self.psi_num)

    @cached_property
    def psi(self) -> RationalFunction:
        return RationalFunction(self.psi_num, self.det)

    @cached_property
    def theta(self) -> RationalFunction:
        return RationalFunction(self.theta_num, self.det)

    @cached_property
    def z_minus_theta(self) -> RationalFunction:
        return RationalFunction(self._z_minus_theta_num, self.det)


def compute_transfer(s: Substituent) -> TransferFunctions:
    q = ReversibleOperator.full(s.graph).matrix_exact()
    q_a = [q[s.a][u] for u in s.interior]

    def sample(det: Fraction, adjugate_columns: list[list[Fraction]]) -> list[Fraction]:
        theta_num, psi_num = (sum(c * v for c, v in zip(q_a, x) if c) for x in adjugate_columns)
        return [det, theta_num, det * q[s.a][s.b] + psi_num]

    M = [[q[u][v] for v in s.interior] for u in s.interior]
    columns = [[q[v][x] for v in s.interior] for x in (s.a, s.b)]
    return TransferFunctions(*interpolate_solves(M, columns, sample))


@dataclass(frozen=True)
class BoundaryKernels:
    """Harmonic-extension kernels toward each marked vertex, on the interior.

    to_a(u | z) = F_{V-b}(u, a | z) and to_b(u | z) = F_{V-a}(u, b | z), the
    f with Qf = z f on the interior and boundary values (1, 0), resp. (0, 1).
    Both are sum_mu r(mu) / (z - mu) over the `poles`, the interior
    eigenvalues of type II°, III° and IV° in ascending order; row mu of
    `residues` holds r_a(mu) then r_b(mu), each in `substituent.interior` order.
    """

    substituent: Substituent
    poles: np.ndarray
    residues: np.ndarray  # (len(poles), 2 |V°|)

    def eval_interior(self, z: float) -> np.ndarray:
        """The (2, |V°|) table of to_a(u | z) (row 0) and to_b(u | z) (row 1)
        over u in `substituent.interior` order.

        Raises `TooCloseToInteriorSpectrum` when z is within POLE_GUARD of a
        pole: the nearer of the two poles that z bisects."""
        poles = self.poles
        k = bisect_left(poles, z)
        near = min(z - poles[k - 1] if k else math.inf, poles[k] - z if k < len(poles) else math.inf)
        if near < POLE_GUARD:
            raise TooCloseToInteriorSpectrum(f"distance {near:.3e} to a kernel pole at z={z!r}")
        return ((1.0 / (z - poles)) @ self.residues).reshape(2, -1)


def boundary_kernels(s: Substituent) -> BoundaryKernels:
    """The kernels' pole expansions over `classify_Qinterior`.

    With the m-orthonormal eigenbasis B of an interior eigenvalue mu, the
    residue of to_a is m(a) B B^T q(a, .), and that of to_b the same with b.
    In the classified normal form these are r_a = S e + D o and
    r_b = S e - D o, where e and o are the tails with boundary data (1, 1)
    and (1, -1) and S, D are the secular weights of `solve_S1`.  A type-I°
    mu has neither tail nor weight, so it is no pole.
    """
    typed = classify_Qinterior(s)
    poles, residues = [], []
    for t in typed:
        if t.type == "I":
            continue
        tails = t.tails()
        if t.type == "IV":
            t01, t10 = tails.T
            e, o = t01 + t10, t10 - t01
        else:  # the one tail is e for II°, o for III°, and the other weight is 0
            e = o = tails[:, 0]
        poles.append(t.value)
        residues.append(np.concatenate([t.S * e + t.D * o, t.S * e - t.D * o]))
    order = np.argsort(poles)
    residues = np.array(residues).reshape(len(poles), 2 * len(s.interior))
    return BoundaryKernels(s, np.array(poles)[order], residues[order])


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
