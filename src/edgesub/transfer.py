"""Transfer functions of a substituent and its boundary kernels.

The transfer functions are exact rational functions built from the resolvent
of the interior restriction Q_{V°}:

    psi(z)   = sum_{u,v interior} q(a,u) G(u,v|z) q(v,b) + q(a,b)
    theta(z) = sum_{u,v interior} q(a,u) G(u,v|z) q(v,a)
    phi(z)   = (z - theta(z)) / psi(z), reduced

They are quotients of three polynomial series: det = det(zI - Q_{V°}) and
the numerators theta_n = q(a, .) adj(zI - Q_{V°}) q(., a) and
psi_n = det q(a, b) + q(a, .) adj(zI - Q_{V°}) q(., b).  With V's
conductances scaled to integers, mu the lcm of the interior measures and
N = mu Q_{V°} an integer matrix, adj(zI - Q_{V°}) is mu^(1-k) adj(wI - N)
at w = mu z, so one integer Faddeev-LeVerrier pass (`algebra.adjugate_series`)
gives all three series in w, and 2k integers l_a^T B_j r_a and l_a^T B_j r_b
besides its charpoly.  `TransferFunctions` holds only these integer series
in w; the series in z and each function are built on their first read, each
function one reduced quotient of the integer series, with one gcd and exact
divisions in integers:

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
`transfer` command and callers that map an S1 root back to its host
eigenvalue (`PipelineResult.transfer`, built on first access); the tests
check the resolvent identity G_*(x, y | z) psi(z) = G_X(x, y | phi(z)) with
them.

The boundary kernels are float pole expansions over the same typed interior
clusters that give `solve_S1` its weights, so no exact solve builds them and
the two agree on which interior eigenvalues are poles; at one z they are one
(2, |V°|) table, a product over the sorted poles.
"""

from __future__ import annotations

import math
import operator
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .algebra import Polynomial, RationalFunction, adjugate_series
# resolvent_matrix is unused here but stays importable: bench/spans.py traces it
from .algebra import resolvent_matrix  # noqa: F401
from .classify import cluster_types
from .errors import KernelPole
from .graph import Substituent
# eigen is unused here but stays importable: bench/spans.py traces it
from .operators import eigen  # noqa: F401

POLE_GUARD = 1e-12  # a kernel pole this close to z is a pole at z


@dataclass(frozen=True)
class TransferFunctions:
    """The three series over the integers in w = mu z, lowest degree first:
    det_w is mu^k det(z), theta_w and psi_w are m(a) mu^k times theta_n and
    psi_n, and z_minus_theta_w is m(a) mu^(k+1) (z det - theta_n), where m(a)
    is the scaled measure of a and k = |V°|.  The series in z and each
    transfer function are built from them on their first read; equality
    compares the integer data."""

    mu: int
    m_a: int
    det_w: tuple[int, ...]
    theta_w: tuple[int, ...]
    psi_w: tuple[int, ...]
    z_minus_theta_w: tuple[int, ...]

    def _in_z(self, series: tuple[int, ...], denominator: int) -> Polynomial:
        k = len(self.det_w) - 1
        return Polynomial(Fraction(c, denominator * self.mu ** (k - i)) for i, c in enumerate(series))

    @cached_property
    def det(self) -> Polynomial:
        return self._in_z(self.det_w, 1)

    @cached_property
    def theta_num(self) -> Polynomial:
        return self._in_z(self.theta_w, self.m_a)

    @cached_property
    def psi_num(self) -> Polynomial:
        return self._in_z(self.psi_w, self.m_a)

    @cached_property
    def phi(self) -> RationalFunction:
        return RationalFunction.from_integers(self.z_minus_theta_w, self.psi_w, 1, self.mu, self.mu)

    @cached_property
    def psi(self) -> RationalFunction:
        return RationalFunction.from_integers(self.psi_w, self.det_w, 1, self.m_a, self.mu)

    @cached_property
    def theta(self) -> RationalFunction:
        return RationalFunction.from_integers(self.theta_w, self.det_w, 1, self.m_a, self.mu)

    @cached_property
    def z_minus_theta(self) -> RationalFunction:
        return RationalFunction.from_integers(
            self.z_minus_theta_w, self.det_w, 1, self.m_a * self.mu, self.mu
        )


def compute_transfer(s: Substituent) -> TransferFunctions:
    """The three series from one integer Faddeev-LeVerrier pass over
    N = mu Q_{V°}: with integer conductances c and measures m, N(u, v) is
    c(u, v) mu / m(u), r_x(u) = c(u, x) mu / m(u) is mu q(u, x) and
    l_a(u) = c(a, u) is m(a) q(a, u), so theta_n at z is
    l_a^T adj(wI - N) r_a / (m(a) mu^k), and likewise psi_n."""
    g = s.graph
    scale = math.lcm(*(c.denominator for _, _, c in g.edges))
    adj = [{y: c.numerator * (scale // c.denominator) for y, c in g.adjacency(x).items()} for x in range(g.n)]
    m = [sum(row.values()) for row in adj]
    mu = math.lcm(*(m[u] for u in s.interior))
    index = {u: i for i, u in enumerate(s.interior)}
    N = [[0] * len(index) for _ in index]
    for u, i in index.items():
        for v, c in adj[u].items():
            if v in index:
                N[i][index[v]] = c * (mu // m[u])
    r_a, r_b = ([adj[u].get(x, 0) * (mu // m[u]) for u in s.interior] for x in (s.a, s.b))
    l_a = [adj[s.a].get(u, 0) for u in s.interior]
    det, (b_a, b_b) = adjugate_series(N, [r_a, r_b])
    # B_j is the coefficient of w^(k-1-j): the theta and psi series run backwards
    theta = [sum(map(operator.mul, l_a, v)) for v in reversed(b_a)]
    adj_b = [sum(map(operator.mul, l_a, v)) for v in reversed(b_b)] + [0]
    c_ab, m_a = adj[s.a].get(s.b, 0), m[s.a]
    psi = [c_ab * d + t for d, t in zip(det, adj_b)]
    z_minus_theta = [m_a * d - mu * t for d, t in zip([0, *det], [*theta, 0, 0])]
    return TransferFunctions(mu, m_a, *map(tuple, (det, theta, psi, z_minus_theta)))


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

        Raises `KernelPole` when z is within POLE_GUARD of a pole: the
        nearer of the two poles that z bisects."""
        poles = self.poles
        k = bisect_left(poles, z)
        near = min(z - poles[k - 1] if k else math.inf, poles[k] - z if k < len(poles) else math.inf)
        if near < POLE_GUARD:
            raise KernelPole(f"distance {near:.3e} to a kernel pole at z={z!r}")
        return ((1.0 / (z - poles)) @ self.residues).reshape(2, -1)


def boundary_kernels(s: Substituent) -> BoundaryKernels:
    """The kernels' pole expansions over the typed interior clusters.

    With the m-orthonormal eigenbasis B of an interior eigenvalue mu, the
    residue of to_a is m(a) B B^T q(a, .), and that of to_b the same with b:
    one product of `eigh`'s vectors with their boundary data and one segment
    sum over the clusters.  The poles are the clusters of type II°, III° and
    IV°, the ones with a secular weight in `solve_S1`; a type-I° mu has
    neither weight nor boundary data, so it is no pole.
    """
    t = cluster_types(s, "Qo")
    at = t.boundary @ t.h  # B^T q(a, .) and B^T q(b, .), column by column
    sums = np.add.reduceat(t.h[None] * at[:, None], t.starts, axis=2)
    poles = np.flatnonzero(t.kind)[::-1]  # ascending values
    residues = t.mass * sums[:, :, poles].transpose(2, 0, 1).reshape(len(poles), -1)
    return BoundaryKernels(s, t.values[poles], residues)
