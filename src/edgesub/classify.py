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

Each operator is factorized once (`operators._eigenpairs`, one `eigh`), and
classification is two passes over its eigenvectors.  The typing pass
(`cluster_types`) returns `ClusterTypes`: arrays over the clusters of nu,
the type, nu', S, D and `ambiguous`, array expressions of the RANK_TOL rule
over per-cluster segment sums.  The spectrum reads these alone.  The
normal-form pass (`ClusterTypes.normal_forms`) builds the bases and the
`TypedEigenvalue` list from the same arrays, only for a caller that reads
them (`classify_Q`, `classify_Qinterior` and the eigenfunctions): a simple
eigenvalue's column scaled, and only a multiple eigenvalue with boundary
data takes a small product of its own.  A simple eigenvalue typed IV raises
`InvalidTypeCombination` in the typing pass: its eigenfunction is
gamma-even or gamma-odd, so both s and d passing the rule is float mixing.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidTypeCombination
from .graph import Substituent
from .operators import EigenDecomposition, ReversibleOperator, _eigenpairs

RANK_TOL = 1e-7
_KINDS = ("I", "II", "III", "IV")
_RANKS = np.array([0, 1, 1, 2])  # how many of s and d each type keeps
_S_AND_D = np.array([[1.0, 1.0], [1.0, -1.0]])  # (at a, at b) -> (s, d)


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


@dataclass(eq=False)
class ClusterTypes:
    """The typing pass over one operator's clusters (source "Q" or "Qo"):
    arrays over the clusters, in the descending order of their values, of
    nu, the type (`kind`, an index into I-IV), nu', the secular weights S
    and D, and `ambiguous`.  The normal forms are built from the same arrays
    only by `normal_forms`: `h` holds the clusters' m-orthonormal bases side
    by side, `boundary` maps a function on the support to its (a, b) data,
    `sd` is s and d of every column of `h`, and `squares` and `keep` are
    |s|^2, |d|^2 and which of them the RANK_TOL rule keeps, per cluster."""

    source: str
    mass: float  # m(a)
    values: np.ndarray
    nu: np.ndarray
    kind: np.ndarray
    nu_prime: np.ndarray
    S: np.ndarray
    D: np.ndarray
    ambiguous: np.ndarray
    h: np.ndarray = field(repr=False)
    boundary: np.ndarray = field(repr=False)
    sd: np.ndarray = field(repr=False)
    squares: np.ndarray = field(repr=False)
    keep: np.ndarray = field(repr=False)

    @property
    def starts(self) -> np.ndarray:
        """The first column of each cluster in `h`."""
        return self.nu.cumsum() - self.nu

    def normal_forms(self) -> list[TypedEigenvalue]:
        """The normal-form pass.  A simple eigenvalue's normal form is its
        column scaled, by 1 for type I and by the coefficient of its one tail
        otherwise; only a multiple eigenvalue with boundary data takes a
        product of its own, and a QR complement where its zero block sits
        next to a tail."""
        h, sd, keep, nu, kind = self.h, self.sd, self.keep, self.nu, self.kind
        # tail coefficients 2s/|s|^2 (boundary (1, 1)) and 2d/|d|^2 (boundary
        # (1, -1)), zero where not kept
        scale = np.divide(2.0, self.squares, out=np.zeros_like(self.squares), where=keep)
        coef = sd * np.repeat(scale, nu, axis=1)
        normal = h * (coef[0] + coef[1] + np.repeat(kind == 0, nu))
        starts = self.starts.tolist()
        for k in np.flatnonzero((nu > 1) & (kind > 0)).tolist():
            a, n, rank = starts[k], int(nu[k]), int(_RANKS[kind[k]])
            basis = h[:, a : a + n]
            tails = basis @ coef[keep[:, k], a : a + n].T
            if rank == 2:  # type IV
                even, odd = tails.T
                tails = np.column_stack([0.5 * (even - odd), 0.5 * (even + odd)])  # (0, 1), (1, 0)
            if rank < n:
                # zero-boundary block: coefficients orthogonal to the kept s and d;
                # orthonormal coefficients keep the basis m-orthonormal
                q = np.linalg.qr(sd[keep[:, k], a : a + n].T, mode="complete")[0]
                normal[:, a : a + n - rank] = basis @ q[:, rank:]
            normal[:, a + n - rank : a + n] = tails
        return [
            TypedEigenvalue(value, self.source, _KINDS[c], n, n_prime, normal[:, a : a + n], amb, s, d)
            for value, n, n_prime, a, c, amb, s, d in zip(
                self.values.tolist(), nu.tolist(), self.nu_prime.tolist(), starts, kind.tolist(),
                self.ambiguous.tolist(), self.S.tolist(), self.D.tolist(),
            )
        ]


def _boundary_map(s: Substituent, source: str, support: tuple[int, ...]) -> np.ndarray:
    """Linear map from functions on the support to their (a, b) boundary data:
    unit rows at a and b for Q, the float rows q(a, .) and q(b, .) for Q°."""
    rows = np.zeros((2, len(support)))
    pos = {x: i for i, x in enumerate(support)}
    if source == "Q":
        rows[0, pos[s.a]] = 1.0
        rows[1, pos[s.b]] = 1.0
    else:
        g = s.graph
        for row, x in zip(rows, (s.a, s.b)):
            for y, c in g.adjacency(x).items():
                if y in pos:
                    q = c / g.m(x)
                    row[pos[y]] = q.numerator / q.denominator
    return rows


def _type_clusters(
    values: tuple[float, ...],
    multiplicities: tuple[int, ...],
    h: np.ndarray,
    boundary: np.ndarray,
    source: str,
    mass: float,
) -> ClusterTypes:
    """The typing pass: every cluster typed in one pass over `h`, the
    clusters' m-orthonormal bases side by side.  The s and d of all columns
    are one product, |s|^2 and |d|^2 per cluster are segment sums, and the
    type, nu', S, D and `ambiguous` are array expressions of the RANK_TOL
    rule.  A simple eigenvalue that keeps both norms raises."""
    nu = np.array(multiplicities)
    sd = _S_AND_D @ boundary @ h  # s, d: gamma-fixed and gamma-negated
    squares = np.add.reduceat(sd * sd, nu.cumsum() - nu, axis=1)
    norms = np.sqrt(squares / 2)
    cut = RANK_TOL * norms.max(axis=0, initial=1.0)
    keep = norms > cut
    kind = np.dot((1, 2), keep)  # index into _KINDS
    S, D = keep * squares * (mass / 4)
    ambiguous = ((cut / 10 < norms) & (norms < cut * 10)).any(axis=0)
    nu_prime = nu - _RANKS[kind]
    simple_IV = np.flatnonzero(nu_prime < 0)
    if simple_IV.size:  # a simple eigenfunction is gamma-even or gamma-odd
        k = simple_IV[0]
        raise InvalidTypeCombination(
            f"simple eigenvalue {values[k]!r} of {source} keeps both boundary norms, "
            f"|s|/sqrt(2) = {norms[0, k]:.3e} and |d|/sqrt(2) = {norms[1, k]:.3e}"
        )
    return ClusterTypes(
        source, mass, np.array(values), nu, kind, nu_prime, S, D, ambiguous, h, boundary, sd, squares, keep
    )


def cluster_types(s: Substituent, decomp: EigenDecomposition, source: str) -> ClusterTypes:
    """The typing pass over the clusters of `decomp`, the factorization of
    Q (source "Q") or of Q° (source "Qo")."""
    boundary = _boundary_map(s, source, decomp.operator.support)
    h = np.concatenate(decomp.bases, axis=1)
    mass = float(s.graph.m(s.a))
    return _type_clusters(decomp.values, decomp.multiplicities, h, boundary, source, mass)


def classify_Q(s: Substituent, decomp: EigenDecomposition | None = None) -> list[TypedEigenvalue]:
    if decomp is None:
        decomp = _eigenpairs(ReversibleOperator.full(s.graph))
    return cluster_types(s, decomp, "Q").normal_forms()


def classify_Qinterior(s: Substituent, decomp: EigenDecomposition | None = None) -> list[TypedEigenvalue]:
    if decomp is None:
        decomp = _eigenpairs(ReversibleOperator.restricted(s.graph, s.interior))
    return cluster_types(s, decomp, "Qo").normal_forms()
