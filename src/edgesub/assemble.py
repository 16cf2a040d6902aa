"""Assembly of the full spectrum of the substituted operator.

The spectrum decomposes into three parts:

* S1 — solutions of phi(lambda*) = lambda for host eigenvalues lambda,
  with multiplicity nu_P(lambda), except at the points that S2 or the
  interior table already count.  For each lambda they are the eigenvalues
  of a symmetric arrowhead matrix built from lambda q(a, b), the interior
  eigenvalues and their secular weights (`classify.ClusterTypes.S`, `.D`),
  all lambda in one stacked `eigvalsh`; no transfer function is built;
* S2 — the common real zeros of psi and z - theta outside the interior
  spectrum, with multiplicity |X|: the eigenvalues of Q of type IV with
  nu = 2 outside the interior spectrum;
* interior — eigenvalues of the interior restriction, with multiplicity
  given by a table over the (Q-type, interior-type) pair; tree and
  odd-unicyclic hosts can drop some candidates.  The exceptional set
  `report.exc` is the interior values whose cell counts 0; the type rules A
  and B that name the same values are the test reference (`tests/reference.py`).

The spectrum reads only the typing pass of Q and Q° (`classify.ClusterTypes`,
arrays over their clusters, one `classify.cluster_types` call each, which
also factorizes the operator), and every step runs on those arrays: the Q row
of each interior eigenvalue, S2, the exclusions, S1, the table, the
exceptional set, the merge, the total check and the gap.  The report keeps
arrays too, and builds its entries and text on first read; the normal forms
of Q and Q° are built on first read of `PipelineResult.classified_Q` and
`.classified_interior`.  The total is checked against the dimension of X[V].
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple, Optional

import numpy as np

# real_roots_in_interval, classify_Q and classify_Qinterior are unused here
# but stay importable: bench/spans.py traces them
from .algebra import real_roots_in_interval  # noqa: F401
from .classify import _KINDS, ClusterTypes, TypedEigenvalue, cluster_types
from .classify import classify_Q, classify_Qinterior  # noqa: F401
from .errors import InvalidTypeCombination, PreconditionNotMet, TotalMismatch
from .extensions import ExtensionFunction, nodal_from_interior
from .graph import (
    CycleBase,
    Orientation,
    Substituent,
    WeightedGraph,
    fundamental_cycle_base,
    validate_substituent,
)
from .operators import CLUSTER_TOL, EigenDecomposition, ReversibleOperator, eigen
from .substitution import SubstitutedGraph, substitute
from .transfer import TransferFunctions, compute_transfer

# The table row of an interior eigenvalue: "0" when it is no eigenvalue of Q,
# else the type of Q there (row code 1 + its kind).
_ROWS = ("0", *_KINDS)
# A report part's provenance code indexes these; an S1 part's text also
# names its root and lambda.  Interior cell (row, col) has code 2 + 4 row + col.
_PROVENANCE = ("S1", "S2", *(f"Interior: ({row}, {col}°)" for row in _ROWS for col in _KINDS))
_S1, _S2, _INTERIOR = 0, 1, 2


class SpectrumEntry(NamedTuple):
    """One eigenvalue of X[V] with its multiplicity, where it comes from and
    the host cluster of each S1 root in it.  A named tuple: as immutable as
    a frozen dataclass, and half its construction cost per entry."""

    value: float
    nu: int
    provenance: tuple[str, ...]
    lam_index: tuple[int, ...] = ()

    def describe(self) -> str:
        return f"{self.value:+.12f}  nu={self.nu}  [{'; '.join(self.provenance)}]"


@dataclass(eq=False)
class SpectrumReport:
    """The spectrum of X[V] as arrays over its parts: the S1 roots, the S2
    points and the interior values with a positive count, in the order
    `assemble` finds them.  Part k has `value[k]`, `nu[k]`, a provenance
    `code[k]` (an index into `_PROVENANCE`) and, for an S1 root,
    `lam_index[k]`, the index of its lambda among `host_values` (-1 for the
    other parts).  `entries` and `to_text()` are built from the arrays on
    first read."""

    value: np.ndarray
    nu: np.ndarray
    code: np.ndarray
    lam_index: np.ndarray
    host_values: tuple[float, ...]
    exc: list[tuple[float, str]]
    gap: Optional[tuple[float, float]]
    total: int
    expected_total: int
    delta_b: int
    host_is_tree: bool
    host_is_odd_unicyclic: bool

    @cached_property
    def entries(self) -> list[SpectrumEntry]:
        """The parts in descending order of value (at a tie in the order
        found), a part within CLUSTER_TOL of the first value of the entry
        before it merged into that entry: nu summed, its provenance and
        "MergedProvenance" appended, its lambda index too."""
        order = np.argsort(-self.value, kind="stable")
        value, nu, code, lam = (a[order].tolist() for a in (self.value, self.nu, self.code, self.lam_index))
        entries: list[SpectrumEntry] = []
        top = math.inf  # the first value of the last entry
        for v, n, c, k in zip(value, nu, code, lam):
            if c == _S1:
                provenance, ks = (f"S1: phi({v:.6f}) = {self.host_values[k]:.6f}, nu_P={n}",), (k,)
            else:
                provenance, ks = (_PROVENANCE[c],), ()
            if abs(top - v) <= CLUSTER_TOL:
                e = entries[-1]
                entries[-1] = SpectrumEntry(
                    e.value, e.nu + n, e.provenance + provenance + ("MergedProvenance",), e.lam_index + ks
                )
            else:
                entries.append(SpectrumEntry(v, n, provenance, ks))
                top = v
        return entries

    def values(self) -> list[float]:
        return [e.value for e in self.entries]

    def multiset(self) -> list[tuple[float, int]]:
        return [(e.value, e.nu) for e in self.entries]

    def to_text(self) -> str:
        lines = ["spectrum-report", f"  setting cluster_tol = {CLUSTER_TOL}"]
        lines.append(f"  delta_b = {self.delta_b}")
        lines.append(f"  host_is_tree = {self.host_is_tree}")
        lines.append(f"  host_is_odd_unicyclic = {self.host_is_odd_unicyclic}")
        lines.append(f"  total = {self.total} / {self.expected_total}")
        if self.gap is not None:
            lines.append(f"  gap lambda1 = {self.gap[0]:.12f} lambda1* = {self.gap[1]:.12f}")
        for fval, rule in self.exc:
            lines.append(f"  excluded {fval:+.12f} (rule {rule})")
        lines.append("  entries:")
        for e in self.entries:
            lines.append("    " + e.describe())
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# S1
# ---------------------------------------------------------------------------


def _arrowhead_eigenvalues(corner: np.ndarray, mus: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Row i: the eigenvalues of [[corner[i], r^T], [r, diag(mus)]] with
    r = sqrt(w[i]), in one stacked `eigvalsh`."""
    k = len(mus)
    A = np.zeros((len(corner), k + 1, k + 1))
    A[:, 0, 0] = corner
    A[:, 0, 1:] = A[:, 1:, 0] = np.sqrt(w)
    A[:, range(1, k + 1), range(1, k + 1)] = mus
    return np.linalg.eigvalsh(A)


@dataclass(frozen=True)
class S1Roots:
    """The S1 roots that `solve_S1` keeps, by host cluster and ascending
    within one: `roots[k]` solves phi(z) = lambda for the host cluster
    `lam_index[k]`."""

    roots: np.ndarray
    lam_index: np.ndarray

    def __len__(self) -> int:
        return len(self.roots)


def solve_S1(
    s: Substituent,
    interior: ClusterTypes,
    spec_P: EigenDecomposition,
    points: np.ndarray,
    point_lams: np.ndarray,
) -> S1Roots:
    """All lambda* with phi(lambda*) = lambda for a host eigenvalue lambda,
    except the roots counted elsewhere: a root within CLUSTER_TOL of
    `points[i]` is dropped when its lambda is `point_lams[i]`, or for every
    lambda when `point_lams[i]` is NaN.

    Over the interior clusters mu, z - theta - lambda psi is
    z - lambda q(a, b) - sum_mu w_mu / (z - mu) with the weight
    w_mu = (1 + lambda) S_mu + (1 - lambda) D_mu >= 0: the secular equation
    of the arrowhead matrix with corner lambda q(a, b), diagonal the mu with
    w_mu > 0 and border sqrt(w_mu), whose eigenvalues are its roots.  A
    type-I° mu never has weight; lambda = 1 (a connected host's first
    cluster) and lambda = -1 (a bipartite host's last) are set exactly, so
    that the type-III° and the type-II° mu lose theirs.  The host
    eigenvalues with one pattern of weights are one batch.
    """
    g = s.graph
    q_ab = float(g.conductance(s.a, s.b) / g.m(s.a))
    lam = np.array(spec_P.values)
    lam[0] = 1.0
    if spec_P.operator.graph.delta_b:
        lam[-1] = -1.0
    w = np.outer(1 + lam, interior.S) + np.outer(1 - lam, interior.D)
    positive = w > 0
    batches: dict[bytes, list[int]] = {}
    for i, row in enumerate(positive):
        batches.setdefault(row.tobytes(), []).append(i)
    roots, owner = [], []
    for idx in map(np.array, batches.values()):
        live = positive[idx[0]]
        found = _arrowhead_eigenvalues(lam[idx] * q_ab, interior.values[live], w[idx][:, live])
        roots.append(found.ravel())
        owner.append(np.repeat(idx, found.shape[1]))
    roots, owner = np.concatenate(roots), np.concatenate(owner)
    if len(points):
        near = np.abs(roots[:, None] - points[None, :]) <= CLUSTER_TOL
        same = np.isnan(point_lams) | (np.abs(lam[owner][:, None] - point_lams[None, :]) <= CLUSTER_TOL)
        keep = ~np.any(near & same, axis=1)
        roots, owner = roots[keep], owner[keep]
    order = np.lexsort((roots, owner))
    return S1Roots(roots[order], owner[order])


# ---------------------------------------------------------------------------
# S2
# ---------------------------------------------------------------------------


def solve_S2(Q: ClusterTypes, interior_spec: np.ndarray) -> np.ndarray:
    """The eigenvalues of Q of type IV with nu = 2 that are not within
    CLUSTER_TOL of an interior eigenvalue, ascending: the points where
    psi(lambda*) = 0 and theta(lambda*) = lambda*."""
    values = Q.values[(Q.kind == 3) & (Q.nu == 2)]
    return np.sort(values[np.all(np.abs(values[:, None] - interior_spec) > CLUSTER_TOL, axis=1)])


# The interior table counts, at an interior eigenvalue mu in row II, III or
# IV, the S1 roots of phi(z) = lambda for lambda = 1, -1 or every lambda
# (NaN), by row code; rows "0" and I count none.  The interior type of mu
# needs no such list: a mu with weight is a pole of the secular equation,
# never one of its roots.
_ROW_COUNTS = np.array([0.0, 0.0, 1.0, -1.0, np.nan])


def _q_rows(Q: ClusterTypes, interior: ClusterTypes) -> np.ndarray:
    """Each interior eigenvalue's Q row: the index of the first cluster of Q
    within CLUSTER_TOL of it, or -1."""
    near = np.abs(interior.values[:, None] - Q.values[None, :]) <= CLUSTER_TOL
    return np.where(near.any(axis=1), near.argmax(axis=1), -1)


# ---------------------------------------------------------------------------
# Exceptional set
# ---------------------------------------------------------------------------


def _host_shape(X: WeightedGraph) -> tuple[bool, bool]:
    """(X is a tree, X is unicyclic with an odd cycle), from the cyclomatic
    number |E_X| - |X| + 1 and bipartiteness: one cycle is odd iff X is not
    bipartite."""
    cycles = X.num_edges - X.n + 1
    return cycles == 0, cycles == 1 and X.delta_b == 0


def exceptional_set(
    values: np.ndarray, counts: np.ndarray, shape: tuple[bool, bool]
) -> list[tuple[float, str]]:
    """The interior candidates whose table count is 0, with the rule that
    drops them: "A" on a tree, "B" on an odd-unicyclic host (`shape` is
    `_host_shape`).  No other host has a zero cell: there |E_X| >= |X|, and
    the cells that can reach 0, (0, II°), (I, II°) and (III, II°) at nu° = 1,
    are |E_X| - |X| + delta_b or more, positive unless the host is
    unicyclic with an odd cycle."""
    rule = "A" if shape[0] else "B"
    return [(value, rule) for value in values[counts == 0].tolist()]


# ---------------------------------------------------------------------------
# Interior multiplicity table
# ---------------------------------------------------------------------------

# Cell (row, col) of the table, at index 4 row + col, as the coefficients of
# (nu° |E|, |E|, |X|, delta_b, 1); rows "0", I-IV as in _ROWS, columns
# I°-IV°.  The cell ("0", I°) cannot occur and is all zero.
_TABLE = np.array([
    [(0, 0, 0, 0, 0), (0, 1, -1, 1, 0), (0, 1, -1, 0, 1), (0, 2, -1, 0, 0)],
    [(1, 0, 0, 0, 0), (1, 0, -1, 1, 0), (1, 0, -1, 0, 1), (1, 0, -1, 0, 0)],
    [(1, 0, 0, 0, 1), (1, 0, -1, 1, 1), (1, 0, -1, 0, 2), (1, 0, -1, 0, 1)],
    [(1, 0, 0, 1, 0), (1, 0, -1, 2, 0), (1, 0, -1, 1, 1), (1, 0, -1, 1, 0)],
    [(1, 0, 1, 0, 0), (1, 0, 0, 1, 0), (1, 0, 0, 0, 1), (1, 0, 0, 0, 0)],
]).reshape(20, 5)


def interior_multiplicity(
    row: str, col: str, nu_o: int, n_X: int, n_E: int, delta_b: int
) -> int:
    """nu_* of an interior eigenvalue by (Q-type row, interior-type column).

    Row "0" means the value is not an eigenvalue of Q.  Raises
    InvalidTypeCombination for a cell that cannot occur and for a negative
    count, which sizes inconsistent with the types produce.
    """
    if row not in _ROWS or col not in _KINDS:
        raise InvalidTypeCombination(f"({row}, {col})")
    if (row, col) == ("0", "I"):
        raise InvalidTypeCombination(f"({row}, {col}°) cannot occur")
    value = int(_TABLE[4 * _ROWS.index(row) + _KINDS.index(col)] @ (nu_o * n_E, n_E, n_X, delta_b, 1))
    if value < 0:
        raise InvalidTypeCombination(f"({row}, {col}°) gives the negative multiplicity {value}")
    return value


# ---------------------------------------------------------------------------
# Full assembly
# ---------------------------------------------------------------------------


@dataclass
class PipelineResult:
    """Everything `assemble` computed: the host's clustered spectrum and the
    typing passes of Q and Q° (`spec_Q`, `spec_interior`).  The normal forms
    of Q and Q°, the layout of X[V], the host's cycle base and the transfer
    functions' three series are built on first access of `classified_Q`,
    `classified_interior`, `substituted`, `cycle_base` and `transfer`: the
    spectrum needs none of them.  The eigenfunctions read only the layout;
    the exact graph of X[V] is built on first read of `substituted.graph`,
    and each transfer function on its own first read."""

    report: SpectrumReport
    host: WeightedGraph
    orientation: Orientation
    substituent: Substituent
    spec_P: EigenDecomposition
    spec_Q: ClusterTypes
    spec_interior: ClusterTypes
    nodal_families: dict[float, list[ExtensionFunction]] = field(default_factory=dict)

    @cached_property
    def classified_Q(self) -> list[TypedEigenvalue]:
        return self.spec_Q.normal_forms()

    @cached_property
    def classified_interior(self) -> list[TypedEigenvalue]:
        return self.spec_interior.normal_forms()

    @cached_property
    def substituted(self) -> SubstitutedGraph:
        return substitute(self.host, self.orientation, self.substituent)

    @cached_property
    def cycle_base(self) -> CycleBase:
        return fundamental_cycle_base(self.host)

    @cached_property
    def transfer(self) -> TransferFunctions:
        return compute_transfer(self.substituent)


def assemble(
    X: WeightedGraph,
    orient: Orientation,
    s: Substituent,
    build_families: bool = True,
) -> PipelineResult:
    validate_substituent(s)

    spec_P = eigen(ReversibleOperator.full(X))
    tQ = cluster_types(s, "Q")
    tI = cluster_types(s, "Qo")
    q_row = _q_rows(tQ, tI)
    row = np.where(q_row < 0, 0, tQ.kind[q_row] + 1)  # an index into _ROWS

    n_X, n_E = X.n, X.num_edges
    delta_b = X.delta_b

    s2 = solve_S2(tQ, tI.values)
    counted = row >= 2  # rows II, III and IV
    points = np.concatenate([s2, tI.values[counted]])
    point_lams = np.concatenate([np.full(len(s2), np.nan), _ROW_COUNTS[row[counted]]])
    s1 = solve_S1(s, tI, spec_P, points, point_lams)

    cell = 4 * row + tI.kind  # the table cell of each interior eigenvalue
    counts = _TABLE[cell, 0] * tI.nu * n_E + _TABLE[cell, 1:] @ (n_E, n_X, delta_b, 1)
    bad = np.flatnonzero((cell == 0) | (counts < 0))
    if bad.size:  # raises for the first cell that cannot occur
        k = bad[0]
        interior_multiplicity(_ROWS[row[k]], _KINDS[tI.kind[k]], int(tI.nu[k]), n_X, n_E, delta_b)
    shape = _host_shape(X)
    exc = exceptional_set(tI.values, counts, shape)
    live = counts > 0

    value = np.concatenate([s1.roots, s2, tI.values[live]])
    nu = np.concatenate([np.array(spec_P.multiplicities)[s1.lam_index], np.full(len(s2), n_X), counts[live]])
    code = np.concatenate([np.full(len(s1), _S1), np.full(len(s2), _S2), _INTERIOR + cell[live]])
    lam_index = np.concatenate([s1.lam_index, np.full(len(s2) + int(live.sum()), -1)])

    total = int(nu.sum())
    expected = n_X + n_E * (s.graph.n - 2)
    report = SpectrumReport(
        value, nu, code, lam_index, spec_P.values,
        exc=exc,
        gap=None,
        total=total,
        expected_total=expected,
        delta_b=delta_b,
        host_is_tree=shape[0],
        host_is_odd_unicyclic=shape[1],
    )
    if total != expected:
        raise TotalMismatch(f"sum of multiplicities {total} != |X[V]| = {expected}\n" + report.to_text())

    try:
        report.gap = spectral_gap(report, s1, spec_P, X, s)
    except PreconditionNotMet:
        report.gap = None

    result = PipelineResult(report, X, orient, s, spec_P, tQ, tI)
    if build_families:
        result.nodal_families = {
            t.value: nodal_from_interior(result.substituted, t, result.cycle_base)
            for t in result.classified_interior
        }
    return result


def spectral_gap(
    report: SpectrumReport,
    s1: S1Roots,
    spec_P: EigenDecomposition,
    X: WeightedGraph,
    s: Substituent,
) -> tuple[float, float]:
    """(lambda1, lambda1*): the host gap and the substituted gap, where
    lambda1* is the largest S1 root for lambda1."""
    if X.n < 3:
        raise PreconditionNotMet("need |X| >= 3")
    lam1 = spec_P.values[1]
    interior_connected = s.graph.connected_on(s.interior)
    if not interior_connected and lam1 < 0:
        raise PreconditionNotMet("need connected interior or lambda1 >= 0")

    roots = s1.roots[s1.lam_index == 1]
    if not roots.size:
        raise PreconditionNotMet(f"no S1 root for lambda1 = {lam1}")
    lam1_star = float(roots.max())

    # the second entry's first value: the largest part not merged into the first entry
    top = report.value.max()
    second = float(report.value[top - report.value > CLUSTER_TOL].max())
    if abs(second - lam1_star) > 1e-9:
        raise PreconditionNotMet(
            f"largest phi-root {lam1_star} is not the report's second entry {second}"
        )
    return lam1, lam1_star
