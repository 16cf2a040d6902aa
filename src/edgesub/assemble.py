"""Assembly of the full spectrum of the substituted operator.

The spectrum decomposes into three parts:

* S1 — solutions of phi(lambda*) = lambda for host eigenvalues lambda,
  with multiplicity nu_P(lambda), except at the points that S2 or the
  interior table already count.  For each lambda they are the eigenvalues
  of a symmetric arrowhead matrix built from lambda q(a, b), the interior
  eigenvalues and their secular weights (`classify.TypedEigenvalue.S`, `.D`),
  all lambda in one stacked `eigvalsh`; no transfer function is built;
* S2 — the common real zeros of psi and z - theta outside the interior
  spectrum, with multiplicity |X|: the eigenvalues of Q of type IV with
  nu = 2 outside the interior spectrum;
* interior — eigenvalues of the interior restriction, with multiplicity
  given by a table over the (Q-type, interior-type) pair; tree and
  odd-unicyclic hosts can drop some candidates (the exceptional set).

The final report is checked against the dimension of X[V].
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

import numpy as np

# real_roots_in_interval is unused here but stays importable: bench/spans.py traces it
from .algebra import real_roots_in_interval  # noqa: F401
from .classify import TypedEigenvalue, classify_Q, classify_Qinterior
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
from .operators import (
    CLUSTER_TOL,
    EigenDecomposition,
    ReversibleOperator,
    _eigenpairs,
    eigen,
)
from .substitution import SubstitutedGraph, substitute
from .transfer import TransferFunctions, compute_transfer


@dataclass(frozen=True)
class SpectrumEntry:
    value: float
    nu: int
    provenance: tuple[str, ...]

    def describe(self) -> str:
        return f"{self.value:+.12f}  nu={self.nu}  [{'; '.join(self.provenance)}]"


@dataclass
class SpectrumReport:
    entries: list[SpectrumEntry]
    exc: list[tuple[float, str]]
    gap: Optional[tuple[float, float]]
    total: int
    expected_total: int
    delta_b: int
    host_is_tree: bool
    host_is_odd_unicyclic: bool

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


def solve_S1(
    s: Substituent,
    interior: list[TypedEigenvalue],
    spec_P: EigenDecomposition,
    excluded: list[tuple[float, Optional[float]]],
) -> list[tuple[float, float, int]]:
    """All (lambda*, lambda, nu_P(lambda)) with phi(lambda*) = lambda, except
    the roots counted elsewhere: `excluded` holds pairs (p, v), and a root
    within CLUSTER_TOL of p is dropped when its lambda is v, or for every
    lambda when v is None.

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
    lams = np.array(spec_P.values)
    lams[0] = 1.0
    if spec_P.operator.graph.delta_b:
        lams[-1] = -1.0
    mus, S, D = (np.array([getattr(t, f) for t in interior]) for f in ("value", "S", "D"))
    w = np.outer(1 + lams, S) + np.outer(1 - lams, D)
    positive = w > 0
    batches: dict[bytes, list[int]] = {}
    for i, row in enumerate(positive):
        batches.setdefault(row.tobytes(), []).append(i)
    roots, owner = [], []
    for idx in batches.values():
        live = positive[idx[0]]
        found = _arrowhead_eigenvalues(lams[idx] * q_ab, mus[live], w[np.ix_(idx, live)])
        roots.append(found.ravel())
        owner.append(np.repeat(idx, found.shape[1]))
    roots, owner = np.concatenate(roots), np.concatenate(owner)
    if excluded:
        points = np.array([p for p, _ in excluded])
        values = np.array([np.nan if v is None else v for _, v in excluded])
        near = np.abs(roots[:, None] - points[None, :]) <= CLUSTER_TOL
        same = np.isnan(values) | (np.abs(lams[owner][:, None] - values[None, :]) <= CLUSTER_TOL)
        keep = ~np.any(near & same, axis=1)
        roots, owner = roots[keep], owner[keep]
    order = np.lexsort((roots, owner))
    return [
        (float(roots[k]), spec_P.values[owner[k]], spec_P.multiplicities[owner[k]])
        for k in order
    ]


# ---------------------------------------------------------------------------
# S2
# ---------------------------------------------------------------------------


def solve_S2(classified_Q: list[TypedEigenvalue], interior_spec: list[float]) -> list[float]:
    """The eigenvalues of Q of type IV with nu = 2 that are not within
    CLUSTER_TOL of an interior eigenvalue, ascending: the points where
    psi(lambda*) = 0 and theta(lambda*) = lambda*."""
    return sorted(
        t.value for t in classified_Q
        if t.type == "IV" and t.nu == 2 and all(abs(t.value - mu) > CLUSTER_TOL for mu in interior_spec)
    )


# The interior table counts, at an interior eigenvalue mu, the S1 roots of
# phi(z) = lambda for these host eigenvalues lambda, by the Q row of mu
# (None: every lambda).  The interior type of mu needs no such list: a mu
# with weight is a pole of the secular equation, never one of its roots.
_ROW_COUNTS = {"II": [1.0], "III": [-1.0], "IV": [None]}


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
    X: WeightedGraph,
    interior_rows: list[tuple[TypedEigenvalue, Optional[TypedEigenvalue]]],
) -> list[tuple[float, str]]:
    """Interior candidates that a tree or odd-unicyclic host drops, from each
    interior eigenvalue paired with the eigenvalue of Q at it, or None."""
    is_tree, is_odd_unicyclic = _host_shape(X)
    if not (is_tree or is_odd_unicyclic):
        return []

    out = []
    for t, qt in interior_rows:
        if is_tree:  # on a single edge, 2|E| - |X| = 0 drops a IV° value too
            dropped = qt is None and (t.type in ("II", "III") or t.type == "IV" and X.n == 2)
        else:
            dropped = t.nu == 1 and t.type == "II" and (qt is None or qt.type == "III" and qt.nu == 1)
        if dropped:
            out.append((t.value, "A" if is_tree else "B"))
    return out


# ---------------------------------------------------------------------------
# Interior multiplicity table
# ---------------------------------------------------------------------------


def interior_multiplicity(
    row: str, col: str, nu_o: int, n_X: int, n_E: int, delta_b: int
) -> int:
    """nu_* of an interior eigenvalue by (Q-type row, interior-type column).

    Row "0" means the value is not an eigenvalue of Q.  Raises
    InvalidTypeCombination for a cell that cannot occur and for a negative
    count, which sizes inconsistent with the types produce.
    """
    E, X, d = n_E, n_X, delta_b
    table = {
        ("0", "I"): None,
        ("0", "II"): E - X + d,
        ("0", "III"): E - X + 1,
        ("0", "IV"): 2 * E - X,
        ("I", "I"): nu_o * E,
        ("I", "II"): nu_o * E - X + d,
        ("I", "III"): nu_o * E - X + 1,
        ("I", "IV"): nu_o * E - X,
        ("II", "I"): nu_o * E + 1,
        ("II", "II"): nu_o * E - X + 1 + d,
        ("II", "III"): nu_o * E - X + 2,
        ("II", "IV"): nu_o * E - X + 1,
        ("III", "I"): nu_o * E + d,
        ("III", "II"): nu_o * E - X + 2 * d,
        ("III", "III"): nu_o * E - X + 1 + d,
        ("III", "IV"): nu_o * E - X + d,
        ("IV", "I"): nu_o * E + X,
        ("IV", "II"): nu_o * E + d,
        ("IV", "III"): nu_o * E + 1,
        ("IV", "IV"): nu_o * E,
    }
    if (row, col) not in table:
        raise InvalidTypeCombination(f"({row}, {col})")
    value = table[(row, col)]
    if value is None:
        raise InvalidTypeCombination(f"({row}, {col}°) cannot occur")
    if value < 0:
        raise InvalidTypeCombination(f"({row}, {col}°) gives the negative multiplicity {value}")
    return value


# ---------------------------------------------------------------------------
# Full assembly
# ---------------------------------------------------------------------------


@dataclass
class PipelineResult:
    """Everything `assemble` computed.  The layout of X[V], the host's cycle
    base and the transfer functions' three series are built on first access
    of `substituted`, `cycle_base` and `transfer`: the spectrum needs none
    of them.  The eigenfunctions read only the layout; the exact graph of
    X[V] is built on first read of `substituted.graph`, and each transfer
    function on its own first read."""

    report: SpectrumReport
    host: WeightedGraph
    orientation: Orientation
    substituent: Substituent
    spec_P: EigenDecomposition
    spec_Q: EigenDecomposition
    spec_interior: EigenDecomposition
    classified_Q: list[TypedEigenvalue]
    classified_interior: list[TypedEigenvalue]
    nodal_families: dict[float, list[ExtensionFunction]] = field(default_factory=dict)

    @cached_property
    def substituted(self) -> SubstitutedGraph:
        return substitute(self.host, self.orientation, self.substituent)

    @cached_property
    def cycle_base(self) -> CycleBase:
        return fundamental_cycle_base(self.host)

    @cached_property
    def transfer(self) -> TransferFunctions:
        return compute_transfer(self.substituent)


def _merge(entries: list[SpectrumEntry]) -> list[SpectrumEntry]:
    merged: list[SpectrumEntry] = []
    for e in sorted(entries, key=lambda x: -x.value):
        if merged and abs(merged[-1].value - e.value) <= CLUSTER_TOL:
            prev = merged[-1]
            merged[-1] = SpectrumEntry(
                prev.value,
                prev.nu + e.nu,
                prev.provenance + e.provenance + ("MergedProvenance",),
            )
        else:
            merged.append(e)
    return merged


def assemble(
    X: WeightedGraph,
    orient: Orientation,
    s: Substituent,
    build_families: bool = True,
) -> PipelineResult:
    validate_substituent(s)

    spec_P = eigen(ReversibleOperator.full(X))
    spec_Q = _eigenpairs(ReversibleOperator.full(s.graph))
    spec_int = _eigenpairs(ReversibleOperator.restricted(s.graph, s.interior))
    cQ = classify_Q(s, spec_Q)
    cI = classify_Qinterior(s, spec_int)
    # each interior eigenvalue with its Q row: the eigenvalue of Q at it, or None
    rows = [
        (t, next((q for q in cQ if abs(q.value - t.value) <= CLUSTER_TOL), None)) for t in cI
    ]

    n_X, n_E = X.n, X.num_edges
    delta_b = X.delta_b

    s2 = solve_S2(cQ, list(spec_int.values))
    counted = [(p, None) for p in s2]  # S2 counts the roots of every lambda
    for t, qt in rows:
        if qt is not None:
            counted += [(t.value, lam) for lam in _ROW_COUNTS.get(qt.type, [])]
    s1 = solve_S1(s, cI, spec_P, counted)
    entries: list[SpectrumEntry] = []
    for root, lam, nu in s1:
        entries.append(
            SpectrumEntry(root, nu, (f"S1: phi({root:.6f}) = {lam:.6f}, nu_P={nu}",))
        )
    for lam_star in s2:
        entries.append(SpectrumEntry(lam_star, n_X, ("S2",)))

    exc = exceptional_set(X, rows)
    for t, qt in rows:
        row = qt.type if qt is not None else "0"
        nu_star = interior_multiplicity(row, t.type, t.nu, n_X, n_E, delta_b)
        if nu_star > 0:
            entries.append(
                SpectrumEntry(t.value, nu_star, (f"Interior: ({row}, {t.type}°)",))
            )

    entries = _merge(entries)
    total = sum(e.nu for e in entries)
    expected = n_X + n_E * (s.graph.n - 2)
    is_tree, is_odd_unicyclic = _host_shape(X)
    report = SpectrumReport(
        entries=entries,
        exc=exc,
        gap=None,
        total=total,
        expected_total=expected,
        delta_b=delta_b,
        host_is_tree=is_tree,
        host_is_odd_unicyclic=is_odd_unicyclic,
    )
    if total != expected:
        raise TotalMismatch(f"sum of multiplicities {total} != |X[V]| = {expected}\n" + report.to_text())

    try:
        report.gap = spectral_gap(report, s1, spec_P, X, s)
    except PreconditionNotMet:
        report.gap = None

    result = PipelineResult(report, X, orient, s, spec_P, spec_Q, spec_int, cQ, cI)
    if build_families:
        result.nodal_families = {
            t.value: nodal_from_interior(result.substituted, t, result.cycle_base) for t in cI
        }
    return result


def spectral_gap(
    report: SpectrumReport,
    s1: list[tuple[float, float, int]],
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

    roots = [root for root, lam, _ in s1 if lam == lam1]
    if not roots:
        raise PreconditionNotMet(f"no S1 root for lambda1 = {lam1}")
    lam1_star = max(roots)

    second = sorted(report.values(), reverse=True)[1]
    if abs(second - lam1_star) > 1e-9:
        raise PreconditionNotMet(
            f"largest phi-root {lam1_star} is not the report's second entry {second}"
        )
    return lam1, lam1_star
