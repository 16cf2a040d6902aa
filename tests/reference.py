"""Test-side checks and references that the library does not need: boundary
data of a classified basis, the per-cluster type classifier that the array
pass of `classify` replaced, row sums of an operator, random orientations and
the orientation independence of the spectrum of X[V], the identification map
of X[V] one vertex at a time, the fundamental cycles of a cycle base as closed
walks, the Chebyshev polynomials, the transfer extension as one broadcast of
the two kernels, the symmetrized operator one entry at a time, and the
per-object spectrum that the array pass of `assemble` replaced: one
`TypedEigenvalue` per cluster, one tuple per S1 root and one entry object
per part, merged and formatted as the report does.  Also the exact layer the
integer Faddeev-LeVerrier pass replaced: the three transfer series and the
resolvent interpolated from Bareiss solves at k + 1 integer nodes, reduced by
a Euclidean gcd over Fraction, and the automorphism test one conductance
pair at a time."""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from itertools import count
from fractions import Fraction
from typing import Callable, Optional, Sequence

import numpy as np

from edgesub.algebra import Polynomial, RationalFunction, _eliminate
from edgesub.assemble import _arrowhead_eigenvalues, _host_shape
from edgesub.classify import RANK_TOL, TypedEigenvalue, _boundary_map, classify_Q, classify_Qinterior
from edgesub.errors import InvalidTypeCombination, TotalMismatch
from edgesub.graph import CycleBase, Orientation, Substituent, WeightedGraph
from edgesub.operators import CLUSTER_TOL, EigenDecomposition, ReversibleOperator, eigen
from edgesub.substitution import SubstitutedGraph, substitute
from edgesub.transfer import BoundaryKernels


def boundary_data(s: Substituent, t: TypedEigenvalue) -> np.ndarray:
    """Boundary rows (at a, at b) of the normal-form basis."""
    support = tuple(range(s.graph.n)) if t.source == "Q" else tuple(sorted(s.interior))
    return _boundary_map(s, t.source, support) @ t.basis


def classify_cluster(
    value: float, basis: np.ndarray, boundary: np.ndarray, source: str, mass: float
) -> TypedEigenvalue:
    """One cluster typed on its own, with small numpy calls of its own: the
    classifier that `classify._type_clusters` replaced."""
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


def classify_per_cluster(s: Substituent, decomp: EigenDecomposition, source: str) -> list[TypedEigenvalue]:
    """`classify_cluster` over every cluster of `decomp` ("Q" or "Qo")."""
    boundary = _boundary_map(s, source, decomp.operator.support)
    mass = float(s.graph.m(s.a))
    return [
        classify_cluster(v, basis, boundary, source, mass)
        for v, basis in zip(decomp.values, decomp.bases)
    ]


def is_stochastic(op: ReversibleOperator) -> bool:
    """Every row of the operator sums to exactly one."""
    return all(sum(row) == 1 for row in op.matrix_exact())


def random_orientation(g: WeightedGraph, rng: random.Random) -> Orientation:
    """e^a drawn per edge, in edge order: the first endpoint when rng.random() < 0.5."""
    return Orientation(g, tuple((u if rng.random() < 0.5 else v) for u, v, _ in g.edges))


def pi(sub: SubstitutedGraph, e: int, v: int) -> int:
    """Identification map: vertex v of edge e's substituent copy in X[V]."""
    s = sub.substituent
    if v == s.a:
        return sub.orientation.ea(e)
    if v == s.b:
        return sub.orientation.eb(e)
    return sub.host.n + e * len(s.interior) + s.interior.index(v)


def reorient_equivalence_check(X: WeightedGraph, s: Substituent, trials: int, seed: int) -> bool:
    """Spectra of X[V] agree as multisets, to 1e-8, across random orientations.

    A sanity check, not a proof of isomorphism.
    """
    rng = random.Random(seed)
    reference = None
    for _ in range(trials):
        sub = substitute(X, random_orientation(X, rng), s)
        dec = eigen(ReversibleOperator.full(sub.graph))
        vals = np.sort(np.repeat(dec.values, dec.multiplicities))
        if reference is None:
            reference = vals
        elif len(vals) != len(reference) or np.max(np.abs(vals - reference)) > 1e-8:
            return False
    return True


def cycle_walk(base: CycleBase, k: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The fundamental cycle that the closing edge k = (u, v) makes with the
    tree, as a closed walk: vertices v, ..., u, v through the lowest common
    ancestor, and the edge indices between them, k last."""

    def to_root(x):
        verts, edges = [x], []
        while x in base.parent:
            x, e = base.parent[x]
            verts.append(x)
            edges.append(e)
        return verts, edges

    u, v, _ = base.graph.edges[k]
    (vv, ev), (vu, eu) = to_root(v), to_root(u)
    lca = next(x for x in vv if x in vu)
    i, j = vv.index(lca), vu.index(lca)
    return tuple(vv[: i + 1] + vu[:j][::-1] + [v]), tuple(ev[:i] + eu[:j][::-1] + [k])


def chebyshev(kind: str, degree: int) -> Polynomial:
    """Chebyshev polynomial of the given kind ('first' or 'second')."""
    if degree < 0:
        raise ValueError("degree must be >= 0")
    if kind not in ("first", "second"):
        raise ValueError("kind must be 'first' or 'second'")
    z = Polynomial.z()
    prev = Polynomial([1])
    cur = z if kind == "first" else z.scale(2)
    if degree == 0:
        return prev
    for _ in range(degree - 1):
        prev, cur = cur, z.scale(2) * cur - prev
    return cur


def transfer_extension_broadcast(
    sub: SubstitutedGraph, kernels: BoundaryKernels, f_host: np.ndarray, lam_star: float
) -> np.ndarray:
    """The values of `extensions.transfer_extension`, its interior block
    filled in one broadcast: f(e^a) times the kernel toward a plus f(e^b)
    times the kernel toward b, row by row."""
    fa, fb = kernels.eval_interior(lam_star)
    ea, eb = sub.edge_ends.T
    values = np.empty(sub.n)
    values[: sub.host.n] = f_host
    sub.interior_block(values)[:] = f_host[ea][:, None] * fa + f_host[eb][:, None] * fb
    return values


def symmetrized_per_entry(op: ReversibleOperator, rows, cols) -> np.ndarray:
    """The symmetrized operator on support positions `rows` x `cols`, each
    entry a(x, y) / sqrt(m(x) m(y)) from its own Fraction conversions."""
    m = [float(op.measure(i)) for i in range(op.dim)]
    col = {op.support[j]: (k, m[j]) for k, j in enumerate(cols)}
    s = np.zeros((len(rows), len(cols)))
    flat = s.reshape(-1)
    for start, i in zip(count(0, len(cols)), rows):
        for y, a in op.graph.adjacency(op.support[i]).items():
            hit = col.get(y)
            if hit is not None:
                flat[start + hit[0]] = float(a) / math.sqrt(m[i] * hit[1])
    return s


# -- the per-object spectrum ----------------------------------------------------


def interior_multiplicity_cells(row: str, col: str, nu_o: int, n_X: int, n_E: int, delta_b: int) -> int:
    """The interior table as a dict of its cells, rebuilt on every call: the
    form that `assemble.interior_multiplicity`'s coefficient array replaced."""
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


def solve_S1_triples(s, interior: list[TypedEigenvalue], spec_P: EigenDecomposition, excluded):
    """`assemble.solve_S1` over classified interior eigenvalues and (point,
    lambda or None) exclusion pairs, as (root, lambda, nu_P) triples."""
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
    return [(float(roots[k]), spec_P.values[owner[k]], spec_P.multiplicities[owner[k]]) for k in order]


@dataclass(frozen=True)
class Entry:
    value: float
    nu: int
    provenance: tuple[str, ...]

    def describe(self) -> str:
        return f"{self.value:+.12f}  nu={self.nu}  [{'; '.join(self.provenance)}]"


@dataclass
class PerObjectReport:
    entries: list[Entry]
    exc: list[tuple[float, str]]
    gap: Optional[tuple[float, float]]
    total: int
    expected_total: int
    delta_b: int
    host_is_tree: bool
    host_is_odd_unicyclic: bool

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


def _exceptional_per_object(X: WeightedGraph, rows) -> list[tuple[float, str]]:
    is_tree, is_odd_unicyclic = _host_shape(X)
    if not (is_tree or is_odd_unicyclic):
        return []
    out = []
    for t, qt in rows:
        if is_tree:
            dropped = qt is None and (t.type in ("II", "III") or t.type == "IV" and X.n == 2)
        else:
            dropped = t.nu == 1 and t.type == "II" and (qt is None or qt.type == "III" and qt.nu == 1)
        if dropped:
            out.append((t.value, "A" if is_tree else "B"))
    return out


def _merge(entries: list[Entry]) -> list[Entry]:
    merged: list[Entry] = []
    for e in sorted(entries, key=lambda x: -x.value):
        if merged and abs(merged[-1].value - e.value) <= CLUSTER_TOL:
            prev = merged[-1]
            merged[-1] = Entry(prev.value, prev.nu + e.nu, prev.provenance + e.provenance + ("MergedProvenance",))
        else:
            merged.append(e)
    return merged


def _gap_per_object(entries, s1, spec_P, X, s) -> Optional[tuple[float, float]]:
    if X.n < 3:
        return None
    lam1 = spec_P.values[1]
    if not s.graph.connected_on(s.interior) and lam1 < 0:
        return None
    roots = [root for root, lam, _ in s1 if lam == lam1]
    if not roots:
        return None
    second = sorted((e.value for e in entries), reverse=True)[1]
    return (lam1, max(roots)) if abs(second - max(roots)) <= 1e-9 else None


def assemble_per_object(X: WeightedGraph, s: Substituent) -> PerObjectReport:
    """The spectrum report of X[V] one object at a time: classified lists,
    (root, lambda, nu) triples, one entry per part, merged in order."""
    spec_P = eigen(ReversibleOperator.full(X))
    cQ, cI = classify_Q(s), classify_Qinterior(s)
    rows = [(t, next((q for q in cQ if abs(q.value - t.value) <= CLUSTER_TOL), None)) for t in cI]
    n_X, n_E, delta_b = X.n, X.num_edges, X.delta_b
    s2 = sorted(
        t.value for t in cQ
        if t.type == "IV" and t.nu == 2 and all(abs(t.value - mu.value) > CLUSTER_TOL for mu in cI)
    )
    counted = [(p, None) for p in s2]
    for t, qt in rows:
        if qt is not None:
            counted += [(t.value, lam) for lam in {"II": [1.0], "III": [-1.0], "IV": [None]}.get(qt.type, [])]
    s1 = solve_S1_triples(s, cI, spec_P, counted)
    entries = [Entry(root, nu, (f"S1: phi({root:.6f}) = {lam:.6f}, nu_P={nu}",)) for root, lam, nu in s1]
    entries += [Entry(p, n_X, ("S2",)) for p in s2]
    for t, qt in rows:
        row = qt.type if qt is not None else "0"
        nu_star = interior_multiplicity_cells(row, t.type, t.nu, n_X, n_E, delta_b)
        if nu_star > 0:
            entries.append(Entry(t.value, nu_star, (f"Interior: ({row}, {t.type}°)",)))
    entries = _merge(entries)
    report = PerObjectReport(
        entries, _exceptional_per_object(X, rows), None, sum(e.nu for e in entries),
        n_X + n_E * (s.graph.n - 2), delta_b, *_host_shape(X),
    )
    if report.total != report.expected_total:
        raise TotalMismatch(report.to_text())
    report.gap = _gap_per_object(entries, s1, spec_P, X, s)
    return report


# ---------------------------------------------------------------------------
# The exact layer by interpolation and Euclid over Fraction
# ---------------------------------------------------------------------------


def _monic(p: Polynomial) -> Polynomial:
    return p.scale(1 / p.leading()) if not p.is_zero() else p


def euclid_gcd(a: Polynomial, b: Polynomial) -> Polynomial:
    """Monic gcd by the Euclidean algorithm over Fraction."""
    while not b.is_zero():
        _, r = a.divmod(b)
        a, b = b, _monic(r)
    return _monic(a)


def euclid_reduced(num: Polynomial, den: Polynomial) -> RationalFunction:
    """num / den reduced over Fraction: Euclid's gcd, long division, and a
    monic denominator; built without `RationalFunction.__init__`."""
    if den.is_zero():
        raise ZeroDivisionError("rational function with zero denominator")
    if num.is_zero():
        den = Polynomial([1])
    else:
        g = euclid_gcd(num, den)
        if g.degree > 0:
            num, _ = num.divmod(g)
            den, _ = den.divmod(g)
        lead = den.leading()
        num, den = num.scale(1 / lead), den.scale(1 / lead)
    out = object.__new__(RationalFunction)
    object.__setattr__(out, "num", num)
    object.__setattr__(out, "den", den)
    return out


def _interpolate(nodes: Sequence[int], values: Sequence[Fraction]) -> Polynomial:
    """The polynomial of degree < len(nodes) through (nodes, values), by
    Newton divided differences expanded into the monomial basis."""
    c = list(values)
    for j in range(1, len(nodes)):
        for i in range(len(nodes) - 1, j - 1, -1):
            c[i] = (c[i] - c[i - 1]) / (nodes[i] - nodes[i - j])
    coeffs = [c[-1]]
    for i in range(len(nodes) - 2, -1, -1):  # coeffs := coeffs * (z - x_i) + c_i
        coeffs = [c[i] - nodes[i] * coeffs[0]] + [
            lo - nodes[i] * hi for lo, hi in zip(coeffs, coeffs[1:])
        ] + [coeffs[-1]]
    return Polynomial(coeffs)


def interpolate_solves(
    matrix: Sequence[Sequence[Fraction]],
    columns: Sequence[Sequence[Fraction]],
    sample: Callable[[Fraction, list[list[Fraction]]], Sequence[Fraction]],
) -> list[Polynomial]:
    """The polynomials in z whose values at z are `sample(det, columns)`,
    where det = det(zI - M) and columns holds det (zI - M)^{-1} c for each c.

    Each is interpolated, so must have degree at most k = dim M, from exact
    Bareiss solves at k + 1 integer nodes z = 2, 3, ...; a node where zI - M
    is singular (an integer eigenvalue of M) is skipped.
    """
    k = len(matrix)
    shifted = [[-v for v in row] for row in matrix]
    nodes: list[int] = []
    samples: list[Sequence[Fraction]] = []
    z = 1
    while len(nodes) < k + 1:
        z += 1
        for i, row in enumerate(shifted):
            row[i] = z - matrix[i][i]
        det, adjugate_columns = _eliminate(shifted, columns)
        if det != 0:
            nodes.append(z)
            samples.append(sample(det, adjugate_columns))
    return [_interpolate(nodes, series) for series in zip(*samples)]


def charpoly_by_interpolation(matrix) -> Polynomial:
    """det(zI - M), interpolated from the exact determinants at the nodes."""
    return interpolate_solves(matrix, [], lambda det, _: [det])[0]


def resolvent_by_interpolation(matrix, columns) -> list[list[RationalFunction]]:
    """The columns (zI - M)^{-1} c: 1 + k interpolated series per column,
    each entry reduced by `euclid_reduced`."""
    k = len(matrix)
    det, *entries = interpolate_solves(
        matrix, columns, lambda det, adjugate: [det, *(v for col in adjugate for v in col)]
    )
    return [[euclid_reduced(p, det) for p in entries[j * k : (j + 1) * k]] for j in range(len(columns))]


def transfer_series_by_interpolation(s: Substituent) -> tuple[Polynomial, Polynomial, Polynomial]:
    """det, theta_n and psi_n from one Bareiss solve against q(., a) and
    q(., b) at each of k + 1 nodes, reduced there to three numbers."""
    q = ReversibleOperator.full(s.graph).matrix_exact()
    q_a = [q[s.a][u] for u in s.interior]

    def sample(det: Fraction, adjugate_columns: list[list[Fraction]]) -> list[Fraction]:
        theta_num, psi_num = (sum(c * v for c, v in zip(q_a, x) if c) for x in adjugate_columns)
        return [det, theta_num, det * q[s.a][s.b] + psi_num]

    M = [[q[u][v] for v in s.interior] for u in s.interior]
    columns = [[q[v][x] for v in s.interior] for x in (s.a, s.b)]
    return tuple(interpolate_solves(M, columns, sample))


def transfer_by_interpolation(s: Substituent):
    """The series det, theta_n, psi_n, then phi, psi, theta and z - theta as
    quotients of them reduced by `euclid_reduced`."""
    det, theta_num, psi_num = transfer_series_by_interpolation(s)
    z_minus_theta_num = Polynomial.z() * det - theta_num
    return (
        det,
        theta_num,
        psi_num,
        euclid_reduced(z_minus_theta_num, psi_num),
        euclid_reduced(psi_num, det),
        euclid_reduced(theta_num, det),
        euclid_reduced(z_minus_theta_num, det),
    )


def is_automorphism_per_pair(g: WeightedGraph, perm: Sequence[int]) -> bool:
    """perm is a bijection of the vertices that keeps every conductance:
    one lookup and one Fraction comparison per adjacent pair."""
    if sorted(perm) != list(range(g.n)):
        return False
    return all(
        g.conductance(perm[x], perm[y]) == c
        for x in range(g.n)
        for y, c in g.adjacency(x).items()
    )
