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
integer Faddeev-LeVerrier pass replaced: polynomial arithmetic over Fraction
on coefficient lists, exact values of rational functions, Bareiss elimination,
the three transfer series and the resolvent interpolated from Bareiss solves
at k + 1 integer nodes and reduced by a Euclidean gcd, the resolvent identity
G_*(x, y | z) psi(z) = G_X(x, y | phi(z)) checked with exact solves, and the
automorphism test one conductance pair at a time."""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from itertools import count, zip_longest
from fractions import Fraction
from typing import Callable, Optional, Sequence

import numpy as np

from edgesub.algebra import Polynomial, RationalFunction
from edgesub.assemble import _arrowhead_eigenvalues, _host_shape
from edgesub.classify import RANK_TOL, TypedEigenvalue, _boundary_map, classify_Q, classify_Qinterior
from edgesub.errors import InvalidTypeCombination, TotalMismatch
from edgesub.graph import CycleBase, Orientation, Substituent, WeightedGraph
from edgesub.operators import (
    CLUSTER_TOL,
    EigenDecomposition,
    ReversibleOperator,
    _clustered,
    _descending_eigh,
    _split,
    eigen,
)
from edgesub.substitution import SubstitutedGraph, substitute
from edgesub.transfer import BoundaryKernels, TransferFunctions


def boundary_data(s: Substituent, t: TypedEigenvalue) -> np.ndarray:
    """Boundary rows (at a, at b) of the normal-form basis."""
    return _boundary_map(s, t.source) @ t.basis


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


def factorization(s: Substituent, source: str) -> tuple[tuple[float, ...], tuple[np.ndarray, ...]]:
    """The cluster values and bases of Q ("Q") or Q° ("Qo") from the
    factorization that `classify.cluster_types` makes: one
    `_descending_eigh`, its values clustered by `_clustered`."""
    g = s.graph
    op = ReversibleOperator.full(g) if source == "Q" else ReversibleOperator.restricted(g, s.interior)
    w, h = _descending_eigh(op)
    values, multiplicities = _clustered(w.tolist())
    return values, _split(h, multiplicities)


def classify_per_cluster(s: Substituent, source: str) -> list[TypedEigenvalue]:
    """`classify_cluster` over every cluster of Q ("Q") or Q° ("Qo"), from
    the same factorization as `classify.cluster_types`."""
    boundary = _boundary_map(s, source)
    mass = float(s.graph.m(s.a))
    return [
        classify_cluster(v, basis, boundary, source, mass)
        for v, basis in zip(*factorization(s, source))
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


def chebyshev(kind: str, degree: int) -> list[int]:
    """Integer coefficients of the Chebyshev polynomial of the given kind
    ('first' or 'second'), lowest degree first."""
    if degree < 0:
        raise ValueError("degree must be >= 0")
    if kind not in ("first", "second"):
        raise ValueError("kind must be 'first' or 'second'")
    prev, cur = [1], [0, 1] if kind == "first" else [0, 2]
    if degree == 0:
        return prev
    for _ in range(degree - 1):
        prev, cur = cur, poly_sub([0, *(2 * c for c in cur)], prev)
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


def matrix_float_per_entry(op: ReversibleOperator) -> np.ndarray:
    """The float transition matrix, each entry a(x, y) / m(x) from the
    numerator and denominator of a(x, y) and the float of m(x)."""
    p = np.zeros((op.dim, op.dim))
    pos = {x: j for j, x in enumerate(op.support)}
    for i, x in enumerate(op.support):
        m = float(op.measure(i))
        for y, a in op.graph.adjacency(x).items():
            if y in pos:
                p[i, pos[y]] = a.numerator / a.denominator / m
    return p


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
# The exact layer over Fraction: arithmetic, Euclid, Bareiss and interpolation
# ---------------------------------------------------------------------------
# Polynomials are coefficient sequences, lowest degree first, of ints or
# Fractions; results carry no trailing zeros.


def _trimmed(cs) -> list:
    cs = list(cs)
    while cs and cs[-1] == 0:
        cs.pop()
    return cs


def poly_add(a, b) -> list:
    return _trimmed(x + y for x, y in zip_longest(a, b, fillvalue=0))


def poly_sub(a, b) -> list:
    return poly_add(a, [-y for y in b])


def poly_mul(a, b) -> list:
    out = [0] * max(0, len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _trimmed(out)


def derivative(a) -> list:
    return [i * c for i, c in enumerate(a)][1:]


def poly_divmod(a, b) -> tuple[list, list]:
    """Quotient and remainder of a by a nonzero b, over Fraction."""
    rem = [Fraction(c) for c in a]
    q = [Fraction(0)] * max(0, len(a) - len(b) + 1)
    for k in reversed(range(len(q))):
        f = q[k] = rem[k + len(b) - 1] / b[-1]
        for i, c in enumerate(b):
            rem[k + i] -= f * c
    return _trimmed(q), _trimmed(rem)


def monic(a) -> list:
    return [Fraction(c) / a[-1] for c in a]


def euclid_gcd(a, b) -> list[Fraction]:
    """Monic gcd by the Euclidean algorithm over Fraction; [] for two zeros."""
    a, b = _trimmed(a), _trimmed(b)
    while b:
        a, b = b, monic(poly_divmod(a, b)[1])
    return monic(a)


def euclid_reduced(num, den) -> RationalFunction:
    """num / den reduced over Fraction: Euclid's gcd, long division, and a
    monic denominator; built without `RationalFunction.from_integers`."""
    num, den = _trimmed(num), _trimmed(den)
    if not den:
        raise ZeroDivisionError("rational function with zero denominator")
    if not num:
        den = [1]
    else:
        g = euclid_gcd(num, den)
        num, den = poly_divmod(num, g)[0], poly_divmod(den, g)[0]
        num, den = [c / den[-1] for c in num], monic(den)
    out = object.__new__(RationalFunction)
    out.__dict__["num"], out.__dict__["den"] = Polynomial(num), Polynomial(den)
    return out


def rf_sum(terms) -> RationalFunction:
    """The sum of c f over the pairs (c, f) of a number and a rational
    function, over the lcm of the denominators, reduced by Euclid."""
    terms = list(terms)
    den = [1]
    for _, f in terms:
        den = poly_mul(den, poly_divmod(f.den.coeffs, euclid_gcd(den, f.den.coeffs))[0])
    num = []
    for c, f in terms:
        num = poly_add(num, poly_mul([c], poly_mul(f.num.coeffs, poly_divmod(den, f.den.coeffs)[0])))
    return euclid_reduced(num, den)


def _horner(a, z: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(a):
        acc = acc * z + c
    return acc


def exact_value(f: RationalFunction, z) -> Fraction:
    """f(z) in Fraction arithmetic; ZeroDivisionError at a pole."""
    z = Fraction(z)
    return _horner(f.num.coeffs, z) / _horner(f.den.coeffs, z)


def _eliminate(
    matrix: Sequence[Sequence[Fraction]], columns: Sequence[Sequence[Fraction]]
) -> tuple[Fraction, list[list[Fraction]]]:
    """det(A) and det(A) A^{-1} c for each column c, exactly; no columns when
    det(A) = 0.

    Fraction-free (Bareiss) elimination: A and the columns are scaled to
    integers by one common factor, and every division on the way is exact.
    """
    n = len(matrix)
    rows = [list(row) + [c[i] for c in columns] for i, row in enumerate(matrix)]
    scale = math.lcm(*(v.denominator for row in rows for v in row))
    a = [[v.numerator * (scale // v.denominator) for v in row] for row in rows]
    sign, prev = 1, 1
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] != 0), None)
        if piv is None:
            return Fraction(0), []
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            sign = -sign
        pivot_row = a[col]
        p = pivot_row[col]
        for r in range(col + 1, n):
            f = a[r][col]
            a[r] = [(p * v - f * w) // prev for v, w in zip(a[r], pivot_row)]
        prev = p
    # prev is now the determinant of the scaled, row-swapped matrix, so each
    # y = prev * x is integral (Cramer's rule) and det(A) x = y / (sign scale^n)
    denom = sign * scale**n
    adjugate_columns = []
    for j in range(n, n + len(columns)):
        y = [0] * n
        for i in reversed(range(n)):
            row = a[i]
            acc = prev * row[j] - sum(row[t] * y[t] for t in range(i + 1, n) if row[t])
            y[i] = acc // row[i]
        adjugate_columns.append([Fraction(v, denom) for v in y])
    return Fraction(prev, denom), adjugate_columns


def solve_fraction_system(
    matrix: Sequence[Sequence[Fraction]], rhs: Sequence[Fraction]
) -> list[Fraction]:
    """Solve A x = b exactly over Fraction."""
    det, adjugate_columns = _eliminate(matrix, [rhs])
    if det == 0:
        raise ZeroDivisionError("singular matrix")
    return [v / det for v in adjugate_columns[0]]


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
    phi_z = exact_value(tf.phi, z)
    psi_z = exact_value(tf.psi, z)

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


def _interpolate(nodes: Sequence[int], values: Sequence[Fraction]) -> list[Fraction]:
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
    return _trimmed(coeffs)


def interpolate_solves(
    matrix: Sequence[Sequence[Fraction]],
    columns: Sequence[Sequence[Fraction]],
    sample: Callable[[Fraction, list[list[Fraction]]], Sequence[Fraction]],
) -> list[list[Fraction]]:
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
    return Polynomial(interpolate_solves(matrix, [], lambda det, _: [det])[0])


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
    return tuple(map(Polynomial, interpolate_solves(M, columns, sample)))


def transfer_by_interpolation(s: Substituent):
    """The series det, theta_n, psi_n, then phi, psi, theta and z - theta as
    quotients of them reduced by `euclid_reduced`."""
    series = transfer_series_by_interpolation(s)
    det, theta_num, psi_num = (p.coeffs for p in series)
    z_minus_theta_num = poly_sub([0, *det], theta_num)
    return (
        *series,
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
