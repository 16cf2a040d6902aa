"""Per-instance correctness gates, run outside the timed region.

Each gate raises `CheckFailed` naming its kind; the runner counts it as a
failed instance under `check.fail.<kind>`.  All gates compare with an
absolute eigenvalue tolerance of 1e-8, the tolerance of the acceptance suite.
"""

from __future__ import annotations

import math

import numpy as np

TOL = 1e-8
RANK_TOL = 1e-8  # relative singular-value cut for ranks, as in the acceptance suite
MATCH_TOL = 1e-7  # distance at which an oracle cluster matches a value, as in cluster_near


class CheckFailed(Exception):
    def __init__(self, kind: str, detail: str):
        super().__init__(f"{kind}: {detail}")
        self.kind = kind


def expand(multiset) -> np.ndarray:
    """Sorted eigenvalues with each value repeated by its multiplicity."""
    return np.sort(np.array([v for v, nu in multiset for _ in range(nu)], dtype=float))


def _compare(kind: str, got: np.ndarray, want: np.ndarray) -> float:
    if len(got) != len(want):
        raise CheckFailed(kind, f"{len(got)} eigenvalues, expected {len(want)}")
    err = float(np.max(np.abs(got - want))) if len(got) else 0.0
    if not err <= TOL:
        raise CheckFailed(kind, f"eigenvalues differ by {err:.3e}")
    return err


def oracle_multiset(report_ms, oracle_ms) -> float:
    """Clustered values and multiplicities agree with the oracle's."""
    got, want = sorted(report_ms), sorted(oracle_ms)
    if len(got) != len(want):
        raise CheckFailed("oracle", f"{len(got)} clusters, oracle has {len(want)}")
    err = 0.0
    for (gv, gn), (wv, wn) in zip(got, want):
        err = max(err, abs(gv - wv))
        if not abs(gv - wv) <= TOL or gn != wn:
            raise CheckFailed("oracle", f"{gv:+.12f} x{gn} vs oracle {wv:+.12f} x{wn}")
    return err


def closed_form_cycle(report_ms, ring: int) -> float:
    """X[V] is the unweighted cycle on `ring` vertices: cos(2 pi k / ring)."""
    want = np.sort(np.cos(2 * math.pi * np.arange(ring) / ring))
    return _compare("closed_form", expand(report_ms), want)


def substituted_edges(X, s) -> tuple[int, list[tuple[int, int, float]]]:
    """X[V] built here, independently of the program: (vertex count, edges)."""
    interior = [v for v in range(s.graph.n) if v not in (s.a, s.b)]
    n = X.n
    edges = []
    for x, y, ax in X.edges:
        place = {s.a: x, s.b: y}
        for v in interior:
            place[v] = n
            n += 1
        for u, v, c in s.graph.edges:
            edges.append((place[u], place[v], float(ax * c)))
    return n, edges


def _symmetric_rows(n: int, edges) -> list[dict[int, float]]:
    """Rows of the symmetrized walk a(x,y) / sqrt(m(x) m(y)) as sparse dicts."""
    m = [0.0] * n
    acc: list[dict[int, float]] = [dict() for _ in range(n)]
    for x, y, c in edges:
        m[x] += c
        m[y] += c
        acc[x][y] = acc[x].get(y, 0.0) + c
        acc[y][x] = acc[y].get(x, 0.0) + c
    return [{y: a / math.sqrt(m[x] * m[y]) for y, a in row.items()} for x, row in enumerate(acc)]


def reference_spectrum(report_ms, X, s) -> float:
    """Agreement with a dense numpy eigendecomposition of X[V]."""
    n, edges = substituted_edges(X, s)
    dense = np.zeros((n, n))
    for x, row in enumerate(_symmetric_rows(n, edges)):
        for y, v in row.items():
            dense[x, y] = v
    return _compare("reference", expand(report_ms), np.linalg.eigvalsh(dense))


def moments(report_ms, X, s, kmax: int = 4) -> float:
    """Spectral moments sum nu * lambda^k equal tr(P^k) for k <= kmax (kmax <= 4).

    Independent errors of up to TOL in each of the n eigenvalues move a
    moment by about TOL * sqrt(n), the tolerance used here; one eigenvalue
    off by more than that fails the first moment.  Round-off in the sums is
    of order n * eps, far below it.
    """
    n, edges = substituted_edges(X, s)
    rows = _symmetric_rows(n, edges)
    square = []
    for row in rows:
        out: dict[int, float] = {}
        for y, a in row.items():
            for z, b in rows[y].items():
                out[z] = out.get(z, 0.0) + a * b
        square.append(out)
    traces = [
        float(n),
        sum(row.get(x, 0.0) for x, row in enumerate(rows)),
        sum(row.get(x, 0.0) for x, row in enumerate(square)),
        sum(v * rows[y].get(x, 0.0) for x, row in enumerate(square) for y, v in row.items()),
        sum(v * v for row in square for v in row.values()),
    ][: kmax + 1]
    values = expand(report_ms)
    if len(values) != n:
        raise CheckFailed("moments", f"{len(values)} eigenvalues, |X[V]| = {n}")
    err = 0.0
    for k, tr in enumerate(traces):
        diff = abs(float(np.sum(values**k)) - tr)
        err = max(err, diff)
        if not diff <= TOL * math.sqrt(n):
            raise CheckFailed("moments", f"moment {k}: {np.sum(values**k)!r} vs trace {tr!r}")
    return err


def _walk_matrix(g) -> np.ndarray:
    P = np.zeros((g.n, g.n))
    for x, y, c in g.edges:
        P[x, y] += float(c)
        P[y, x] += float(c)
    return P / P.sum(axis=1)[:, None]


def _rank(rows: np.ndarray, floor: float = 0.0) -> int:
    if rows.size == 0:
        return 0
    sing = np.linalg.svd(rows, compute_uv=False)
    return int(np.sum(sing > RANK_TOL * max(floor, sing[0])))


def eigenbasis(result, functions, oracle) -> float:
    """Every emitted function is an eigenfunction; nodal ranks match the oracle.

    `functions` are (values, eigenvalue) pairs; all-zero vectors are skipped,
    as in the acceptance suite.  The nodal family of each interior
    eigenvalue must have the rank of the oracle eigenspace's part that
    vanishes on the host vertices.  Returns the largest relative residual.
    """
    P = _walk_matrix(result.substituted.graph)
    worst = 0.0
    for values, lam in functions:
        scale = float(np.max(np.abs(values)))
        if scale == 0.0:
            continue
        res = float(np.max(np.abs(P @ values - lam * values))) / scale
        worst = max(worst, res)
        if not res <= TOL:
            raise CheckFailed("residual", f"residual {res:.3e} at eigenvalue {lam:+.12f}")

    host_n = result.substituted.host.n
    for t in result.classified_interior:
        fam = result.nodal_families[t.value]
        rank = _rank(np.stack([f.values for f in fam])) if fam else 0
        hits = [k for k, v in enumerate(oracle.values) if abs(v - t.value) <= MATCH_TOL]
        ndim = 0
        if hits:
            basis = oracle.bases[min(hits, key=lambda k: abs(oracle.values[k] - t.value))]
            ndim = basis.shape[1] - _rank(basis[:host_n, :], floor=1.0)
        if ndim != rank:
            raise CheckFailed("nodal_rank", f"nodal dimension {ndim} != family rank {rank} at {t.value:+.12f}")
    return worst
