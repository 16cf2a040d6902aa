"""Test-side checks and references that the library does not need: boundary
data of a classified basis, the per-cluster type classifier that the array
pass of `classify` replaced, row sums of an operator, random orientations and
the orientation independence of the spectrum of X[V], the identification map
of X[V] one vertex at a time, the fundamental cycles of a cycle base as closed
walks, and the Chebyshev polynomials."""

from __future__ import annotations

import random

import numpy as np

from edgesub.algebra import Polynomial
from edgesub.classify import RANK_TOL, TypedEigenvalue, _boundary_map
from edgesub.graph import CycleBase, Orientation, Substituent, WeightedGraph
from edgesub.operators import EigenDecomposition, ReversibleOperator, eigen
from edgesub.substitution import SubstitutedGraph, substitute


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
