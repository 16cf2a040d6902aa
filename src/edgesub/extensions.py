"""Explicit eigenfunctions of the substituted operator.

Two kinds of constructions:

* transfer extensions: a host eigenfunction f with eigenvalue phi(lambda*)
  extends to X[V] through the boundary kernels evaluated at lambda*;
* embeddings/nodal gluings: eigenfunctions of Q or of the interior
  restriction are copied onto substituted edge copies with weights chosen so
  the one-step averages balance at every host vertex.

Each emitted function carries a construction tag and is checkable against
the eigen-equation residual.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .classify import TypedEigenvalue
from .errors import InvalidTypeCombination, KernelPole, TooCloseToInteriorSpectrum
from .graph import CycleBase
from .operators import ReversibleOperator
from .substitution import SubstitutedGraph
from .transfer import BoundaryKernels

TAG_TRANSFER = "Transfer"
TAG_PER_EDGE = "TypeI-PerEdge"
TAG_CONSTANT = "TypeII-Constant"
TAG_BIPARTITE = "TypeIII-Bipartite"
TAG_PER_VERTEX = "TypeIV-PerVertex"
TAG_ODD_CYCLE = "OddCycle"
TAG_DEFECT = "EvenDefectPath"
TAG_MIXED = "MixedPair"

NODAL_TAGS = {TAG_PER_EDGE, TAG_ODD_CYCLE, TAG_DEFECT, TAG_MIXED}


@dataclass(frozen=True)
class ExtensionFunction:
    values: np.ndarray  # indexed like the vertices of X[V]
    eigenvalue: float
    tag: str
    provenance: str

    @property
    def is_nodal(self) -> bool:
        return self.tag in NODAL_TAGS


def residual(sub: SubstitutedGraph, fn: ExtensionFunction) -> float:
    """Sup-norm of P_* f - lambda f, relative to the sup-norm of f."""
    P = ReversibleOperator.full(sub.graph).matrix_float()
    f = fn.values
    return float(
        np.max(np.abs(P @ f - fn.eigenvalue * f)) / np.max(np.abs(f))
    )


def balance(sub: SubstitutedGraph, f: np.ndarray, x: int) -> float:
    """Weighted sum of one-step interior averages into host vertex x."""
    s = sub.substituent
    q = ReversibleOperator.full(s.graph).matrix_exact()
    ax = np.array([float(c) for _, _, c in sub.host.edges])
    block = sub.interior_block(f)
    total = 0.0
    for ends, end in zip(sub.edge_ends, (s.a, s.b)):
        at_x = ends == x
        q_end = np.array([float(q[end][v]) for v in s.interior])
        total += float(ax[at_x] @ (block[at_x] @ q_end))
    return total


# ---------------------------------------------------------------------------
# Transfer extension
# ---------------------------------------------------------------------------


def transfer_extension(
    sub: SubstitutedGraph,
    kernels: BoundaryKernels,
    f_host: np.ndarray,
    lam_star: float,
    interior_spec,
) -> ExtensionFunction:
    """Extend a host eigenfunction to X[V] through the boundary kernels,
    the pole expansions over the interior eigenvalues of type II°-IV°.

    Raises KernelPole when lambda* is within POLE_GUARD of such a pole.  An
    interior eigenvalue of type I° is a pole of none, so lambda* may equal
    it.  `interior_spec` is not read; it is kept for existing callers.

    The interior block of X[V] is filled in one broadcast.
    """
    try:
        fa, fb = kernels.eval_interior(lam_star)
    except TooCloseToInteriorSpectrum as exc:
        raise KernelPole(f"lambda*={lam_star} is at a pole of the boundary kernels: {exc}") from exc
    ea, eb = sub.edge_ends
    values = np.empty(sub.graph.n)
    values[: sub.host.n] = f_host
    sub.interior_block(values)[:] = f_host[ea][:, None] * fa + f_host[eb][:, None] * fb
    return ExtensionFunction(values, lam_star, TAG_TRANSFER, "host eigenfunction")


# ---------------------------------------------------------------------------
# Embeddings of the spectrum of Q
# ---------------------------------------------------------------------------


def _interior_basis(sub: SubstitutedGraph, t: TypedEigenvalue) -> np.ndarray:
    """Rows of the normal-form basis at the interior vertices, in
    `substituent.interior` order: every row for Q°, whose support is the
    interior."""
    if t.source == "Q":
        return t.basis[list(sub.substituent.interior)]
    return t.basis


def _per_edge_functions(
    sub: SubstitutedGraph, t: TypedEigenvalue, basis: np.ndarray
) -> list[ExtensionFunction]:
    """One nodal function per (zero-boundary eigenfunction, host edge)."""
    out = []
    for j in range(t.nu_prime):
        for e in range(sub.host.num_edges):
            values = np.zeros(sub.graph.n)
            sub.interior_block(values)[e] = basis[:, j]
            out.append(
                ExtensionFunction(values, t.value, TAG_PER_EDGE, f"f_{j + 1} on edge {e}")
            )
    return out


def embed_specQ(sub: SubstitutedGraph, t: TypedEigenvalue) -> list[ExtensionFunction]:
    """All extensions of a classified eigenvalue of Q to X[V]."""
    if t.source != "Q":
        raise InvalidTypeCombination("embed_specQ expects a Q-classified eigenvalue")
    X = sub.host
    basis = _interior_basis(sub, t)
    tails = basis[:, t.nu_prime :]
    ea, eb = sub.edge_ends
    fns = _per_edge_functions(sub, t, basis)

    if t.type == "II":
        values = np.zeros(sub.graph.n)
        values[: X.n] = t.tails()[sub.substituent.a, 0]
        sub.interior_block(values)[:] = tails[:, 0]
        fns.append(ExtensionFunction(values, t.value, TAG_CONSTANT, "symmetric tail"))
    elif t.type == "III":
        classes = X.bipartition()
        if classes is not None:
            part1, _ = classes
            sign = np.array([1.0 if x in part1 else -1.0 for x in range(X.n)])
            values = np.zeros(sub.graph.n)
            values[: X.n] = sign
            sub.interior_block(values)[:] = sign[ea][:, None] * tails[:, 0]
            fns.append(
                ExtensionFunction(values, t.value, TAG_BIPARTITE, "antisymmetric tail")
            )
    elif t.type == "IV":
        f_prev, f_top = tails[:, 0], tails[:, 1]
        for x in range(X.n):
            values = np.zeros(sub.graph.n)
            values[x] = 1.0
            block = sub.interior_block(values)
            block[eb == x] = f_prev
            block[ea == x] = f_top
            fns.append(
                ExtensionFunction(values, t.value, TAG_PER_VERTEX, f"star of vertex {x}")
            )
    return fns


# ---------------------------------------------------------------------------
# Nodal constructions from the interior spectrum
# ---------------------------------------------------------------------------


def _tree_completion(
    sub: SubstitutedGraph, base: CycleBase, k: int, sign_b: int
) -> tuple[list[int], int]:
    """Integer host-edge weights w with w_k = 1, zero on the other non-tree
    edges, and sum over edges e at x of s(e, x) w_e = 0 at every vertex x
    but the tree root, where s(e, x) is 1 at e^a and `sign_b` at e^b.

    The tree edges are solved leaves to root, each from the condition at
    its child.  Returns w and the sum left over at the root: always 0 when
    `sign_b` is -1; when it is 1, 0 exactly if the cycle that k closes is
    even, and +-2 otherwise.
    """
    o = sub.orientation

    def s(e, x):
        return 1 if o.ea(e) == x else sign_b

    w = [0] * sub.host.num_edges
    left = [0] * sub.host.n
    w[k] = 1
    for x in sub.host.edges[k][:2]:
        left[x] += s(k, x)
    for y, (p, e) in reversed(base.parent.items()):
        w[e] = -left[y] * s(e, y)
        left[p] += s(e, p) * w[e]
    return w, left[0]


def _weighted_function(
    sub: SubstitutedGraph, t: TypedEigenvalue, tail: np.ndarray, w, tag: str, label: str
) -> ExtensionFunction:
    """The tail copied onto each host edge e with w_e != 0, scaled by w_e / a(e)."""
    values = np.zeros(sub.graph.n)
    block = sub.interior_block(values)
    for e, we in enumerate(w):
        if we:
            block[e] = we / float(sub.host.edges[e][2]) * tail
    return ExtensionFunction(values, t.value, tag, label)


def nodal_from_interior(
    sub: SubstitutedGraph, t: TypedEigenvalue, base: CycleBase
) -> list[ExtensionFunction]:
    """All nodal eigenfunctions produced by a classified interior eigenvalue."""
    if t.source != "Qo":
        raise InvalidTypeCombination("nodal_from_interior expects an interior eigenvalue")
    X = sub.host
    basis = _interior_basis(sub, t)
    tails = basis[:, t.nu_prime :]
    fns = _per_edge_functions(sub, t, basis)

    if t.type == "I":
        return fns

    if t.type == "III":
        # the signed incidence kernel: the cycle space, one function per cycle
        tail = tails[:, 0]
        for i, c in enumerate(base.cycles):
            w, _ = _tree_completion(sub, base, c.edge_indices[-1], -1)
            fns.append(_weighted_function(sub, t, tail, w, TAG_ODD_CYCLE, f"cycle {i}"))
        return fns

    if t.type == "II":
        # the unsigned incidence kernel: each even cycle, and each odd cycle
        # joined with the last one so that the leftovers at the root cancel
        tail = tails[:, 0]
        completed = [_tree_completion(sub, base, c.edge_indices[-1], 1) for c in base.cycles]
        odd = [i for i, (_, r) in enumerate(completed) if r]
        for i, (w, r) in enumerate(completed):
            if not r:
                fns.append(_weighted_function(sub, t, tail, w, TAG_DEFECT, f"even cycle {i}"))
        if odd:
            last = odd[-1]
            w_last, r_last = completed[last]
            for i in odd[:-1]:
                w, r = completed[i]
                joined = [we - r // r_last * wl for we, wl in zip(w, w_last)]
                fns.append(
                    _weighted_function(sub, t, tail, joined, TAG_DEFECT, f"joined cycles {i},{last}")
                )
        return fns

    # type IV: mixed pairs over each vertex star
    f_prev, f_top = tails[:, 0], tails[:, 1]
    for x in range(X.n):
        star = X.incident(x)
        if len(star) < 2:
            continue
        e_last = star[-1]
        for e in star[:-1]:
            values = np.zeros(sub.graph.n)
            block = sub.interior_block(values)
            for e_k, sign in ((e, 1.0), (e_last, -1.0)):
                copy = f_top if sub.orientation.ea(e_k) == x else f_prev
                block[e_k] = sign / float(X.edges[e_k][2]) * copy
            fns.append(
                ExtensionFunction(
                    values, t.value, TAG_MIXED, f"edges {e},{e_last} at vertex {x}"
                )
            )
    return fns


def independence_rank(fns: list[ExtensionFunction]) -> int:
    """Rank of the functions' values: singular values above 1e-8 of the largest."""
    if not fns:
        return 0
    mat = np.stack([f.values for f in fns])
    sing = np.linalg.svd(mat, compute_uv=False)
    return int(np.sum(sing > 1e-8 * sing[0]))
