"""Explicit eigenfunctions of the substituted operator.

Two kinds of constructions:

* transfer extensions: a host eigenfunction f with eigenvalue phi(lambda*)
  extends to X[V] as f at the edge ends times the kernel table at lambda*;
* embeddings/nodal gluings: eigenfunctions of Q or of the interior
  restriction are copied onto substituted edge copies with weights chosen so
  the one-step averages balance at every host vertex.  Every gluing has one
  form: host values, plus on each host edge e the sum over the tails of
  W[:, e] times the tail, for one (k, |E_X|) weight array W per tail.  A
  family is k functions written as one array by `_glue`; the families differ
  only in their host values and weight arrays.

Each emitted function carries a construction tag and is checkable against
the eigen-equation residual.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .classify import TypedEigenvalue, _boundary_map
from .errors import InvalidTypeCombination
from .graph import CycleBase
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
    """Sup-norm of P_* f - lambda f, relative to the sup-norm of f; `inf` for
    f = 0.  P_* f is one sparse product over the float form of X[V]."""
    form, f = sub.graph.arrays, fn.values
    size = np.max(np.abs(f))
    if size == 0:
        return math.inf
    pf = np.bincount(form.x, form.a / form.m[form.x] * f[form.y], len(f))
    return float(np.max(np.abs(pf - fn.eigenvalue * f)) / size)


def balance(sub: SubstitutedGraph, f: np.ndarray, x: int) -> float:
    """Weighted sum of one-step interior averages into host vertex x."""
    s = sub.substituent
    q = _boundary_map(s, "Qo")  # rows q(a, .) and q(b, .) on the interior
    block, ax = sub.interior_block(f), sub.edge_conductances
    return sum(float(ax[at] @ (block[at] @ q_end)) for at, q_end in zip(sub.edge_ends.T == x, q))


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

    Row e of the interior block is (f(e^a), f(e^b)) times the (2, |V°|)
    kernel table: one gather of the edge ends and one product.
    """
    table = kernels.eval_interior(lam_star)
    values = np.concatenate((f_host, (f_host[sub.edge_ends] @ table).ravel()))
    return ExtensionFunction(values, lam_star, TAG_TRANSFER, "host eigenfunction")


# ---------------------------------------------------------------------------
# Gluings: embeddings of the spectrum of Q and nodal functions from Q°
# ---------------------------------------------------------------------------


def _glue(
    sub: SubstitutedGraph, t: TypedEigenvalue, tag: str, labels, weights, host=0.0
) -> list[ExtensionFunction]:
    """One function per label, the rows of one (k, n) array: `host` (k, |X|),
    or broadcast to it, at the host vertices, and on host edge e the sum of
    W[:, e] * tail over the (W, tail) in `weights`, each W (k, |E_X|)."""
    values = np.zeros((len(labels), sub.n))
    values[:, : sub.host.n] = host
    interior = values[:, sub.host.n :]
    for W, tail in weights:
        interior += (W[:, :, None] * tail).reshape(interior.shape)
    return [ExtensionFunction(f, t.value, tag, label) for f, label in zip(values, labels)]


def _per_edge_and_tails(
    sub: SubstitutedGraph, t: TypedEigenvalue
) -> tuple[list[ExtensionFunction], np.ndarray]:
    """One nodal function per (zero-boundary eigenfunction, host edge), with
    identity weights on that column; and the tail columns.  Both at the
    interior vertices, in `substituent.interior` order: Q's basis is cut to
    them, Q°'s support is the interior."""
    basis = t.basis[list(sub.substituent.interior)] if t.source == "Q" else t.basis
    E, k = sub.host.num_edges, t.nu_prime
    labels = [f"f_{j + 1} on edge {e}" for j in range(k) for e in range(E)]
    weights = [(np.eye(k * E, E, -j * E), basis[:, j]) for j in range(k)]
    return _glue(sub, t, TAG_PER_EDGE, labels, weights), basis[:, k:]


def embed_specQ(sub: SubstitutedGraph, t: TypedEigenvalue) -> list[ExtensionFunction]:
    """All extensions of a classified eigenvalue of Q to X[V]."""
    if t.source != "Q":
        raise InvalidTypeCombination("embed_specQ expects a Q-classified eigenvalue")
    X = sub.host
    fns, tails = _per_edge_and_tails(sub, t)
    ea, eb = sub.edge_ends.T
    if t.type == "II":
        weights = [(np.ones((1, X.num_edges)), tails[:, 0])]
        fns += _glue(sub, t, TAG_CONSTANT, ["symmetric tail"], weights, t.tails()[sub.substituent.a, 0])
    elif t.type == "III" and (classes := X.bipartition()) is not None:
        sign = np.array([1.0 if x in classes[0] else -1.0 for x in range(X.n)])
        fns += _glue(sub, t, TAG_BIPARTITE, ["antisymmetric tail"], [(sign[ea][None], tails[:, 0])], sign)
    elif t.type == "IV":
        x = np.arange(X.n)[:, None]
        weights = [(eb == x, tails[:, 0]), (ea == x, tails[:, 1])]
        labels = [f"star of vertex {v}" for v in range(X.n)]
        fns += _glue(sub, t, TAG_PER_VERTEX, labels, weights, np.eye(X.n))
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


def nodal_from_interior(
    sub: SubstitutedGraph, t: TypedEigenvalue, base: CycleBase
) -> list[ExtensionFunction]:
    """All nodal eigenfunctions produced by a classified interior eigenvalue."""
    if t.source != "Qo":
        raise InvalidTypeCombination("nodal_from_interior expects an interior eigenvalue")
    X = sub.host
    fns, tails = _per_edge_and_tails(sub, t)
    ax = sub.edge_conductances

    if t.type == "III":
        # the signed incidence kernel: the cycle space, one function per cycle
        w = np.reshape([_tree_completion(sub, base, k, -1)[0] for k in base.cycles], (-1, X.num_edges))
        labels = [f"cycle {i}" for i in range(len(base.cycles))]
        fns += _glue(sub, t, TAG_ODD_CYCLE, labels, [(w / ax, tails[:, 0])])

    elif t.type == "II":
        # the unsigned incidence kernel: each even cycle, and each odd cycle
        # joined with the last one so that the leftovers at the root cancel
        completed = [_tree_completion(sub, base, k, 1) for k in base.cycles]
        odd = [i for i, (_, r) in enumerate(completed) if r]
        labels = [f"even cycle {i}" for i, (_, r) in enumerate(completed) if not r]
        rows = [w for w, r in completed if not r]
        for i in odd[:-1]:
            (w, r), (w_last, r_last) = completed[i], completed[odd[-1]]
            labels.append(f"joined cycles {i},{odd[-1]}")
            rows.append([we - r // r_last * wl for we, wl in zip(w, w_last)])
        w = np.reshape(rows, (-1, X.num_edges))
        fns += _glue(sub, t, TAG_DEFECT, labels, [(w / ax, tails[:, 0])])

    elif t.type == "IV":
        # mixed pairs over each vertex star: 1/a(e) on e, -1/a(e') on its last edge e'
        pairs = [(x, e, X.incident(x)[-1]) for x in range(X.n) for e in X.incident(x)[:-1]]
        x, e, last = np.array(pairs, dtype=np.intp).reshape(-1, 3).T
        k = np.arange(len(pairs))
        w = np.zeros((len(pairs), X.num_edges))
        w[k, e], w[k, last] = 1 / ax[e], -1 / ax[last]
        at_a = sub.edge_ends[:, 0] == x[:, None]  # each copies the top tail toward e^a
        labels = [f"edges {i},{j} at vertex {v}" for v, i, j in pairs]
        fns += _glue(sub, t, TAG_MIXED, labels, [(w * ~at_a, tails[:, 0]), (w * at_a, tails[:, 1])])
    return fns


def independence_rank(fns: list[ExtensionFunction]) -> int:
    """Rank of the functions' values: singular values above 1e-8 of the largest."""
    if not fns:
        return 0
    mat = np.stack([f.values for f in fns])
    sing = np.linalg.svd(mat, compute_uv=False)
    return int(np.sum(sing > 1e-8 * sing[0]))
