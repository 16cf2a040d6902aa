import math
import random
import sys
from fractions import Fraction

import numpy as np
import pytest

from edgesub.assemble import assemble, solve_S1
from edgesub.classify import classify_Q, classify_Qinterior
from edgesub.errors import KernelPole, NoSuchCluster
from edgesub.extensions import (
    TAG_BIPARTITE,
    TAG_CONSTANT,
    TAG_DEFECT,
    TAG_MIXED,
    TAG_ODD_CYCLE,
    TAG_PER_EDGE,
    TAG_PER_VERTEX,
    ExtensionFunction,
    balance,
    embed_specQ,
    independence_rank,
    nodal_from_interior,
    residual,
    transfer_extension,
)
from edgesub.fixtures import (
    chorded_square_substituent,
    circle_substituent,
    cycle_host,
    path_host,
    path_substituent,
    star_host,
)
from edgesub.graph import Orientation, WeightedGraph, fundamental_cycle_base
from edgesub.operators import CLUSTER_TOL, ReversibleOperator, eigen
from edgesub.oracle import direct_spectrum, nodal_dimension
from edgesub.substitution import substitute
from edgesub.transfer import boundary_kernels, compute_transfer

from randinst import random_host, random_substituent, sweep_instance, sweep_instances
from reference import cycle_walk, exact_value, pi, random_orientation, transfer_extension_broadcast
from test_transfer import EIGENBASIS_MIX_FIXTURES, _reference_kernels

RESIDUAL_TOL = 1e-9


def _sub(X, s):
    return substitute(X, Orientation.default(X), s)


def _interior_spec(s):
    return eigen(ReversibleOperator.restricted(s.graph, s.interior)).values


class TestTransferExtension:
    def test_chorded_square_on_pentagon(self):
        s = chorded_square_substituent()
        sub = _sub(cycle_host(5), s)
        kernels = boundary_kernels(s)
        interior_spec = _interior_spec(s)
        tf = compute_transfer(s)
        # lambda* = -2/3 maps through phi to the host eigenvalue 1
        lam_star = -2 / 3
        assert abs(tf.phi.eval_float(lam_star) - 1.0) < 1e-12
        f_host = np.ones(5)
        fn = transfer_extension(sub, kernels, f_host, lam_star, interior_spec)
        assert residual(sub, fn) < RESIDUAL_TOL
        # the kernel value at -2/3 is (1/3)/(-2/3 - 1/3) = -1/3
        for e in range(5):
            for v in s.interior:
                assert abs(fn.values[pi(sub, e, v)] - (-1 / 3) * 2) < 1e-12

    def test_pole_raises(self):
        s = chorded_square_substituent()
        sub = _sub(cycle_host(4), s)
        kernels = boundary_kernels(s)
        with pytest.raises(KernelPole):
            transfer_extension(sub, kernels, np.ones(4), 1 / 3, _interior_spec(s))

    def test_root_at_a_type_I_interior_eigenvalue(self):
        # sweep seed 2 instance 96: phi(0) = 0 is a host eigenvalue, and 0 is a
        # type-I° interior eigenvalue, at which no boundary kernel has a pole
        X, s = sweep_instance(2, 96)
        sub = _sub(X, s)
        mu = next(t.value for t in classify_Qinterior(s) if t.type == "I")
        assert abs(mu) < 1e-12 and abs(compute_transfer(s).phi.eval_float(mu)) < 1e-12
        host = eigen(ReversibleOperator.full(X))
        f_host = host.bases[host.cluster_near(0.0)][:, 0]
        fn = transfer_extension(sub, boundary_kernels(s), f_host, mu, _interior_spec(s))
        assert residual(sub, fn) < RESIDUAL_TOL

    def test_random_instances(self):
        rng = random.Random(71)
        for _ in range(4):
            X = random_host(rng, max_n=5)
            s = random_substituent(rng, max_v=6)
            sub = _sub(X, s)
            tf = compute_transfer(s)
            kernels = boundary_kernels(s)
            interior_spec = _interior_spec(s)
            host_dec = eigen(ReversibleOperator.full(X))
            # extend the host ground state through the top transfer root
            star_dec = eigen(ReversibleOperator.full(sub.graph))
            lam_star = star_dec.values[0]
            assert abs(tf.phi.eval_float(lam_star) - 1.0) < 1e-8
            fn = transfer_extension(
                sub, kernels, host_dec.bases[0][:, 0], lam_star, interior_spec
            )
            assert residual(sub, fn) < 1e-7

    def test_equals_per_vertex_formula_under_random_orientations(self):
        # the broadcast fill relies on the vertex order of X[V]; random
        # orientations often make the larger endpoint the head e^a
        rng = random.Random(73)
        reversed_heads = 0
        for _ in range(8):
            X = random_host(rng, max_n=6)
            s = random_substituent(rng, max_v=6)
            orient = random_orientation(X, rng)
            reversed_heads += sum(orient.ea(e) > orient.eb(e) for e in range(X.num_edges))
            sub = substitute(X, orient, s)
            kernels = boundary_kernels(s)
            exact = _reference_kernels(s)
            k = len(s.interior)
            host_dec = eigen(ReversibleOperator.full(X))
            top = eigen(ReversibleOperator.full(sub.graph)).values[0]
            for lam_star in (top, rng.uniform(-1, 1), rng.uniform(-1, 1)):
                to_a, to_b = (
                    [float(exact_value(f, lam_star)) for f in half]
                    for half in (exact[:k], exact[k:])
                )
                f_host = host_dec.bases[0][:, 0] + rng.random() * host_dec.bases[-1][:, 0]
                fn = transfer_extension(sub, kernels, f_host, lam_star, None)
                want = np.zeros(sub.graph.n)
                want[: X.n] = f_host
                for e in range(X.num_edges):
                    fa, fb = f_host[orient.ea(e)], f_host[orient.eb(e)]
                    for j, u in enumerate(s.interior):
                        want[pi(sub, e, u)] = fa * to_a[j] + fb * to_b[j]
                assert np.all(np.abs(fn.values - want) <= 1e-10 * np.maximum(1.0, np.abs(want)))
        assert reversed_heads > 0


def _s1_transfer_extensions(X, s, monkeypatch):
    """The transfer extension of every S1 root and host eigenvector of its
    lambda, with the roots and host clusters that `assemble` reads from
    `solve_S1`."""
    for sub, kernels, f_host, root in _s1_pairs(X, s, monkeypatch):
        yield sub, transfer_extension(sub, kernels, f_host, root, None)


def _s1_pairs(X, s, monkeypatch):
    """(layout, kernels, host eigenvector, S1 root) for every S1 root and
    every column of the host basis of its lambda."""
    pairs = []

    def recorded(*args):
        found = solve_S1(*args)
        pairs.extend(zip(found.roots.tolist(), found.lam_index.tolist()))
        return found

    # the package rebinds edgesub.assemble to the function of that name
    monkeypatch.setattr(sys.modules["edgesub.assemble"], "solve_S1", recorded)
    result = assemble(X, Orientation.default(X), s, build_families=False)
    kernels = boundary_kernels(s)
    for root, k in pairs:
        basis = result.spec_P.bases[k]
        for f_host in basis.T:
            yield result.substituted, kernels, f_host, root


class TestTransferExtensionIsTheBroadcast:
    """One gather of the edge ends and one product with the kernel table
    give the broadcast's values, within 1e-13 relative in max-norm.

    The scale is the max-norm of the two terms |f(e^a)| |to_a| + |f(e^b)| |to_b|,
    which is the function's own max-norm unless the terms cancel: sweep
    seed 1 instance 69 has an S1 function 6000 times smaller than its
    terms, where the product's fused multiply-add moves it by 1.8e-13 of
    itself and 3e-17 of its terms."""

    @staticmethod
    def _check(X, s, monkeypatch):
        count = 0
        for sub, kernels, f_host, root in _s1_pairs(X, s, monkeypatch):
            got = transfer_extension(sub, kernels, f_host, root, None).values
            want = transfer_extension_broadcast(sub, kernels, f_host, root)
            terms = np.abs(f_host[sub.edge_ends]) @ np.abs(kernels.eval_interior(root))
            scale = max(np.max(np.abs(want)), np.max(terms))
            assert np.max(np.abs(got - want)) <= 1e-13 * scale
            count += 1
        return count

    @pytest.mark.parametrize("name", EIGENBASIS_MIX_FIXTURES)
    def test_eigenbasis_mix_fixtures(self, name, monkeypatch):
        s = EIGENBASIS_MIX_FIXTURES[name]
        for X in (cycle_host(5), path_host(4), star_host(4)):
            assert self._check(X, s, monkeypatch)

    def test_sweep_seed_1(self, monkeypatch):
        assert sum(self._check(X, s, monkeypatch) for X, s in sweep_instances(1, 100)) > 100


class TestTransferExtensionsOfLargeInteriors:
    """|V°| up to 20: the kernels' old absolute guard on a degree-|V°|
    denominator raised KernelPole at S1 roots far from every interior
    eigenvalue."""

    @pytest.mark.parametrize("max_v, min_interior", [(16, 10), (22, 14)])
    def test_every_S1_root_extends(self, max_v, min_interior, monkeypatch):
        rng = random.Random(1)
        for _ in range(10):
            X = random_host(rng, max_n=12, min_n=3)
            s = random_substituent(rng, max_v=max_v, min_interior=min_interior)
            for sub, fn in _s1_transfer_extensions(X, s, monkeypatch):
                assert residual(sub, fn) <= 1e-8

    def test_root_next_to_a_type_II_interior_pole(self, monkeypatch):
        # sweep seed 1 instance 153: an S1 root 9.7e-11 from a type-II° mu
        for sub, fn in _s1_transfer_extensions(*sweep_instance(1, 153), monkeypatch):
            assert residual(sub, fn) <= 1e-8


class TestEmbeddings:
    def test_type_II_constant(self):
        s = chorded_square_substituent()
        sub = _sub(cycle_host(5), s)
        typed = classify_Q(s)
        top = max(typed, key=lambda t: t.value)
        assert top.type == "II"
        fns = embed_specQ(sub, top)
        assert [f.tag for f in fns] == [TAG_CONSTANT]
        assert residual(sub, fns[0]) < RESIDUAL_TOL

    def test_type_III_bipartite_host(self):
        s = chorded_square_substituent()
        typed = classify_Q(s)
        t3 = next(t for t in typed if t.type == "III")
        # bipartite host: the signed extension exists
        sub = _sub(cycle_host(4), t3 and s)
        fns = embed_specQ(sub, t3)
        assert [f.tag for f in fns] == [TAG_BIPARTITE]
        assert residual(sub, fns[0]) < RESIDUAL_TOL
        # non-bipartite host: no extension
        sub5 = _sub(cycle_host(5), s)
        assert embed_specQ(sub5, t3) == []

    def test_type_IV_per_vertex_star(self):
        s = circle_substituent(2, "adjacent")
        typed = classify_Q(s)
        t4 = next(t for t in typed if t.type == "IV")
        for X in (cycle_host(4), cycle_host(5), star_host(4)):
            sub = _sub(X, s)
            fns = embed_specQ(sub, t4)
            assert len(fns) == X.n
            assert all(f.tag == TAG_PER_VERTEX for f in fns)
            for f in fns:
                assert residual(sub, f) < RESIDUAL_TOL
            assert independence_rank(fns) == X.n

    def test_per_edge_zero_boundary(self):
        s = chorded_square_substituent()
        sub = _sub(cycle_host(5), s)
        t1 = next(t for t in classify_Q(s) if t.type == "I")
        fns = embed_specQ(sub, t1)
        assert len(fns) == 5  # one per host edge
        for f in fns:
            assert residual(sub, f) < RESIDUAL_TOL
            assert np.max(np.abs(f.values[:5])) == 0.0
        assert independence_rank(fns) == 5


class TestNodalFamilies:
    def _family(self, X, s, value):
        sub = _sub(X, s)
        base = fundamental_cycle_base(X)
        t = next(
            t for t in classify_Qinterior(s) if abs(t.value - value) < 1e-9
        )
        return sub, t, nodal_from_interior(sub, t, base)

    def _check(self, sub, fns):
        for f in fns:
            assert f.is_nodal
            assert residual(sub, f) < RESIDUAL_TOL
            assert np.max(np.abs(f.values[: sub.host.n])) == 0.0
            for x in range(sub.host.n):
                assert abs(balance(sub, f.values, x)) < 1e-9

    def test_II_interior_count(self):
        s = chorded_square_substituent()
        # II° at 1/3: rank is E - X + delta_bipartite
        for X, expect in ((cycle_host(4), 1), (cycle_host(5), 0), (path_host(4), 0)):
            sub, t, fns = self._family(X, s, 1 / 3)
            self._check(sub, fns)
            assert independence_rank(fns) == expect
            dec = direct_spectrum(sub)
            if expect == 0:
                # the interior value may drop out of the spectrum entirely
                assert dec.cluster_near(t.value) is None or (
                    nodal_dimension(dec, t.value, sub.host.n) == 0
                )
            else:
                assert nodal_dimension(dec, t.value, sub.host.n) == expect

    def test_I_interior_count(self):
        s = chorded_square_substituent()
        for X in (cycle_host(4), cycle_host(5)):
            sub, t, fns = self._family(X, s, -1 / 3)
            self._check(sub, fns)
            assert independence_rank(fns) == X.num_edges
            dec = direct_spectrum(sub)
            assert nodal_dimension(dec, t.value, sub.host.n) == X.num_edges

    def test_III_interior_count(self):
        s = path_substituent(3)  # interior values +-1/2, types II and III
        for X in (cycle_host(4), cycle_host(5)):
            sub, t, fns = self._family(X, s, -1 / 2)
            assert t.type == "III"
            assert any(f.tag == TAG_ODD_CYCLE for f in fns)
            self._check(sub, fns)
            expect = X.num_edges - X.n + 1
            assert independence_rank(fns) == expect
            dec = direct_spectrum(sub)
            assert nodal_dimension(dec, t.value, sub.host.n) == expect

    def test_IV_interior_count(self):
        rng = random.Random(77)
        found = 0
        while found < 2:
            s = random_substituent(rng, max_v=7)
            t4s = [t for t in classify_Qinterior(s) if t.type == "IV"]
            if not t4s:
                continue
            found += 1
            X = cycle_host(4)
            sub = _sub(X, s)
            base = fundamental_cycle_base(X)
            for t in t4s:
                fns = nodal_from_interior(sub, t, base)
                assert all(f.tag == TAG_MIXED for f in fns)
                self._check(sub, fns)
                expect = t.nu * X.num_edges - X.n
                assert independence_rank(fns) == expect

    def test_joined_paths_for_non_bipartite_host(self):
        hosts = [
            # two triangles joined by a bridge
            [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (4, 5), (3, 5)],
            # bowtie: two triangles sharing a vertex
            [(0, 1), (1, 2), (0, 2), (0, 3), (3, 4), (0, 4)],
            # three odd cycles: triangle, pentagon, triangle joined by bridges
            [
                (0, 1), (1, 2), (0, 2), (2, 3),
                (3, 4), (4, 5), (5, 6), (6, 7), (3, 7),
                (5, 8), (8, 9), (9, 10), (8, 10),
            ],
        ]
        for edges in hosts:
            n = 1 + max(max(e) for e in edges)
            X = WeightedGraph(list(range(n)), [(u, v, Fraction(1)) for u, v in edges])
            sub, t, fns = self._family(X, chorded_square_substituent(), 1 / 3)
            self._check(sub, fns)
            expect = X.num_edges - X.n + X.delta_b
            assert expect >= 1
            assert independence_rank(fns) == expect
            assert nodal_dimension(direct_spectrum(sub), t.value, sub.host.n) == expect


# ---------------------------------------------------------------------------
# Per-vertex references: every family written one X[V] vertex at a time
# through the identification map `reference.pi`, as the constructions were first
# written.  The library writes rows of the (edge, interior index) block.
# ---------------------------------------------------------------------------


def _ref_interior_dicts(sub, t, columns):
    s = sub.substituent
    support = list(range(s.graph.n)) if t.source == "Q" else sorted(s.interior)
    inner = set(s.interior)
    return [
        {v: float(columns[i, j]) for i, v in enumerate(support) if v in inner}
        for j in range(columns.shape[1])
    ]


def _ref_per_edge(sub, t):
    out = []
    for j, fvec in enumerate(_ref_interior_dicts(sub, t, t.zero_block())):
        for e in range(sub.host.num_edges):
            values = np.zeros(sub.graph.n)
            for v, fv in fvec.items():
                values[pi(sub, e, v)] = fv
            out.append(ExtensionFunction(values, t.value, TAG_PER_EDGE, f"f_{j + 1} on edge {e}"))
    return out


def _ref_embed_specQ(sub, t):
    s, X, o = sub.substituent, sub.host, sub.orientation
    fns = _ref_per_edge(sub, t)
    if t.type == "II":
        tail = t.tails()[:, 0]
        values = np.zeros(sub.graph.n)
        values[: X.n] = tail[s.a]
        for e in range(X.num_edges):
            for v in s.interior:
                values[pi(sub, e, v)] = tail[v]
        fns.append(ExtensionFunction(values, t.value, TAG_CONSTANT, "symmetric tail"))
    elif t.type == "III" and X.bipartition() is not None:
        part1, _ = X.bipartition()
        tail = t.tails()[:, 0]
        values = np.zeros(sub.graph.n)
        for x in range(X.n):
            values[x] = 1.0 if x in part1 else -1.0
        for e in range(X.num_edges):
            sign = 1.0 if o.ea(e) in part1 else -1.0
            for v in s.interior:
                values[pi(sub, e, v)] = sign * tail[v]
        fns.append(ExtensionFunction(values, t.value, TAG_BIPARTITE, "antisymmetric tail"))
    elif t.type == "IV":
        f_prev, f_top = t.tails()[:, 0], t.tails()[:, 1]
        for x in range(X.n):
            values = np.zeros(sub.graph.n)
            values[x] = 1.0
            for e in range(X.num_edges):
                if o.ea(e) == x:
                    copy = f_top
                elif o.eb(e) == x:
                    copy = f_prev
                else:
                    continue
                for v in s.interior:
                    values[pi(sub, e, v)] = copy[v]
            fns.append(ExtensionFunction(values, t.value, TAG_PER_VERTEX, f"star of vertex {x}"))
    return fns


def _walk_defects(edges):
    """Defect of each edge on an even closed walk: the sum of (-1)^j over the
    positions j at which the walk crosses it."""
    assert len(edges) % 2 == 0
    defects = {}
    for j, e in enumerate(edges):
        defects[e] = defects.get(e, 0) + (-1) ** j
    return defects


def _up_to_root(base, x):
    """Tree edges from x up to the root of the cycle base's tree."""
    edges = []
    while x in base.parent:
        x, e = base.parent[x]
        edges.append(e)
    return edges


def _joined_walk(base, i, j):
    """Even closed walk: around odd cycle C_i, up to the root, down to C_j,
    around it and back.  It may backtrack: any even closed walk through each
    of the two non-tree edges once has the same defects, up to sign."""
    (vi, ei), (vj, ej) = cycle_walk(base, base.cycles[i]), cycle_walk(base, base.cycles[j])
    up_i, up_j = _up_to_root(base, vi[0]), _up_to_root(base, vj[0])
    there = up_i + up_j[::-1]
    return list(ei) + there + list(ej) + there[::-1]


def _ref_defect(sub, t, tail, defects, label):
    values = np.zeros(sub.graph.n)
    for e, df in defects.items():
        if df == 0:
            continue
        w = df / float(sub.host.edges[e][2])
        for v, fv in tail.items():
            values[pi(sub, e, v)] = w * fv
    return ExtensionFunction(values, t.value, TAG_DEFECT, label)


def _ref_nodal(sub, t, base):
    X, o = sub.host, sub.orientation
    fns = _ref_per_edge(sub, t)
    tails = _ref_interior_dicts(sub, t, t.tails())
    if t.type == "III":
        for i, k in enumerate(base.cycles):
            values = np.zeros(sub.graph.n)
            verts, edges = cycle_walk(base, k)
            for e, xj in zip(edges, verts):
                w = (1.0 if o.ea(e) == xj else -1.0) / float(X.edges[e][2])
                for v, fv in tails[0].items():
                    values[pi(sub, e, v)] += w * fv
            fns.append(ExtensionFunction(values, t.value, TAG_ODD_CYCLE, f"cycle {i}"))
    elif t.type == "II":
        walks = [cycle_walk(base, k)[1] for k in base.cycles]
        odd = [i for i, walk in enumerate(walks) if len(walk) % 2]
        for i, walk in enumerate(walks):
            if len(walk) % 2 == 0:
                defects = _walk_defects(walk)
                fns.append(_ref_defect(sub, t, tails[0], defects, f"even cycle {i}"))
        for i in odd[:-1]:
            defects = _walk_defects(_joined_walk(base, i, odd[-1]))
            fns.append(_ref_defect(sub, t, tails[0], defects, f"joined cycles {i},{odd[-1]}"))
    elif t.type == "IV":
        f_prev, f_top = tails
        for x in range(X.n):
            star = X.incident(x)
            for e in star[:-1] if len(star) >= 2 else []:
                values = np.zeros(sub.graph.n)
                for e_k, sign in ((e, 1.0), (star[-1], -1.0)):
                    copy = f_top if o.ea(e_k) == x else f_prev
                    w = sign / float(X.edges[e_k][2])
                    for v, fv in copy.items():
                        values[pi(sub, e_k, v)] = w * fv
                label = f"edges {e},{star[-1]} at vertex {x}"
                fns.append(ExtensionFunction(values, t.value, TAG_MIXED, label))
    return fns


def _exact_balance(sub, f, x):
    """The balance at x in Fractions, from the exact Q of `matrix_exact`, the
    exact host conductances and the exact values of the floats of f."""
    s, X, o = sub.substituent, sub.host, sub.orientation
    q = ReversibleOperator.full(s.graph).matrix_exact()
    total = Fraction(0)
    for e, (_, _, ax) in enumerate(X.edges):
        for end, at in ((s.a, o.ea(e)), (s.b, o.eb(e))):
            if at == x:
                total += ax * sum(q[end][v] * Fraction(f[pi(sub, e, v)]) for v in s.interior)
    return total


def _family_pairs():
    """Ten random host x substituent pairs under random orientations; seed 83
    gives every Q and Q° type, a tree, and hosts with odd and even cycles."""
    rng = random.Random(83)
    for _ in range(10):
        X = random_host(rng, max_n=6)
        s = random_substituent(rng, max_v=7)
        yield substitute(X, random_orientation(X, rng), s), fundamental_cycle_base(X)


def _assert_same_functions(got, want):
    assert [(f.tag, f.provenance) for f in got] == [(f.tag, f.provenance) for f in want]
    for f, g in zip(got, want):
        assert f.eigenvalue == g.eigenvalue
        if f.tag in (TAG_ODD_CYCLE, TAG_DEFECT):  # kernel vectors, fixed up to sign
            assert np.array_equal(f.values, g.values) or np.array_equal(f.values, -g.values)
        else:
            assert np.array_equal(f.values, g.values)


class TestBlockRowsEqualPerVertexReference:
    def test_pairs_cover_every_type_and_host_shape(self):
        q_types, qo_types, fns, hosts = set(), set(), [], set()
        distinct_IV_tails = False
        for sub, base in _family_pairs():
            s = sub.substituent
            for t in classify_Q(s):
                q_types.add(t.type)
                fns += embed_specQ(sub, t)
                if t.type == "IV":
                    tails = t.tails()[list(s.interior)]
                    distinct_IV_tails |= not np.array_equal(tails[:, 0], tails[:, 1])
            for t in classify_Qinterior(s):
                qo_types.add(t.type)
                fns += nodal_from_interior(sub, t, base)
            lengths = [len(cycle_walk(base, k)[1]) for k in base.cycles]
            hosts |= {"odd" if n % 2 else "even" for n in lengths} or {"tree"}
        assert q_types == qo_types == {"I", "II", "III", "IV"}
        # the per-vertex star copies a different tail toward e^a than toward e^b
        assert distinct_IV_tails
        assert hosts == {"tree", "even", "odd"}
        assert {f.tag for f in fns} == {
            TAG_PER_EDGE, TAG_CONSTANT, TAG_BIPARTITE, TAG_PER_VERTEX,
            TAG_ODD_CYCLE, TAG_DEFECT, TAG_MIXED,
        }
        # defect paths of both kinds: around an even cycle, and two odd cycles joined
        assert {f.provenance.split()[0] for f in fns if f.tag == TAG_DEFECT} == {"even", "joined"}

    def test_embed_specQ(self):
        for sub, _ in _family_pairs():
            for t in classify_Q(sub.substituent):
                _assert_same_functions(embed_specQ(sub, t), _ref_embed_specQ(sub, t))

    def test_nodal_from_interior(self):
        for sub, base in _family_pairs():
            for t in classify_Qinterior(sub.substituent):
                _assert_same_functions(nodal_from_interior(sub, t, base), _ref_nodal(sub, t, base))

    def test_balance(self):
        # random f, so no balance is zero and the bound is relative to it
        rng = np.random.default_rng(83)
        for sub, _ in _family_pairs():
            f = rng.standard_normal(sub.n)
            for x in range(sub.host.n):
                want = _exact_balance(sub, f, x)
                assert want != 0
                assert abs(balance(sub, f, x) - want) <= 1e-12 * abs(want)


def _parallel_edge_hosts():
    """A digon, a triple edge, a digon with a tail, and the two parallel-edge
    hosts of the host-shape test in test_assemble."""
    one, two, half = Fraction(1), Fraction(2), Fraction(1, 2)
    edge_lists = [
        [(0, 1, one), (0, 1, two)],
        [(0, 1, one), (1, 0, half), (0, 1, Fraction(3))],
        [(0, 1, one), (1, 0, two), (0, 2, one)],
        [(0, 1, one), (1, 0, half), (1, 2, one)],
        [(0, 1, one), (1, 2, one), (2, 0, one), (1, 2, two)],
    ]
    return [WeightedGraph(list(range(1 + max(max(u, v) for u, v, _ in es))), es) for es in edge_lists]


def test_families_on_parallel_edge_hosts():
    """On hosts with parallel edges, every nodal and `embed_specQ` function
    is an eigenfunction of X[V], and each interior value's nodal family has
    the rank of the oracle's nodal space there.  40 pairs: five fixtures and
    three random draws, which between them give every Q and Q° type."""
    rng = random.Random(219)
    subs = [path_substituent(3), path_substituent(4), chorded_square_substituent()]
    subs += [circle_substituent(2, "adjacent"), circle_substituent(3, "antipodal")]
    subs += [random_substituent(rng, max_v=7) for _ in range(3)]
    tags = set()
    for X in _parallel_edge_hosts():
        for s in subs:
            r = assemble(X, Orientation.default(X), s)
            sub, oracle = r.substituted, direct_spectrum(r.substituted)
            fns = [f for t in r.classified_Q for f in embed_specQ(sub, t)]
            for t in r.classified_interior:
                family = r.nodal_families[t.value]
                try:
                    dim = nodal_dimension(oracle, t.value, X.n)
                except NoSuchCluster:  # the interior value is not in the spectrum at all
                    dim = 0
                assert independence_rank(family) == dim
                fns += family
            assert all(residual(sub, f) <= 1e-8 for f in fns)
            tags |= {f.tag for f in fns}
    assert tags == {
        TAG_PER_EDGE, TAG_CONSTANT, TAG_BIPARTITE, TAG_PER_VERTEX, TAG_ODD_CYCLE, TAG_DEFECT, TAG_MIXED,
    }


def _eigenbasis_pass(X, s):
    """A complete explicit eigenbasis of X[V]: `assemble` with nodal
    families, the boundary kernels, one transfer extension per (S1 root,
    host eigenvector) pair and the embeddings of the S2 eigenvalues of Q."""
    r = assemble(X, Orientation.default(X), s, build_families=True)
    kernels = boundary_kernels(s)
    fns = [f for fam in r.nodal_families.values() for f in fam]
    for e in r.report.entries:
        if any(p.startswith("S1") for p in e.provenance):
            basis = r.spec_P.bases[r.spec_P.cluster_near(r.transfer.phi.eval_float(e.value))]
            fns += [transfer_extension(r.substituted, kernels, f, e.value, None) for f in basis.T]
        if "S2" in e.provenance:
            t = next(q for q in r.classified_Q if abs(q.value - e.value) <= CLUSTER_TOL)
            fns += embed_specQ(r.substituted, t)
    return r, fns


@pytest.mark.parametrize(
    "X, s",
    [
        (cycle_host(5), chorded_square_substituent()),
        (path_host(4), circle_substituent(3, "adjacent")),
        (star_host(4), path_substituent(3)),
    ],
    ids=["cycle-5/chorded-square", "path-4/circle-adjacent-3", "star-4/path-3"],
)
def test_residuals_are_the_dense_reference(X, s):
    # the dense reference: each entry of P_* the float of its exact value.
    # The residual is relative to the sup-norm of f, so the bound is on P_* f
    # relative to that norm: on the eigenfunctions, and on each of them
    # perturbed so that the residual is of order one
    r, fns = _eigenbasis_pass(X, s)
    sub, rng = r.substituted, np.random.default_rng(28)
    P = np.array([[float(p) for p in row] for row in ReversibleOperator.full(sub.graph).matrix_exact()])
    assert len(fns) > 1
    for fn in fns:
        noisy = ExtensionFunction(fn.values + rng.standard_normal(sub.n), fn.eigenvalue, fn.tag, "noisy")
        for g in (fn, noisy):
            f = g.values
            want = float(np.max(np.abs(P @ f - g.eigenvalue * f)) / np.max(np.abs(f)))
            assert abs(residual(sub, g) - want) <= 1e-12 * max(1.0, want)
        assert residual(sub, fn) < RESIDUAL_TOL


def test_residual_of_the_zero_function_is_inf():
    sub = _sub(cycle_host(5), chorded_square_substituent())
    got = residual(sub, ExtensionFunction(np.zeros(sub.n), 0.5, TAG_PER_EDGE, "zero"))
    assert got == math.inf
    assert not got <= RESIDUAL_TOL


class TestEigenbasisPassLeavesXVUnbuilt:
    """Every eigenfunction is written through the layout of X[V]; none of
    them reads the exact graph."""

    def _check(self, X, s):
        r, fns = _eigenbasis_pass(X, s)
        assert fns
        assert "graph" not in r.substituted.__dict__
        assert all(f.values.shape == (r.substituted.n,) for f in fns)

    def test_sweep_seed_1(self):
        for X, s in sweep_instances(1, 100):
            self._check(X, s)

    @pytest.mark.parametrize("name", EIGENBASIS_MIX_FIXTURES)
    def test_eigenbasis_mix_fixtures(self, name):
        s = EIGENBASIS_MIX_FIXTURES[name]
        for X in (cycle_host(5), path_host(4), star_host(4)):
            self._check(X, s)
