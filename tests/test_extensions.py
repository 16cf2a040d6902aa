import random

import numpy as np
import pytest

from edgesub.classify import classify_Q, classify_Qinterior
from edgesub.errors import KernelPole
from edgesub.extensions import (
    TAG_BIPARTITE,
    TAG_CONSTANT,
    TAG_MIXED,
    TAG_ODD_CYCLE,
    TAG_PER_VERTEX,
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
from edgesub.graph import Orientation, fundamental_cycle_base
from edgesub.operators import ReversibleOperator, eigen
from edgesub.oracle import direct_spectrum, nodal_dimension
from edgesub.substitution import substitute
from edgesub.transfer import boundary_kernels, compute_transfer

from randinst import random_host, random_substituent, sweep_instance

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
                assert abs(fn.values[sub.pi(e, v)] - (-1 / 3) * 2) < 1e-12

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
            orient = Orientation.random(X, rng)
            reversed_heads += sum(orient.ea(e) > orient.eb(e) for e in range(X.num_edges))
            sub = substitute(X, orient, s)
            kernels = boundary_kernels(s)
            host_dec = eigen(ReversibleOperator.full(X))
            top = eigen(ReversibleOperator.full(sub.graph)).values[0]
            for lam_star in (top, rng.uniform(-1, 1), rng.uniform(-1, 1)):
                f_host = host_dec.bases[0][:, 0] + rng.random() * host_dec.bases[-1][:, 0]
                fn = transfer_extension(sub, kernels, f_host, lam_star, None)
                want = np.zeros(sub.graph.n)
                want[: X.n] = f_host
                for e in range(X.num_edges):
                    fa, fb = f_host[orient.ea(e)], f_host[orient.eb(e)]
                    for u in s.interior:
                        want[sub.pi(e, u)] = fa * kernels.to_a[u].eval_float(
                            lam_star
                        ) + fb * kernels.to_b[u].eval_float(lam_star)
                assert fn.values.tobytes() == want.tobytes()
        assert reversed_heads > 0


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
        # host with two odd cycles sharing nothing: triangles joined by a bridge
        from fractions import Fraction

        from edgesub.graph import WeightedGraph

        ONE = Fraction(1)
        X = WeightedGraph(
            list(range(6)),
            [
                (0, 1, ONE), (1, 2, ONE), (0, 2, ONE),
                (2, 3, ONE),
                (3, 4, ONE), (4, 5, ONE), (3, 5, ONE),
            ],
        )
        s = chorded_square_substituent()
        sub, t, fns = self._family(X, s, 1 / 3)
        self._check(sub, fns)
        expect = X.num_edges - X.n + X.delta_b  # = 7 - 6 + 0 = 1
        assert independence_rank(fns) == expect
