import random
import sys
from fractions import Fraction

import numpy as np
import pytest

from edgesub import algebra, transfer
from edgesub.algebra import (
    Polynomial,
    RationalFunction,
    real_roots_in_interval,
    resolvent_matrix,
)
from edgesub.assemble import assemble, solve_S1
from edgesub.classify import classify_Qinterior
from edgesub.errors import KernelPole, TooCloseToInteriorSpectrum
from edgesub.extensions import transfer_extension
from edgesub.fixtures import (
    chorded_square_substituent,
    circle_substituent,
    cycle_host,
    path_host,
    path_substituent,
)
from edgesub.graph import Orientation, WeightedGraph
from edgesub.operators import ReversibleOperator, eigen, spectral_radius
from edgesub.substitution import substitute
from edgesub.transfer import (
    POLE_GUARD,
    BoundaryKernels,
    boundary_kernels,
    compute_transfer,
    verify_resolvent_identity,
)

from randinst import random_host, random_substituent, relabel_substituent, sweep_instance
from reference import chebyshev

RF = RationalFunction
ONE = RF(Polynomial([1]))
HALF = RF(Polynomial([Fraction(1, 2)]))


class TestGoldenTransferFunctions:
    def test_chorded_square(self):
        tf = compute_transfer(chorded_square_substituent())
        assert tf.phi == RF(Polynomial([-1, -1, 3]))
        assert tf.psi == RF(Polynomial([Fraction(1, 3)]), Polynomial([Fraction(-1, 3), 1]))
        assert tf.theta == tf.psi

    def test_chorded_square_spectral_radii(self):
        s = chorded_square_substituent()
        lam_int = spectral_radius(ReversibleOperator.restricted(s.graph, s.interior))
        keep = [x for x in range(s.graph.n) if x != s.b]
        lam_vmb = spectral_radius(ReversibleOperator.restricted(s.graph, keep))
        assert abs(lam_int - 1 / 3) < 1e-12
        assert abs(lam_vmb - (1 + 13 ** 0.5) / 6) < 1e-12

    @pytest.mark.parametrize("L", [2, 3, 4, 5, 6, 10, 16, 24])
    def test_path_is_chebyshev(self, L):
        tf = compute_transfer(path_substituent(L))
        assert tf.phi == RF(chebyshev("first", L))
        assert tf.psi == RF(Polynomial([1]), chebyshev("second", L - 1))

    @pytest.mark.parametrize("L", [2, 3, 4, 6, 7])
    def test_antipodal_circle_matches_path(self, L):
        tf = compute_transfer(circle_substituent(L, "antipodal"))
        assert tf.phi == RF(chebyshev("first", L))
        assert tf.psi == RF(Polynomial([1]), chebyshev("second", L - 1))

    @pytest.mark.parametrize("L", [2, 3, 4, 6, 7])
    def test_adjacent_circle(self, L):
        tf = compute_transfer(circle_substituent(L, "adjacent"))
        M = 2 * L
        assert tf.phi == RF(chebyshev("first", L), chebyshev("first", L - 1))
        assert tf.psi == (ONE + RF(Polynomial([1]), chebyshev("second", M - 2))) * HALF


class TestTransferInvariants:
    def _random_subs(self, count, seed):
        rng = random.Random(seed)
        return [random_substituent(rng, max_v=10) for _ in range(count)]

    def test_phi_psi_plus_theta_is_z(self):
        for s in self._random_subs(8, 21):
            tf = compute_transfer(s)
            assert tf.phi * tf.psi + tf.theta == RF.z()

    def test_phi_fixes_one(self):
        for s in self._random_subs(8, 22):
            tf = compute_transfer(s)
            assert tf.phi.eval_exact(Fraction(1)) == 1

    def test_phi_numerator_dominates(self):
        # after reduction common factors may cancel, but the numerator
        # degree always strictly exceeds the denominator degree
        for s in self._random_subs(8, 23):
            tf = compute_transfer(s)
            assert tf.phi.num.degree > tf.phi.den.degree

    def test_path_phi_vanishes_at_zero_for_even_L(self):
        for L in (2, 4, 6):
            tf = compute_transfer(path_substituent(L))
            assert abs(tf.phi.eval_exact(Fraction(0))) == 1  # T_L(0) = +-1
        for L in (3, 5):
            tf = compute_transfer(path_substituent(L))
            assert tf.phi.eval_exact(Fraction(0)) == 0


def _reference_transfer(s):
    """(phi, psi, theta, z - theta) by the 2k + 1 series route: det and every
    entry of both adjugate columns are interpolated (`resolvent_matrix`), and
    theta and psi are summed from the reduced resolvent columns."""
    q = ReversibleOperator.full(s.graph).matrix_exact()
    M = [[q[u][v] for v in s.interior] for u in s.interior]
    col_a, col_b = resolvent_matrix(M, [[q[v][x] for v in s.interior] for x in (s.a, s.b)])
    theta = sum((q[s.a][u] * g for u, g in zip(s.interior, col_a)), RF.const(0))
    psi = sum((q[s.a][u] * g for u, g in zip(s.interior, col_b)), RF.const(q[s.a][s.b]))
    z_minus_theta = RF.z() - theta
    return z_minus_theta / psi, psi, theta, z_minus_theta


def _functions(tf):
    return tf.phi, tf.psi, tf.theta, tf.z_minus_theta


# the fixture substituents of the eigenbasis-mix benchmark workload
EIGENBASIS_MIX_FIXTURES = {
    **{f"path-{L}": path_substituent(L) for L in range(2, 6)},
    **{
        f"circle-{placement}-{L}": circle_substituent(L, placement)
        for L in (2, 3)
        for placement in ("antipodal", "adjacent")
    },
    "chorded-square": chorded_square_substituent(),
}
# ... and of both the sub-long and eigenbasis-mix workloads
WORKLOAD_FIXTURES = {
    "path-10": path_substituent(10),
    "path-15": path_substituent(15),
    "circle-antipodal-7": circle_substituent(7, "antipodal"),
    "circle-adjacent-6": circle_substituent(6, "adjacent"),
    **EIGENBASIS_MIX_FIXTURES,
}


class TestAgainstTheReference:
    @pytest.mark.parametrize("name", WORKLOAD_FIXTURES)
    def test_workload_fixtures(self, name):
        s = WORKLOAD_FIXTURES[name]
        assert _functions(compute_transfer(s)) == _reference_transfer(s)

    def test_random_substituents(self):
        rng = random.Random(61)
        for _ in range(60):
            s = random_substituent(rng, max_v=10)
            assert _functions(compute_transfer(s)) == _reference_transfer(s)

    @pytest.mark.parametrize("name", ["path-10", "circle-antipodal-7"])
    def test_relabelling_leaves_the_functions_equal(self, name):
        # vertex order changes the cost of the exact solves, never the result
        s = WORKLOAD_FIXTURES[name]
        tf = compute_transfer(s)
        rng = random.Random(name)
        for _ in range(3):
            assert compute_transfer(relabel_substituent(s, rng)) == tf

    def test_one_solve_per_node_and_three_series(self, monkeypatch):
        # the node loop, and the elimination and interpolation it runs, are
        # counted where compute_transfer and interpolate_solves look them up
        counts = {"interpolate_solves": 0, "_eliminate": 0, "_interpolate": 0}

        def counted(module, name):
            original = getattr(module, name)

            def wrapper(*args):
                counts[name] += 1
                return original(*args)

            monkeypatch.setattr(module, name, wrapper)

        counted(transfer, "interpolate_solves")
        counted(algebra, "_eliminate")
        counted(algebra, "_interpolate")
        s = path_substituent(15)
        compute_transfer(s)
        assert counts == {"interpolate_solves": 1, "_eliminate": len(s.interior) + 1, "_interpolate": 3}

    def test_four_reduced_quotients(self, monkeypatch):
        # phi, psi, theta and z - theta are each built once from the three
        # series when first read, so each costs one gcd and none is an
        # arithmetic result; computing the series runs no gcd
        calls = []
        gcd = algebra.poly_gcd

        def counted(a, b):
            calls.append((a, b))
            return gcd(a, b)

        monkeypatch.setattr(algebra, "poly_gcd", counted)
        rng = random.Random(62)
        for s in [path_substituent(15), *(random_substituent(rng, max_v=10) for _ in range(5))]:
            calls.clear()
            tf = compute_transfer(s)
            assert len(calls) == 0
            tf.phi
            assert len(calls) == 1
            _functions(tf)
            _functions(tf)
            assert len(calls) == 4


def _reference_kernels(s):
    """The exact kernels over the interior, toward a then toward b, as reduced
    rational functions: both columns solved by one `resolvent_matrix` call."""
    q = ReversibleOperator.full(s.graph).matrix_exact()
    M = [[q[u][v] for v in s.interior] for u in s.interior]
    col_a, col_b = resolvent_matrix(M, [[q[v][x] for v in s.interior] for x in (s.a, s.b)])
    return col_a + col_b


def _assert_matches_reference(kernels, exact, z):
    """`eval_interior(z)` within 1e-10 of the exact kernels at Fraction(z),
    relative to max(1, |exact value|)."""
    want = np.array([float(f.eval_exact(Fraction(z))) for f in exact])
    got = np.concatenate(kernels.eval_interior(z))
    assert np.all(np.abs(got - want) <= 1e-10 * np.maximum(1.0, np.abs(want))), (z, got, want)


def _single_edge(s):
    """The layout of s on one edge of unit conductance."""
    X = WeightedGraph(["x0", "x1"], [(0, 1, Fraction(1))])
    return substitute(X, Orientation.default(X), s)


class TestBoundaryKernels:
    def test_chorded_square_kernel(self):
        s = chorded_square_substituent()
        exact = _reference_kernels(s)
        assert exact == [RF(Polynomial([Fraction(1, 3)]), Polynomial([Fraction(-1, 3), 1]))] * 4
        k = boundary_kernels(s)
        for z in (-1.0, -2 / 3, 0.0, 0.3, 0.5, 1.0):
            _assert_matches_reference(k, exact, z)

    @pytest.mark.parametrize("L", [2, 3, 5])
    def test_path_kernel_is_chebyshev_ratio(self, L):
        s = path_substituent(L)
        exact = _reference_kernels(s)
        assert exact[: L - 1] == [
            RF(chebyshev("second", L - j - 1), chebyshev("second", L - 1)) for j in range(1, L)
        ]
        k = boundary_kernels(s)
        for z in (-1.0, -0.6, 0.1, 0.45, 0.95, 1.0):
            _assert_matches_reference(k, exact, z)

    def test_chorded_square_pole_raises(self):
        k = boundary_kernels(chorded_square_substituent())
        with pytest.raises(TooCloseToInteriorSpectrum):
            k.eval_interior(1 / 3)

    @staticmethod
    def _synthetic(poles):
        """Kernels with the given ascending poles and unit residues on path-3."""
        s = path_substituent(3)
        return BoundaryKernels(s, np.array(poles, dtype=float), np.ones((len(poles), 2 * len(s.interior))))

    def test_guard_is_the_distance_to_the_nearest_pole(self):
        poles = [-0.7, 0.1, 0.3, 0.9]
        k = self._synthetic(poles)
        sub = _single_edge(k.substituent)
        for p in poles:
            for side in (-1, 1):
                at = p + side * 0.5 * POLE_GUARD
                with pytest.raises(TooCloseToInteriorSpectrum):
                    k.eval_interior(at)
                with pytest.raises(KernelPole):
                    transfer_extension(sub, k, np.ones(2), at, None)
                table = k.eval_interior(p + side * 2 * POLE_GUARD)
                assert table.shape == (2, 2) and np.all(np.isfinite(table))

    def test_between_two_poles_the_nearer_decides(self):
        lo, hi = 0.3, 0.3 + 2.5 * POLE_GUARD
        k = self._synthetic([-0.5, lo, hi, 0.8])
        for z, near in ((lo + 0.5 * POLE_GUARD, lo), (hi - 0.5 * POLE_GUARD, hi)):
            with pytest.raises(TooCloseToInteriorSpectrum, match=f"distance {abs(z - near):.3e} "):
                k.eval_interior(z)
        k.eval_interior((lo + hi) / 2)  # 1.25 POLE_GUARD from both

    def test_no_pole_gives_a_zero_table(self):
        # an all-I° interior: no classified eigenvalue is a pole of a kernel
        k = self._synthetic([])
        for z in (-1.0, 0.0, 0.5, 1.0):
            table = k.eval_interior(z)
            assert table.shape == (2, 2) and not table.any()

    def test_solve_boundary_satisfies_equation(self):
        rng = random.Random(31)
        for _ in range(5):
            s = random_substituent(rng, max_v=6)
            V = s.graph
            z = 1.7 + rng.random()
            fa, fb = boundary_kernels(s).eval_interior(z)
            f = {s.a: 1.0, s.b: -0.5, **dict(zip(s.interior, (1.0 * fa - 0.5 * fb).tolist()))}
            for u in s.interior:
                qf = sum(
                    float(V.conductance(u, v) / V.m(u)) * f[v] for v in range(V.n)
                )
                assert abs(qf - z * f[u]) < 1e-9

    def test_solve_boundary_at_a_type_I_interior_eigenvalue(self):
        # sweep seed 2 instance 96: mu ~ 0 is a type-I° interior eigenvalue, a
        # pole of no boundary kernel, so the kernels' particular solution exists
        _, s = sweep_instance(2, 96)
        mu = next(t.value for t in classify_Qinterior(s) if t.type == "I")
        assert abs(mu) < 1e-12
        fa, fb = boundary_kernels(s).eval_interior(mu)
        f = {s.a: 1.0, s.b: 0.0, **dict(zip(s.interior, (1.0 * fa + 0.0 * fb).tolist()))}
        got = np.array([f[u] for u in s.interior])
        assert np.all(np.isfinite(got)) and np.array_equal(got, fa)
        assert (f[s.a], f[s.b]) == (1.0, 0.0)
        V = s.graph
        for u in s.interior:
            qf = sum(float(V.conductance(u, v) / V.m(u)) * f[v] for v in range(V.n))
            assert abs(qf - mu * f[u]) < 1e-12


def _horner_over_float_coefficients(p, x):
    acc = 0.0
    for c in reversed(p.coeffs):
        acc = acc * x + float(c)
    return acc


@pytest.mark.parametrize("name", WORKLOAD_FIXTURES)
def test_float_evaluation_is_horner_over_float_coefficients(name):
    # the cached float coefficients round as float(Fraction) does, so
    # eval_float is bitwise the Horner loop over float(c)
    phi = compute_transfer(WORKLOAD_FIXTURES[name]).phi
    for x in [*np.linspace(-1.0, 1.0, 201).tolist(), 0.1, -1 / 3, 2.0 ** -30]:
        for p in (phi.num, phi.den):
            assert p.eval_float(x).hex() == _horner_over_float_coefficients(p, x).hex()


class TestKernelsFromOneColumn:
    """The kernels' pole expansions over the classified interior against the
    exact reference: equal values off the poles, and a pole exactly where
    some exact kernel has one."""

    @staticmethod
    def _check(s, rng):
        kernels, exact = boundary_kernels(s), _reference_kernels(s)
        poles = [p for den in {f.den for f in exact} for p in real_roots_in_interval(den, -1, 1)]
        interior_spec = eigen(ReversibleOperator.restricted(s.graph, s.interior)).values
        for z in [0.0, -1.0, 1.0, 0.5] + [rng.uniform(-1, 1) for _ in range(5)] + list(interior_spec):
            if any(abs(z - p) < POLE_GUARD for p in poles):
                with pytest.raises(TooCloseToInteriorSpectrum):
                    kernels.eval_interior(z)
            else:
                _assert_matches_reference(kernels, exact, z)

    @pytest.mark.parametrize("name", WORKLOAD_FIXTURES)
    def test_workload_fixtures(self, name):
        self._check(WORKLOAD_FIXTURES[name], random.Random(name))

    def test_random_substituents(self):
        rng = random.Random(62)
        for _ in range(60):
            self._check(random_substituent(rng, max_v=10), rng)

    def test_no_exact_solve(self, monkeypatch):
        def forbidden(*args):
            raise AssertionError("boundary_kernels ran an exact solve")

        # resolvent_matrix reaches the node loop through algebra's own name
        monkeypatch.setattr(algebra, "interpolate_solves", forbidden)
        monkeypatch.setattr(transfer, "interpolate_solves", forbidden)
        s = circle_substituent(7, "antipodal")
        boundary_kernels(s).eval_interior(0.3)


class TestPhiAtS1Roots:
    """|V°| from 10 to 14: at a genuine S1 root the monic denominator of phi,
    of degree up to |V°|, can be far below 1e-12 with no pole near, so the
    float value is the plain quotient."""

    def test_phi_maps_each_root_into_the_cluster_of_its_lambda(self, monkeypatch):
        triples = []

        def recorded(*args):
            found = solve_S1(*args)
            triples.extend(found)
            return found

        # the package rebinds edgesub.assemble to the function of that name
        monkeypatch.setattr(sys.modules["edgesub.assemble"], "solve_S1", recorded)
        rng = random.Random(1)
        for _ in range(10):
            X = random_host(rng, max_n=12, min_n=3)
            s = random_substituent(rng, max_v=16, min_interior=10)
            triples.clear()
            result = assemble(X, Orientation.default(X), s, build_families=False)
            phi, spec = result.transfer.phi, result.spec_P
            assert triples
            for root, lam, _ in triples:
                assert spec.cluster_near(phi.eval_float(root)) == spec.values.index(lam)


class TestResolventIdentity:
    def test_path_host_example(self):
        X = path_host(3)
        s = path_substituent(2)
        sub = substitute(X, Orientation.default(X), s)
        tf = compute_transfer(s)
        pairs = [(x, y) for x in range(3) for y in range(3)]
        results = verify_resolvent_identity(sub, tf, Fraction(5, 2), pairs)
        assert all(ok for _, _, ok in results)

    def test_chorded_square_on_cycle(self):
        X = cycle_host(4)
        s = chorded_square_substituent()
        sub = substitute(X, Orientation.default(X), s)
        tf = compute_transfer(s)
        pairs = [(0, 0), (0, 1), (1, 3), (2, 2)]
        for z in (Fraction(3, 2), Fraction(-2), Fraction(7, 3)):
            assert all(ok for _, _, ok in verify_resolvent_identity(sub, tf, z, pairs))

    def test_random_instances_exact(self):
        rng = random.Random(41)
        for _ in range(3):
            X = random_host(rng, max_n=4)
            s = random_substituent(rng, max_v=5)
            sub = substitute(X, Orientation.default(X), s)
            tf = compute_transfer(s)
            z = Fraction(rng.randint(11, 40), 10) * rng.choice([1, -1])
            pairs = [
                (rng.randrange(X.n), rng.randrange(X.n)) for _ in range(4)
            ]
            assert all(ok for _, _, ok in verify_resolvent_identity(sub, tf, z, pairs))
