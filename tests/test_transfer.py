import importlib.util
import random
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from edgesub import algebra, transfer
from edgesub.algebra import (
    RationalFunction,
    adjugate_series,
    real_roots_in_interval,
    resolvent_matrix,
)
from edgesub.assemble import assemble, solve_S1
from edgesub.classify import classify_Qinterior
from edgesub.errors import KernelPole, TooCloseToInteriorSpectrum
from edgesub.extensions import transfer_extension
from edgesub.fileformat import load_substituent
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
)

import heavy_exactness
from randinst import random_host, random_substituent, relabel_substituent, sweep_instance, sweep_instances
from reference import (
    chebyshev,
    euclid_reduced,
    exact_value,
    poly_add,
    poly_mul,
    rf_sum,
    transfer_by_interpolation,
    verify_resolvent_identity,
)

RF = RationalFunction
Z = RF.from_integers([0, 1], [1])


class TestGoldenTransferFunctions:
    def test_chorded_square(self):
        tf = compute_transfer(chorded_square_substituent())
        assert tf.phi == RF.from_integers([-1, -1, 3], [1])
        assert tf.psi == RF.from_integers([1], [-1, 3])
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
        assert tf.phi == RF.from_integers(chebyshev("first", L), [1])
        assert tf.psi == RF.from_integers([1], chebyshev("second", L - 1))

    @pytest.mark.parametrize("L", [2, 3, 4, 6, 7])
    def test_antipodal_circle_matches_path(self, L):
        tf = compute_transfer(circle_substituent(L, "antipodal"))
        assert tf.phi == RF.from_integers(chebyshev("first", L), [1])
        assert tf.psi == RF.from_integers([1], chebyshev("second", L - 1))

    @pytest.mark.parametrize("L", [2, 3, 4, 6, 7])
    def test_adjacent_circle(self, L):
        tf = compute_transfer(circle_substituent(L, "adjacent"))
        U = chebyshev("second", 2 * L - 2)
        assert tf.phi == RF.from_integers(chebyshev("first", L), chebyshev("first", L - 1))
        assert tf.psi == RF.from_integers(poly_add(U, [1]), U, 1, 2)  # (1 + 1 / U) / 2


class TestTransferInvariants:
    def _random_subs(self, count, seed):
        rng = random.Random(seed)
        return [random_substituent(rng, max_v=10) for _ in range(count)]

    def test_phi_psi_plus_theta_is_z(self):
        for s in self._random_subs(8, 21):
            tf = compute_transfer(s)
            # phi psi + theta = z, multiplied out over the three denominators
            (pn, pd), (sn, sd), (tn, td) = ((f.num.coeffs, f.den.coeffs) for f in (tf.phi, tf.psi, tf.theta))
            dens = poly_mul(poly_mul(pd, sd), td)
            assert poly_add(poly_mul(poly_mul(pn, sn), td), poly_mul(poly_mul(pd, sd), tn)) == [0, *dens]

    def test_phi_fixes_one(self):
        for s in self._random_subs(8, 22):
            tf = compute_transfer(s)
            assert exact_value(tf.phi, 1) == 1

    def test_phi_numerator_dominates(self):
        # after reduction common factors may cancel, but the numerator
        # degree always strictly exceeds the denominator degree
        for s in self._random_subs(8, 23):
            tf = compute_transfer(s)
            assert tf.phi.num.degree > tf.phi.den.degree

    def test_path_phi_vanishes_at_zero_for_even_L(self):
        for L in (2, 4, 6):
            tf = compute_transfer(path_substituent(L))
            assert abs(exact_value(tf.phi, 0)) == 1  # T_L(0) = +-1
        for L in (3, 5):
            tf = compute_transfer(path_substituent(L))
            assert exact_value(tf.phi, 0) == 0


def _reference_transfer(s):
    """(phi, psi, theta, z - theta) by the 2k + 1 series route: det and every
    entry of both adjugate columns come from `resolvent_matrix`, and theta
    and psi are summed from the reduced resolvent columns over Fraction."""
    q = ReversibleOperator.full(s.graph).matrix_exact()
    M = [[q[u][v] for v in s.interior] for u in s.interior]
    col_a, col_b = resolvent_matrix(M, [[q[v][x] for v in s.interior] for x in (s.a, s.b)])
    theta = rf_sum((q[s.a][u], g) for u, g in zip(s.interior, col_a))
    psi = rf_sum([(q[s.a][u], g) for u, g in zip(s.interior, col_b)] + [(q[s.a][s.b], RF.from_integers([1], [1]))])
    z_minus_theta = rf_sum([(1, Z), (-1, theta)])
    phi = euclid_reduced(
        poly_mul(z_minus_theta.num.coeffs, psi.den.coeffs), poly_mul(z_minus_theta.den.coeffs, psi.num.coeffs)
    )
    return phi, psi, theta, z_minus_theta


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

    def test_one_adjugate_pass_and_no_elimination(self, monkeypatch):
        # the series come from one Faddeev-LeVerrier pass where compute_transfer
        # looks it up; the library has no elimination left to run
        calls = []

        def counted(*args):
            calls.append(args)
            return adjugate_series(*args)

        monkeypatch.setattr(transfer, "adjugate_series", counted)
        for s in (path_substituent(15), circle_substituent(7, "antipodal"), chorded_square_substituent()):
            calls.clear()
            _functions(compute_transfer(s))
            assert len(calls) == 1

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


def _series_and_functions(tf):
    return (tf.det, tf.theta_num, tf.psi_num, *_functions(tf))


class TestAgainstInterpolation:
    """The three series and the four functions equal the Bareiss-and-
    interpolation path of `reference`, reduced by Euclid over Fraction."""

    @staticmethod
    def _check(s):
        assert _series_and_functions(compute_transfer(s)) == transfer_by_interpolation(s)

    def test_oracle_sweep_seed_1(self):
        for _, s in sweep_instances(1, 338):
            self._check(s)

    @pytest.mark.parametrize("L", range(2, 22))
    def test_paths(self, L):
        self._check(path_substituent(L))

    @pytest.mark.parametrize("placement", ["antipodal", "adjacent"])
    def test_circles(self, placement):
        for L in range(2, 12):  # |V°| = 2L - 2 up to 20
            self._check(circle_substituent(L, placement))

    @pytest.mark.parametrize("name", WORKLOAD_FIXTURES)
    def test_workload_fixtures(self, name):
        self._check(WORKLOAD_FIXTURES[name])

    def test_heavy_regime_smoke(self):
        # the comparison of tests/heavy_exactness.py, on its first two
        # substituents of the lighter regime, so that its imports and its
        # comparison stay in step with the reference
        assert heavy_exactness.unequal((14, 6, 100), 2) == []

    @pytest.mark.parametrize("workload", ["host-large", "sub-long", "eigenbasis-mix"])
    def test_workload_substituents(self, workload):
        # every substituent the benchmark generates, seeds 1-2, as it parses them
        for seed in (1, 2):
            for instance in _bench_instances().build(workload, seed):
                self._check(load_substituent(instance.sub))


def _bench_instances():
    """bench/instances.py, loaded once as the module `bench_instances`."""
    if "bench_instances" not in sys.modules:
        path = Path(__file__).resolve().parent.parent / "bench" / "instances.py"
        spec = importlib.util.spec_from_file_location("bench_instances", path)
        module = importlib.util.module_from_spec(spec)
        sys.modules[spec.name] = module  # its dataclasses look their module up
        spec.loader.exec_module(module)
    return sys.modules["bench_instances"]


def _reference_kernels(s):
    """The exact kernels over the interior, toward a then toward b, as reduced
    rational functions: both columns solved by one `resolvent_matrix` call."""
    q = ReversibleOperator.full(s.graph).matrix_exact()
    M = [[q[u][v] for v in s.interior] for u in s.interior]
    col_a, col_b = resolvent_matrix(M, [[q[v][x] for v in s.interior] for x in (s.a, s.b)])
    return col_a + col_b


def _assert_matches_reference(kernels, exact, z, tol=1e-10):
    """`eval_interior(z)` within `tol` of the exact kernels at Fraction(z),
    relative to max(1, |exact value|)."""
    want = np.array([float(exact_value(f, z)) for f in exact])
    got = np.concatenate(kernels.eval_interior(z))
    assert np.all(np.abs(got - want) <= tol * np.maximum(1.0, np.abs(want))), (z, got, want)


def _single_edge(s):
    """The layout of s on one edge of unit conductance."""
    X = WeightedGraph(["x0", "x1"], [(0, 1, Fraction(1))])
    return substitute(X, Orientation.default(X), s)


class TestBoundaryKernels:
    def test_chorded_square_kernel(self):
        s = chorded_square_substituent()
        exact = _reference_kernels(s)
        assert exact == [RF.from_integers([1], [-1, 3])] * 4
        k = boundary_kernels(s)
        for z in (-1.0, -2 / 3, 0.0, 0.3, 0.5, 1.0):
            _assert_matches_reference(k, exact, z)

    @pytest.mark.parametrize("L", [2, 3, 5])
    def test_path_kernel_is_chebyshev_ratio(self, L):
        s = path_substituent(L)
        exact = _reference_kernels(s)
        assert exact[: L - 1] == [
            RF.from_integers(chebyshev("second", L - j - 1), chebyshev("second", L - 1)) for j in range(1, L)
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
    def _check(s, rng, tol=1e-10):
        kernels, exact = boundary_kernels(s), _reference_kernels(s)
        poles = [p for den in {f.den for f in exact} for p in real_roots_in_interval(den, -1, 1)]
        interior_spec = eigen(ReversibleOperator.restricted(s.graph, s.interior)).values
        for z in [0.0, -1.0, 1.0, 0.5] + [rng.uniform(-1, 1) for _ in range(5)] + list(interior_spec):
            if any(abs(z - p) < POLE_GUARD for p in poles):
                with pytest.raises(TooCloseToInteriorSpectrum):
                    kernels.eval_interior(z)
            else:
                _assert_matches_reference(kernels, exact, z, tol)

    @pytest.mark.parametrize("name", WORKLOAD_FIXTURES)
    def test_workload_fixtures(self, name):
        self._check(WORKLOAD_FIXTURES[name], random.Random(name))

    def test_random_substituents(self):
        rng = random.Random(62)
        for _ in range(60):
            self._check(random_substituent(rng, max_v=10), rng)

    def test_residues_keep_what_typing_rounds_away(self):
        # the residues m(a) B B^T q(a, .) over each cluster keep the terms
        # that the rank rule zeroes in a II° or III° cluster's boundary data;
        # residues from the typed tails read 2.4e-11 on the 4th draw, a
        # III°/II° pair 5e-6 apart at -0.22135, where these read 1e-14
        draws = random.Random(62)
        for i in range(60):
            self._check(random_substituent(draws, max_v=10), random.Random(i), tol=1e-12)

    def test_no_exact_solve(self, monkeypatch):
        def forbidden(*args):
            raise AssertionError("boundary_kernels ran an exact solve")

        # resolvent_matrix reaches the adjugate pass through algebra's own name
        monkeypatch.setattr(algebra, "adjugate_series", forbidden)
        monkeypatch.setattr(transfer, "adjugate_series", forbidden)
        s = circle_substituent(7, "antipodal")
        boundary_kernels(s).eval_interior(0.3)


class TestPhiAtS1Roots:
    """|V°| from 10 to 14: at a genuine S1 root the monic denominator of phi,
    of degree up to |V°|, can be far below 1e-12 with no pole near, so the
    float value is the plain quotient."""

    def test_phi_maps_each_root_into_the_cluster_of_its_lambda(self, monkeypatch):
        pairs = []

        def recorded(*args):
            found = solve_S1(*args)
            pairs.extend(zip(found.roots.tolist(), found.lam_index.tolist()))
            return found

        # the package rebinds edgesub.assemble to the function of that name
        monkeypatch.setattr(sys.modules["edgesub.assemble"], "solve_S1", recorded)
        rng = random.Random(1)
        for _ in range(10):
            X = random_host(rng, max_n=12, min_n=3)
            s = random_substituent(rng, max_v=16, min_interior=10)
            pairs.clear()
            result = assemble(X, Orientation.default(X), s, build_families=False)
            phi, spec = result.transfer.phi, result.spec_P
            assert pairs
            for root, k in pairs:
                assert spec.cluster_near(phi.eval_float(root)) == k


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
