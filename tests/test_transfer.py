import random
from fractions import Fraction

import numpy as np
import pytest

from edgesub import algebra, transfer
from edgesub.algebra import Polynomial, RationalFunction, chebyshev, resolvent_matrix
from edgesub.classify import classify_Qinterior
from edgesub.errors import TooCloseToInteriorSpectrum
from edgesub.fixtures import (
    chorded_square_substituent,
    circle_substituent,
    cycle_host,
    path_host,
    path_substituent,
)
from edgesub.graph import Orientation
from edgesub.operators import ReversibleOperator, eigen, spectral_radius
from edgesub.substitution import substitute
from edgesub.transfer import (
    BoundaryKernels,
    TransferFunctions,
    boundary_kernels,
    compute_transfer,
    solve_boundary,
    verify_resolvent_identity,
)

from randinst import random_host, random_substituent, relabel_substituent, sweep_instance

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


class TestAgainstTheKernels:
    def test_psi_and_theta_are_sums_over_the_kernels(self):
        # psi = q(a,b) + sum_u q(a,u) to_b[u] and theta = sum_u q(a,u) to_a[u],
        # summed term by term over the boundary-kernel columns
        rng = random.Random(9)
        subs = [chorded_square_substituent(), path_substituent(7)]
        subs += [circle_substituent(L, kind) for L in (3, 4) for kind in ("antipodal", "adjacent")]
        subs += [random_substituent(rng, max_v=10) for _ in range(30)]
        for s in subs:
            tf = compute_transfer(s)
            k = boundary_kernels(s)
            q = ReversibleOperator.full(s.graph).matrix_exact()
            psi, theta = RF.const(q[s.a][s.b]), RF.const(0)
            for u in s.interior:
                psi = psi + q[s.a][u] * k.to_b[u]
                theta = theta + q[s.a][u] * k.to_a[u]
            assert tf.psi == psi
            assert tf.theta == theta
            assert tf.z_minus_theta == RF.z() - theta
            assert tf.phi == (RF.z() - theta) / psi


def _reference_transfer(s):
    """The 2k + 1 series route: det and every entry of both adjugate columns
    are interpolated (`resolvent_matrix`), and theta and psi are summed from
    the reduced resolvent columns."""
    q = ReversibleOperator.full(s.graph).matrix_exact()
    M = [[q[u][v] for v in s.interior] for u in s.interior]
    col_a, col_b = resolvent_matrix(M, [[q[v][x] for v in s.interior] for x in (s.a, s.b)])
    theta = sum((q[s.a][u] * g for u, g in zip(s.interior, col_a)), RF.const(0))
    psi = sum((q[s.a][u] * g for u, g in zip(s.interior, col_b)), RF.const(q[s.a][s.b]))
    z_minus_theta = RF.z() - theta
    return TransferFunctions(z_minus_theta / psi, psi, theta, z_minus_theta)


# the fixture substituents of the sub-long and eigenbasis-mix benchmark workloads
WORKLOAD_FIXTURES = {
    "path-10": path_substituent(10),
    "path-15": path_substituent(15),
    "circle-antipodal-7": circle_substituent(7, "antipodal"),
    "circle-adjacent-6": circle_substituent(6, "adjacent"),
    **{f"path-{L}": path_substituent(L) for L in range(2, 6)},
    **{
        f"circle-{placement}-{L}": circle_substituent(L, placement)
        for L in (2, 3)
        for placement in ("antipodal", "adjacent")
    },
    "chorded-square": chorded_square_substituent(),
}


class TestAgainstTheReference:
    @pytest.mark.parametrize("name", WORKLOAD_FIXTURES)
    def test_workload_fixtures(self, name):
        s = WORKLOAD_FIXTURES[name]
        assert compute_transfer(s) == _reference_transfer(s)

    def test_random_substituents(self):
        rng = random.Random(61)
        for _ in range(60):
            s = random_substituent(rng, max_v=10)
            assert compute_transfer(s) == _reference_transfer(s)

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


class TestBoundaryKernels:
    def test_chorded_square_kernel(self):
        s = chorded_square_substituent()
        k = boundary_kernels(s)
        expect = RF(Polynomial([Fraction(1, 3)]), Polynomial([Fraction(-1, 3), 1]))
        for u in s.interior:
            assert k.to_a[u] == expect
            assert k.to_b[u] == expect
        assert k.to_a[s.a] == ONE and k.to_a[s.b] == RF(Polynomial())
        assert k.to_b[s.b] == ONE and k.to_b[s.a] == RF(Polynomial())

    @pytest.mark.parametrize("L", [2, 3, 5])
    def test_path_kernel_is_chebyshev_ratio(self, L):
        s = path_substituent(L)
        k = boundary_kernels(s)
        for j, u in enumerate(s.interior, start=1):
            assert k.to_a[u] == RF(
                chebyshev("second", L - j - 1), chebyshev("second", L - 1)
            )

    def test_solve_boundary_satisfies_equation(self):
        rng = random.Random(31)
        for _ in range(5):
            s = random_substituent(rng, max_v=6)
            V = s.graph
            z = 1.7 + rng.random()
            f = solve_boundary(s, 1.0, -0.5, z)
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
        kernels = boundary_kernels(s)
        f = solve_boundary(s, 1.0, 0.0, mu, kernels)
        fa, _ = kernels.eval_interior(mu)
        got = np.array([f[u] for u in s.interior])
        assert np.all(np.isfinite(got)) and np.array_equal(got, fa)
        assert (f[s.a], f[s.b]) == (1.0, 0.0)
        V = s.graph
        for u in s.interior:
            qf = sum(float(V.conductance(u, v) / V.m(u)) * f[v] for v in range(V.n))
            assert abs(qf - mu * f[u]) < 1e-12

    def test_solve_boundary_rejects_interior_eigenvalue(self):
        s = chorded_square_substituent()
        with pytest.raises(TooCloseToInteriorSpectrum):
            solve_boundary(s, 1.0, 0.0, 1 / 3)


def _reference_kernels(s):
    """The two-column route: both kernel columns solved by one
    `resolvent_matrix` call, 2k + 1 series."""
    q = ReversibleOperator.full(s.graph).matrix_exact()
    M = [[q[u][v] for v in s.interior] for u in s.interior]
    col_a, col_b = resolvent_matrix(M, [[q[v][x] for v in s.interior] for x in (s.a, s.b)])
    one, zero = RF.const(1), RF.const(0)
    to_a = {s.a: one, s.b: zero, **dict(zip(s.interior, col_a))}
    to_b = {s.b: one, s.a: zero, **dict(zip(s.interior, col_b))}
    return BoundaryKernels(s, to_a, to_b)


class TestKernelsFromOneColumn:
    """to_b is to_a read through gamma, so one column is solved."""

    @staticmethod
    def _check(s, rng):
        got, want = boundary_kernels(s), _reference_kernels(s)
        assert got.to_a == want.to_a and got.to_b == want.to_b
        interior_spec = eigen(ReversibleOperator.restricted(s.graph, s.interior)).values
        for z in [0.0, -1.0, 1.0, 0.5] + [rng.uniform(-1, 1) for _ in range(5)] + list(interior_spec):
            try:
                values = np.concatenate(want.eval_interior(z))
            except TooCloseToInteriorSpectrum:
                with pytest.raises(TooCloseToInteriorSpectrum):
                    got.eval_interior(z)
                continue
            assert np.concatenate(got.eval_interior(z)).tobytes() == values.tobytes()

    @pytest.mark.parametrize("name", WORKLOAD_FIXTURES)
    def test_workload_fixtures(self, name):
        self._check(WORKLOAD_FIXTURES[name], random.Random(name))

    def test_random_substituents(self):
        rng = random.Random(62)
        for _ in range(60):
            self._check(random_substituent(rng, max_v=10), rng)

    def test_one_column_is_solved(self, monkeypatch):
        widths = []
        original = transfer.resolvent_matrix

        def recorded(matrix, columns):
            widths.append(len(columns))
            return original(matrix, columns)

        monkeypatch.setattr(transfer, "resolvent_matrix", recorded)
        boundary_kernels(circle_substituent(7, "antipodal"))
        assert widths == [1]


def _kernel_values(k, z):
    """Each interior kernel by `eval_float`, to_a then to_b; None at a pole."""
    interior = k.substituent.interior
    try:
        return [k.to_a[u].eval_float(z) for u in interior] + [
            k.to_b[u].eval_float(z) for u in interior
        ]
    except TooCloseToInteriorSpectrum:
        return None


class TestKernelTable:
    @staticmethod
    def _substituents():
        rng = random.Random(47)
        fixed = [
            chorded_square_substituent(),
            path_substituent(7),
            circle_substituent(6, "antipodal"),
            circle_substituent(5, "adjacent"),
        ]
        return fixed + [random_substituent(rng, max_v=8) for _ in range(30)]

    def test_table_equals_each_kernel_bitwise(self):
        rng = random.Random(48)
        padded = 0
        for s in self._substituents():
            k = boundary_kernels(s)
            kernels = [k.to_a[u] for u in s.interior] + [k.to_b[u] for u in s.interior]
            padded += len({f.num.degree for f in kernels}) > 1
            padded += len({f.den.degree for f in kernels}) > 1
            interior_spec = eigen(ReversibleOperator.restricted(s.graph, s.interior)).values
            points = [0.0, -1.0, 1.0, 0.5, -2 / 3] + [rng.uniform(-1, 1) for _ in range(20)]
            for z in points + list(interior_spec):
                want = _kernel_values(k, z)
                try:
                    got = np.concatenate(k.eval_interior(z))
                except TooCloseToInteriorSpectrum:
                    got = None
                assert (got is None) == (want is None), (s, z)
                if want is not None:
                    assert got.tobytes() == np.array(want).tobytes(), (s, z)
        # polynomials of differing degree are padded, so the padding is exercised
        assert padded > 0

    def test_chorded_square_pole_raises(self):
        k = boundary_kernels(chorded_square_substituent())
        with pytest.raises(TooCloseToInteriorSpectrum):
            k.eval_interior(1 / 3)


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
