import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgesub.algebra import (
    Polynomial,
    RationalFunction,
    adjugate_series,
    poly_gcd,
    real_roots_in_interval,
    resolvent_matrix,
)
from edgesub.assemble import assemble, solve_S1
from edgesub.fixtures import chorded_square_substituent, cycle_host, path_substituent
from edgesub.graph import Orientation

from reference import (
    charpoly_by_interpolation,
    chebyshev,
    derivative,
    euclid_gcd,
    euclid_reduced,
    exact_value,
    monic,
    poly_mul,
    resolvent_by_interpolation,
    solve_fraction_system,
)

RF = RationalFunction


class TestPolynomial:
    def test_trailing_zeros_trimmed(self):
        assert Polynomial([1, 2, 0, 0]).coeffs == (Fraction(1), Fraction(2))
        assert Polynomial([0, 0]).is_zero()

    def test_gcd(self):
        a = poly_mul([-1, 1], [2, 1])
        b = poly_mul([-1, 1], [3, 1])
        assert poly_gcd(a, b) == [-1, 1]

    def test_eval(self):
        p = Polynomial([1, 0, 3])  # 1 + 3z^2
        assert exact_value(RF.from_integers([1, 0, 3], [1]), Fraction(1, 2)) == Fraction(7, 4)
        assert p.eval_float(2.0) == 13.0


class TestRationalFunction:
    def test_reduction_and_monic_denominator(self):
        r = RF.from_integers([0, 2], [0, 0, 4])
        assert r.num == Polynomial([Fraction(1, 2)])
        assert r.den == Polynomial([0, 1])

    def test_pole_guard(self):
        """No guard but the pole itself: a float zero denominator raises, as
        the exact value does, and a tiny one divides."""
        r = RF.from_integers([1], [-1, 1])
        with pytest.raises(ZeroDivisionError):
            r.eval_float(1.0)
        with pytest.raises(ZeroDivisionError):
            exact_value(r, 1)
        assert r.eval_float(1.0 + 2**-50) == 2.0**50
        assert r.eval_float(2.0) == 1.0

    def test_string_form(self):
        r = RF.from_integers([1, 2], [0, 0, 1])
        assert str(r) == "(1 + 2 z) / (1 z^2)"
        assert str(RF.from_integers([1], [-1, 3], 1, 3)) == "(1/9) / (-1/3 + 1 z)"


def charpoly(matrix):
    """det(zI - M) from one `adjugate_series` pass over N = mu M: the
    coefficient of z^i is that of w^i over mu^(k - i)."""
    mu = math.lcm(*(v.denominator for row in matrix for v in row))
    det, _ = adjugate_series([[v.numerator * (mu // v.denominator) for v in row] for row in matrix], [])
    return Polynomial(Fraction(c, mu ** (len(matrix) - i)) for i, c in enumerate(det))


def _identity(n):
    return [[Fraction(int(i == j)) for i in range(n)] for j in range(n)]


class TestResolvent:
    def test_scalar(self):
        [[r]] = resolvent_matrix([[Fraction(0)]], _identity(1))
        assert r.num == Polynomial([1]) and r.den == Polynomial([0, 1])

    def test_single_edge_walk(self):
        m = [[Fraction(0), Fraction(1)], [Fraction(1), Fraction(0)]]
        r = resolvent_matrix(m, _identity(2))[0][0]
        assert r == RF.from_integers([0, 1], [-1, 0, 1])

    def test_eigenvalue_at_integer_node_is_skipped(self):
        [[r]] = resolvent_matrix([[Fraction(2)]], _identity(1))
        assert r == RF.from_integers([1], [-2, 1])
        assert charpoly([[Fraction(2), Fraction(0)], [Fraction(0), Fraction(3)]]) == Polynomial([6, -5, 1])

    def test_multiply_back_random(self):
        rng = random.Random(11)
        for _ in range(6):
            n = rng.randint(1, 5)
            m = [
                [Fraction(rng.randint(-2, 2), rng.randint(1, 3)) for _ in range(n)]
                for _ in range(n)
            ]
            G = resolvent_matrix(m, _identity(n))  # G[j][k] is entry (k, j)
            # sum_k (z [i = k] - m_ik) G_jk - [i = j] is a polynomial of degree
            # at most n over det(zI - M), so 2n + 1 zeros make it zero; with
            # denominators up to 3 no z of denominator 7 is an eigenvalue
            for z in (Fraction(2 * t + 1, 7) for t in range(2 * n + 1)):
                values = [[exact_value(f, z) for f in col] for col in G]
                for i in range(n):
                    for j in range(n):
                        acc = sum((z * (i == k) - m[i][k]) * values[j][k] for k in range(n))
                        assert acc == (i == j)

    def test_trace_is_logderivative_of_charpoly(self):
        rng = random.Random(5)
        for _ in range(4):
            n = rng.randint(2, 4)
            sym = [[Fraction(0)] * n for _ in range(n)]
            for i in range(n):
                for j in range(i, n):
                    val = Fraction(rng.randint(-2, 2), rng.randint(1, 3))
                    sym[i][j] = sym[j][i] = val
            G = resolvent_matrix(sym, _identity(n))
            p = charpoly(sym)
            log_derivative = euclid_reduced(derivative(p.coeffs), p.coeffs)
            for z in (Fraction(2 * t + 1, 7) for t in range(2 * n + 1)):
                assert sum(exact_value(G[i][i], z) for i in range(n)) == exact_value(log_derivative, z)


def _random_rational(rng, n, denominators=3):
    return [[Fraction(rng.randint(-3, 3), rng.randint(1, denominators)) for _ in range(n)] for _ in range(n)]


class TestAgainstInterpolation:
    """`resolvent_matrix` and the charpoly from one Faddeev-LeVerrier pass
    equal the Bareiss-and-interpolation reference, reduced by Euclid."""

    @staticmethod
    def _check(m, columns):
        assert resolvent_matrix(m, columns) == resolvent_by_interpolation(m, columns)
        assert charpoly(m) == charpoly_by_interpolation(m)

    def test_random_non_symmetric(self):
        rng = random.Random(71)
        for _ in range(40):
            n = rng.randint(1, 6)
            m = _random_rational(rng, n)
            columns = [[Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(n)] for _ in range(2)]
            self._check(m, columns + _identity(n))

    def test_k_equals_one(self):
        for v in (Fraction(0), Fraction(2), Fraction(-7, 3), Fraction(5, 2)):
            self._check([[v]], [[Fraction(1)], [Fraction(-2, 9)], [Fraction(0)]])

    def test_singular(self):
        rng = random.Random(72)
        for _ in range(20):
            n = rng.randint(2, 5)
            m = _random_rational(rng, n)
            m[-1] = [2 * v for v in m[0]]  # rank below n: det M = 0, z = 0 a root
            assert charpoly(m).coeffs[0] == 0
            self._check(m, _identity(n))
        self._check([[Fraction(0)] * 3 for _ in range(3)], _identity(3))

    def test_integer_eigenvalues(self):
        # eigenvalues at the nodes z = 2, 3, 4 that the reference skips, some
        # repeated: M = S D S^-1 with S unit upper triangular
        rng = random.Random(73)
        for _ in range(15):
            n = rng.randint(2, 5)
            d = [rng.choice([2, 3, 4, -1, Fraction(1, 2)]) for _ in range(n)]
            S = [[Fraction(int(i == j) + (rng.randint(-1, 1) if j > i else 0)) for j in range(n)] for i in range(n)]
            Sinv = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
            for i in reversed(range(n)):  # back substitution: S is unit upper triangular
                for j in range(i + 1, n):
                    Sinv[i] = [a - S[i][j] * b for a, b in zip(Sinv[i], Sinv[j])]
            SD = [[S[i][j] * d[j] for j in range(n)] for i in range(n)]
            m = [[sum(SD[i][t] * Sinv[t][j] for t in range(n)) for j in range(n)] for i in range(n)]
            want = [1]
            for v in d:
                want = poly_mul(want, [-v, 1])
            assert charpoly(m) == Polynomial(want)
            self._check(m, _identity(n) + [[Fraction(rng.randint(-2, 2)) for _ in range(n)]])


def _int_poly_st(max_deg, bound):
    return st.lists(st.integers(-bound, bound), max_size=max_deg + 1).map(lambda cs: poly_mul(cs, [1]))


def _gcd_pair_st():
    """Integer pairs with zeros, constants, negative leading coefficients,
    contents above 1 and shared factors: (f a, f b) for random f, a and b."""
    factor = st.one_of(
        st.just([1]),
        st.just([-1]),
        _int_poly_st(2, 12).filter(bool),
        _int_poly_st(4, 6).filter(bool),
    )
    part = st.one_of(_int_poly_st(3, 12), _int_poly_st(4, 6), st.just([]), st.builds(lambda c: [c], st.integers(-9, 9)))
    return st.tuples(factor, part, part).map(lambda t: (poly_mul(t[0], t[1]), poly_mul(t[0], t[2])))


class TestGcd:
    @settings(max_examples=200, deadline=None)
    @given(_gcd_pair_st())
    def test_equals_euclid(self, pair):
        a, b = pair
        want = euclid_gcd(a, b)
        assert monic(poly_gcd(a, b)) == want
        assert monic(poly_gcd(b, a)) == want
        assert monic(poly_gcd([-c for c in a], b)) == want

    @settings(max_examples=100, deadline=None)
    @given(_gcd_pair_st())
    def test_integer_form_is_primitive_and_proportional(self, pair):
        g = poly_gcd(*pair)
        want = euclid_gcd(*pair)
        if not want:
            assert g == []
            return
        assert g[-1] > 0 and math.gcd(*g) == 1
        assert monic(g) == want

    def test_edge_cases(self):
        p = [2, -4, -6]  # -6 z^2 - 4 z + 2 = -2 (3z - 1)(z + 1)
        assert poly_gcd([], []) == []
        assert poly_gcd(p, []) == poly_gcd([], p) == [-1, 2, 3]
        assert poly_gcd(p, [-5]) == [1]
        assert poly_gcd(p, poly_mul([1, 1], [0, -7])) == [1, 1]
        assert poly_gcd([2, -4, -6], [-3, 0, 3]) == [1, 1]


class TestLinearSolve:
    def test_exact_solution(self):
        a = [[Fraction(2), Fraction(1)], [Fraction(1), Fraction(3)]]
        b = [Fraction(5), Fraction(10)]
        x = solve_fraction_system(a, b)
        assert x == [Fraction(1), Fraction(3)]

    def test_zero_pivot_swaps_rows(self):
        a = [[Fraction(0), Fraction(2)], [Fraction(3), Fraction(1)]]
        assert solve_fraction_system(a, [Fraction(4), Fraction(5)]) == [Fraction(1), Fraction(2)]
        # zI - M is [[0, -1], [-1, 2]] at the node z = 2: a swap flips det's sign
        assert charpoly([[Fraction(2), Fraction(1)], [Fraction(1), Fraction(0)]]) == Polynomial([-1, -2, 1])

    def test_singular_raises(self):
        with pytest.raises(ZeroDivisionError):
            solve_fraction_system([[Fraction(1), Fraction(1)], [Fraction(2), Fraction(2)]], [Fraction(0), Fraction(1)])


class TestChebyshev:
    def test_small_cases(self):
        assert chebyshev("first", 2) == [-1, 0, 2]
        assert chebyshev("second", 3) == [0, -4, 0, 8]
        assert chebyshev("first", 5) == [0, 5, 0, -20, 0, 16]

    def test_cosine_identity(self):
        rng = random.Random(3)
        for L in (1, 2, 5, 8):
            T = Polynomial(chebyshev("first", L))
            for _ in range(20):
                alpha = rng.uniform(0, math.pi)
                assert abs(T.eval_float(math.cos(alpha)) - math.cos(L * alpha)) < 1e-12

    def test_second_kind_sine_identity(self):
        U = Polynomial(chebyshev("second", 4))
        alpha = 0.7
        assert abs(
            U.eval_float(math.cos(alpha)) - math.sin(5 * alpha) / math.sin(alpha)
        ) < 1e-12


class TestRootFinder:
    def test_quadratic(self):
        roots = real_roots_in_interval(Polynomial([-1, -1, 3]), -1, 1)
        expect = sorted(((1 + math.sqrt(13)) / 6, (1 - math.sqrt(13)) / 6))
        assert len(roots) == 2
        for r, e in zip(roots, expect):
            assert abs(r - e) < 1e-15

    def test_chebyshev_roots(self):
        roots = real_roots_in_interval(Polynomial([0, -3, 0, 4]), -1, 1)
        expect = [-math.sqrt(3) / 2, 0.0, math.sqrt(3) / 2]
        assert len(roots) == 3
        for r, e in zip(roots, expect):
            assert abs(r - e) < 1e-15

    def test_no_real_roots(self):
        assert real_roots_in_interval(Polynomial([1, 0, 1]), -1, 1) == []

    def test_product_of_linear_factors(self):
        rng = random.Random(9)
        for _ in range(5):
            targets = sorted(rng.uniform(-0.9, 0.9) for _ in range(4))
            if min(b - a for a, b in zip(targets, targets[1:])) < 1e-3:
                continue
            p = [1]
            for t in targets:
                p = poly_mul(p, [-Fraction(t), 1])
            roots = real_roots_in_interval(Polynomial(p), -1, 1)
            assert len(roots) == 4
            for r, t in zip(roots, targets):
                assert abs(r - t) < 1e-15
        # the Sturm chain in integers meets signs and contents: a negative
        # leading coefficient, a content above 1 with a double root, and
        # irreducible quadratic factors with and without real roots; the last
        # two chains skip a degree under a negative leading coefficient, where
        # an odd number of pseudo-division steps would flip a sign
        r3, r5 = 1 / math.sqrt(3), math.sqrt(5)
        for factors, lo, hi, want in [
            ([[-1], [-1, 2], [2, 3], [-4, 5]], -1, 1, [-2 / 3, 0.5, 0.8]),
            ([[6], [-1, 3], [-1, 3], [2, 1]], -3, 1, [-2.0, 1 / 3]),
            ([[-6], [-1, 3], [-1, 3], [2, 1]], -1, 1, [1 / 3]),
            ([[-1, 0, 3], [1, 0, 1], [1, 4]], -1, 1, [-r3, -0.25, r3]),
            ([[-2], [-1, 0, 3], [-1, 0, 3], [1, 1, 1], [Fraction(-1, 5), 1]], -1, 1, [-r3, 0.2, r3]),
            ([[-4], [1, 2], [1, 2], [-1, -1, 1]], -1, 1, [(1 - r5) / 2, -0.5]),
            ([[-2], [-3, 0, 2]], -2, 2, [-math.sqrt(1.5), math.sqrt(1.5)]),
        ]:
            p = [1]
            for f in factors:
                p = poly_mul(p, f)
            roots = real_roots_in_interval(Polynomial(p), lo, hi)
            assert len(roots) == len(want)
            for r, w in zip(roots, want):
                assert abs(r - w) < 1e-15

    def test_endpoint_root_found(self):
        roots = real_roots_in_interval(Polynomial([-1, 0, 2, 0, 0, 0]), -1, 1)
        assert any(abs(v - math.sqrt(0.5)) < 1e-15 for v in roots)

    def test_roots_on_bisection_points_are_exact(self):
        # T_4' = 32 z^3 - 16 z vanishes at the first midpoint, 0
        d4 = Polynomial(derivative(chebyshev("first", 4)))
        assert real_roots_in_interval(d4, -1, 1) == pytest.approx(
            [-math.sqrt(0.5), 0.0, math.sqrt(0.5)], abs=1e-15
        )
        assert 0.0 in real_roots_in_interval(d4, -1, 1)
        # roots on later midpoints, one of them the left end of an isolating
        # interval (a, b] whose right end is a root too
        p = poly_mul(poly_mul([0, 1], [-1, 2]), poly_mul([1, 2], [-1, 4]))
        assert real_roots_in_interval(Polynomial(p), -1, 1) == [-0.5, 0.0, 0.25, 0.5]

    def test_roots_at_interval_ends_and_repeated_roots(self):
        p = Polynomial(poly_mul([-1, 0, 1], [0, 1]))  # (z - 1)(z + 1) z
        assert real_roots_in_interval(p, -1, 1) == [-1.0, 0.0, 1.0]
        q = Polynomial(poly_mul(poly_mul([-1, 1], [-1, 1]), poly_mul(poly_mul([1, 1], [1, 1]), [1, 1])))
        assert real_roots_in_interval(q, -1, 1) == [-1.0, 1.0]
        assert real_roots_in_interval(q, Fraction(-1, 2), Fraction(1, 2)) == []
        assert real_roots_in_interval(Polynomial([3]), -1, 1) == []

    @pytest.mark.parametrize("L", [5, 16, 24])
    def test_touching_roots_with_lambda_within_one_ulp_of_one(self, L):
        # path-L on the 6-cycle is the 6L-cycle.  phi = T_L touches the host
        # eigenvalues +-1, which the host's float spectrum gives only to an
        # ulp or so: each touching root must be counted once, not as a pair
        X = cycle_host(6)
        result = assemble(X, Orientation.default(X), path_substituent(L), build_families=False)
        assert result.spec_P.values[0] == pytest.approx(1.0, abs=1e-14)
        assert result.spec_P.values[-1] == pytest.approx(-1.0, abs=1e-14)
        n = 6 * L
        expect = sorted(math.cos(2 * math.pi * j / n) for j in range(n))
        got = sorted(v for v, nu in result.report.multiset() for _ in range(nu))
        assert len(got) == n
        for g, e in zip(got, expect):
            assert abs(g - e) < 1e-12

    def test_s1_and_gap_are_python_floats(self):
        s = chorded_square_substituent()
        result = assemble(cycle_host(5), Orientation.default(cycle_host(5)), s)
        points = result.spec_interior.values
        s1 = solve_S1(s, result.spec_interior, result.spec_P, points, np.full(len(points), np.nan))
        assert len(s1) and s1.roots.dtype == np.float64 and s1.lam_index.dtype.kind == "i"
        # the report keeps arrays; the entries built from them hold Python numbers
        entries = result.report.entries
        assert all(type(e.value) is float and type(e.nu) is int for e in entries)
        assert all(type(k) is int for e in entries for k in e.lam_index)
        assert result.report.gap is not None
        assert all(type(v) is float for v in result.report.gap)
