import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgesub import algebra
from edgesub.algebra import (
    Polynomial,
    RationalFunction,
    interpolate_solves,
    poly_gcd,
    real_roots_in_interval,
    resolvent_matrix,
    solve_fraction_system,
)
from edgesub.assemble import assemble, solve_S1
from edgesub.fixtures import chorded_square_substituent, cycle_host, path_substituent
from edgesub.graph import Orientation
from edgesub.transfer import compute_transfer

from randinst import random_substituent
from reference import chebyshev

fractions_st = st.fractions(
    min_value=-4, max_value=4, max_denominator=6
)


def poly_st(max_deg=4):
    return st.lists(fractions_st, min_size=0, max_size=max_deg + 1).map(Polynomial)


def rf_st():
    return st.tuples(poly_st(3), poly_st(3).filter(lambda p: not p.is_zero())).map(
        lambda t: RationalFunction(*t)
    )


class TestPolynomial:
    def test_trailing_zeros_trimmed(self):
        assert Polynomial([1, 2, 0, 0]).coeffs == (Fraction(1), Fraction(2))
        assert Polynomial([0, 0]).is_zero()

    def test_divmod_roundtrip(self):
        a = Polynomial([1, 2, 3, 4])
        b = Polynomial([2, 1])
        q, r = a.divmod(b)
        assert q * b + r == a
        assert r.degree < b.degree

    def test_gcd(self):
        a = Polynomial([-1, 1]) * Polynomial([2, 1])
        b = Polynomial([-1, 1]) * Polynomial([3, 1])
        assert poly_gcd(a, b) == Polynomial([-1, 1])

    def test_eval(self):
        p = Polynomial([1, 0, 3])  # 1 + 3z^2
        assert p.eval_exact(Fraction(1, 2)) == Fraction(7, 4)
        assert p.eval_float(2.0) == 13.0

    def test_derivative(self):
        assert Polynomial([5, 1, 0, 2]).derivative() == Polynomial([1, 0, 6])


class TestRationalFunction:
    def test_reduction_and_monic_denominator(self):
        r = RationalFunction(Polynomial([0, 2]), Polynomial([0, 0, 4]))
        assert r.num == Polynomial([Fraction(1, 2)])
        assert r.den == Polynomial([0, 1])

    def test_pole_guard(self):
        """No guard but the pole itself: a float zero denominator raises, as
        in `eval_exact`, and a tiny one divides."""
        r = RationalFunction(Polynomial([1]), Polynomial([-1, 1]))
        with pytest.raises(ZeroDivisionError):
            r.eval_float(1.0)
        assert r.eval_float(1.0 + 2**-50) == 2.0**50
        assert r.eval_float(2.0) == 1.0

    def test_string_form(self):
        r = RationalFunction(Polynomial([1, 2]), Polynomial([0, 0, 1]))
        assert str(r) == "(1 + 2 z) / (1 z^2)"
        assert str(RationalFunction(Polynomial([Fraction(1, 3)]), Polynomial([-1, 3]))) == "(1/9) / (-1/3 + 1 z)"

    @settings(max_examples=60, deadline=None)
    @given(rf_st(), rf_st(), rf_st())
    def test_field_axioms(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        assert a + (-a) == RationalFunction(Polynomial())
        if not a.is_zero():
            assert a * (RationalFunction(Polynomial([1])) / a) == RationalFunction(
                Polynomial([1])
            )

    def test_negation_is_built_without_a_gcd(self, monkeypatch):
        """-f of a reduced f with a monic denominator is reduced already."""
        rng = random.Random(13)
        fns = []
        for _ in range(8):
            tf = compute_transfer(random_substituent(rng))
            fns += [tf.phi, tf.psi, tf.theta, tf.z_minus_theta]
        want = [RationalFunction(-f.num, f.den) for f in fns]
        calls = []

        def counted(a, b):
            calls.append((a, b))
            return poly_gcd(a, b)

        monkeypatch.setattr(algebra, "poly_gcd", counted)
        got = [-f for f in fns]
        assert calls == []
        assert got == want


def charpoly(matrix):
    """det(zI - M), interpolated from the exact determinants at the nodes."""
    return interpolate_solves(matrix, [], lambda det, _: [det])[0]


def _identity(n):
    return [[Fraction(int(i == j)) for i in range(n)] for j in range(n)]


class TestResolvent:
    def test_scalar(self):
        [[r]] = resolvent_matrix([[Fraction(0)]], _identity(1))
        assert r.num == Polynomial([1]) and r.den == Polynomial([0, 1])

    def test_single_edge_walk(self):
        m = [[Fraction(0), Fraction(1)], [Fraction(1), Fraction(0)]]
        r = resolvent_matrix(m, _identity(2))[0][0]
        assert r == RationalFunction(Polynomial([0, 1]), Polynomial([-1, 0, 1]))

    def test_eigenvalue_at_integer_node_is_skipped(self):
        [[r]] = resolvent_matrix([[Fraction(2)]], _identity(1))
        assert r == RationalFunction(Polynomial([1]), Polynomial([-2, 1]))
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
            z = Polynomial.z()
            for i in range(n):
                for j in range(n):
                    acc = RationalFunction(Polynomial())
                    for k in range(n):
                        zim = RationalFunction(z if i == k else Polynomial()) - m[i][k]
                        acc = acc + zim * G[j][k]
                    expect = RationalFunction(Polynomial([1 if i == j else 0]))
                    assert acc == expect

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
            trace = RationalFunction(Polynomial())
            for i in range(n):
                trace = trace + G[i][i]
            p = charpoly(sym)
            assert trace == RationalFunction(p.derivative(), p)


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
        assert chebyshev("first", 2) == Polynomial([-1, 0, 2])
        assert chebyshev("second", 3) == Polynomial([0, -4, 0, 8])
        assert chebyshev("first", 5) == Polynomial([0, 5, 0, -20, 0, 16])

    def test_cosine_identity(self):
        rng = random.Random(3)
        for L in (1, 2, 5, 8):
            T = chebyshev("first", L)
            for _ in range(20):
                alpha = rng.uniform(0, math.pi)
                assert abs(T.eval_float(math.cos(alpha)) - math.cos(L * alpha)) < 1e-12

    def test_second_kind_sine_identity(self):
        U = chebyshev("second", 4)
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
            p = Polynomial([1])
            for t in targets:
                p = p * Polynomial([-Fraction(t), 1])
            roots = real_roots_in_interval(p, -1, 1)
            assert len(roots) == 4
            for r, t in zip(roots, targets):
                assert abs(r - t) < 1e-15

    def test_endpoint_root_found(self):
        roots = real_roots_in_interval(Polynomial([-1, 0, 2, 0, 0, 0]), -1, 1)
        assert any(abs(v - math.sqrt(0.5)) < 1e-15 for v in roots)

    def test_roots_on_bisection_points_are_exact(self):
        # T_4' = 32 z^3 - 16 z vanishes at the first midpoint, 0
        d4 = chebyshev("first", 4).derivative()
        assert real_roots_in_interval(d4, -1, 1) == pytest.approx(
            [-math.sqrt(0.5), 0.0, math.sqrt(0.5)], abs=1e-15
        )
        assert 0.0 in real_roots_in_interval(d4, -1, 1)
        # roots on later midpoints, one of them the left end of an isolating
        # interval (a, b] whose right end is a root too
        p = Polynomial([0, 1]) * Polynomial([-1, 2]) * Polynomial([1, 2]) * Polynomial([-1, 4])
        assert real_roots_in_interval(p, -1, 1) == [-0.5, 0.0, 0.25, 0.5]

    def test_roots_at_interval_ends_and_repeated_roots(self):
        p = Polynomial([-1, 0, 1]) * Polynomial([0, 1])  # (z - 1)(z + 1) z
        assert real_roots_in_interval(p, -1, 1) == [-1.0, 0.0, 1.0]
        q = Polynomial([-1, 1]) * Polynomial([-1, 1]) * Polynomial([1, 1]) * Polynomial([1, 1]) * Polynomial([1, 1])
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
        points = np.array(result.spec_interior.values)
        s1 = solve_S1(s, result.types_interior, result.spec_P, points, np.full(len(points), np.nan))
        assert len(s1) and s1.roots.dtype == np.float64 and s1.lam_index.dtype.kind == "i"
        # the report keeps arrays; the entries built from them hold Python numbers
        entries = result.report.entries
        assert all(type(e.value) is float and type(e.nu) is int for e in entries)
        assert all(type(k) is int for e in entries for k in e.lam_index)
        assert result.report.gap is not None
        assert all(type(v) is float for v in result.report.gap)
