"""End-to-end acceptance suite.

Each test covers one acceptance criterion and prints a single PASS line on
success (run pytest with -s to see them); any assertion failure marks the
criterion as failed.
"""

import math
import random
import time
from fractions import Fraction

import numpy as np

from edgesub.algebra import Polynomial, RationalFunction, chebyshev
from edgesub.assemble import assemble, interior_multiplicity
from edgesub.classify import classify_Q, classify_Qinterior
from edgesub.extensions import balance, independence_rank, residual
from edgesub.fixtures import (
    chorded_square_substituent,
    circle_substituent,
    cycle_host,
    fixture_circle,
    path_host,
    path_substituent,
    star_host,
)
from edgesub.graph import Orientation, fundamental_cycle_base
from edgesub.operators import ReversibleOperator, eigen
from edgesub.oracle import direct_spectrum, nodal_dimension
from edgesub.substitution import substitute
from edgesub.transfer import compute_transfer, verify_resolvent_identity

from randinst import random_host, random_substituent
from reference import boundary_data, reorient_equivalence_check

RF = RationalFunction


def _report(num, label):
    print(f"ACCEPTANCE {num}: PASS — {label}")


def _run(X, s, **kw):
    return assemble(X, Orientation.default(X), s, **kw)


def _multisets_agree(result, tol=1e-8):
    dec = direct_spectrum(result.substituted)
    a = sorted(result.report.multiset())
    d = sorted(dec.value_multiset())
    assert len(a) == len(d), f"cluster counts differ: {len(a)} vs {len(d)}"
    for (av, an), (dv, dn) in zip(a, d):
        assert abs(av - dv) <= tol, f"value {av} vs {dv}"
        assert an == dn, f"multiplicity of {av}: {an} vs {dn}"


def test_acceptance_1_pentagon_with_chorded_square():
    start = time.perf_counter()
    s = chorded_square_substituent()
    tf = compute_transfer(s)
    assert tf.phi == RF(Polynomial([-1, -1, 3]))
    third = Fraction(1, 3)
    assert tf.psi == RF(Polynomial([third]), Polynomial([-third, 1]))
    assert tf.theta == tf.psi

    result = _run(cycle_host(5), s)
    r5 = math.sqrt(5)
    closed = sorted(
        [
            (1.0, 1),
            (-2 / 3, 1),
            ((1 + math.sqrt(10 + 3 * r5)) / 6, 2),
            ((1 + math.sqrt(10 - 3 * r5)) / 6, 2),
            ((1 - math.sqrt(10 - 3 * r5)) / 6, 2),
            ((1 - math.sqrt(10 + 3 * r5)) / 6, 2),
            (-1 / 3, 5),
        ]
    )
    got = sorted(result.report.multiset())
    assert len(got) == len(closed)
    for (gv, gn), (cv, cn) in zip(got, closed):
        assert abs(gv - cv) < 1e-9 and gn == cn

    assert [round(v, 9) for v, _ in result.report.exc] == [round(1 / 3, 9)]
    assert not any("S2" in p for e in result.report.entries for p in e.provenance)
    _multisets_agree(result, tol=1e-8)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"took {elapsed:.2f}s"
    _report(1, f"pentagon example exact in {elapsed:.2f}s")


def test_acceptance_2_path_substituents():
    start = time.perf_counter()
    for L in (2, 3, 4, 5, 6):
        s = path_substituent(L)
        tf = compute_transfer(s)
        T = chebyshev("first", L)
        U = chebyshev("second", L - 1)
        assert tf.phi == RF(T)
        assert tf.psi == RF(Polynomial([1]), U)
        assert tf.theta == RF.z() - RF(T, U)
        # interior types alternate: descending k-th is II for even k
        for k, t in enumerate(sorted(classify_Qinterior(s), key=lambda t: -t.value)):
            assert t.type == ("II" if k % 2 == 0 else "III")

    rng = random.Random(2024)
    hosts = [cycle_host(4), path_host(5)] + [random_host(rng, max_n=7) for _ in range(3)]
    for L in (2, 4, 6):
        s = path_substituent(L)
        for X in hosts:
            result = _run(X, s, build_families=False)
            n_X, n_E, d = X.n, X.num_edges, X.delta_b
            s1 = sum(
                e.nu
                for e in result.report.entries
                if any(p.startswith("S1") for p in e.provenance)
            )
            interior = sum(
                e.nu
                for e in result.report.entries
                if any(p.startswith("Interior") for p in e.provenance)
            )
            assert s1 == 2 + (n_X - 1 - d) * L
            assert interior == (n_E - n_X + 2 * d) * L // 2 + (n_E - n_X + 2) * (L - 2) // 2
            _multisets_agree(result)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"took {elapsed:.2f}s"
    _report(2, f"path substituents L=2..6 Chebyshev-exact in {elapsed:.2f}s")


def test_acceptance_3_circle_substituents():
    for L in (2, 4):
        anti = compute_transfer(circle_substituent(L, "antipodal"))
        assert anti.phi == RF(chebyshev("first", L))
        assert anti.psi == RF(Polynomial([1]), chebyshev("second", L - 1))

        s = circle_substituent(L, "adjacent")
        tf = compute_transfer(s)
        M = 2 * L
        assert tf.phi == RF(chebyshev("first", L), chebyshev("first", L - 1))
        half = RF(Polynomial([Fraction(1, 2)]))
        assert tf.psi == (RF(Polynomial([1])) + RF(Polynomial([1]), chebyshev("second", M - 2))) * half
        assert tf.phi * tf.psi + tf.theta == RF.z()

        X = cycle_host(4)
        result = _run(X, s, build_families=False)
        s2 = sorted(
            e.value
            for e in result.report.entries
            if any("S2" in p for p in e.provenance)
        )
        expect = sorted(math.cos(k * math.pi / L) for k in range(1, L))
        assert len(s2) == len(expect)
        for got, want in zip(s2, expect):
            assert abs(got - want) < 1e-9
        for e in result.report.entries:
            if any("S2" in p for p in e.provenance):
                assert e.nu == X.n
        _multisets_agree(result)

        anti_result = _run(X, circle_substituent(L, "antipodal"), build_families=False)
        _multisets_agree(anti_result)
    _report(3, "circle substituents: transfer goldens, psi-zero points, oracle")


def test_acceptance_4_resolvent_identity():
    start = time.perf_counter()
    rng = random.Random(404)
    for _ in range(20):
        X = random_host(rng, max_n=4)
        s = random_substituent(rng, max_v=5)
        sub = substitute(X, Orientation.default(X), s)
        tf = compute_transfer(s)
        z = Fraction(rng.randint(11, 40), 10) * rng.choice([1, -1])
        assert 1 < abs(z) <= 4
        pairs = [(rng.randrange(X.n), rng.randrange(X.n)) for _ in range(5)]
        results = verify_resolvent_identity(sub, tf, z, pairs)
        assert all(ok for _, _, ok in results), f"failed at z={z}"
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"took {elapsed:.2f}s"
    _report(4, f"20 exact resolvent identities in {elapsed:.2f}s")


def test_acceptance_5_random_conservation_and_completeness():
    rng = random.Random(505)
    for trial in range(50):
        X = random_host(rng, max_n=7)
        s = random_substituent(rng, max_v=8)
        result = _run(X, s)
        rep = result.report
        assert rep.total == rep.expected_total == X.n + X.num_edges * (s.graph.n - 2)
        _multisets_agree(result, tol=1e-8)

        dec = direct_spectrum(result.substituted)
        excluded = {round(v, 9) for v, _ in rep.exc}
        for t in result.classified_interior:
            fam = result.nodal_families[t.value]
            rank = independence_rank(fam)
            k = dec.cluster_near(t.value)
            ndim = (
                nodal_dimension(dec, t.value, X.n) if k is not None else 0
            )
            assert ndim == rank, (
                f"trial {trial}: nodal dim {ndim} != family rank {rank} at {t.value}"
            )
            qt = next(
                (q for q in result.classified_Q if abs(q.value - t.value) <= 1e-8),
                None,
            )
            if qt is None and round(t.value, 9) not in excluded:
                table = interior_multiplicity(
                    "0", t.type, t.nu, X.n, X.num_edges, X.delta_b
                )
                assert ndim == table, (
                    f"trial {trial}: nodal dim {ndim} != table {table} at {t.value}"
                )
    _report(5, "50 random instances: conservation, oracle multiset, nodal ranks")


def _invariant_inputs():
    rng = random.Random(606)
    inputs = [
        (cycle_host(5), chorded_square_substituent()),
        (cycle_host(4), path_substituent(3)),
        (star_host(4), path_substituent(2)),
        (cycle_host(4), circle_substituent(2, "adjacent")),
        (path_host(4), circle_substituent(2, "antipodal")),
    ]
    for _ in range(3):
        inputs.append((random_host(rng, max_n=5), random_substituent(rng, max_v=6)))
    return inputs


def test_acceptance_6_invariant_suites():
    rng = random.Random(707)
    for X, s in _invariant_inputs():
        result = _run(X, s)
        sub = result.substituted

        for fam in result.nodal_families.values():
            for fn in fam:
                if not fn.values.any():
                    continue
                assert residual(sub, fn) <= 1e-9
                for x in range(X.n):
                    assert abs(balance(sub, fn.values, x)) <= 1e-9

        for t in classify_Q(s) + classify_Qinterior(s):
            bd = boundary_data(s, t)
            if t.nu_prime:
                assert np.max(np.abs(bd[:, : t.nu_prime])) < 1e-7
            if t.type == "II":
                np.testing.assert_allclose(bd[:, -1], [1, 1], atol=1e-7)
            elif t.type == "III":
                np.testing.assert_allclose(bd[:, -1], [1, -1], atol=1e-7)
            elif t.type == "IV":
                np.testing.assert_allclose(bd[:, -2], [0, 1], atol=1e-7)
                np.testing.assert_allclose(bd[:, -1], [1, 0], atol=1e-7)

        assert reorient_equivalence_check(X, s, trials=5, seed=rng.randint(0, 999))

        if sub.graph.bipartition() is not None:
            vals = sorted(
                v for v, n in result.report.multiset() for _ in range(n)
            )
            for lo, hi in zip(vals, reversed(vals)):
                assert abs(lo + hi) < 1e-8
    _report(6, "balance, residuals, boundary templates, reorientation, symmetry")


def test_acceptance_7_spectral_gap():
    checked = 0
    for X, s in _invariant_inputs():
        result = _run(X, s, build_families=False)
        interior_ok = s.graph.connected_on(s.interior)
        lam1 = result.spec_P.values[1]
        eligible = X.n >= 3 and (interior_ok or lam1 >= 0)
        if not eligible:
            continue
        assert result.report.gap is not None
        got_lam1, got_star = result.report.gap
        assert abs(got_lam1 - lam1) < 1e-12
        phi = result.transfer.phi
        poly = phi.num - phi.den.scale(Fraction(lam1))
        roots = np.roots([float(c) for c in reversed(poly.coeffs)])
        real = [r.real for r in roots if abs(r.imag) <= 1e-9 and -1 - 1e-9 <= r.real <= 1 + 1e-9]
        assert abs(got_star - max(real)) < 1e-9
        second = sorted(result.report.values(), reverse=True)[1]
        assert abs(got_star - second) < 1e-9
        checked += 1
    assert checked >= 4
    _report(7, f"spectral gap matched on {checked} eligible inputs")


def test_acceptance_8_weighted_circle_sweep():
    for N in (2, 3, 4):
        g1 = fixture_circle(Fraction(1), N)
        lam1_full = eigen(ReversibleOperator.full(g1)).values[1]
        assert abs(lam1_full - math.cos(math.pi / N)) < 1e-10

        g0 = fixture_circle(Fraction(0), N)
        lam1_path = eigen(ReversibleOperator.full(g0)).values[1]
        assert abs(lam1_path - math.cos(math.pi / (2 * N - 1))) < 1e-10

        prev = None
        for k in range(11):
            g = fixture_circle(Fraction(k, 10), N)
            lam1 = eigen(ReversibleOperator.full(g)).values[1]
            if prev is not None:
                assert lam1 <= prev + 1e-12
            prev = lam1
    _report(8, "weighted circle sweep endpoints and monotonicity")
