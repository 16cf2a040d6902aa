import random
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgesub import classify, operators
from edgesub.assemble import assemble
from edgesub.classify import (
    RANK_TOL,
    TypedEigenvalue,
    _boundary_map,
    _type_clusters,
    classify_Q,
    classify_Qinterior,
    cluster_types,
)
from edgesub.errors import InvalidTypeCombination
from edgesub.fixtures import (
    chorded_square_substituent,
    circle_substituent,
    cycle_host,
    path_host,
    path_substituent,
    star_host,
)
from edgesub.graph import Orientation, Substituent, WeightedGraph, validate_substituent
from edgesub.operators import ReversibleOperator, eigen
from edgesub.oracle import direct_spectrum
from edgesub.transfer import boundary_kernels, compute_transfer

from randinst import random_host, random_substituent, relabel_substituent
from reference import boundary_data, classify_cluster, classify_per_cluster, exact_value, factorization

BOUNDARY_TOL = 1e-7


def _by_value(typed: list[TypedEigenvalue], value: float, tol: float = 1e-9) -> TypedEigenvalue:
    hits = [t for t in typed if abs(t.value - value) <= tol]
    assert len(hits) == 1, f"no unique cluster at {value}"
    return hits[0]


def _check_boundary_template(s: Substituent, t: TypedEigenvalue):
    """Zero block has vanishing boundary; tails hit the canonical templates."""
    bd = boundary_data(s, t)
    assert np.max(np.abs(bd[:, : t.nu_prime])) < BOUNDARY_TOL if t.nu_prime else True
    if t.type == "I":
        assert t.nu_prime == t.nu
    elif t.type == "II":
        np.testing.assert_allclose(bd[:, -1], [1.0, 1.0], atol=BOUNDARY_TOL)
    elif t.type == "III":
        np.testing.assert_allclose(bd[:, -1], [1.0, -1.0], atol=BOUNDARY_TOL)
    else:
        np.testing.assert_allclose(bd[:, -2], [0.0, 1.0], atol=BOUNDARY_TOL)
        np.testing.assert_allclose(bd[:, -1], [1.0, 0.0], atol=BOUNDARY_TOL)


def _check_gamma_symmetry(s: Substituent, t: TypedEigenvalue):
    """Type II tails are gamma-even, type III tails gamma-odd, and gamma maps
    the (1, 0)-tail of type IV to its (0, 1)-tail."""
    support = tuple(range(s.graph.n)) if t.source == "Q" else tuple(sorted(s.interior))
    pos = {x: i for i, x in enumerate(support)}
    perm = [pos[s.gamma[x]] for x in support]  # (f o gamma)[i] = f[perm[i]]
    tails = t.tails()
    if t.type == "II":
        np.testing.assert_allclose(tails[perm, 0], tails[:, 0], atol=1e-7)
    elif t.type == "III":
        np.testing.assert_allclose(tails[perm, 0], -tails[:, 0], atol=1e-7)
    elif t.type == "IV":
        np.testing.assert_allclose(tails[perm, 1], tails[:, 0], atol=1e-7)


def _check_eigen_residual(s: Substituent, t: TypedEigenvalue):
    support = tuple(range(s.graph.n)) if t.source == "Q" else tuple(sorted(s.interior))
    op = ReversibleOperator.restricted(s.graph, support)
    p = op.matrix_float()
    res = p @ t.basis - t.value * t.basis
    assert np.max(np.abs(res)) < 1e-8


class TestChordedSquare:
    def setup_method(self):
        self.s = chorded_square_substituent()
        self.full = classify_Q(self.s)
        self.interior = classify_Qinterior(self.s)

    def test_full_types(self):
        assert _by_value(self.full, 1.0).type == "II"
        assert _by_value(self.full, 0.0).type == "III"
        t = _by_value(self.full, -1 / 3)
        assert t.type == "I" and t.nu == 1 and t.nu_prime == 1
        assert _by_value(self.full, -2 / 3).type == "II"

    def test_interior_types(self):
        t_plus = _by_value(self.interior, 1 / 3)
        t_minus = _by_value(self.interior, -1 / 3)
        assert t_plus.type == "II" and t_plus.type_label == "II°"
        assert t_minus.type == "I" and t_minus.type_label == "I°"

    def test_boundary_templates(self):
        for t in self.full + self.interior:
            _check_boundary_template(self.s, t)
            _check_eigen_residual(self.s, t)


class TestCircles:
    @pytest.mark.parametrize("L", [2, 3])
    def test_antipodal_has_doubled_multiplicities(self, L):
        s = circle_substituent(L, "antipodal")
        typed = classify_Q(s)
        doubled = [t for t in typed if t.nu == 2]
        assert doubled, "antipodal circle must have nu = 2 clusters"
        for t in doubled:
            assert t.type in ("II", "III")
            assert t.nu_prime == 1
            _check_boundary_template(s, t)

    @pytest.mark.parametrize("L", [2, 3])
    def test_adjacent_has_type_IV(self, L):
        s = circle_substituent(L, "adjacent")
        typed = classify_Q(s)
        fours = [t for t in typed if t.type == "IV"]
        assert fours
        for t in fours:
            assert t.nu == 2 and t.nu_prime == 0
            _check_boundary_template(s, t)
        # every swapped pair lies in the spectrum of the one-sided restriction
        keep_a = sorted(set(s.interior) | {s.a})
        one_sided = eigen(ReversibleOperator.restricted(s.graph, keep_a)).values
        for t in fours:
            assert min(abs(t.value - v) for v in one_sided) < 1e-9

    def test_path_types_alternate_with_parity(self):
        for L in (2, 3, 4, 5):
            s = path_substituent(L)
            typed = classify_Q(s)
            for k, t in enumerate(sorted(typed, key=lambda t: -t.value)):
                assert t.nu == 1
                assert t.type == ("II" if k % 2 == 0 else "III")
            inter = classify_Qinterior(s)
            for k, t in enumerate(sorted(inter, key=lambda t: -t.value)):
                assert t.type == ("II" if k % 2 == 0 else "III")


class TestSymmetryProperties:
    def test_tails_are_gamma_symmetric(self):
        rng = random.Random(55)
        for _ in range(6):
            s = random_substituent(rng, max_v=7)
            for t in classify_Q(s):
                _check_boundary_template(s, t)
                _check_eigen_residual(s, t)
                _check_gamma_symmetry(s, t)

    def test_interior_normal_forms(self):
        rng = random.Random(56)
        for _ in range(6):
            s = random_substituent(rng, max_v=7)
            for t in classify_Qinterior(s):
                _check_boundary_template(s, t)
                _check_eigen_residual(s, t)

    def test_nu_prime_counts_rank_drop(self):
        rng = random.Random(57)
        for _ in range(6):
            s = random_substituent(rng, max_v=7)
            for t in classify_Q(s) + classify_Qinterior(s):
                rank = {"I": 0, "II": 1, "III": 1, "IV": 2}[t.type]
                assert t.nu_prime == t.nu - rank
                assert t.basis.shape[1] == t.nu


def _relabelled_antipodal_circle() -> Substituent:
    """circle_substituent(3, "antipodal") with its vertices in another order.

    Q has -1/2 with nu = 2 and type II; the second singular value of its
    boundary matrix is rounding noise (~1e-16), which a least-squares cutoff
    kept or dropped depending on the basis."""
    one = Fraction(1)
    g = WeightedGraph(
        ["v1", "v4", "v3", "v5", "v0", "v2"],
        [(2, 5, one), (0, 5, one), (2, 1, one), (1, 3, one), (0, 4, one), (3, 4, one)],
    )
    return Substituent(g, 4, 2, (1, 0, 4, 5, 2, 3))


class TestBasisIndependence:
    @pytest.mark.parametrize(
        "s",
        [
            _relabelled_antipodal_circle(),
            circle_substituent(3, "antipodal"),
            circle_substituent(3, "adjacent"),
            chorded_square_substituent(),
            path_substituent(4),
            *(random_substituent(random.Random(seed), max_v=7) for seed in range(58, 62)),
        ],
    )
    def test_tails_do_not_depend_on_the_eigenbasis(self, s):
        """The normal form is a function of the eigenspace: rotating each
        cluster's basis inside the eigenspace leaves the tails unchanged."""
        rng = np.random.default_rng(3)
        for source in ("Q", "Qo"):
            got = cluster_types(s, source)
            values, nu = tuple(got.values.tolist()), tuple(got.nu.tolist())
            blocks = np.split(got.h, got.starts[1:], axis=1)
            rotated = np.hstack([b @ np.linalg.qr(rng.standard_normal((b.shape[1],) * 2))[0] for b in blocks])
            turned = _type_clusters(values, nu, rotated, got.boundary, source, got.mass)
            for t, r in zip(got.normal_forms(), turned.normal_forms()):
                assert (t.type, t.nu, t.nu_prime) == (r.type, r.nu, r.nu_prime)
                np.testing.assert_allclose(r.tails(), t.tails(), rtol=0, atol=1e-12)


def _order_four_substituent() -> Substituent:
    """a and b each joined to every vertex of the 4-cycle u1 u2 u3 u4, with
    conductance 1 on those edges and 2 on the cycle edges; gamma is
    (a b)(u1 u2 u3 u4), of order 4."""
    one, two = Fraction(1), Fraction(2)
    spokes = [(x, u, one) for x in (0, 1) for u in range(2, 6)]
    rim = [(u, 2 + (u - 1) % 4, two) for u in range(2, 6)]
    g = WeightedGraph(["a", "b", "u1", "u2", "u3", "u4"], spokes + rim)
    s = Substituent(g, 0, 1, (1, 0, 3, 4, 5, 2))
    validate_substituent(s)
    return s


class TestGammaOfOrderFour:
    def setup_method(self):
        self.s = _order_four_substituent()

    def test_gamma_is_not_an_involution(self):
        g = self.s.gamma
        assert [g[g[x]] for x in range(6)] != list(range(6))
        assert [g[g[g[g[x]]]] for x in range(6)] == list(range(6))

    def test_normal_forms(self):
        for t in classify_Q(self.s) + classify_Qinterior(self.s):
            _check_boundary_template(self.s, t)
            _check_eigen_residual(self.s, t)
            _check_gamma_symmetry(self.s, t)

    def test_zero_of_Q_is_type_III_with_a_two_dimensional_zero_block(self):
        t = _by_value(classify_Q(self.s), 0.0)
        assert (t.type, t.nu, t.nu_prime) == ("III", 3, 2)
        z = t.zero_block()
        m = np.diag(self.s.graph.arrays.m)
        np.testing.assert_allclose(z.T @ m @ z, np.eye(2), atol=1e-12)

    def test_assemble_agrees_with_the_oracle(self):
        rng = random.Random(64)
        hosts = [cycle_host(4), cycle_host(5), path_host(4), star_host(5)]
        hosts += [random_host(rng) for _ in range(20)]
        for X in hosts:
            result = assemble(X, Orientation.default(X), self.s)
            got = sorted(result.report.multiset())
            want = sorted(direct_spectrum(result.substituted).value_multiset())
            assert len(got) == len(want)
            for (gv, gn), (wv, wn) in zip(got, want):
                assert abs(gv - wv) <= 1e-8 and gn == wn


# The parent implementation, kept as the reference: an SVD of the boundary
# data decides the rank and, for rank 1, the direction; the tails are
# minimum-norm solutions averaged over the powers of gamma.


def _gamma_average(fn, gperm, order, signed):
    acc = np.zeros_like(fn)
    cur = fn
    for k in range(order):
        acc += (-1.0) ** k * cur if signed else cur
        cur = cur[gperm]
    return acc / order


def _reference_cluster(value, basis, boundary, gperm, order, source):
    nu = basis.shape[1]
    B = (boundary @ basis).T
    u, sing, vt = np.linalg.svd(B)
    scale = max(1.0, float(sing[0]) if len(sing) else 0.0)
    rank = int(np.sum(sing > RANK_TOL * scale))
    ambiguous = bool(np.any((sing > RANK_TOL * scale / 10) & (sing < RANK_TOL * scale * 10)))
    zero_block = basis @ u[:, rank:]

    def solve_tail(target):
        w = u[:, :rank] @ ((vt[:rank] @ np.asarray(target, dtype=float)) / sing[:rank])
        return basis @ w

    if rank == 0:
        kind, tails = "I", []
    elif rank == 1:
        d = vt[0]
        sym, anti = abs(d[0] - d[1]), abs(d[0] + d[1])
        if sym <= anti:
            kind = "II"
            tail = _gamma_average(solve_tail((1.0, 1.0)), gperm, order, signed=False)
        else:
            kind = "III"
            tail = _gamma_average(solve_tail((1.0, -1.0)), gperm, order, signed=True)
        if min(sym, anti) > 1e-6:
            ambiguous = True
        tails = [tail / (boundary @ tail)[0]]
    else:
        kind = "IV"
        plus = _gamma_average(solve_tail((1.0, 1.0)), gperm, order, signed=False)
        minus = _gamma_average(solve_tail((1.0, -1.0)), gperm, order, signed=True)
        plus = plus / (boundary @ plus)[0]
        minus = minus / (boundary @ minus)[0]
        tails = [0.5 * (plus - minus), 0.5 * (plus + minus)]
    full = np.hstack([zero_block] + [t[:, None] for t in tails])
    return TypedEigenvalue(value, source, kind, nu, nu - rank, full, ambiguous)


def _reference_inputs() -> list[Substituent]:
    rng = random.Random(65)
    circles = [circle_substituent(L, p) for L in (2, 3, 4) for p in ("antipodal", "adjacent")]
    return [
        chorded_square_substituent(),
        *(path_substituent(L) for L in range(2, 9)),
        *circles,
        _order_four_substituent(),
        _relabelled_antipodal_circle(),
        *(relabel_substituent(c, rng) for c in circles for _ in range(3)),
        *(random_substituent(rng, max_v=10) for _ in range(300)),
    ]


class TestAgainstTheSvdReference:
    def test_same_types_tails_and_zero_blocks(self):
        clusters = 0
        for s in _reference_inputs():
            order = 1
            cur = list(s.gamma)
            while cur != list(range(s.graph.n)):
                cur = [s.gamma[x] for x in cur]
                order += 1
            for source in ("Q", "Qo"):
                support = range(s.graph.n) if source == "Q" else s.interior
                boundary = _boundary_map(s, source)
                pos = {x: i for i, x in enumerate(support)}
                gperm = np.array([pos[s.gamma[x]] for x in support])
                typed = cluster_types(s, source).normal_forms()
                for t, value, basis in zip(typed, *factorization(s, source), strict=True):
                    r = _reference_cluster(value, basis, boundary, gperm, order, source)
                    assert (t.type, t.nu, t.nu_prime, t.ambiguous) == (
                        r.type, r.nu, r.nu_prime, r.ambiguous
                    )
                    scale = max(1.0, float(np.max(np.abs(r.tails()), initial=0.0)))
                    assert np.max(np.abs(t.tails() - r.tails()), initial=0.0) <= 1e-10 * scale
                    zt, zr = t.zero_block(), r.zero_block()
                    assert np.max(np.abs(zt @ zt.T - zr @ zr.T), initial=0.0) <= 1e-12
                    # s and d are orthogonal: at the scale of the rank cut, and
                    # as directions wherever both are kept (where one is rounding
                    # noise in a 1-dimensional space their cosine is +-1)
                    at_a, at_b = boundary @ basis
                    sd = [at_a + at_b, at_a - at_b]
                    ns, nd = map(np.linalg.norm, sd)
                    assert abs(sd[0] @ sd[1]) <= 1e-12 * max(1.0, ns, nd) ** 2
                    if t.type == "IV":
                        assert abs(sd[0] @ sd[1]) <= 1e-12 * ns * nd
                    clusters += 1
        assert clusters > 1000

    def test_no_svd_and_one_qr_per_partial_zero_block(self, monkeypatch):
        work = _reference_inputs()
        calls = {"svd": 0, "qr": 0}
        for name in calls:
            real = getattr(np.linalg, name)

            def counted(*args, _name=name, _real=real, **kw):
                calls[_name] += 1
                return _real(*args, **kw)

            monkeypatch.setattr(np.linalg, name, counted)
        partial = 0
        for s in work:
            for source in ("Q", "Qo"):
                typed = cluster_types(s, source).normal_forms()
                partial += sum(0 < t.nu - t.nu_prime < t.nu for t in typed)
        assert partial > 0
        assert calls == {"svd": 0, "qr": partial}


class TestSecularWeights:
    def test_pole_expansions_of_theta_and_psi(self):
        # over the interior clusters mu, theta = sum (S + D) / (z - mu) and
        # psi = q(a, b) + sum (S - D) / (z - mu): checked against the exact
        # transfer functions at rational points off the spectrum
        rng = random.Random(14)
        subs = [chorded_square_substituent(), _order_four_substituent()]
        subs += [path_substituent(L) for L in (2, 5, 9)] + [circle_substituent(4, "adjacent")]
        subs += [random_substituent(rng, max_v=12) for _ in range(40)]
        for s in subs:
            tf = compute_transfer(s)
            typed = classify_Qinterior(s)
            q_ab = float(s.graph.conductance(s.a, s.b) / s.graph.m(s.a))
            for z in (Fraction(-3, 2), Fraction(5, 4), Fraction(3)):
                poles = [1 / (float(z) - t.value) for t in typed]
                theta = sum((t.S + t.D) * p for t, p in zip(typed, poles))
                psi = q_ab + sum((t.S - t.D) * p for t, p in zip(typed, poles))
                assert theta == pytest.approx(float(exact_value(tf.theta, z)), abs=1e-10)
                assert psi == pytest.approx(float(exact_value(tf.psi, z)), abs=1e-10)
            for t in typed:
                assert (t.S > 0, t.D > 0) == (t.type in ("II", "IV"), t.type in ("III", "IV"))


def _fixture_substituents() -> list[Substituent]:
    return [
        chorded_square_substituent(),
        *(path_substituent(L) for L in range(2, 9)),
        *(circle_substituent(L, p) for L in (2, 3, 4, 5) for p in ("antipodal", "adjacent")),
        _order_four_substituent(),
        _relabelled_antipodal_circle(),
    ]


def _check_array_pass_matches_per_cluster(s: Substituent):
    """On the one factorization of each of Q and Q°, the array pass and the
    per-cluster reference give the same types, nu, nu' and `ambiguous`, and
    S, D and normal-form bases within 1e-12 (relative to their size)."""
    for source in ("Q", "Qo"):
        got, want = cluster_types(s, source).normal_forms(), classify_per_cluster(s, source)
        assert len(got) == len(want)
        for t, r in zip(got, want):
            assert (t.value, t.type, t.nu, t.nu_prime, t.ambiguous) == (
                r.value, r.type, r.nu, r.nu_prime, r.ambiguous
            )
            assert abs(t.S - r.S) <= 1e-12 * max(1.0, r.S)
            assert abs(t.D - r.D) <= 1e-12 * max(1.0, r.D)
            assert t.basis.shape == r.basis.shape
            scale = max(1.0, float(np.max(np.abs(r.basis))))
            assert np.max(np.abs(t.basis - r.basis)) <= 1e-12 * scale


def _assert_bitwise_equal(got: list[TypedEigenvalue], want: list[TypedEigenvalue]):
    assert len(got) == len(want)
    for t, r in zip(got, want):
        assert (t.value, t.source, t.type, t.nu, t.nu_prime, t.ambiguous, t.S, t.D) == (
            r.value, r.source, r.type, r.nu, r.nu_prime, r.ambiguous, r.S, r.D
        )
        assert t.basis.shape == r.basis.shape and t.basis.tobytes() == r.basis.tobytes()


def _check_normal_forms_on_first_read(s: Substituent):
    """`assemble` types Q and Q° and builds their normal forms on first read:
    bitwise those of `classify_Q` and `classify_Qinterior`, each from its own
    factorization, which `_check_array_pass_matches_per_cluster` holds to the
    per-cluster reference."""
    X = cycle_host(3)
    result = assemble(X, Orientation.default(X), s, build_families=False)
    assert not {"classified_Q", "classified_interior"} & set(result.__dict__)
    _assert_bitwise_equal(result.classified_Q, classify_Q(s))
    _assert_bitwise_equal(result.classified_Q, result.spec_Q.normal_forms())
    _assert_bitwise_equal(result.classified_interior, classify_Qinterior(s))
    _assert_bitwise_equal(result.classified_interior, result.spec_interior.normal_forms())


class TestArrayPassAgainstThePerClusterClassifier:
    @pytest.mark.parametrize("s", _fixture_substituents())
    def test_fixtures(self, s):
        _check_array_pass_matches_per_cluster(s)
        _check_normal_forms_on_first_read(s)

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(min_value=3, max_value=10))
    def test_random_substituents(self, seed, max_v):
        s = random_substituent(random.Random(seed), max_v=max_v)
        _check_array_pass_matches_per_cluster(s)
        _check_normal_forms_on_first_read(s)

    def test_a_simple_eigenvalue_keeping_both_norms_raises(self):
        # |s|/sqrt(2) = 1.3/sqrt(2) and |d|/sqrt(2) = 0.7/sqrt(2) are both kept
        # on a 1-dimensional eigenspace: float mixing, as a simple
        # eigenfunction is gamma-even or gamma-odd
        value, h = 0.5, np.array([[1.0], [0.0], [0.0]])
        boundary = np.array([[1.0, 0.0, 0.0], [0.3, 0.0, 0.0]])
        with pytest.raises(InvalidTypeCombination, match=r"0\.5 of Qo .*9\.192e-01.*4\.950e-01"):
            _type_clusters((value,), (1,), h, boundary, "Qo", 1.0)
        # the per-cluster classifier returned a type IV with nu' = -1
        broken = classify_cluster(value, h, boundary, "Qo", 1.0)
        assert (broken.type, broken.nu, broken.nu_prime, broken.basis.shape) == ("IV", 1, -1, (3, 2))


class _RecordedNumpy:
    """numpy as `edgesub.operators` sees it, with its LAPACK calls recorded
    as (name, shape of the matrix)."""

    def __init__(self, calls: list):
        def recorded(name):
            real = getattr(np.linalg, name)

            def call(a, *args, **kwargs):
                calls.append((name, a.shape))
                return real(a, *args, **kwargs)

            return call

        self.linalg = SimpleNamespace(**{name: recorded(name) for name in ("eigh", "eigvalsh", "svd")})

    def __getattr__(self, name):
        return getattr(np, name)


def _record_operator_lapack(monkeypatch) -> list:
    calls: list = []
    monkeypatch.setattr(operators, "np", _RecordedNumpy(calls))
    return calls


class TestOneFactorizationPerOperator:
    @pytest.mark.parametrize(
        "X, s, host_call",
        [
            (cycle_host(7), chorded_square_substituent(), ("eigvalsh", (7, 7))),
            (cycle_host(8), path_substituent(5), ("svd", (4, 4))),
            (star_host(9), circle_substituent(3, "adjacent"), ("svd", (1, 8))),
        ],
        ids=["odd-cycle", "even-cycle", "star"],
    )
    def test_spectrum_only_assemble(self, X, s, host_call, monkeypatch):
        """One `eigh` for Q, one for Q°, and the host's values-only call."""
        calls = _record_operator_lapack(monkeypatch)
        assemble(X, Orientation.default(X), s, build_families=False)
        n = s.graph.n
        assert sorted(calls) == sorted([("eigh", (n, n)), ("eigh", (n - 2, n - 2)), host_call])

    def test_one_typing_per_operator(self, monkeypatch):
        """With the families, which read the normal forms of Q°, `assemble`
        still types Q and Q° once each."""
        sources = []
        real = classify._type_clusters

        def recorded(*args):
            sources.append(args[4])
            return real(*args)

        monkeypatch.setattr(classify, "_type_clusters", recorded)
        for s in (chorded_square_substituent(), circle_substituent(4, "adjacent"), _order_four_substituent()):
            sources.clear()
            result = assemble(cycle_host(5), Orientation.default(cycle_host(5)), s, build_families=True)
            assert result.nodal_families and result.classified_Q
            assert sources == ["Q", "Qo"]

    @pytest.mark.parametrize("s", [chorded_square_substituent(), path_substituent(6), _order_four_substituent()])
    def test_boundary_kernels(self, s, monkeypatch):
        calls = _record_operator_lapack(monkeypatch)
        boundary_kernels(s)
        k = len(s.interior)
        assert calls == [("eigh", (k, k))]
