import random
from fractions import Fraction

import numpy as np
import pytest

from edgesub.classify import TypedEigenvalue, boundary_data, classify_Q, classify_Qinterior
from edgesub.fixtures import (
    chorded_square_substituent,
    circle_substituent,
    path_substituent,
)
from edgesub.graph import Substituent, WeightedGraph
from edgesub.operators import EigenDecomposition, ReversibleOperator, eigen

from randinst import random_substituent

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
            perm = list(s.gamma)
            for t in classify_Q(s):
                _check_boundary_template(s, t)
                _check_eigen_residual(s, t)
                if t.type == "II":
                    f = t.tails()[:, 0]
                    np.testing.assert_allclose(f[perm], f, atol=1e-7)
                elif t.type == "III":
                    f = t.tails()[:, 0]
                    np.testing.assert_allclose(f[perm], -f, atol=1e-7)
                elif t.type == "IV":
                    prev, top = t.tails()[:, 0], t.tails()[:, 1]
                    np.testing.assert_allclose(top[perm], prev, atol=1e-7)

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
        for op, classify in (
            (ReversibleOperator.full(s.graph), classify_Q),
            (ReversibleOperator.restricted(s.graph, s.interior), classify_Qinterior),
        ):
            dec = eigen(op)
            rotated = EigenDecomposition(
                op,
                dec.values,
                dec.multiplicities,
                tuple(b @ np.linalg.qr(rng.standard_normal((b.shape[1],) * 2))[0] for b in dec.bases),
            )
            for t, r in zip(classify(s, dec), classify(s, rotated)):
                assert (t.type, t.nu, t.nu_prime) == (r.type, r.nu, r.nu_prime)
                np.testing.assert_allclose(r.tails(), t.tails(), rtol=0, atol=1e-12)
