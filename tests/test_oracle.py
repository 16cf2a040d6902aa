import math
from fractions import Fraction

import numpy as np
import pytest

from edgesub.errors import NoSuchCluster, TooLarge
from edgesub.fixtures import (
    chorded_square_substituent,
    cycle_host,
    fixture_circle,
    path_substituent,
)
from edgesub.graph import Orientation
from edgesub.operators import ReversibleOperator, eigen
from edgesub import oracle
from edgesub.oracle import SIZE_CAP, direct_spectrum, nodal_dimension
from edgesub.substitution import substitute


def _sub(X, s):
    return substitute(X, Orientation.default(X), s)


class TestDirectSpectrum:
    def test_size_cap(self, monkeypatch):
        # 2001 host vertices plus one interior vertex per edge: 4002 > SIZE_CAP
        sub = _sub(cycle_host(2001), path_substituent(2))
        assert sub.graph.n == 4002 > SIZE_CAP
        monkeypatch.setattr(oracle, "eigen", None)  # rejected before any eigen
        with pytest.raises(TooLarge):
            direct_spectrum(sub)

    def test_total_dimension(self):
        sub = _sub(cycle_host(4), path_substituent(3))
        dec = direct_spectrum(sub)
        assert dec.dim == sub.graph.n


class TestNodalDimension:
    def test_chorded_square_on_square(self):
        sub = _sub(cycle_host(4), chorded_square_substituent())
        dec = direct_spectrum(sub)
        # -1/3 has a 4-dimensional per-edge family vanishing on the host
        assert nodal_dimension(dec, -1 / 3, sub.host.n) == 4
        # 1/3 survives only through the even cycle: dimension 1
        assert nodal_dimension(dec, 1 / 3, sub.host.n) == 1

    def test_missing_cluster_raises(self):
        sub = _sub(cycle_host(4), chorded_square_substituent())
        dec = direct_spectrum(sub)
        with pytest.raises(NoSuchCluster):
            nodal_dimension(dec, 0.123456, sub.host.n)

    def test_values_with_full_host_support_have_no_nodal_part(self):
        sub = _sub(cycle_host(4), chorded_square_substituent())
        dec = direct_spectrum(sub)
        top = dec.values[0]
        assert nodal_dimension(dec, top, sub.host.n) == 0


class TestFixtureCircle:
    def test_validation(self):
        with pytest.raises(ValueError):
            fixture_circle(Fraction(1), 1)
        with pytest.raises(ValueError):
            fixture_circle(Fraction(3, 2), 2)

    def test_uniform_circle_top_gap(self):
        for N in (2, 3, 4):
            g = fixture_circle(Fraction(1), N)
            dec = eigen(ReversibleOperator.full(g))
            assert abs(dec.values[0] - 1.0) < 1e-12
            assert abs(dec.values[1] - math.cos(math.pi / N)) < 1e-10

    def test_degenerate_path_top_gap(self):
        for N in (2, 3, 4):
            g = fixture_circle(Fraction(0), N)
            assert g.num_edges == 2 * N - 1
            dec = eigen(ReversibleOperator.full(g))
            assert abs(dec.values[1] - math.cos(math.pi / (2 * N - 1))) < 1e-10

    def test_gap_monotone_in_weight(self):
        # strengthening the extra edge widens the gap: lambda1 decreases in a
        N = 3
        prev = None
        for k in range(11):
            a = Fraction(k, 10)
            g = fixture_circle(a, N)
            dec = eigen(ReversibleOperator.full(g))
            lam1 = dec.values[1]
            if prev is not None:
                assert lam1 <= prev + 1e-12
            prev = lam1

    def test_bipartite_symmetry(self):
        # even circles are bipartite: the spectrum is symmetric about zero
        for N in (2, 3):
            g = fixture_circle(Fraction(1), N)
            dec = eigen(ReversibleOperator.full(g))
            vals = sorted(np.repeat(dec.values, dec.multiplicities))
            for lo, hi in zip(vals, reversed(vals)):
                assert abs(lo + hi) < 1e-10
