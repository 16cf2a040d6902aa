import math
import random
from fractions import Fraction

import numpy as np

from edgesub.fixtures import (
    chorded_square_substituent,
    cycle_host,
    path_host,
    path_substituent,
    star_host,
)
from edgesub.graph import WeightedGraph
from edgesub.operators import (
    EigenDecomposition,
    ReversibleOperator,
    eigen,
    local_spectrum,
    spectral_radius,
)

from randinst import random_host

ONE = Fraction(1)


def _operators(seed):
    """Eight random hosts, then two with degenerate clusters: cycle-12 (pairs)
    and star-8 (a cluster of 6 at 0)."""
    rng = random.Random(seed)
    hosts = [random_host(rng) for _ in range(8)] + [cycle_host(12), star_host(8)]
    return [ReversibleOperator.full(g) for g in hosts]


class TestOperator:
    def test_single_edge(self):
        g = WeightedGraph(["x", "y"], [(0, 1, Fraction(3, 2))])
        op = ReversibleOperator.full(g)
        assert op.matrix_exact() == [[Fraction(0), Fraction(1)], [Fraction(1), Fraction(0)]]
        assert op.is_stochastic()
        dec = eigen(op)
        assert dec.values == (1.0, -1.0)
        assert dec.multiplicities == (1, 1)

    def test_full_operator_is_stochastic_random(self):
        rng = random.Random(2)
        for _ in range(10):
            g = random_host(rng)
            op = ReversibleOperator.full(g)
            assert op.is_stochastic()

    def test_restriction_drops_outside_entries(self):
        s = chorded_square_substituent()
        op = ReversibleOperator.restricted(s.graph, s.interior)
        assert not op.is_stochastic()
        # interior of the chorded square is {u, v} joined by the chord;
        # each has measure 3, so the interior matrix is [[0,1/3],[1/3,0]]
        assert op.matrix_exact() == [
            [Fraction(0), Fraction(1, 3)],
            [Fraction(1, 3), Fraction(0)],
        ]

    def test_exact_and_float_matrices_agree(self):
        rng = random.Random(4)
        g = random_host(rng)
        op = ReversibleOperator.full(g)
        exact = np.array([[float(v) for v in row] for row in op.matrix_exact()])
        assert np.allclose(exact, op.matrix_float(), atol=1e-14)

    def test_symmetrized_is_similar(self):
        g = cycle_host(5)
        op = ReversibleOperator.full(g)
        s = op.symmetrized()
        assert np.allclose(s, s.T)
        p = op.matrix_float()
        m = np.array([float(op.measure(i)) for i in range(op.dim)])
        d = np.diag(np.sqrt(m))
        assert np.allclose(d @ p @ np.linalg.inv(d), s, atol=1e-12)


class TestEigen:
    def test_cycle_spectrum(self):
        dec = eigen(ReversibleOperator.full(cycle_host(5)))
        expect = sorted(
            {round(math.cos(2 * math.pi * k / 5), 12) for k in range(5)}, reverse=True
        )
        assert dec.multiplicities == (1, 2, 2)
        for v, e in zip(dec.values, expect):
            assert abs(v - e) < 1e-10

    def test_interior_of_chorded_square(self):
        s = chorded_square_substituent()
        dec = eigen(ReversibleOperator.restricted(s.graph, s.interior))
        assert dec.multiplicities == (1, 1)
        assert abs(dec.values[0] - 1 / 3) < 1e-12
        assert abs(dec.values[1] + 1 / 3) < 1e-12

    def test_orthonormality_and_completeness(self):
        for op in _operators(6):
            dec = eigen(op)
            m = np.array([float(op.measure(i)) for i in range(op.dim)])
            assert [b.shape for b in dec.bases] == [(op.dim, nu) for nu in dec.multiplicities]
            want = np.linalg.eigh(op.symmetrized())[0][::-1]
            assert np.max(np.abs(np.array(dec.all_values()) - want)) <= 1e-12
            h = np.hstack(dec.bases)
            assert h.shape == (op.dim, op.dim)
            gram = h.T @ (h * m[:, None])
            assert np.allclose(gram, np.eye(op.dim), atol=1e-8)
            # spectral resolution of the identity: sum_i h_i(x) h_i(y) m(y) = delta
            assert np.allclose((h @ h.T) * m[None, :], np.eye(op.dim), atol=1e-8)
            given = tuple(b.copy() for b in dec.bases)
            assert EigenDecomposition(op, dec.values, dec.multiplicities, given).bases is given
        assert dec.multiplicities == (1, 6, 1)  # the last input, star-8

    def test_eigen_equation_residuals(self):
        for op in _operators(8):
            dec = eigen(op)
            p = op.matrix_float()
            for v, nu, basis in zip(dec.values, dec.multiplicities, dec.bases):
                assert basis.shape == (op.dim, nu)
                assert np.max(np.abs(p @ basis - v * basis)) < 1e-9

    def test_large_cluster_is_m_orthonormal(self):
        # the star's eigenvalue 0 has multiplicity 58
        op = ReversibleOperator.full(star_host(60))
        dec = eigen(op)
        assert max(dec.multiplicities) == 58
        m = np.array([float(op.measure(i)) for i in range(op.dim)])
        h = np.hstack(dec.bases)
        assert np.max(np.abs(h.T @ (m[:, None] * h) - np.eye(op.dim))) < 1e-12
        p = op.matrix_float()
        for v, basis in zip(dec.values, dec.bases):
            assert np.max(np.abs(p @ basis - v * basis)) < 1e-9

    def test_cluster_near(self):
        dec = eigen(ReversibleOperator.full(cycle_host(4)))
        assert dec.cluster_near(0.0) == 1
        assert dec.cluster_near(0.5) is None

    def test_sub_operator_bottom_chain(self):
        # lambda0 strictly increases as the kept subset grows
        for L in (2, 3, 5):
            s = path_substituent(L)
            lam_int = spectral_radius(
                ReversibleOperator.restricted(s.graph, s.interior)
            )
            keep_a = sorted(set(s.interior) | {s.a})
            lam_minus_b = spectral_radius(ReversibleOperator.restricted(s.graph, keep_a))
            lam_full = spectral_radius(ReversibleOperator.full(s.graph))
            assert lam_int < lam_minus_b < lam_full
            assert abs(lam_full - 1.0) < 1e-12
            assert lam_minus_b < 1.0


class TestLocalSpectrum:
    def test_path_center_misses_odd_modes(self):
        # on the 3-path, the 0-eigenfunction vanishes at the center vertex
        g = path_host(3)
        op = ReversibleOperator.full(g)
        everything = local_spectrum(op, 0)
        center = local_spectrum(op, 1)
        assert len(everything) == 3
        assert len(center) == 2
        assert all(abs(v) > 1e-9 for v in center)

    def test_full_support_vertex_sees_all(self):
        g = cycle_host(3)
        op = ReversibleOperator.full(g)
        for x in range(3):
            assert len(local_spectrum(op, x)) == 2
