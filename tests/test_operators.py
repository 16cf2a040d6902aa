import math
import random
from fractions import Fraction

import numpy as np
import pytest

from edgesub.fixtures import (
    chorded_square_substituent,
    circle_substituent,
    cycle_host,
    path_substituent,
    star_host,
)
from edgesub.graph import WeightedGraph
from edgesub.operators import (
    CLUSTER_TOL,
    EigenDecomposition,
    ReversibleOperator,
    _descending_eigh,
    _scatter,
    eigen,
    spectral_radius,
)

from randinst import rand_weight, random_host, random_substituent
from reference import is_stochastic, matrix_float_per_entry, symmetrized_per_entry
from test_transfer import WORKLOAD_FIXTURES

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
        assert is_stochastic(op)
        dec = eigen(op)
        assert dec.values == (1.0, -1.0)
        assert dec.multiplicities == (1, 1)

    def test_full_operator_is_stochastic_random(self):
        rng = random.Random(2)
        for _ in range(10):
            g = random_host(rng)
            op = ReversibleOperator.full(g)
            assert is_stochastic(op)

    def test_restriction_drops_outside_entries(self):
        s = chorded_square_substituent()
        op = ReversibleOperator.restricted(s.graph, s.interior)
        assert not is_stochastic(op)
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
            assert np.max(np.abs(np.repeat(dec.values, dec.multiplicities) - want)) <= 1e-12
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

    def test_cluster_near_equals_the_linear_scan(self):
        op = ReversibleOperator.full(cycle_host(4))
        rng = random.Random(3)
        tie = 2.0**-25  # about 3e-8: 0.5 +- tie are exactly equidistant from 0.5
        lists = [(0.5 + tie, 0.5 - tie), (0.5 + tie, 0.5, 0.5 - tie)]
        # exact ties at dyadic values, and clusters exactly 1e-7 from a probe
        lists += [(2.0**-24, 0.0), (0.75, 0.25), (1.0, 0.5, 0.0, -0.5, -1.0)]
        lists += [(0.5 + 2e-7, 0.5, 0.5 - 2e-7)]
        for _ in range(200):
            values = sorted({rng.uniform(-1, 1) for _ in range(rng.randint(0, 12))})
            # a window of several clusters 1e-8 to 1e-7 apart
            top = rng.uniform(-1, 1)
            values += [top - k * rng.uniform(1e-8, 1e-7) for k in range(rng.randint(1, 5))]
            lists.append(tuple(sorted(set(values), reverse=True)))
        for values in lists:
            dec = EigenDecomposition(op, values, (1,) * len(values))
            probes = [0.5, rng.uniform(-1.5, 1.5)]
            probes += [v + rng.uniform(-2e-7, 2e-7) for v in values]
            probes += [(u + v) / 2 for u, v in zip(values, values[1:])]
            probes += [v + d for v in values for d in (1e-7, -1e-7, 0.0)]
            probes += [(u + v) / 2 for u, v in zip(values, values[2:])]
            for p in probes:
                assert dec.cluster_near(p) == _linear_cluster_near(values, p), (values, p)
        ties = EigenDecomposition(op, lists[0], (1, 1))
        assert ties.cluster_near(0.5) == 0
        assert EigenDecomposition(op, (2.0**-24, 0.0), (1, 1)).cluster_near(2.0**-25) == 0
        assert EigenDecomposition(op, (0.75, 0.25), (1, 1)).cluster_near(0.5) is None
        far = EigenDecomposition(op, (0.5 + 2e-7, 0.5, 0.5 - 2e-7), (1, 1, 1))
        for p in (0.5 + 1e-7, 0.5 + 2e-7 - 1e-7, 0.5 - 1e-7):
            # exactly 1e-7 from a cluster counts as within; the nearer wins
            assert far.cluster_near(p) == _linear_cluster_near(far.values, p)
        exact = EigenDecomposition(op, (0.0,), (1,))
        assert exact.cluster_near(1e-7) == exact.cluster_near(-1e-7) == 0
        assert exact.cluster_near(math.nextafter(1e-7, 1.0)) is None
        assert exact.cluster_near(math.nan) is None
        assert EigenDecomposition(op, (), ()).cluster_near(0.0) is None

    def test_symmetrized_is_bitwise_the_per_entry_loop(self):
        # every float matrix and the m-normalization of the eigenvectors read
        # the graph's float form, each exact value rounded once
        rng = random.Random(50)
        subs = [*WORKLOAD_FIXTURES.values(), *(random_substituent(rng) for _ in range(25))]
        ops = [ReversibleOperator.full(random_host(rng)) for _ in range(25)]
        ops += [ReversibleOperator.full(s.graph) for s in subs]
        ops += [ReversibleOperator.restricted(s.graph, s.interior) for s in subs]
        for op in ops:
            g, full = op.graph, range(op.dim)
            assert g.arrays.m.tobytes() == np.array([float(g.m(x)) for x in range(g.n)]).tobytes()
            want = symmetrized_per_entry(op, full, full)
            assert op.symmetrized().tobytes() == want.tobytes()
            assert op.matrix_float().tobytes() == matrix_float_per_entry(op).tobytes()
            w, u = np.linalg.eigh(want)
            m = np.sqrt([float(op.measure(i)) for i in full])
            got_w, got_h = _descending_eigh(op)
            assert got_w.tobytes() == w[::-1].tobytes()
            assert got_h.tobytes() == (u[:, ::-1] / m[:, None]).tobytes()
            colours = g.bipartition()
            if colours is not None:
                left = [i for i in full if op.support[i] in colours[0]]
                right = [i for i in full if op.support[i] not in colours[0]]
                vertices = [[op.support[i] for i in side] for side in (left, right)]
                block = _scatter(g, *vertices)
                assert block.tobytes() == symmetrized_per_entry(op, left, right).tobytes()

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


def _linear_cluster_near(values, value):
    """Reference for `cluster_near`: a linear scan for the nearest value
    within 1e-7, ties to the lower index."""
    hits = [k for k, v in enumerate(values) if abs(v - value) <= 1e-7]
    if not hits:
        return None
    return min(hits, key=lambda k: abs(values[k] - value))


def _clustered(descending):
    """Clusters of a descending list under the CLUSTER_TOL rule of `eigen`."""
    clusters = []
    for w in descending:
        if clusters and clusters[-1][0] - w <= CLUSTER_TOL:
            clusters[-1].append(w)
        else:
            clusters.append([w])
    return tuple(math.fsum(c) / len(c) for c in clusters), tuple(map(len, clusters))


def _random_tree(rng, n):
    return WeightedGraph(
        [f"t{k}" for k in range(n)], [(rng.randrange(v), v, rand_weight(rng)) for v in range(1, n)]
    )


def _relabelled_cycle(n, rng):
    perm = list(range(n))
    rng.shuffle(perm)
    edges = [(perm[k], perm[(k + 1) % n], ONE) for k in range(n)]
    rng.shuffle(edges)
    return WeightedGraph([f"x{k}" for k in range(n)], edges)


def _bipartite_operators():
    rng = random.Random(14)
    path5 = path_substituent(5)
    circles = [circle_substituent(3, kind) for kind in ("antipodal", "adjacent")]
    return {
        "cycle-4": ReversibleOperator.full(cycle_host(4)),
        "cycle-12": ReversibleOperator.full(cycle_host(12)),
        "relabelled-cycle-1500": ReversibleOperator.full(_relabelled_cycle(1500, rng)),
        "star-8": ReversibleOperator.full(star_host(8)),
        **{f"tree-{k}": ReversibleOperator.full(_random_tree(rng, rng.randint(2, 40))) for k in range(5)},
        "path-5-interior": ReversibleOperator.restricted(path5.graph, path5.interior),
        # the antipodal 6-circle's interior is two disjoint edges
        **{
            f"circle-{kind}-3-interior": ReversibleOperator.restricted(s.graph, s.interior)
            for kind, s in zip(("antipodal", "adjacent"), circles)
        },
        "single-vertex": ReversibleOperator.restricted(path5.graph, [2]),
    }


class TestBipartiteEigen:
    """A bipartite operator's eigenvalues are +- the singular values of its
    colour-class block; no dense symmetric solve runs."""

    @pytest.mark.parametrize("name", list(_bipartite_operators()))
    def test_values_and_multiplicities_match_eigvalsh(self, name, monkeypatch):
        op = _bipartite_operators()[name]
        want_values, want_mults = _clustered(np.linalg.eigvalsh(op.symmetrized())[::-1].tolist())
        calls = []
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(a.shape) or eigvalsh(a))
        dec = eigen(op)
        assert calls == []
        assert dec.multiplicities == want_mults
        assert max(abs(v - w) for v, w in zip(dec.values, want_values)) <= 1e-12
        assert dec.values == tuple(-v for v in reversed(dec.values))
        assert dec.multiplicities == dec.multiplicities[::-1]
        assert spectral_radius(op) == max(dec.values)

    def test_restricted_support_is_disconnected(self):
        s = circle_substituent(3, "antipodal")
        assert not s.graph.connected_on(s.interior)
        dec = eigen(ReversibleOperator.restricted(s.graph, s.interior))
        assert dec.multiplicities == (2, 2)

    def test_star_zeros_are_exact(self):
        dec = eigen(ReversibleOperator.full(star_host(8)))
        assert dec.multiplicities == (1, 6, 1)
        assert dec.values[1] == 0.0

    def test_odd_cycle_takes_eigvalsh(self, monkeypatch):
        op = ReversibleOperator.full(cycle_host(7))
        assert op.graph.bipartition() is None
        calls = []
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(a.shape) or eigvalsh(a))
        dec = eigen(op)
        assert calls == [(7, 7)]
        assert (dec.values, dec.multiplicities) == _clustered(eigvalsh(op.symmetrized())[::-1].tolist())
