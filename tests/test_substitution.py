import random
from fractions import Fraction

import numpy as np
import pytest

from edgesub.assemble import assemble
from edgesub.errors import GraphInvariantError
from edgesub.fixtures import (
    chorded_square_substituent,
    cycle_host,
    path_host,
    path_substituent,
    star_host,
)
from edgesub.graph import Orientation, WeightedGraph
from edgesub.operators import ReversibleOperator, eigen
from edgesub.substitution import substitute

from randinst import random_host, random_substituent, sweep_instances
from reference import is_stochastic, pi, random_orientation, reorient_equivalence_check

ONE = Fraction(1)


def _sub(X, s):
    return substitute(X, Orientation.default(X), s)


def _per_vertex_substitute(X, orient, s):
    """X[V] built one vertex at a time: the interior vertices of each edge's
    copy numbered in turn, then every edge of V mapped through that copy."""
    V = s.graph
    labels = list(X.vertices)
    index = {}
    for e in range(X.num_edges):
        for v in s.interior:
            index[(e, v)] = len(labels)
            labels.append(f"({e}:{V.vertices[v]})")
        index[(e, s.a)], index[(e, s.b)] = orient.ea(e), orient.eb(e)
    edges = [
        (index[(e, u)], index[(e, v)], X.edges[e][2] * c)
        for e in range(X.num_edges)
        for u, v, c in V.edges
    ]
    return WeightedGraph(labels, edges)


class TestConstruction:
    def test_chorded_square_on_pentagon_counts(self):
        sub = _sub(cycle_host(5), chorded_square_substituent())
        # |X| + |E_X| * |interior| vertices, |E_X| * |E_V| edges
        assert sub.graph.n == 5 + 5 * 2 == 15
        assert sub.graph.num_edges == 5 * 5 == 25

    def test_vertex_kinds_and_pi(self):
        rng = random.Random(19)
        pairs = [(cycle_host(4), chorded_square_substituent())] + [
            (random_host(rng, max_n=6), random_substituent(rng, max_v=7)) for _ in range(6)
        ]
        for X, s in pairs:
            sub = substitute(X, random_orientation(X, rng), s)
            for x in range(sub.graph.n):
                kind = sub.vertex_kind(x)
                if x < X.n:
                    assert kind == ("host", x)
                else:
                    assert kind[0] == "interior"
                    e, v = kind[1], kind[2]
                    assert pi(sub, e, v) == x
            block = sub.interior_block(np.arange(sub.graph.n))
            assert block.shape == (X.num_edges, len(s.interior))
            for e in range(X.num_edges):
                assert pi(sub, e, s.a) == sub.orientation.ea(e)
                assert pi(sub, e, s.b) == sub.orientation.eb(e)
                for i, v in enumerate(s.interior):
                    assert block[e, i] == pi(sub, e, v)
            assert sub.graph == _per_vertex_substitute(X, sub.orientation, s)

    def test_lazy_graph_equals_an_eager_build(self):
        # the layout knows |X[V]| before the graph exists, and the graph
        # built on first read has the eager build's vertices and edges in order
        rng = random.Random(23)
        for X, s in sweep_instances(2, 120):
            sub = substitute(X, random_orientation(X, rng), s)
            n = sub.n
            assert "graph" not in sub.__dict__
            want = _per_vertex_substitute(X, sub.orientation, s)
            assert n == sub.graph.n == want.n
            assert sub.graph.vertices == want.vertices
            assert sub.graph.edges == want.edges

    def test_edge_ends_are_the_oriented_endpoints(self):
        rng = random.Random(29)
        for X, s in sweep_instances(2, 120):
            o = random_orientation(X, rng)
            ends = substitute(X, o, s).edge_ends
            assert ends.shape == (X.num_edges, 2) and ends.dtype == np.intp
            assert ends.tolist() == [[o.ea(e), o.eb(e)] for e in range(X.num_edges)]

    def test_single_edge_host_reproduces_substituent(self):
        X = WeightedGraph(["x0", "x1"], [(0, 1, ONE)])
        s = chorded_square_substituent()
        sub = _sub(X, s)
        got = eigen(ReversibleOperator.full(sub.graph))
        want = eigen(ReversibleOperator.full(s.graph))
        assert got.multiplicities == want.multiplicities
        for a, b in zip(got.values, want.values):
            assert abs(a - b) < 1e-12

    def test_path_substitution_composes(self):
        # substituting a length-2 path into each edge of a 4-path gives a 7-path
        sub = _sub(path_host(4), path_substituent(2))
        direct = path_host(7)
        got = eigen(ReversibleOperator.full(sub.graph))
        want = eigen(ReversibleOperator.full(direct))
        got, want = (sorted(np.repeat(d.values, d.multiplicities)) for d in (got, want))
        assert np.allclose(got, want, atol=1e-10)

    def test_conductance_scaling(self):
        X = WeightedGraph(["x0", "x1"], [(0, 1, Fraction(5, 3))])
        s = path_substituent(2)
        sub = _sub(X, s)
        for _, _, c in sub.graph.edges:
            assert c == Fraction(5, 3)

    def test_measures(self):
        sub = _sub(cycle_host(3), chorded_square_substituent())
        s = sub.substituent
        V = s.graph
        X = sub.host
        for x in range(sub.graph.n):
            kind = sub.vertex_kind(x)
            if kind[0] == "host":
                assert sub.graph.m(x) == X.m(kind[1]) * V.m(s.a)
            else:
                e, v = kind[1], kind[2]
                assert sub.graph.m(x) == X.edges[e][2] * V.m(v)

    def test_exact_reversibility_and_conservation(self):
        rng = random.Random(13)
        for _ in range(5):
            X = random_host(rng, max_n=5)
            s = random_substituent(rng, max_v=6)
            sub = _sub(X, s)
            op = ReversibleOperator.full(sub.graph)
            assert is_stochastic(op)
            mat = op.matrix_exact()
            for i in range(op.dim):
                for j in range(op.dim):
                    assert op.measure(i) * mat[i][j] == op.measure(j) * mat[j][i]


class TestReorientation:
    def test_spectrum_is_orientation_independent(self):
        X = cycle_host(4)
        s = chorded_square_substituent()
        assert reorient_equivalence_check(X, s, trials=5, seed=0)

    def test_random_instances(self):
        rng = random.Random(17)
        for _ in range(3):
            X = random_host(rng, max_n=4)
            s = random_substituent(rng, max_v=5)
            assert reorient_equivalence_check(X, s, trials=4, seed=rng.randint(0, 99))


class TestOrientationOfTheHost:
    def test_orientation_of_another_graph_raises(self):
        wrong = Orientation.default(star_host(6))
        with pytest.raises(GraphInvariantError, match="orientation of another graph"):
            substitute(cycle_host(5), wrong, chorded_square_substituent())
        with pytest.raises(GraphInvariantError, match="orientation of another graph"):
            assemble(cycle_host(5), wrong, chorded_square_substituent())

    def test_orientation_of_an_equal_graph_is_accepted(self):
        X = cycle_host(5)
        sub = substitute(X, Orientation.default(cycle_host(5)), chorded_square_substituent())
        assert sub.graph.n == 15

    def test_spectrum_only_assemble_checks_the_orientation(self):
        # the spectrum never reads the orientation, but assemble builds the layout
        X, s = cycle_host(5), chorded_square_substituent()
        with pytest.raises(GraphInvariantError, match="orientation of another graph"):
            assemble(X, Orientation.default(star_host(6)), s, build_families=False)
        result = assemble(X, Orientation.default(cycle_host(5)), s, build_families=False)
        assert result.substituted.host is X
        assert result.report.total == result.substituted.n == 15
        assert "graph" not in result.substituted.__dict__
