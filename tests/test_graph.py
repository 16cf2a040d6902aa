import random
from fractions import Fraction

import pytest

from edgesub.errors import (
    EmptyInterior,
    GammaNotAutomorphism,
    GraphInvariantError,
    VMinusBDisconnected,
)
from edgesub.fixtures import chorded_square_substituent, cycle_host, path_host, path_substituent
from edgesub.graph import (
    Orientation,
    Substituent,
    WeightedGraph,
    _is_automorphism,
    find_gamma,
    fundamental_cycle_base,
    validate_substituent,
)

from randinst import random_host, random_substituent
from reference import cycle_walk, is_automorphism_per_pair, random_orientation

ONE = Fraction(1)


class TestWeightedGraph:
    def test_rejects_loops(self):
        with pytest.raises(GraphInvariantError):
            WeightedGraph(["x"], [(0, 0, ONE)])

    def test_rejects_nonpositive_weight(self):
        with pytest.raises(GraphInvariantError):
            WeightedGraph(["x", "y"], [(0, 1, Fraction(0))])

    def test_rejects_edgeless(self):
        # one vertex and no edge: m(x) = 0, so there is no walk
        with pytest.raises(GraphInvariantError, match="no edges"):
            WeightedGraph(["x"], [])

    def test_rejects_disconnected(self):
        with pytest.raises(GraphInvariantError):
            WeightedGraph(["x", "y", "z"], [(0, 1, ONE)])

    def test_measure_and_conductance(self):
        g = WeightedGraph(["x", "y", "z"], [(0, 1, ONE), (1, 2, Fraction(1, 2)), (0, 1, ONE)])
        assert g.conductance(0, 1) == Fraction(2)  # parallel edges summed
        assert g.m(1) == Fraction(5, 2)
        assert g.degree(1) == 3

        # two cycles through vertex 2, a doubled and a tripled edge
        edges = [
            (0, 1, ONE), (1, 2, Fraction(1, 3)), (2, 0, Fraction(2)), (1, 0, Fraction(1, 2)),
            (2, 3, ONE), (3, 4, Fraction(3, 4)), (4, 2, ONE), (3, 4, ONE), (4, 3, Fraction(1, 5)),
        ]
        g = WeightedGraph(list("pqrst"), edges)
        for x in range(g.n):
            star = [k for k, (u, v, _) in enumerate(edges) if x in (u, v)]
            assert g.incident(x) == star
            assert g.degree(x) == len(star)
            assert g.neighbors(x) == sorted({u if v == x else v for u, v, _ in (edges[k] for k in star)})
            assert g.m(x) == sum(edges[k][2] for k in star)
            for y in range(g.n):
                assert g.conductance(x, y) == sum(
                    (c for u, v, c in edges if {u, v} == {x, y}), Fraction(0)
                )
        assert g.conductance(3, 4) == Fraction(39, 20)
        assert g.connected_on([0, 1, 2]) and g.connected_on([2, 3, 4])
        assert not g.connected_on([0, 1, 3, 4])
        assert g.connected_on([]) and g.connected_on([4])

    def test_bipartition(self):
        assert cycle_host(5).bipartition() is None
        assert cycle_host(5).delta_b == 0
        classes = cycle_host(6).bipartition()
        assert classes is not None
        g6 = cycle_host(6)
        for u, v, _ in g6.edges:
            assert (u in classes[0]) != (v in classes[0])
        single = WeightedGraph(["x", "y"], [(0, 1, ONE)])
        c = single.bipartition()
        assert sorted(map(len, c)) == [1, 1]


class TestSubstituentValidation:
    def test_chorded_square_is_valid(self):
        validate_substituent(chorded_square_substituent())

    def test_smallest_path_is_valid(self):
        validate_substituent(path_substituent(2))

    def test_triangle_with_ab_edge(self):
        # V minus b is still connected through the direct edge a-u
        g = WeightedGraph(["a", "b", "u"], [(0, 1, ONE), (0, 2, ONE), (1, 2, ONE)])
        s = Substituent(g, 0, 1, (1, 0, 2))
        validate_substituent(s)

    def test_bad_gamma_weights(self):
        g = WeightedGraph(
            ["a", "u", "b"], [(0, 1, ONE), (1, 2, Fraction(1, 2))]
        )
        s = Substituent(g, 0, 2, (2, 1, 0))
        with pytest.raises(GammaNotAutomorphism):
            validate_substituent(s)

    def test_v_minus_b_disconnected(self):
        # path u-a-w-b-v: the mirror swap of a and b is an automorphism,
        # but removing b isolates the pendant v
        g = WeightedGraph(
            ["u", "a", "w", "b", "v"],
            [(0, 1, ONE), (1, 2, ONE), (2, 3, ONE), (3, 4, ONE)],
        )
        gamma = (4, 3, 2, 1, 0)
        with pytest.raises(VMinusBDisconnected):
            validate_substituent(Substituent(g, 1, 3, gamma))

    def test_empty_interior(self):
        g = WeightedGraph(["a", "b"], [(0, 1, ONE)])
        with pytest.raises(EmptyInterior):
            validate_substituent(Substituent(g, 0, 1, (1, 0)))

    def test_find_gamma(self):
        s = path_substituent(3)
        found = find_gamma(s.graph, 0, 3)
        assert found == (3, 2, 1, 0)


class TestAutomorphism:
    """The mapped-adjacency test gives the per-pair predicate's answer."""

    @staticmethod
    def _graphs(rng):
        for _ in range(40):
            s = random_substituent(rng, max_v=9)
            yield s.graph, s.gamma
        for _ in range(20):
            g = random_host(rng, max_n=8)
            yield g, tuple(range(g.n))

    @staticmethod
    def _agree(g, perm):
        got = _is_automorphism(g, perm)
        assert got == is_automorphism_per_pair(g, perm)
        return got

    def test_random_permutations(self):
        rng = random.Random(81)
        for g, gamma in self._graphs(rng):
            assert self._agree(g, gamma)
            for _ in range(10):
                perm = list(range(g.n))
                rng.shuffle(perm)
                self._agree(g, perm)

    def test_non_bijections(self):
        rng = random.Random(82)
        for g, gamma in self._graphs(rng):
            repeated = list(gamma)
            repeated[rng.randrange(g.n)] = gamma[rng.randrange(g.n)]
            for perm in (repeated, gamma[:-1], (*gamma, g.n), [v + 1 for v in gamma]):
                if sorted(perm) != list(range(g.n)):
                    assert not self._agree(g, perm)

    def test_one_conductance_changed(self):
        rng = random.Random(83)
        for g, gamma in self._graphs(rng):
            edges = list(g.edges)
            k = rng.randrange(len(edges))
            u, v, c = edges[k]
            edges[k] = (u, v, c + Fraction(1, rng.randint(1, 3)))
            changed = WeightedGraph(list(g.vertices), edges)
            # a non-identity gamma maps the changed edge onto one it no
            # longer matches, unless gamma fixes that edge
            fixes = {gamma[u], gamma[v]} == {u, v}
            assert self._agree(changed, gamma) == fixes


class TestCycleBase:
    def test_tree_has_no_cycles(self):
        base = fundamental_cycle_base(path_host(5))
        assert base.cycles == ()
        assert len({e for _, e in base.parent.values()}) == 4

    def test_five_cycle(self):
        base = fundamental_cycle_base(cycle_host(5))
        assert len(base.cycles) == 1
        _, edges = cycle_walk(base, base.cycles[0])
        assert len(edges) == 5
        assert len(edges) % 2 == 1

    def test_theta_graph_parallel_edges(self):
        g = WeightedGraph(["x", "y"], [(0, 1, ONE), (0, 1, ONE), (0, 1, ONE)])
        base = fundamental_cycle_base(g)
        assert len(base.cycles) == 2
        lengths = [len(cycle_walk(base, k)[1]) for k in base.cycles]
        assert all(n == 2 and n % 2 == 0 for n in lengths)

    def test_count_formula_random(self):
        rng = random.Random(7)
        for _ in range(20):
            n = rng.randint(2, 8)
            edges = [(rng.randrange(v), v, ONE) for v in range(1, n)]
            for _ in range(rng.randint(0, 4)):
                u, v = rng.randrange(n), rng.randrange(n)
                if u != v:
                    edges.append((u, v, ONE))
            g = WeightedGraph(list(range(n)), edges)
            base = fundamental_cycle_base(g)
            assert len(base.cycles) == g.num_edges - g.n + 1
            tree = {e for _, e in base.parent.values()}
            for k in base.cycles:
                verts, edges = cycle_walk(base, k)
                assert verts[0] == verts[-1] and len(verts) == len(edges) + 1
                non_tree = [e for e in edges if e not in tree]
                assert non_tree == [k]


class TestOrientation:
    def test_default_heads_are_smaller_endpoint(self):
        g = cycle_host(4)
        orient = Orientation.default(g)
        for k, (u, v, _) in enumerate(g.edges):
            assert orient.ea(k) == min(u, v)
            assert {orient.ea(k), orient.eb(k)} == {u, v}

    def test_random_orientation_consistent(self):
        g = cycle_host(5)
        orient = random_orientation(g, random.Random(1))
        for k, (u, v, _) in enumerate(g.edges):
            assert {orient.ea(k), orient.eb(k)} == {u, v}

    @pytest.mark.parametrize(
        "heads",
        [(0, 1, 2, 9), (0, 1, 2, 1), (0, 1), (0, 1, 2, 3, 0)],
        ids=["head-out-of-range", "head-not-an-endpoint", "too-few", "too-many"],
    )
    def test_heads_must_be_endpoints_of_their_edges(self, heads):
        # edge 3 of cycle-4 is (3, 0): vertex 1 is a vertex of the host but not of the edge
        with pytest.raises(GraphInvariantError):
            Orientation(cycle_host(4), heads)
