import math
import random
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgesub.algebra import Polynomial, real_roots_in_interval
from edgesub.assemble import _PROVENANCE, assemble, interior_multiplicity, solve_S1, solve_S2
from edgesub.classify import classify_Qinterior, cluster_types
from edgesub.errors import InvalidTypeCombination
from edgesub.fixtures import (
    chorded_square_substituent,
    circle_substituent,
    cycle_host,
    path_host,
    path_substituent,
    star_host,
)
from edgesub.graph import Orientation, Substituent, WeightedGraph, fundamental_cycle_base
from edgesub.operators import CLUSTER_TOL, ReversibleOperator
from edgesub.oracle import direct_spectrum
from edgesub.substitution import substitute
from edgesub.transfer import compute_transfer

from randinst import random_host, random_substituent, sweep_instance, sweep_instances
from reference import assemble_per_object, cycle_walk, euclid_gcd, interior_multiplicity_cells
from test_classify import _fixture_substituents


def _run(X, s, **kw):
    return assemble(X, Orientation.default(X), s, **kw)


def _oracle_agrees(result, tol=1e-7):
    dec = direct_spectrum(result.substituted)
    a = sorted(result.report.multiset())
    d = sorted(dec.value_multiset())
    if len(a) != len(d):
        return False
    return all(abs(x - y) <= tol and m == n for (x, m), (y, n) in zip(a, d))


class TestChordedSquareOnPentagon:
    """The worked five-cycle example with closed-form eigenvalues."""

    def setup_method(self):
        self.result = _run(cycle_host(5), chorded_square_substituent())

    def test_closed_forms(self):
        r5 = math.sqrt(5)
        expected = sorted(
            [
                (1.0, 1),
                ((1 + math.sqrt(10 + 3 * r5)) / 6, 2),
                ((1 + math.sqrt(10 - 3 * r5)) / 6, 2),
                (-1 / 3, 5),
                ((1 - math.sqrt(10 - 3 * r5)) / 6, 2),
                ((1 - math.sqrt(10 + 3 * r5)) / 6, 2),
                (-2 / 3, 1),
            ]
        )
        got = sorted(self.result.report.multiset())
        assert len(got) == len(expected)
        for (gv, gn), (ev, en) in zip(got, expected):
            assert abs(gv - ev) < 1e-9
            assert gn == en

    def test_totals(self):
        rep = self.result.report
        assert rep.total == rep.expected_total == 15

    def test_exceptional_set(self):
        # the pentagon is odd-unicyclic; 1/3 is dropped by the unicyclic rule
        rep = self.result.report
        assert rep.host_is_odd_unicyclic and not rep.host_is_tree
        assert len(rep.exc) == 1
        value, rule = rep.exc[0]
        assert abs(value - 1 / 3) < 1e-9 and rule == "B"

    def test_no_S2(self):
        assert not any(
            "S2" in p for e in self.result.report.entries for p in e.provenance
        )

    def test_gap(self):
        lam1, lam1_star = self.result.report.gap
        assert abs(lam1 - math.cos(2 * math.pi / 5)) < 1e-12
        assert abs(lam1_star - (1 + math.sqrt(10 + 3 * math.sqrt(5))) / 6) < 1e-9
        second = sorted(self.result.report.values(), reverse=True)[1]
        assert abs(lam1_star - second) < 1e-9

    def test_oracle(self):
        assert _oracle_agrees(self.result)

    def test_interior_provenance(self):
        interior = [
            e
            for e in self.result.report.entries
            if any(p.startswith("Interior") for p in e.provenance)
        ]
        assert len(interior) == 1
        assert abs(interior[0].value + 1 / 3) < 1e-9
        assert interior[0].nu == 5
        assert "(I, I°)" in interior[0].provenance[0]


class TestMultiplicityTable:
    def test_row_zero(self):
        assert interior_multiplicity("0", "II", 1, 4, 6, 1) == 3
        assert interior_multiplicity("0", "III", 1, 4, 6, 0) == 3
        assert interior_multiplicity("0", "IV", 1, 4, 6, 0) == 8

    def test_row_zero_type_I_is_impossible(self):
        with pytest.raises(InvalidTypeCombination):
            interior_multiplicity("0", "I", 1, 4, 6, 0)

    def test_unknown_pair(self):
        with pytest.raises(InvalidTypeCombination):
            interior_multiplicity("V", "I", 1, 4, 6, 0)

    def test_negative_count_raises(self):
        # (0, II°) is E - X + delta_b = 3 - 5 + 0 on sizes no host has
        with pytest.raises(InvalidTypeCombination, match=r"\(0, II°\).*-2"):
            interior_multiplicity("0", "II", 1, 5, 3, 0)

    def test_nu_o_scaling(self):
        # doubling the interior multiplicity adds E per unit in every cell
        for row in ("I", "II", "III", "IV"):
            for col in ("I", "II", "III", "IV"):
                one = interior_multiplicity(row, col, 1, 5, 7, 0)
                two = interior_multiplicity(row, col, 2, 5, 7, 0)
                assert two - one == 7

    def test_row_IV_dominates(self):
        # a swapped Q-pair never loses dimension to the host
        for col, extra in (("I", 4), ("II", 1), ("III", 1), ("IV", 0)):
            assert interior_multiplicity("IV", col, 1, 4, 6, 1) >= 6

    def test_every_cell_equals_the_dict_of_cells(self):
        # the coefficient table against the dict it replaced, value or message
        def outcome(fn, *args):
            try:
                return fn(*args)
            except InvalidTypeCombination as exc:
                return str(exc)

        checked = 0
        for row in ("0", "I", "II", "III", "IV", "V"):
            for col in ("I", "II", "III", "IV"):
                for nu_o in (1, 2, 3):
                    for n_X in (2, 3, 5):
                        for n_E in (1, 2, 4, 7):
                            for delta_b in (0, 1):
                                args = (row, col, nu_o, n_X, n_E, delta_b)
                                got = outcome(interior_multiplicity, *args)
                                assert got == outcome(interior_multiplicity_cells, *args), args
                                assert type(got) in (int, str)
                                checked += isinstance(got, str) and "negative" in got
        assert checked > 0


class TestExceptionalRules:
    def test_tree_host_rule_A(self):
        result = _run(star_host(4), chorded_square_substituent())
        rep = result.report
        assert rep.host_is_tree
        assert [(round(v, 9), r) for v, r in rep.exc] == [(round(1 / 3, 9), "A")]
        assert _oracle_agrees(result)

    def test_odd_unicyclic_rule_B_coincident(self):
        # adjacent circle on a triangle: two interior values coincide with
        # simple type-III eigenvalues of Q and drop out
        result = _run(cycle_host(3), circle_substituent(3, "adjacent"))
        rep = result.report
        assert rep.host_is_odd_unicyclic
        rules = {r for _, r in rep.exc}
        assert rules == {"B"}
        assert _oracle_agrees(result)

    def test_even_cycle_host_has_no_exceptions(self):
        result = _run(cycle_host(4), chorded_square_substituent())
        assert result.report.exc == []
        assert _oracle_agrees(result)

    @staticmethod
    def _zero_count_values(result):
        """The interior values whose table count is 0: the candidates the
        host drops."""
        X = result.host
        out = []
        for t in result.classified_interior:
            qt = next((q for q in result.classified_Q if abs(q.value - t.value) <= CLUSTER_TOL), None)
            row = qt.type if qt is not None else "0"
            if interior_multiplicity(row, t.type, t.nu, X.n, X.num_edges, X.delta_b) == 0:
                out.append(t.value)
        return out

    @pytest.mark.parametrize("seed, index", [(1, 20), (4, 239)])
    def test_single_edge_host_lists_the_dropped_IV_value(self, seed, index):
        # an interior IV° value with no Q row counts 2|E| - |X| = 0 on one edge
        result = _run(*sweep_instance(seed, index))
        X = result.host
        assert (X.n, X.num_edges) == (2, 1)
        q_values = [q.value for q in result.classified_Q]
        dropped = [
            t.value
            for t in result.classified_interior
            if t.type == "IV" and all(abs(v - t.value) > CLUSTER_TOL for v in q_values)
        ]
        assert dropped
        assert all((v, "A") in result.report.exc for v in dropped)
        assert [v for v, _ in result.report.exc] == self._zero_count_values(result)
        assert _oracle_agrees(result)

    def test_exc_is_where_the_table_count_is_0(self):
        for X, s in sweep_instances(1, 338):
            result = _run(X, s, build_families=False)
            assert [v for v, _ in result.report.exc] == self._zero_count_values(result)


class TestS2:
    def test_adjacent_circle_on_square(self):
        result = _run(cycle_host(4), circle_substituent(2, "adjacent"))
        s2 = [
            e
            for e in result.report.entries
            if any(p == "S2" or "S2" in p for p in e.provenance)
        ]
        assert len(s2) == 1
        assert abs(s2[0].value - math.cos(math.pi / 2)) < 1e-9
        assert s2[0].nu == 4  # multiplicity |X|
        assert _oracle_agrees(result)

    def test_adjacent_circle_L3(self):
        result = _run(cycle_host(3), circle_substituent(3, "adjacent"))
        s2 = sorted(
            e.value
            for e in result.report.entries
            if any("S2" in p for p in e.provenance)
        )
        expect = sorted(math.cos(k * math.pi / 3) for k in (1, 2))
        assert len(s2) == 2
        for got, want in zip(s2, expect):
            assert abs(got - want) < 1e-9
        # psi vanishes and theta is fixed there, so the transfer quotient
        # cannot produce these points
        tf = result.transfer
        for v in s2:
            assert abs(tf.psi.num.eval_float(v) / tf.psi.den.eval_float(v)) < 1e-9

    def test_path_substituent_has_no_S2(self):
        result = _run(cycle_host(4), path_substituent(4))
        assert not any(
            "S2" in p for e in result.report.entries for p in e.provenance
        )

    def test_equals_the_type_rule(self):
        # the eigenvalues of Q of type IV with nu = 2 outside the interior
        # spectrum are the roots of gcd(psi, z - theta) there, found exactly
        rng = random.Random(5)
        subs = [chorded_square_substituent()] + [path_substituent(L) for L in (2, 3, 4, 7)]
        subs += [circle_substituent(L, kind) for L in (2, 3, 4, 5) for kind in ("antipodal", "adjacent")]
        subs += [random_substituent(rng, max_v=10) for _ in range(300)]
        nonempty = 0
        for s in subs:
            interior = np.array([t.value for t in classify_Qinterior(s)])
            tf = compute_transfer(s)
            common = Polynomial(euclid_gcd(tf.psi.num.coeffs, tf.z_minus_theta.num.coeffs))
            want = [
                root for root in real_roots_in_interval(common, -1, 1)
                if all(abs(root - mu) > CLUSTER_TOL for mu in interior)
            ]
            got = solve_S2(cluster_types(s, "Q"), interior)
            assert len(got) == len(want)
            assert all(abs(g - w) < 1e-12 for g, w in zip(got, want))
            nonempty += bool(len(got))
        assert nonempty >= 10


class TestPathSubstituents:
    @pytest.mark.parametrize("L", [2, 3, 4, 5])
    def test_paths_on_cycle(self, L):
        result = _run(cycle_host(4), path_substituent(L))
        rep = result.report
        assert rep.total == rep.expected_total == 4 + 4 * (L - 1)
        assert _oracle_agrees(result)

    @pytest.mark.parametrize("L", [2, 4, 6])
    def test_even_length_counts(self, L):
        # even-length path pieces on a bipartite host: S1 contributes
        # 2 + (|X| - 1 - delta_b) L points and the interior the rest
        X = cycle_host(4)
        result = _run(X, path_substituent(L))
        s1 = [
            e
            for e in result.report.entries
            if any(p.startswith("S1") for p in e.provenance)
        ]
        interior = [
            e
            for e in result.report.entries
            if any(p.startswith("Interior") for p in e.provenance)
        ]
        n_X, n_E, d = X.n, X.num_edges, X.delta_b
        assert sum(e.nu for e in s1) == 2 + (n_X - 1 - d) * L
        expect_interior = (n_E - n_X + 2 * d) * L // 2 + (n_E - n_X + 2) * (L - 2) // 2
        assert sum(e.nu for e in interior) == expect_interior


class TestEdgeCases:
    def test_single_edge_host_gives_substituent_spectrum(self):
        from fractions import Fraction

        X = WeightedGraph(["x0", "x1"], [(0, 1, Fraction(1))])
        s = chorded_square_substituent()
        result = _run(X, s)
        got = sorted(result.report.multiset())
        want = sorted(zip(result.spec_Q.values.tolist(), result.spec_Q.nu.tolist()))
        assert len(got) == len(want)
        for (gv, gn), (wv, wn) in zip(got, want):
            assert abs(gv - wv) < 1e-9 and gn == wn
        assert result.report.gap is None  # too small a host for the gap bound

    def test_disconnected_interior_negative_lambda1_skips_gap(self):
        # antipodal circle of length 2: the interior splits into two points
        result = _run(path_host(4), circle_substituent(2, "antipodal"))
        s = result.substituted.substituent
        assert not s.graph.connected_on(s.interior)
        lam1 = result.spec_P.values[1]
        if lam1 < 0:
            assert result.report.gap is None

    def test_random_instances_match_oracle(self):
        rng = random.Random(101)
        done = 0
        while done < 6:
            X = random_host(rng, max_n=5)
            s = random_substituent(rng, max_v=6)
            result = _run(X, s)
            assert result.report.total == result.report.expected_total
            assert _oracle_agrees(result)
            done += 1

    def test_gap_second_entry_consistency(self):
        for X, s in (
            (cycle_host(5), chorded_square_substituent()),
            (cycle_host(4), path_substituent(3)),
            (star_host(4), path_substituent(2)),
        ):
            result = _run(X, s)
            if result.report.gap is None:
                continue
            lam1, lam1_star = result.report.gap
            assert abs(lam1 - result.spec_P.values[1]) < 1e-12
            second = sorted(result.report.values(), reverse=True)[1]
            assert abs(lam1_star - second) < 1e-9
            assert abs(result.transfer.phi.eval_float(lam1_star) - lam1) < 1e-8


class TestLazySubstitutedGraph:
    def test_spectrum_only_builds_no_substituted_graph(self, monkeypatch):
        module = sys.modules["edgesub.assemble"]

        def refuse(*args, **kwargs):
            raise AssertionError("spectrum-only assemble must not build it")

        X, s = cycle_host(7), chorded_square_substituent()
        with monkeypatch.context() as patch:
            patch.setattr(module, "substitute", refuse)
            patch.setattr(module, "fundamental_cycle_base", refuse)
            result = _run(X, s, build_families=False)
        assert result.report.total == result.report.expected_total
        want = substitute(X, Orientation.default(X), s)
        assert result.substituted.graph == want.graph
        assert result.substituted is result.substituted
        assert result.cycle_base.cycles == fundamental_cycle_base(X).cycles

    def test_host_flags_agree_with_the_cycle_base(self):
        one = Fraction(1)
        hosts = {
            "tree": star_host(5),
            "odd-unicyclic": WeightedGraph(
                list(range(5)), [(0, 1, one), (1, 2, one), (2, 0, one), (2, 3, one), (3, 4, one)]
            ),
            "even-unicyclic": cycle_host(6),
            "multi-cycle": WeightedGraph(
                list(range(5)),
                [(0, 1, one), (1, 2, one), (2, 0, one), (2, 3, one), (3, 4, one), (4, 2, one)],
            ),
            "parallel-edge": WeightedGraph(
                list(range(3)), [(0, 1, one), (1, 0, Fraction(1, 2)), (1, 2, one)]
            ),
            "parallel-edge-and-odd-cycle": WeightedGraph(
                list(range(3)), [(0, 1, one), (1, 2, one), (2, 0, one), (1, 2, Fraction(2))]
            ),
        }
        shapes = set()
        for name, X in hosts.items():
            base = fundamental_cycle_base(X)
            cycles = base.cycles
            want = (len(cycles) == 0, len(cycles) == 1 and len(cycle_walk(base, cycles[0])[1]) % 2 == 1)
            report = _run(X, path_substituent(2), build_families=False).report
            assert (report.host_is_tree, report.host_is_odd_unicyclic) == want, name
            shapes.add(want)
        assert shapes == {(True, False), (False, True), (False, False)}


class TestHostEigenvectorsOnlyWhenRead:
    def test_spectrum_only_solves_no_host_eigenvectors(self, monkeypatch):
        X, s = cycle_host(300), path_substituent(3)
        shapes = []
        eigh = np.linalg.eigh

        def recorded(a, *args, **kwargs):
            shapes.append(a.shape)
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", recorded)
        result = _run(X, s, build_families=False)
        assert all(shape[0] < X.n for shape in shapes)
        # the host's bases are computed now, on first access, by one eigh,
        # and then cached
        assert result.spec_P.bases is result.spec_P.bases
        assert shapes.count((X.n, X.n)) == 1

    def test_bipartite_host_values_from_one_half_size_svd(self, monkeypatch):
        # cycle-300 is bipartite: its eigenvalues are +- the singular values
        # of the 150 x 150 block between its colour classes
        X, s = cycle_host(300), path_substituent(3)
        shapes = {"eigvalsh": [], "eigh": [], "svd": []}

        def record(name):
            original = getattr(np.linalg, name)

            def recorded(a, *args, **kwargs):
                shapes[name].append(a.shape)
                return original(a, *args, **kwargs)

            monkeypatch.setattr(np.linalg, name, recorded)

        for name in shapes:
            record(name)
        _run(X, s, build_families=False)
        # S1 takes eigvalsh of small stacked arrowhead matrices only
        assert [shape for shape in shapes["eigvalsh"] if shape[-1] >= X.n // 2] == []
        assert all(shape[0] < X.n for shape in shapes["eigh"])
        assert [shape for shape in shapes["svd"] if max(shape) >= X.n // 2] == [(150, 150)]

    def test_host_bases_when_read_are_eigenbases(self):
        X, s = cycle_host(300), path_substituent(3)
        spec_P = _run(X, s, build_families=True).spec_P
        p = ReversibleOperator.full(X).matrix_float()
        for k, (lam, nu) in enumerate(spec_P.value_multiset()):
            h = spec_P.bases[k]
            assert h.shape == (X.n, nu)
            assert np.max(np.abs(p @ h - lam * h)) <= 1e-10


class TestS1AgainstOracle:
    """Inputs with touching roots and high-degree phi, which a float grid
    scan of num - lambda den could not solve."""

    @pytest.mark.parametrize("host", [cycle_host(6), star_host(5), path_host(4)], ids=["cycle-6", "star-5", "path-4"])
    @pytest.mark.parametrize(
        "sub",
        [
            path_substituent(15),
            path_substituent(16),
            path_substituent(24),
            circle_substituent(7, "antipodal"),
            circle_substituent(6, "adjacent"),
        ],
        ids=["path-15", "path-16", "path-24", "circle-antipodal-7", "circle-adjacent-6"],
    )
    def test_long_substituents(self, host, sub):
        result = _run(host, sub, build_families=False)
        assert _oracle_agrees(result, tol=1e-9)
        assert result.report.gap is not None

    @pytest.mark.parametrize("index", [23, 69, 144])
    def test_random_instances_the_grid_scan_failed(self, index):
        # seed 1: instances 23 and 69 raised GridTooCoarse, 144 TotalMismatch
        result = _run(*sweep_instance(1, index), build_families=False)
        assert _oracle_agrees(result, tol=1e-9)

    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_random_instances_match_oracle(self, seed):
        rng = random.Random(seed)
        X = random_host(rng, max_n=12)
        s = random_substituent(rng, max_v=10)
        assert _oracle_agrees(_run(X, s, build_families=False), tol=1e-9)

    @pytest.mark.parametrize("max_v, min_interior", [(16, 10), (22, 14)])
    def test_large_interiors(self, max_v, min_interior):
        # |V°| from 10 to 20: phi of degree up to ~20 rendered in floats lost
        # roots (TotalMismatch) or moved them by up to 4e-6 on 9 of these pairs
        rng = random.Random(1)
        for _ in range(10):
            X = random_host(rng, max_n=12, min_n=3)
            s = random_substituent(rng, max_v=max_v, min_interior=min_interior)
            assert _oracle_agrees(_run(X, s, build_families=False), tol=1e-8)

    def test_path_with_alternating_conductances(self):
        # path-9 with conductances 10, 1/10, ..., 10 on the 7-cycle: the S1
        # root z = 1 for lambda = 1 went missing (62 of 63 eigenvalues)
        c = [Fraction(10) if k % 2 == 0 else Fraction(1, 10) for k in range(9)]
        g = WeightedGraph([f"v{k}" for k in range(10)], [(k, k + 1, c[k]) for k in range(9)])
        s = Substituent(g, 0, 9, tuple(9 - k for k in range(10)))
        assert _oracle_agrees(_run(cycle_host(7), s, build_families=False), tol=1e-8)

    @pytest.mark.parametrize(
        "seed, index",
        [(2, 96), (2, 388), (1, 290), (2, 290), (3, 46), (4, 32), (4, 213), (1, 153), (8, 259), (12, 169)],
        ids=lambda v: str(v),
    )
    def test_roots_next_to_counted_points(self, seed, index):
        # genuine S1 roots near an interior eigenvalue mu or a zero of psi,
        # which dropping every root within 1e-8 of such a point loses.
        # (2, 96): phi(0) = 0 at a (I, I°) point, which the table does not
        # count; (2, 388): roots 6e-9 from a plain zero of psi; (1, 153): six
        # roots for lambda != -1 within 1e-8 of a type-II° mu next to a pole
        # of phi; (8, 259) and (12, 169): a type-II° mu in Q row II, where
        # the table counts the roots for lambda = +1 and -1 only
        result = _run(*sweep_instance(seed, index), build_families=False)
        assert _oracle_agrees(result, tol=1e-8)


# the three chains of proximity merges on the sweep (ROADMAP F4): entries
# whose first value takes in roots up to the next entry
F4_CHAINS = [(2, 175), (3, 147), (4, 195)]


def _assert_report_matches_the_per_object_path(X, s):
    result = _run(X, s, build_families=False)
    want = assemble_per_object(X, s)
    got = result.report
    assert got.to_text() == want.to_text()
    assert [(e.value, e.nu, e.provenance) for e in got.entries] == [
        (e.value, e.nu, e.provenance) for e in want.entries
    ]
    assert got.exc == want.exc
    assert got.gap == want.gap
    return result


class TestArrayReportAgainstThePerObjectPath:
    """The report built on arrays has the entries, exceptional set, gap and
    text of the per-object path, bitwise."""

    def test_sweep_seed_1(self):
        for X, s in sweep_instances(1, 338):
            _assert_report_matches_the_per_object_path(X, s)

    @pytest.mark.parametrize("seed, index", F4_CHAINS, ids=str)
    def test_merge_chains(self, seed, index):
        result = _assert_report_matches_the_per_object_path(*sweep_instance(seed, index))
        assert any(e.provenance.count("MergedProvenance") for e in result.report.entries)

    def test_workload_fixtures(self):
        subs = [path_substituent(L) for L in (2, 3, 4, 5, 10, 15)] + [chorded_square_substituent()]
        subs += [circle_substituent(L, p) for L in (2, 3) for p in ("antipodal", "adjacent")]
        subs += [circle_substituent(7, "antipodal"), circle_substituent(6, "adjacent")]
        for s in subs:
            for X in (cycle_host(6), cycle_host(7), path_host(5), star_host(5)):
                _assert_report_matches_the_per_object_path(X, s)

    def test_fixture_grid(self):
        """Path hosts 2-6, star hosts 3-6 and cycle hosts 3-7, each with every
        fixture substituent: trees and odd-unicyclic hosts with exceptional
        values of rules A and B, and even cycles with none."""
        hosts = [path_host(n) for n in range(2, 7)] + [star_host(n) for n in range(3, 7)]
        rules = set()
        for X in hosts + [cycle_host(n) for n in range(3, 8)]:
            for s in _fixture_substituents():
                rules |= {rule for _, rule in _assert_report_matches_the_per_object_path(X, s).report.exc}
        assert rules == {"A", "B"}


class TestSpectrumOnlyBuildsNoObjects:
    """Spectrum-only `assemble` reads the typing arrays alone: the normal
    forms and the report entries are built on first read."""

    def _record_s1(self, monkeypatch):
        found = []

        def recorded(*args):
            found.append(solve_S1(*args))
            return found[-1]

        # the package rebinds edgesub.assemble to the function of that name
        monkeypatch.setattr(sys.modules["edgesub.assemble"], "solve_S1", recorded)
        return found

    def test_classified_lists_and_entries_unbuilt(self, monkeypatch):
        found = self._record_s1(monkeypatch)
        for X, s in sweep_instances(1, 60):
            found.clear()
            result = _run(X, s, build_families=False)
            assert not {"classified_Q", "classified_interior"} & set(result.__dict__)
            assert "entries" not in result.report.__dict__
            (s1,) = found
            # bench/spans.py counts assemble.s1_roots with len
            assert len(s1) == len(s1.roots) == int(np.sum(result.report.code == _PROVENANCE.index("S1")))
            assert result.classified_Q and "classified_Q" in result.__dict__

    def test_lam_index_is_the_host_cluster_of_each_root(self, monkeypatch):
        found = self._record_s1(monkeypatch)
        for X, s in [*sweep_instances(1, 100), *(sweep_instance(*c) for c in F4_CHAINS)]:
            found.clear()
            result = _run(X, s, build_families=False)
            (s1,) = found
            report, values = result.report, result.spec_P.values
            is_s1 = report.code == _PROVENANCE.index("S1")
            pairs = sorted(zip(report.value[is_s1].tolist(), report.lam_index[is_s1].tolist()))
            assert pairs == sorted(zip(s1.roots.tolist(), s1.lam_index.tolist()))
            for e in report.entries:
                labels = [p for p in e.provenance if p.startswith("S1")]
                assert len(labels) == len(e.lam_index)
                for label, k in zip(labels, e.lam_index):
                    assert f" = {values[k]:.6f}, nu_P={result.spec_P.multiplicities[k]}" in label
                if labels and len(e.provenance) == 1:
                    assert (e.value, e.lam_index[0]) in pairs
