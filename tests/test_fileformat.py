import json
import random
from fractions import Fraction

import pytest

from edgesub.errors import GraphFormatError
from edgesub.fileformat import (
    dump_graph,
    dump_substituent,
    load_graph,
    load_substituent,
)
from edgesub.fixtures import chorded_square_substituent, cycle_host
from edgesub.graph import validate_substituent

from randinst import random_host, random_substituent
from reference import INVALID_SUBSTITUENTS


class TestRoundTrip:
    def test_graph_exact(self):
        g = cycle_host(5)
        back = load_graph(dump_graph(g))
        assert [str(v) for v in back.vertices] == [str(v) for v in g.vertices]
        assert back.edges == g.edges

    def test_fractions_survive(self):
        rng = random.Random(3)
        for _ in range(5):
            g = random_host(rng)
            back = load_graph(dump_graph(g))
            assert back.edges == g.edges
            for u, v, c in back.edges:
                assert isinstance(c, Fraction)

    def test_substituent_exact(self):
        s = chorded_square_substituent()
        back = load_substituent(dump_substituent(s))
        assert back.a == s.a and back.b == s.b
        assert back.gamma == s.gamma
        assert back.graph.edges == s.graph.edges
        validate_substituent(back)

    def test_random_substituents(self):
        rng = random.Random(5)
        for _ in range(5):
            s = random_substituent(rng)
            back = load_substituent(dump_substituent(s))
            assert back.gamma == s.gamma
            assert back.graph.edges == s.graph.edges


class TestErrors:
    @pytest.mark.parametrize("case", INVALID_SUBSTITUENTS, ids=[c.name for c in INVALID_SUBSTITUENTS])
    def test_invalid_substituent_raises_at_load(self, case):
        with pytest.raises(case.error):
            load_substituent(case.document())

    def test_invalid_json(self):
        with pytest.raises(GraphFormatError):
            load_graph("{not json")

    def test_missing_fields(self):
        with pytest.raises(GraphFormatError):
            load_graph(json.dumps({"vertices": ["x"]}))

    @pytest.mark.parametrize("edges", [5, None])
    def test_edges_not_a_list(self, edges):
        with pytest.raises(GraphFormatError, match="'edges' must be a list"):
            load_graph(json.dumps({"vertices": ["x", "y"], "edges": edges}))

    def test_duplicate_labels(self):
        with pytest.raises(GraphFormatError):
            load_graph(json.dumps({"vertices": ["x", "x"], "edges": [["x", "x", "1"]]}))

    def test_unknown_vertex_in_edge(self):
        with pytest.raises(GraphFormatError):
            load_graph(
                json.dumps({"vertices": ["x", "y"], "edges": [["x", "z", "1"]]})
            )

    def test_bad_conductance(self):
        with pytest.raises(GraphFormatError):
            load_graph(
                json.dumps({"vertices": ["x", "y"], "edges": [["x", "y", "1/0"]]})
            )

    def test_substituent_missing_gamma(self):
        doc = json.loads(dump_substituent(chorded_square_substituent()))
        del doc["gamma"]
        with pytest.raises(GraphFormatError):
            load_substituent(json.dumps(doc))

    def test_substituent_gamma_not_a_list(self):
        doc = json.loads(dump_substituent(chorded_square_substituent()))
        doc["gamma"] = 7
        with pytest.raises(GraphFormatError, match="'gamma' must be a list"):
            load_substituent(json.dumps(doc))

    def test_substituent_repeated_gamma_source(self):
        # without the check the last pair wins: gamma = a->b, b->a, u->u
        doc = {
            "vertices": ["a", "u", "b"],
            "edges": [["a", "u", "1"], ["u", "b", "1"]],
            "a": "a",
            "b": "b",
            "gamma": [["a", "u"], ["a", "b"], ["b", "a"], ["u", "u"]],
        }
        with pytest.raises(GraphFormatError, match="repeats the source"):
            load_substituent(json.dumps(doc))

    def test_substituent_bad_gamma_pair(self):
        doc = json.loads(dump_substituent(chorded_square_substituent()))
        doc["gamma"][0] = ["a", "nope"]
        with pytest.raises(GraphFormatError):
            load_substituent(json.dumps(doc))
