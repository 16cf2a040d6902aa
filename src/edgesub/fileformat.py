"""Graph file format: JSON documents with exact fraction conductances.

A graph document has fields `vertices` (list of labels) and `edges` (list of
[labelA, labelB, "p/q"]).  A substituent document additionally has `a`, `b`
(labels) and `gamma` (list of [label, image-label] pairs).  Conductances may
be any fraction string on input and are written in lowest terms.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .errors import GraphFormatError
from .graph import Substituent, WeightedGraph


def _parse_fraction(text) -> Fraction:
    try:
        return Fraction(str(text))
    except (ValueError, ZeroDivisionError) as exc:
        raise GraphFormatError(f"bad conductance {text!r}") from exc


def _graph_from_doc(doc: dict) -> WeightedGraph:
    try:
        labels = list(doc["vertices"])
        raw_edges = doc["edges"]
    except (KeyError, TypeError) as exc:
        raise GraphFormatError("document needs 'vertices' and 'edges'") from exc
    if not isinstance(raw_edges, list):
        raise GraphFormatError(f"'edges' must be a list, not {raw_edges!r}")
    if len(set(map(str, labels))) != len(labels):
        raise GraphFormatError("duplicate vertex labels")
    index = {str(lbl): i for i, lbl in enumerate(labels)}
    edges = []
    for entry in raw_edges:
        try:
            la, lb, c = entry
        except (TypeError, ValueError) as exc:
            raise GraphFormatError(f"bad edge entry {entry!r}") from exc
        if str(la) not in index or str(lb) not in index:
            raise GraphFormatError(f"edge {entry!r} references unknown vertex")
        edges.append((index[str(la)], index[str(lb)], _parse_fraction(c)))
    return WeightedGraph(labels, edges)


def load_graph(text: str) -> WeightedGraph:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise GraphFormatError(str(exc)) from exc
    return _graph_from_doc(doc)


def load_substituent(text: str) -> Substituent:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise GraphFormatError(str(exc)) from exc
    g = _graph_from_doc(doc)
    index = {str(lbl): i for i, lbl in enumerate(g.vertices)}
    try:
        a = index[str(doc["a"])]
        b = index[str(doc["b"])]
        pairs = doc["gamma"]
    except (KeyError, TypeError) as exc:
        raise GraphFormatError("substituent needs 'a', 'b' and 'gamma'") from exc
    if not isinstance(pairs, list):
        raise GraphFormatError(f"'gamma' must be a list, not {pairs!r}")
    gamma = list(range(g.n))
    seen = set()
    for entry in pairs:
        try:
            src, dst = entry
        except (TypeError, ValueError) as exc:
            raise GraphFormatError(f"bad gamma pair {entry!r}") from exc
        if str(src) not in index or str(dst) not in index:
            raise GraphFormatError(f"gamma pair {entry!r} references unknown vertex")
        if index[str(src)] in seen:
            raise GraphFormatError(f"gamma pair {entry!r} repeats the source {src!r}")
        gamma[index[str(src)]] = index[str(dst)]
        seen.add(index[str(src)])
    return Substituent(g, a, b, tuple(gamma))


def dump_graph(g: WeightedGraph, substituent: Substituent | None = None, extra: dict | None = None) -> str:
    doc = {
        "vertices": [str(lbl) for lbl in g.vertices],
        "edges": [
            [str(g.vertices[u]), str(g.vertices[v]), str(c)] for u, v, c in g.edges
        ],
    }
    if substituent is not None:
        doc["a"] = str(g.vertices[substituent.a])
        doc["b"] = str(g.vertices[substituent.b])
        doc["gamma"] = [
            [str(g.vertices[v]), str(g.vertices[substituent.gamma[v]])]
            for v in range(g.n)
        ]
    if extra:
        doc.update(extra)
    return json.dumps(doc, indent=2)


def dump_substituent(s: Substituent) -> str:
    return dump_graph(s.graph, substituent=s)
