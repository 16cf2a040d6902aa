"""Random hosts and substituents for property and conservation tests."""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import islice

from edgesub.errors import EdgeSubError
from edgesub.graph import Substituent, WeightedGraph, validate_substituent


def rand_weight(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(1, 4), rng.randint(1, 4))


def random_host(rng: random.Random, max_n: int = 7, min_n: int = 2) -> WeightedGraph:
    """Random connected weighted graph: a tree plus a few extra edges."""
    n = rng.randint(min_n, max_n)
    edges = []
    for v in range(1, n):
        edges.append((rng.randrange(v), v, rand_weight(rng)))
    for _ in range(rng.randint(0, 3)):
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            edges.append((min(u, v), max(u, v), rand_weight(rng)))
    return WeightedGraph([f"x{k}" for k in range(n)], edges)


def random_substituent(rng: random.Random, max_v: int = 8, min_interior: int = 1) -> Substituent:
    """Random valid substituent with a symmetry-respecting weight pattern."""
    while True:
        k = rng.randint(min_interior, max_v - 2)
        n = k + 2
        interior = list(range(2, n))

        perm = list(range(n))
        perm[0], perm[1] = 1, 0
        pool = interior[:]
        rng.shuffle(pool)
        while len(pool) >= 2 and rng.random() < 0.6:
            u, v = pool.pop(), pool.pop()
            perm[u], perm[v] = v, u
        gamma = tuple(perm)

        edges: dict[tuple[int, int], Fraction] = {}
        for u in range(n):
            for v in range(u + 1, n):
                if rng.random() < 0.45:
                    w = rand_weight(rng)
                    gu, gv = gamma[u], gamma[v]
                    edges[(u, v)] = w
                    edges[(min(gu, gv), max(gu, gv))] = w
        edge_list = [(u, v, w) for (u, v), w in edges.items()]
        try:
            g = WeightedGraph([f"w{i}" for i in range(n)], edge_list)
            s = Substituent(g, 0, 1, gamma)
            validate_substituent(s)
        except EdgeSubError:
            continue
        return s


def sweep_instances(seed: int, count: int):
    """The first `count` (host, substituent) pairs of one `random.Random(seed)`,
    with |X| <= 12 and |V| <= 10: the recipe of the oracle sweep."""
    rng = random.Random(seed)
    for _ in range(count):
        yield random_host(rng, max_n=12), random_substituent(rng, max_v=10)


def sweep_instance(seed: int, index: int):
    """The index-th (host, substituent) pair of `sweep_instances(seed, ...)`."""
    return next(islice(sweep_instances(seed, index + 1), index, None))


def relabel_substituent(s: Substituent, rng: random.Random) -> Substituent:
    """The same substituent with shuffled vertex order, edge order and edge
    direction: the relabelling the benchmark applies to fixture shapes."""
    g = s.graph
    perm = list(range(g.n))
    rng.shuffle(perm)
    labels = [None] * g.n
    for old, new in enumerate(perm):
        labels[new] = g.vertices[old]
    edges = [
        (perm[u], perm[v], c) if rng.random() < 0.5 else (perm[v], perm[u], c)
        for u, v, c in g.edges
    ]
    rng.shuffle(edges)
    gamma = [0] * g.n
    for v in range(g.n):
        gamma[perm[v]] = perm[s.gamma[v]]
    return Substituent(WeightedGraph(labels, edges), perm[s.a], perm[s.b], tuple(gamma))
