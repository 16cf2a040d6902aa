"""Seeded inputs of the three workloads.

Every instance is made here from the workload seed and serialized with
`edgesub.fileformat`, so the program receives only generated documents, as a
CLI user would hand them over.  Fixed shapes (cycle, star and path hosts,
path and circle substituents) are relabelled by the seed, except the
substituents of sub-long: vertex order, edge order and edge direction
change, the spectrum does not.  Random hosts and
substituents follow the recipe of the test suite's `randinst` helpers.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from edgesub import fixtures
from edgesub.errors import EdgeSubError
from edgesub.fileformat import dump_graph, dump_substituent
from edgesub.graph import Substituent, WeightedGraph, validate_substituent

# eigenbasis-mix: every seed gets the same plan of host sizes and substituent
# kinds and sizes, so the sum over instances varies little from seed to seed;
# the seed draws the structure, the weights and the order.
MIX_INSTANCES = 100
MIX_MIN_HOST, MIX_MAX_HOST = 8, 40
MIX_MAX_V = 6


@dataclass(frozen=True)
class Instance:
    """One (host, substituent) input and how its answer is checked.

    `check` is one of `closed_form` (X[V] is the cycle on `ring` vertices),
    `reference` (dense eigenvalues of X[V]), `moments` (traces of powers of
    the walk on X[V]), `oracle` (the timed `direct_spectrum` multiset) and
    `eigenbasis` (oracle, residuals and nodal ranks).  The checks
    against the oracle time it as well.
    """

    id: str
    host: str
    sub: str
    size: int
    check: str
    ring: int = 0

    @property
    def oracle(self) -> bool:
        """Whether `direct_spectrum` runs, and is timed, on this instance."""
        return self.check in ("oracle", "eigenbasis")


# -- the randinst recipe ---------------------------------------------------


def rand_weight(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(1, 4), rng.randint(1, 4))


def random_host(rng: random.Random, n: int, extra: int) -> WeightedGraph:
    """Random weighted tree on n vertices plus `extra` random chords."""
    edges = [(rng.randrange(v), v, rand_weight(rng)) for v in range(1, n)]
    for _ in range(extra):
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            edges.append((min(u, v), max(u, v), rand_weight(rng)))
    return WeightedGraph([f"x{k}" for k in range(n)], edges)


def random_substituent(rng: random.Random, interior: int) -> Substituent:
    """Random valid substituent with `interior` interior vertices and a
    symmetry-respecting weight pattern (the recipe draws `interior` itself)."""
    while True:
        n = interior + 2
        perm = list(range(n))
        perm[0], perm[1] = 1, 0
        pool = list(range(2, n))
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
        try:
            g = WeightedGraph([f"w{i}" for i in range(n)], [(u, v, w) for (u, v), w in edges.items()])
            s = Substituent(g, 0, 1, gamma)
            validate_substituent(s)
        except EdgeSubError:
            continue
        return s


# -- seeded relabelling -------------------------------------------------------


def relabel(g: WeightedGraph, rng: random.Random) -> tuple[WeightedGraph, list[int]]:
    """The same graph with shuffled vertex order, edge order and edge direction."""
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
    return WeightedGraph(labels, edges), perm


def relabel_substituent(s: Substituent, rng: random.Random) -> Substituent:
    g, perm = relabel(s.graph, rng)
    gamma = [0] * g.n
    for v in range(g.n):
        gamma[perm[v]] = perm[s.gamma[v]]
    return Substituent(g, perm[s.a], perm[s.b], tuple(gamma))


def _instance(iid: str, X: WeightedGraph, s: Substituent, check: str, ring: int = 0) -> Instance:
    size = X.n + X.num_edges * (s.graph.n - 2)
    return Instance(iid, dump_graph(X), dump_substituent(s), size, check, ring)


# -- workloads --------------------------------------------------------------


def host_large(seed: int) -> list[Instance]:
    """Large hosts, tiny substituents, spectrum only."""
    rng = random.Random(seed)
    path3 = fixtures.path_substituent(3)
    out = []
    X, _ = relabel(fixtures.cycle_host(1500), rng)
    out.append(_instance("cycle-1500/path-3", X, relabel_substituent(path3, rng), "closed_form", ring=4500))
    X, _ = relabel(fixtures.star_host(600), rng)
    out.append(_instance("star-600/path-3", X, relabel_substituent(path3, rng), "reference"))
    X = random_host(rng, 600, 300)
    square = relabel_substituent(fixtures.chorded_square_substituent(), rng)
    out.append(_instance("random-600+300/chorded-square", X, square, "moments"))
    X, _ = relabel(fixtures.cycle_host(800), rng)
    out.append(_instance("cycle-800/path-3", X, relabel_substituent(path3, rng), "oracle"))
    return out


def sub_long(seed: int) -> list[Instance]:
    """Small hosts, long substituents: every transfer is computed twice.

    The seed relabels the hosts only.  The substituents keep the fixture
    vertex order, as `edgesub fixture` writes them: the cost of the exact
    transfer computation depends on that order (up to 3x for path L=10), so
    relabelling them would change the work from seed to seed.
    """
    rng = random.Random(seed)
    subs = [
        ("path-10", fixtures.path_substituent(10)),
        ("path-15", fixtures.path_substituent(15)),
        ("circle-antipodal-7", fixtures.circle_substituent(7, "antipodal")),
        ("circle-adjacent-6", fixtures.circle_substituent(6, "adjacent")),
    ]
    out = []
    for sname, s in subs:
        for hname, X in (("cycle-10", fixtures.cycle_host(10)), ("star-6", fixtures.star_host(6))):
            X, _ = relabel(X, rng)
            out.append(_instance(f"{hname}/{sname}", X, s, "oracle"))
    return out


def _small_fixtures() -> list[tuple[str, Substituent]]:
    out = [(f"path-{L}", fixtures.path_substituent(L)) for L in range(2, MIX_MAX_V)]
    for L in (2, 3):
        for placement in ("antipodal", "adjacent"):
            out.append((f"circle-{placement}-{L}", fixtures.circle_substituent(L, placement)))
    out.append(("chorded-square", fixtures.chorded_square_substituent()))
    return out


def eigenbasis_mix(seed: int, count: int = MIX_INSTANCES) -> list[Instance]:
    """Many small random instances, each with a complete explicit eigenbasis.

    Host sizes run evenly over 8..40.  Every third substituent is a fixture
    (cycled in order, relabelled), the others come from the random recipe
    with 1..4 interior vertices in turn.  Hosts get 0..n/8 random chords, so
    trees, odd-unicyclic and multi-cycle hosts all occur.
    """
    rng = random.Random(seed)
    span = MIX_MAX_HOST - MIX_MIN_HOST + 1
    fixed = _small_fixtures()
    out = []
    for i in range(count):
        n = MIX_MIN_HOST + (i * span) // count
        X = random_host(rng, n, rng.randint(0, n // 8))
        if i % 3 == 0:
            sname, s = fixed[(i // 3) % len(fixed)]
            s = relabel_substituent(s, rng)
        else:
            s = random_substituent(rng, 1 + i % (MIX_MAX_V - 2))
            sname = f"random-{s.graph.n}"
        out.append(_instance(f"{i:03d}:host-{n}/{sname}", X, s, "eigenbasis"))
    rng.shuffle(out)
    return out


BUILDERS = {"host-large": host_large, "sub-long": sub_long, "eigenbasis-mix": eigenbasis_mix}


def build(workload: str, seed: int) -> list[Instance]:
    return BUILDERS[workload](seed)
