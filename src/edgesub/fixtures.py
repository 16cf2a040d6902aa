"""Ready-made hosts and substituents used in tests and by the CLI."""

from __future__ import annotations

from fractions import Fraction

from .graph import Substituent, WeightedGraph

ONE = Fraction(1)


def path_host(n: int) -> WeightedGraph:
    """Path on n vertices, unit conductances."""
    return WeightedGraph(
        [f"x{k}" for k in range(n)], [(k, k + 1, ONE) for k in range(n - 1)]
    )


def cycle_host(n: int) -> WeightedGraph:
    """Cycle on n vertices, unit conductances."""
    edges = [(k, (k + 1) % n, ONE) for k in range(n)]
    return WeightedGraph([f"x{k}" for k in range(n)], edges)


def star_host(n: int) -> WeightedGraph:
    """Star with center x0 and n-1 leaves."""
    return WeightedGraph(
        [f"x{k}" for k in range(n)], [(0, k, ONE) for k in range(1, n)]
    )


def fixture_circle(a: Fraction, N: int) -> WeightedGraph:
    """2N-circle with unit conductances and one edge of conductance a.

    With a = 0 the weighted edge disappears and the graph degenerates to
    the path on 2N vertices.
    """
    a = Fraction(a)
    if N < 2:
        raise ValueError("need N >= 2")
    if not 0 <= a <= 1:
        raise ValueError("need 0 <= a <= 1")
    n = 2 * N
    labels = [f"v{k}" for k in range(n)]
    edges = [(k, k + 1, ONE) for k in range(n - 1)]
    if a > 0:
        edges.append((n - 1, 0, a))
    return WeightedGraph(labels, edges)


def path_substituent(L: int) -> Substituent:
    """Path of length L with a, b at the two ends and the reflection symmetry."""
    if L < 2:
        raise ValueError("need L >= 2 for a nonempty interior")
    g = WeightedGraph(
        ["a"] + [f"v{k}" for k in range(1, L)] + ["b"],
        [(k, k + 1, ONE) for k in range(L)],
    )
    gamma = tuple(L - k for k in range(L + 1))
    return Substituent(g, 0, L, gamma)


def circle_substituent(L: int, placement: str) -> Substituent:
    """Circle of length 2L with marked vertices antipodal or adjacent.

    Antipodal: a = v0, b = vL, swapped by the half-turn rotation.
    Adjacent: a = v0, b = v_{2L-1}, swapped by a reflection.
    """
    M = 2 * L
    g = WeightedGraph(
        [f"v{k}" for k in range(M)], [(k, (k + 1) % M, ONE) for k in range(M)]
    )
    if placement == "antipodal":
        gamma = tuple((k + L) % M for k in range(M))
        return Substituent(g, 0, L, gamma)
    if placement == "adjacent":
        gamma = tuple((M - 1 - k) % M for k in range(M))
        return Substituent(g, 0, M - 1, gamma)
    raise ValueError("placement must be 'antipodal' or 'adjacent'")


def chorded_square_substituent() -> Substituent:
    """4-cycle a-u-b-v-a with the chord u-v, gamma = (a b)(u v)."""
    g = WeightedGraph(
        ["a", "u", "b", "v"],
        [(0, 1, ONE), (1, 2, ONE), (2, 3, ONE), (3, 0, ONE), (1, 3, ONE)],
    )
    return Substituent(g, 0, 2, (2, 3, 0, 1))
