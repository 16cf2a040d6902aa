"""Exact polynomials and rational functions in integer arithmetic.

Coefficient lists are stored lowest degree first.  A `Polynomial` holds
Fraction coefficients and is only read: its degree, its float values and its
text.  A `RationalFunction` is made only by `from_integers`, which reduces a
quotient of integer series once: `poly_gcd` runs a primitive pseudo-remainder
sequence, the divisions by the gcd are exact integer divisions, and each
coefficient of the result is made a Fraction once, at the end.  Kept reduced
(gcd cancelled, monic denominator), equality is plain structural equality.
No field arithmetic is defined on either.

The resolvent is never eliminated and no polynomial is interpolated: with M
scaled to an integer matrix N = mu M, zI - M = (wI - N) / mu at w = mu z, and
one Faddeev-LeVerrier pass over the integers (`adjugate_series`) gives
det(wI - N) and the columns adj(wI - N) c = sum_j w^(k-1-j) B_j c, k = dim M.
`resolvent_matrix` is 1 + k per column reduced quotients of these series, and
the transfer functions read theirs off the same pass.

Real roots are isolated exactly: a Sturm sequence in integers counts the
distinct roots of the square-free part in an interval, and bisection at
dyadic midpoints, with signs evaluated in integer arithmetic, refines each
root until it is known far below float resolution.  No float grid and no
tolerance decides whether a root exists.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Sequence


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"cannot coerce {x!r} to Fraction")


@dataclass(frozen=True)
class Polynomial:
    """Dense polynomial with Fraction coefficients, lowest degree first."""

    coeffs: tuple[Fraction, ...]

    def __init__(self, coeffs: Iterable = ()):  # trims trailing zeros
        cs = [_as_fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1  # -1 for the zero polynomial

    def is_zero(self) -> bool:
        return not self.coeffs

    @cached_property
    def _float_coeffs(self) -> tuple[float, ...]:
        """The coefficients as correctly rounded floats, highest degree first."""
        return tuple(c.numerator / c.denominator for c in reversed(self.coeffs))

    def eval_float(self, x: float) -> float:
        acc = 0.0
        for c in self._float_coeffs:
            acc = acc * x + c
        return acc

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        terms = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                terms.append(str(c))
            elif i == 1:
                terms.append(f"{c} z")
            else:
                terms.append(f"{c} z^{i}")
        return " + ".join(terms)


def _integer_coeffs(p: Polynomial) -> list[int]:
    """p times the positive lcm of its denominators, as integer coefficients
    with the same signs."""
    scale = math.lcm(*(c.denominator for c in p.coeffs))
    return [c.numerator * (scale // c.denominator) for c in p.coeffs]


def _trim(cs: list[int]) -> list[int]:
    while cs and not cs[-1]:
        cs.pop()
    return cs


def _primitive(cs: list[int]) -> list[int]:
    """cs over the gcd of its entries, signed so that the leading entry is
    positive; [] stays []."""
    if not cs:
        return cs
    g = math.gcd(*cs)
    if cs[-1] < 0:
        g = -g
    return cs if g == 1 else [c // g for c in cs]


def _pseudo_remainder(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """A nonzero integer multiple of the remainder of a by b, b nonzero.

    Each step scales the partial remainder by lead(b) / g and takes
    lead(r) / g times the shifted b, g = gcd(lead(r), lead(b)), so that the
    leading term cancels in integers."""
    r = list(a)
    lead, db = b[-1], len(b) - 1
    while len(r) > db:
        f = r.pop()
        g = math.gcd(f, lead)
        s, t = lead // g, f // g
        if s != 1:
            r = [s * x for x in r]
        shift = len(r) - db
        for i in range(db):
            r[shift + i] -= t * b[i]
        _trim(r)
    return r


def _exact_quotient(a: Sequence[int], g: Sequence[int]) -> list[int]:
    """a / g for integer coefficient lists whose quotient has integer
    coefficients, as when g is primitive and divides a (Gauss's lemma)."""
    r = list(a)
    lead, dg = g[-1], len(g) - 1
    q = [0] * (len(a) - dg)
    for k in reversed(range(len(q))):
        f = q[k] = r[k + dg] // lead
        if f:
            for i in range(dg):
                r[k + i] -= f * g[i]
    return q


def poly_gcd(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """The primitive gcd, with a positive leading coefficient, of two integer
    coefficient lists (lowest degree first, no trailing zeros), by a primitive
    pseudo-remainder sequence; the gcd of two zeros is [].  No Fraction is
    made."""
    a, b = _primitive(list(a)), _primitive(list(b))
    while b:
        a, b = b, _primitive(_pseudo_remainder(a, b))
    return a


def _reduce(
    num: list[int], den: list[int], scale_num: int, scale_den: int, mu: int
) -> tuple[Polynomial, Polynomial]:
    """The reduced numerator and monic denominator of
    (scale_num / scale_den) num(w) / den(w) at w = mu z, mu > 0, for integer
    coefficient lists: one `poly_gcd`, exact integer divisions, and one
    Fraction per coefficient of the result."""
    num, den = _trim(list(num)), _trim(list(den))
    if not den:
        raise ZeroDivisionError("rational function with zero denominator")
    if not num:
        return Polynomial(), Polynomial([1])
    g = poly_gcd(num, den)
    if len(g) > 1:
        num, den = _exact_quotient(num, g), _exact_quotient(den, g)
    powers = [1]
    for _ in range(max(len(num), len(den)) - 1):
        powers.append(powers[-1] * mu)
    lead = den[-1] * powers[len(den) - 1]
    top = scale_den * lead
    return (
        Polynomial([Fraction(scale_num * c * p, top) for c, p in zip(num, powers)]),
        Polynomial([Fraction(c * p, lead) for c, p in zip(den, powers)]),
    )


@dataclass(frozen=True, init=False)
class RationalFunction:
    """Reduced quotient of polynomials; denominator monic and nonzero.  Made
    only by `from_integers`, so equality is structural equality."""

    num: Polynomial
    den: Polynomial

    @staticmethod
    def from_integers(
        num: Sequence[int], den: Sequence[int], scale_num: int = 1, scale_den: int = 1, mu: int = 1
    ) -> "RationalFunction":
        """(scale_num / scale_den) num(w) / den(w) at w = mu z, reduced, for
        integer coefficient lists and mu > 0: no Fraction arithmetic before
        the coefficients of the result."""
        out = object.__new__(RationalFunction)
        out.__dict__["num"], out.__dict__["den"] = _reduce(num, den, scale_num, scale_den, mu)
        return out

    def eval_float(self, x: float) -> float:
        """Float Horner values divided; a float zero denominator raises
        ZeroDivisionError, and no other guard stands near a pole."""
        return self.num.eval_float(x) / self.den.eval_float(x)

    def __str__(self) -> str:
        return f"({self.num}) / ({self.den})"


def adjugate_series(
    matrix: Sequence[Sequence[int]], columns: Sequence[Sequence[int]]
) -> tuple[list[int], list[list[list[int]]]]:
    """det(wI - N), lowest degree first, and for each column c the vectors
    B_0 c, ..., B_{k-1} c, where adj(wI - N) = sum_j w^(k-1-j) B_j, for a
    k x k integer matrix N and integer columns.

    One Faddeev-LeVerrier pass in integers: B_0 = I, then
    c_{k-j} = -tr(N B_{j-1}) / j, an exact division, and
    B_j = N B_{j-1} + c_{k-j} I.  The products run over the nonzero entries
    of N, and B_j c = N B_{j-1} c + c_{k-j} c follows on vectors.
    """
    k = len(matrix)
    rows = [[(v, x) for v, x in enumerate(row) if x] for row in matrix]
    charpoly = [0] * k + [1]
    series = [[list(c)] for c in columns]
    B = [list(row) for row in matrix]  # N B_0
    for j in range(1, k + 1):
        c = -sum(B[i][i] for i in range(k)) // j
        charpoly[k - j] = c
        if j == k:
            break
        for i in range(k):
            B[i][i] += c
        for col, s in zip(columns, series):
            v = s[-1]
            s.append([sum(x * v[t] for t, x in r) + c * y for r, y in zip(rows, col)])
        B = [_combine(r, B, k) for r in rows]  # N B_j
    return charpoly, series


def _combine(row: Sequence[tuple[int, int]], B: Sequence[Sequence[int]], k: int) -> list[int]:
    """sum x B[v] over the nonzero entries (v, x) of a row."""
    if not row:
        return [0] * k
    (v, x), *rest = row
    acc = [x * y for y in B[v]]
    for v, x in rest:
        acc = [a + x * y for a, y in zip(acc, B[v])]
    return acc


def resolvent_matrix(
    matrix: Sequence[Sequence[Fraction]], columns: Sequence[Sequence[Fraction]]
) -> list[list[RationalFunction]]:
    """The columns (zI - M)^{-1} c for each given column c, as reduced
    rational functions: with N = mu M and C = l c integral,
    (zI - M)^{-1} c = (mu / l) adj(wI - N) C / det(wI - N) at w = mu z,
    from one `adjugate_series` pass."""
    k = len(matrix)
    mu = math.lcm(*(v.denominator for row in matrix for v in row))
    N = [[v.numerator * (mu // v.denominator) for v in row] for row in matrix]
    scales = [math.lcm(*(v.denominator for v in col)) for col in columns]
    C = [[v.numerator * (l // v.denominator) for v in col] for col, l in zip(columns, scales)]
    det, series = adjugate_series(N, C)
    return [
        [
            RationalFunction.from_integers([s[k - 1 - i][u] for i in range(k)], det, mu, l, mu)
            for u in range(k)
        ]
        for s, l in zip(series, scales)
    ]


# ---------------------------------------------------------------------------
# Exact real-root isolation on an interval
# ---------------------------------------------------------------------------

_ROOT_BITS = 60  # a root is refined to an interval narrower than 2^-_ROOT_BITS


def _sign_at(coeffs: Sequence[int], n: int, d: int) -> int:
    """Sign of the polynomial at n/d, d > 0, from d^deg p(n/d) in integers."""
    acc, dpow = 0, 1
    for c in reversed(coeffs):
        acc = acc * n + c * dpow
        dpow *= d
    return (acc > 0) - (acc < 0)


def _derivative(cs: Sequence[int]) -> list[int]:
    return [i * c for i, c in enumerate(cs)][1:]


def _sturm_sequence(p: list[int]) -> list[list[int]]:
    """p, p', then minus the remainders, each scaled by a positive constant:
    each divisor is negated to a positive leading coefficient, so that its
    pseudo-remainder is a positive multiple of the remainder."""
    seq = [p, _derivative(p)]
    while len(seq[-1]) > 1:
        b = seq[-1] if seq[-1][-1] > 0 else [-c for c in seq[-1]]
        rem = _pseudo_remainder(seq[-2], b)
        if not rem:
            break
        g = math.gcd(*rem)
        seq.append([-c // g for c in rem])
    return seq


def _refine(coeffs: Sequence[int], a: Fraction, b: Fraction) -> Fraction:
    """The single root of a square-free polynomial in (a, b], to 2^-_ROOT_BITS.

    The ends are kept as integers lo/d and hi/d over a common denominator."""
    d = a.denominator * b.denominator
    lo, hi = a.numerator * b.denominator, b.numerator * a.denominator
    sign_hi = _sign_at(coeffs, hi, d)
    if sign_hi == 0:
        return b
    while (hi - lo) << _ROOT_BITS > d:
        lo, hi, d = 2 * lo, 2 * hi, 2 * d
        mid = (lo + hi) // 2
        sign_mid = _sign_at(coeffs, mid, d)
        if sign_mid == 0:
            return Fraction(mid, d)
        if sign_mid == sign_hi:
            hi = mid
        else:
            lo = mid
    return Fraction(lo + hi, 2 * d)


def real_roots_in_interval(p: Polynomial, lo, hi) -> list[float]:
    """The distinct real roots of p in [lo, hi], ascending, each once, as floats.

    Exact: the square-free part p / gcd(p, p') is isolated with its Sturm
    sequence, all in integers.  The number of distinct roots in a half-open
    interval (a, b] is V(a) - V(b), V counting sign changes along the
    sequence; intervals holding several roots are halved, and one holding a
    single root is bisected by comparing signs with its right end, so that a
    root at a midpoint is found exactly and a left end is never evaluated.
    """
    lo, hi = Fraction(lo), Fraction(hi)
    if lo > hi:
        raise ValueError("need lo <= hi")
    if p.degree < 1:
        return []
    cs = _integer_coeffs(p)
    sturm = _sturm_sequence(_exact_quotient(cs, poly_gcd(cs, _derivative(cs))))
    head = sturm[0]

    def variations(x: Fraction) -> int:
        signs = [s for s in (_sign_at(c, x.numerator, x.denominator) for c in sturm) if s]
        return sum(1 for u, v in zip(signs, signs[1:]) if u != v)

    roots = [lo] if _sign_at(head, lo.numerator, lo.denominator) == 0 else []
    pending = [(lo, hi, variations(lo), variations(hi))]
    while pending:
        a, b, va, vb = pending.pop()
        if va - vb > 1:
            m = (a + b) / 2
            vm = variations(m)
            pending += [(m, b, vm, vb), (a, m, va, vm)]
        elif va - vb == 1:
            roots.append(_refine(head, a, b))
    return sorted(float(r) for r in roots)
