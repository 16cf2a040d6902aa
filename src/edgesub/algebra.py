"""Exact univariate polynomials and rational functions over Fraction.

Coefficient lists are stored lowest degree first.  Rational functions are
kept reduced (gcd cancelled, monic denominator) so that equality is plain
structural equality; the library builds each one as a single reduced
quotient, and their field arithmetic serves the tests as reference algebra.
Reduction runs in integers: numerator and denominator are scaled to integer
coefficients, `poly_gcd` runs a primitive pseudo-remainder sequence, the
divisions by the gcd are exact integer divisions, and each coefficient of the
result is made a Fraction once, at the end.

Also provides exact linear solving over Fraction, and exact isolation of the
real roots of a polynomial in an interval.

The resolvent is never eliminated over the rational-function field, and no
polynomial is interpolated: with M scaled to an integer matrix N = mu M,
zI - M = (wI - N) / mu at w = mu z, and one Faddeev-LeVerrier pass over the
integers (`adjugate_series`) gives det(wI - N) and the columns
adj(wI - N) c = sum_j w^(k-1-j) B_j c, k = dim M.  `resolvent_matrix` is
1 + k per column reduced quotients of these series, and the transfer
functions read theirs off the same pass.

Real roots are isolated exactly: a Sturm sequence over Fraction counts the
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

    # -- constructors -------------------------------------------------

    @staticmethod
    def const(c) -> "Polynomial":
        return Polynomial([_as_fraction(c)])

    @staticmethod
    def z() -> "Polynomial":
        return Polynomial([0, 1])

    # -- basic queries -------------------------------------------------

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1  # -1 for the zero polynomial

    def is_zero(self) -> bool:
        return not self.coeffs

    def leading(self) -> Fraction:
        if self.is_zero():
            return Fraction(0)
        return self.coeffs[-1]

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other) -> "Polynomial":
        other = _as_poly(other)
        n = max(len(self.coeffs), len(other.coeffs))
        a = list(self.coeffs) + [Fraction(0)] * (n - len(self.coeffs))
        b = list(other.coeffs) + [Fraction(0)] * (n - len(other.coeffs))
        return Polynomial(x + y for x, y in zip(a, b))

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return Polynomial(-c for c in self.coeffs)

    def __sub__(self, other) -> "Polynomial":
        return self + (-_as_poly(other))

    def __mul__(self, other) -> "Polynomial":
        other = _as_poly(other)
        if self.is_zero() or other.is_zero():
            return Polynomial()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return Polynomial(out)

    __rmul__ = __mul__

    def scale(self, c) -> "Polynomial":
        c = _as_fraction(c)
        return Polynomial(c * a for a in self.coeffs)

    def divmod(self, other: "Polynomial") -> tuple["Polynomial", "Polynomial"]:
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        dn = other.degree
        lead = other.leading()
        q = [Fraction(0)] * max(0, len(rem) - dn)
        while len(rem) - 1 >= dn and any(rem):
            while rem and rem[-1] == 0:
                rem.pop()
            if len(rem) - 1 < dn:
                break
            k = len(rem) - 1 - dn
            f = rem[-1] / lead
            q[k] = f
            for i, b in enumerate(other.coeffs):
                rem[k + i] -= f * b
            rem.pop()
        return Polynomial(q), Polynomial(rem)

    def derivative(self) -> "Polynomial":
        return Polynomial(i * c for i, c in enumerate(self.coeffs) if i > 0)

    # -- evaluation ----------------------------------------------------

    def eval_exact(self, x) -> Fraction:
        x = _as_fraction(x)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

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


def _as_poly(x) -> Polynomial:
    if isinstance(x, Polynomial):
        return x
    return Polynomial.const(_as_fraction(x))


def _integer_coeffs(p: Polynomial) -> tuple[list[int], int]:
    """p times the positive lcm of its denominators, as integer coefficients
    with the same signs, and that lcm."""
    scale = math.lcm(*(c.denominator for c in p.coeffs))
    return [c.numerator * (scale // c.denominator) for c in p.coeffs], scale


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


def _primitive_gcd(a: Sequence[int], b: Sequence[int]) -> list[int]:
    a, b = _primitive(list(a)), _primitive(list(b))
    while b:
        a, b = b, _primitive(_pseudo_remainder(a, b))
    return a


def poly_gcd(a, b):
    """Greatest common divisor by a primitive pseudo-remainder sequence in
    integers.

    Two Polynomials give their monic gcd, scaled to integer coefficients by
    `_integer_coeffs` first.  Two integer coefficient lists (lowest degree
    first, no trailing zeros) give their primitive gcd with a positive
    leading coefficient, and make no Fraction.  The gcd of two zeros is zero.
    """
    if isinstance(a, Polynomial):
        g = _primitive_gcd(_integer_coeffs(a)[0], _integer_coeffs(b)[0])
        return Polynomial([Fraction(c, g[-1]) for c in g])
    return _primitive_gcd(a, b)


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


@dataclass(frozen=True)
class RationalFunction:
    """Reduced quotient of polynomials; denominator monic and nonzero."""

    num: Polynomial
    den: Polynomial

    def __init__(self, num, den=Polynomial([1])):
        (n, n_scale), (d, d_scale) = _integer_coeffs(_as_poly(num)), _integer_coeffs(_as_poly(den))
        num, den = _reduce(n, d, d_scale, n_scale, 1)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    # -- constructors ----------------------------------------------------

    @staticmethod
    def const(c) -> "RationalFunction":
        return RationalFunction(Polynomial.const(c))

    @staticmethod
    def z() -> "RationalFunction":
        return RationalFunction(Polynomial.z())

    @staticmethod
    def from_integers(
        num: Sequence[int], den: Sequence[int], scale_num: int = 1, scale_den: int = 1, mu: int = 1
    ) -> "RationalFunction":
        """(scale_num / scale_den) num(w) / den(w) at w = mu z, reduced, for
        integer coefficient lists and mu > 0: no Fraction arithmetic before
        the coefficients of the result."""
        out = object.__new__(RationalFunction)
        num, den = _reduce(num, den, scale_num, scale_den, mu)
        object.__setattr__(out, "num", num)
        object.__setattr__(out, "den", den)
        return out

    # -- queries ----------------------------------------------------------

    def is_zero(self) -> bool:
        return self.num.is_zero()

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other) -> "RationalFunction":
        other = _as_rf(other)
        if self.den == other.den:
            return RationalFunction(self.num + other.num, self.den)
        return RationalFunction(
            self.num * other.den + other.num * self.den, self.den * other.den
        )

    __radd__ = __add__

    def __neg__(self) -> "RationalFunction":
        # -num / den is reduced with a monic denominator already: no gcd
        neg = object.__new__(RationalFunction)
        object.__setattr__(neg, "num", -self.num)
        object.__setattr__(neg, "den", self.den)
        return neg

    def __sub__(self, other) -> "RationalFunction":
        return self + (-_as_rf(other))

    def __mul__(self, other) -> "RationalFunction":
        other = _as_rf(other)
        return RationalFunction(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "RationalFunction":
        other = _as_rf(other)
        if other.is_zero():
            raise ZeroDivisionError("division by the zero rational function")
        return RationalFunction(self.num * other.den, self.den * other.num)

    # -- evaluation ---------------------------------------------------------

    def eval_exact(self, x) -> Fraction:
        x = _as_fraction(x)
        d = self.den.eval_exact(x)
        if d == 0:
            raise ZeroDivisionError(f"pole at {x}")
        return self.num.eval_exact(x) / d

    def eval_float(self, x: float) -> float:
        """Float Horner values divided; a float zero denominator raises
        ZeroDivisionError, as a pole does in `eval_exact`."""
        return self.num.eval_float(x) / self.den.eval_float(x)

    def __str__(self) -> str:
        return f"({self.num}) / ({self.den})"


def _as_rf(x) -> RationalFunction:
    if isinstance(x, RationalFunction):
        return x
    if isinstance(x, Polynomial):
        return RationalFunction(x)
    return RationalFunction.const(_as_fraction(x))


# ---------------------------------------------------------------------------
# Exact linear algebra
# ---------------------------------------------------------------------------


def _eliminate(
    matrix: Sequence[Sequence[Fraction]], columns: Sequence[Sequence[Fraction]]
) -> tuple[Fraction, list[list[Fraction]]]:
    """det(A) and det(A) A^{-1} c for each column c, exactly; no columns when
    det(A) = 0.

    Fraction-free (Bareiss) elimination: A and the columns are scaled to
    integers by one common factor, and every division on the way is exact.
    """
    n = len(matrix)
    rows = [list(row) + [c[i] for c in columns] for i, row in enumerate(matrix)]
    scale = math.lcm(*(v.denominator for row in rows for v in row))
    a = [[v.numerator * (scale // v.denominator) for v in row] for row in rows]
    sign, prev = 1, 1
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] != 0), None)
        if piv is None:
            return Fraction(0), []
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            sign = -sign
        pivot_row = a[col]
        p = pivot_row[col]
        for r in range(col + 1, n):
            f = a[r][col]
            a[r] = [(p * v - f * w) // prev for v, w in zip(a[r], pivot_row)]
        prev = p
    # prev is now the determinant of the scaled, row-swapped matrix, so each
    # y = prev * x is integral (Cramer's rule) and det(A) x = y / (sign scale^n)
    denom = sign * scale**n
    adjugate_columns = []
    for j in range(n, n + len(columns)):
        y = [0] * n
        for i in reversed(range(n)):
            row = a[i]
            acc = prev * row[j] - sum(row[t] * y[t] for t in range(i + 1, n) if row[t])
            y[i] = acc // row[i]
        adjugate_columns.append([Fraction(v, denom) for v in y])
    return Fraction(prev, denom), adjugate_columns


def solve_fraction_system(
    matrix: Sequence[Sequence[Fraction]], rhs: Sequence[Fraction]
) -> list[Fraction]:
    """Solve A x = b exactly over Fraction."""
    det, adjugate_columns = _eliminate(matrix, [rhs])
    if det == 0:
        raise ZeroDivisionError("singular matrix")
    return [v / det for v in adjugate_columns[0]]


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


def _sturm_sequence(p: Polynomial) -> list[list[int]]:
    """p, p', then minus the remainders, each scaled by a positive constant."""
    seq = [p, p.derivative()]
    while seq[-1].degree > 0:
        _, rem = seq[-2].divmod(seq[-1])
        if rem.is_zero():
            break
        seq.append(rem.scale(-1 / abs(rem.leading())))
    return [_integer_coeffs(s)[0] for s in seq]


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
    sequence over Fraction.  The number of distinct roots in a half-open
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
    square_free, _ = p.divmod(poly_gcd(p, p.derivative()))
    sturm = _sturm_sequence(square_free)
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
