"""Exact univariate polynomials and rational functions over Fraction.

Coefficient lists are stored lowest degree first.  Rational functions are
kept reduced (gcd cancelled, monic denominator) so that equality is plain
structural equality.  Also provides exact linear solving over Fraction,
resolvent columns (zI - M)^{-1} c and det(zI - M), Chebyshev polynomials, and
exact isolation of the real roots of a polynomial in an interval.

The resolvent is never eliminated over the rational-function field:
det(zI - M) and det(zI - M) (zI - M)^{-1} c are polynomials in z of degree at
most k = dim M, so `interpolate_solves` interpolates them, or fixed
combinations of them, from one exact fraction-free (Bareiss) elimination in
integers at each of k + 1 integer nodes.  The transfer functions interpolate
three such series, `resolvent_matrix` 1 + k per column; each result is
reduced once when its RationalFunction is built.

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
from typing import Callable, Iterable, Sequence

from .errors import TooCloseToInteriorSpectrum

POLE_GUARD = 1e-12


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
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

    def __bool__(self) -> bool:
        return not self.is_zero()

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

    def __rsub__(self, other) -> "Polynomial":
        return _as_poly(other) + (-self)

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

    def monic(self) -> "Polynomial":
        if self.is_zero():
            return self
        return self.scale(1 / self.leading())

    def derivative(self) -> "Polynomial":
        return Polynomial(i * c for i, c in enumerate(self.coeffs) if i > 0)

    # -- evaluation ----------------------------------------------------

    def eval_exact(self, x) -> Fraction:
        x = _as_fraction(x)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def eval_float(self, x: float) -> float:
        acc = 0.0
        for c in reversed(self.coeffs):
            acc = acc * x + float(c)
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


def poly_gcd(a: Polynomial, b: Polynomial) -> Polynomial:
    """Monic gcd by the Euclidean algorithm."""
    while not b.is_zero():
        _, r = a.divmod(b)
        a, b = b, r.monic() if not r.is_zero() else r
    return a.monic() if not a.is_zero() else a


@dataclass(frozen=True)
class RationalFunction:
    """Reduced quotient of polynomials; denominator monic and nonzero."""

    num: Polynomial
    den: Polynomial

    def __init__(self, num, den=Polynomial([1])):
        num = _as_poly(num)
        den = _as_poly(den)
        if den.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")
        if num.is_zero():
            den = Polynomial([1])
        else:
            g = poly_gcd(num, den)
            if g.degree > 0:
                num, _ = num.divmod(g)
                den, _ = den.divmod(g)
            lead = den.leading()
            if lead != 1:
                num = num.scale(1 / lead)
                den = den.scale(1 / lead)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    # -- constructors ----------------------------------------------------

    @staticmethod
    def const(c) -> "RationalFunction":
        return RationalFunction(Polynomial.const(c))

    @staticmethod
    def z() -> "RationalFunction":
        return RationalFunction(Polynomial.z())

    # -- queries ----------------------------------------------------------

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __bool__(self) -> bool:
        return not self.is_zero()

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

    def __rsub__(self, other) -> "RationalFunction":
        return _as_rf(other) + (-self)

    def __mul__(self, other) -> "RationalFunction":
        other = _as_rf(other)
        return RationalFunction(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "RationalFunction":
        other = _as_rf(other)
        if other.is_zero():
            raise ZeroDivisionError("division by the zero rational function")
        return RationalFunction(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other) -> "RationalFunction":
        return _as_rf(other) / self

    # -- evaluation ---------------------------------------------------------

    def eval_exact(self, x) -> Fraction:
        x = _as_fraction(x)
        d = self.den.eval_exact(x)
        if d == 0:
            raise ZeroDivisionError(f"pole at {x}")
        return self.num.eval_exact(x) / d

    def eval_float(self, x: float) -> float:
        d = self.den.eval_float(x)
        if abs(d) < POLE_GUARD:
            raise TooCloseToInteriorSpectrum(
                f"denominator magnitude {abs(d):.3e} at z={x!r}"
            )
        return self.num.eval_float(x) / d

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


def _interpolate(nodes: Sequence[int], values: Sequence[Fraction]) -> Polynomial:
    """The polynomial of degree < len(nodes) through (nodes, values), by
    Newton divided differences expanded into the monomial basis."""
    c = list(values)
    for j in range(1, len(nodes)):
        for i in range(len(nodes) - 1, j - 1, -1):
            c[i] = (c[i] - c[i - 1]) / (nodes[i] - nodes[i - j])
    coeffs = [c[-1]]
    for i in range(len(nodes) - 2, -1, -1):  # coeffs := coeffs * (z - x_i) + c_i
        coeffs = [c[i] - nodes[i] * coeffs[0]] + [
            lo - nodes[i] * hi for lo, hi in zip(coeffs, coeffs[1:])
        ] + [coeffs[-1]]
    return Polynomial(coeffs)


def interpolate_solves(
    matrix: Sequence[Sequence[Fraction]],
    columns: Sequence[Sequence[Fraction]],
    sample: Callable[[Fraction, list[list[Fraction]]], Sequence[Fraction]],
) -> list[Polynomial]:
    """The polynomials in z whose values at z are `sample(det, columns)`,
    where det = det(zI - M) and columns holds det (zI - M)^{-1} c for each c.

    Each is interpolated, so must have degree at most k = dim M, from exact
    solves at k + 1 integer nodes z = 2, 3, ...; a node where zI - M is
    singular (an integer eigenvalue of M) is skipped.
    """
    k = len(matrix)
    shifted = [[-v for v in row] for row in matrix]
    nodes: list[int] = []
    samples: list[Sequence[Fraction]] = []
    z = 1
    while len(nodes) < k + 1:
        z += 1
        for i, row in enumerate(shifted):
            row[i] = z - matrix[i][i]
        det, adjugate_columns = _eliminate(shifted, columns)
        if det != 0:
            nodes.append(z)
            samples.append(sample(det, adjugate_columns))
    return [_interpolate(nodes, series) for series in zip(*samples)]


def det_and_adjugate_columns(
    matrix: Sequence[Sequence[Fraction]], columns: Sequence[Sequence[Fraction]]
) -> tuple[Polynomial, list[list[Polynomial]]]:
    """det(zI - M) and the columns det(zI - M) (zI - M)^{-1} c, exactly:
    1 + k * len(columns) interpolated series, k = dim M."""
    k = len(matrix)
    det, *entries = interpolate_solves(
        matrix, columns, lambda det, adjugate: [det, *(v for col in adjugate for v in col)]
    )
    return det, [entries[j * k : (j + 1) * k] for j in range(len(columns))]


def resolvent_matrix(
    matrix: Sequence[Sequence[Fraction]], columns: Sequence[Sequence[Fraction]]
) -> list[list[RationalFunction]]:
    """The columns (zI - M)^{-1} c for each given column c, as reduced
    rational functions over det(zI - M)."""
    det, adjugate_columns = det_and_adjugate_columns(matrix, columns)
    return [[RationalFunction(p, det) for p in col] for col in adjugate_columns]


# ---------------------------------------------------------------------------
# Chebyshev polynomials
# ---------------------------------------------------------------------------


def chebyshev(kind: str, degree: int) -> Polynomial:
    """Chebyshev polynomial of the given kind ('first' or 'second')."""
    if degree < 0:
        raise ValueError("degree must be >= 0")
    if kind not in ("first", "second"):
        raise ValueError("kind must be 'first' or 'second'")
    z = Polynomial.z()
    prev = Polynomial([1])
    cur = z if kind == "first" else z.scale(2)
    if degree == 0:
        return prev
    for _ in range(degree - 1):
        prev, cur = cur, z.scale(2) * cur - prev
    return cur


# ---------------------------------------------------------------------------
# Exact real-root isolation on an interval
# ---------------------------------------------------------------------------

_ROOT_BITS = 60  # a root is refined to an interval narrower than 2^-_ROOT_BITS


def _integer_coeffs(p: Polynomial) -> list[int]:
    """p times the positive lcm of its denominators: same signs, integer coefficients."""
    scale = math.lcm(*(c.denominator for c in p.coeffs))
    return [int(c * scale) for c in p.coeffs]


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
    return [_integer_coeffs(s) for s in seq]


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
