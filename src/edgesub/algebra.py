"""Exact univariate polynomials and rational functions over Fraction.

Coefficient lists are stored lowest degree first.  Rational functions are
kept reduced (gcd cancelled, monic denominator) so that equality is plain
structural equality.  Also provides exact linear solving over Fraction,
resolvent columns (zI - M)^{-1} c and det(zI - M), Chebyshev polynomials, and
a float root finder for polynomials on an interval.

The resolvent is never eliminated over the rational-function field: det and
det * (zI - M)^{-1} c are polynomials in z, so they are interpolated from one
exact Gaussian elimination over Fraction at each of k + 1 integer nodes, and
each entry is reduced once when its RationalFunction is built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import GridTooCoarse, TooCloseToInteriorSpectrum

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

    def float_coeffs(self) -> list[float]:
        return [float(c) for c in self.coeffs]

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
        return RationalFunction(-self.num, self.den)

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

    def eval_float(self, x: float, guard: float = POLE_GUARD) -> float:
        d = self.den.eval_float(x)
        if abs(d) < guard:
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
    """det(A) and the solution of A x = c for each column c, by one Gaussian
    elimination over Fraction; no solutions when det(A) = 0."""
    n = len(matrix)
    a = [[Fraction(v) for v in row] + [Fraction(c[i]) for c in columns]
         for i, row in enumerate(matrix)]
    det = Fraction(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] != 0), None)
        if piv is None:
            return Fraction(0), []
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            det = -det
        pivot_row = a[col]
        det *= pivot_row[col]
        for r in range(col + 1, n):
            if a[r][col] != 0:
                f = a[r][col] / pivot_row[col]
                a[r] = [v - f * w if w else v for v, w in zip(a[r], pivot_row)]
    solutions = []
    for j in range(n, n + len(columns)):
        x = [Fraction(0)] * n
        for i in reversed(range(n)):
            row = a[i]
            acc = row[j] - sum(row[t] * x[t] for t in range(i + 1, n) if row[t])
            x[i] = acc / row[i]
        solutions.append(x)
    return det, solutions


def solve_fraction_system(
    matrix: Sequence[Sequence[Fraction]], rhs: Sequence[Fraction]
) -> list[Fraction]:
    """Solve A x = b exactly over Fraction by Gaussian elimination."""
    det, solutions = _eliminate(matrix, [rhs])
    if det == 0:
        raise ZeroDivisionError("singular matrix")
    return solutions[0]


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


def _det_and_adjugate_columns(
    matrix: Sequence[Sequence[Fraction]], columns: Sequence[Sequence[Fraction]]
) -> tuple[Polynomial, list[list[Polynomial]]]:
    """det(zI - M) and the columns det(zI - M) (zI - M)^{-1} c, exactly.

    Both are polynomials in z, of degree k = dim M and at most k - 1, so they
    are interpolated from exact solves at k + 1 integer nodes z = 2, 3, ...
    A node where zI - M is singular (an integer eigenvalue of M) is skipped.
    """
    k = len(matrix)
    nodes: list[int] = []
    samples: list[list[Fraction]] = []  # per node: det, then det * x column by column
    z = 1
    while len(nodes) < k + 1:
        z += 1
        shifted = [[(z if i == j else 0) - v for j, v in enumerate(row)]
                   for i, row in enumerate(matrix)]
        det, solutions = _eliminate(shifted, columns)
        if det != 0:
            nodes.append(z)
            samples.append([det] + [det * v for x in solutions for v in x])
    det, *entries = [_interpolate(nodes, series) for series in zip(*samples)]
    return det, [entries[j * k : (j + 1) * k] for j in range(len(columns))]


def resolvent_matrix(
    matrix: Sequence[Sequence[Fraction]], columns: Sequence[Sequence[Fraction]]
) -> list[list[RationalFunction]]:
    """The columns (zI - M)^{-1} c for each given column c, as reduced
    rational functions over det(zI - M)."""
    det, adjugate_columns = _det_and_adjugate_columns(matrix, columns)
    return [[RationalFunction(p, det) for p in col] for col in adjugate_columns]


def charpoly(matrix: Sequence[Sequence[Fraction]]) -> Polynomial:
    """det(zI - M), interpolated from exact determinants at integer nodes."""
    return _det_and_adjugate_columns(matrix, [])[0]


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
# Float root isolation on an interval
# ---------------------------------------------------------------------------


def _horner(coeffs: Sequence[float], x: float) -> float:
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _newton_polish(coeffs, dcoeffs, x, lo, hi, target=1e-13, iters=60):
    for _ in range(iters):
        f = _horner(coeffs, x)
        if abs(f) <= target:
            break
        d = _horner(dcoeffs, x)
        if d == 0.0:
            break
        step = f / d
        nx = x - step
        if not (lo - 1e-6 <= nx <= hi + 1e-6):
            break
        x = nx
        if abs(step) < 1e-16:
            break
    return x


def real_roots_in_interval(
    coeffs: Sequence[float],
    lo: float,
    hi: float,
    tol: float = 1e-10,
    grid: int = 4096,
) -> list[tuple[float, int]]:
    """All real roots of the polynomial in [lo, hi], to absolute accuracy tol.

    Sign-change bisection on a uniform grid, then Newton polish.  The search
    interval is padded slightly so roots sitting exactly on an endpoint are
    caught; reported roots are clamped back into [lo, hi].  Raises
    GridTooCoarse when a sign-preserving dip suggests a root pair tighter
    than the grid resolution.
    """
    if lo >= hi:
        raise ValueError("need lo < hi")
    coeffs = list(coeffs)
    while coeffs and coeffs[-1] == 0.0:
        coeffs.pop()
    if len(coeffs) <= 1:
        return []
    dcoeffs = [i * c for i, c in enumerate(coeffs)][1:]
    pad = max(10 * tol, 1e-9) * max(1.0, abs(lo), abs(hi))
    a, b = lo - pad, hi + pad
    xs = [a + (b - a) * k / grid for k in range(grid + 1)]
    vals = [_horner(coeffs, x) for x in xs]
    scale = max(abs(v) for v in vals) or 1.0

    roots: list[float] = []
    bracketed_cells: set[int] = set()
    for k in range(grid):
        v0, v1 = vals[k], vals[k + 1]
        if v0 == 0.0:
            roots.append(xs[k])
            bracketed_cells.update((k - 1, k))
            continue
        if v0 * v1 < 0.0:
            x0, x1 = xs[k], xs[k + 1]
            f0 = v0
            for _ in range(80):
                xm = 0.5 * (x0 + x1)
                fm = _horner(coeffs, xm)
                if fm == 0.0:
                    x0 = x1 = xm
                    break
                if f0 * fm < 0.0:
                    x1 = xm
                else:
                    x0, f0 = xm, fm
            roots.append(_newton_polish(coeffs, dcoeffs, 0.5 * (x0 + x1), a, b))
            bracketed_cells.add(k)
    if vals[grid] == 0.0:
        roots.append(xs[grid])
        bracketed_cells.add(grid - 1)

    # sign-preserving near-zero dips: suspected even-multiplicity pair
    for k in range(1, grid):
        if abs(vals[k]) >= abs(vals[k - 1]) or abs(vals[k]) >= abs(vals[k + 1]):
            continue
        if any(c in bracketed_cells for c in (k - 2, k - 1, k, k + 1)):
            continue
        x0 = _newton_polish(dcoeffs, [i * c for i, c in enumerate(dcoeffs)][1:], xs[k], a, b)
        if a <= x0 <= b:
            p0 = abs(_horner(coeffs, x0))
            if p0 <= 1e-12 * scale:
                # a genuine touching root of even multiplicity
                roots.append(x0)
            elif p0 <= tol * scale:
                raise GridTooCoarse(
                    f"sign-preserving dip near z={x0:.6g}; retry with a finer grid"
                )

    out: list[tuple[float, int]] = []
    d_scale = max(abs(c) for c in dcoeffs) if dcoeffs else 1.0
    for r in sorted(roots):
        r = min(max(r, lo), hi)
        if out and abs(r - out[-1][0]) <= max(tol, (b - a) / grid * 1e-6):
            continue
        mult = 1 if abs(_horner(dcoeffs, r)) > math.sqrt(tol) * d_scale else 2
        if mult == 2 and len(dcoeffs) > 1:
            # near a double root the plain Newton step stalls; polishing the
            # derivative instead restores full accuracy
            ddcoeffs = [i * c for i, c in enumerate(dcoeffs)][1:]
            r2 = _newton_polish(dcoeffs, ddcoeffs, r, a, b)
            if abs(_horner(coeffs, r2)) <= abs(_horner(coeffs, r)) + 1e-12 * scale:
                r = min(max(r2, lo), hi)
        out.append((r, mult))
    return out
