"""Exact-arithmetic polynomial layer for the boundary-curve elimination.

The upper/lower boundary arcs of the Foguel numerical range lie on a sextic
curve in (u, v) = (x^2, y^2).  That curve arises by eliminating the
tan(theta/2) parameter from the two polynomial equations describing the
envelope of the supporting-line family.  This module holds

  * :class:`ExactPoly` -- sparse multivariate polynomials with exact integer
    or rational coefficients,
  * the verbatim transcriptions of the elimination system
    (:func:`envelope_system`) and of the sextic (:func:`sextic_polynomial`),
  * resultants from the Bezout matrix: for deg f = m >= deg g = n it is
    m x m where the Sylvester matrix is (m+n) x (m+n), and
    det Bez(f, g) = (-1)^(m(m-1)/2) lc(f)^(m-n) Res(f, g); the elimination
    system has m = 10, n = 8 and lc(f) = -r^2, so Res = -det Bez / r^4.
    Every route takes that one matrix: fraction-free Bareiss elimination
    over the integers, and elimination modulo primes;
  * :func:`verify_sextic_resultant_identity` -- an evaluation/interpolation
    certificate that the sextic divides the resultant of the elimination
    system, with exact held-out validation.

The certificate fits its cofactor multi-modularly (Collins, J. ACM 18,
1971): modulo one 31-bit prime after another, drawn on demand, one pass of
int64 numpy arrays takes the Bezout determinants of all 29 sections, their
Newton interpolation and their exact division by the sextic sections.  Res
is even in x and the 37 abscissae are symmetric about 0, so the 551
determinants of a prime are taken at the 19 distinct |x| and mirrored.  The
cofactor's rational coefficients come back by the Chinese remainder theorem
and rational reconstruction, with no bound on the height of r.  The fit is
only a candidate: the held-out check in exact cleared-integer arithmetic is
the sole judge of success.  A section that does not divide modulo a prime
is recomputed exactly, that section alone, so failure reports are exact
too.  Every exact point value is an integer sum over a known denominator
(:func:`_evaluate_cleared`).

Rationals are plain :class:`fractions.Fraction` values: arbitrary-precision
numerator, positive denominator, always in lowest terms.  Polynomials are
immutable and all operations are pure, so concurrent use is safe; the
certificate's sample evaluations are independent of each other.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping, Sequence, Union

import numpy as np

Scalar = Union[int, Fraction]

__all__ = [
    "ExactPoly",
    "ResultantReport",
    "envelope_system",
    "sextic_polynomial",
    "mutated_sextic",
    "bareiss_determinant",
    "resultant",
    "resultant_at",
    "verify_sextic_resultant_identity",
]


def _normalize_scalar(value: Scalar) -> Scalar:
    """Collapse integral Fractions to int so term tables stay canonical."""
    if isinstance(value, Fraction):
        if value.denominator == 1:
            return int(value)
        return value
    if isinstance(value, int):
        return value
    raise TypeError(f"exact coefficients must be int or Fraction, got {type(value).__name__}")


# ---------------------------------------------------------------------------
# Exact point evaluation in cleared integers
# ---------------------------------------------------------------------------


def _cleared_terms(terms: Mapping[tuple, Scalar]) -> tuple:
    """``({expo: integer}, scale)``: the terms times the lcm of their coefficient denominators."""
    scale = math.lcm(*(c.denominator for c in terms.values()))
    return {expo: c.numerator * (scale // c.denominator) for expo, c in terms.items()}, scale


def _degrees(polys: Sequence[Mapping[tuple, Scalar]], nvars: int) -> tuple:
    """The largest exponent of each variable over the term maps ``polys`` (0 for none)."""
    return tuple(max((expo[i] for terms in polys for expo in terms), default=0) for i in range(nvars))


def _evaluate_cleared(polys: Sequence[Mapping[tuple, int]], degrees: Sequence[int], point) -> tuple:
    """Integer-coefficient polynomials at one rational point, over one common denominator.

    For the value a/b (lowest terms) of a variable of degree at most D the
    point builds one table a^i b^(D - i), i = 0..D: the powers of a/b times
    b^D.  A term c x^i y^j ... is then the integer c * table_x[i] *
    table_y[j] ..., so each polynomial's value is an integer sum over the
    common denominator prod b^D, and no Fraction is built per term.  Returns
    the list of sums, one per polynomial, and that denominator.
    """
    tables = []
    den = 1
    for value, degree in zip(point, degrees):
        a, b = value.numerator, value.denominator
        table = [b**degree]
        for _ in range(degree):
            table.append(table[-1] // b * a)
        tables.append(table)
        den *= table[0]
    sums = []
    for terms in polys:
        total = 0
        for expo, c in terms.items():
            for table, e in zip(tables, expo):
                c *= table[e]
            total += c
        sums.append(total)
    return sums, den


class ExactPoly:
    """Sparse multivariate polynomial over exact rational scalars.

    Terms are stored as a map from exponent tuples (one slot per variable,
    in declaration order) to nonzero int/Fraction coefficients; the
    constructor drops the zeros that arithmetic leaves.  All arithmetic is
    exact; evaluation at rational points is exact.
    """

    __slots__ = ("variables", "terms")

    def __init__(self, variables: Sequence[str], terms: Mapping[tuple, Scalar]):
        variables = tuple(variables)
        clean = {}
        nvars = len(variables)
        for expo, coeff in terms.items():
            expo = tuple(int(e) for e in expo)
            if len(expo) != nvars:
                raise ValueError(f"exponent {expo} does not match variables {variables}")
            if any(e < 0 for e in expo):
                raise ValueError(f"negative exponent in {expo}")
            coeff = _normalize_scalar(coeff)
            if coeff != 0:
                clean[expo] = coeff
        object.__setattr__(self, "variables", variables)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("ExactPoly is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def constant(cls, variables: Sequence[str], value: Scalar) -> "ExactPoly":
        return cls(variables, {(0,) * len(variables): value})

    @classmethod
    def generators(cls, variables: Sequence[str]) -> tuple:
        """One monomial generator per variable, all over the same ring."""
        variables = tuple(variables)
        gens = []
        for i in range(len(variables)):
            expo = tuple(1 if j == i else 0 for j in range(len(variables)))
            gens.append(cls(variables, {expo: 1}))
        return tuple(gens)

    # -- ring structure ----------------------------------------------------

    def _coerce(self, other) -> "ExactPoly":
        if isinstance(other, ExactPoly):
            if other.variables != self.variables:
                raise ValueError(
                    f"variable mismatch: {self.variables} vs {other.variables}"
                )
            return other
        if isinstance(other, (int, Fraction)):
            return ExactPoly.constant(self.variables, other)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out = dict(self.terms)
        for expo, coeff in other.terms.items():
            out[expo] = out.get(expo, 0) + coeff
        return ExactPoly(self.variables, out)

    __radd__ = __add__

    def __neg__(self):
        return ExactPoly(self.variables, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out: dict = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                expo = tuple(a + b for a, b in zip(e1, e2))
                out[expo] = out.get(expo, 0) + c1 * c2
        return ExactPoly(self.variables, out)

    __rmul__ = __mul__

    def __pow__(self, power: int):
        if not isinstance(power, int) or power < 0:
            raise ValueError("only nonnegative integer powers")
        result = ExactPoly.constant(self.variables, 1)
        base = self
        while power:
            if power & 1:
                result = result * base
            base = base * base
            power >>= 1
        return result

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = ExactPoly.constant(self.variables, other)
        if not isinstance(other, ExactPoly):
            return NotImplemented
        return self.variables == other.variables and self.terms == other.terms

    # -- queries -----------------------------------------------------------

    def degree(self, variable: str | None = None) -> int:
        """Total degree, or degree in one variable; zero polynomial gives -1."""
        if not self.terms:
            return -1
        if variable is None:
            return max(sum(e) for e in self.terms)
        idx = self.variables.index(variable)
        return max(e[idx] for e in self.terms)

    def univariate_coefficients(self, variable: str) -> list:
        """Coefficients in ``variable`` (index = exponent), over the other variables."""
        idx = self.variables.index(variable)
        rest = tuple(v for i, v in enumerate(self.variables) if i != idx)
        deg = self.degree(variable)
        tables: list[dict] = [dict() for _ in range(max(deg, 0) + 1)]
        for expo, coeff in self.terms.items():
            key = tuple(e for i, e in enumerate(expo) if i != idx)
            tables[expo[idx]][key] = coeff
        return [ExactPoly(rest, t) for t in tables]

    # -- evaluation --------------------------------------------------------

    def evaluate(self, values: Mapping[str, Scalar]) -> Fraction:
        """Exact evaluation; every variable must be assigned."""
        missing = [v for v in self.variables if v not in values]
        if missing:
            raise ValueError(f"missing assignments for {missing}")
        terms, scale = _cleared_terms(self.terms)
        point = [Fraction(values[v]) for v in self.variables]
        (value,), den = _evaluate_cleared((terms,), _degrees((terms,), len(point)), point)
        return Fraction(value, scale * den)

    def __repr__(self):
        if not self.terms:
            return "0"
        parts = []
        for expo in sorted(self.terms, reverse=True):
            coeff = self.terms[expo]
            mono = "*".join(
                f"{v}^{e}" if e > 1 else v
                for v, e in zip(self.variables, expo)
                if e
            )
            if mono:
                parts.append(f"{coeff}*{mono}" if coeff != 1 else mono)
            else:
                parts.append(str(coeff))
        return " + ".join(parts).replace("+ -", "- ")


# ---------------------------------------------------------------------------
# Transcriptions
# ---------------------------------------------------------------------------


def sextic_polynomial() -> ExactPoly:
    """Implicit curve of the upper/lower boundary arcs, in Z[u, v, r].

    The zero set, read in u = x^2 and v = y^2, contains every envelope point
    of the sextic regime.  This grouped construction is the single
    transcription shared with the floating-point evaluator in
    :mod:`fnr.boundary`.
    """
    u, v, r = ExactPoly.generators(("u", "v", "r"))
    return (
        16 * r**6 * (u + v) ** 2
        - 8 * r**4 * (u**3 + (v - 1) * (4 * u**2 + 5 * u * v - u + 2 * v**2) - v)
        + r**2
        * (
            ((u - 20) * u - 8) * v**2
            + 2 * ((u - 15) * u - 4) * (u - 1) * v
            + ((u - 10) * u + 1) * (u - 1) ** 2
        )
        + (u - 1) ** 3 * (u + v - 1)
    )


def envelope_system() -> tuple:
    """The two tan(theta/2) elimination polynomials, in Z[t, r, x, y].

    Writing t for tan(theta/2), the supporting-line equation of the sextic
    regime and its theta-derivative combine (square of the first, product of
    the two) into two polynomial equations of degree 10 and 8 in t.  Envelope
    points satisfy both; eliminating t yields the sextic curve.
    """
    t, r, x, y = ExactPoly.generators(("t", "r", "x", "y"))
    first = (
        -(r**2) * t**10
        - 3 * r**2 * t**8
        - 2 * t**6 * (r**2 - 8 * x**2 + 8 * y**2)
        + 2 * t**4 * (r**2 - 8 * x**2 + 8 * y**2)
        + 3 * r**2 * t**2
        + r**2
        + 8 * t**7 * x * y
        - 48 * t**5 * x * y
        + 8 * t**3 * x * y
    )
    second = (
        -(r**2) * t**8
        - 4 * t**6 * (r**2 - x**2 + 1)
        - 2 * t**4 * (3 * r**2 + 4 * x**2 - 8 * y**2 + 4)
        - 4 * t**2 * (r**2 - x**2 + 1)
        - r**2
        - 16 * t**5 * x * y
        + 16 * t**3 * x * y
    )
    return first, second


def mutated_sextic() -> ExactPoly:
    """Copy of the sextic with one coefficient corrupted (self-test helper).

    The coefficient of u^2 r^6 is bumped from 16 to 17, which must make the
    divisibility certificate fail with nonzero held-out residuals.
    """
    sextic = sextic_polynomial()
    terms = dict(sextic.terms)
    terms[(2, 0, 6)] += 1
    return ExactPoly(sextic.variables, terms)


# ---------------------------------------------------------------------------
# Determinants and resultants
# ---------------------------------------------------------------------------


def _rational_quotient(a: Scalar, b: Scalar) -> Scalar:
    return _normalize_scalar(Fraction(a) / Fraction(b))


def bareiss_determinant(rows: Sequence[Sequence[Scalar]]) -> Scalar:
    """Fraction-free determinant of a square matrix of int or Fraction entries.

    Intermediate entries stay in the ring of the entries by Bareiss'
    identity, so each step's division by the previous pivot is exact: an
    all-int matrix runs a checked integer division inline, and any other
    matrix divides in Q.
    """
    matrix = [list(row) for row in rows]
    n = len(matrix)
    if n == 0:
        return 1
    if any(len(row) != n for row in matrix):
        raise ValueError("matrix must be square")
    integral = all(type(v) is int for row in matrix for v in row)
    sign = 1
    prev = None
    for k in range(n - 1):
        if not matrix[k][k]:
            for i in range(k + 1, n):
                if matrix[i][k]:
                    matrix[k], matrix[i] = matrix[i], matrix[k]
                    sign = -sign
                    break
            else:
                return matrix[0][0] * 0
        pivot_row = matrix[k]
        pivot = pivot_row[k]
        for i in range(k + 1, n):
            row = matrix[i]
            lead = row[k]
            for j in range(k + 1, n):
                value = pivot * row[j] - lead * pivot_row[j]
                if prev is not None:
                    if integral:
                        value, rem = divmod(value, prev)
                        if rem:
                            raise ArithmeticError("non-exact integer division in Bareiss step")
                    else:
                        value = _rational_quotient(value, prev)
                row[j] = value
        prev = pivot
    return sign * matrix[n - 1][n - 1]


def _bezout_matrix(f: Sequence, g: Sequence, p: int | None = None) -> list:
    """Bezout matrix of f and g, given by descending coefficients with deg f >= deg g.

    For m = deg f the matrix is m x m and symmetric, the coefficients of
    (f(s) g(t) - f(t) g(s)) / (s - t) = sum B[i][j] s^i t^j.  With ascending
    coefficients f_k and g_k (g padded with zeros to degree m), Barnett's
    recurrence fills it: B[i][j] = B[i-1][j+1] + f_{j+1} g_i - f_i g_{j+1}
    for j >= i.  Entries need only +, - and *, so the coefficients may be
    numbers or int64 residue arrays; with ``p`` every entry is reduced
    modulo p, which keeps residue arrays in [0, p) exact (each product is
    below 2^62).
    """
    m = len(f) - 1
    if m < len(g) - 1:
        raise ValueError("deg f must be at least deg g")
    fa = list(f)[::-1]
    ga = list(g)[::-1] + [0] * (m + 1 - len(g))
    rows = [[None] * m for _ in range(m)]
    for i in range(m):
        for j in range(i, m):
            entry = fa[j + 1] * ga[i] - fa[i] * ga[j + 1]
            if i and j + 1 < m:
                entry = entry + rows[i - 1][j + 1]
            if p is not None:
                entry %= p
            rows[i][j] = rows[j][i] = entry
    return rows


def resultant(f: Sequence[Scalar], g: Sequence[Scalar]) -> Scalar:
    """Resultant of two univariate polynomials given by descending coefficients.

    Rational coefficients are cleared to integers per polynomial and the pair
    is ordered so that deg f = m >= deg g = n, using
    Res(f, g) = (-1)^(mn) Res(g, f).  The integer Bezout matrix (m x m, where
    the Sylvester matrix is (m+n) x (m+n)) gives the resultant through
    det B = (-1)^(m(m-1)/2) lc(f)^(m-n) Res(f, g), with the determinant taken
    by Bareiss elimination and lc(f)^(m-n) divided out exactly; then the
    clearing scales are divided back out, so the value is the canonical
    resultant of the inputs as given.
    """
    f = [c if type(c) is int else Fraction(c) for c in f]
    g = [c if type(c) is int else Fraction(c) for c in g]
    if not f or f[0] == 0 or not g or g[0] == 0:
        raise ValueError("leading coefficient must not vanish")
    m = len(f) - 1
    n = len(g) - 1
    if m == 0:
        return _normalize_scalar(f[0] ** n)
    if n == 0:
        return _normalize_scalar(g[0] ** m)
    sign = 1
    if m < n:
        f, g, m, n = g, f, n, m
        sign = (-1) ** (m * n)

    def cleared(coeffs):
        scale = math.lcm(*(c.denominator for c in coeffs))
        return [c.numerator * (scale // c.denominator) for c in coeffs], scale

    fi, sf = cleared(f)
    gi, sg = cleared(g)
    value, rem = divmod(bareiss_determinant(_bezout_matrix(fi, gi)), fi[0] ** (m - n))
    if rem:
        raise ArithmeticError("non-exact integer division by lc(f)^(m - n)")
    if m * (m - 1) // 2 % 2:
        sign = -sign
    return _normalize_scalar(Fraction(sign * value, sf**n * sg**m))


@functools.cache
def _system_coefficients() -> tuple:
    """Coefficient polynomials in (r, x, y) of the elimination system, descending in t.

    Degrees are 10 and 8, so its Bezout matrix is 10 x 10 (its Sylvester
    matrix would be 18 x 18).
    """
    first, second = envelope_system()
    return tuple(list(reversed(p.univariate_coefficients("t"))) for p in (first, second))


@functools.cache
def _system_terms() -> tuple:
    """Integer term tables {(i, j, k): c} of c r^i x^j y^k for each coefficient of the system.

    f's coefficients and then g's, descending in t: the one table that both
    the exact point values and the modular residues read.
    """
    return tuple(poly.terms for coeffs in _system_coefficients() for poly in coeffs)


@functools.cache
def _system_degrees() -> tuple:
    return _degrees(_system_terms(), 3)


def _split_system(values: Sequence) -> tuple:
    """The values of the system's coefficients, in :func:`_system_terms` order, as (f's, g's)."""
    f_count = len(_system_coefficients()[0])
    return values[:f_count], values[f_count:]


def _system_resultant(r: Fraction, x: Fraction, y: Fraction) -> tuple:
    """Resultant in t of the elimination system at (r, x, y), as (numerator, denominator).

    The 20 coefficients come out of :func:`_evaluate_cleared` as integers
    over one common denominator D, and Res(D f, D g) = D^(m + n) Res(f, g)
    with m + n = 18, so the integer vectors go to :func:`resultant` and
    D^18 is the denominator.
    """
    values, den = _evaluate_cleared(_system_terms(), _system_degrees(), (r, x, y))
    return resultant(*_split_system(values)), den ** (len(values) - 2)


def resultant_at(r: Scalar, x: Scalar, y: Scalar) -> Scalar:
    """Resultant (in t) of the elimination system at an exact point.

    Both leading coefficients equal -r^2, so the elimination degenerates at
    r = 0 and the call is rejected there.
    """
    r = Fraction(r)
    if r == 0:
        raise ValueError(
            "r = 0: leading coefficients of the elimination system vanish "
            "and the resultant degenerates"
        )
    return _normalize_scalar(Fraction(*_system_resultant(r, Fraction(x), Fraction(y))))


# ---------------------------------------------------------------------------
# Interpolation
# ---------------------------------------------------------------------------


def _newton_interpolate(xs: Sequence[Fraction], ys: Sequence[Fraction]) -> list:
    """Monomial coefficients (ascending) of the unique interpolant, exact."""
    n = len(xs)
    divided = list(ys)
    for level in range(1, n):
        for i in range(n - 1, level - 1, -1):
            divided[i] = (divided[i] - divided[i - 1]) / (xs[i] - xs[i - level])
    # Horner expansion of the Newton form into monomial coefficients.
    coeffs = [divided[n - 1]]
    for i in range(n - 2, -1, -1):
        coeffs = [Fraction(0)] + coeffs
        for j in range(len(coeffs) - 1):
            coeffs[j] -= xs[i] * coeffs[j + 1]
        coeffs[0] += divided[i]
    return coeffs


# ---------------------------------------------------------------------------
# Divisibility certificate
# ---------------------------------------------------------------------------


@dataclass
class ResultantReport:
    """Outcome of the evaluation/interpolation divisibility certificate."""

    r: Fraction
    degree_bound: int
    sample_count: int
    holdout_count: int
    seed: int
    success: bool
    cofactor: "ExactPoly | None" = None
    cofactor_total_degree: int | None = None
    holdout_failures: list = field(default_factory=list)
    failure_reason: str | None = None

    def to_json_dict(self) -> dict:
        cof = None
        if self.cofactor is not None:
            cof = {
                f"{i},{j}": str(c)
                for (i, j), c in sorted(self.cofactor.terms.items())
            }
        return {
            "r": str(self.r),
            "degree_bound": self.degree_bound,
            "sample_count": self.sample_count,
            "holdout_count": self.holdout_count,
            "seed": self.seed,
            "success": self.success,
            "cofactor_total_degree": self.cofactor_total_degree,
            "cofactor": cof,
            "holdout_failures": [
                {"x": str(x), "y": str(y), "residual": str(res)}
                for (x, y, res) in self.holdout_failures
            ],
            "failure_reason": self.failure_reason,
        }

    def to_text(self) -> str:
        lines = [
            f"divisibility certificate at r = {self.r}",
            f"  degree bound   : {self.degree_bound}",
            f"  samples        : {self.sample_count} "
            f"({self.sample_count - self.holdout_count} fitting, {self.holdout_count} held out)",
            f"  seed           : {self.seed}",
            f"  success        : {self.success}",
        ]
        if self.cofactor_total_degree is not None:
            lines.append(f"  cofactor degree: {self.cofactor_total_degree}")
        if self.failure_reason:
            lines.append(f"  failure        : {self.failure_reason}")
        for x, y, res in self.holdout_failures[:10]:
            lines.append(f"    nonzero residual at ({x}, {y}): {res}")
        if len(self.holdout_failures) > 10:
            lines.append(f"    ... {len(self.holdout_failures) - 10} more")
        return "\n".join(lines)


# Pseudo-random rational points at which the fitted identity is re-checked exactly.
_HOLDOUT = 64

# The certificate fits one sample grid at every r != 0, the grid a cofactor
# of total degree at most 28 asks for: each section Res(x, y_k) through 37 =
# 28 + 9 abscissae, divided by the sextic section of degree 8 in x into 29
# quotient coefficients, and 29 sections y_k.  Res has degree at most 28 in x
# and 20 in y (the degrees of the Sylvester entries prove it for every r), and
# E(x^2, y^2, r) has degree exactly 8 in x and 6 in y at every r != 0: its u^4
# coefficient is 1 + r^2 and its v^3 coefficient -16 r^4.  So C = Res / E has
# degree at most 20 in x and 14 in y, and the grid covers every proven degree:
#   deg_x Res <= 28 < 37 samples,  deg_y C <= 14 < 29 sections,
#   deg_x C <= 20 < 29 coefficients.
# A fitted cofactor of total degree above 28 fails, and only the held-out
# check can declare success.
#
# Res is even in x.  Every coefficient of the system depends on x only
# through x^2 and x y, and x y multiplies exactly the odd powers of t, so
# f(-t; x, y) = f(t; -x, y) and likewise for g.  Negating t negates every
# root and multiplies lc(f) by (-1)^m and lc(g) by (-1)^n, so
# Res_t(f(-t), g(-t)) = (-1)^(3mn) Res_t(f, g) = (-1)^(mn) Res_t(f, g), and
# mn = 80: Res(-x, y) = Res(x, y).  The grid's abscissae are therefore 0 and
# +-(k + off_x), k = 0..17, and Res is taken at the 19 distinct |x| only.
# The interpolation needs nothing of the nodes but that they are distinct:
# through any 37 distinct abscissae it recovers every Res(x, y_k) of degree
# at most 28, so the fit, its cofactor and every report stay the same.
_DEGREE_BOUND = 28


def _certificate_rng(r: Fraction, seed: int) -> random.Random:
    # Mix r into the stream deterministically (ints hash stably).
    return random.Random(seed * 0x9E3779B9 + 131 * r.numerator + r.denominator)


def _divide_univariate(num: Sequence[Fraction], den: Sequence[Fraction]) -> tuple:
    """Quotient and remainder of exact univariate division (ascending coeffs, den[-1] != 0)."""
    quot = [Fraction(0)] * max(len(num) - len(den) + 1, 0)
    rem = list(num)
    for k in range(len(quot) - 1, -1, -1):
        quot[k] = factor = rem[len(den) - 1 + k] / den[-1]
        for i, d in enumerate(den):
            rem[i + k] -= factor * d
    while rem and rem[-1] == 0:
        rem.pop()
    return quot, rem


class _Certificate:
    """Sample grid, seeded stream and exact evaluators of one certificate run.

    Construction validates r and draws the grid offsets; every held-out
    draw then replays the stream from that point, so each conclusion or
    failure report draws what a fresh run draws.  With
    ``mutate`` the sextic is :func:`mutated_sextic`.  Every exact point value
    -- Res, the sextic, its sections and the cofactor -- is taken by
    :func:`_evaluate_cleared`: an integer sum over a known denominator from
    one power table per coordinate, with the sextic's coefficients cleared
    once per certificate.
    """

    def __init__(self, r, seed, mutate=False):
        r = Fraction(r)
        if r == 0:
            raise ValueError("r = 0: the elimination system degenerates")

        self.r, self.seed = r, seed
        rng = _certificate_rng(r, seed)
        sextic = mutated_sextic() if mutate else sextic_polynomial()
        self.sextic_terms, self.sextic_scale = _cleared_terms(sextic.terms)
        self.sextic_degrees = _degrees((self.sextic_terms,), 3)
        # The sextic's terms in (u, v, r) by their power of u: evaluated at
        # u = 1, row i is the coefficient of u^i.
        self.sextic_rows = [
            {expo: c for expo, c in self.sextic_terms.items() if expo[0] == i}
            for i in range(self.sextic_degrees[0] + 1)
        ]

        xs_count = _DEGREE_BOUND + 9
        ys_count = _DEGREE_BOUND + 1

        den_x = rng.choice((7, 11, 13))
        den_y = rng.choice((7, 11, 13))
        off_x = Fraction(rng.randrange(1, den_x), den_x)
        off_y = Fraction(rng.randrange(1, den_y), den_y)
        # The distinct |x| (xs_count is odd), and xs[i] = +-x_magnitudes[mirror[i]]
        # in ascending order.
        half = xs_count // 2
        self.x_magnitudes = [Fraction(0)] + [k + off_x for k in range(half)]
        self.mirror = list(range(half, 0, -1)) + list(range(half + 1))
        self.xs = [-x for x in self.x_magnitudes[:0:-1]] + self.x_magnitudes
        self.ys = [Fraction(k - ys_count // 2) + off_y for k in range(ys_count)]
        self.sample_count = xs_count * ys_count + _HOLDOUT
        self.stream = rng.getstate()

    def held_out(self, count: int) -> list:
        """``count`` rationals n/d with |n|, d < 1000, from the stream as the grid draws left it."""
        rng = random.Random()
        rng.setstate(self.stream)
        return [Fraction(rng.randint(-999, 999), rng.randint(1, 999)) for _ in range(count)]

    def res_value(self, x: Fraction, y: Fraction) -> Fraction:
        return Fraction(*_system_resultant(self.r, x, y))

    def sextic_section(self, y: Fraction) -> list:
        """Coefficients (ascending in x) of E(x^2, y^2, r) for fixed y."""
        sums, den = _evaluate_cleared(
            self.sextic_rows, self.sextic_degrees, (Fraction(1), y * y, self.r)
        )
        out = [Fraction(0)] * (2 * len(sums) - 1)
        for i, c in enumerate(sums):
            out[2 * i] = Fraction(c, self.sextic_scale * den)
        return out

    def sextic_cleared(self, x: Fraction, y: Fraction) -> tuple:
        """E(x^2, y^2, r) as (numerator, denominator)."""
        (value,), den = _evaluate_cleared(
            (self.sextic_terms,), self.sextic_degrees, (x * x, y * y, self.r)
        )
        return value, self.sextic_scale * den

    def sextic_value(self, x: Fraction, y: Fraction) -> Fraction:
        return Fraction(*self.sextic_cleared(x, y))

    def report(self, **fields) -> ResultantReport:
        return ResultantReport(
            r=self.r,
            degree_bound=_DEGREE_BOUND,
            sample_count=self.sample_count,
            seed=self.seed,
            **fields,
        )

    def conclude(self, terms: dict) -> ResultantReport:
        """Check the fitted cofactor at the exact held-out points; the only way to succeed.

        Res, E and C are integers over known denominators at each point (the
        cofactor's coefficients are cleared once, here), so Res - E C is one
        integer cross-difference, made a Fraction only when it is nonzero.
        """
        cofactor = ExactPoly(("x", "y"), terms)
        total_degree = max(cofactor.degree(), 0)
        cleared, scale = _cleared_terms(cofactor.terms)
        degrees = _degrees((cleared,), 2)

        points = self.held_out(2 * _HOLDOUT)
        failures = []
        for x, y in zip(points[::2], points[1::2]):
            res, res_den = _system_resultant(self.r, x, y)
            sextic, sextic_den = self.sextic_cleared(x, y)
            (cof,), cof_den = _evaluate_cleared((cleared,), degrees, (x, y))
            cof_den *= scale
            residual = res * sextic_den * cof_den - sextic * cof * res_den
            if residual:
                failures.append((x, y, Fraction(residual, res_den * sextic_den * cof_den)))

        reason = None
        if total_degree > _DEGREE_BOUND:
            reason = (
                f"interpolated cofactor has total degree {total_degree} "
                f"> bound {_DEGREE_BOUND}"
            )
        if failures:
            reason = f"{len(failures)} held-out residuals are nonzero"

        success = reason is None
        return self.report(
            holdout_count=_HOLDOUT,
            success=success,
            cofactor=cofactor if success else None,
            cofactor_total_degree=total_degree,
            holdout_failures=failures,
            failure_reason=reason,
        )


def _section_failure(cert: _Certificate, y: Fraction) -> ResultantReport:
    """The report of a section y that does not divide modulo a prime, computed exactly.

    Res(x, y) is taken at the distinct |x|, mirrored, interpolated through
    the grid abscissae and divided by the sextic section, and the quotient's
    residuals are taken at 8 held-out abscissae.  Every denominator and node
    difference is a unit modulo that prime, so the exact remainder reduces to
    the modular one: it is nonzero.
    """
    distinct = [cert.res_value(x, y) for x in cert.x_magnitudes]
    values = [distinct[i] for i in cert.mirror]
    quot, rem = _divide_univariate(_newton_interpolate(cert.xs, values), cert.sextic_section(y))
    quotient = ExactPoly(("x",), {(i,): c for i, c in enumerate(quot)})
    failures = []
    for x in cert.held_out(8):
        residual = cert.res_value(x, y) - cert.sextic_value(x, y) * quotient.evaluate({"x": x})
        if residual:
            failures.append((x, y, residual))
    return cert.report(
        holdout_count=8,
        success=False,
        holdout_failures=failures,
        failure_reason=(
            f"fitting system inconsistent: section y = {y} leaves a "
            f"degree-{len(rem) - 1} remainder under exact division"
        ),
    )


def verify_sextic_resultant_identity(
    r: Scalar,
    seed: int = 1,
    mutate: bool = False,
) -> ResultantReport:
    """Certify that the sextic divides the eliminated resultant at fixed r.

    For the given rational r, the resultant Res(x, y) of the elimination
    system is sampled on one tensor grid of 37 abscissae, symmetric about 0,
    by 29 shifted sections, fixed for every r and large enough for every
    degree the elimination can have (the bounds and the symmetry are derived
    next to ``_DEGREE_BOUND``):
    along each horizontal section y = y_k the section polynomial Res(x, y_k)
    is recovered by Newton interpolation and divided exactly by the sextic
    section E(x^2, y_k^2, r).  The section quotients are interpolated across
    y into the cofactor C(x, y), and the identity Res = E * C is re-verified
    exactly at 64 pseudo-random rational points; every held-out residual
    must be exactly zero, and only that check can declare success.  At each
    point Res, E and C are integers over known denominators: power tables of
    the coordinates clear every term, the integer coefficient vectors of the
    system go to :func:`resultant`, and Res - E * C is one integer
    cross-difference.

    The fitting runs modulo one prime after another (Collins' multi-modular
    method), with primes drawn on demand, so r may have any height: the
    Bezout determinants, the interpolation and the section divisions are
    int64 array arithmetic.  The 37 abscissae are 0 and 18 pairs +-x, and Res
    is even in x, so each section takes its determinants at the 19 distinct
    |x| only.  The residues are joined by the Chinese remainder
    theorem, and each cofactor coefficient is rationally reconstructed
    (Wang's bound) until one more prime leaves every coefficient unchanged.
    If the held-out check rejects that fit, primes are added until the
    reconstruction settles again: on the same terms the rejection stands,
    and new terms are checked afresh.  A section that does not divide modulo
    a prime ends the run with that section's exact residuals.

    Success across several independent r values establishes the divisibility
    claimed for the boundary curve; the cofactor collects the extraneous
    factors of the non-monic elimination.  Grid offsets and held-out samples
    are drawn from a generator seeded by ``seed`` (and r), so reports are
    bit-reproducible.  Sample coordinates are rationals with numerator and
    denominator bounded by 1000.  ``mutate`` certifies
    :func:`mutated_sextic` instead, a self-test that must fail.  Each report
    records the grid's degree bound, 28, and 1137 samples: the 37 x 29 grid
    points and 64 held out.
    """
    cert = _Certificate(r, seed, mutate)
    concluded = report = None
    try:
        for terms in _settled_fits(cert):
            if terms == concluded:
                break
            report, concluded = cert.conclude(terms), terms
            if report.success:
                break
    except _Indivisible as failure:
        return _section_failure(cert, failure.args[0])
    return report


# ---------------------------------------------------------------------------
# Modular fitting
# ---------------------------------------------------------------------------

def _strong_probable_prime(n: int, a: int) -> bool:
    """Miller-Rabin's test of the odd n > a to the base a."""
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = 2^s d with d odd
    x = pow(a, (n - 1) >> s, n)
    if x == 1:
        return True
    for _ in range(s):
        if x == n - 1:
            return True
        x = x * x % n
    return False


def _primes():
    """The 31-bit primes in descending order, from 2^31 - 1 down.

    A candidate is prime when it is a strong probable prime to the bases 2,
    3, 5 and 7; the least composite that passes all four is 3215031751
    (Pomerance, Selfridge and Wagstaff, Math. Comp. 35, 1980), so below 2^31
    the test is exact.  Residues lie in [0, p), so a product of two residues,
    and the difference of two such products, is below 2^62 in magnitude;
    each is reduced modulo p before anything else is added to it, because
    int64 wraps without warning.
    """
    for n in range(2**31 - 1, 2**30, -2):
        if all(_strong_probable_prime(n, a) for a in (2, 3, 5, 7)):
            yield n


def _residue(value: Fraction, p: int) -> int:
    return value.numerator * pow(value.denominator, -1, p) % p


def _inverse_mod(values: np.ndarray, p: int) -> np.ndarray:
    """Inverses modulo the prime p by Fermat's little theorem (0 maps to 0)."""
    result = np.ones_like(values)
    base = values % p
    exponent = p - 2
    while exponent:
        if exponent & 1:
            result = result * base % p
        base = base * base % p
        exponent >>= 1
    return result


def _determinants_mod(matrices: np.ndarray, p: int) -> np.ndarray:
    """Determinants modulo the prime p of square int64 matrices stacked along the last axis.

    ``matrices`` has shape (n, n, count), entries in [0, p), and is
    overwritten; entry [i, j] of every matrix is one contiguous row, so each
    step runs over rows of length count.  Step k swaps the first row with a
    nonzero entry in column k up to the diagonal, then replaces every lower
    row by pivot * row - lead * pivot row.  That scales the determinant by
    pivot^(rows below), a factor divided out once per matrix at the end; a
    column with no nonzero entry gives determinant 0.
    """
    n, _, count = matrices.shape
    m = matrices
    negate = np.zeros(count, bool)
    diagonal = np.ones(count, np.int64)  # product of the pivots so far
    scale = np.ones(count, np.int64)  # product of pivot^(rows below)
    work = np.empty((n - 1, n - 1, count), np.int64)
    for k in range(n - 1):
        first = np.argmax(m[k:, k] != 0, axis=0)
        swap = np.flatnonzero(first)
        if swap.size:
            rows = k + first[swap]
            top = m[k, :, swap]
            m[k, :, swap] = m[rows, :, swap]
            m[rows, :, swap] = top
            negate[swap] ^= True
        pivot = m[k, k]
        diagonal = diagonal * pivot % p
        scale = scale * diagonal % p
        lower = m[k + 1 :, k + 1 :]
        cross = work[: n - 1 - k, : n - 1 - k]
        # Both products lie in [0, (p - 1)^2] with (p - 1)^2 < 2^62, so their
        # difference fits int64 and is reduced before anything is added to it.
        np.multiply(m[k + 1 :, k, None], m[None, k, k + 1 :], out=cross)
        lower *= pivot
        lower -= cross
        lower %= p
    det = diagonal * m[n - 1, n - 1] % p * _inverse_mod(scale, p) % p
    return np.where(negate, (p - det) % p, det)


def _newton_mod(values: np.ndarray, nodes: Sequence[int], p: int) -> np.ndarray:
    """Ascending monomial coefficients of the interpolant through each row, modulo p.

    Row-wise the same divided differences and Horner expansion as
    :func:`_newton_interpolate`, for all rows at once; ``nodes`` are the
    abscissae as residues, and two equal ones raise :class:`ZeroDivisionError`.
    """
    n = len(nodes)
    # [i, j] is nodes[i] - nodes[j]; only the diagonal may vanish.
    differences = np.subtract.outer(nodes, nodes) % p
    if np.count_nonzero(differences) < n * (n - 1):
        raise ZeroDivisionError("two interpolation nodes are equal modulo p")
    inverse = _inverse_mod(differences, p)
    divided = values.copy()
    for level in range(1, n):
        step = np.diagonal(inverse, -level)  # 1 / (nodes[i] - nodes[i - level]), i >= level
        divided[:, level:] = (divided[:, level:] - divided[:, level - 1 : -1]) % p * step % p
    coeffs = np.zeros_like(divided)
    coeffs[:, 0] = divided[:, n - 1]
    for i in range(n - 2, -1, -1):
        length = n - i
        coeffs[:, 1:length] = coeffs[:, : length - 1].copy()
        coeffs[:, 0] = 0
        coeffs[:, : length - 1] = (coeffs[:, : length - 1] - nodes[i] * coeffs[:, 1:length]) % p
        coeffs[:, 0] = (coeffs[:, 0] + divided[:, i]) % p
    return coeffs


def _rational_reconstruct(value: int, modulus: int) -> Fraction | None:
    """The fraction n/d = value (mod modulus) with |n|, d <= sqrt(modulus / 2), if any.

    Wang's half-extended Euclidean algorithm: such a fraction is unique, and
    None means there is none.
    """
    bound = math.isqrt((modulus - 1) // 2)
    r0, r1 = modulus, value % modulus
    t0, t1 = 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        t0, t1 = t1, t0 - q * t1
    if abs(t1) > bound or math.gcd(r1, t1) != 1:
        return None
    return Fraction(r1, t1)


def _system_values_mod(r: int, xs: Sequence[int], ys: Sequence[int], p: int) -> np.ndarray:
    """Every coefficient of the system at every grid point (y, x), modulo p: shape (20, ny, nx)."""
    terms = _system_terms()
    top = max(_system_degrees()[1:])
    xpow = [np.ones(len(xs), np.int64), np.array(xs, np.int64)]
    ypow = [np.ones(len(ys), np.int64), np.array(ys, np.int64)]
    while len(xpow) <= top:
        xpow.append(xpow[-1] * xpow[1] % p)
        ypow.append(ypow[-1] * ypow[1] % p)
    out = np.zeros((len(terms), len(ys), len(xs)), np.int64)
    for acc, poly in zip(out, terms):
        for (i, j, k), c in poly.items():
            row = c * pow(r, i, p) % p * xpow[j] % p
            acc += ypow[k][:, None] * row[None, :] % p
            acc %= p
    return out


def _resultants_mod(coeffs: np.ndarray, p: int) -> np.ndarray:
    """Resultants of the elimination system modulo p from its coefficient residues.

    ``coeffs`` has shape (20, ...): the coefficients of f and then of g,
    descending in t, at each point; the result has the trailing shape.  The
    10 x 10 Bezout determinants are taken by :func:`_determinants_mod`, and
    with m = 10, n = 8 and lc(f) = -r^2, Res = (-1)^(m(m-1)/2) det B / lc(f)^(m-n)
    = -det B / r^4, so r must be a unit modulo p.
    """
    f, g = _split_system(list(coeffs.reshape(len(coeffs), -1)))
    m, n = len(f) - 1, len(g) - 1
    det = _determinants_mod(np.array(_bezout_matrix(f, g, p)), p)
    # lc(f) = -r^2 at every point, so lc(f)^(m - n) is one scalar to invert.
    values = det * pow(int(f[0][0]), -(m - n), p) % p
    if m * (m - 1) // 2 % 2:
        values = (p - values) % p
    return values.reshape(coeffs.shape[1:])


class _Indivisible(ArithmeticError):
    """Raised with the y of a sextic section that leaves a nonzero remainder modulo a prime."""


def _cofactor_mod(cert: _Certificate, sections: list, p: int) -> np.ndarray:
    """Cofactor coefficients [i, j] of x^i y^j modulo p, in one pass over the grid.

    The resultants are taken at the distinct |x| of every section and
    mirrored to every abscissa, since Res is even in x; each section is
    interpolated and divided by its sextic section, and :class:`_Indivisible`
    names the first section that does not divide.
    """
    xs = [_residue(x, p) for x in cert.xs]
    ys = [_residue(y, p) for y in cert.ys]
    magnitudes = [_residue(x, p) for x in cert.x_magnitudes]
    coeffs = _system_values_mod(_residue(cert.r, p), magnitudes, ys, p)
    rem = _newton_mod(_resultants_mod(coeffs, p)[:, cert.mirror], xs, p)
    den = np.array([[_residue(c, p) for c in s] for s in sections], np.int64)
    width = den.shape[1]
    if not den[:, -1].all():
        raise ZeroDivisionError("a sextic section's leading coefficient is 0 modulo p")
    lead_inverse = _inverse_mod(den[:, -1], p)
    quot = np.zeros((len(ys), _DEGREE_BOUND + 1), np.int64)
    for k in range(_DEGREE_BOUND, -1, -1):
        factor = rem[:, width - 1 + k] * lead_inverse % p
        quot[:, k] = factor
        rem[:, k : k + width] = (rem[:, k : k + width] - factor[:, None] * den % p) % p
    failing = np.flatnonzero(rem.any(axis=1))
    if failing.size:
        raise _Indivisible(cert.ys[failing[0]])
    return _newton_mod(quot.T, ys, p)


def _settled_fits(cert: _Certificate):
    """Each cofactor the modular fit settles on, as a {(i, j): Fraction} table of x^i y^j.

    A prime is skipped when it divides a sample, r or sextic-section
    denominator, the leading coefficient of a sextic section, the numerator
    of r, or the difference of two abscissae or of two sections.  The fit
    has settled when one more prime leaves every reconstructed coefficient
    unchanged; each later prime is absorbed too, and every prime that leaves
    the coefficients unchanged yields them again.
    Raises :class:`_Indivisible` at the first section that does not divide
    modulo a prime.
    """
    sections = [cert.sextic_section(y) for y in cert.ys]
    # Every denominator must be a unit modulo p, and so must every leading
    # coefficient: the exact division divides by it, and the Bezout
    # resultants divide by lc(f)^2 = r^4.  The interpolation divides by the
    # node differences, so the nodes must stay distinct modulo p: over the
    # lcm D of the sample denominators, D (a - b) is an integer difference.
    avoid = [cert.r.numerator, cert.r.denominator]
    for samples in (cert.xs, cert.ys):
        den = math.lcm(*(s.denominator for s in samples))
        scaled = [s.numerator * (den // s.denominator) for s in samples]
        avoid.append(den)
        avoid += {a - b for a, b in itertools.combinations(scaled, 2)}
    avoid += [c.denominator for s in sections for c in s]
    avoid += [s[-1].numerator for s in sections]

    combined: list = []
    modulus = 1
    previous = None
    for p in _primes():
        if any(d % p == 0 for d in avoid):
            continue
        residues = _cofactor_mod(cert, sections, p)
        flat = residues.ravel().tolist()
        # The fit has settled when each coefficient n/d reconstructed modulo
        # M has d a unit modulo p and n = d a (mod p), a the new residue.
        # That is the same as reconstructing the CRT value c' modulo M p and
        # getting n/d back.  If the reconstruction gives n/d, then
        # n = d c' (mod M p) and gcd(d, M p) = 1 (a prime dividing both would
        # divide n, and gcd(n, d) = 1); reduced modulo p, that is the test.
        # Conversely, n = d c' holds modulo M (c' = c mod M, and n/d came from
        # c) and, by the test, modulo p, so modulo M p; and |n|, d are within
        # the bound for M, hence for M p.  A fraction within the bound is
        # unique and is what Wang's algorithm returns (Wang, Guy and
        # Davenport, SIGSAM Bull. 16(2), 1982), so it returns n/d.
        if previous is not None and all(
            c.denominator % p and (c.numerator - a * c.denominator) % p == 0
            for c, a in zip(previous.values(), flat)
        ):
            yield previous
        if modulus == 1:
            combined = flat
        else:
            inverse = pow(modulus, -1, p)
            combined = [c + modulus * ((a - c % p) * inverse % p) for c, a in zip(combined, flat)]
        modulus *= p
        width = residues.shape[1]
        terms = {}
        for index, value in enumerate(combined):
            coefficient = _rational_reconstruct(value, modulus)
            if coefficient is None:
                terms = None
                break
            terms[divmod(index, width)] = coefficient
        previous = terms
