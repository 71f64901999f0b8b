"""Exact-arithmetic polynomial layer for the boundary-curve elimination.

The upper/lower boundary arcs of the Foguel numerical range lie on a sextic
curve in (u, v) = (x^2, y^2).  That curve arises by eliminating the
tan(theta/2) parameter from the two polynomial equations describing the
envelope of the supporting-line family.  This module holds

  * :class:`ExactPoly` -- sparse multivariate polynomials with exact integer
    or rational coefficients,
  * the verbatim transcriptions of the elimination system
    (:func:`envelope_system`) and of the sextic (:func:`sextic_polynomial`),
  * exact resultants by the subresultant remainder sequence
    (:func:`resultant`), and resultants modulo primes from the Bezout
    matrix: for deg f = m >= deg g = n it is m x m where the Sylvester
    matrix is (m+n) x (m+n), and
    det Bez(f, g) = (-1)^(m(m-1)/2) lc(f)^(m-n) Res(f, g); the elimination
    system has m = 10, n = 8 and lc(f) = -r^2, so Res = -det Bez / r^4;
  * :func:`verify_sextic_resultant_identity` -- an evaluation/interpolation
    certificate that the sextic divides the resultant of the elimination
    system, with exact held-out validation.

The certificate fits its cofactor multi-modularly (Collins, J. ACM 18,
1971): modulo one 31-bit prime after another, drawn on demand, one pass of
int64 numpy arrays takes the Bezout determinants of all 29 sections, their
Newton interpolation and their exact division by the sextic sections.  Res
and the sextic are even in x, so each section is fitted in u = x^2: the 551
determinants of a prime are taken at the 19 distinct |x| of the 37
abscissae, symmetric about 0, and interpolated through their squares.  The
cofactor's rational coefficients come back by the Chinese remainder theorem
and rational reconstruction, with no bound on the height of r.  The fit is
only a candidate: the held-out check in exact cleared-integer arithmetic is
the sole judge of success.  A section that does not divide modulo a prime
is recomputed exactly, that section alone, so failure reports are exact
too.  A certificate builds its grid, its held-out draws and its sextic
sections once, at the start.  The held-out check and that report take one residual, Res - E C as
one integer cross-difference (:meth:`_Certificate.residuals`), from values
that are integer sums over known denominators (:func:`_evaluate_cleared`).

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
    "resultant",
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


@functools.cache
def sextic_polynomial() -> ExactPoly:
    """Implicit curve of the upper/lower boundary arcs, in Z[u, v, r].

    The zero set, read in u = x^2 and v = y^2, contains every envelope point
    of the sextic regime.  This grouped construction is the single
    transcription shared with the floating-point evaluator in
    :mod:`fnr.boundary`.  It is built once per process; the polynomial is
    immutable, and :func:`mutated_sextic` copies its terms.
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
# Resultants
# ---------------------------------------------------------------------------


def _bezout_matrix(f: Sequence, g: Sequence, p: int | None = None) -> list:
    """Bezout matrix of f and g, given by descending coefficients with deg f >= deg g.

    For m = deg f the matrix is m x m and symmetric, the coefficients of
    (f(s) g(t) - f(t) g(s)) / (s - t) = sum B[i][j] s^i t^j.  With ascending
    coefficients f_k and g_k (g padded with zeros to degree m), Barnett's
    recurrence fills it: B[i][j] = B[i-1][j+1] + f_{j+1} g_i - f_i g_{j+1}
    for j >= i.  Only the modular route takes it, on int64 residue arrays:
    entries need only +, - and *, and with ``p`` every entry is reduced
    modulo p, which keeps the arrays in [0, p) exact (each product is below
    2^62).
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
    Res(f, g) = (-1)^(mn) Res(g, f).  The integer pair then runs the
    subresultant polynomial remainder sequence (Collins, J. ACM 14, 1967;
    Brown and Traub, J. ACM 18, 1971): with A = f, B = g and lead = h = 1,
    each step takes the pseudo-remainder R of lc(B)^(delta + 1) A = Q B + R,
    delta = deg A - deg B, and sets A, B = B, R / (lead h^delta),
    lead = lc(A) and h = lead^delta / h^(delta - 1).  Each new B is, up to
    sign, a subresultant: a determinant of a submatrix of the Sylvester
    matrix, so an integer, and each division is exact; so is h, which is
    the leading coefficient of one up to sign.  A degree drop delta >= 2
    (an abnormal step, as when both polynomials are in t^2 only) is covered
    by the same formulas.  A zero remainder means a common factor and
    Res = 0; when B reaches degree 0, Res = lc(B)^d / h^(d - 1) with
    d = deg A, times -1 for each step where deg A and deg B are both odd.
    The clearing scales are divided back out, so the value is the canonical
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

    a, sf = cleared(f)
    b, sg = cleared(g)
    lead = h = 1
    while len(b) > 1:
        delta = len(a) - len(b)
        if (len(a) - 1) * (len(b) - 1) % 2:
            sign = -sign
        # Pseudo-division: each pass cancels rem's leading term against B's
        # and multiplies the rest by lc(B), delta + 1 times in all.
        rem, tail = a, b[1:] + [0] * delta
        for _ in range(delta + 1):
            rem = [b[0] * c - rem[0] * d for c, d in zip(rem[1:], tail)]
        while rem and not rem[0]:
            del rem[0]
        if not rem:
            return 0
        divisor = lead * h**delta
        a, b = b, [c // divisor for c in rem]
        lead = a[0]
        h = lead**delta * h // h**delta
    d = len(a) - 1
    return _normalize_scalar(Fraction(sign * (b[0] ** d * h // h**d), sf**n * sg**m))


@functools.cache
def _system() -> tuple:
    """The elimination system's coefficients in (r, x, y) as ``(terms, degrees, split)``.

    ``terms`` holds one integer term table {(i, j, k): c} of c r^i x^j y^k
    per coefficient, f's and then g's, each descending in t: the one table
    that both the exact point values and the modular residues read.
    ``degrees`` are its largest exponents of r, x and y, and f's 11
    coefficients are ``terms[:split]``.  The degrees in t are 10 and 8, so
    the Bezout matrix is 10 x 10 (the Sylvester matrix would be 18 x 18).
    """
    first, second = envelope_system()
    terms = tuple(c.terms for p in (first, second) for c in reversed(p.univariate_coefficients("t")))
    return terms, _degrees(terms, 3), first.degree("t") + 1


def _system_resultant(r: Fraction, x: Fraction, y: Fraction) -> tuple:
    """Resultant in t of the elimination system at (r, x, y), as (numerator, denominator).

    The 20 coefficients come out of :func:`_evaluate_cleared` as integers
    over one common denominator D, and Res(D f, D g) = D^(m + n) Res(f, g)
    with m + n = 18, so the integer vectors go to :func:`resultant` and
    D^18 is the denominator.
    """
    terms, degrees, split = _system()
    values, den = _evaluate_cleared(terms, degrees, (r, x, y))
    return resultant(values[:split], values[split:]), den ** (len(values) - 2)


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
    """Outcome of the evaluation/interpolation divisibility certificate.

    ``cofactor`` is the certified cofactor's nonzero terms c x^i y^j as a
    table {(i, j): c}, or None.  The grid's degree bound and sample count
    are the same for every report, so only its renderings write them.
    """

    r: Fraction
    holdout_count: int
    seed: int
    success: bool
    cofactor: dict | None = None
    cofactor_total_degree: int | None = None
    holdout_failures: list = field(default_factory=list)
    failure_reason: str | None = None

    def to_json_dict(self) -> dict:
        cof = None
        if self.cofactor is not None:
            cof = {f"{i},{j}": str(c) for (i, j), c in sorted(self.cofactor.items())}
        return {
            "r": str(self.r),
            "degree_bound": _DEGREE_BOUND,
            "sample_count": (_DEGREE_BOUND + 9) * (_DEGREE_BOUND + 1) + _HOLDOUT,
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
        record = self.to_json_dict()
        samples = record["sample_count"]
        lines = [
            f"divisibility certificate at r = {self.r}",
            f"  degree bound   : {record['degree_bound']}",
            f"  samples        : {samples} "
            f"({samples - self.holdout_count} fitting, {self.holdout_count} held out)",
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
# of total degree at most 28 asks for.  Res has degree at most 28 in x and 20
# in y (the degrees of the Sylvester entries prove it for every r) and is even
# in x (below), so it has degree at most 14 in u = x^2.  E(u, v, r) has degree
# exactly 4 in u and 3 in v at every r != 0: its u^4 coefficient is 1 + r^2
# and its v^3 coefficient -16 r^4.  So C = Res / E has degree at most 10 in u
# and 14 in y.  Each of 29 sections y_k is fitted through 19 nodes u and
# divided by its sextic section into 15 quotient coefficients, so the grid
# covers every proven degree:
#   deg_u Res <= 14 < 19 nodes,  deg_y C <= 14 < 29 sections,
#   deg_u C <= 10 < 15 quotient coefficients.
# A fitted cofactor of total degree above 28 fails, and only the held-out
# check can declare success.
#
# Res is even in x.  Every coefficient of the system depends on x only
# through x^2 and x y, and x y multiplies exactly the odd powers of t, so
# f(-t; x, y) = f(t; -x, y) and likewise for g.  Negating t negates every
# root and multiplies lc(f) by (-1)^m and lc(g) by (-1)^n, so
# Res_t(f(-t), g(-t)) = (-1)^(3mn) Res_t(f, g) = (-1)^(mn) Res_t(f, g), and
# mn = 80: Res(-x, y) = Res(x, y).  The grid's 37 = 28 + 9 abscissae are
# therefore 0 and +-(k + off_x), k = 0..17, which needs an even bound; Res is
# taken at the 19 distinct |x|, and the nodes are their squares.  Through the
# symmetric abscissae the interpolant in x is the interpolant in u with x^2
# put for u, and the division in x of polynomials in x^2 is the division in
# u, so the fit and every report are those of a fit in x.
_DEGREE_BOUND = 28


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
    """Sample grid, held-out draws, sextic sections and exact residual of one certificate run.

    Construction validates r and builds every fixed input once: from one
    generator seeded by ``seed`` and r it draws the grid offsets and then
    the 128 held-out coordinates ``draws``, and it takes the sextic section
    E(u, y^2, r) of each section y, coefficients ascending in u, into
    ``sections``.  With ``mutate`` the sextic is :func:`mutated_sextic`,
    its coefficients cleared once per certificate.  One cleared-integer
    residual Res - E C, :meth:`residuals`, serves both the held-out check
    of a fitted cofactor and the report of a section that does not divide;
    it and the sections take every exact point value by
    :func:`_evaluate_cleared`.
    """

    def __init__(self, r, seed, mutate=False):
        r = Fraction(r)
        if r == 0:
            raise ValueError("r = 0: the elimination system degenerates")

        self.r, self.seed = r, seed
        # Mix r into the seed deterministically (ints hash stably).
        rng = random.Random(seed * 0x9E3779B9 + 131 * r.numerator + r.denominator)
        xs_count = _DEGREE_BOUND + 9
        ys_count = _DEGREE_BOUND + 1
        den_x = rng.choice((7, 11, 13))
        den_y = rng.choice((7, 11, 13))
        off_x = Fraction(rng.randrange(1, den_x), den_x)
        off_y = Fraction(rng.randrange(1, den_y), den_y)
        # Rationals n/d with |n|, d < 1000: conclude pairs them into the
        # held-out points, and a section failure takes the first 8 as abscissae.
        self.draws = [Fraction(rng.randint(-999, 999), rng.randint(1, 999)) for _ in range(2 * _HOLDOUT)]
        # The distinct |x| of the xs_count abscissae (an odd count), and the
        # nodes u = x^2 of the fit.
        self.x_magnitudes = [Fraction(0)] + [k + off_x for k in range(xs_count // 2)]
        self.us = [x * x for x in self.x_magnitudes]
        self.ys = [Fraction(k - ys_count // 2) + off_y for k in range(ys_count)]

        sextic = mutated_sextic() if mutate else sextic_polynomial()
        self.sextic_terms, self.sextic_scale = _cleared_terms(sextic.terms)
        self.sextic_degrees = _degrees((self.sextic_terms,), 3)
        # The sextic's terms in (u, v, r) by their power of u: evaluated at
        # u = 1, row i is the coefficient of u^i.
        rows = [
            {expo: c for expo, c in self.sextic_terms.items() if expo[0] == i}
            for i in range(self.sextic_degrees[0] + 1)
        ]
        self.sections = []
        for y in self.ys:
            sums, den = _evaluate_cleared(rows, self.sextic_degrees, (Fraction(1), y * y, r))
            self.sections.append([Fraction(c, self.sextic_scale * den) for c in sums])

    def residuals(self, terms: Mapping[tuple, Scalar], points) -> list:
        """``(x, y, Res - E C)`` at each point (x, y) where it is nonzero, C = sum c x^i y^j.

        ``terms`` is C's table {(i, j): c}.  Res, E and C are integers over
        known denominators at each point (C's coefficients are cleared once,
        here), so Res - E C is one integer cross-difference, made a Fraction
        only when it is nonzero.
        """
        cleared, scale = _cleared_terms(terms)
        degrees = _degrees((cleared,), 2)
        failures = []
        for x, y in points:
            res, res_den = _system_resultant(self.r, x, y)
            (sextic,), sextic_den = _evaluate_cleared(
                (self.sextic_terms,), self.sextic_degrees, (x * x, y * y, self.r)
            )
            (cof,), cof_den = _evaluate_cleared((cleared,), degrees, (x, y))
            den = self.sextic_scale * sextic_den * scale * cof_den  # E C = sextic cof / den
            residual = res * den - sextic * cof * res_den
            if residual:
                failures.append((x, y, Fraction(residual, res_den * den)))
        return failures

    def conclude(self, terms: dict) -> ResultantReport:
        """Check the fitted cofactor at the exact held-out points; the only way to succeed."""
        cofactor = {key: c for key, c in terms.items() if c}
        total_degree = max((i + j for i, j in cofactor), default=0)
        failures = self.residuals(cofactor, zip(self.draws[::2], self.draws[1::2]))

        reason = None
        if total_degree > _DEGREE_BOUND:
            reason = (
                f"interpolated cofactor has total degree {total_degree} "
                f"> bound {_DEGREE_BOUND}"
            )
        if failures:
            reason = f"{len(failures)} held-out residuals are nonzero"

        success = reason is None
        return ResultantReport(
            r=self.r,
            holdout_count=_HOLDOUT,
            seed=self.seed,
            success=success,
            cofactor=cofactor if success else None,
            cofactor_total_degree=total_degree,
            holdout_failures=failures,
            failure_reason=reason,
        )


def _section_failure(cert: _Certificate, k: int) -> ResultantReport:
    """The report of section k, which does not divide modulo a prime, computed exactly.

    Res(x, y_k) is taken at the distinct |x|, interpolated in u = x^2 through
    their squares and divided by the sextic section ``cert.sections[k]``,
    and the residuals Res - E Q of the quotient Q, the table
    {(2i, 0): q_i}, are taken at the first 8 held-out draws as abscissae.
    Every denominator and node difference is a unit modulo that prime, so
    the exact remainder reduces to the modular one: it is nonzero.  The
    report gives its degree in x.
    """
    y = cert.ys[k]
    values = [Fraction(*_system_resultant(cert.r, x, y)) for x in cert.x_magnitudes]
    quot, rem = _divide_univariate(_newton_interpolate(cert.us, values), cert.sections[k])
    quotient = {(2 * i, 0): c for i, c in enumerate(quot)}
    failures = cert.residuals(quotient, [(x, y) for x in cert.draws[:8]])
    return ResultantReport(
        r=cert.r,
        holdout_count=8,
        seed=cert.seed,
        success=False,
        holdout_failures=failures,
        failure_reason=(
            f"fitting system inconsistent: section y = {y} leaves a "
            f"degree-{2 * (len(rem) - 1)} remainder under exact division"
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
    along each horizontal section y = y_k the section polynomial Res(x, y_k),
    even in x, is recovered in u = x^2 by Newton interpolation and divided
    exactly by the sextic section E(u, y_k^2, r).  The section quotients are
    interpolated across y into the cofactor C(x, y), and the identity
    Res = E * C is re-verified exactly at 64 pseudo-random rational points;
    every held-out residual must be exactly zero, and only that check can
    declare success.  At each point Res, E and C are integers over known
    denominators: power tables of the coordinates clear every term, the
    integer coefficient vectors of the system go to :func:`resultant`'s
    subresultant remainder sequence, and Res - E * C is one integer
    cross-difference.

    The fitting runs modulo one prime after another (Collins' multi-modular
    method), with primes drawn on demand, so r may have any height: the
    Bezout determinants, the interpolation and the section divisions are
    int64 array arithmetic.  The 37 abscissae are 0 and 18 pairs +-x, and Res
    is even in x, so each section takes its determinants at the 19 distinct
    |x| only and is interpolated through their squares.  The residues are
    joined by the Chinese remainder theorem, and each cofactor coefficient is
    rationally reconstructed (Wang's bound) until one more prime leaves every
    coefficient unchanged.
    If the held-out check rejects that fit, primes are added until the
    reconstruction settles again: on the same terms the rejection stands,
    and new terms are checked afresh.  A section that does not divide modulo
    a prime ends the run with that section's exact residuals.

    Success across several independent r values establishes the divisibility
    claimed for the boundary curve; the cofactor collects the extraneous
    factors of the non-monic elimination.  The grid offsets and then the
    held-out coordinates are drawn once, at the start, from a generator
    seeded by ``seed`` (and r), so reports are bit-reproducible; a failing
    section's residuals are taken at the first 8 of those coordinates.
    Sample coordinates are rationals with numerator and denominator bounded
    by 1000.  ``mutate`` certifies :func:`mutated_sextic` instead, a
    self-test that must fail.  Each report records the grid's degree bound,
    28, and 1137 samples: the 37 x 29 grid points, whose values at -x the
    evenness supplies, and 64 held out.
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
    terms, degrees, _ = _system()
    top = max(degrees[1:])
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
    f, g = np.split(coeffs.reshape(len(coeffs), -1), [_system()[2]])
    m, n = len(f) - 1, len(g) - 1
    det = _determinants_mod(np.array(_bezout_matrix(f, g, p)), p)
    # lc(f) = -r^2 at every point, so lc(f)^(m - n) is one scalar to invert.
    values = det * pow(int(f[0][0]), -(m - n), p) % p
    if m * (m - 1) // 2 % 2:
        values = (p - values) % p
    return values.reshape(coeffs.shape[1:])


class _Indivisible(ArithmeticError):
    """Raised with the index k of the section y_k that leaves a nonzero remainder modulo a prime."""


def _cofactor_mod(cert: _Certificate, p: int) -> np.ndarray:
    """Cofactor coefficients [i, j] of u^i y^j, u = x^2, modulo p, in one pass over the grid.

    The resultants are taken at the distinct |x| of every section; each
    section is interpolated in u through their squares and divided by its
    sextic section in ``cert.sections``, and :class:`_Indivisible` carries
    the index of the first section that does not divide.
    """
    ys = [_residue(y, p) for y in cert.ys]
    magnitudes = [_residue(x, p) for x in cert.x_magnitudes]
    coeffs = _system_values_mod(_residue(cert.r, p), magnitudes, ys, p)
    rem = _newton_mod(_resultants_mod(coeffs, p), [_residue(u, p) for u in cert.us], p)
    den = np.array([[_residue(c, p) for c in s] for s in cert.sections], np.int64)
    width = den.shape[1]
    if not den[:, -1].all():
        raise ZeroDivisionError("a sextic section's leading coefficient is 0 modulo p")
    lead_inverse = _inverse_mod(den[:, -1], p)
    quot = np.zeros((len(ys), _DEGREE_BOUND // 2 + 1), np.int64)
    for k in range(_DEGREE_BOUND // 2, -1, -1):
        factor = rem[:, width - 1 + k] * lead_inverse % p
        quot[:, k] = factor
        rem[:, k : k + width] = (rem[:, k : k + width] - factor[:, None] * den % p) % p
    failing = np.flatnonzero(rem.any(axis=1))
    if failing.size:
        raise _Indivisible(int(failing[0]))
    return _newton_mod(quot.T, ys, p)


def _settled_fits(cert: _Certificate):
    """Each cofactor the modular fit settles on, as a {(i, j): Fraction} table of x^i y^j.

    A prime is skipped when it divides a sample, r or sextic-section
    denominator, the leading coefficient of a sextic section, the numerator
    of r, or the difference of two nodes u or of two sections.  The fit
    has settled when one more prime leaves every reconstructed coefficient
    unchanged; each later prime is absorbed too, and every prime that leaves
    the coefficients unchanged yields them again.
    Raises :class:`_Indivisible` at the first section that does not divide
    modulo a prime.
    """
    # Every denominator must be a unit modulo p, and so must every leading
    # coefficient: the exact division divides by it, and the Bezout
    # resultants divide by lc(f)^2 = r^4.  The interpolation divides by the
    # node differences, so the nodes must stay distinct modulo p: over the
    # lcm D of the sample denominators, D (a - b) is an integer difference.
    # For nodes a^2, b^2 that is the product of D' (a - b) and D' (a + b),
    # D = D'^2, so an odd prime is skipped as for the abscissae +-a, +-b.
    avoid = [cert.r.numerator, cert.r.denominator]
    for samples in (cert.us, cert.ys):
        den = math.lcm(*(s.denominator for s in samples))
        scaled = [s.numerator * (den // s.denominator) for s in samples]
        avoid.append(den)
        avoid += {a - b for a, b in itertools.combinations(scaled, 2)}
    avoid += [c.denominator for s in cert.sections for c in s]
    avoid += [s[-1].numerator for s in cert.sections]

    combined: list = []
    modulus = 1
    previous = None
    for p in _primes():
        if any(d % p == 0 for d in avoid):
            continue
        residues = _cofactor_mod(cert, p)
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
            i, j = divmod(index, width)
            terms[(2 * i, j)] = coefficient
        previous = terms
