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
    (:func:`resultant`), and the elimination halved by the central symmetry
    of W(F): Res_t(f, g) = Res_z(F, G)^2 with z = t - 1/t, for the F and G
    of degree 5 and 4 that :func:`_system` derives from the transcription,
  * :func:`verify_sextic_resultant_identity` -- a certificate that the
    sextic divides the resultant of the elimination system, with exact
    held-out validation.

The resultant is known in closed form: Res_t(f, g) = 2^40 r^8 (x^2 + y^2)^4
E(x^2, y^2, r)^2 in Z[r, x, y], for the sextic E, and its square root is
Res_z(F, G) = -2^20 r^4 (x^2 + y^2)^2 E.  So the certificate takes
the cofactor C = 2^40 r^8 (x^2 + y^2)^4 E of Res = E C as its candidate,
built from the sextic under test, and the held-out check in exact
cleared-integer arithmetic is the sole judge of success.  When that check
rejects the candidate, at its first nonzero held-out residual, the
certificate looks for a section y = y_k of its fixed grid along which the
sextic does not divide Res, by exact interpolation and division, so failure
reports are exact too; only when no section fails are the remaining
held-out residuals taken.  A certificate draws its grid and its held-out
points once, at the start, and builds each sextic section only when the
scan reaches it.  The held-out check and the section report take one
residual, Res - E C as one integer cross-difference
(:meth:`_Certificate.residuals`, a generator), from values that are integer
sums over known denominators (:func:`_evaluate_cleared`).

Rationals are plain :class:`fractions.Fraction` values: arbitrary-precision
numerator, positive denominator, always in lowest terms.  Polynomials are
immutable and all operations are pure, so concurrent use is safe; the
certificate's sample evaluations are independent of each other.  The module
imports only the standard library.
"""

from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping, Sequence, Union

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

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

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
    """The elimination system in z = t - 1/t, as ``(terms, degrees, split)``.

    W(F) is centrally symmetric, and theta -> theta + pi is t -> -1/t; the
    two polynomials of :func:`envelope_system` keep it as
    t^10 f(-1/t) = -f(t) and t^8 g(-1/t) = g(t).  So f = t^5 F(t - 1/t) and
    g = t^4 G(t - 1/t) with deg F = 5 and deg G = 4, both with leading
    coefficient -r^2.  Each is read off its polynomial p of t-degree 2h:
    for j = h..0, c_j (t - 1/t)^j is peeled off the Laurent polynomial
    t^(-h) p(t), c_j being its coefficient of t^j.  A remainder would mean
    that p lacks the symmetry, and raises.

    ``terms`` holds one integer term table {(i, j, k): c} of c r^i x^j y^k
    per coefficient, F's 6 and then G's 5, each descending in z.
    ``degrees`` are its largest exponents of r, x and y, 2 each as for the
    coefficients in t, and F's coefficients are ``terms[:split]``.
    """
    in_z = []
    for p in envelope_system():
        h = p.degree("t") // 2  # an odd degree leaves its top term over
        rest = {k - h: c for k, c in enumerate(p.univariate_coefficients("t"))}
        coefficients = []
        for j in range(h, -1, -1):
            c = rest[j]
            coefficients.append(c.terms)
            for i in range(j + 1):  # (t - 1/t)^j = sum_i C(j, i) (-1)^i t^(j - 2i)
                rest[j - 2 * i] -= (-1) ** i * math.comb(j, i) * c
        if any(c.terms for c in rest.values()):
            raise ValueError("an elimination polynomial is not t^h P(t - 1/t)")
        in_z.append(coefficients)
    first, second = in_z
    terms = tuple(first + second)
    return terms, _degrees(terms, 3), len(first)


def _system_resultant(r: Fraction, x: Fraction, y: Fraction) -> tuple:
    """Resultant in t of the elimination system at (r, x, y), as (numerator, denominator).

    Res_t(f, g) = Res_z(F, G)^2 for the F and G of :func:`_system`.  With
    m = 10, n = 8 and lc(g) = lc(G), Res_t(f, g) = (-1)^(mn) Res_t(g, f) =
    lc(G)^10 prod f(beta) over the 8 roots beta of g.  These pair off as
    the two roots of t - 1/t = zeta, one pair per root zeta of G, with
    product -1, so f(beta) f(-1/beta) = (-1)^5 F(zeta)^2 and the product is
    (-1)^4 prod_zeta F(zeta)^2.  That leaves (lc(G)^5 prod F(zeta))^2 =
    Res_z(G, F)^2, and Res_z(G, F) = (-1)^(5 * 4) Res_z(F, G) = Res_z(F, G).

    The 11 coefficients come out of :func:`_evaluate_cleared` as integers
    over one common denominator D, and Res(D F, D G) = D^(5 + 4) Res(F, G),
    so the integer vectors go to :func:`resultant`, whose value is squared,
    and D^18 is the denominator: the same pair as Res_t(D f, D g) and D^18,
    since f and g take the same D.
    """
    terms, degrees, split = _system()
    values, den = _evaluate_cleared(terms, degrees, (r, x, y))
    return resultant(values[:split], values[split:]) ** 2, den ** (2 * (len(values) - 2))


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
    """Outcome of the divisibility certificate.

    ``cofactor`` is the certified cofactor's nonzero terms c x^i y^j as a
    table {(i, j): c}, or None.  The renderings also write the grid's degree
    bound, 28, and sample count, 1137, with the count's "fitting" share:
    record values, the same for every report, that name the grid a failing
    certificate samples its sections on (see ``_DEGREE_BOUND``), not work
    done by one that succeeds.
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


# Pseudo-random rational points at which the candidate identity is checked exactly.
_HOLDOUT = 64

# The grid along whose sections a rejected candidate is scanned.  Res has
# degree at most 28 in x at every r (every entry of the Sylvester matrix has
# degree at most 2 in x, and none of its first two and last two columns
# holds x) and is even in x (below), so it has degree at most 14 in u = x^2.
# Each of the 29 sections y_k takes Res at 19 nodes u, and 14 < 19, so the
# interpolant is Res(x, y_k) itself; E(u, v, r) has degree exactly 4 in u at
# every r != 0 (its u^4 coefficient is 1 + r^2), so a nonzero remainder under
# exact division by the sextic section E(u, y_k^2, r) proves that E does not
# divide Res.  The bound also caps the total degree of a cofactor that the
# held-out check accepts; the closed form has total degree 16.  The bound,
# the 29 sections and the 37 x 29 + 64 = 1137 samples are record values that
# every report writes: a certificate that succeeds evaluates Res at its 64
# held-out points only.
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
# u, so every section report is that of a section in x.
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
    the 128 held-out coordinates ``draws``.  With ``mutate`` the sextic is
    :func:`mutated_sextic`, its coefficients cleared once per certificate.
    A sextic section E(u, y^2, r), :meth:`section`, is built only when a
    scan reaches it.  One cleared-integer residual Res - E C,
    :meth:`residuals`, yields the nonzero residuals one at a time, so that
    :meth:`conclude` can stop a rejected candidate at its first; it serves
    both the held-out check of the :meth:`candidate` cofactor and the
    report of a section that does not divide (:meth:`section_failure`).  It
    and the sections take every exact point value by
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
        # nodes u = x^2 of the section scan.
        self.x_magnitudes = [Fraction(0)] + [k + off_x for k in range(xs_count // 2)]
        self.us = [x * x for x in self.x_magnitudes]
        self.ys = [Fraction(k - ys_count // 2) + off_y for k in range(ys_count)]

        sextic = mutated_sextic() if mutate else sextic_polynomial()
        self.sextic_terms, self.sextic_scale = _cleared_terms(sextic.terms)
        self.sextic_degrees = _degrees((self.sextic_terms,), 3)

    def section(self, y: Fraction) -> list:
        """The sextic section E(u, y^2, r): its coefficients, ascending in u."""
        # The sextic's terms in (u, v, r) by their power of u: evaluated at
        # u = 1, row i is the coefficient of u^i.
        rows = [
            {expo: c for expo, c in self.sextic_terms.items() if expo[0] == i}
            for i in range(self.sextic_degrees[0] + 1)
        ]
        sums, den = _evaluate_cleared(rows, self.sextic_degrees, (Fraction(1), y * y, self.r))
        return [Fraction(c, self.sextic_scale * den) for c in sums]

    def candidate(self) -> dict:
        """C = 2^40 r^8 (x^2 + y^2)^4 E(x^2, y^2, r) as a table {(i, j): c} of x^i y^j.

        E is the certificate's sextic.  Res_t(f, g) = 2^40 r^8 (x^2 + y^2)^4 E^2
        holds in Z[r, x, y] for the true sextic, so C is the cofactor of
        Res = E C there; for any other E it is a candidate that the held-out
        check rejects.

        With r = n/d and D the sextic's degree in r, each term c u^a v^b r^k
        contributes 2^40 c n^(8 + k) d^(D - k) over the one denominator
        d^(8 + D) times the sextic's clearing scale, so the numerators are
        summed as integers and each coefficient is one Fraction.
        """
        n, d = self.r.numerator, self.r.denominator
        degree = self.sextic_degrees[2]
        weights = [2**40 * n ** (8 + k) * d ** (degree - k) for k in range(degree + 1)]
        numerators = {}
        for (a, b, k), c in self.sextic_terms.items():
            coefficient = c * weights[k]
            for i in range(5):  # the terms of (x^2 + y^2)^4
                key = (2 * (a + i), 2 * (b + 4 - i))
                numerators[key] = numerators.get(key, 0) + math.comb(4, i) * coefficient
        den = d ** (8 + degree) * self.sextic_scale
        return {key: Fraction(c, den) for key, c in numerators.items()}

    def residuals(self, terms: Mapping[tuple, Scalar], points):
        """Yield ``(x, y, Res - E C)`` at each point (x, y), in order, where it is nonzero.

        ``terms`` is C's table {(i, j): c} of c x^i y^j.  Res, E and C are
        integers over known denominators at each point (C's coefficients are
        cleared once, here), so Res - E C is one integer cross-difference,
        made a Fraction only when it is nonzero.  Each point is evaluated
        only when the next residual is asked for.
        """
        cleared, scale = _cleared_terms(terms)
        degrees = _degrees((cleared,), 2)
        for x, y in points:
            res, res_den = _system_resultant(self.r, x, y)
            (sextic,), sextic_den = _evaluate_cleared(
                (self.sextic_terms,), self.sextic_degrees, (x * x, y * y, self.r)
            )
            (cof,), cof_den = _evaluate_cleared((cleared,), degrees, (x, y))
            den = self.sextic_scale * sextic_den * scale * cof_den  # E C = sextic cof / den
            residual = res * den - sextic * cof * res_den
            if residual:
                yield x, y, Fraction(residual, res_den * den)

    def conclude(self, terms: dict) -> ResultantReport:
        """The report on a cofactor table; its check at the exact held-out points is the only way to succeed.

        The held-out residuals are taken in draw order up to the first
        nonzero one.  If there is one, or the cofactor exceeds the degree
        bound, the sections are scanned (:meth:`section_failure`) and the
        first that does not divide is the report; only when none fails are
        the remaining residuals taken, and the report lists every nonzero one.
        """
        cofactor = {key: c for key, c in terms.items() if c}
        total_degree = max((i + j for i, j in cofactor), default=0)
        residuals = self.residuals(cofactor, zip(self.draws[::2], self.draws[1::2]))
        first = next(residuals, None)
        failures = [] if first is None else [first]

        reason = None
        if total_degree > _DEGREE_BOUND:
            reason = (
                f"interpolated cofactor has total degree {total_degree} "
                f"> bound {_DEGREE_BOUND}"
            )
        if failures or reason:
            section = self.section_failure()
            if section is not None:
                return section
            failures.extend(residuals)
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

    def section_failure(self) -> ResultantReport | None:
        """The report of the first section along which the sextic does not divide Res, or None.

        The sections y = y_k are scanned in order, each sextic section built
        as the scan reaches it.  Along section y, Res is taken at the 19
        nodes, recovered in u = x^2 by :func:`_newton_interpolate` and
        divided exactly by :meth:`section`.  For the first that leaves a
        remainder, the residuals Res - E Q of the quotient Q, the table
        {(2i, 0): q_i}, are taken at the first 8 held-out draws as
        abscissae, and the report gives the remainder's degree in x.
        """
        for y in self.ys:
            values = [Fraction(*_system_resultant(self.r, x, y)) for x in self.x_magnitudes]
            quot, rem = _divide_univariate(_newton_interpolate(self.us, values), self.section(y))
            if rem:
                quotient = {(2 * i, 0): c for i, c in enumerate(quot)}
                return ResultantReport(
                    r=self.r,
                    holdout_count=8,
                    seed=self.seed,
                    success=False,
                    holdout_failures=list(self.residuals(quotient, [(x, y) for x in self.draws[:8]])),
                    failure_reason=(
                        f"fitting system inconsistent: section y = {y} leaves a "
                        f"degree-{2 * (len(rem) - 1)} remainder under exact division"
                    ),
                )
        return None


def verify_sextic_resultant_identity(
    r: Scalar,
    seed: int = 1,
    mutate: bool = False,
) -> ResultantReport:
    """Certify that the sextic divides the eliminated resultant at fixed r.

    For the given rational r != 0 the cofactor candidate is the closed form
    C = 2^40 r^8 (x^2 + y^2)^4 E(x^2, y^2, r), built from the sextic E under
    test, and the identity Res = E * C for the resultant Res(x, y) of the
    elimination system is checked exactly at 64 pseudo-random rational
    points; every held-out residual must be exactly zero, and only that
    check can declare success.  At each point Res, E and C are integers
    over known denominators: power tables of the coordinates clear every
    term, Res is taken as Res_z(F, G)^2 in z = t - 1/t (:func:`_system`),
    the integer coefficient vectors of F and G going to :func:`resultant`'s
    subresultant remainder sequence, and Res - E * C is one integer
    cross-difference.

    The held-out points are taken in draw order, and the first nonzero
    residual rejects the candidate.  Then the 29 sections y = y_k of one
    fixed grid are scanned in order.  Along each, Res(x, y_k), even in x, is
    taken at the 19 distinct |x| of 37 abscissae symmetric about 0,
    recovered in u = x^2 by Newton interpolation and divided exactly by the
    sextic section E(u, y_k^2, r), built as the scan reaches it (the bounds
    and the symmetry are derived next to ``_DEGREE_BOUND``).  The first
    section that leaves a remainder ends the run with that section's exact
    residuals at the first 8 held-out coordinates; if every section
    divides, the rest of the held-out points are taken, and the held-out
    report lists every nonzero residual.

    Success across several independent r values establishes the divisibility
    claimed for the boundary curve; the cofactor collects the extraneous
    factors of the non-monic elimination.  The grid offsets and then the
    held-out coordinates are drawn once, at the start, from a generator
    seeded by ``seed`` (and r), so reports are bit-reproducible.  Sample
    coordinates are rationals with numerator and denominator bounded by
    1000.  ``mutate`` certifies :func:`mutated_sextic` instead, a self-test
    that must fail.  Each report records the grid's degree bound, 28, and
    1137 samples: the 37 x 29 grid points, whose values at -x the evenness
    supplies, and 64 held out.  These are record values: a certificate that
    succeeds evaluates Res at the 64 held-out points only.
    """
    cert = _Certificate(r, seed, mutate)
    return cert.conclude(cert.candidate())
