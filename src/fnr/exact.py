"""Exact-arithmetic polynomial layer for the boundary-curve elimination.

The upper/lower boundary arcs of the Foguel numerical range lie on a sextic
curve in (u, v) = (x^2, y^2).  That curve arises by eliminating the
tan(theta/2) parameter from the two polynomial equations describing the
envelope of the supporting-line family.  This module holds

  * :class:`ExactPoly` -- sparse multivariate polynomials with exact integer
    or rational coefficients,
  * the verbatim transcriptions of the elimination system
    (:func:`envelope_system`) and of the sextic (:func:`sextic_polynomial`),
  * Sylvester resultants computed by fraction-free Bareiss elimination, and
  * :func:`verify_sextic_resultant_identity` -- an evaluation/interpolation
    certificate that the sextic divides the resultant of the elimination
    system, with exact held-out validation.

Rationals are plain :class:`fractions.Fraction` values: arbitrary-precision
numerator, positive denominator, always in lowest terms.  Polynomials are
immutable and all operations are pure, so concurrent use is safe; the
certificate's sample evaluations are independent of each other.
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
    "sylvester_matrix",
    "bareiss_determinant",
    "resultant",
    "resultant_at",
    "verify_sextic_resultant_identity",
    "symbolic_resultant",
    "exact_divide",
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


class ExactPoly:
    """Sparse multivariate polynomial over exact rational scalars.

    Terms are stored as a map from exponent tuples (one slot per variable,
    in declaration order) to nonzero int/Fraction coefficients.  All
    arithmetic is exact; evaluation at rational points is exact.
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
    def zero(cls, variables: Sequence[str]) -> "ExactPoly":
        return cls(variables, {})

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
            s = out.get(expo, 0) + coeff
            if s == 0:
                out.pop(expo, None)
            else:
                out[expo] = s
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
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out: dict = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                expo = tuple(a + b for a, b in zip(e1, e2))
                s = out.get(expo, 0) + c1 * c2
                if s == 0:
                    out.pop(expo, None)
                else:
                    out[expo] = s
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

    def __bool__(self):
        return bool(self.terms)

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
        point = [Fraction(values[v]) for v in self.variables]
        total = Fraction(0)
        for expo, coeff in self.terms.items():
            term = Fraction(coeff)
            for base, power in zip(point, expo):
                if power:
                    term *= base**power
            total += term
        return total

    def specialize(self, values: Mapping[str, Scalar]) -> "ExactPoly":
        """Substitute some variables exactly; the rest remain symbolic."""
        keep = tuple(v for v in self.variables if v not in values)
        point = {i: Fraction(values[v]) for i, v in enumerate(self.variables) if v in values}
        out: dict = {}
        for expo, coeff in self.terms.items():
            factor = Fraction(coeff)
            for i, base in point.items():
                if expo[i]:
                    factor *= base ** expo[i]
            key = tuple(e for i, e in enumerate(expo) if i not in point)
            s = out.get(key, 0) + factor
            if s == 0:
                out.pop(key, None)
            else:
                out[key] = s
        return ExactPoly(keep, out)

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


def _exact_scalar_div(a: Scalar, b: Scalar) -> Scalar:
    if isinstance(a, int) and isinstance(b, int):
        q, rem = divmod(a, b)
        if rem:
            raise ArithmeticError("non-exact integer division in Bareiss step")
        return q
    return _normalize_scalar(Fraction(a) / Fraction(b))


def bareiss_determinant(rows: Sequence[Sequence], divide=None):
    """Fraction-free determinant.

    Works over any exact integral domain: entries need +, -, * and an exact
    division ``divide`` (defaults to checked scalar division, which covers
    int and Fraction entries; pass :func:`exact_divide` for polynomial
    entries).  Intermediate entries stay in the domain by Bareiss' identity.
    """
    if divide is None:
        divide = _exact_scalar_div
    matrix = [list(row) for row in rows]
    n = len(matrix)
    if n == 0:
        return 1
    if any(len(row) != n for row in matrix):
        raise ValueError("matrix must be square")
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
        pivot = matrix[k][k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                value = pivot * matrix[i][j] - matrix[i][k] * matrix[k][j]
                if prev is not None:
                    value = divide(value, prev)
                matrix[i][j] = value
        prev = pivot
    return sign * matrix[n - 1][n - 1]


def sylvester_matrix(f: Sequence, g: Sequence) -> list:
    """Sylvester matrix of two coefficient sequences (descending degree).

    For deg f = m and deg g = n the matrix is (m+n) x (m+n): n shifted copies
    of f's coefficients above m shifted copies of g's.
    """
    f = list(f)
    g = list(g)
    if not f or not g:
        raise ValueError("empty coefficient sequence")
    if f[0] == 0 or g[0] == 0:
        raise ValueError("leading coefficient must not vanish")
    m = len(f) - 1
    n = len(g) - 1
    size = m + n
    rows = []
    for shift in range(n):
        row = [0] * size
        row[shift : shift + m + 1] = f
        rows.append(row)
    for shift in range(m):
        row = [0] * size
        row[shift : shift + n + 1] = g
        rows.append(row)
    return rows


def resultant(f: Sequence[Scalar], g: Sequence[Scalar]) -> Scalar:
    """Resultant of two univariate polynomials given by descending coefficients.

    Rational coefficients are cleared to integers per polynomial, the integer
    Sylvester determinant is taken by Bareiss elimination, and the clearing
    scale is divided back out, so the value is the canonical resultant of the
    inputs as given.
    """
    f = [Fraction(c) for c in f]
    g = [Fraction(c) for c in g]
    if not f or f[0] == 0 or not g or g[0] == 0:
        raise ValueError("leading coefficient must not vanish")
    m = len(f) - 1
    n = len(g) - 1
    if m == 0 and n == 0:
        return 1
    if m == 0:
        return _normalize_scalar(f[0] ** n)
    if n == 0:
        return _normalize_scalar(g[0] ** m)

    def cleared(coeffs):
        scale = math.lcm(*(c.denominator for c in coeffs))
        return [int(c * scale) for c in coeffs], scale

    fi, sf = cleared(f)
    gi, sg = cleared(g)
    det = bareiss_determinant(sylvester_matrix(fi, gi))
    return _normalize_scalar(Fraction(det, sf**n * sg**m))


@functools.cache
def _system_coefficients() -> tuple:
    """Coefficient polynomials in (r, x, y) of the elimination system, descending in t.

    Degrees are 10 and 8, so its Sylvester matrix is 18 x 18.
    """
    first, second = envelope_system()
    return tuple(list(reversed(p.univariate_coefficients("t"))) for p in (first, second))


def _resultant_of_system(up1: Sequence[ExactPoly], up2: Sequence[ExactPoly], point) -> Scalar:
    """Resultant in t once every coefficient polynomial is evaluated at ``point``."""
    return resultant([c.evaluate(point) for c in up1], [c.evaluate(point) for c in up2])


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
    return _resultant_of_system(*_system_coefficients(), {"r": r, "x": x, "y": y})


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


def _certificate_rng(r: Fraction, seed: int) -> random.Random:
    # Mix r into the stream deterministically (ints hash stably).
    return random.Random(seed * 0x9E3779B9 + 131 * r.numerator + r.denominator)


def _divide_univariate(num: Sequence[Fraction], den: Sequence[Fraction]) -> tuple:
    """Quotient and remainder of exact univariate division (ascending coeffs)."""
    num = [Fraction(c) for c in num]
    den = [Fraction(c) for c in den]
    while den and den[-1] == 0:
        den.pop()
    if not den:
        raise ZeroDivisionError("division by the zero polynomial")
    quot = [Fraction(0)] * max(len(num) - len(den) + 1, 0)
    rem = list(num)
    for k in range(len(quot) - 1, -1, -1):
        if len(rem) < len(den) + k:
            continue
        factor = rem[len(den) - 1 + k] / den[-1]
        quot[k] = factor
        if factor:
            for i, d in enumerate(den):
                rem[i + k] -= factor * d
    while rem and rem[-1] == 0:
        rem.pop()
    return quot, rem


def verify_sextic_resultant_identity(
    r: Scalar,
    degree_bound: int = 28,
    holdout: int = 64,
    seed: int = 1,
    sextic: ExactPoly | None = None,
) -> ResultantReport:
    """Certify that the sextic divides the eliminated resultant at fixed r.

    For the given rational r, the resultant Res(x, y) of the elimination
    system is sampled exactly on a shifted tensor grid large enough to pin
    down a cofactor of total degree ``degree_bound``: along each horizontal
    section y = y_k the section polynomial Res(x, y_k) (degree at most
    degree_bound + 8) is recovered by exact Newton interpolation and divided
    exactly by the sextic section E(x^2, y_k^2, r).  A nonzero section
    remainder means the fitting system Res = E * C is inconsistent and the
    certificate fails immediately, reporting the section residuals.  When
    every section divides, the section quotients are interpolated across y
    into the cofactor C(x, y), and the identity Res = E * C is re-verified
    at ``holdout`` pseudo-random rational points; every held-out residual
    must be exactly zero.

    Success across several independent r values establishes the divisibility
    claimed for the boundary curve; the cofactor collects the extraneous
    factors of the non-monic elimination.  Grid offsets and held-out samples
    are drawn from a generator seeded by ``seed`` (and r), so reports are
    bit-reproducible.  Sample coordinates are rationals with numerator and
    denominator bounded by 1000.
    """
    r = Fraction(r)
    if r == 0:
        raise ValueError("r = 0: the elimination system degenerates")
    if degree_bound < 0:
        raise ValueError("degree bound must be nonnegative")

    space_dim = (degree_bound + 1) * (degree_bound + 2) // 2
    rng = _certificate_rng(r, seed)
    sextic_poly = sextic if sextic is not None else sextic_polynomial()
    sextic_r = sextic_poly.specialize({"r": r})

    up1r, up2r = ([c.specialize({"r": r}) for c in up] for up in _system_coefficients())

    def res_value(x: Fraction, y: Fraction) -> Fraction:
        return Fraction(_resultant_of_system(up1r, up2r, {"x": x, "y": y}))

    def sextic_section(y: Fraction) -> list:
        """Coefficients (ascending in x) of E(x^2, y^2, r) for fixed y."""
        section = sextic_r.specialize({"v": y * y})  # polynomial in u alone
        coeffs_u = [Fraction(c.evaluate({})) for c in section.univariate_coefficients("u")]
        out = [Fraction(0)] * (2 * len(coeffs_u) - 1)
        for i, c in enumerate(coeffs_u):
            out[2 * i] = c
        return out

    def sextic_value(x: Fraction, y: Fraction) -> Fraction:
        return sextic_r.evaluate({"u": x * x, "v": y * y})

    # The section degree bound: deg_x Res <= degree_bound + deg_x E.
    section_degree = degree_bound + 8
    xs_count = section_degree + 1
    ys_count = degree_bound + 1

    den_x = rng.choice((7, 11, 13))
    den_y = rng.choice((7, 11, 13))
    off_x = Fraction(rng.randrange(1, den_x), den_x)
    off_y = Fraction(rng.randrange(1, den_y), den_y)
    xs = [Fraction(k - xs_count // 2) + off_x for k in range(xs_count)]
    ys = [Fraction(k - ys_count // 2) + off_y for k in range(ys_count)]
    sample_count = xs_count * ys_count + holdout
    if sample_count < space_dim * 5 // 4:
        raise ValueError(
            f"sample count {sample_count} does not exceed the degree-{degree_bound} "
            f"space dimension {space_dim} by 25%"
        )

    # Per-section interpolation of Res and exact division by the sextic.
    section_quotients = []
    for y in ys:
        values = [res_value(x, y) for x in xs]
        res_section = _newton_interpolate(xs, values)
        quot, rem = _divide_univariate(res_section, sextic_section(y))
        if rem:
            # Fitting system Res = E * C is inconsistent on this section;
            # report residuals of the divided quotient at held-out abscissae.
            failures = []
            for _ in range(min(holdout, 8)):
                xh = Fraction(rng.randint(-999, 999), rng.randint(1, 999))
                res_h = res_value(xh, y)
                quot_h = sum(c * xh**i for i, c in enumerate(quot))
                failures.append((xh, y, res_h - sextic_value(xh, y) * quot_h))
            return ResultantReport(
                r=r,
                degree_bound=degree_bound,
                sample_count=sample_count,
                holdout_count=len(failures),
                seed=seed,
                success=False,
                cofactor=None,
                cofactor_total_degree=None,
                holdout_failures=[f for f in failures if f[2] != 0],
                failure_reason=(
                    f"fitting system inconsistent: section y = {y} leaves a "
                    f"degree-{len(rem) - 1} remainder under exact division"
                ),
            )
        if len(quot) > degree_bound + 1:
            trailing = quot[degree_bound + 1 :]
            if any(trailing):
                return ResultantReport(
                    r=r,
                    degree_bound=degree_bound,
                    sample_count=sample_count,
                    holdout_count=0,
                    seed=seed,
                    success=False,
                    failure_reason=(
                        f"section quotient degree {len(quot) - 1} exceeds the "
                        f"bound {degree_bound}"
                    ),
                )
        section_quotients.append(quot + [Fraction(0)] * (degree_bound + 1 - len(quot)))

    # Interpolate each x-power across the y sections into the cofactor.
    terms: dict = {}
    for i in range(degree_bound + 1):
        coeffs_y = _newton_interpolate(ys, [q[i] for q in section_quotients])
        for j, c in enumerate(coeffs_y):
            terms[(i, j)] = c
    cofactor = ExactPoly(("x", "y"), terms)
    total_degree = max(cofactor.degree(), 0)

    failures = []
    for _ in range(holdout):
        x = Fraction(rng.randint(-999, 999), rng.randint(1, 999))
        y = Fraction(rng.randint(-999, 999), rng.randint(1, 999))
        residual = res_value(x, y) - sextic_value(x, y) * cofactor.evaluate({"x": x, "y": y})
        if residual != 0:
            failures.append((x, y, residual))

    reason = None
    if total_degree > degree_bound:
        reason = (
            f"interpolated cofactor has total degree {total_degree} "
            f"> bound {degree_bound}"
        )
    if failures:
        reason = f"{len(failures)} held-out residuals are nonzero"

    success = reason is None
    return ResultantReport(
        r=r,
        degree_bound=degree_bound,
        sample_count=sample_count,
        holdout_count=holdout,
        seed=seed,
        success=success,
        cofactor=cofactor if success else None,
        cofactor_total_degree=total_degree,
        holdout_failures=failures,
        failure_reason=reason,
    )


# ---------------------------------------------------------------------------
# Optional fully symbolic route
# ---------------------------------------------------------------------------


def exact_divide(p: ExactPoly, q: ExactPoly) -> ExactPoly:
    """Exact polynomial division; raises ArithmeticError when not divisible."""
    if not q:
        raise ZeroDivisionError("division by the zero polynomial")
    if not p:
        return ExactPoly.zero(p.variables)
    if p.variables != q.variables:
        raise ValueError("variable mismatch")
    lead_q = max(q.terms)
    quotient: dict = {}
    remainder = p
    while remainder:
        lead_r = max(remainder.terms)
        expo = tuple(a - b for a, b in zip(lead_r, lead_q))
        if any(e < 0 for e in expo):
            raise ArithmeticError("non-exact polynomial division")
        coeff = _normalize_scalar(Fraction(remainder.terms[lead_r]) / Fraction(q.terms[lead_q]))
        quotient[expo] = coeff
        remainder = remainder - ExactPoly(p.variables, {expo: coeff}) * q
    return ExactPoly(p.variables, quotient)


def symbolic_resultant(r: Scalar | None = None) -> ExactPoly:
    """Resultant of the elimination system with x, y kept symbolic.

    This is the full fraction-free determinant with polynomial entries; it is
    expensive (minutes) and exists as an optional cross-check of the
    interpolation certificate.  With ``r`` given the computation runs over
    Z[x, y]; with ``r = None`` it runs over Z[r, x, y] and is slower still.
    """
    up1, up2 = _system_coefficients()
    if r is not None:
        r = Fraction(r)
        if r == 0:
            raise ValueError("r = 0: the elimination system degenerates")
        up1 = [c.specialize({"r": r}) for c in up1]
        up2 = [c.specialize({"r": r}) for c in up2]
    return bareiss_determinant(sylvester_matrix(up1, up2), divide=exact_divide)
