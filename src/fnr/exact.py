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

The certificate fits its cofactor multi-modularly (Collins, J. ACM 18,
1971): modulo one 31-bit prime after another, the 1073 Sylvester
determinants of the sample grid, the Newton interpolation and the exact
division by the sextic sections run as int64 numpy arrays, and the
cofactor's rational coefficients come back by the Chinese remainder theorem
and rational reconstruction.  The fit is only a candidate: the held-out
check in exact :class:`~fractions.Fraction` arithmetic is the sole judge of
success, and any other outcome reruns the certificate with the fitting in
exact arithmetic, so failure reports are exact too.

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

import numpy as np

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
    An all-int matrix under the default division runs the checked integer
    division inline.
    """
    matrix = [list(row) for row in rows]
    n = len(matrix)
    if n == 0:
        return 1
    if any(len(row) != n for row in matrix):
        raise ValueError("matrix must be square")
    integral = divide is None and all(type(v) is int for row in matrix for v in row)
    if divide is None:
        divide = _exact_scalar_div
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
                        value = divide(value, prev)
                row[j] = value
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


# Pseudo-random rational points at which the fitted identity is re-checked exactly.
_HOLDOUT = 64


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


class _Certificate:
    """Sample grid, seeded stream and exact evaluators of one certificate run.

    Construction validates the arguments and draws the grid offsets, so two
    instances built from the same arguments replay the same stream.
    """

    def __init__(self, r, degree_bound, seed, sextic):
        r = Fraction(r)
        if r == 0:
            raise ValueError("r = 0: the elimination system degenerates")
        if degree_bound < 0:
            raise ValueError("degree bound must be nonnegative")

        self.r, self.degree_bound, self.seed = r, degree_bound, seed
        space_dim = (degree_bound + 1) * (degree_bound + 2) // 2
        self.rng = rng = _certificate_rng(r, seed)
        sextic_poly = sextic if sextic is not None else sextic_polynomial()
        self.sextic_r = sextic_poly.specialize({"r": r})
        self.up1r, self.up2r = ([c.specialize({"r": r}) for c in up] for up in _system_coefficients())

        # The section degree bound: deg_x Res <= degree_bound + deg_x E.
        section_degree = degree_bound + 8
        xs_count = section_degree + 1
        ys_count = degree_bound + 1

        den_x = rng.choice((7, 11, 13))
        den_y = rng.choice((7, 11, 13))
        off_x = Fraction(rng.randrange(1, den_x), den_x)
        off_y = Fraction(rng.randrange(1, den_y), den_y)
        self.xs = [Fraction(k - xs_count // 2) + off_x for k in range(xs_count)]
        self.ys = [Fraction(k - ys_count // 2) + off_y for k in range(ys_count)]
        self.sample_count = xs_count * ys_count + _HOLDOUT
        if self.sample_count < space_dim * 5 // 4:
            raise ValueError(
                f"sample count {self.sample_count} does not exceed the degree-{degree_bound} "
                f"space dimension {space_dim} by 25%"
            )

    def res_value(self, x: Fraction, y: Fraction) -> Fraction:
        return Fraction(_resultant_of_system(self.up1r, self.up2r, {"x": x, "y": y}))

    def sextic_section(self, y: Fraction) -> list:
        """Coefficients (ascending in x) of E(x^2, y^2, r) for fixed y."""
        section = self.sextic_r.specialize({"v": y * y})  # polynomial in u alone
        coeffs_u = [Fraction(c.evaluate({})) for c in section.univariate_coefficients("u")]
        out = [Fraction(0)] * (2 * len(coeffs_u) - 1)
        for i, c in enumerate(coeffs_u):
            out[2 * i] = c
        return out

    def sextic_value(self, x: Fraction, y: Fraction) -> Fraction:
        return self.sextic_r.evaluate({"u": x * x, "v": y * y})

    def report(self, **fields) -> ResultantReport:
        return ResultantReport(
            r=self.r,
            degree_bound=self.degree_bound,
            sample_count=self.sample_count,
            seed=self.seed,
            **fields,
        )

    def conclude(self, terms: dict) -> ResultantReport:
        """Check the fitted cofactor at the exact held-out points; the only way to succeed."""
        cofactor = ExactPoly(("x", "y"), terms)
        total_degree = max(cofactor.degree(), 0)

        rng = self.rng
        failures = []
        for _ in range(_HOLDOUT):
            x = Fraction(rng.randint(-999, 999), rng.randint(1, 999))
            y = Fraction(rng.randint(-999, 999), rng.randint(1, 999))
            residual = self.res_value(x, y) - self.sextic_value(x, y) * cofactor.evaluate(
                {"x": x, "y": y}
            )
            if residual != 0:
                failures.append((x, y, residual))

        reason = None
        if total_degree > self.degree_bound:
            reason = (
                f"interpolated cofactor has total degree {total_degree} "
                f"> bound {self.degree_bound}"
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


def _exact_certificate(cert: _Certificate) -> ResultantReport:
    """The certificate with the fitting stage in exact rational arithmetic.

    Along each section y = y_k the section polynomial Res(x, y_k) is recovered
    by exact Newton interpolation and divided exactly by the sextic section.
    A nonzero remainder ends the run with the section residuals at up to 8
    held-out abscissae; a quotient over the degree bound ends it too.
    """
    bound = cert.degree_bound
    section_quotients = []
    for y in cert.ys:
        values = [cert.res_value(x, y) for x in cert.xs]
        res_section = _newton_interpolate(cert.xs, values)
        quot, rem = _divide_univariate(res_section, cert.sextic_section(y))
        if rem:
            # Fitting system Res = E * C is inconsistent on this section;
            # report residuals of the divided quotient at held-out abscissae.
            rng = cert.rng
            failures = []
            for _ in range(8):
                xh = Fraction(rng.randint(-999, 999), rng.randint(1, 999))
                res_h = cert.res_value(xh, y)
                quot_h = sum(c * xh**i for i, c in enumerate(quot))
                failures.append((xh, y, res_h - cert.sextic_value(xh, y) * quot_h))
            return cert.report(
                holdout_count=len(failures),
                success=False,
                holdout_failures=[f for f in failures if f[2] != 0],
                failure_reason=(
                    f"fitting system inconsistent: section y = {y} leaves a "
                    f"degree-{len(rem) - 1} remainder under exact division"
                ),
            )
        if len(quot) > bound + 1 and any(quot[bound + 1 :]):
            return cert.report(
                holdout_count=0,
                success=False,
                failure_reason=f"section quotient degree {len(quot) - 1} exceeds the bound {bound}",
            )
        section_quotients.append(quot + [Fraction(0)] * (bound + 1 - len(quot)))

    # Interpolate each x-power across the y sections into the cofactor.
    terms: dict = {}
    for i in range(bound + 1):
        coeffs_y = _newton_interpolate(cert.ys, [q[i] for q in section_quotients])
        for j, c in enumerate(coeffs_y):
            terms[(i, j)] = c
    return cert.conclude(terms)


def verify_sextic_resultant_identity(
    r: Scalar,
    degree_bound: int = 28,
    seed: int = 1,
    sextic: ExactPoly | None = None,
) -> ResultantReport:
    """Certify that the sextic divides the eliminated resultant at fixed r.

    For the given rational r, the resultant Res(x, y) of the elimination
    system is sampled on a shifted tensor grid large enough to pin down a
    cofactor of total degree ``degree_bound``: along each horizontal section
    y = y_k the section polynomial Res(x, y_k) (degree at most
    degree_bound + 8) is recovered by Newton interpolation and divided
    exactly by the sextic section E(x^2, y_k^2, r).  The section quotients
    are interpolated across y into the cofactor C(x, y), and the identity
    Res = E * C is re-verified in exact rational arithmetic at 64
    pseudo-random rational points; every held-out residual must be exactly
    zero, and only that check can declare success.

    The fitting runs modulo one prime after another (Collins' multi-modular
    method): the Sylvester determinants, the interpolation and the section
    divisions are int64 array arithmetic, the residues are joined by the
    Chinese remainder theorem, and each cofactor coefficient is rationally
    reconstructed (Wang's bound) until one more prime leaves every
    coefficient unchanged.  Whenever that route cannot conclude -- a nonzero
    section remainder modulo a prime, a quotient over the degree bound, a
    reconstruction that does not settle, or a held-out failure -- the whole
    certificate is rerun with the fitting in exact rational arithmetic, so a
    failure is reported with the exact section residuals.

    Success across several independent r values establishes the divisibility
    claimed for the boundary curve; the cofactor collects the extraneous
    factors of the non-monic elimination.  Grid offsets and held-out samples
    are drawn from a generator seeded by ``seed`` (and r), so reports are
    bit-reproducible.  Sample coordinates are rationals with numerator and
    denominator bounded by 1000.
    """
    cert = _Certificate(r, degree_bound, seed, sextic)
    fitted = _modular_cofactor(cert)
    if fitted is not None:
        report = cert.conclude(fitted[0])
        if report.success:
            return report
        # Replay the stream: the exact route draws what a fresh run draws.
        cert = _Certificate(r, degree_bound, seed, sextic)
    return _exact_certificate(cert)


# ---------------------------------------------------------------------------
# Modular fitting
# ---------------------------------------------------------------------------

# The fitting moduli: the 64 largest primes below 2^31, in descending order.
# Residues lie in [0, p), so a product of two residues, and the difference of
# two such products, is below 2^62 in magnitude; each is reduced modulo p
# before anything else is added to it, because int64 wraps without warning.
_PRIMES = (
    2147483647, 2147483629, 2147483587, 2147483579, 2147483563, 2147483549,
    2147483543, 2147483497, 2147483489, 2147483477, 2147483423, 2147483399,
    2147483353, 2147483323, 2147483269, 2147483249, 2147483237, 2147483179,
    2147483171, 2147483137, 2147483123, 2147483077, 2147483069, 2147483059,
    2147483053, 2147483033, 2147483029, 2147482951, 2147482949, 2147482943,
    2147482937, 2147482921, 2147482877, 2147482873, 2147482867, 2147482859,
    2147482819, 2147482817, 2147482811, 2147482801, 2147482763, 2147482739,
    2147482697, 2147482693, 2147482681, 2147482663, 2147482661, 2147482621,
    2147482591, 2147482583, 2147482577, 2147482507, 2147482501, 2147482481,
    2147482417, 2147482409, 2147482367, 2147482361, 2147482349, 2147482343,
    2147482327, 2147482291, 2147482273, 2147482237,
)

# Sections per determinant block: 6 sections of 37 Sylvester matrices keep
# the block's working arrays near 1 MB.
_BLOCK_SECTIONS = 6


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
    """Determinants modulo the prime p of a stack of square int64 matrices.

    Entries must lie in [0, p); ``matrices`` is overwritten.  Step k swaps
    the first row with a nonzero entry in column k up to the diagonal, then
    replaces every lower row by pivot * row - lead * pivot row.  That scales
    the determinant by pivot^(rows below), a factor divided out once per
    matrix at the end; a column with no nonzero entry gives determinant 0.
    """
    count, n, _ = matrices.shape
    m = matrices
    negate = np.zeros(count, bool)
    diagonal = np.ones(count, np.int64)  # product of the pivots so far
    scale = np.ones(count, np.int64)  # product of pivot^(rows below)
    work = np.empty((count, n - 1, n - 1), np.int64)
    for k in range(n - 1):
        first = np.argmax(m[:, k:, k] != 0, axis=1)
        swap = np.flatnonzero(first)
        if swap.size:
            rows = k + first[swap]
            top = m[swap, k].copy()
            m[swap, k] = m[swap, rows]
            m[swap, rows] = top
            negate[swap] ^= True
        pivot = m[:, k, k]
        diagonal = diagonal * pivot % p
        scale = scale * diagonal % p
        lower = m[:, k + 1 :, k + 1 :]
        cross = work[:, : n - 1 - k, : n - 1 - k]
        # Both products lie in [0, (p - 1)^2] with (p - 1)^2 < 2^62, so their
        # difference fits int64 and is reduced before anything is added to it.
        np.multiply(m[:, k + 1 :, k, None], m[:, k, None, k + 1 :], out=cross)
        lower *= pivot[:, None, None]
        lower -= cross
        lower %= p
    det = diagonal * m[:, n - 1, n - 1] % p * _inverse_mod(scale, p) % p
    return np.where(negate, (p - det) % p, det)


def _newton_mod(values: np.ndarray, nodes: Sequence[int], p: int) -> np.ndarray:
    """Ascending monomial coefficients of the interpolant through each row, modulo p.

    Row-wise the same divided differences and Horner expansion as
    :func:`_newton_interpolate`, for all rows at once; ``nodes`` are the
    abscissae as residues.
    """
    n = len(nodes)
    divided = values.copy()
    for level in range(1, n):
        inverse = np.array(
            [pow(nodes[i] - nodes[i - level], -1, p) for i in range(level, n)], np.int64
        )
        divided[:, level:] = (divided[:, level:] - divided[:, level - 1 : -1]) % p * inverse % p
    coeffs = np.zeros_like(divided)
    coeffs[:, 0] = divided[:, n - 1]
    for i in range(n - 2, -1, -1):
        length = n - i
        coeffs[:, 1:length] = coeffs[:, : length - 1].copy()
        coeffs[:, 0] = 0
        coeffs[:, : length - 1] = (coeffs[:, : length - 1] - nodes[i] * coeffs[:, 1:length]) % p
        coeffs[:, 0] = (coeffs[:, 0] + divided[:, i]) % p
    return coeffs


def _matmul_mod(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """a @ b modulo p for residue matrices with fewer than 2^15 columns in a.

    Each entry of a is split into 16-bit limbs: a limb times a residue is below
    2^47, so no sum of fewer than 2^15 such terms reaches 2^62.
    """
    return ((a >> 16) @ b % p * 65536 + (a & 0xFFFF) @ b) % p


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


@functools.cache
def _system_terms() -> tuple:
    """Terms (c, i, j, k) of c r^i x^j y^k for each Sylvester coefficient, f's then g's."""
    return tuple(
        tuple((c, *expo) for expo, c in poly.terms.items())
        for coeffs in _system_coefficients()
        for poly in coeffs
    )


def _sylvester_values_mod(r: int, xs: Sequence[int], ys: Sequence[int], p: int) -> np.ndarray:
    """Every Sylvester coefficient at every grid point (y, x), modulo p: shape (20, ny, nx)."""
    terms = _system_terms()
    top = max(max(j, k) for poly in terms for _, _, j, k in poly)
    xpow = [np.ones(len(xs), np.int64), np.array(xs, np.int64)]
    ypow = [np.ones(len(ys), np.int64), np.array(ys, np.int64)]
    while len(xpow) <= top:
        xpow.append(xpow[-1] * xpow[1] % p)
        ypow.append(ypow[-1] * ypow[1] % p)
    out = np.zeros((len(terms), len(ys), len(xs)), np.int64)
    for acc, poly in zip(out, terms):
        for c, i, j, k in poly:
            row = c * pow(r, i, p) % p * xpow[j] % p
            acc += ypow[k][:, None] * row[None, :] % p
            acc %= p
    return out


def _cofactor_mod(cert: _Certificate, sections: list, p: int) -> np.ndarray | None:
    """Cofactor coefficients [i, j] of x^i y^j modulo p, or None if a section does not divide.

    Also None when a section quotient has a nonzero coefficient above the
    degree bound.  Sections are fitted and divided a block at a time, so the
    first block that fails ends the run.
    """
    xs = [_residue(x, p) for x in cert.xs]
    ys = [_residue(y, p) for y in cert.ys]
    coeffs = _sylvester_values_mod(_residue(cert.r, p), xs, ys, p)
    f_count, g_count = (len(c) for c in _system_coefficients())
    size = f_count + g_count - 2
    ny, nx = len(ys), len(xs)
    den = np.array([[_residue(c, p) for c in s] for s in sections], np.int64)
    width = den.shape[1]
    lead_inverse = np.array([pow(int(c), -1, p) for c in den[:, -1]], np.int64)
    bound = cert.degree_bound
    fitted = np.zeros((bound + 1, ny), np.int64)
    # Interpolation is linear: row i of the basis holds the coefficients of the
    # Lagrange polynomial of node i, so a block's coefficients are one product.
    basis = _newton_mod(np.eye(nx, dtype=np.int64), xs, p)

    # The Sylvester matrices of _BLOCK_SECTIONS sections at a time, laid out
    # as in sylvester_matrix: deg g shifted copies of f above deg f of g.
    block = np.empty((_BLOCK_SECTIONS * nx, size, size), np.int64)
    for start in range(0, ny, _BLOCK_SECTIONS):
        stop = min(start + _BLOCK_SECTIONS, ny)
        count = (stop - start) * nx
        f = coeffs[:f_count, start:stop].reshape(f_count, count).T
        g = coeffs[f_count:, start:stop].reshape(g_count, count).T
        mats = block[:count]
        mats.fill(0)
        for shift in range(g_count - 1):
            mats[:, shift, shift : shift + f_count] = f
        for shift in range(f_count - 1):
            mats[:, g_count - 1 + shift, shift : shift + g_count] = g
        values = _determinants_mod(mats, p).reshape(stop - start, nx)

        rem = _matmul_mod(values, basis, p)
        divisor, lead = den[start:stop], lead_inverse[start:stop]
        quot = np.zeros((stop - start, max(nx - width + 1, 0)), np.int64)
        for k in range(quot.shape[1] - 1, -1, -1):
            factor = rem[:, width - 1 + k] * lead % p
            quot[:, k] = factor
            rem[:, k : k + width] = (rem[:, k : k + width] - factor[:, None] * divisor % p) % p
        if rem.any() or quot[:, bound + 1 :].any():
            return None
        fitted[: quot.shape[1], start:stop] = quot[:, : bound + 1].T
    return _newton_mod(fitted, ys, p)


def _modular_cofactor(cert: _Certificate) -> tuple | None:
    """The exact fitting's cofactor terms, from fitting modulo primes, or None.

    Returns ``(terms, primes)``: the {(i, j): Fraction} table of the
    coefficients of x^i y^j and the primes used.  A prime is skipped when it
    divides a sample, r or sextic-section denominator, or the leading
    coefficient of a sextic section.  None leaves the decision to the exact
    route: a section that does not divide modulo a prime, a quotient over
    the degree bound, sextic sections of unequal degree, or a prime table
    exhausted before the reconstruction settles.
    """
    sections = []
    for y in cert.ys:
        section = cert.sextic_section(y)
        while section and section[-1] == 0:
            section.pop()
        sections.append(section)
    if not sections[0] or any(len(s) != len(sections[0]) for s in sections):
        return None
    # Every denominator must be a unit modulo p, and so must every leading
    # coefficient: the exact division divides by it.
    avoid = [cert.r.denominator, cert.xs[0].denominator, cert.ys[0].denominator]
    avoid += [c.denominator for s in sections for c in s]
    avoid += [s[-1].numerator for s in sections]

    combined: list = []
    modulus = 1
    previous = None
    primes = []
    for p in _PRIMES:
        if any(d % p == 0 for d in avoid):
            continue
        residues = _cofactor_mod(cert, sections, p)
        if residues is None:
            return None
        primes.append(p)
        flat = residues.ravel().tolist()
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
        if terms is not None and terms == previous:
            return terms, primes
        previous = terms
    return None


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
