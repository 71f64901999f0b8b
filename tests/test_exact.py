"""Exact polynomial layer: ring laws, transcriptions, resultants, certificate."""

import itertools
import math
import random
from fractions import Fraction as Q

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fnr import exact
from fnr.boundary import (
    Branch,
    envelope_points,
    sextic_envelope,
    sextic_value,
    support_function,
    switching_cosine,
)

# The 64 largest primes below 2^31, in descending order: the fixed table of
# fitting moduli that the modular fit used before it drew primes on demand.
PRIMES = (
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

# ---------------------------------------------------------------------------
# ExactPoly ring laws
# ---------------------------------------------------------------------------

VARS = ("x", "y")


def _polys():
    exponents = st.tuples(st.integers(0, 4), st.integers(0, 4))
    coeffs = st.one_of(
        st.integers(-9, 9),
        st.builds(Q, st.integers(-9, 9), st.integers(1, 7)),
    )
    return st.dictionaries(exponents, coeffs, max_size=6).map(
        lambda terms: exact.ExactPoly(VARS, terms)
    )


@given(_polys(), _polys(), _polys())
def test_ring_laws(p, q, s):
    assert p + q == q + p
    assert p * q == q * p
    assert (p + q) + s == p + (q + s)
    assert (p * q) * s == p * (q * s)
    assert p * (q + s) == p * q + p * s


@given(_polys(), _polys(), st.integers(-5, 5), st.integers(-5, 5))
def test_evaluation_is_a_homomorphism(p, q, x, y):
    point = {"x": x, "y": y}
    assert (p * q).evaluate(point) == p.evaluate(point) * q.evaluate(point)
    assert (p + q).evaluate(point) == p.evaluate(point) + q.evaluate(point)


@given(_polys())
def test_no_zero_coefficients_stored(p):
    assert all(c != 0 for c in p.terms.values())
    cancelled = p - p
    assert not cancelled.terms


def test_exponent_mismatch_rejected():
    with pytest.raises(ValueError):
        exact.ExactPoly(("x",), {(1, 2): 1})


def _assign_terms(poly):
    poly.terms = {}


X, Y = exact.ExactPoly.generators(("x",))[0], exact.ExactPoly.generators(("y",))[0]
REFUSALS = {
    "negative_exponent": (lambda: exact.ExactPoly(("x",), {(-1,): 1}), ValueError),
    "variable_mismatch": (lambda: X + Y, ValueError),
    "negative_power": (lambda: X**-1, ValueError),
    "fractional_power": (lambda: X**1.5, ValueError),
    "attribute_assignment": (lambda: _assign_terms(X), AttributeError),
    "missing_assignment": (lambda: (X * X).evaluate({"y": 1}), ValueError),
    "float_coefficient": (lambda: exact.ExactPoly(("x",), {(1,): 0.5}), TypeError),
    "zero_leading_coefficient": (lambda: exact.resultant([0, 1, 2], [1, 3]), ValueError),
    "bezout_deg_f_below_deg_g": (lambda: exact._bezout_matrix([1, 2], [1, 2, 3]), ValueError),
}


@pytest.mark.parametrize("call, error", REFUSALS.values(), ids=REFUSALS.keys())
def test_the_exact_layer_refuses_what_it_cannot_represent(call, error):
    with pytest.raises(error):
        call()


# ---------------------------------------------------------------------------
# Transcriptions
# ---------------------------------------------------------------------------


def test_elimination_system_degrees_and_spot_coefficients():
    first, second = exact.envelope_system()
    assert first.degree("t") == 10
    assert second.degree("t") == 8

    x, y = exact.ExactPoly.generators(("r", "x", "y"))[1:]
    assert first.univariate_coefficients("t")[7] == 8 * x * y
    r = exact.ExactPoly.generators(("r", "x", "y"))[0]
    assert second.univariate_coefficients("t")[0] == -(r**2)


def test_sextic_spot_coefficients():
    sextic = exact.sextic_polynomial()
    assert sextic.variables == ("u", "v", "r")
    assert sextic.terms[(2, 0, 6)] == 16  # the u^2 r^6 monomial
    assert sextic.degree("u") == 4 and sextic.degree("v") == 3


@pytest.mark.parametrize("r", [Q(1, 2), Q(1, 3), Q(2)])
def test_sextic_vanishes_at_top_vertex_exactly(r):
    value = exact.sextic_polynomial().evaluate({"u": 0, "v": 1 + r * r, "r": r})
    assert value == 0


def test_sextic_right_vertex_value():
    assert exact.sextic_polynomial().evaluate({"u": 1, "v": 0, "r": Q(1, 2)}) == Q(5, 4)


def _derivative(poly, variable):
    """The partial derivative of ``poly`` in ``variable``, term by term."""
    k = poly.variables.index(variable)
    return exact.ExactPoly(poly.variables, {
        (*expo[:k], expo[k] - 1, *expo[k + 1:]): coeff * expo[k]
        for expo, coeff in poly.terms.items() if expo[k]
    })


def _unit_normal(t):
    """(c, s) = ((1 - t^2), 2t) / (1 + t^2): the rational point of the unit circle at theta = 2 atan t."""
    return (1 - t * t) / (1 + t * t), 2 * t / (1 + t * t)


@pytest.mark.parametrize("t", [Q(1, 2), Q(1, 3), Q(2, 3)], ids=str)
def test_circle_and_sextic_join_at_rational_switching_points(t):
    # (c, s) = ((1 - t^2), 2t) / (1 + t^2) is a rational point of the unit
    # circle and r = s^2 / c makes c the switching cosine: 16/15, 9/20, 144/65.
    c, s = _unit_normal(t)
    r = s * s / c
    assert c * (c + r) == 1
    sextic = exact.sextic_polynomial()
    x, y = 1 + r * c, r * s  # the right circle's point with normal (c, s)
    point = {"u": x * x, "v": y * y, "r": r}
    assert sextic.evaluate(point) == 0
    # The sextic's (x, y) gradient (2x E_u, 2y E_v) is parallel to the normal.
    grad_x = 2 * x * _derivative(sextic, "u").evaluate(point)
    grad_y = 2 * y * _derivative(sextic, "v").evaluate(point)
    assert (grad_x, grad_y) != (0, 0)
    assert grad_x * s - grad_y * c == 0
    assert abs(switching_cosine(float(r)) - float(c)) <= 4 * math.ulp(float(c))


def _sextic_witness(t, k):
    """(r, c, x, y): the sextic envelope point at theta = 2 atan t, exactly.

    There (c, s) = ((1 - t^2), 2t) / (1 + t^2), and r = s (k - 1/k) / 2 makes
    p = sqrt(1 + (r / s)^2) the rational (k + 1/k) / 2, so the envelope point
    (p c - p' s, p s + p' c), p' = -r^2 c / (s^3 p), is rational too.
    """
    c, s = _unit_normal(t)
    r, p = s * (k - 1 / k) / 2, (k + 1 / k) / 2
    dp = -r * r * c / (s**3 * p)
    return r, c, p * c - dp * s, p * s + dp * c


@pytest.mark.parametrize(
    "t, k, r", [(Q(1, 2), Q(2), Q(3, 5)), (Q(2, 3), Q(3, 2), Q(5, 13)), (Q(1, 2), Q(5, 4), Q(9, 50))], ids=str
)
def test_sextic_envelope_points_at_rational_witnesses(t, k, r):
    """A rational point of the sextic regime is on the sextic, exactly and in floats.

    The float bound: envelope_points gets theta~ = 2 atan(t~) and r~, with
    t~ and r~ the doubles nearest t and r (doubling is exact).  The roundings
    of t and of atan leave |theta~ - theta| below one ulp of theta (0.41,
    0.43 and 0.41 ulp here), and the point moves with theta at the speed
    |p + p''|, at most 2.4 here, so the inputs shift a coordinate by at
    most 2.3 ulps (measured).  The evaluation's dozen correctly rounded or
    faithful steps meet no cancellation, since x = p c + |p'| s adds two
    positive terms and y = p s - |p'| c subtracts one at most a fifth of
    the other, and add at most 1.3 ulps (measured).  4 ulps bounds the sum,
    3.6; the measured error is at most 2.  The support value there is
    h = p = (k^2 + 1) / (2k), and support_function is within 2 ulps of it
    (measured: 0).
    """
    witness_r, c, x, y = _sextic_witness(t, k)
    assert witness_r == r
    point = {"u": x * x, "v": y * y, "r": r}
    assert exact.sextic_polynomial().evaluate(point) == 0
    for poly in exact.envelope_system():
        assert poly.evaluate({"t": t, "r": r, "x": x, "y": y}) == 0
    # |c| is below the switching cosine, the root of c (c + r) = 1.
    assert abs(c) * (abs(c) + r) < 1
    assert exact.mutated_sextic().evaluate(point) != 0
    got = envelope_points(2 * math.atan(t), float(r))
    assert got.branch is Branch.SEXTIC_UPPER
    assert abs(got.x - float(x)) <= 4 * math.ulp(float(x))
    assert abs(got.y - float(y)) <= 4 * math.ulp(float(y))
    h = (k * k + 1) / (2 * k)
    assert x * c + y * _unit_normal(t)[1] == h  # the point is on its supporting line
    assert abs(support_function(2 * math.atan(t), float(r)) - float(h)) <= 2 * math.ulp(float(h))


@pytest.mark.parametrize("t, r", [(Q(1, 3), Q(1)), (Q(1, 5), Q(1, 2)), (Q(1, 4), Q(3))], ids=str)
def test_circle_envelope_points_and_support_values_at_rational_witnesses(t, r):
    """A rational point of the circle regime and its support value, exactly and in floats.

    At the normal (c, s) of :func:`_unit_normal` with c (c + r) >= 1
    the supporting line touches the right circle at (1 + r c, r s), and the
    support value is h = r + c.  The floats are within 2 ulps of the exact
    values (measured: at most 1); support_function scaled by 1 + 1e-9 is
    4.6e6 to 8.7e6 ulps off.
    """
    c, s = _unit_normal(t)
    assert c * (c + r) >= 1  # c is at least the switching cosine
    x, y, h = 1 + r * c, r * s, r + c
    assert (x - 1) ** 2 + y**2 == r * r and x * c + y * s == h
    theta = 2 * math.atan(t)
    got = envelope_points(theta, float(r))
    assert got.branch is Branch.CIRCLE_RIGHT
    assert abs(got.x - float(x)) <= 2 * math.ulp(float(x))
    assert abs(got.y - float(y)) <= 2 * math.ulp(float(y))
    assert abs(support_function(theta, float(r)) - float(h)) <= 2 * math.ulp(float(h))


def test_no_ellipse_bounds_the_numerical_range_at_radius_one():
    """The paper's headline, exactly: at r = 1 six boundary points lie on no conic.

    The right-arc points (1 + c, s) at t = 0, +-1/3 and +-1/4 and the left
    vertex (-2, 0) are on the boundary of W(F).  Were W(F) an elliptical
    disk, its boundary would be a conic through all six, and the 6 x 6
    determinant of their rows (x^2, x y, y^2, x, y, 1) would vanish.  With a
    sixth point on the right circle instead, it does vanish.
    """
    def conic_row(x, y):
        return [x * x, x * y, y * y, x, y, Q(1)]

    points = []
    for t in (Q(0), Q(1, 3), Q(-1, 3), Q(1, 4), Q(-1, 4)):
        c, s = _unit_normal(t)
        assert c * (c + 1) >= 1
        points.append((1 + c, s, envelope_points(2 * math.atan(t), 1.0), Branch.CIRCLE_RIGHT))
    points.append((Q(-2), Q(0), envelope_points(math.pi, 1.0), Branch.CIRCLE_LEFT))
    # Every coordinate is at most 2 in magnitude, and the code is within 2 ulps of 2 of it.
    for x, y, got, branch in points:
        assert got.branch is branch
        assert abs(got.x - float(x)) <= 2 * math.ulp(2.0) and abs(got.y - float(y)) <= 2 * math.ulp(2.0)
    assert support_function(math.pi, 1.0) == 2

    rows = [conic_row(x, y) for x, y, _, _ in points]
    assert bareiss_determinant(rows) == Q(-75264, 52200625) != 0
    rows[-1] = conic_row(Q(8, 5), Q(4, 5))  # t = 1/2: (1 + c, s) with (c, s) = (3/5, 4/5)
    assert bareiss_determinant(rows) == 0


def test_a_sextic_witness_outside_the_sextic_regime_is_off_the_boundary():
    # (t, k) = (1/3, 3): the point is exactly on the sextic and solves the
    # elimination system, but |c| = 4/5 is past the switching cosine of
    # r = 4/5, so the supporting line there touches the right circle.
    r, c, x, y = _sextic_witness(Q(1, 3), Q(3))
    assert (r, x, y) == (Q(4, 5), Q(164, 75), Q(-31, 225))
    assert exact.sextic_polynomial().evaluate({"u": x * x, "v": y * y, "r": r}) == 0
    for poly in exact.envelope_system():
        assert poly.evaluate({"t": Q(1, 3), "r": r, "x": x, "y": y}) == 0
    assert abs(c) * (abs(c) + r) >= 1
    theta = 2 * math.atan(1 / 3)
    assert envelope_points(theta, 0.8).branch is Branch.CIRCLE_RIGHT
    # x = 2.19 and y's two terms, 1 and 1.14, are below 4: each coordinate
    # is within one ulp of [2, 4), 4.4e-16.
    got = sextic_envelope(theta, 0.8)
    assert abs(got[0] - float(x)) <= math.ulp(2.0) and abs(got[1] - float(y)) <= math.ulp(2.0)


@given(
    st.integers(-16, 16),
    st.integers(4, 9),
    st.integers(-16, 16),
    st.integers(4, 9),
    st.integers(0, 16),
    st.integers(4, 9),
)
def test_float_sextic_matches_exact_evaluation(un, ud, vn, vd, rn, rd):
    # |u|, |v|, r <= 4
    u, v, r = Q(un, ud), Q(vn, vd), Q(rn, rd)
    exact_value = float(exact.sextic_polynomial().evaluate({"u": u, "v": v, "r": r}))
    float_value = sextic_value(float(u), float(v), float(r))
    scale = max(1.0, abs(exact_value))
    assert abs(float_value - exact_value) <= 1e-12 * scale


def test_envelope_points_solve_the_elimination_system():
    # Rational snapshots of points on the sextic-regime envelope must nearly
    # annihilate both pre-elimination polynomials.
    first, second = exact.envelope_system()
    r = 0.5
    cut_angle = math.acos(switching_cosine(r))
    thetas = [cut_angle + (math.pi - 2 * cut_angle) * k / 8.0 for k in range(1, 8)]
    points = envelope_points(np.array(thetas), r)
    for theta, x, y in zip(thetas, points.x.tolist(), points.y.tolist()):
        t_val = math.tan(theta / 2.0)
        assignment = {
            "t": Q(t_val).limit_denominator(10**12),
            "r": Q(1, 2),
            "x": Q(x).limit_denominator(10**12),
            "y": Q(y).limit_denominator(10**12),
        }
        for poly in (first, second):
            residual = float(poly.evaluate(assignment))
            scale = max(
                abs(float(Q(c) * assignment["t"] ** e[0] * assignment["r"] ** e[1]
                          * assignment["x"] ** e[2] * assignment["y"] ** e[3]))
                for e, c in poly.terms.items()
            )
            assert abs(residual) <= 1e-6 * scale


# ---------------------------------------------------------------------------
# Resultants
# ---------------------------------------------------------------------------


def test_textbook_resultants():
    assert exact.resultant([1, -1], [1, 1]) == 2
    # det [[1/2, 1], [2, -3]] = -3/2 - 2
    assert exact.resultant([Q(1, 2), 1], [2, -3]) == Q(-7, 2)
    # deg-0 conventions: Res(c, g) = c^deg(g)
    assert exact.resultant([3], [1, 0, -2]) == 9


def _rational_quotient(a, b):
    return exact._normalize_scalar(Q(a) / Q(b))


def bareiss_determinant(rows):
    """Fraction-free determinant of a square matrix of int or Fraction entries.

    The reference that the resultants and the modular determinants are
    checked against.  Intermediate entries stay in the ring of the entries
    by Bareiss' identity, so each step's division by the previous pivot is
    exact: an all-int matrix runs a checked integer division inline, and any
    other matrix divides in Q.
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


def test_bareiss_default_division_covers_ints_and_fractions():
    rows = [[2, 1, 1], [1, 3, 2], [1, 0, 0]]
    assert bareiss_determinant(rows) == -1
    assert bareiss_determinant([[Q(v, 2) for v in row] for row in rows]) == Q(-1, 8)
    assert bareiss_determinant([[0, 1, 0], [1, 0, 0], [0, 0, 5]]) == -5
    # Rational entries whose elimination divides an integral value by an
    # integral pivot with a non-integral quotient: exact in Q all the same.
    half = Q(1, 2)
    rows = [[0, 0, half, 0], [2, 2, half, half], [2, 1, half, 1], [2, 2, half, 0]]
    assert bareiss_determinant(rows) == half


def test_resultant_of_shared_root_vanishes():
    # (t - c) g and (t - c) h share the root c.
    assert exact.resultant([1, -3], [1, -3]) == 0
    assert exact.resultant([1, 3, -10], [1, -9, 14]) == 0


@given(
    st.builds(Q, st.integers(-9, 9), st.integers(1, 6)),
    st.integers(-5, 5),
    st.integers(1, 5),
    st.integers(-5, 5),
    st.integers(1, 5),
)
def test_resultant_vanishes_iff_common_root(c, g1, g0, h1, h0):
    # f = (t - c)(g0 t + g1), g = (t - c)(h0 t + h1): always share the root c.
    f = [g0, g1 - c * g0, -c * g1]
    g = [h0, h1 - c * h0, -c * h1]
    assert exact.resultant(f, g) == 0
    # and shifting one root away from c restores a nonzero resultant
    shifted = [g0, (g1 + 1) - (c + 1) * g0, -(c + 1) * (g1 + 1)]
    if Q(g1 + 1, g0) != Q(h1, h0) and c + 1 != Q(-h1, h0) and Q(g1 + 1, g0) != -c:
        assert exact.resultant(shifted, g) != 0


def resultant_at(r, x, y):
    """Resultant in t of the elimination system at an exact point, as a Fraction."""
    return Q(*exact._system_resultant(Q(r), Q(x), Q(y)))


@pytest.mark.parametrize("r", [Q(1, 2), Q(355, 113), Q(2**127 - 1, 2**127 - 3)], ids=str)
def test_the_resultant_is_even_in_x(r):
    # The certificate takes Res at the distinct |x| only and fits it in x^2.
    points = [(Q(1), Q(0)), (Q(2, 3), Q(5, 7)), (Q(-999, 998), Q(1, 999)), (Q(12, 13), Q(-40, 3))]
    for x, y in points:
        value = resultant_at(r, x, y)
        assert value != 0 and resultant_at(r, -x, y) == value


def sylvester_matrix(f, g):
    """Sylvester matrix of two coefficient sequences (descending degree).

    The reference the Bezout route is checked against: for deg f = m and
    deg g = n it is (m+n) x (m+n), n shifted copies of f's coefficients above
    m shifted copies of g's, and its determinant is Res(f, g).
    """
    m, n = len(f) - 1, len(g) - 1
    rows = []
    for shift in range(n):
        rows.append([0] * shift + list(f) + [0] * (n - 1 - shift))
    for shift in range(m):
        rows.append([0] * shift + list(g) + [0] * (m - 1 - shift))
    return rows


def sylvester_resultant(f, g):
    return bareiss_determinant(sylvester_matrix(f, g))


def test_elimination_bezout_matrix_is_10_by_10():
    first, second = exact.envelope_system()
    point = {"r": Q(1, 2), "x": Q(2, 3), "y": Q(5, 7)}
    f = [c.evaluate(point) for c in reversed(first.univariate_coefficients("t"))]
    g = [c.evaluate(point) for c in reversed(second.univariate_coefficients("t"))]
    assert len(sylvester_matrix(f, g)) == 18
    rows = exact._bezout_matrix(f, g)
    assert len(rows) == 10 and all(len(row) == 10 for row in rows)
    assert all(rows[i][j] == rows[j][i] for i in range(10) for j in range(10))
    # det B = (-1)^(10*9/2) lc(f)^2 Res = -r^4 Res
    det = bareiss_determinant(rows)
    assert det == -Q(1, 2) ** 4 * sylvester_resultant(f, g)
    assert resultant_at(Q(1, 2), Q(2, 3), Q(5, 7)) == sylvester_resultant(f, g)


def _random_polynomial(rng, degree):
    # Sparse rational coefficients (zeros force pivot swaps), nonzero leading one.
    def coefficient():
        if rng.random() < 0.3:
            return Q(0)
        return Q(rng.randint(-9, 9), rng.randint(1, 6))

    lead = Q(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 6))
    return [lead] + [coefficient() for _ in range(degree)]


@pytest.mark.parametrize("m", range(12))
def test_resultant_matches_the_sylvester_reference_for_every_degree_pair(m):
    rng = random.Random(m)
    for n in range(12):
        for _ in range(3):
            f, g = _random_polynomial(rng, m), _random_polynomial(rng, n)
            assert exact.resultant(f, g) == sylvester_resultant(f, g), (m, n)
        # a shared root c: f = (t - c) u and g = (t - c) w
        c = Q(rng.randint(-5, 5), rng.randint(1, 4))
        if m and n:
            u, w = _random_polynomial(rng, m - 1), _random_polynomial(rng, n - 1)
            shared = [[a - c * b for a, b in zip(p + [0], [0] + p)] for p in (u, w)]
            assert exact.resultant(*shared) == sylvester_resultant(*shared) == 0, (m, n)


# Pairs whose remainder sequences are abnormal: a remainder's degree drops by
# 2 or more below its divisor's, or to nothing at a common factor.
ABNORMAL_PAIRS = {
    "even": ([3, 0, -1, 0, 4, 0, -2, 0, 5], [2, 0, 7, 0, -3, 0, 1]),
    "even_by_odd": ([1, 0, -4, 0, 2, 0], [5, 0, 1, 0, -6]),
    "in_t_cubed": ([1, 0, 0, 2, 0, 0, -3], [4, 0, 0, -1]),
    "zero_middle": ([2, 0, 0, 0, 0, 0, 7], [3, 0, 0, 0, 1]),
    "zero_middle_rational": ([Q(1, 2), 0, 0, 0, Q(-3, 5)], [Q(7, 3), 0, Q(1, 4)]),
    # (t^2 + 1) (2 t^2 - t + 3) and (t^2 + 1) (t^3 + 4 t^2 - 5)
    "common_factor": ([2, -1, 5, -1, 3], [1, 4, 1, -1, 0, -5]),
    "common_root_zero": ([1, 2, 0, 0], [3, 0, 0]),
    "equal_degrees": ([2, -1, 3, 0, 5], [-3, 4, 0, 1, 1]),
    "equal_odd_degrees": ([1, 2, 3, 4], [5, 0, -6, 7]),
    "equal_degrees_even": ([1, 0, -2, 0, 3], [4, 0, 5, 0, -1]),
    "equal_degrees_rational": ([Q(1, 2), 0, Q(-3, 4)], [Q(2, 3), Q(1, 5), 0]),
}


@pytest.mark.parametrize("f, g", ABNORMAL_PAIRS.values(), ids=ABNORMAL_PAIRS.keys())
def test_resultant_matches_the_sylvester_reference_through_abnormal_steps(f, g):
    assert exact.resultant(f, g) == sylvester_resultant(f, g)
    assert exact.resultant(g, f) == sylvester_resultant(g, f)


@pytest.mark.parametrize(
    "r, y", [(Q(1, 2), Q(5, 7)), (Q(355, 113), Q(-180, 13)), (Q(2**127 - 1, 2**127 - 3), Q(-3, 11))], ids=str
)
def test_the_system_at_x_zero_matches_the_sylvester_reference(r, y):
    # At x = 0 both polynomials are in t^2 only, so every remainder drops by
    # 2 or more degrees; the certificate's section reports take Res there.
    point = {"r": r, "x": Q(0), "y": y}
    terms, _, split = exact._system()
    values = [exact.ExactPoly(("r", "x", "y"), t).evaluate(point) for t in terms]
    f, g = values[:split], values[split:]
    assert not any(f[1::2]) and not any(g[1::2])
    assert exact.resultant(f, g) == sylvester_resultant(f, g) == resultant_at(r, 0, y) != 0


def test_resultant_matches_the_sylvester_reference_on_sparse_integer_pairs():
    rng = random.Random(32)

    def polynomial():
        lead = rng.choice((-1, 1)) * rng.randint(1, 9)
        return [lead] + [0 if rng.random() < 0.3 else rng.randint(-9, 9) for _ in range(rng.randint(1, 10))]

    for _ in range(3000):
        f, g = polynomial(), polynomial()
        assert exact.resultant(f, g) == sylvester_resultant(f, g), (f, g)


def test_resultant_vanishes_on_envelope_points_only():
    # Near (but off) the envelope the resultant is comfortably nonzero; on
    # rational snapshots of envelope points it is smaller by many orders,
    # normalised against an off-curve companion at the same scale.
    r = 0.5
    cut_angle = math.acos(switching_cosine(r))
    count = 0
    thetas = [cut_angle + (math.pi - 2 * cut_angle) * k / 51.0 for k in range(1, 51)]
    points = envelope_points(np.array(thetas), r)
    for x_float, y_float in zip(points.x.tolist(), points.y.tolist()):
        x = Q(x_float).limit_denominator(10**10)
        y = Q(y_float).limit_denominator(10**10)
        on_curve = abs(resultant_at(Q(1, 2), x, y))
        companion = abs(resultant_at(Q(1, 2), x + Q(1, 10), y))
        assert companion > 0
        assert float(on_curve / companion) < 1e-5
        count += 1
    assert count == 50


# ---------------------------------------------------------------------------
# Divisibility certificate
# ---------------------------------------------------------------------------


def test_certificate_succeeds_at_half():
    report = exact.verify_sextic_resultant_identity(Q(1, 2), seed=1)
    assert report.success
    assert not report.holdout_failures
    assert report.cofactor
    assert report.cofactor_total_degree <= 28
    # sample budget: at least 25% beyond the fitting-space dimension
    assert report.to_json_dict()["sample_count"] >= (29 * 30 // 2) * 5 // 4


def test_certificate_cofactor_degree_stable_across_radii():
    degrees = set()
    for r in (Q(1, 2), Q(1, 3)):
        report = exact.verify_sextic_resultant_identity(r, seed=1)
        assert report.success
        degrees.add(report.cofactor_total_degree)
    assert len(degrees) == 1


def test_certificate_detects_single_coefficient_mutation():
    report = exact.verify_sextic_resultant_identity(Q(1, 2), seed=1, mutate=True)
    assert not report.success
    assert report.holdout_failures
    assert all(res != 0 for (_, _, res) in report.holdout_failures)


def test_certificate_report_serializes():
    report = exact.verify_sextic_resultant_identity(Q(1, 2), seed=3)
    payload = report.to_json_dict()
    assert payload["success"] is True
    assert payload["r"] == "1/2"
    text = report.to_text()
    assert "cofactor degree" in text


def test_certificate_rejects_degenerate_radius():
    with pytest.raises(ValueError):
        exact.verify_sextic_resultant_identity(0)


CERTIFIED_RADII = [Q(1, 2), Q(1, 3), Q(2), Q(-1, 2), Q(1, 1000), Q(1000), Q(355, 113)]


@pytest.mark.parametrize("r", CERTIFIED_RADII, ids=str)
def test_certificate_holds_and_mutation_fails_across_radii(r):
    report = exact.verify_sextic_resultant_identity(r, seed=1)
    assert report.success and not report.holdout_failures
    assert report.cofactor_total_degree <= 28
    mutated = exact.verify_sextic_resultant_identity(r, seed=1, mutate=True)
    assert not mutated.success
    assert mutated.holdout_failures
    assert all(res != 0 for (_, _, res) in mutated.holdout_failures)


def _exact_route(r, seed, mutate=False):
    """The certificate with the whole fitting stage in exact rational arithmetic: the reference.

    Along each section y = y_k the section polynomial Res(x, y_k) is recovered
    by exact Newton interpolation in x, through all the abscissae 0 and
    +-x_magnitudes with Res taken at each (the evenness of Res is not used),
    and divided exactly by the sextic section in x.  A nonzero remainder ends
    the run with the section residuals at up to 8 held-out abscissae.
    """
    cert = exact._Certificate(r, seed, mutate)
    sextic = exact.mutated_sextic() if mutate else exact.sextic_polynomial()
    bound = exact._DEGREE_BOUND
    xs = [-x for x in reversed(cert.x_magnitudes[1:])] + cert.x_magnitudes
    assert len(xs) == len(set(xs)) == bound + 9
    section_quotients = []
    for y, in_u in zip(cert.ys, cert.sections):
        values = [resultant_at(cert.r, x, y) for x in xs]
        res_section = exact._newton_interpolate(xs, values)
        # E(x^2, y^2, r) in x: the coefficient of u^i at x^(2i).
        in_x = [Q(0)] * (2 * len(in_u) - 1)
        in_x[::2] = in_u
        quot, rem = exact._divide_univariate(res_section, in_x)
        if rem:
            # Fitting system Res = E * C is inconsistent on this section;
            # report residuals of the divided quotient at held-out abscissae.
            quotient = exact.ExactPoly(("x",), {(i,): c for i, c in enumerate(quot)})
            failures = []
            for xh in cert.draws[:8]:
                quot_h = quotient.evaluate({"x": xh})
                sextic_h = sextic.evaluate({"u": xh * xh, "v": y * y, "r": cert.r})
                failures.append((xh, y, resultant_at(cert.r, xh, y) - sextic_h * quot_h))
            return exact.ResultantReport(
                r=cert.r,
                holdout_count=len(failures),
                seed=cert.seed,
                success=False,
                holdout_failures=[f for f in failures if f[2] != 0],
                failure_reason=(
                    f"fitting system inconsistent: section y = {y} leaves a "
                    f"degree-{len(rem) - 1} remainder under exact division"
                ),
            )
        assert len(quot) == bound + 1
        section_quotients.append(quot)

    # Interpolate each x-power across the y sections into the cofactor.
    terms: dict = {}
    for i in range(bound + 1):
        coeffs_y = exact._newton_interpolate(cert.ys, [q[i] for q in section_quotients])
        for j, c in enumerate(coeffs_y):
            terms[(i, j)] = c
    return cert.conclude(terms)


def test_modular_fitting_reports_what_the_exact_route_reports(monkeypatch):
    calls = []
    resultant = exact.resultant
    monkeypatch.setattr(exact, "resultant", lambda f, g: calls.append(1) or resultant(f, g))
    fast = exact.verify_sextic_resultant_identity(Q(1, 2), seed=1)
    assert len(calls) == 64  # the held-out points only
    monkeypatch.undo()
    slow = _exact_route(Q(1, 2), 1)
    assert fast.to_json_dict() == slow.to_json_dict()
    assert fast.to_text() == slow.to_text()

    # A section that does not divide modulo the first prime is recomputed
    # exactly at once: one section at its 19 distinct |x|, then 8 residuals.
    calls.clear()
    monkeypatch.setattr(exact, "resultant", lambda f, g: calls.append(1) or resultant(f, g))
    fast = exact.verify_sextic_resultant_identity(Q(1, 2), seed=9, mutate=True)
    assert len(calls) == 19 + 8
    monkeypatch.undo()
    assert fast.to_json_dict() == _exact_route(Q(1, 2), 9, True).to_json_dict()


@pytest.mark.parametrize(
    "r, bound", [(Q(1, 2), 28), (Q(1, 3), 28), (Q(2), 28), (Q(1, 2), 10), (Q(355, 113), 14)], ids=str
)
@pytest.mark.parametrize("seed", [1, 2, 5])
def test_a_section_failure_is_the_one_the_exact_route_reports(monkeypatch, r, bound, seed):
    # The mutated sextic fails on the certificate's grid; the true one fails
    # only on a grid too small for Res, that of a degree bound of 10 or 14.
    monkeypatch.setattr(exact, "_DEGREE_BOUND", bound)
    mutate = bound == 28
    fast = exact.verify_sextic_resultant_identity(r, seed, mutate)
    assert not fast.success and fast.failure_reason.startswith("fitting system inconsistent")
    assert fast.to_json_dict() == _exact_route(r, seed, mutate).to_json_dict()
    assert fast.to_json_dict()["degree_bound"] == bound


def _recorded_determinant_counts(monkeypatch):
    """The number of modular determinants of each call from now on, in order."""
    counts = []
    determinants = exact._determinants_mod
    monkeypatch.setattr(
        exact, "_determinants_mod", lambda mats, p: counts.append(mats.shape[-1]) or determinants(mats, p)
    )
    return counts


def test_one_prime_takes_the_determinants_at_the_distinct_abscissae_only(monkeypatch):
    # Res is even in x: 19 distinct |x| per section, 29 sections, in one call per prime.
    calls = _recorded_determinant_counts(monkeypatch)
    cert = exact._Certificate(Q(1, 2), 1)
    exact._cofactor_mod(cert, PRIMES[0])
    assert calls == [19 * 29] == [551]


def test_a_failing_section_ends_the_modular_fit_at_the_first_prime(monkeypatch):
    # The mutated sextic leaves a remainder in the first section, so the
    # first prime's one pass ends the fit there.
    calls = _recorded_determinant_counts(monkeypatch)
    primes = _recorded_primes(monkeypatch)
    for r, seed in ((Q(1, 2), 1), (Q(355, 113), 3), (Q(1, 3), 9)):
        calls.clear()
        primes.clear()
        cert = exact._Certificate(r, seed, mutate=True)
        with pytest.raises(exact._Indivisible) as failure:
            next(exact._settled_fits(cert))
        assert calls == [551] and len(primes) == 1
        assert cert.ys[failure.value.args[0]] == cert.ys[0]


def _recorded_primes(monkeypatch):
    """The primes the modular fit takes from now on, in order."""
    primes = []
    cofactor_mod = exact._cofactor_mod
    monkeypatch.setattr(
        exact, "_cofactor_mod", lambda cert, p: primes.append(p) or cofactor_mod(cert, p)
    )
    return primes


def test_a_wrong_settled_fit_is_refitted_with_more_primes(monkeypatch):
    fits = exact._settled_fits

    def corrupted(cert):
        settled = fits(cert)
        terms = next(settled)
        yield {**terms, (0, 0): terms[(0, 0)] + 1}
        yield from settled

    primes = _recorded_primes(monkeypatch)
    clean = exact.verify_sextic_resultant_identity(Q(1, 3), seed=2)
    settled = len(primes)
    primes.clear()
    monkeypatch.setattr(exact, "_settled_fits", corrupted)
    report = exact.verify_sextic_resultant_identity(Q(1, 3), seed=2)
    assert report.success
    assert report.to_json_dict() == clean.to_json_dict()
    assert report.to_text() == clean.to_text()
    # The corrupted fit is rejected; the next prime settles on the true terms.
    assert len(primes) == settled + 1


def test_a_rejected_fit_that_settles_again_on_the_same_terms_stands(monkeypatch):
    primes = _recorded_primes(monkeypatch)
    clean = exact.verify_sextic_resultant_identity(Q(1, 3), seed=2)
    settled = len(primes)
    primes.clear()
    concluded = []

    def rejected(cert, terms):
        concluded.append(terms)
        return exact.ResultantReport(
            r=cert.r, holdout_count=exact._HOLDOUT, seed=cert.seed, success=False, failure_reason="rejected"
        )

    monkeypatch.setattr(exact._Certificate, "conclude", rejected)
    # A bounded supply of primes turns a run that would not stop into a failure.
    primes_on_demand = exact._primes
    monkeypatch.setattr(exact, "_primes", lambda: itertools.islice(primes_on_demand(), settled + 5))
    report = exact.verify_sextic_resultant_identity(Q(1, 3), seed=2)
    assert not report.success and report.failure_reason == "rejected"
    # One more prime settles on the same terms, which are not concluded again.
    assert len(primes) == settled + 1
    assert len(concluded) == 1
    assert exact.ExactPoly(("x", "y"), concluded[0]).terms == clean.cofactor


def test_primes_on_demand_start_with_the_old_table():
    assert tuple(itertools.islice(exact._primes(), len(PRIMES))) == PRIMES


def test_primes_on_demand_agree_with_trial_division():
    limit = math.isqrt(2**31)
    sieve = bytearray([1]) * (limit + 1)
    sieve[:2] = b"\0\0"
    for n in range(2, math.isqrt(limit) + 1):
        if sieve[n]:
            sieve[n * n :: n] = bytes(len(range(n * n, limit + 1, n)))
    small = [n for n in range(limit + 1) if sieve[n]]
    want = []
    for n in range(2**31 - 1, 2**30, -2):
        if all(n % q for q in small):
            want.append(n)
            if len(want) == 300:
                break
    assert list(itertools.islice(exact._primes(), 300)) == want


def test_a_127_bit_radius_pair_certifies_past_the_old_table(monkeypatch):
    r = Q(2**127 - 1, 2**127 - 3)
    primes = _recorded_primes(monkeypatch)
    report = exact.verify_sextic_resultant_identity(r, seed=1)
    assert report.success and not report.holdout_failures
    assert len(primes) > len(PRIMES)
    assert primes[: len(PRIMES)] == list(PRIMES)


def test_modular_bezout_block_matches_exact_resultants(monkeypatch):
    # The one _resultants_mod call of a _cofactor_mod call: its mod-p Bezout
    # values are the exact resultants at the grid points, reduced modulo p.
    cert = exact._Certificate(Q(1, 2), 1)
    calls = []
    resultants = exact._resultants_mod
    monkeypatch.setattr(
        exact, "_resultants_mod", lambda coeffs, p: calls.append(resultants(coeffs, p)) or calls[-1]
    )
    p = PRIMES[0]
    assert exact._cofactor_mod(cert, p) is not None
    (values,) = calls
    assert values.shape == (len(cert.ys), len(cert.x_magnitudes)) == (29, 19)
    # At every section and distinct |x|, each value is the exact resultant there.
    want = [[exact._residue(resultant_at(cert.r, x, y), p) for x in cert.x_magnitudes] for y in cert.ys]
    assert values.tolist() == want


def test_certificate_skips_a_prime_dividing_the_radius_numerator(monkeypatch):
    # The Bezout resultants divide by lc(f)^2 = r^4, so r must be a unit.
    primes = _recorded_primes(monkeypatch)
    report = exact.verify_sextic_resultant_identity(Q(PRIMES[0]), seed=1)
    assert report.success
    assert primes[0] == PRIMES[1] and PRIMES[0] not in primes


def test_certificate_skips_a_prime_dividing_the_radius_denominator(monkeypatch):
    primes = _recorded_primes(monkeypatch)
    report = exact.verify_sextic_resultant_identity(Q(1, PRIMES[0]), seed=1)
    assert report.success
    assert primes[0] == PRIMES[1] and PRIMES[0] not in primes


def test_small_primes_that_would_merge_nodes_are_skipped(monkeypatch):
    # 7, 11 and 13 are the possible sample denominators, and each divides a
    # difference of two abscissae or of two sections, so none is a unit there.
    clean = exact.verify_sextic_resultant_identity(Q(1, 2), seed=1)
    primes = _recorded_primes(monkeypatch)
    primes_on_demand = exact._primes
    monkeypatch.setattr(exact, "_primes", lambda: itertools.chain((7, 11, 13), primes_on_demand()))
    report = exact.verify_sextic_resultant_identity(Q(1, 2), seed=1)
    assert report.to_json_dict() == clean.to_json_dict() and report.to_text() == clean.to_text()
    assert primes and not {7, 11, 13} & set(primes)


def test_the_fixed_grid_covers_the_proven_degrees():
    # deg_x Res <= 28 and deg_y Res <= 20 at every r, and Res is even in x,
    # so deg_u Res <= 14 in u = x^2.  E(u, v, r) has degree 4 in u and 3 in
    # v, 6 in y, so C = Res / E has degree at most 10 in u and 14 in y.
    sextic = exact.sextic_polynomial()
    res_u, res_y = 28 // 2, 20
    sextic_u, sextic_y = sextic.degree("u"), 2 * sextic.degree("v")
    cofactor_u, cofactor_y = res_u - sextic_u, res_y - sextic_y
    assert (sextic_u, sextic_y, cofactor_u, cofactor_y) == (4, 6, 10, 14)
    assert exact._DEGREE_BOUND % 2 == 0  # 0 and pairs +-x: an odd count of abscissae
    for r in (Q(1, 2), Q(3), Q(-1, 1000)):
        cert = exact._Certificate(r, 1)
        nodes, sections = len(cert.us), len(cert.ys)
        coefficients = nodes - sextic_u  # of each section quotient
        assert (nodes, sections, coefficients) == (19, 29, 15)
        assert res_u < nodes and cofactor_y < sections and cofactor_u < coefficients
        assert len(set(cert.us)) == nodes and len(set(cert.ys)) == sections
        # The nodes are the squares of the 19 distinct |x| of 37 abscissae symmetric about 0.
        assert cert.x_magnitudes == sorted(set(cert.x_magnitudes)) and cert.x_magnitudes[0] == 0
        assert cert.us == [x * x for x in cert.x_magnitudes]
    record = exact.verify_sextic_resultant_identity(Q(1, 2), seed=1).to_json_dict()
    assert (record["degree_bound"], record["sample_count"]) == (28, 37 * 29 + exact._HOLDOUT) == (28, 1137)


def _settled_by_rereconstruction(sequence):
    """Reference stopping rule for the modular fit.

    At each prime every coefficient is reconstructed from the CRT value, and
    the fit stops when one more prime leaves all of them unchanged; the fit's
    residue test must stop at the same prime with the same terms.
    """
    combined, modulus, previous = [], 1, None
    for count, (p, residues) in enumerate(sequence, 1):
        flat = residues.ravel().tolist()
        if modulus == 1:
            combined = flat
        else:
            inverse = pow(modulus, -1, p)
            combined = [c + modulus * ((a - c % p) * inverse % p) for c, a in zip(combined, flat)]
        modulus *= p
        terms = {}
        for index, value in enumerate(combined):
            coefficient = exact._rational_reconstruct(value, modulus)
            if coefficient is None:
                terms = None
                break
            i, j = divmod(index, residues.shape[1])
            terms[(2 * i, j)] = coefficient  # row i holds the powers of u = x^2
        if terms is not None and terms == previous:
            return terms, [q for q, _ in sequence[:count]]
        previous = terms
    return None


@pytest.mark.parametrize(
    "r", [Q(1, 2), Q(1, 3), Q(2), Q(355, 113), Q(1000), Q(1, PRIMES[0])], ids=str
)
def test_modular_fit_stops_where_rereconstruction_stops(monkeypatch, r):
    sequence = []
    cofactor_mod = exact._cofactor_mod

    def recorded(cert, p):
        sequence.append((p, cofactor_mod(cert, p)))
        return sequence[-1][1]

    monkeypatch.setattr(exact, "_cofactor_mod", recorded)
    terms = next(exact._settled_fits(exact._Certificate(r, 1)))
    assert (terms, [p for p, _ in sequence]) == _settled_by_rereconstruction(sequence)
    if r.denominator == PRIMES[0]:
        assert sequence[0][0] == PRIMES[1]


# ---------------------------------------------------------------------------
# Exact point evaluation in cleared integers
# ---------------------------------------------------------------------------


def fraction_evaluate(terms, point):
    """Term-by-term Fraction evaluation with a fresh power per variable: the reference."""
    total = Q(0)
    for expo, coeff in terms.items():
        term = Q(coeff)
        for base, power in zip(point, expo):
            if power:
                term *= Q(base) ** power
        total += term
    return total


def _rationals(seed, count):
    rng = random.Random(seed)
    values = [Q(0), Q(1), Q(-1), Q(7), Q(-999), Q(1, 999), Q(-998, 997), Q(999, 998)]
    for _ in range(count):
        den = rng.choice((1, rng.randint(1, 999), rng.randint(990, 999)))
        values.append(Q(rng.randint(-999, 999), den))
    return values


def _cleared_value(poly, point):
    terms, scale = exact._cleared_terms(poly.terms)
    (value,), den = exact._evaluate_cleared((terms,), exact._degrees((terms,), len(point)), point)
    return Q(value, scale * den)


def test_cleared_evaluator_matches_the_reference_on_the_system_coefficients():
    values = _rationals(11, 24)
    rng = random.Random(12)
    first, second = exact.envelope_system()
    up = [c for p in (first, second) for c in reversed(p.univariate_coefficients("t"))]
    terms, degrees, f_count = exact._system()
    assert f_count == len(first.univariate_coefficients("t")) == 11
    assert [c.terms for c in up] == list(terms)
    for _ in range(60):
        point = tuple(rng.choice(values) for _ in range(3))
        sums, den = exact._evaluate_cleared(terms, degrees, point)
        want = [fraction_evaluate(c.terms, point) for c in up]
        assert [Q(s, den) for s in sums] == want
        assert [c.evaluate(dict(zip(("r", "x", "y"), point))) for c in up] == want
        if point[0]:
            f, g = want[:f_count], want[f_count:]
            assert Q(*exact._system_resultant(*point)) == exact.resultant(f, g)


@pytest.mark.parametrize("mutated", [False, True], ids=["sextic", "mutated"])
def test_cleared_evaluator_matches_the_reference_on_the_sextic(mutated):
    sextic = exact.mutated_sextic() if mutated else exact.sextic_polynomial()
    values = _rationals(13, 16)
    for r in (Q(1, 2), Q(-998, 997), Q(1000), Q(7)):
        cert = exact._Certificate(r, 1, mutated)
        for y, section in zip(cert.ys, cert.sections):
            want_section = []
            for i in range(sextic.degree("u") + 1):
                row = {e: c for e, c in sextic.terms.items() if e[0] == i}
                want_section.append(fraction_evaluate(row, (1, y * y, r)))
            assert section == want_section
        for x in values:
            for y in values[::3]:
                want = fraction_evaluate(sextic.terms, (x * x, y * y, r))
                assert sextic.evaluate({"u": x * x, "v": y * y, "r": r}) == want
                assert _cleared_value(sextic, (x * x, y * y, r)) == want


def test_cleared_evaluator_matches_the_reference_on_a_fitted_cofactor():
    terms = exact.verify_sextic_resultant_identity(Q(355, 113), seed=2).cofactor
    cofactor = exact.ExactPoly(("x", "y"), terms)
    assert any(c.denominator > 1 for c in terms.values())
    values = _rationals(14, 20)
    for x in values:
        for y in values[::2]:
            want = fraction_evaluate(terms, (x, y))
            assert _cleared_value(cofactor, (x, y)) == want
            assert cofactor.evaluate({"x": x, "y": y}) == want


def _reference_residuals(r, sextic, terms, points):
    """(x, y, Res - E C) at each point where it is nonzero, over Fraction reference values."""
    system, _, split = exact._system()
    failures = []
    for x, y in points:
        values = [fraction_evaluate(c, (r, x, y)) for c in system]
        f, g = values[:split], values[split:]
        residual = exact.resultant(f, g) - fraction_evaluate(
            sextic.terms, (x * x, y * y, r)
        ) * fraction_evaluate(terms, (x, y))
        if residual:
            failures.append((x, y, residual))
    return failures


def _reference_failures(cert, terms):
    """conclude's held-out loop over Fraction reference values."""
    draws = cert.draws
    return _reference_residuals(cert.r, exact.sextic_polynomial(), terms, zip(draws[::2], draws[1::2]))


@pytest.mark.parametrize(
    "r, key, delta", [(Q(1, 2), (0, 0), Q(1)), (Q(355, 113), (4, 6), Q(-1, 7))], ids=["half", "355/113"]
)
def test_a_perturbed_cofactor_fails_at_the_reference_points(r, key, delta):
    cert = exact._Certificate(r, 1)
    terms = next(exact._settled_fits(cert))
    assert not cert.conclude(terms).holdout_failures
    perturbed = {**terms, key: terms[key] + delta}
    report = cert.conclude(perturbed)
    want = _reference_failures(cert, perturbed)
    assert len(want) == exact._HOLDOUT
    assert not report.success
    assert report.holdout_failures == want
    assert report.failure_reason == "64 held-out residuals are nonzero"
    # The text report lists the first 10 residuals and counts the rest.
    lines = report.to_text().split("\n")
    assert [line.startswith("    nonzero residual at (") for line in lines[-11:]] == [True] * 10 + [False]
    assert lines[-1] == "    ... 54 more"


@pytest.mark.parametrize("r", [Q(1, 2), Q(-998, 997)], ids=str)
def test_residuals_match_the_fraction_reference(r):
    # A two-variable cofactor, the settled one perturbed in an even and an
    # odd term, and the true one, whose residuals all vanish.
    xs, ys = _rationals(15, 8), _rationals(16, 8)
    points = list(zip(xs, ys[::-1]))
    cert = exact._Certificate(r, 1)
    terms = next(exact._settled_fits(cert))
    perturbed = {**terms, (4, 6): terms[(4, 6)] + Q(-1, 7), (1, 3): Q(2, 5)}
    want = _reference_residuals(r, exact.sextic_polynomial(), perturbed, points)
    assert len(want) > len(points) // 2
    assert cert.residuals(perturbed, points) == want
    assert cert.residuals(terms, points) == []
    # A section quotient {(2i, 0): q_i} of the mutated sextic, which leaves a
    # remainder, at abscissae along its section and off it.
    mutated = exact._Certificate(r, 1, mutate=True)
    y = mutated.ys[0]
    values = [resultant_at(r, x, y) for x in mutated.x_magnitudes]
    quot, rem = exact._divide_univariate(exact._newton_interpolate(mutated.us, values), mutated.sections[0])
    assert rem
    quotient = {(2 * i, 0): c for i, c in enumerate(quot)}
    points = [(x, y) for x in xs] + points
    want = _reference_residuals(r, exact.mutated_sextic(), quotient, points)
    assert len(want) > len(points) // 2
    assert mutated.residuals(quotient, points) == want


def test_a_cofactor_above_the_degree_bound_fails_with_zero_residuals():
    # P(x) = prod (x - x_i) over the held-out abscissae vanishes at every
    # held-out point, so C + P leaves every residual at 0 with degree 64.
    cert = exact._Certificate(Q(1, 2), 1)
    terms = next(exact._settled_fits(cert))
    product = [Q(1)]  # ascending coefficients
    for x in cert.draws[::2]:
        product = [a - x * b for a, b in zip([Q(0)] + product, product + [Q(0)])]
    raised = dict(terms)
    for i, c in enumerate(product):
        raised[(i, 0)] = raised.get((i, 0), 0) + c
    report = cert.conclude(raised)
    assert not report.success
    assert report.holdout_failures == []
    assert report.cofactor is None and report.cofactor_total_degree == 64
    assert report.failure_reason == "interpolated cofactor has total degree 64 > bound 28"


# ---------------------------------------------------------------------------
# Modular primitives
# ---------------------------------------------------------------------------


def _determinant_cases(rng, n):
    def entry():
        return rng.randint(-40, 40)

    cases = [[[entry() for _ in range(n)] for _ in range(n)] for _ in range(6)]
    # Row-permuted upper triangular: zero pivots that only a row swap clears.
    triangle = [[entry() if j > i else (rng.randint(1, 40) if j == i else 0) for j in range(n)] for i in range(n)]
    order = list(range(n))
    rng.shuffle(order)
    cases.append([triangle[i] for i in order])
    cases.append([row[::-1] for row in triangle])
    if n > 1:
        repeated = [[entry() for _ in range(n)] for _ in range(n)]
        repeated[-1] = list(repeated[0])  # singular: two equal rows
        cases.append(repeated)
        zero_column = [[entry() if j != n // 2 else 0 for j in range(n)] for _ in range(n)]
        cases.append(zero_column)  # singular: no pivot in one column
    return cases


@pytest.mark.parametrize("p", [7, 101, PRIMES[0], PRIMES[-1]])
def test_modular_determinants_match_bareiss(p):
    rng = random.Random(p)
    for n in (1, 2, 3, 5, 8, 18):
        cases = _determinant_cases(rng, n)
        # Stacked along the last axis: entry [i, j] of every matrix is one row.
        stack = np.moveaxis(np.array(cases, dtype=np.int64), 0, -1) % p
        got = exact._determinants_mod(stack, p).tolist()
        assert got == [bareiss_determinant(rows) % p for rows in cases], n


def test_modular_newton_matches_exact_interpolation():
    p = PRIMES[3]
    nodes = [Q(k - 4) + Q(3, 11) for k in range(9)]
    rng = random.Random(4)
    rows = [[Q(rng.randint(-99, 99), rng.randint(1, 9)) for _ in nodes] for _ in range(3)]
    residues = np.array([[exact._residue(v, p) for v in row] for row in rows], np.int64)
    got = exact._newton_mod(residues, [exact._residue(x, p) for x in nodes], p).tolist()
    want = [[exact._residue(c, p) for c in exact._newton_interpolate(nodes, row)] for row in rows]
    assert got == want


def test_modular_newton_refuses_nodes_equal_modulo_p():
    # Q(1, 2) and Q(1 + p, 2) are distinct rationals with one residue.
    p = PRIMES[3]
    nodes = [exact._residue(x, p) for x in (Q(1, 2), Q(3), Q(1 + p, 2))]
    with pytest.raises(ZeroDivisionError):
        exact._newton_mod(np.ones((1, 3), np.int64), nodes, p)


def test_modular_division_refuses_a_sextic_section_leading_coefficient_of_zero_modulo_p():
    # _settled_fits skips such primes; the division must not divide by 0.
    p = PRIMES[0]
    cert = exact._Certificate(Q(1, 2), 1)
    cert.sections[5][-1] = Q(p)
    with pytest.raises(ZeroDivisionError):
        exact._cofactor_mod(cert, p)


def test_rational_reconstruction_round_trips():
    modulus = PRIMES[0] * PRIMES[1]
    rng = random.Random(3)
    values = [Q(0), Q(1), Q(-1), Q(355, 113)]
    values += [Q(rng.randint(-10**9, 10**9), rng.randint(1, 10**9)) for _ in range(200)]
    for value in values:
        residue = value.numerator * pow(value.denominator, -1, modulus) % modulus
        assert exact._rational_reconstruct(residue, modulus) == value


@pytest.mark.parametrize(
    "value",
    [Q(10**9 + 7, 10**9 + 9), Q(-123456789, 987654321), Q(355, 113) ** 6, Q(99991, 7)],
    ids=str,
)
def test_rational_reconstruction_gives_no_answer_below_the_bound(value):
    # One 31-bit prime bounds numerator and denominator by about 32767.
    p = PRIMES[0]
    residue = value.numerator * pow(value.denominator, -1, p) % p
    assert exact._rational_reconstruct(residue, p) is None


def test_rational_reconstruction_rejects_a_candidate_sharing_a_factor_with_the_modulus():
    # Euclid stops at 55 / -85 here; -11/17 is not congruent to 176 mod 15015.
    assert exact._rational_reconstruct(176, 3 * 5 * 7 * 11 * 13) is None


def test_rational_reconstruction_below_the_bound_can_mislead():
    # Why one more prime must agree and the held-out check has the last word.
    p = PRIMES[0]
    value = Q(2**40 + 1, 3**20)
    residue = value.numerator * pow(value.denominator, -1, p) % p
    assert exact._rational_reconstruct(residue, p) == Q(8115, 21211)


# ---------------------------------------------------------------------------
# The identity at r = 1/2 on a tensor grid
# ---------------------------------------------------------------------------


def test_certified_cofactor_proves_the_identity_at_half_on_a_tensor_grid():
    # Res has degree <= 28 in x and <= 20 in y, and E(x^2, y^2, 1/2) exactly
    # 8 and 6 (verify_sextic_resultant_identity), so with the cofactor's
    # degrees below, Res - E C has degree <= 28 in x and <= 20 in y.  Such a
    # polynomial that vanishes on 29 x 21 distinct nodes is zero: Res = E C
    # holds in Q[x, y], not only at sample points.
    r = Q(1, 2)
    cofactor = exact.ExactPoly(("x", "y"), exact.verify_sextic_resultant_identity(r, seed=1).cofactor)
    assert cofactor.degree("x") <= 20 and cofactor.degree("y") <= 14
    sextic, mutated = exact.sextic_polynomial(), exact.mutated_sextic()
    failing, off_axis = [], []
    for x in (Q(i - 14, 3) for i in range(29)):
        for y in (Q(j - 10, 4) for j in range(21)):
            res = resultant_at(r, x, y)
            cof = cofactor.evaluate({"x": x, "y": y})
            point = {"u": x * x, "v": y * y, "r": r}
            assert res == sextic.evaluate(point) * cof, (x, y)
            if res != mutated.evaluate(point) * cof:
                failing.append((x, y))
            if x and cof:
                off_axis.append((x, y))
    # The mutation adds u^2 r^6 to E, so it leaves the residual -x^4 r^6 C:
    # the grid rejects it wherever x and C are nonzero.
    assert failing == off_axis and len(failing) > 29 * 21 // 2
