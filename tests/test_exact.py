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


def test_a_scalar_minus_a_polynomial_is_a_polynomial():
    (t,) = exact.ExactPoly.generators(("t",))
    assert 1 - t**2 == -(t**2) + 1
    assert Q(1, 2) - t == -(t - Q(1, 2))
    assert (1 - t).evaluate({"t": 3}) == -2
    with pytest.raises(TypeError):
        1.5 - t


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


def _envelope_parametrisation():
    """The witness point of :func:`_sextic_witness` as ((N_x, D_x), (N_y, D_y), (N_r, D_r)) in Z[t, k].

    By hand from x = p c - p' s, y = p s + p' c and r = s (k - 1/k) / 2:
    x = (1 - t^2)(k^4 + 1) / ((1 + t^2) k (k^2 + 1)),
    y = (4t^2 (k^2 + 1)^2 - (k^2 - 1)^2 (1 - t^2)^2) / (4tk (k^2 + 1)(1 + t^2)) and
    r = t (k^2 - 1) / (k (1 + t^2)).
    """
    t, k = exact.ExactPoly.generators(("t", "k"))
    one = exact.ExactPoly.constant(("t", "k"), 1)
    return (
        ((one - t**2) * (k**4 + 1), (t**2 + 1) * k * (k**2 + 1)),
        (4 * t**2 * (k**2 + 1) ** 2 - (k**2 - 1) ** 2 * (one - t**2) ** 2, 4 * t * k * (k**2 + 1) * (t**2 + 1)),
        (t * (k**2 - 1), k * (t**2 + 1)),
    )


def _cleared_on_the_parametrisation(sextic):
    """The numerator of E(x^2, y^2, r) on the parametrisation: E times D_x^8 D_y^6 D_r^6, in Z[t, k]."""
    (nx, dx), (ny, dy), (nr, dr) = _envelope_parametrisation()
    deg_u, deg_v, deg_r = (sextic.degree(v) for v in sextic.variables)
    xs = [nx ** (2 * a) * dx ** (2 * (deg_u - a)) for a in range(deg_u + 1)]
    ys = [ny ** (2 * b) * dy ** (2 * (deg_v - b)) for b in range(deg_v + 1)]
    rs = [nr**i * dr ** (deg_r - i) for i in range(deg_r + 1)]
    zero = exact.ExactPoly(("t", "k"), {})
    total = zero
    for a, x_part in enumerate(xs):
        inner = zero
        for b, y_part in enumerate(ys):
            in_r = sum((c * rs[i] for (a_, b_, i), c in sextic.terms.items() if (a_, b_) == (a, b)), zero)
            inner = inner + y_part * in_r
        total = total + x_part * inner
    return total


def test_the_sextic_vanishes_on_the_envelope_parametrisation_for_every_t_and_k():
    # The hand-derived forms are the witness points, exactly.
    for t, k in [(Q(1, 2), Q(2)), (Q(2, 3), Q(3, 2)), (Q(-3, 7), Q(5, 4)), (Q(7, 2), Q(-1, 3))]:
        r, _, x, y = _sextic_witness(t, k)
        point = {"t": t, "k": k}
        assert [n.evaluate(point) / d.evaluate(point) for n, d in _envelope_parametrisation()] == [x, y, r]
    # E has degrees 4, 3 and 6 in u, v and r, so the cleared numerator is a
    # polynomial, and it is zero: the sextic holds every envelope point of the
    # parametrisation, not only the witnesses.
    sextic, mutated = exact.sextic_polynomial(), exact.mutated_sextic()
    assert [sextic.degree(v) for v in sextic.variables] == [4, 3, 6]
    assert _cleared_on_the_parametrisation(sextic) == 0
    left = _cleared_on_the_parametrisation(mutated)
    assert (len(left.terms), left.degree("t"), left.degree("k")) == (375, 40, 58)


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

    The reference that the resultants are checked against.  Intermediate
    entries stay in the ring of the entries by Bareiss' identity, so each
    step's division by the previous pivot is exact: an all-int matrix runs a
    checked integer division inline, and any other matrix divides in Q.
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
    return Q(*exact._system_resultant(exact._folded_system(Q(r)), Q(x), Q(y)))


def t_coefficients(r, x, y):
    """f's and g's coefficients at an exact point, each descending in t: the 10 x 8 route.

    Each is taken term by term in Fractions (``fraction_evaluate``), apart
    from the cleared evaluator and from the tables in z of ``exact._system``.
    """
    return [
        [fraction_evaluate(c.terms, (r, x, y)) for c in reversed(p.univariate_coefficients("t"))]
        for p in exact.envelope_system()
    ]


@pytest.mark.parametrize("r", [Q(1, 2), Q(355, 113), Q(2**127 - 1, 2**127 - 3)], ids=str)
def test_the_resultant_is_even_in_x(r):
    # The certificate takes Res at the distinct |x| only and fits it in x^2.
    points = [(Q(1), Q(0)), (Q(2, 3), Q(5, 7)), (Q(-999, 998), Q(1, 999)), (Q(12, 13), Q(-40, 3))]
    for x, y in points:
        value = resultant_at(r, x, y)
        assert value != 0 and resultant_at(r, -x, y) == value


def sylvester_matrix(f, g):
    """Sylvester matrix of two coefficient sequences (descending degree).

    The reference the resultants are checked against: for deg f = m and
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
    f, g = t_coefficients(r, Q(0), y)
    assert not any(f[1::2]) and not any(g[1::2])
    assert exact.resultant(f, g) == sylvester_resultant(f, g) == resultant_at(r, 0, y) != 0


def _sparse_integer_polynomial(rng):
    """Integer coefficients of degree 1 to 10, about 30% of them zero, nonzero leading one."""
    lead = rng.choice((-1, 1)) * rng.randint(1, 9)
    return [lead] + [0 if rng.random() < 0.3 else rng.randint(-9, 9) for _ in range(rng.randint(1, 10))]


def test_resultant_matches_the_sylvester_reference_on_sparse_integer_pairs():
    rng = random.Random(32)
    for _ in range(3000):
        f, g = _sparse_integer_polynomial(rng), _sparse_integer_polynomial(rng)
        assert exact.resultant(f, g) == sylvester_resultant(f, g), (f, g)


def test_the_resultant_of_integer_vectors_takes_no_fraction():
    # All-integer pairs, the certificate's, skip the clearing: the value is an
    # int, and it is what the Fraction path gives for the same pair as
    # Fractions and, scaled back, for the pair scaled by rationals s and t:
    # Res(s f, t g) = s^n t^m Res(f, g) for deg f = m and deg g = n.  The
    # pairs are the all-integer abnormal ones and 300 sparse-integer ones.
    rng = random.Random(40)
    pairs = [(f, g) for f, g in ABNORMAL_PAIRS.values() if all(type(c) is int for c in f + g)]
    pairs += [(_sparse_integer_polynomial(rng), _sparse_integer_polynomial(rng)) for _ in range(300)]
    s, t = Q(3, 7), Q(-5, 2)
    for f, g in pairs:
        value = exact.resultant(f, g)
        assert type(value) is int and value == sylvester_resultant(f, g), (f, g)
        assert exact.resultant([Q(c) for c in f], g) == value
        m, n = len(f) - 1, len(g) - 1
        scaled = exact.resultant([s * c for c in f], [t * c for c in g])
        assert scaled == s**n * t**m * value and (scaled == 0) == (value == 0), (f, g)


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
# The elimination in z = t - 1/t
# ---------------------------------------------------------------------------


def test_the_tables_in_z_rebuild_the_elimination_system():
    # f = t^5 F(t - 1/t) = sum_j F_j (t^2 - 1)^j t^(5 - j), and g = t^4 G(t - 1/t) likewise.
    t, r, x, y = exact.ExactPoly.generators(("t", "r", "x", "y"))
    terms, _, split = exact._system()
    lifted = [exact.ExactPoly(("t", "r", "x", "y"), {(0, *e): c for e, c in table.items()}) for table in terms]
    in_z = lifted[:split], lifted[split:]
    for p, coefficients in zip(exact.envelope_system(), in_z):
        h = len(coefficients) - 1
        terms = (c * (t**2 - 1) ** j * t ** (h - j) for j, c in zip(range(h, -1, -1), coefficients))
        assert sum(terms, 0) == p and p.degree("t") == 2 * h
    assert in_z == (
        [-(r**2), 0, -8 * r**2, 8 * x * y, 16 * (x**2 - y**2 - r**2), -32 * x * y],
        [-(r**2), 0, 4 * x**2 - 8 * r**2 - 4, -16 * x * y, 16 * (y**2 - r**2 - 1)],
    )


def test_a_system_without_the_symmetry_under_t_to_minus_one_over_t_raises(monkeypatch):
    assert exact._system.__wrapped__() == exact._system()
    first, second = exact.envelope_system()
    t = exact.ExactPoly.generators(("t", "r", "x", "y"))[0]
    # a term of t^10 f(-1/t) + f(t); t^8 alone of g's pair t^8, 1; an odd degree
    for pair in [(first + t, second), (first, second + t**8), (first, t * second)]:
        monkeypatch.setattr(exact, "envelope_system", lambda: pair)
        with pytest.raises(ValueError, match="not t\\^h P"):
            exact._system.__wrapped__()


def _halving_points():
    """The x = 0 witnesses, x = y = 0, and 65 seeded points at five radii, negative coordinates included."""
    points = [(Q(1, 2), Q(0), Q(5, 7)), (Q(355, 113), Q(0), Q(-180, 13)), (Q(2**127 - 1, 2**127 - 3), Q(0), Q(-3, 11))]
    points += [(Q(1, 2), Q(0), Q(0)), (Q(-7, 3), Q(0), Q(0))]
    rng = random.Random(39)
    for r in (Q(1, 2), Q(-7, 3), Q(355, 113), Q(1, 1000), Q(2**127 - 1, 2**127 - 3)):
        for _ in range(13):
            x, y = (Q(rng.randint(-999, 999), rng.randint(1, 999)) for _ in range(2))
            points.append((r, x, y))
    return points


def test_the_resultant_in_z_squared_is_the_resultant_in_t(monkeypatch):
    points = _halving_points()
    want = [exact.resultant(*t_coefficients(*point)) for point in points]
    assert [w == 0 for w in want] == [x == y == 0 for _, x, y in points]
    assert [point for point, w in zip(points, want) if resultant_at(*point) != w] == []
    # Every system with one term of one table in z doubled is caught.
    terms, degrees, split = exact._system()
    for k, table in enumerate(terms):
        for expo in table:
            doubled = (*terms[:k], {**table, expo: 2 * table[expo]}, *terms[k + 1 :])
            monkeypatch.setattr(exact, "_system", lambda: (doubled, degrees, split))
            assert any(resultant_at(*point) != w for point, w in zip(points, want)), (k, expo)
            # and through a whole certificate, which folds the tables it finds
            assert not exact.verify_sextic_resultant_identity(Q(1, 2), seed=1).success, (k, expo)


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
    """The certificate fitted in exact rational arithmetic from the whole grid: the reference.

    Along each section y = y_k the section polynomial Res(x, y_k) is recovered
    by exact Newton interpolation in x, through all the abscissae 0 and
    +-x_magnitudes with Res taken at each (the evenness of Res is not used),
    and divided exactly by the sextic section in x.  A nonzero remainder ends
    the run with the section residuals at up to 8 held-out abscissae.
    """
    cert = exact._Certificate(r, seed, mutate)
    sextic = exact.mutated_sextic() if mutate else exact.sextic_polynomial()
    system = exact._folded_system(cert.r)

    def resultant_at_r(x, y):
        return Q(*exact._system_resultant(system, x, y))

    bound = exact._DEGREE_BOUND
    xs = [-x for x in reversed(cert.x_magnitudes[1:])] + cert.x_magnitudes
    assert len(xs) == len(set(xs)) == bound + 9
    section_quotients = []
    for y in cert.ys:
        in_u = cert.section(y)
        values = [resultant_at_r(x, y) for x in xs]
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
                failures.append((xh, y, resultant_at_r(xh, y) - sextic_h * quot_h))
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


def _counted_resultants(monkeypatch):
    """A list that grows by one at every call of exact.resultant from now on."""
    calls = []
    resultant = exact.resultant
    monkeypatch.setattr(exact, "resultant", lambda f, g: calls.append(1) or resultant(f, g))
    return calls


def test_the_certificate_reports_what_the_exact_route_reports(monkeypatch):
    calls = _counted_resultants(monkeypatch)
    fast = exact.verify_sextic_resultant_identity(Q(1, 2), seed=1)
    assert len(calls) == 64  # the held-out points only
    monkeypatch.undo()
    slow = _exact_route(Q(1, 2), 1)
    assert fast.to_json_dict() == slow.to_json_dict()
    assert fast.to_text() == slow.to_text()

    # The mutated sextic's candidate fails at the first held-out point; then
    # the first section, which does not divide, is taken at its 19 distinct
    # |x|, and its report at 8 held-out abscissae.
    calls = _counted_resultants(monkeypatch)
    fast = exact.verify_sextic_resultant_identity(Q(1, 2), seed=9, mutate=True)
    assert len(calls) == 1 + 19 + 8
    monkeypatch.undo()
    assert fast.to_json_dict() == _exact_route(Q(1, 2), 9, True).to_json_dict()


def test_a_wrong_candidate_fails_at_the_held_out_points_and_no_section(monkeypatch):
    # The true sextic divides Res along every section, so a candidate with
    # one coefficient bumped is rejected by the held-out check alone.
    candidate = exact._Certificate.candidate

    def bumped(cert):
        terms = candidate(cert)
        return {**terms, (4, 6): terms[(4, 6)] + 1}

    monkeypatch.setattr(exact._Certificate, "candidate", bumped)
    calls = _counted_resultants(monkeypatch)
    report = exact.verify_sextic_resultant_identity(Q(1, 3), seed=2)
    assert not report.success and report.cofactor is None
    assert report.failure_reason == "64 held-out residuals are nonzero"
    assert report.holdout_count == len(report.holdout_failures) == 64
    # The scan took every section at its 19 distinct |x| and found none to report.
    assert len(calls) == 64 + 29 * 19


def test_a_candidate_that_passes_the_first_held_out_point_is_scanned_at_the_second(monkeypatch):
    # The mutation adds u^2 r^6 to E, so its residual -2^40 r^14 x^4 (x^2 + y^2)^4 (E + E')
    # vanishes at x = 0: with the first x draw at 0 the candidate passes the
    # first held-out point and fails the second, which starts the scan.
    init = exact._Certificate.__init__

    def first_x_at_zero(cert, *args):
        init(cert, *args)
        cert.draws[0] = Q(0)

    monkeypatch.setattr(exact._Certificate, "__init__", first_x_at_zero)
    scanned = []
    section_failure = exact._Certificate.section_failure
    monkeypatch.setattr(exact._Certificate, "section_failure", lambda cert: scanned.append(1) or section_failure(cert))
    calls = []
    system_resultant = exact._system_resultant
    monkeypatch.setattr(exact, "_system_resultant", lambda *point: calls.append(point) or system_resultant(*point))
    fast = exact.verify_sextic_resultant_identity(Q(1, 2), seed=9, mutate=True)
    assert scanned == [1]
    assert len(calls) == 1 + 1 + 19 + 8 and calls[0][1] == 0
    assert fast.failure_reason.startswith("fitting system inconsistent")
    monkeypatch.setattr(exact, "_system_resultant", system_resultant)
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


def test_the_fixed_grid_covers_the_proven_degrees():
    # deg_x Res <= 28 at every r, and Res is even in x, so deg_u Res <= 14 in
    # u = x^2: each section's 19 nodes recover Res(x, y_k) itself, and its
    # division by the sextic section, of degree 4 in u, leaves 15 quotient
    # coefficients.  The 29 sections and 1137 samples are record values.
    sextic = exact.sextic_polynomial()
    res_u = 28 // 2
    assert sextic.degree("u") == 4
    assert exact._DEGREE_BOUND % 2 == 0  # 0 and pairs +-x: an odd count of abscissae
    for r in (Q(1, 2), Q(3), Q(-1, 1000)):
        cert = exact._Certificate(r, 1)
        nodes, sections = len(cert.us), len(cert.ys)
        assert (nodes, sections, nodes - sextic.degree("u")) == (19, 29, 15)
        assert res_u < nodes
        assert len(set(cert.us)) == nodes and len(set(cert.ys)) == sections
        # The nodes are the squares of the 19 distinct |x| of 37 abscissae symmetric about 0.
        assert cert.x_magnitudes == sorted(set(cert.x_magnitudes)) and cert.x_magnitudes[0] == 0
        assert cert.us == [x * x for x in cert.x_magnitudes]
    record = exact.verify_sextic_resultant_identity(Q(1, 2), seed=1).to_json_dict()
    assert (record["degree_bound"], record["sample_count"]) == (28, 37 * 29 + exact._HOLDOUT) == (28, 1137)


def test_a_127_bit_radius_pair_certifies():
    # The closed-form candidate has no limit on the height of r.
    r = Q(2**127 - 1, 2**127 - 3)
    report = exact.verify_sextic_resultant_identity(r, seed=1)
    assert report.success and not report.holdout_failures


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


def _cleared_value(poly, x, y):
    """A polynomial in (x, y) at one point, by the certificate's per-point evaluator."""
    terms, scale = exact._cleared_terms(poly.terms)
    (value,), den = exact._evaluate_cleared((terms,), exact._degrees((terms,), 2), x, y)
    return Q(value, scale * den)


def test_cleared_evaluator_matches_the_reference_on_the_system_coefficients():
    values = _rationals(11, 24)
    rng = random.Random(12)
    terms = exact._system()[0]
    in_z = [exact.ExactPoly(("r", "x", "y"), c) for c in terms]
    for _ in range(60):
        point = r, x, y = tuple(rng.choice(values) for _ in range(3))
        system = tables, degrees, _, r_den = exact._folded_system(r)
        sums, den = exact._evaluate_cleared(tables, degrees, x, y)
        want = [fraction_evaluate(c, point) for c in terms]
        assert [Q(s, r_den * den) for s in sums] == want
        assert [c.evaluate(dict(zip(("r", "x", "y"), point))) for c in in_z] == want
        if r:
            assert Q(*exact._system_resultant(system, x, y)) == exact.resultant(*t_coefficients(*point))


@pytest.mark.parametrize("r", [Q(1, 2), Q(-7, 3), Q(-998, 997), Q(355, 113), Q(2**127 - 1, 2**127 - 3)], ids=str)
def test_the_tables_folded_at_r_are_the_system_and_the_sextic_at_r(r):
    # A certificate puts its r into the 11 tables in z and into the sextic
    # once; at every (x, y), the axes included, the folded integer tables in
    # (x, y) over their denominators are the unfolded polynomials at (r, x, y).
    terms, _, split = exact._system()
    system = tables, degrees, folded_split, r_den = exact._folded_system(r)
    assert (len(tables), folded_split) == (len(terms), split)
    assert all(len(e) == 2 and type(c) is int for table in tables for e, c in table.items())
    points = [(Q(0), Q(0)), (Q(0), Q(-5, 7)), (Q(3, 11), Q(0)), (Q(-999, 2), Q(1, 999))]
    for mutate, sextic in [(False, exact.sextic_polynomial()), (True, exact.mutated_sextic())]:
        cert = exact._Certificate(r, 1, mutate)
        assert cert.system == system
        assert all(i % 2 == j % 2 == 0 and type(c) is int for (i, j), c in cert.sextic.items())
        for x, y in points + list(zip(cert.draws[:16:2], cert.draws[1:16:2])):
            sums, den = exact._evaluate_cleared(tables, degrees, x, y)
            assert [Q(s, r_den * den) for s in sums] == [fraction_evaluate(c, (r, x, y)) for c in terms]
            (value,), den = exact._evaluate_cleared((cert.sextic,), cert.sextic_degrees, x, y)
            assert Q(value, cert.sextic_scale * den) == fraction_evaluate(sextic.terms, (x * x, y * y, r))


@pytest.mark.parametrize("mutated", [False, True], ids=["sextic", "mutated"])
def test_cleared_evaluator_matches_the_reference_on_the_sextic(mutated):
    sextic = exact.mutated_sextic() if mutated else exact.sextic_polynomial()
    values = _rationals(13, 16)
    for r in (Q(1, 2), Q(-998, 997), Q(1000), Q(7)):
        cert = exact._Certificate(r, 1, mutated)
        for y in cert.ys:
            want_section = []
            for i in range(sextic.degree("u") + 1):
                row = {e: c for e, c in sextic.terms.items() if e[0] == i}
                want_section.append(fraction_evaluate(row, (1, y * y, r)))
            assert cert.section(y) == want_section
        for x in values:
            for y in values[::3]:
                want = fraction_evaluate(sextic.terms, (x * x, y * y, r))
                assert sextic.evaluate({"u": x * x, "v": y * y, "r": r}) == want
                (value,), den = exact._evaluate_cleared((cert.sextic,), cert.sextic_degrees, x, y)
                assert Q(value, cert.sextic_scale * den) == want


def test_cleared_evaluator_matches_the_reference_on_a_fitted_cofactor():
    terms = exact.verify_sextic_resultant_identity(Q(355, 113), seed=2).cofactor
    cofactor = exact.ExactPoly(("x", "y"), terms)
    assert any(c.denominator > 1 for c in terms.values())
    values = _rationals(14, 20)
    for x in values:
        for y in values[::2]:
            want = fraction_evaluate(terms, (x, y))
            assert _cleared_value(cofactor, x, y) == want
            assert cofactor.evaluate({"x": x, "y": y}) == want


def _reference_residuals(r, sextic, terms, points):
    """(x, y, Res - E C) at each point where it is nonzero, over Fraction reference values."""
    failures = []
    for x, y in points:
        residual = exact.resultant(*t_coefficients(r, x, y)) - fraction_evaluate(
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
    terms = cert.candidate()
    assert not cert.conclude(terms).holdout_failures
    perturbed = {**terms, key: terms.get(key, 0) + delta}
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
    # A two-variable cofactor, the closed-form one perturbed in an even and
    # an odd term, and the true one, whose residuals all vanish.
    xs, ys = _rationals(15, 8), _rationals(16, 8)
    points = list(zip(xs, ys[::-1]))
    cert = exact._Certificate(r, 1)
    terms = cert.candidate()
    perturbed = {**terms, (4, 6): terms[(4, 6)] + Q(-1, 7), (1, 3): Q(2, 5)}
    want = _reference_residuals(r, exact.sextic_polynomial(), perturbed, points)
    assert len(want) > len(points) // 2
    assert list(cert.residuals(perturbed, points)) == want
    assert list(cert.residuals(terms, points)) == []
    # A section quotient {(2i, 0): q_i} of the mutated sextic, which leaves a
    # remainder, at abscissae along its section and off it.
    mutated = exact._Certificate(r, 1, mutate=True)
    y = mutated.ys[0]
    values = [resultant_at(r, x, y) for x in mutated.x_magnitudes]
    quot, rem = exact._divide_univariate(exact._newton_interpolate(mutated.us, values), mutated.section(y))
    assert rem
    quotient = {(2 * i, 0): c for i, c in enumerate(quot)}
    points = [(x, y) for x in xs] + points
    want = _reference_residuals(r, exact.mutated_sextic(), quotient, points)
    assert len(want) > len(points) // 2
    assert list(mutated.residuals(quotient, points)) == want


def test_a_cofactor_above_the_degree_bound_fails_with_zero_residuals():
    # P(x) = prod (x - x_i) over the held-out abscissae vanishes at every
    # held-out point, so C + P leaves every residual at 0 with degree 64.
    cert = exact._Certificate(Q(1, 2), 1)
    terms = cert.candidate()
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
    system = exact._folded_system(r)
    failing, off_axis = [], []
    for x in (Q(i - 14, 3) for i in range(29)):
        for y in (Q(j - 10, 4) for j in range(21)):
            res = Q(*exact._system_resultant(system, x, y))
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


# ---------------------------------------------------------------------------
# The eliminant in closed form, for every r
# ---------------------------------------------------------------------------


def _eliminant_mismatches(sextics):
    """The integer grid points (r, x, y) where Res differs from 2^40 r^8 (x^2 + y^2)^4 E^2, per sextic."""
    mismatches = [[] for _ in sextics]
    for r in range(1, 20):
        system = exact._folded_system(Q(r))
        for x in range(15):
            for y in range(11):
                res, den = exact._system_resultant(system, Q(x), Q(y))
                assert den == 1
                u, v = x * x, y * y
                factor = 2**40 * r**8 * (u + v) ** 4
                for terms, found in zip(sextics, mismatches):
                    sextic = sum(c * u**a * v**b * r**k for (a, b, k), c in terms.items())
                    if res != factor * sextic * sextic:
                        found.append((r, x, y))
    return mismatches


def test_the_eliminant_is_the_closed_form_cofactor_times_the_sextic_for_every_r():
    """Res_t(f, g) = 2^40 r^8 (x^2 + y^2)^4 E(x^2, y^2, r)^2 in Z[r, x, y].

    f and g are the two polynomials of envelope_system().  Res is even in r,
    in x and in y.  The coefficients hold r only as r^2.  They hold x and y
    only through x^2, y^2 and x y, and x y multiplies exactly the odd powers
    of t, so negating t negates x y, as negating x or y does; the
    resultant of f(-t) and g(-t) is (-1)^(mn) Res = Res, mn = 80 (see
    ``_DEGREE_BOUND`` in fnr.exact).  So Res is a polynomial in
    rho = r^2, u = x^2 and v = y^2.

    Its degrees are at most 36 in r, 28 in x and 20 in y.  In r, every
    entry of the 18 x 18 Sylvester matrix has degree at most 2.  In x, every
    entry has degree at most 2, and the first two and the last two columns
    hold none of x, so the other 14 columns give 28.  In y, 20 is the largest
    sum of the entries' degrees over the permutations of the matrix (a
    maximum-weight assignment).  So Res has degree at most 18 in rho, 14 in u
    and 10 in v.  The right side has degrees 4 + 2 * 3 = 10 in rho,
    4 + 2 * 4 = 12 in u and 4 + 2 * 3 = 10 in v.  The difference is thus a
    polynomial of degree at most 18, 14 and 10 in rho, u and v, and it
    vanishes on the grid r = 1..19, x = 0..14, y = 0..10, whose 19, 15 and
    11 values of rho, u and v are distinct.  Such a polynomial is zero
    (Alon, Combinatorial Nullstellensatz, CPC 8, 1999, Lemma 2.1), so the
    identity holds for every r, and the closed form that the certificate
    takes as its candidate is the cofactor of Res = E C.  The mutated
    sextic fails it.
    """
    true, mutated = _eliminant_mismatches([exact.sextic_polynomial().terms, exact.mutated_sextic().terms])
    assert true == []
    assert len(mutated) > 19 * 15 * 11 // 2


def test_the_resultant_in_z_is_the_closed_form_square_root_for_every_r():
    """Res_z(F, G) = -2^20 r^4 (x^2 + y^2)^2 E(x^2, y^2, r) in Z[r, x, y].

    F and G are the polynomials in z = t - 1/t of ``exact._system``, of
    degree 5 and 4 with leading coefficient -r^2, so at r != 0 the
    resultant commutes with evaluation.  Their 9 x 9 Sylvester matrix has 4
    rows of F's coefficients and 5 of G's, each of degree at most 2 in r,
    in x and in y, so Res_z has degree at most 4 * 2 + 5 * 2 = 18 in each.
    The coefficients hold r only as r^2, and x and y only through x^2, y^2
    and x y, which multiplies exactly F's even and G's odd powers of z.  So
    negating x (or y) is F(z) -> -F(-z) and G(z) -> G(-z), and
    Res(-F(-z), G(-z)) = (-1)^4 (-1)^(mn) Res(F, G), mn = 20: Res_z is a
    polynomial of degree at most 9 in each of rho = r^2, u = x^2 and
    v = y^2.  The right side has degrees 2 + 3 = 5 in rho, 2 + 4 = 6 in u
    and 2 + 3 = 5 in v.  The difference vanishes on the grid r = 1..10,
    x = 0..9, y = 0..9, whose 10 values of rho, u and v are distinct, so it
    is zero (Alon, Combinatorial Nullstellensatz, CPC 8, 1999, Lemma 2.1).
    Its square is the Res_t identity above.  The mutated sextic adds
    u^2 r^6 to E, so it fails wherever r and x are nonzero.
    """
    terms, _, split = exact._system()
    pair = [[exact.ExactPoly(("r", "x", "y"), c) for c in tables] for tables in (terms[:split], terms[split:])]
    rows = [len(pair[1]) - 1, len(pair[0]) - 1]  # Sylvester rows of F, of G
    bounds = [
        sum(n * max(coeff.degree(v) for coeff in coeffs) for n, coeffs in zip(rows, pair))
        for v in ("r", "x", "y")
    ]
    assert rows == [4, 5] and bounds == [18, 18, 18]
    sextic, mutated = exact.sextic_polynomial(), exact.mutated_sextic()
    assert [4 + sextic.degree("r"), 4 + 2 * sextic.degree("u"), 4 + 2 * sextic.degree("v")] == [10, 12, 10]

    failing, mutated_failing = [], []
    grid = [range(1, bounds[0] // 2 + 2), range(bounds[1] // 2 + 1), range(bounds[2] // 2 + 1)]
    for rv, xv, yv in itertools.product(*grid):
        point = {"r": rv, "x": xv, "y": yv}
        res = exact.resultant(*([coeff.evaluate(point) for coeff in coeffs] for coeffs in pair))
        factor = -(2**20) * rv**4 * (xv * xv + yv * yv) ** 2
        sextic_point = {"u": xv * xv, "v": yv * yv, "r": rv}
        if res != factor * sextic.evaluate(sextic_point):
            failing.append((rv, xv, yv))
        if res != factor * mutated.evaluate(sextic_point):
            mutated_failing.append((rv, xv, yv))
    assert failing == []
    assert mutated_failing == list(itertools.product(range(1, 11), range(1, 10), range(10)))


# ---------------------------------------------------------------------------
# The sextic as the envelope of the symbol's ellipses, for every r
# ---------------------------------------------------------------------------


def test_the_sextic_is_the_envelope_of_the_ellipse_family_for_every_r():
    """Res_c(G, dG/dc) = -16 r^2 E(x^2, y^2, r) in Z[r, x, y].

    G(c; x, y, r) = (x - c)^2 (r^2 + 1 - c^2) + r^2 y^2 - r^2 (r^2 + 1 - c^2)
    is the family of the symbol's ellipses: centre c = cos(phi), foci
    e^(+-i phi) and semi-minor axis r.  Its discriminant in c is their
    envelope.  G has degree 4
    in c and dG/dc degree 3, both with constant leading coefficients (-1 and
    -4), so the resultant commutes with evaluation at any (r, x, y).  Its
    7 x 7 Sylvester matrix has 3 rows of G's coefficients and 4 rows of
    dG/dc's.  In r the coefficients of G have degree at most 4 and those of
    dG/dc at most 2, so Res has degree at most 3 * 4 + 4 * 2 = 20 in r; in x
    both have degree at most 2, giving 3 * 2 + 4 * 2 = 14; y enters only
    G's constant coefficient, as y^2, giving 3 * 2 + 4 * 0 = 6.  The right
    side has degrees 2 + 6 = 8 in r, 2 * 4 = 8 in x and 2 * 3 = 6 in y.  G
    holds r and y only as r^2 and y^2, and so do both sides, so the
    difference is a polynomial of degree at most 10, 14 and 3 in rho = r^2,
    x and v = y^2.  It vanishes identically once it vanishes on the grid
    r = 0..10, x = 0..14, y = 0..3, whose 11, 15 and 4 values of rho, x and
    v are distinct (Alon, Combinatorial Nullstellensatz, CPC 8, 1999,
    Lemma 2.1).  The mutated sextic takes 16 r^8 x^4 from the right side,
    so it fails wherever r and x are nonzero.
    """
    c, x, y, r = exact.ExactPoly.generators(("c", "x", "y", "r"))
    family = (x - c) ** 2 * (r**2 + 1 - c**2) + r**2 * y**2 - r**2 * (r**2 + 1 - c**2)
    pair = [p.univariate_coefficients("c")[::-1] for p in (family, _derivative(family, "c"))]
    rows = [len(pair[1]) - 1, len(pair[0]) - 1]  # Sylvester rows of G, of dG/dc
    bounds = [
        sum(n * max(coeff.degree(v) for coeff in coeffs) for n, coeffs in zip(rows, pair))
        for v in ("r", "x", "y")
    ]
    assert rows == [3, 4] and bounds == [20, 14, 6]
    sextic, mutated = exact.sextic_polynomial(), exact.mutated_sextic()
    assert [2 + sextic.degree("r"), 2 * sextic.degree("u"), 2 * sextic.degree("v")] == [8, 8, 6]

    failing, mutated_failing = [], []
    grid = [range(bounds[0] // 2 + 1), range(bounds[1] + 1), range(bounds[2] // 2 + 1)]
    for rv, xv, yv in itertools.product(*grid):
        point = {"r": rv, "x": xv, "y": yv}
        f, g = ([coeff.evaluate(point) for coeff in coeffs] for coeffs in pair)
        res = exact.resultant(f, g)
        sextic_point = {"u": xv * xv, "v": yv * yv, "r": rv}
        if res != -16 * rv**2 * sextic.evaluate(sextic_point):
            failing.append((rv, xv, yv))
        if res != -16 * rv**2 * mutated.evaluate(sextic_point):
            mutated_failing.append((rv, xv, yv))
    assert failing == []
    assert mutated_failing == list(itertools.product(range(1, 11), range(1, 15), range(4)))
