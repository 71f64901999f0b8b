"""Exact polynomial layer: ring laws, transcriptions, resultants, certificate."""

import math
import os
import random
from fractions import Fraction as Q

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fnr import exact
from fnr.boundary import envelope_points, sextic_value, switching_cosine

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


def test_bareiss_default_division_covers_ints_and_fractions():
    rows = [[2, 1, 1], [1, 3, 2], [1, 0, 0]]
    assert exact.bareiss_determinant(rows) == -1
    assert exact.bareiss_determinant([[Q(v, 2) for v in row] for row in rows]) == Q(-1, 8)
    assert exact.bareiss_determinant([[0, 1, 0], [1, 0, 0], [0, 0, 5]]) == -5


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


def test_resultant_at_rejects_degenerate_radius():
    with pytest.raises(ValueError):
        exact.resultant_at(0, 1, 1)


def test_elimination_sylvester_matrix_is_18_by_18():
    first, second = exact.envelope_system()
    point = {"r": Q(1, 2), "x": Q(2, 3), "y": Q(5, 7)}
    f = [c.evaluate(point) for c in reversed(first.univariate_coefficients("t"))]
    g = [c.evaluate(point) for c in reversed(second.univariate_coefficients("t"))]
    rows = exact.sylvester_matrix(f, g)
    assert len(rows) == 18 and all(len(row) == 18 for row in rows)


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
        on_curve = abs(exact.resultant_at(Q(1, 2), x, y))
        companion = abs(exact.resultant_at(Q(1, 2), x + Q(1, 10), y))
        assert companion > 0
        assert float(on_curve / companion) < 1e-5
        count += 1
    assert count == 50


# ---------------------------------------------------------------------------
# Divisibility certificate
# ---------------------------------------------------------------------------


def test_certificate_succeeds_at_half():
    report = exact.verify_sextic_resultant_identity(Q(1, 2), degree_bound=28, seed=1)
    assert report.success
    assert not report.holdout_failures
    assert report.cofactor
    assert report.cofactor_total_degree <= 28
    # sample budget: at least 25% beyond the fitting-space dimension
    assert report.sample_count >= (29 * 30 // 2) * 5 // 4


def test_certificate_cofactor_degree_stable_across_radii():
    degrees = set()
    for r in (Q(1, 2), Q(1, 3)):
        report = exact.verify_sextic_resultant_identity(r, degree_bound=28, seed=1)
        assert report.success
        degrees.add(report.cofactor_total_degree)
    assert len(degrees) == 1


def test_certificate_detects_single_coefficient_mutation():
    report = exact.verify_sextic_resultant_identity(
        Q(1, 2), degree_bound=28, seed=1, sextic=exact.mutated_sextic()
    )
    assert not report.success
    assert report.holdout_failures
    assert all(res != 0 for (_, _, res) in report.holdout_failures)


def test_certificate_report_serializes():
    report = exact.verify_sextic_resultant_identity(Q(1, 2), degree_bound=28, seed=3)
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
    report = exact.verify_sextic_resultant_identity(r, degree_bound=28, seed=1)
    assert report.success and not report.holdout_failures
    assert report.cofactor_total_degree <= 28
    mutated = exact.verify_sextic_resultant_identity(
        r, degree_bound=28, seed=1, sextic=exact.mutated_sextic()
    )
    assert not mutated.success
    assert mutated.holdout_failures
    assert all(res != 0 for (_, _, res) in mutated.holdout_failures)


def _exact_route(r, sextic=None, seed=1):
    return exact._exact_certificate(exact._Certificate(r, 28, seed, sextic))


def test_modular_fitting_reports_what_the_exact_route_reports(monkeypatch):
    calls = []
    resultant = exact.resultant
    monkeypatch.setattr(exact, "resultant", lambda f, g: calls.append(1) or resultant(f, g))
    fast = exact.verify_sextic_resultant_identity(Q(1, 2), degree_bound=28, seed=1)
    assert len(calls) == 64  # the held-out points only
    monkeypatch.undo()
    slow = _exact_route(Q(1, 2))
    assert fast.to_json_dict() == slow.to_json_dict()
    assert fast.to_text() == slow.to_text()

    # A section that does not divide modulo the first prime hands the run to
    # the exact route at once: one section of 37 points, then 8 residuals.
    mutated = exact.mutated_sextic()
    calls.clear()
    monkeypatch.setattr(exact, "resultant", lambda f, g: calls.append(1) or resultant(f, g))
    fast = exact.verify_sextic_resultant_identity(Q(1, 2), seed=9, sextic=mutated)
    assert len(calls) == 37 + 8
    monkeypatch.undo()
    assert fast.to_json_dict() == _exact_route(Q(1, 2), mutated, seed=9).to_json_dict()


def test_a_failing_block_ends_the_modular_fit(monkeypatch):
    # The mutated sextic leaves a remainder in the first block of sections,
    # so the first prime takes that block's determinants and no more.
    blocks = []
    determinants = exact._determinants_mod
    monkeypatch.setattr(
        exact, "_determinants_mod", lambda mats, p: blocks.append(len(mats)) or determinants(mats, p)
    )
    assert exact._modular_cofactor(exact._Certificate(Q(1, 2), 28, 1, exact.mutated_sextic())) is None
    assert blocks == [exact._BLOCK_SECTIONS * 37]


def test_a_wrong_modular_cofactor_falls_back_to_the_exact_route(monkeypatch):
    fitted = exact._modular_cofactor

    def corrupted(cert):
        terms, primes = fitted(cert)
        return {**terms, (0, 0): terms[(0, 0)] + 1}, primes

    monkeypatch.setattr(exact, "_modular_cofactor", corrupted)
    report = exact.verify_sextic_resultant_identity(Q(1, 3), degree_bound=28, seed=2)
    monkeypatch.undo()
    assert report.success
    assert report.to_json_dict() == exact.verify_sextic_resultant_identity(Q(1, 3), seed=2).to_json_dict()


def test_certificate_skips_a_prime_dividing_the_radius_denominator(monkeypatch):
    seen = []
    fitted = exact._modular_cofactor
    monkeypatch.setattr(exact, "_modular_cofactor", lambda cert: seen.append(fitted(cert)) or seen[-1])
    report = exact.verify_sextic_resultant_identity(Q(1, exact._PRIMES[0]), degree_bound=28, seed=1)
    assert report.success
    (terms, primes), = seen
    assert primes[0] == exact._PRIMES[1] and exact._PRIMES[0] not in primes
    assert report.cofactor == exact.ExactPoly(("x", "y"), terms)


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


@pytest.mark.parametrize("p", [7, 101, exact._PRIMES[0], exact._PRIMES[-1]])
def test_modular_determinants_match_bareiss(p):
    rng = random.Random(p)
    for n in (1, 2, 3, 5, 8, 18):
        cases = _determinant_cases(rng, n)
        stack = np.array(cases, dtype=np.int64) % p
        got = exact._determinants_mod(stack, p).tolist()
        assert got == [exact.bareiss_determinant(rows) % p for rows in cases], n


def test_modular_newton_matches_exact_interpolation():
    p = exact._PRIMES[3]
    nodes = [Q(k - 4) + Q(3, 11) for k in range(9)]
    rng = random.Random(4)
    rows = [[Q(rng.randint(-99, 99), rng.randint(1, 9)) for _ in nodes] for _ in range(3)]
    residues = np.array([[exact._residue(v, p) for v in row] for row in rows], np.int64)
    got = exact._newton_mod(residues, [exact._residue(x, p) for x in nodes], p).tolist()
    want = [[exact._residue(c, p) for c in exact._newton_interpolate(nodes, row)] for row in rows]
    assert got == want


def test_modular_matmul_matches_integer_matmul():
    p = exact._PRIMES[0]
    rng = random.Random(5)
    a = [[rng.choice((0, 1, p - 1, rng.randrange(p))) for _ in range(37)] for _ in range(6)]
    b = [[rng.choice((p - 1, rng.randrange(p))) for _ in range(37)] for _ in range(37)]
    got = exact._matmul_mod(np.array(a, np.int64), np.array(b, np.int64), p).tolist()
    want = [[sum(x * y for x, y in zip(row, col)) % p for col in zip(*b)] for row in a]
    assert got == want


def test_rational_reconstruction_round_trips():
    modulus = exact._PRIMES[0] * exact._PRIMES[1]
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
    p = exact._PRIMES[0]
    residue = value.numerator * pow(value.denominator, -1, p) % p
    assert exact._rational_reconstruct(residue, p) is None


def test_rational_reconstruction_rejects_a_candidate_sharing_a_factor_with_the_modulus():
    # Euclid stops at 55 / -85 here; -11/17 is not congruent to 176 mod 15015.
    assert exact._rational_reconstruct(176, 3 * 5 * 7 * 11 * 13) is None


def test_rational_reconstruction_below_the_bound_can_mislead():
    # Why one more prime must agree and the held-out check has the last word.
    p = exact._PRIMES[0]
    value = Q(2**40 + 1, 3**20)
    residue = value.numerator * pow(value.denominator, -1, p) % p
    assert exact._rational_reconstruct(residue, p) == Q(8115, 21211)


# ---------------------------------------------------------------------------
# Optional fully symbolic route
# ---------------------------------------------------------------------------


def test_symbolic_bareiss_small_matrix():
    x, y = exact.ExactPoly.generators(("x", "y"))
    rows = [
        [x, y, 1 + 0 * x],
        [y, x, x * y],
        [1 + 0 * x, x * y, y],
    ]
    det = exact.bareiss_determinant(rows, divide=exact.exact_divide)
    # cofactor expansion by hand
    want = (
        x * (x * y - x * y * x * y)
        - y * (y * y - x * y)
        + 1 * (y * x * y - x)
    )
    assert det == want


def test_exact_divide_round_trip():
    x, y = exact.ExactPoly.generators(("x", "y"))
    p = (x**2 + 3 * y - 1) * (x * y + 7)
    assert exact.exact_divide(p, x * y + 7) == x**2 + 3 * y - 1
    with pytest.raises(ArithmeticError):
        exact.exact_divide(p + 1, x * y + 7)


@pytest.mark.skipif(
    not os.environ.get("FNR_RUN_SLOW"),
    reason="full symbolic elimination takes minutes; set FNR_RUN_SLOW=1",
)
def test_symbolic_resultant_matches_certificate():
    resultant_poly = exact.symbolic_resultant(Q(1, 2))
    report = exact.verify_sextic_resultant_identity(Q(1, 2), degree_bound=28, seed=1)
    sextic = exact.sextic_polynomial().specialize({"r": Q(1, 2)})
    for x in (Q(3, 7), Q(-2, 5), Q(9, 4)):
        for y in (Q(1, 3), Q(-5, 2)):
            lhs = resultant_poly.evaluate({"x": x, "y": y})
            cof = report.cofactor.evaluate({"x": x, "y": y})
            rhs = sextic.evaluate({"u": x * x, "v": y * y}) * cof
            assert lhs == rhs
