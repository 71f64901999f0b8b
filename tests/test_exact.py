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
from fnr.boundary import envelope_points, sextic_value, switching_cosine

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
    # Rational entries whose elimination divides an integral value by an
    # integral pivot with a non-integral quotient: exact in Q all the same.
    half = Q(1, 2)
    rows = [[0, 0, half, 0], [2, 2, half, half], [2, 1, half, 1], [2, 2, half, 0]]
    assert exact.bareiss_determinant(rows) == half


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
    return exact.bareiss_determinant(sylvester_matrix(f, g))


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
    det = exact.bareiss_determinant(rows)
    assert det == -Q(1, 2) ** 4 * sylvester_resultant(f, g)
    assert exact.resultant_at(Q(1, 2), Q(2, 3), Q(5, 7)) == sylvester_resultant(f, g)


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
    report = exact.verify_sextic_resultant_identity(Q(1, 2), degree_bound=28, seed=1, mutate=True)
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
    mutated = exact.verify_sextic_resultant_identity(r, degree_bound=28, seed=1, mutate=True)
    assert not mutated.success
    assert mutated.holdout_failures
    assert all(res != 0 for (_, _, res) in mutated.holdout_failures)


def _exact_route(cert):
    """The certificate with the whole fitting stage in exact rational arithmetic: the reference.

    Along each section y = y_k the section polynomial Res(x, y_k) is recovered
    by exact Newton interpolation and divided exactly by the sextic section.
    A nonzero remainder ends the run with the section residuals at up to 8
    held-out abscissae.
    """
    bound = cert.degree_bound
    section_quotients = []
    for y in cert.ys:
        values = [cert.res_value(x, y) for x in cert.xs]
        res_section = exact._newton_interpolate(cert.xs, values)
        quot, rem = exact._divide_univariate(res_section, cert.sextic_section(y))
        if rem:
            # Fitting system Res = E * C is inconsistent on this section;
            # report residuals of the divided quotient at held-out abscissae.
            quotient = exact.ExactPoly(("x",), {(i,): c for i, c in enumerate(quot)})
            failures = []
            for xh in cert.held_out(8):
                res_h = cert.res_value(xh, y)
                quot_h = quotient.evaluate({"x": xh})
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
    fast = exact.verify_sextic_resultant_identity(Q(1, 2), degree_bound=28, seed=1)
    assert len(calls) == 64  # the held-out points only
    monkeypatch.undo()
    slow = _exact_route(exact._Certificate(Q(1, 2), 28, 1))
    assert fast.to_json_dict() == slow.to_json_dict()
    assert fast.to_text() == slow.to_text()

    # A section that does not divide modulo the first prime is recomputed
    # exactly at once: one section of 37 points, then 8 residuals.
    calls.clear()
    monkeypatch.setattr(exact, "resultant", lambda f, g: calls.append(1) or resultant(f, g))
    fast = exact.verify_sextic_resultant_identity(Q(1, 2), seed=9, mutate=True)
    assert len(calls) == 37 + 8
    monkeypatch.undo()
    assert fast.to_json_dict() == _exact_route(exact._Certificate(Q(1, 2), 28, 9, True)).to_json_dict()


@pytest.mark.parametrize(
    "r, bound", [(Q(1, 2), 28), (Q(1, 3), 28), (Q(2), 28), (Q(1, 2), 10), (Q(355, 113), 14)], ids=str
)
@pytest.mark.parametrize("seed", [1, 2, 5])
def test_a_section_failure_is_the_one_the_exact_route_reports(r, bound, seed):
    mutate = bound == 28
    fast = exact.verify_sextic_resultant_identity(r, bound, seed, mutate)
    assert not fast.success and fast.failure_reason.startswith("fitting system inconsistent")
    assert fast.to_json_dict() == _exact_route(exact._Certificate(r, bound, seed, mutate)).to_json_dict()


def test_a_failing_block_ends_the_modular_fit(monkeypatch):
    # The mutated sextic leaves a remainder in the first block of sections,
    # so the first prime takes that block's determinants and no more.
    blocks = []
    determinants = exact._determinants_mod
    monkeypatch.setattr(
        exact, "_determinants_mod", lambda mats, p: blocks.append(len(mats)) or determinants(mats, p)
    )
    cert = exact._Certificate(Q(1, 2), 28, 1, mutate=True)
    with pytest.raises(exact._Indivisible) as failure:
        next(exact._settled_fits(cert))
    assert blocks == [exact._BLOCK_SECTIONS * 37]
    assert failure.value.args[0] in cert.ys[: exact._BLOCK_SECTIONS]


def _recorded_primes(monkeypatch):
    """The primes the modular fit takes from now on, in order."""
    primes = []
    cofactor_mod = exact._cofactor_mod
    monkeypatch.setattr(
        exact, "_cofactor_mod", lambda cert, sections, p: primes.append(p) or cofactor_mod(cert, sections, p)
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
    report = exact.verify_sextic_resultant_identity(Q(1, 3), degree_bound=28, seed=2)
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
        return cert.report(holdout_count=exact._HOLDOUT, success=False, failure_reason="rejected")

    monkeypatch.setattr(exact._Certificate, "conclude", rejected)
    # A bounded supply of primes turns a run that would not stop into a failure.
    primes_on_demand = exact._primes
    monkeypatch.setattr(exact, "_primes", lambda: itertools.islice(primes_on_demand(), settled + 5))
    report = exact.verify_sextic_resultant_identity(Q(1, 3), seed=2)
    assert not report.success and report.failure_reason == "rejected"
    # One more prime settles on the same terms, which are not concluded again.
    assert len(primes) == settled + 1
    assert len(concluded) == 1
    assert exact.ExactPoly(("x", "y"), concluded[0]) == clean.cofactor


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
    report = exact.verify_sextic_resultant_identity(r, degree_bound=28, seed=1)
    assert report.success and not report.holdout_failures
    assert len(primes) > len(PRIMES)
    assert primes[: len(PRIMES)] == list(PRIMES)


def test_modular_bezout_block_matches_exact_resultants(monkeypatch):
    # The first block of one _cofactor_mod call: its mod-p Bezout values are
    # the exact resultants at those grid points, reduced modulo p.
    cert = exact._Certificate(Q(1, 2), 28, 1)
    blocks = []
    resultants = exact._resultants_mod
    monkeypatch.setattr(
        exact, "_resultants_mod", lambda coeffs, p: blocks.append(resultants(coeffs, p)) or blocks[-1]
    )
    p = PRIMES[0]
    sections = [cert.sextic_section(y) for y in cert.ys]
    assert exact._cofactor_mod(cert, sections, p) is not None
    first = blocks[0]
    assert first.shape == (exact._BLOCK_SECTIONS, len(cert.xs))
    want = [
        [exact._residue(Q(exact.resultant_at(cert.r, x, y)), p) for x in cert.xs]
        for y in cert.ys[: exact._BLOCK_SECTIONS]
    ]
    assert first.tolist() == want


def test_certificate_skips_a_prime_dividing_the_radius_numerator(monkeypatch):
    # The Bezout resultants divide by lc(f)^2 = r^4, so r must be a unit.
    primes = _recorded_primes(monkeypatch)
    report = exact.verify_sextic_resultant_identity(Q(PRIMES[0]), degree_bound=28, seed=1)
    assert report.success
    assert primes[0] == PRIMES[1] and PRIMES[0] not in primes


def test_certificate_skips_a_prime_dividing_the_radius_denominator(monkeypatch):
    primes = _recorded_primes(monkeypatch)
    report = exact.verify_sextic_resultant_identity(Q(1, PRIMES[0]), degree_bound=28, seed=1)
    assert report.success
    assert primes[0] == PRIMES[1] and PRIMES[0] not in primes


def test_a_degree_bound_beyond_the_proven_degrees_is_rejected_before_any_work(monkeypatch):
    # deg_x Res <= 28 and deg_y Res <= 20, and E(x^2, y^2, r) has degree
    # 2 deg_u E in x and 2 deg_v E in y, so C has total degree at most 34.
    sextic = exact.sextic_polynomial()
    assert exact.MAX_DEGREE_BOUND == (28 - 2 * sextic.degree("u")) + (20 - 2 * sextic.degree("v")) == 34

    def no_work(*args, **kwargs):
        raise AssertionError("the certificate started")

    for name in ("_certificate_rng", "sextic_polynomial", "_settled_fits", "_section_failure"):
        monkeypatch.setattr(exact, name, no_work)
    for bound in (exact.MAX_DEGREE_BOUND + 1, 2000):
        with pytest.raises(ValueError, match=f"degree bound {bound} exceeds 34"):
            exact.verify_sextic_resultant_identity(Q(3), degree_bound=bound)
    monkeypatch.undo()
    cert = exact._Certificate(Q(3), exact.MAX_DEGREE_BOUND, 1)
    assert (len(cert.xs), len(cert.ys)) == (43, 35)


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
            terms[divmod(index, residues.shape[1])] = coefficient
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

    def recorded(cert, sections, p):
        sequence.append((p, cofactor_mod(cert, sections, p)))
        return sequence[-1][1]

    monkeypatch.setattr(exact, "_cofactor_mod", recorded)
    terms = next(exact._settled_fits(exact._Certificate(r, 28, 1)))
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
    up = [c for coeffs in exact._system_coefficients() for c in coeffs]
    f_count = len(exact._system_coefficients()[0])
    assert [c.terms for c in up] == list(exact._system_terms())
    for _ in range(60):
        point = tuple(rng.choice(values) for _ in range(3))
        sums, den = exact._evaluate_cleared(exact._system_terms(), exact._system_degrees(), point)
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
        cert = exact._Certificate(r, 28, 1, mutated)
        for x in values:
            want_section = []
            for i in range(sextic.degree("u") + 1):
                row = {e: c for e, c in sextic.terms.items() if e[0] == i}
                want_section += [fraction_evaluate(row, (1, x * x, r)), Q(0)]
            assert cert.sextic_section(x) == want_section[:-1]
            for y in values[::3]:
                want = fraction_evaluate(sextic.terms, (x * x, y * y, r))
                assert cert.sextic_value(x, y) == want
                assert sextic.evaluate({"u": x * x, "v": y * y, "r": r}) == want
                assert _cleared_value(sextic, (x * x, y * y, r)) == want


def test_cleared_evaluator_matches_the_reference_on_a_fitted_cofactor():
    cofactor = exact.verify_sextic_resultant_identity(Q(355, 113), seed=2).cofactor
    assert any(c.denominator > 1 for c in cofactor.terms.values())
    values = _rationals(14, 20)
    for x in values:
        for y in values[::2]:
            want = fraction_evaluate(cofactor.terms, (x, y))
            assert _cleared_value(cofactor, (x, y)) == want
            assert cofactor.evaluate({"x": x, "y": y}) == want


def _reference_failures(cert, terms):
    """conclude's held-out loop over Fraction reference values."""
    up = exact._system_coefficients()
    sextic = exact.sextic_polynomial()
    failures = []
    rng = random.Random()
    rng.setstate(cert.stream)
    for _ in range(exact._HOLDOUT):
        x = Q(rng.randint(-999, 999), rng.randint(1, 999))
        y = Q(rng.randint(-999, 999), rng.randint(1, 999))
        f, g = ([fraction_evaluate(c.terms, (cert.r, x, y)) for c in coeffs] for coeffs in up)
        residual = exact.resultant(f, g) - fraction_evaluate(
            sextic.terms, (x * x, y * y, cert.r)
        ) * fraction_evaluate(terms, (x, y))
        if residual:
            failures.append((x, y, residual))
    return failures


@pytest.mark.parametrize(
    "r, key, delta", [(Q(1, 2), (0, 0), Q(1)), (Q(355, 113), (4, 6), Q(-1, 7))], ids=["half", "355/113"]
)
def test_a_perturbed_cofactor_fails_at_the_reference_points(r, key, delta):
    cert = exact._Certificate(r, 28, 1)
    terms = next(exact._settled_fits(cert))
    assert not cert.conclude(terms).holdout_failures
    perturbed = {**terms, key: terms[key] + delta}
    report = cert.conclude(perturbed)
    want = _reference_failures(cert, perturbed)
    assert len(want) == exact._HOLDOUT
    assert not report.success
    assert report.holdout_failures == want


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
        stack = np.array(cases, dtype=np.int64) % p
        got = exact._determinants_mod(stack, p).tolist()
        assert got == [exact.bareiss_determinant(rows) % p for rows in cases], n


def test_modular_newton_matches_exact_interpolation():
    p = PRIMES[3]
    nodes = [Q(k - 4) + Q(3, 11) for k in range(9)]
    rng = random.Random(4)
    rows = [[Q(rng.randint(-99, 99), rng.randint(1, 9)) for _ in nodes] for _ in range(3)]
    residues = np.array([[exact._residue(v, p) for v in row] for row in rows], np.int64)
    got = exact._newton_mod(residues, [exact._residue(x, p) for x in nodes], p).tolist()
    want = [[exact._residue(c, p) for c in exact._newton_interpolate(nodes, row)] for row in rows]
    assert got == want


def test_modular_matmul_matches_integer_matmul():
    p = PRIMES[0]
    rng = random.Random(5)
    a = [[rng.choice((0, 1, p - 1, rng.randrange(p))) for _ in range(37)] for _ in range(6)]
    b = [[rng.choice((p - 1, rng.randrange(p))) for _ in range(37)] for _ in range(37)]
    got = exact._matmul_mod(np.array(a, np.int64), np.array(b, np.int64), p).tolist()
    want = [[sum(x * y for x, y in zip(row, col)) % p for col in zip(*b)] for row in a]
    assert got == want


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
# Fully symbolic route
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


def test_symbolic_resultant_matches_certificate():
    resultant_poly = exact.symbolic_resultant(Q(1, 2))
    report = exact.verify_sextic_resultant_identity(Q(1, 2), degree_bound=28, seed=1)
    sextic = exact.sextic_polynomial().specialize({"r": Q(1, 2)})
    up1, up2 = exact._system_coefficients()
    for x in (Q(3, 7), Q(-2, 5), Q(9, 4)):
        for y in (Q(1, 3), Q(-5, 2)):
            lhs = resultant_poly.evaluate({"x": x, "y": y})
            cof = report.cofactor.evaluate({"x": x, "y": y})
            rhs = sextic.evaluate({"u": x * x, "v": y * y}) * cof
            assert lhs == rhs
            point = {"r": Q(1, 2), "x": x, "y": y}
            f, g = ([c.evaluate(point) for c in up] for up in (up1, up2))
            assert lhs == sylvester_resultant(f, g)
