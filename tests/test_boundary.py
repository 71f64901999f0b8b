"""Closed-form geometry: examples, invariants and property tests."""

import math
import re
import runpy
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fnr.boundary import (
    Branch,
    RangeInterval,
    Region,
    UnitDiskDegeneracyError,
    admissible_offset_intervals,
    angle_grid,
    boundary_curve,
    classify_point,
    ellipse_axes,
    ellipse_distance,
    ellipse_gap,
    envelope_points,
    sextic_envelope,
    sextic_scale,
    sextic_value,
    support_function,
    switching_cosine,
    symbol_range,
)
from fnr.truncation import support_function_via_condition, symbol_range_grid

from conftest import FROZEN_ELLIPSE_ARGMAX, FROZEN_ELLIPSE_GAP

angles = st.floats(-math.pi, math.pi, allow_nan=False)
radii = st.floats(0.0, 8.0, allow_nan=False)


# ---------------------------------------------------------------------------
# Support function
# ---------------------------------------------------------------------------


def test_support_examples():
    assert support_function(0.0, 0.5) == 1.5
    assert abs(support_function(math.pi / 2.0, 0.5) - math.sqrt(1.25)) <= 1e-15
    for theta in np.linspace(-math.pi, math.pi, 37):
        assert support_function(float(theta), 0.0) == 1.0


def test_support_agrees_on_both_branches_at_the_switch():
    cut = switching_cosine(0.5)
    theta = math.acos(cut)
    assert abs(support_function(theta, 0.5) - 1.2807764064044151) <= 1e-12
    assert abs((0.5 + cut) - 1.2807764064044151) <= 1e-12
    assert abs(math.sqrt(1 + (0.5 / math.sin(theta)) ** 2) - 1.2807764064044151) <= 1e-12


def test_switching_cosine_examples():
    assert switching_cosine(0.0) == 1.0
    assert abs(switching_cosine(0.5) - 0.7807764064044151) <= 1e-15
    assert abs(switching_cosine(2.0) - (math.sqrt(2.0) - 1.0)) <= 1e-15


@pytest.mark.parametrize("r", [0.1, 0.25, 0.5, 1.0, 2.0, 5.0])
def test_branch_continuity_at_the_switch(r):
    cut = switching_cosine(r)
    circle = r + cut
    sextic = math.sqrt(1.0 + r * r / (1.0 - cut * cut))
    assert abs(circle - sextic) <= 1e-12


@given(angles, radii)
def test_support_symmetries_and_floor(theta, r):
    value = support_function(theta, r)
    assert value >= 1.0
    assert abs(value - support_function(-theta, r)) <= 1e-12
    assert abs(value - support_function(math.pi - theta, r)) <= 1e-12


@given(angles, radii, radii)
def test_support_monotone_in_radius(theta, r1, r2):
    lo, hi = sorted((r1, r2))
    assert support_function(theta, lo) <= support_function(theta, hi) + 1e-12


def test_scalar_and_grid_support_agree():
    edges = [0.0, -0.0, math.pi, -math.pi, math.pi / 2.0, 5e-324, 1e-300, -1e-300]
    thetas = np.concatenate([angle_grid(720), edges])
    for r in (0.0, 1e-300, 1e-8, 0.5, 1e4, 1e9, 1e150):
        grid = support_function(thetas, r)
        assert grid.shape == thetas.shape
        assert grid.tolist() == [support_function(theta, r) for theta in thetas.tolist()]
    for r in (1e200, 1e308):
        with pytest.raises(ValueError, match="overflows"):
            support_function(thetas, r)


RADIUS_TAKERS = {
    "switching_cosine": switching_cosine,
    "support_function": lambda r: support_function(0.3, r),
    "admissible_offset_intervals": lambda r: admissible_offset_intervals(0.3, r),
    "support_function_via_condition": lambda r: support_function_via_condition(0.3, r),
    "classify_point": lambda r: classify_point(0.0, 0.0, r),
    "ellipse_axes": ellipse_axes,
    "sextic_envelope": lambda r: sextic_envelope(np.array([math.pi / 2.0]), r),
}


@pytest.mark.parametrize("call", RADIUS_TAKERS.values(), ids=RADIUS_TAKERS)
def test_every_radius_taker_shares_one_limit(call):
    # Above sqrt(DBL_MAX) r^2 overflows; the closed form used to return inf.
    limit = math.sqrt(sys.float_info.max)
    call(limit)
    with pytest.raises(ValueError, match=re.escape(f"at most {limit!r},")):
        call(math.nextafter(limit, math.inf))


SEXTIC_EVALUATORS = {
    "sextic_envelope": lambda r: sextic_envelope(np.array([0.3]), r),
    "sextic_value": lambda r: sextic_value(1.0, 1.0, r),
    "sextic_scale": lambda r: sextic_scale(1.0, 1.0, r),
}


@pytest.mark.parametrize("call", SEXTIC_EVALUATORS.values(), ids=SEXTIC_EVALUATORS)
def test_sextic_evaluators_refuse_a_radius_out_of_range(call):
    # Refused before any arithmetic, with the message of every radius taker.
    with pytest.raises(ValueError, match="at most"):
        call(1e200)
    with pytest.raises(ValueError, match="nonnegative"):
        call(-1.0)


# ---------------------------------------------------------------------------
# Symbol range and admissible offsets
# ---------------------------------------------------------------------------


def test_symbol_range_examples():
    assert symbol_range(2.0, 0.0) == RangeInterval(-6.0, 10.0)
    for lam in (1.1, 2.0, 7.5):
        # [-2, 0] up to the float representation of pi/2
        interval = symbol_range(lam, math.pi / 2.0)
        assert interval.lo == -2.0
        assert abs(interval.hi) <= 4e-15 * lam
    with pytest.raises(ValueError):
        symbol_range(1.0, 0.3)


def test_symbol_range_matches_grid_oracle_on_second_case():
    closed = symbol_range(1.2, 1.0)
    lo, hi = symbol_range_grid(1.2, 1.0)
    assert abs(closed.lo - lo) <= 1e-9
    assert abs(closed.hi - hi) <= 1e-9


@given(
    st.floats(1.0 + 1e-6, 5.0, allow_nan=False),
    st.floats(-math.pi, math.pi, allow_nan=False),
)
def test_symbol_range_brackets_grid_oracle(lam, theta):
    closed = symbol_range(lam, theta)
    lo, hi = symbol_range_grid(lam, theta)
    assert abs(closed.lo - lo) <= 1e-8
    assert abs(closed.hi - hi) <= 1e-8


def test_admissible_offsets_examples():
    first, second = admissible_offset_intervals(0.0, 0.5)
    assert not first.empty and (first.lo, first.hi) == (1.0, 1.5)
    assert not second.empty and (second.lo, second.hi) == (-0.5, 1.0)
    assert first.hi == support_function(0.0, 0.5)

    first, second = admissible_offset_intervals(math.pi / 2.0, 0.5)
    assert first.empty
    assert abs(second.hi - math.sqrt(1.25)) <= 1e-15

    for theta in (0.3, 0.9, 1.4):
        first, second = admissible_offset_intervals(theta, 0.0)
        top = max(iv.hi for iv in (first, second) if not iv.empty)
        assert top == 1.0


@given(
    st.floats(0.0, math.pi / 2.0, allow_nan=False),
    st.floats(0.01, 6.0, allow_nan=False),
)
def test_admissible_union_max_is_the_support_function(theta, r):
    first, second = admissible_offset_intervals(theta, r)
    candidates = [iv.hi for iv in (first, second) if not iv.empty]
    assert candidates, "the union is never empty in the first quadrant"
    top = max(candidates)
    if top > 1.0:
        assert abs(top - support_function(theta, r)) <= 1e-12


def test_interval_emptiness_flag():
    # Emptiness is derived from the endpoints, never stored
    assert RangeInterval(2.0, 1.0).empty
    assert not RangeInterval(1.0, 1.0).empty
    assert not RangeInterval(-math.inf, math.inf).empty
    assert RangeInterval._fields == ("lo", "hi")


# ---------------------------------------------------------------------------
# Envelope and sextic
# ---------------------------------------------------------------------------


def _envelope(theta: float, r: float) -> tuple:
    """(x, y, branch) of the envelope point at the single angle theta."""
    return envelope_points(theta, r)[1:]


@pytest.mark.parametrize("theta", [0.3, 1.2, -2.0, math.pi], ids=str)
def test_a_scalar_angle_gives_the_point_of_a_one_element_array(theta):
    # As support_function does, a scalar angle gives floats.
    r = 0.5
    curve = envelope_points(np.array([theta]), r)
    point = envelope_points(theta, r)
    assert point == (theta, curve.x[0], curve.y[0], curve.branch[0])
    assert all(type(value) is float for value in point[:3])
    assert isinstance(point.branch, Branch)
    xs, ys = sextic_envelope(np.array([theta]), r)
    x, y = sextic_envelope(theta, r)
    assert (type(x), type(y)) == (float, float) and (x, y) == (xs[0], ys[0])
    # Any shape is kept, as support_function keeps it.
    square = np.full((2, 2), theta)
    assert envelope_points(square, r).x.shape == (2, 2)
    assert [z.tolist() for z in sextic_envelope(square, r)] == [[[x, x], [x, x]], [[y, y], [y, y]]]


def test_envelope_examples():
    curve = envelope_points(np.array([0.0, math.pi / 2.0, math.pi]), 0.5)
    assert (curve.x[0], curve.y[0], curve.branch[0]) == (1.5, 0.0, Branch.CIRCLE_RIGHT)

    assert curve.branch[1] is Branch.SEXTIC_UPPER
    assert abs(curve.x[1]) <= 1e-15
    assert abs(curve.y[1] - math.sqrt(1.25)) <= 1e-15

    assert curve.branch[2] is Branch.CIRCLE_LEFT
    assert abs(curve.x[2] + 1.5) <= 1e-15 and abs(curve.y[2]) <= 1e-15

    with pytest.raises(ValueError):
        envelope_points(np.array([0.3]), 0.0)


def test_branch_tie_goes_to_the_circle():
    r = 0.5
    theta = math.acos(switching_cosine(r))
    assert _envelope(theta, r)[2] is Branch.CIRCLE_RIGHT


def test_sextic_value_examples():
    for r in (0.1, 0.5, 2.0):
        assert abs(sextic_value(0.0, 1.0 + r * r, r)) <= 1e-12 * sextic_scale(0.0, 1.0 + r * r, r)
    assert abs(sextic_value(1.0, 0.0, 0.5) - 1.25) <= 1e-12
    assert sextic_value(0.0, 1.0, 0.0) == 0.0


@given(angles, st.floats(0.05, 4.0, allow_nan=False))
def test_envelope_point_lies_on_its_branch(theta, r):
    x, y, branch = _envelope(theta, r)
    if branch in (Branch.CIRCLE_RIGHT, Branch.CIRCLE_LEFT):
        centre = 1.0 if branch is Branch.CIRCLE_RIGHT else -1.0
        assert abs((x - centre) ** 2 + y**2 - r * r) <= 1e-12
    else:
        u, v = x**2, y**2
        assert abs(sextic_value(u, v, r)) <= 1e-8 * sextic_scale(u, v, r)


@given(angles, st.floats(0.05, 4.0, allow_nan=False))
def test_envelope_point_supports_its_own_line(theta, r):
    x, y, _ = _envelope(theta, r)
    offset = support_function(theta, r)
    assert abs(x * math.cos(theta) + y * math.sin(theta) - offset) <= 1e-12


# ---------------------------------------------------------------------------
# Boundary sweep
# ---------------------------------------------------------------------------


def test_boundary_extremes():
    _, xs, ys, _ = boundary_curve(0.5, 1000)
    assert len(xs) == len(ys) == 1000
    assert min(xs) == -1.5 and max(xs) == 1.5
    assert abs(max(ys) - math.sqrt(1.25)) <= 1e-15


def test_boundary_branch_transitions():
    branch = boundary_curve(0.5, 1000).branch
    changes = sum(1 for i in range(len(branch)) if branch[i] != branch[i - 1])
    assert changes == 4


def test_boundary_residuals_per_branch():
    r = 0.5
    _, xs, ys, branches = boundary_curve(r, 2000)
    for x, y, branch in zip(xs.tolist(), ys.tolist(), branches):
        if branch in (Branch.CIRCLE_RIGHT, Branch.CIRCLE_LEFT):
            centre = 1.0 if branch is Branch.CIRCLE_RIGHT else -1.0
            assert abs((x - centre) ** 2 + y**2 - r * r) <= 1e-12
        else:
            u, v = x**2, y**2
            assert abs(sextic_value(u, v, r)) <= 1e-8 * sextic_scale(u, v, r)


def test_boundary_is_convex_and_supported():
    r = 0.5
    _, xs, ys, _ = boundary_curve(r, 720)
    ex = np.roll(xs, -1) - xs
    ey = np.roll(ys, -1) - ys
    cross = ex * np.roll(ey, -1) - ey * np.roll(ex, -1)
    assert np.min(cross) >= -1e-10

    thetas = angle_grid(360)
    offsets = support_function(thetas, r)
    margins = np.outer(xs, np.cos(thetas)) + np.outer(ys, np.sin(thetas)) - offsets
    assert np.max(margins) <= 1e-10


def test_boundary_rejects_degenerate_radius():
    with pytest.raises(UnitDiskDegeneracyError):
        boundary_curve(0.0, 100)
    with pytest.raises(ValueError):
        boundary_curve(0.5, 4)


# ---------------------------------------------------------------------------
# Membership
# ---------------------------------------------------------------------------


def test_classify_examples():
    for r in (0.0, 0.5, 3.0):
        assert classify_point(0.0, 0.0, r) is Region.INTERIOR
    assert classify_point(1.5, 0.0, 0.5) is Region.BOUNDARY
    assert classify_point(0.0, 1.25, 0.5) is Region.EXTERIOR


def test_boundary_sweep_classifies_as_boundary():
    _, xs, ys, _ = boundary_curve(0.5, 360)
    for x, y in zip(xs.tolist(), ys.tolist()):
        assert classify_point(x, y, 0.5) is Region.BOUNDARY


@pytest.mark.parametrize("r", [0.0, 0.01, 0.5, 3.0, 100.0, 1e-8, 1e4, 1e8, 1e150])
def test_classify_matches_a_fresh_720_angle_grid(r):
    # Boundary points, the same points moved off the boundary by up to twice
    # the band's half-width (so many land next to its edges), and random
    # points around the region; at r = 0 the boundary is the unit circle.
    if r == 0.0:
        thetas = angle_grid(360)
        xs, ys = np.cos(thetas), np.sin(thetas)
    else:
        _, xs, ys, _ = boundary_curve(r, 360)
    tol = (1.0 + r) * (2.0 * math.pi / 720) ** 2
    rng = np.random.default_rng(19)
    moved = 1.0 + rng.uniform(-2.0, 2.0, (2, xs.size)) * tol / (1.0 + r)
    extent = 1.5 * (1.0 + r)
    xs = np.concatenate([xs, *(moved * xs), rng.uniform(-extent, extent, 1000)])
    ys = np.concatenate([ys, *(moved * ys), rng.uniform(-extent, extent, 1000)])

    grid = angle_grid(720)
    scores = np.outer(xs, np.cos(grid)) + np.outer(ys, np.sin(grid)) - support_function(grid, r)
    top = np.max(scores, axis=1)
    expected = np.where(
        top > tol, Region.EXTERIOR, np.where(top >= -tol, Region.BOUNDARY, Region.INTERIOR)
    )
    assert set(expected.tolist()) == set(Region)
    for x, y, region in zip(xs.tolist(), ys.tolist(), expected.tolist()):
        assert classify_point(x, y, r) is region


# ---------------------------------------------------------------------------
# Ellipse comparison
# ---------------------------------------------------------------------------


def test_ellipse_distance_basics():
    a_axis, b_axis = ellipse_axes(0.5)
    assert ellipse_distance(a_axis, 0.0, a_axis, b_axis) == 0.0
    assert ellipse_distance(0.0, b_axis, a_axis, b_axis) == 0.0
    assert abs(ellipse_distance(0.0, 0.0, 2.0, 1.0) - 1.0) <= 1e-12
    assert abs(ellipse_distance(3.0, 0.0, 2.0, 1.0) - 1.0) <= 1e-12
    # generic point, against a brute-force parametric sweep
    t = np.linspace(0.0, 2.0 * math.pi, 2_000_001)
    probe = np.hypot(2.0 * np.cos(t) - 1.1, 1.0 * np.sin(t) - 0.9).min()
    assert abs(ellipse_distance(1.1, 0.9, 2.0, 1.0) - probe) <= 1e-9


def test_ellipse_gap_vanishes_on_the_axes():
    a_axis, b_axis = ellipse_axes(0.5)
    curve = envelope_points(np.array([0.0, math.pi / 2.0, math.pi, -math.pi / 2.0]), 0.5)
    assert np.all(ellipse_distance(curve.x, curve.y, a_axis, b_axis) <= 1e-10)


def test_ellipse_gap_frozen_value():
    gap, theta = ellipse_gap(0.5, 2000)
    assert gap > 1e-3
    assert gap == FROZEN_ELLIPSE_GAP
    assert theta == FROZEN_ELLIPSE_ARGMAX


@pytest.mark.parametrize("r", [0.1, 0.5, 1.0, 3.0])
def test_ellipse_gap_strictly_positive(r):
    gap, _ = ellipse_gap(r, 400)
    assert gap > 0.0


def test_ellipse_gap_rejects_degenerate_radius():
    with pytest.raises(UnitDiskDegeneracyError):
        ellipse_gap(0.0, 2000)
    with pytest.raises(ValueError):
        ellipse_gap(0.5, 99)


# ---------------------------------------------------------------------------
# Array sweep against the scalar reference
# ---------------------------------------------------------------------------
# The scalar per-point code the array sweep replaced, kept verbatim as the
# reference: envelope points must match it bit for bit, and so must the
# distances, because the array bisection takes the same steps.


def _reference_selected_branch(theta: float, r: float) -> Branch:
    """Boundary family supporting direction theta; ties go to the circles."""
    c = math.cos(theta)
    if abs(c) >= switching_cosine(r):
        return Branch.CIRCLE_RIGHT if c >= 0 else Branch.CIRCLE_LEFT
    return Branch.SEXTIC_UPPER if math.sin(theta) > 0 else Branch.SEXTIC_LOWER


def _reference_envelope_point(theta: float, r: float) -> tuple:
    """Boundary point (x, y, branch) where the supporting line at angle theta touches.

    The envelope of the family x cos + y sin = p(theta) is
    (p cos - p' sin, p sin + p' cos).  On the circle regime this reduces to
    (+-1 + r cos, r sin); on the sextic regime p' = -r^2 cos/(sin^3 p).
    Requires r > 0 (see :class:`UnitDiskDegeneracyError` for the r = 0 case).
    """
    if not r > 0:
        raise ValueError(f"r must be positive, got {r}")
    c = math.cos(theta)
    s = math.sin(theta)
    branch = _reference_selected_branch(theta, r)
    if branch in (Branch.CIRCLE_RIGHT, Branch.CIRCLE_LEFT):
        centre = 1.0 if branch is Branch.CIRCLE_RIGHT else -1.0
        return centre + r * c, r * s, branch
    if s == 0.0:
        raise ValueError(f"sextic parametrization singular at theta = {theta}")
    p = math.sqrt(1.0 + (r / s) ** 2)
    dp = -(r * r) * c / (s**3 * p)
    return p * c - dp * s, p * s + dp * c, branch


def _reference_ellipse_distance(x: float, y: float, a_axis: float, b_axis: float) -> float:
    """Euclidean distance from a point to the ellipse (x/a)^2 + (y/b)^2 = 1.

    Robust first-quadrant reduction with a bisection solve of the projection
    equation; assumes a_axis > b_axis > 0, which holds for the comparison
    ellipse at every r > 0.
    """
    p, q = abs(x), abs(y)
    a, b = float(a_axis), float(b_axis)
    if not a > b > 0:
        raise ValueError(f"expected a > b > 0, got ({a}, {b})")
    if q == 0.0:
        xcrit = (a * a - b * b) / a
        if p >= xcrit:
            return abs(a - p)
        x0 = a * a * p / (a * a - b * b)
        y0 = b * math.sqrt(max(0.0, 1.0 - (x0 / a) ** 2))
        return math.hypot(x0 - p, y0)
    if p == 0.0:
        # The evolute's y-extent is negative for a > b, so the nearest point
        # to any (0, q) with q >= 0 is the vertex (0, b).
        return abs(b - q)
    lo = -b * b + b * q
    hi = -b * b + math.hypot(a * p, b * q)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        f = (a * p / (mid + a * a)) ** 2 + (b * q / (mid + b * b)) ** 2 - 1.0
        if f > 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-17 * max(1.0, abs(hi)):
            break
    tau = 0.5 * (lo + hi)
    x0 = a * a * p / (tau + a * a)
    y0 = b * b * q / (tau + b * b)
    return math.hypot(x0 - p, y0 - q)


# 0.5, both ends of [1e-6, 1e4], and log-uniform radii in between; at
# 9.26681, numpy's x * x in place of C pow changes four envelope points.
REFERENCE_RADII = [0.5, 1e-6, 1e4, 9.26681] + [
    10.0**e for e in np.random.default_rng(20).uniform(-6.0, 4.0, 9).tolist()
]


@pytest.mark.parametrize("samples", [720, 1000, 2000])
def test_envelope_points_equal_the_scalar_reference(samples):
    thetas = angle_grid(samples)
    for r in REFERENCE_RADII:
        curve = envelope_points(thetas, r)
        assert curve.theta.tolist() == thetas.tolist()
        for k, theta in enumerate(thetas.tolist()):
            point = _reference_envelope_point(theta, r)
            assert (curve.x[k], curve.y[k], curve.branch[k]) == point
    assert _envelope(0.3, 0.5) == _reference_envelope_point(0.3, 0.5)


def _distance_probes(r):
    """Boundary points at r, then points on both axes and around the ellipse."""
    a_axis, b_axis = ellipse_axes(r)
    curve = boundary_curve(r, 1000)
    steps = [0.0, 1e-300, 0.3, 0.99, 1.0, 2.0]
    on_x = [(sign * t * a_axis, 0.0) for t in steps for sign in (1.0, -1.0)]
    on_y = [(0.0, sign * t * b_axis) for t in steps for sign in (1.0, -1.0)]
    rng = np.random.default_rng(5)
    around = zip(a_axis * rng.uniform(-1.5, 1.5, 200), b_axis * rng.uniform(-1.5, 1.5, 200))
    extra = np.array(on_x + on_y + list(around))
    return np.concatenate([curve.x, extra[:, 0]]), np.concatenate([curve.y, extra[:, 1]])


@pytest.mark.parametrize("r", REFERENCE_RADII, ids=[f"{r:.3g}" for r in REFERENCE_RADII])
def test_ellipse_distance_equals_the_scalar_reference(r):
    a_axis, b_axis = ellipse_axes(r)
    xs, ys = _distance_probes(r)
    dist = ellipse_distance(xs, ys, a_axis, b_axis)
    expected = [
        _reference_ellipse_distance(x, y, a_axis, b_axis)
        for x, y in zip(xs.tolist(), ys.tolist())
    ]
    assert np.all(np.abs(dist - expected) <= 1e-12 * np.maximum(1.0, expected))
    # the bisection takes the reference's steps, so it is bit for bit
    assert dist.tolist() == expected
    for x, y, d in zip(xs[-250:].tolist(), ys[-250:].tolist(), expected[-250:]):
        assert ellipse_distance(x, y, a_axis, b_axis) == d


# Explicit ids, so a case inserted anywhere leaves every other id on its
# input.  These are the ids pytest numbered the cases by before they were
# pinned, kept so that runs stay comparable by test name; a new case takes a
# new descriptive id.
NON_FINITE_CALLS = {
    "<lambda>0": lambda: classify_point(math.nan, 0.0, 0.5),
    "<lambda>1": lambda: classify_point(0.0, math.nan, 0.5),
    "<lambda>2": lambda: classify_point(0.0, 0.0, math.nan),
    "<lambda>3": lambda: classify_point(math.inf, 0.0, 0.5),
    "<lambda>4": lambda: classify_point(0.0, 0.0, math.inf),
    "<lambda>5": lambda: envelope_points(angle_grid(16), math.inf),
    "<lambda>6": lambda: envelope_points(angle_grid(16), math.nan),
    "<lambda>7": lambda: envelope_points(np.array([0.3]), math.inf),
    "<lambda>8": lambda: boundary_curve(math.inf, 100),
    "<lambda>9": lambda: boundary_curve(math.nan, 100),
    "<lambda>10": lambda: ellipse_gap(math.inf, 2000),
    "<lambda>11": lambda: ellipse_gap(math.nan, 2000),
    "<lambda>12": lambda: support_function(0.3, math.nan),
    "<lambda>13": lambda: support_function(0.3, math.inf),
    "<lambda>14": lambda: support_function(math.nan, 0.5),
    "<lambda>15": lambda: support_function(math.inf, 0.5),
    "<lambda>16": lambda: support_function(np.array([0.0, math.nan, 1.0]), 0.5),
    "<lambda>17": lambda: switching_cosine(math.nan),
    "<lambda>18": lambda: switching_cosine(math.inf),
    "<lambda>19": lambda: admissible_offset_intervals(0.3, math.inf),
    "<lambda>20": lambda: ellipse_distance(math.nan, 1.0, 2.0, 1.0),
    "<lambda>21": lambda: ellipse_distance(math.inf, 1.0, 2.0, 1.0),
    "<lambda>22": lambda: ellipse_distance(1.0, math.nan, 2.0, 1.0),
    "<lambda>23": lambda: ellipse_distance(np.array([0.5, math.inf]), 0.5, 2.0, 1.0),
    "<lambda>24": lambda: ellipse_distance(1.0, 1.0, math.inf, 1.0),
    "<lambda>25": lambda: symbol_range(1.5, math.nan),
    "<lambda>26": lambda: admissible_offset_intervals(math.nan, 0.5),
    "<lambda>27": lambda: symbol_range_grid(1.5, math.nan),
    "<lambda>28": lambda: symbol_range_grid(math.nan, 0.3),
    "<lambda>29": lambda: classify_point(0.0, 0.0, 0.5, tol=math.nan),
    "<lambda>30": lambda: classify_point(0.0, 0.0, 0.5, tol=math.inf),
    "<lambda>31": lambda: classify_point(1.2, 0.0, 0.5, tol=-0.5),
    "<lambda>32": lambda: classify_point(0.0, 0.0, -0.5),
    "<lambda>33": lambda: sextic_envelope(np.array([0.3]), math.nan),
    "<lambda>34": lambda: sextic_value(1.0, 1.0, math.nan),
    "<lambda>35": lambda: sextic_scale(1.0, 1.0, math.nan),
    "envelope_points-scalar-angle": lambda: envelope_points(0.3, math.inf),
    "sextic_envelope-scalar-angle": lambda: sextic_envelope(0.3, math.nan),
    "envelope_points-nan-angle": lambda: envelope_points(math.nan, 0.5),
    "envelope_points-inf-angle": lambda: envelope_points(-math.inf, 0.5),
    "envelope_points-nan-in-array": lambda: envelope_points(np.array([0.3, math.nan]), 0.5),
    "envelope_points-inf-in-array": lambda: envelope_points(np.array([0.3, math.inf]), 0.5),
    "sextic_envelope-nan-angle": lambda: sextic_envelope(math.nan, 0.5),
    "sextic_envelope-inf-angle": lambda: sextic_envelope(math.inf, 0.5),
    "sextic_envelope-nan-in-array": lambda: sextic_envelope(np.array([1.2, math.nan]), 0.5),
    "sextic_envelope-inf-in-array": lambda: sextic_envelope(np.array([1.2, -math.inf]), 0.5),
}


@pytest.mark.parametrize("call", NON_FINITE_CALLS.values(), ids=NON_FINITE_CALLS)
def test_non_finite_input_is_rejected(call):
    with pytest.raises(ValueError, match="finite"):
        call()


def test_freeze_constants_script_prints_the_frozen_constants(capsys):
    script = Path(__file__).resolve().parent.parent / "scripts" / "freeze_constants.py"
    main = runpy.run_path(str(script))["main"]
    assert main([]) == 0
    out = capsys.readouterr().out
    assert f"FROZEN_ELLIPSE_GAP    = {FROZEN_ELLIPSE_GAP!r}" in out
    assert f"FROZEN_ELLIPSE_ARGMAX = {FROZEN_ELLIPSE_ARGMAX!r}" in out
    # The oracle path, the script's call of boundary_from_truncation, at a
    # small level: its gap is within 2e-3 of the closed form's (8.2e-4).
    assert main(["--with-oracle", "--level", "50"]) == 0
    out = capsys.readouterr().out
    assert "truncation boundary (level 50) ellipse gap:" in out
    oracle = re.search(r"^  oracle gap            = (\S+)$", out, re.MULTILINE)
    difference = re.search(r"^  difference            = (\S+)$", out, re.MULTILINE)
    assert oracle and difference
    assert abs(float(oracle[1]) - FROZEN_ELLIPSE_GAP) <= 2e-3
    assert float(difference[1]) == pytest.approx(abs(float(oracle[1]) - FROZEN_ELLIPSE_GAP), rel=1e-3)
