"""Closed-form geometry: examples, invariants and property tests."""

import math
from fractions import Fraction as Q

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fnr import (
    Branch,
    FoguelParams,
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
    envelope_point,
    sextic_scale,
    sextic_value,
    support_function,
    support_line,
    switching_cosine,
    symbol_range,
)
from fnr.truncation import symbol_range_grid

angles = st.floats(-math.pi, math.pi, allow_nan=False)
radii = st.floats(0.0, 8.0, allow_nan=False)

# Deviation of the boundary from the axis-matched ellipse at r = 0.5 over the
# 2000-point sweep; frozen from the first run of this implementation and
# cross-checked against the level-400 truncation boundary.
FROZEN_ELLIPSE_GAP = 0.09842444710573406
FROZEN_ELLIPSE_ARGMAX = -0.8042477193189872


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


@given(angles)
def test_scalar_and_grid_support_agree(theta):
    grid = support_function(np.array([theta]), 0.5)
    assert grid.shape == (1,)
    assert grid[0] == support_function(theta, 0.5)


def test_support_line_invariants():
    params = FoguelParams.from_coupling(1.0)
    line = support_line(0.3, params)
    assert line.offset == support_function(0.3, 0.5)
    with pytest.raises(ValueError):
        # offsets below 1 contradict the unit-disk inclusion
        type(line)(theta=0.0, offset=0.5)


def test_params_validation():
    with pytest.raises(ValueError):
        FoguelParams(r=-0.1)
    with pytest.raises(ValueError):
        FoguelParams(r=0.3, a=1.0)
    params = FoguelParams.from_coupling(complex(0.0, 2.0))
    assert params.r == 1.0


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
    probe = symbol_range_grid(1.2, 1.0, 100_000)
    assert abs(closed.lo - probe.lo) <= 1e-9
    assert abs(closed.hi - probe.hi) <= 1e-9


@given(
    st.floats(1.0 + 1e-6, 5.0, allow_nan=False),
    st.floats(-math.pi, math.pi, allow_nan=False),
)
def test_symbol_range_brackets_grid_oracle(lam, theta):
    closed = symbol_range(lam, theta)
    probe = symbol_range_grid(lam, theta, 100_000)
    assert abs(closed.lo - probe.lo) <= 1e-8
    assert abs(closed.hi - probe.hi) <= 1e-8


def test_admissible_offsets_examples():
    first, second = admissible_offset_intervals(0.0, 0.5)
    assert not first.empty and (first.lo, first.hi) == (1.0, 1.5)
    assert not second.empty and (second.lo, second.hi) == (-0.5, 1.0)
    assert first.max_value == support_function(0.0, 0.5)

    first, second = admissible_offset_intervals(math.pi / 2.0, 0.5)
    assert first.empty
    assert abs(second.hi - math.sqrt(1.25)) <= 1e-15

    for theta in (0.3, 0.9, 1.4):
        first, second = admissible_offset_intervals(theta, 0.0)
        top = max(iv.max_value for iv in (first, second) if not iv.empty)
        assert top == 1.0


@given(
    st.floats(0.0, math.pi / 2.0, allow_nan=False),
    st.floats(0.01, 6.0, allow_nan=False),
)
def test_admissible_union_max_is_the_support_function(theta, r):
    first, second = admissible_offset_intervals(theta, r)
    candidates = [iv.max_value for iv in (first, second) if not iv.empty]
    assert candidates, "the union is never empty in the first quadrant"
    top = max(candidates)
    if top > 1.0:
        assert abs(top - support_function(theta, r)) <= 1e-12


def test_interval_emptiness_flag():
    assert RangeInterval.closed(2.0, 1.0).empty
    with pytest.raises(ValueError):
        RangeInterval(2.0, 1.0, empty=False)
    with pytest.raises(ValueError):
        RangeInterval.closed(2.0, 1.0).max_value


# ---------------------------------------------------------------------------
# Envelope and sextic
# ---------------------------------------------------------------------------


def test_envelope_examples():
    point = envelope_point(0.0, 0.5)
    assert (point.x, point.y, point.branch) == (1.5, 0.0, Branch.CIRCLE_RIGHT)

    top = envelope_point(math.pi / 2.0, 0.5)
    assert top.branch is Branch.SEXTIC_UPPER
    assert abs(top.x) <= 1e-15
    assert abs(top.y - math.sqrt(1.25)) <= 1e-15

    left = envelope_point(math.pi, 0.5)
    assert left.branch is Branch.CIRCLE_LEFT
    assert abs(left.x + 1.5) <= 1e-15 and abs(left.y) <= 1e-15

    with pytest.raises(ValueError):
        envelope_point(0.3, 0.0)


def test_branch_tie_goes_to_the_circle():
    r = 0.5
    theta = math.acos(switching_cosine(r))
    assert envelope_point(theta, r).branch is Branch.CIRCLE_RIGHT


def test_sextic_value_examples():
    for r in (0.1, 0.5, 2.0):
        assert abs(sextic_value(0.0, 1.0 + r * r, r)) <= 1e-12 * sextic_scale(0.0, 1.0 + r * r, r)
    assert abs(sextic_value(1.0, 0.0, 0.5) - 1.25) <= 1e-12
    assert sextic_value(0.0, 1.0, 0.0) == 0.0


@given(angles, st.floats(0.05, 4.0, allow_nan=False))
def test_envelope_point_lies_on_its_branch(theta, r):
    point = envelope_point(theta, r)
    if point.branch.is_circle:
        centre = 1.0 if point.branch is Branch.CIRCLE_RIGHT else -1.0
        assert abs((point.x - centre) ** 2 + point.y**2 - r * r) <= 1e-12
    else:
        u, v = point.x**2, point.y**2
        assert abs(sextic_value(u, v, r)) <= 1e-8 * sextic_scale(u, v, r)


@given(angles, st.floats(0.05, 4.0, allow_nan=False))
def test_envelope_point_supports_its_own_line(theta, r):
    point = envelope_point(theta, r)
    offset = support_function(theta, r)
    assert abs(point.x * math.cos(theta) + point.y * math.sin(theta) - offset) <= 1e-12


# ---------------------------------------------------------------------------
# Boundary sweep
# ---------------------------------------------------------------------------


def test_boundary_extremes():
    points = boundary_curve(0.5, 1000)
    assert len(points) == 1000
    xs = [p.x for p in points]
    ys = [p.y for p in points]
    assert min(xs) == -1.5 and max(xs) == 1.5
    assert abs(max(ys) - math.sqrt(1.25)) <= 1e-15


def test_boundary_branch_transitions():
    points = boundary_curve(0.5, 1000)
    changes = sum(
        1 for i in range(len(points)) if points[i].branch != points[i - 1].branch
    )
    assert changes == 4


def test_boundary_residuals_per_branch():
    r = 0.5
    for point in boundary_curve(r, 2000):
        if point.branch.is_circle:
            centre = 1.0 if point.branch is Branch.CIRCLE_RIGHT else -1.0
            assert abs((point.x - centre) ** 2 + point.y**2 - r * r) <= 1e-12
        else:
            u, v = point.x**2, point.y**2
            assert abs(sextic_value(u, v, r)) <= 1e-8 * sextic_scale(u, v, r)


def test_boundary_is_convex_and_supported():
    r = 0.5
    points = boundary_curve(r, 720)
    xs = np.array([p.x for p in points])
    ys = np.array([p.y for p in points])
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
    with pytest.raises(ValueError):
        classify_point(0.0, 0.0, 0.5, gridsize=32)


def test_boundary_sweep_classifies_as_boundary():
    for point in boundary_curve(0.5, 360):
        assert classify_point(point.x, point.y, 0.5) is Region.BOUNDARY


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
    probe = min(
        math.hypot(2.0 * math.cos(t) - 1.1, 1.0 * math.sin(t) - 0.9)
        for t in np.linspace(0.0, 2.0 * math.pi, 2_000_001)
    )
    assert abs(ellipse_distance(1.1, 0.9, 2.0, 1.0) - probe) <= 1e-9


def test_ellipse_gap_vanishes_on_the_axes():
    a_axis, b_axis = ellipse_axes(0.5)
    for theta in (0.0, math.pi / 2.0, math.pi, -math.pi / 2.0):
        point = envelope_point(theta, 0.5)
        assert ellipse_distance(point.x, point.y, a_axis, b_axis) <= 1e-10


def test_ellipse_gap_frozen_value():
    gap, theta = ellipse_gap(0.5, 2000)
    assert gap > 1e-3
    assert abs(gap - FROZEN_ELLIPSE_GAP) <= 1e-12
    assert abs(theta - FROZEN_ELLIPSE_ARGMAX) <= 1e-12


@pytest.mark.parametrize("r", [0.1, 0.5, 1.0, 3.0])
def test_ellipse_gap_strictly_positive(r):
    gap, _ = ellipse_gap(r, 400)
    assert gap > 0.0


def test_ellipse_gap_rejects_degenerate_radius():
    with pytest.raises(UnitDiskDegeneracyError):
        ellipse_gap(0.0, 2000)
    with pytest.raises(ValueError):
        ellipse_gap(0.5, 99)
