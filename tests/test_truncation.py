"""Truncation oracle: construction, eigenvalues, condition scan, boundary."""

import math

import numpy as np
import pytest

import fnr.truncation
from fnr import (
    ConditionNotSatisfiedError,
    EigensolverError,
    HermitianRotation,
    Region,
    boundary_from_truncation,
    classify_point,
    default_offset_grid,
    foguel_truncation,
    support_function,
    support_function_via_condition,
    symbol_range_grid,
    top_eigenvalue,
)

# ---------------------------------------------------------------------------
# Construction
# ---------------------------------------------------------------------------


def test_smallest_truncation():
    dense = foguel_truncation(1.0, 1).dense()
    assert dense.shape == (2, 2)
    assert np.array_equal(dense, np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex))


def test_shift_block_layout():
    dense = foguel_truncation(1.0, 2).dense()
    # adjoint-shift block carries its single 1 in row 1, column 2 (1-based)
    assert dense[0, 1] == 1.0
    assert dense[1, 0] == 0.0
    # shift block: subdiagonal
    assert dense[3, 2] == 1.0 and dense[2, 3] == 0.0


def test_coupling_block_is_scalar():
    a = 2j
    dense = foguel_truncation(a, 3).dense()
    assert np.array_equal(dense[:3, 3:], a * np.eye(3))
    assert np.count_nonzero(dense[3:, :3]) == 0


@pytest.mark.parametrize("level", [1, 2, 5, 40])
def test_sparsity_and_norm_bound(level):
    a = 1.5 - 0.5j
    dense = foguel_truncation(a, level).dense()
    assert np.count_nonzero(dense) == 3 * level - 2
    assert np.linalg.norm(dense, 2) <= 2.0 + abs(a)


def test_rejects_level_zero():
    with pytest.raises(ValueError):
        foguel_truncation(1.0, 0)


@pytest.mark.parametrize("theta", [0.0, 0.4, -2.2, math.pi / 2.0])
def test_hermitian_rotation_is_bitwise_hermitian(theta):
    rotation = HermitianRotation(foguel_truncation(1.0 + 0.3j, 9), theta)
    dense = rotation.dense()
    adjoint = dense.conj().T
    assert np.array_equal(dense.real, adjoint.real)
    assert np.array_equal(dense.imag, adjoint.imag)


def test_band_matches_permuted_dense():
    level = 13
    order = np.ravel(np.column_stack([np.arange(level), level + np.arange(level)]))
    for a in (0.0, 0.7 - 1.1j, 5.0):
        for theta in (-math.pi, -2.2, 0.0, 0.9, math.pi):
            rotation = HermitianRotation(foguel_truncation(a, level), theta)
            band = rotation.band()
            assert band.shape == (3, 2 * level)
            # unused corners of the lower-band storage stay zero
            assert band[1, -1] == 0 and np.all(band[2, -2:] == 0)
            lower = sum(np.diag(band[k, : 2 * level - k], -k) for k in range(3))
            rebuilt = lower + np.tril(lower, -1).conj().T
            permuted = rotation.dense()[np.ix_(order, order)]
            assert np.max(np.abs(rebuilt - permuted)) <= 1e-16


# ---------------------------------------------------------------------------
# Top eigenvalue
# ---------------------------------------------------------------------------


def test_top_eigenvalue_tiny_case():
    assert abs(top_eigenvalue(0.0, 1.0, 1) - 0.5) <= 1e-14


@pytest.mark.parametrize("theta", [0.0, 0.7, 1.5707963267948966, 2.9])
@pytest.mark.parametrize("level", [5, 24, 64])
def test_uncoupled_truncation_has_chebyshev_top(theta, level):
    got = top_eigenvalue(theta, 0.0, level)
    assert abs(got - math.cos(math.pi / (level + 1))) <= 1e-12


def test_top_eigenvalue_matches_dense_eigvalsh():
    thetas = (-math.pi, -2.1, 0.0, 0.4, 0.9, math.pi / 2.0, math.pi)
    for level in range(1, 41):
        for a in (0.0, 1.0, 1.5 - 0.5j, 5.0, 100.0, 1e-8):
            for theta in thetas:
                dense = HermitianRotation(foguel_truncation(a, level), theta).dense()
                expected = np.linalg.eigvalsh(dense)[-1]
                got = top_eigenvalue(theta, a, level)
                assert abs(got - expected) <= 1e-12 * max(1.0, abs(expected))


@pytest.mark.parametrize("offset", [1e-9, -1e-9])
def test_top_eigenvalue_certificate_rejects_a_shifted_value(monkeypatch, offset):
    solve = fnr.truncation.eig_banded

    def shifted(*args, **kwargs):
        return solve(*args, **kwargs) + offset

    monkeypatch.setattr(fnr.truncation, "eig_banded", shifted)
    with pytest.raises(EigensolverError):
        top_eigenvalue(0.9, 1.0, 40)


def test_compression_value_approaches_radius_from_below():
    value = top_eigenvalue(0.0, 1.0, 400)
    assert 0 < 1.5 - value < 5e-3


def test_compression_monotone_in_level_and_below_closed_form():
    thetas = np.linspace(-math.pi, math.pi, 9)
    previous = None
    for level in (10, 20, 40, 80):
        values = np.array([top_eigenvalue(float(t), 1.0, level) for t in thetas])
        closed = support_function(thetas, 0.5)
        assert np.all(values <= closed + 1e-10)
        if previous is not None:
            assert np.all(values >= previous - 1e-12)
        previous = values


def test_phase_invariance_of_top_eigenvalue():
    for phi in (0.3, math.pi / 7.0, 2.0):
        phase = complex(math.cos(phi), math.sin(phi))
        for theta in (0.0, 1.1, -2.4):
            straight = top_eigenvalue(theta, 1.0, 60)
            rotated = top_eigenvalue(theta, phase, 60)
            assert abs(straight - rotated) <= 1e-10


# ---------------------------------------------------------------------------
# Brute-force symbol range and the condition scan
# ---------------------------------------------------------------------------


def test_symbol_range_grid_examples():
    interval = symbol_range_grid(2.0, 0.0, 100_000)
    assert abs(interval.lo + 6.0) <= 1e-7
    assert abs(interval.hi - 10.0) <= 1e-7

    interval = symbol_range_grid(1.5, math.pi / 2.0, 100_000)
    assert abs(interval.lo + 2.0) <= 1e-7
    assert abs(interval.hi) <= 1e-7

    with pytest.raises(ValueError):
        symbol_range_grid(1.5, 0.0, 999)


def test_condition_scan_examples():
    assert abs(support_function_via_condition(0.0, 0.5) - 1.5) <= 1e-4
    assert abs(support_function_via_condition(math.pi / 2.0, 0.5) - math.sqrt(1.25)) <= 1e-4
    theta = math.pi / 3.0
    assert abs(
        support_function_via_condition(theta, 0.5) - support_function(theta, 0.5)
    ) <= 1e-4


def test_condition_scan_respects_custom_grid():
    grid = default_offset_grid(0.5, step=5e-5)
    assert grid[0] == 2.5 and grid[-1] <= 1.0
    value = support_function_via_condition(0.0, 0.5, offset_grid=grid)
    assert abs(value - 1.5) <= 5e-5
    with pytest.raises(ValueError):
        support_function_via_condition(0.0, 0.5, offset_grid=grid[::-1])


def test_condition_scan_signals_when_nothing_qualifies():
    # Offsets well above the numerical radius never satisfy the condition.
    bad_grid = np.array([9.0, 8.9, 8.8])
    with pytest.raises(ConditionNotSatisfiedError):
        support_function_via_condition(0.0, 0.5, offset_grid=bad_grid)


def _exhaustive_scan(theta, r, grid, f_samples=10_001, chunk=256):
    """The condition scan without pruning: every offset's row, in grid order."""
    phi = 2.0 * math.pi * np.arange(f_samples) / f_samples
    cos_phi = np.cos(phi)
    cos_two_phi = np.cos(2.0 * phi)
    cos_theta = math.cos(theta)
    cos_two_theta = math.cos(2.0 * theta)

    for start in range(0, grid.size, chunk):
        lams = grid[start : start + chunk]
        table = (
            cos_two_phi[None, :]
            + cos_two_theta
            - 4.0 * cos_theta * lams[:, None] * cos_phi[None, :]
        )
        lo = table.min(axis=1)
        hi = table.max(axis=1)
        target = 2.0 * (r * r - lams * lams)
        hits = np.nonzero((target >= lo) & (target <= hi))[0]
        if hits.size:
            return float(lams[hits[0]])
    raise ConditionNotSatisfiedError("no offset qualifies")


@pytest.mark.parametrize("r", [0.01, 0.25, 0.5, 1.0, 3.0, 10.0])
def test_pruned_scan_equals_exhaustive_scan(r):
    grid = default_offset_grid(r)
    for theta in (0.0, math.pi / 2.0, -math.pi / 2.0, math.pi, 2.0**-0.5, -2.0 * math.e / 3.0):
        assert support_function_via_condition(theta, r) == _exhaustive_scan(theta, r, grid)


def test_pruned_scan_equals_exhaustive_scan_on_custom_grids():
    uniform = default_offset_grid(0.5, step=5e-5)
    graded = 1.0 + 1.5 * np.linspace(1.0, 0.0, 12_001) ** 1.7
    three = np.array([1.5, 1.3, 1.1])
    for grid in (uniform, graded, three):
        for theta in (0.0, 0.8, math.pi / 2.0):
            got = support_function_via_condition(theta, 0.5, offset_grid=grid)
            assert got == _exhaustive_scan(theta, 0.5, grid)
    bad_grid = np.array([9.0, 8.9, 8.8])
    with pytest.raises(ConditionNotSatisfiedError):
        _exhaustive_scan(0.0, 0.5, bad_grid)
    with pytest.raises(ConditionNotSatisfiedError):
        support_function_via_condition(0.0, 0.5, offset_grid=bad_grid)


@pytest.mark.parametrize(
    "theta, r",
    [(math.nan, 0.5), (math.inf, 0.5), (0.0, math.nan), (0.0, math.inf), (0.0, -0.5)],
)
def test_condition_scan_rejects_non_finite_or_negative_input(theta, r):
    with pytest.raises(ValueError, match="finite"):
        support_function_via_condition(theta, r)
    if math.isfinite(theta):
        with pytest.raises(ValueError, match="finite"):
            default_offset_grid(r)


# ---------------------------------------------------------------------------
# Boundary reconstruction
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def straight_boundary():
    return boundary_from_truncation(1.0, 200, 360)


def test_truncation_boundary_stays_inside_the_range(straight_boundary):
    assert straight_boundary.shape == (360, 2)
    for x, y in straight_boundary:
        assert classify_point(x, y, 0.5, 720, tol=1e-2) is not Region.EXTERIOR


def test_uncoupled_truncation_boundary_hugs_the_unit_circle():
    points = boundary_from_truncation(0.0, 200, 360)
    radii = np.hypot(points[:, 0], points[:, 1])
    assert np.all(radii < 1.0)
    assert np.all(1.0 - radii < 1e-3)


def test_truncation_boundary_phase_invariance(straight_boundary):
    phase = complex(math.cos(1.0), math.sin(1.0))
    rotated = boundary_from_truncation(phase, 200, 360)
    assert np.max(np.abs(straight_boundary - rotated)) <= 1e-8


def test_truncation_boundary_input_validation():
    with pytest.raises(ValueError):
        boundary_from_truncation(1.0, 49, 360)
    with pytest.raises(ValueError):
        boundary_from_truncation(1.0, 200, 89)
