"""Finite truncations of the Foguel operator: the independent oracle.

Everything here verifies the closed forms of :mod:`fnr.boundary` without
using them.  The operator is compressed onto the first N shift basis vectors
of each block, giving the 2N x 2N matrix

    [ S_N*  a I_N ]
    [ 0     S_N   ]

with S_N the N x N matrix carrying ones on the first subdiagonal.  Because
compressions shrink numerical ranges, the top eigenvalue of the hermitian
rotation (e^{-i theta} F + e^{i theta} F*)/2 approaches the true support
function from below as N grows, and the polygon cut out by the measured
supporting lines sits inside the true region.  In the interleaved basis
(e_1, f_1, e_2, f_2, ...) the rotation is pentadiagonal, so LAPACK's banded
solver finds its top eigenvalue in O(N), and two banded Cholesky
factorizations certify that value as the top of the spectrum.

A second, fully independent route evaluates the singularity condition
directly: an offset lam > 1 is admissible in direction theta exactly when
2 (r^2 - lam^2) falls in the range of f(t) = Re t^2 + Re w^2 - 4 lam Re t
Re w over the unit circle, and that range is measured here by brute-force
grid minimisation, not by the closed-form case split.  The scan over offsets
is pruned, not approximated: f is affine in lam for each sample, so the
sampled minimum is concave and the sampled maximum convex in lam, and chords
between a few exactly evaluated offsets prove most offsets misses.  Only the
offsets they leave open are evaluated, and the first hit is the one an
exhaustive scan finds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import LinAlgError, cholesky_banded, eig_banded

from .boundary import RangeInterval, angle_grid

__all__ = [
    "TruncatedOperator",
    "HermitianRotation",
    "EigensolverError",
    "ConditionNotSatisfiedError",
    "foguel_truncation",
    "top_eigenvalue",
    "symbol_range_grid",
    "default_offset_grid",
    "support_function_via_condition",
    "boundary_from_truncation",
]

CERTIFICATE_SLACK = 1e-11
"""Relative half-width of the Cholesky bracket around the top eigenvalue."""

_KNOT_SPACING = 256
"""Offsets between the exactly evaluated knots of the condition scan's chords."""

_BATCH = 16
"""Rows per exact evaluation once the condition scan reaches an open offset."""

_ROUNDING_SLACK = 64 * np.finfo(float).eps
"""Relative slack of the scan's chord test, several times the rounding of the
table entries, the chord interpolation and the target."""


class EigensolverError(RuntimeError):
    """The top eigenvalue could not be computed or certified."""


class ConditionNotSatisfiedError(RuntimeError):
    """No grid offset satisfies the singularity condition."""


@dataclass(frozen=True)
class TruncatedOperator:
    """2N x 2N compression of the Foguel operator with coupling a."""

    a: complex
    level: int

    def __post_init__(self):
        if self.level < 1:
            raise ValueError(f"truncation level must be at least 1, got {self.level}")

    @property
    def dimension(self) -> int:
        return 2 * self.level

    def dense(self) -> np.ndarray:
        n = self.level
        out = np.zeros((2 * n, 2 * n), dtype=complex)
        for i in range(n - 1):
            out[i, i + 1] = 1.0  # adjoint shift block: superdiagonal
            out[n + i + 1, n + i] = 1.0  # shift block: subdiagonal
        for i in range(n):
            out[i, n + i] = self.a
        return out


@dataclass(frozen=True)
class HermitianRotation:
    """Hermitian part of e^{-i theta} times the truncated operator."""

    operator: TruncatedOperator
    theta: float

    def dense(self) -> np.ndarray:
        rotated = np.exp(-1j * self.theta) * self.operator.dense()
        # (M + M^†)/2 is hermitian bit-for-bit: entry (j, i) is computed by
        # the conjugate of the identical float operations as entry (i, j).
        return (rotated + rotated.conj().T) / 2.0

    def band(self) -> np.ndarray:
        """The matrix in LAPACK lower-band storage, basis order (e_1, f_1, e_2, f_2, ...).

        In the interleaved order the matrix is pentadiagonal with a zero
        diagonal: row 1 holds the coupling entries conj(w a)/2 at even
        columns, row 2 holds the shift entries conj(w)/2 (first block) at
        even and w/2 (second block) at odd columns, w = e^{-i theta}.  The
        entries are the same floats as those of :meth:`dense`; w a goes
        through the multiply ufunc, as there, because scalar complex
        arithmetic rounds differently.
        """
        n = self.operator.level
        w = np.exp(-1j * self.theta)
        out = np.zeros((3, 2 * n), dtype=complex)
        out[1, 0::2] = np.conj(np.multiply(w, self.operator.a)) / 2.0
        out[2, 0 : 2 * n - 2 : 2] = np.conj(w) / 2.0
        out[2, 1 : 2 * n - 2 : 2] = w / 2.0
        return out


def foguel_truncation(a: complex, level: int) -> TruncatedOperator:
    """Compression of the Foguel operator onto the first ``level`` basis vectors."""
    return TruncatedOperator(a=complex(a), level=level)


def _factors(band: np.ndarray, shift: float) -> bool:
    """Whether shift * I - H is positive definite, by banded Cholesky."""
    shifted = -band
    shifted[0] = shift
    try:
        cholesky_banded(shifted, lower=True)
    except LinAlgError:
        return False
    return True


def top_eigenvalue(theta: float, a: complex, level: int) -> float:
    """Largest eigenvalue of the hermitian rotation of the truncation.

    Bounded above by the closed-form support function (compressions shrink
    numerical ranges) and nondecreasing in ``level`` (the compressions are
    nested).  LAPACK computes rho from the banded form in O(N); two banded
    Cholesky factorizations then certify it as the top eigenvalue to within
    s = CERTIFICATE_SLACK * max(1, |rho|): (rho + s) I - H must be positive
    definite and (rho - s) I - H must not be.  Failure raises
    :class:`EigensolverError`.
    """
    band = HermitianRotation(foguel_truncation(a, level), theta).band()
    top = 2 * level - 1
    try:
        (rho,) = eig_banded(band, lower=True, eigvals_only=True, select="i", select_range=(top, top))
    except LinAlgError as exc:
        raise EigensolverError(f"banded eigensolver failed at level {level}, theta {theta}") from exc
    rho = float(rho)
    slack = CERTIFICATE_SLACK * max(1.0, abs(rho))
    if not _factors(band, rho + slack) or _factors(band, rho - slack):
        raise EigensolverError(
            f"top eigenvalue {rho!r} not bracketed to {slack:.1e} "
            f"(level {level}, theta {theta})"
        )
    return rho


def symbol_range_grid(lam: float, theta: float, samples: int) -> RangeInterval:
    """Brute-force range of f(t) = Re t^2 + Re w^2 - 4 lam Re t Re w on |t| = 1.

    Minimum and maximum over ``samples`` uniformly spaced t; the bracket
    error is O(samples^-2) for this smooth function.  This is the oracle
    counterpart of :func:`fnr.boundary.symbol_range` and deliberately avoids
    its case split.
    """
    if samples < 1000:
        raise ValueError(f"need at least 1000 grid points, got {samples}")
    lo, hi = _range_rows(np.array([lam], dtype=float), theta, samples)
    return RangeInterval.closed(float(lo[0]), float(hi[0]))


def _range_rows(lams: np.ndarray, theta: float, samples: int):
    """Sampled (min, max) of f, one entry per offset in ``lams``."""
    phi = 2.0 * math.pi * np.arange(samples) / samples
    table = (
        np.cos(2.0 * phi)[None, :]
        + math.cos(2.0 * theta)
        - 4.0 * math.cos(theta) * lams[:, None] * np.cos(phi)[None, :]
    )
    return table.min(axis=1), table.max(axis=1)


def _check_radius(r: float) -> None:
    if not (math.isfinite(r) and r >= 0):
        raise ValueError(f"radius must be finite and nonnegative, got {r}")


def default_offset_grid(r: float, step: float = 1e-4) -> np.ndarray:
    """Descending offset grid covering [1, r + 2] with the given step."""
    _check_radius(r)
    if not (step > 0 and math.isfinite(step)):
        raise ValueError(f"step must be positive and finite, got {step}")
    count = int(math.floor((r + 1.0) / step)) + 1
    return (r + 2.0) - step * np.arange(count + 1)


def support_function_via_condition(
    theta: float,
    r: float,
    offset_grid: np.ndarray | None = None,
    f_samples: int = 10_001,
) -> float:
    """Support function recovered from the singularity condition alone.

    Scans a descending offset grid and returns the largest lam for which
    2 (r^2 - lam^2) lies in the brute-force range [lo, hi] of f; agrees with
    the closed form to the grid resolution.  ``f_samples`` controls the range
    oracle's grid (error O(f_samples^-2), far below the default 1e-4 offset
    step).  Raises :class:`ConditionNotSatisfiedError` when no grid offset
    qualifies.

    Most offsets are ruled out without building their rows.  Each table entry
    is affine in lam, so lo(lam) is concave and hi(lam) convex on any grid:
    between two exactly evaluated knots the chord lies below lo and above hi.
    An offset whose target falls below the lower chord or above the upper
    chord, by more than a slack covering the rounding of the table, the
    chords and the target, cannot be a hit.  The remaining offsets are
    evaluated exactly, in grid order, so the result is the one an exhaustive
    scan returns, bit for bit.
    """
    if not math.isfinite(theta):
        raise ValueError(f"theta must be finite, got {theta}")
    _check_radius(r)
    if offset_grid is None:
        offset_grid = default_offset_grid(r)
    grid = np.asarray(offset_grid, dtype=float)
    if grid.ndim != 1 or grid.size < 2:
        raise ValueError("offset grid must be a one-dimensional descending list")
    if not np.all(np.diff(grid) < 0):
        raise ValueError("offset grid must be strictly descending")
    if f_samples < 1000:
        raise ValueError(f"need at least 1000 range-grid points, got {f_samples}")

    target = 2.0 * (r * r - grid * grid)

    knots = np.unique(np.append(np.arange(0, grid.size, _KNOT_SPACING), grid.size - 1))
    knot_lo, knot_hi = _range_rows(grid[knots], theta, f_samples)
    ascending = grid[knots][::-1]
    lo_chord = np.interp(grid, ascending, knot_lo[::-1])
    hi_chord = np.interp(grid, ascending, knot_hi[::-1])
    largest = float(np.max(np.abs(grid)))
    slack = _ROUNDING_SLACK * (
        2.0 + 4.0 * abs(math.cos(theta)) * largest + 2.0 * (r * r + largest * largest)
    )
    ruled_out = (target < lo_chord - slack) | (target > hi_chord + slack)

    candidates = np.flatnonzero(~ruled_out)
    for start in range(0, candidates.size, _BATCH):
        rows = candidates[start : start + _BATCH]
        lo, hi = _range_rows(grid[rows], theta, f_samples)
        hits = np.flatnonzero((target[rows] >= lo) & (target[rows] <= hi))
        if hits.size:
            return float(grid[rows[hits[0]]])
    raise ConditionNotSatisfiedError(
        f"no offset in [{grid[-1]:.6g}, {grid[0]:.6g}] satisfies the "
        f"singularity condition at theta = {theta}, r = {r}"
    )


def boundary_from_truncation(a: complex, level: int, samples: int) -> np.ndarray:
    """Boundary polygon of the truncation's numerical range.

    Measures the supporting-line offsets on a uniform angle grid with
    :func:`top_eigenvalue` and intersects adjacent lines; the resulting
    vertices enclose the truncation's numerical range and therefore lie
    inside the full operator's range (never classified exterior, up to the
    polygonal overshoot of order (pi/samples)^2).
    """
    if level < 50:
        raise ValueError(f"truncation level must be at least 50, got {level}")
    if samples < 90:
        raise ValueError(f"need at least 90 samples, got {samples}")
    thetas = angle_grid(samples)
    offsets = [top_eigenvalue(th, a, level) for th in thetas]
    points = np.empty((samples, 2))
    for i in range(samples):
        t1, t2 = thetas[i], thetas[(i + 1) % samples]
        p1, p2 = offsets[i], offsets[(i + 1) % samples]
        det = math.sin(t2 - t1)
        points[i, 0] = (p1 * math.sin(t2) - p2 * math.sin(t1)) / det
        points[i, 1] = (p2 * math.cos(t1) - p1 * math.cos(t2)) / det
    return points
