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
(e_1, f_1, e_2, f_2, ...) the rotation is block tridiagonal, its 2 x 2 blocks
given by two numbers per angle, and bisection on a block LDL^T inertia test
brackets its top eigenvalue to two ulps in O(N) without forming the matrix.

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

import numpy as np

from .boundary import RangeInterval, _check_radius, angle_grid

__all__ = [
    "EigensolverError",
    "ConditionNotSatisfiedError",
    "foguel_truncation",
    "hermitian_rotation",
    "top_eigenvalue",
    "symbol_range_grid",
    "default_offset_grid",
    "support_function_via_condition",
    "boundary_from_truncation",
]

_CANDIDATES = 15
"""Trial values per bisection round; each round narrows a bracket 16-fold."""

_PIVMIN = 2.0**-150
"""Pivot floor of the definiteness test, relative to the Gershgorin bound."""

OFFSET_STEP = 1e-4
"""Step of the condition scan's default offset grid, and so the bound the
``dual-route`` check holds the scan to."""

_KNOT_SPACING = 1024
"""Offsets between the exactly evaluated knots of the condition scan's chords."""

_BATCH = 16
"""Rows per exact evaluation once the condition scan reaches an open offset."""

_F_SAMPLES = 10_001
"""Points on the unit circle at which the condition scan samples f."""

_ROUNDING_SLACK = 64 * np.finfo(float).eps
"""Relative slack of the scan's chord test, several times the rounding of the
table entries, the chord interpolation and the target."""


class EigensolverError(RuntimeError):
    """The top eigenvalue could not be computed or certified."""


class ConditionNotSatisfiedError(RuntimeError):
    """No grid offset satisfies the singularity condition."""


def _check_level(level: int) -> None:
    if level < 1:
        raise ValueError(f"truncation level must be at least 1, got {level}")


def foguel_truncation(a: complex, level: int) -> np.ndarray:
    """The 2N x 2N compression of the Foguel operator with coupling a, N = ``level``."""
    _check_level(level)
    out = np.zeros((2 * level, 2 * level), dtype=complex)
    i = np.arange(level)
    out[i[:-1], i[1:]] = 1.0  # adjoint shift block: superdiagonal
    out[level + i[1:], level + i[:-1]] = 1.0  # shift block: subdiagonal
    out[i, level + i] = complex(a)
    return out


def hermitian_rotation(theta: float, a: complex, level: int) -> np.ndarray:
    """Hermitian part of e^{-i theta} times :func:`foguel_truncation`, as a dense matrix."""
    rotated = np.exp(-1j * theta) * foguel_truncation(a, level)
    # (M + M^†)/2 is hermitian bit-for-bit: entry (j, i) is computed by the
    # conjugate of the identical float operations as entry (i, j).
    return (rotated + rotated.conj().T) / 2.0


def _block_entries(thetas: np.ndarray, a: complex, scale: float) -> np.ndarray:
    """The entries (c, b) of the rotation's blocks, times ``scale``, one column per angle.

    In the basis (e_1, f_1, e_2, f_2, ...) every diagonal block is
    A = [[0, conj(c)], [c, 0]] and every block below it B = diag(conj(b), b),
    with c = conj(w a)/2, b = w/2 and w = e^{-i theta}: the floats of
    :func:`hermitian_rotation`.
    """
    w = np.exp(-1j * thetas)
    return np.array([scale * (np.conj(w * a) / 2.0), scale * (w / 2.0)])


def top_eigenvalue(theta, a: complex, level):
    """Largest eigenvalue of the hermitian rotation of the truncation, per angle.

    Takes a scalar or an array of angles and returns a float or an array of
    their shape.  ``level`` is one level or a sequence of them, in any order
    and repeats allowed; a sequence puts a leading level axis on the result,
    equal bit for bit to one call per level.  Bounded above by the closed-form
    support function and nondecreasing in ``level`` (the compressions shrink
    the range and nest).  From the :func:`_block_entries` of each angle,
    :func:`_search` narrows the Gershgorin bracket [-(r + 1), r + 1] to two
    ulps for every (level, angle) column at once, :func:`_certify` re-checks
    both ends, and the midpoint is returned.
    """
    ladder = np.asarray(level)
    if ladder.ndim > 1 or ladder.size == 0 or ladder.dtype.kind not in "iu":
        raise ValueError(f"level must be an integer or a sequence of integers, got {level}")
    _check_level(ladder.min())
    thetas = np.asarray(theta, dtype=float)
    # r + 1 widened by 16 ulps, which rounding of the entries cannot reach
    bound = (abs(a) / 2.0 + 1.0) * (1.0 + 2.0**-48)
    if not (np.isfinite(thetas).all() and math.isfinite(bound)):
        raise ValueError(f"theta and a must be finite, got {theta}, {a}")
    scale = 2.0 ** -math.frexp(bound)[1]  # exact, and brings the bound into [1/2, 1)
    blocks = _block_entries(thetas.ravel(), a, scale)
    # One column per (level, angle), deepest level first, as _definite needs
    order = np.argsort(-ladder.ravel(), kind="stable")
    levels = np.repeat(ladder.ravel()[order], thetas.size)
    columns = np.tile(blocks, order.size)
    lo, hi = _search(columns, levels, bound * scale)
    _certify(columns, levels, lo, hi)
    top = (0.5 * (lo + hi) / scale).reshape(order.size, -1)[np.argsort(order)]
    top = top.reshape(ladder.shape + thetas.shape)
    return float(top) if top.ndim == 0 else top


def _search(blocks: np.ndarray, levels: np.ndarray, bound: float) -> tuple:
    """Brackets (lo, hi] of the top eigenvalues, at most two ulps wide, one per column.

    Each round splits every open bracket at ``_CANDIDATES`` equally spaced
    trials and keeps the gap between the last not above the spectrum and the
    first above it.
    """
    lo, hi = np.full(blocks.shape[1], -bound), np.full(blocks.shape[1], bound)
    steps = np.arange(1, _CANDIDATES + 1)[:, None] / (_CANDIDATES + 1)
    while (rows := np.flatnonzero(hi - lo > 2.0 * np.spacing(np.maximum(-lo, hi)))).size:
        trials = np.vstack([lo[rows], lo[rows] + (hi[rows] - lo[rows]) * steps, hi[rows]])
        definite = _definite(blocks[:, rows], levels[rows], trials[1:-1])
        above = np.vstack([definite, np.ones(rows.size, dtype=bool)])
        first, cols = np.argmax(above, axis=0), np.arange(rows.size)
        lo[rows], hi[rows] = trials[first, cols], trials[first + 1, cols]
    return lo, hi


def _certify(blocks: np.ndarray, levels: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> None:
    """Raise unless lam I - H is positive definite at every hi and at no lo."""
    definite = _definite(blocks, levels, np.vstack([lo, hi]))
    failed = definite[0] | ~definite[1]
    if np.any(failed):
        shown = ", ".join(str(n) for n in np.unique(levels[failed]))
        raise EigensolverError(f"top eigenvalue not bracketed at level {shown}")


def _definite(blocks: np.ndarray, levels: np.ndarray, lams: np.ndarray) -> np.ndarray:
    """Whether lam I - H is positive definite, for the trial values lams[j, m] of column m.

    Column m of ``blocks`` holds the :func:`_block_entries` (c, b) of an
    angle, scaled so the Gershgorin bound is at most 1, and H is that angle's
    rotation at level ``levels[m]``; the levels must not increase from one
    column to the next.  By Sylvester's law of inertia lam lies above the
    spectrum exactly when both pivots p and t = s - |q|^2 / p of every
    D_k = [[p, conj(q)], [q, s]] of the block LDL^T recurrence
    D_{k+1} = lam I - A - B D_k^{-1} B^* are positive; here that is
    p' = lam - |b|^2 s / det, s' = lam - |b|^2 p / det and
    q' = b^2 q / det - c.  A pivot at or below ``_PIVMIN`` fails the test, and
    the failed value's later blocks are carried with det = 1 so every entry
    stays finite.  One sweep serves every level: the trailing columns whose
    level the sweep has reached record their verdict and leave it.
    """
    coupling, shift = blocks
    verdict = np.empty(lams.shape, dtype=bool)
    # B_0 = 0 stands above the first block, so the loop starts from D_0 = I
    square = cross = 0.0
    p = s = det = 1.0
    q, definite = np.zeros(lams.shape, dtype=complex), np.ones(lams.shape, dtype=bool)
    width = lams.shape[1]
    for k in range(1, int(levels.max(initial=0)) + 1):
        inv = 1.0 / det
        p, s = lams - square * (s * inv), lams - square * (p * inv)
        # q' = cross (q inv) - c in place, as fresh complex temporaries cost more
        # than the arithmetic; products use FMA, so cross stays the first factor
        q *= inv
        np.multiply(cross, q, out=q)
        q -= coupling
        t = s - (q.real**2 + q.imag**2) / np.maximum(p, _PIVMIN)
        definite &= np.minimum(p, t) > _PIVMIN
        det = np.where(definite, p * t, 1.0)
        if k == 1:
            square, cross = shift.real**2 + shift.imag**2, shift * shift
        if levels[width - 1] == k:  # the last running column ends here
            running = int(np.count_nonzero(levels[:width] > k))
            verdict[:, running:width] = definite[:, running:]
            lams, coupling, square, cross, p, s, det, q, definite = (
                x[..., :running] for x in (lams, coupling, square, cross, p, s, det, q, definite)
            )
            width = running
    return verdict


def symbol_range_grid(lam, theta: float, samples: int):
    """Brute-force range of f(t) = Re t^2 + Re w^2 - 4 lam Re t Re w on |t| = 1.

    Minimum and maximum over ``samples`` uniformly spaced t; the bracket
    error is O(samples^-2) for this smooth function.  This is the oracle
    counterpart of :func:`fnr.boundary.symbol_range` and deliberately avoids
    its case split.  A scalar ``lam`` gives one :class:`RangeInterval`; a
    one-dimensional array of offsets gives a list of them, one per offset,
    from circle tables built once for the call.
    """
    if samples < 1000:
        raise ValueError(f"need at least 1000 grid points, got {samples}")
    lams = np.asarray(lam, dtype=float)
    if lams.ndim > 1:
        raise ValueError(f"lam must be a scalar or a one-dimensional array, got shape {lams.shape}")
    if not (np.isfinite(lams).all() and math.isfinite(theta)):
        raise ValueError(f"lam and theta must be finite, got {lam}, {theta}")
    lo, hi = _range_rows(lams.reshape(-1), _circle_tables(theta, samples))
    intervals = [RangeInterval.closed(low, high) for low, high in zip(lo.tolist(), hi.tolist())]
    return intervals[0] if lams.ndim == 0 else intervals


def _circle_tables(theta: float, samples: int) -> tuple:
    """The parts of f's table that every offset shares at angle theta.

    Over the ``samples`` points phi of the circle: cos 2phi + cos 2theta, the
    weight 4 cos theta, and cos phi.
    """
    phi = 2.0 * math.pi * np.arange(samples) / samples
    return np.cos(2.0 * phi) + math.cos(2.0 * theta), 4.0 * math.cos(theta), np.cos(phi)


def _range_rows(lams: np.ndarray, tables: tuple):
    """Sampled (min, max) of f, one entry per offset in ``lams``.

    Entry (lam, phi) of the table is (cos 2phi + cos 2theta) - ((4 cos theta
    lam) cos phi), the same float operations for every caller.
    """
    even, weight, cos_phi = tables
    # One table-sized buffer, filled in place: a second one costs more in
    # fresh pages than the arithmetic does
    table = np.multiply.outer(weight * lams, cos_phi)
    np.subtract(even, table, out=table)
    return table.min(axis=1), table.max(axis=1)


def default_offset_grid(r: float, step: float = OFFSET_STEP) -> np.ndarray:
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
) -> float:
    """Support function recovered from the singularity condition alone.

    Scans a descending offset grid and returns the largest lam for which
    2 (r^2 - lam^2) lies in the brute-force range [lo, hi] of f; agrees with
    the closed form to the grid resolution.  The range oracle samples
    ``_F_SAMPLES`` points (error O(_F_SAMPLES^-2), far below the default
    ``OFFSET_STEP``).  Raises :class:`ConditionNotSatisfiedError` when no grid
    offset qualifies.

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

    target = 2.0 * (r * r - grid * grid)

    knots = np.unique(np.append(np.arange(0, grid.size, _KNOT_SPACING), grid.size - 1))
    tables = _circle_tables(theta, _F_SAMPLES)
    knot_lo, knot_hi = _range_rows(grid[knots], tables)
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
        lo, hi = _range_rows(grid[rows], tables)
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
    offsets = top_eigenvalue(thetas, a, level)
    points = np.empty((samples, 2))
    for i in range(samples):
        t1, t2 = thetas[i], thetas[(i + 1) % samples]
        p1, p2 = offsets[i], offsets[(i + 1) % samples]
        det = math.sin(t2 - t1)
        points[i, 0] = (p1 * math.sin(t2) - p2 * math.sin(t1)) / det
        points[i, 1] = (p2 * math.cos(t1) - p1 * math.cos(t2)) / det
    return points
