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
brackets its top eigenvalue to at most two ulps in O(N) without forming the
matrix.

A second, fully independent route solves the singularity condition
directly: an offset lam > 1 is admissible in direction theta exactly when
2 (r^2 - lam^2) falls in the range of f(t) = Re t^2 + Re w^2 - 4 lam Re t
Re w over the unit circle.  f is affine in lam at each sample of the circle,
so the condition has one closed root per sample, and the largest admissible
offset is the largest of those roots, found without the closed-form case
split.
"""

from __future__ import annotations

import math

import numpy as np

from .boundary import _check_radius, angle_grid

__all__ = [
    "EigensolverError",
    "top_eigenvalue",
    "symbol_range_grid",
    "support_function_via_condition",
    "boundary_from_truncation",
]

_CANDIDATES = 15
"""Trial values per bisection round; each round narrows a bracket 16-fold."""

_PIVMIN = 2.0**-150
"""Pivot floor of the definiteness test, relative to the Gershgorin bound."""

_PARKED_SHARE = 0.25
"""Share of the entries that may wait parked before :func:`_definite` drops them.

The 15 sweeps of ``fnr verify``'s call took 136 ms with this share, 137 ms
at 1/8, 139 ms at 1/2 or when dropping only as levels end, and 147 ms when
dropping each failure at once (sums of per-sweep minima over 11 runs, one
2.1 GHz Xeon core).  Dropping only as levels end would sweep values that
all failed at the first step on to their level."""

OFFSET_STEP = 1e-4
"""Step of the offset grid (r + 2) - OFFSET_STEP k, k >= 0, that
:func:`support_function_via_condition` snaps its value down to, and so the
bound the ``dual-route`` check holds that route to."""

_F_SAMPLES = 10_001
"""Points on the unit circle at which the condition route samples f."""

_RANGE_SAMPLES = 100_000
"""Points on the unit circle at which :func:`symbol_range_grid` samples f."""


class EigensolverError(RuntimeError):
    """The top eigenvalue could not be computed or certified."""


def _block_entries(thetas: np.ndarray, a, scale) -> np.ndarray:
    """The entries (c, b) of the rotation's blocks, times ``scale``, one column per angle.

    ``a`` and ``scale`` are scalars or hold one entry per angle.

    In the basis (e_1, f_1, e_2, f_2, ...) every diagonal block is
    A = [[0, conj(c)], [c, 0]] and every block below it B = diag(conj(b), b),
    with c = conj(w a)/2, b = w/2 and w = e^{-i theta}: the floats of the
    dense rotation (w F_N + conj(w F_N)^T)/2 of the 2N x 2N compression F_N.
    """
    w = np.exp(-1j * thetas)
    return np.array([scale * (np.conj(w * a) / 2.0), scale * (w / 2.0)])


def top_eigenvalue(theta, a, level):
    """Largest eigenvalue of the hermitian rotation of the truncation, per element.

    ``theta``, ``a`` and ``level`` broadcast against each other by numpy's
    rules, and the result has their broadcast shape, a float when all three
    are scalars; a ladder of levels over an angle grid is spelled
    ``level=np.array(levels)[:, None]``.  Every element equals its scalar call
    bit for bit.  Bounded above by the closed-form support function and
    nondecreasing in ``level`` (the compressions shrink the range and nest).
    From the :func:`_block_entries` of each element, :func:`_search` narrows
    its own Gershgorin bracket [-(|a|/2 + 1), |a|/2 + 1] to at most two ulps
    for every element at once, :func:`_certify` re-checks both ends, and the
    midpoint is returned.  Over 72 angles, levels 1, 2, 40 and 400 and seven
    couplings from 0 to 1e4, 1697 of the 2016 final brackets are one ulp wide
    and the rest two; which of the two the search ends in depends on its
    trial grid, so ``_CANDIDATES`` can move the result by one ulp.  Each
    sweep of the bisection is :func:`_definite`, which drops a trial value
    at the step where it fails.  A top eigenvalue below the pivot floor,
    ``_PIVMIN`` over the element's scale, comes back as that floor:
    ``top_eigenvalue(0.0, 0.0, 1)`` returns 2^-149, not 0.  Every rotation
    has trace 0, so no top eigenvalue is negative.
    """
    levels = np.asarray(level)
    if levels.dtype.kind not in "iu":
        raise ValueError(f"level must be an integer or an array of integers, got {level}")
    if (levels < 1).any():
        raise ValueError(f"truncation level must be at least 1, got {levels.min()}")
    thetas, couplings = np.asarray(theta, dtype=float), np.asarray(a, dtype=complex)
    try:
        thetas, couplings, levels = np.broadcast_arrays(thetas, couplings, levels)
    except ValueError:
        shapes = f"{thetas.shape}, {couplings.shape} and {levels.shape}"
        raise ValueError(f"theta, a and level must broadcast, got shapes {shapes}") from None
    # |a|/2 + 1 widened by 16 ulps, which rounding of the entries cannot reach;
    # |a| is C hypot, as abs() of a Python complex is and np.abs is not
    bound = (np.hypot(couplings.real, couplings.imag) / 2.0 + 1.0) * (1.0 + 2.0**-48)
    if not (np.isfinite(thetas).all() and np.isfinite(bound).all()):
        raise ValueError(f"theta and a must be finite, got {theta}, {a}")
    scale = np.ldexp(1.0, -np.frexp(bound)[1])  # exact, and brings each bound into [1/2, 1)
    # One column per element, deepest level first, as _definite needs
    order = np.argsort(-levels.ravel(), kind="stable")
    levels, scale = levels.ravel()[order], scale.ravel()[order]
    blocks = _block_entries(thetas.ravel()[order], couplings.ravel()[order], scale)
    lo, hi = _search(blocks, levels, bound.ravel()[order] * scale)
    _certify(blocks, levels, lo, hi)
    top = np.empty(order.size)
    top[order] = 0.5 * (lo + hi) / scale
    return float(top[0]) if thetas.ndim == 0 else top.reshape(thetas.shape)


def _search(blocks: np.ndarray, levels: np.ndarray, bound: np.ndarray) -> tuple:
    """Brackets (lo, hi] of the top eigenvalues, at most two ulps wide, one per column.

    Column m starts from [-bound[m], bound[m]].  Each round splits every open
    bracket at ``_CANDIDATES`` equally spaced trials and keeps the gap between
    the last not above the spectrum and the first above it.
    """
    lo, hi = -bound, bound.copy()
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
    q' = b^2 q / det - c.  A pivot at or below ``_PIVMIN`` fails the test,
    NaN included, and a failed value's verdict is False for good.  So t needs
    no floor on p: where p is at or below ``_PIVMIN`` the value fails
    whatever t is.

    One sweep serves every trial value of every column.  An entry is one
    trial value of one column, and the entries lie on one flat axis, column
    by column, so their levels do not increase along it.  An entry leaves the
    sweep at the step where a pivot fails or where its level ends, and the
    loop stops once no entry is left.  Dropping entries copies every work
    array, so a failed entry first waits parked at an exact fixed point of
    the recurrence, lam = 1, c = b = 0 and D = I, which never fails; the
    parked entries are dropped together when a level ends or when they pass
    ``_PARKED_SHARE`` of the entries.  Every entry that has not failed keeps
    finite pivots above ``_PIVMIN`` and performs the same float operations,
    in the same order, as the expressions above, in work arrays written in
    place.
    """
    coupling, shift = blocks
    trials = lams.shape[0]
    verdict = np.zeros(lams.size, dtype=bool)
    # Entry e = m * trials + j holds lams[j, m]; the state is copied, as parking writes to it
    entry = np.arange(lams.size)
    level, lam, c = np.repeat(levels, trials), lams.T.flatten(), np.repeat(coupling, trials)
    # B_0 = 0 stands above the first block, so the loop starts from D_0 = I
    square = cross = 0.0
    p, s, det, t, work = np.ones((5, lam.size))
    q = np.zeros(lam.size, dtype=complex)
    live = np.ones(lam.size, dtype=bool)
    parked = k = 0
    # Only an entry whose pivot fails at this step can divide by zero, overflow or
    # turn NaN, and it is parked or dropped before the next step
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        while entry.size:
            k += 1
            inv = np.divide(1.0, det, out=det)
            # p' = lam - square (s inv) is formed in s and s' in p, so the names swap
            for x in (s, p):
                np.multiply(x, inv, out=x)
                np.multiply(square, x, out=x)
                np.subtract(lam, x, out=x)
            p, s = s, p
            # q' = cross (q inv) - c; products use FMA, so cross stays the first factor
            q *= inv
            np.multiply(cross, q, out=q)
            q -= c
            # t = s - (q.real^2 + q.imag^2) / p
            np.square(q.real, out=t)
            t += np.square(q.imag, out=work)
            t /= p
            np.subtract(s, t, out=t)
            np.minimum(p, t, out=work)
            np.multiply(p, t, out=det)
            if k == 1:
                square = np.repeat(shift.real**2 + shift.imag**2, trials)
                cross = np.repeat(shift * shift, trials)
            leave = level[-1] == k  # the last entries' level ends here
            if not work.min() > _PIVMIN:  # a pivot failed, or is NaN
                failed = np.flatnonzero(~(work > _PIVMIN))
                live[failed] = False
                parked += failed.size
                leave = leave or parked > _PARKED_SHARE * entry.size
                if not leave:
                    lam[failed] = p[failed] = s[failed] = det[failed] = 1.0
                    square[failed] = c[failed] = cross[failed] = q[failed] = 0.0
            if leave:
                verdict[entry[live & (level == k)]] = True
                keep = np.flatnonzero(live & (level > k))
                entry, level, lam, c, square, cross, p, s, det, q = (
                    x.take(keep) for x in (entry, level, lam, c, square, cross, p, s, det, q)
                )
                t, work = np.empty((2, keep.size))
                live = np.ones(keep.size, dtype=bool)
                parked = 0
    return verdict.reshape(lams.shape[::-1]).T


def symbol_range_grid(lam, theta) -> tuple:
    """Brute-force range of f(t) = Re t^2 + Re w^2 - 4 lam Re t Re w on |t| = 1.

    Minimum and maximum over ``_RANGE_SAMPLES`` uniformly spaced t; the
    bracket error is O(_RANGE_SAMPLES^-2) for this smooth function.  This is
    the oracle counterpart of :func:`fnr.boundary.symbol_range` and
    deliberately avoids its case split.  ``lam`` and ``theta`` are each a
    scalar or a one-dimensional array, and the result is the pair (lo, hi):
    floats when both are scalars, otherwise two arrays of shape
    ``np.shape(theta) + np.shape(lam)``, each element equal to its
    one-element call.  The circle's cosine tables are built once per call
    and dropped when it returns.
    """
    lams, thetas = np.asarray(lam, dtype=float), np.asarray(theta, dtype=float)
    if lams.ndim > 1 or thetas.ndim > 1:
        raise ValueError(
            "lam and theta must be scalars or one-dimensional arrays, "
            f"got shapes {lams.shape} and {thetas.shape}"
        )
    if not (np.isfinite(lams).all() and np.isfinite(thetas).all()):
        raise ValueError(f"lam and theta must be finite, got {lam}, {theta}")
    cos_2phi, cos_phi = _circle(_RANGE_SAMPLES)
    lo, hi = np.empty((2, thetas.size, lams.size))
    # One table-sized buffer for every angle, filled in place: a second one
    # costs more in fresh pages than the arithmetic does
    table = np.empty((lams.size, _RANGE_SAMPLES))
    for row, angle in enumerate(thetas.reshape(-1).tolist()):
        # Entry (lam, phi) is (cos 2phi + cos 2theta) - ((4 cos theta lam) cos phi)
        np.multiply.outer(4.0 * math.cos(angle) * lams.reshape(-1), cos_phi, out=table)
        np.subtract(cos_2phi + math.cos(2.0 * angle), table, out=table)
        lo[row], hi[row] = table.min(axis=1), table.max(axis=1)
    lo, hi = (ends.reshape(thetas.shape + lams.shape) for ends in (lo, hi))
    return (float(lo), float(hi)) if lo.ndim == 0 else (lo, hi)


def _circle(samples: int) -> tuple:
    """cos 2phi and cos phi over ``samples`` uniformly spaced points phi of the circle."""
    phi = 2.0 * math.pi * np.arange(samples) / samples
    return np.cos(2.0 * phi), np.cos(phi)


def support_function_via_condition(theta, r: float):
    """Support function recovered from the singularity condition alone.

    At t = e^{i phi} the condition's f is
    f_phi(lam) = cos 2phi + cos 2theta - 4 lam cos theta cos phi, affine in
    lam.  With cos 2x = 2 cos^2 x - 1, 2 (r^2 - lam^2) = f_phi(lam) is the
    quadratic lam^2 - 2 lam cos theta cos phi + cos^2 theta + cos^2 phi - 1
    - r^2 = 0, whose discriminant over 4 factors as
    r^2 + (1 - cos^2 theta)(1 - cos^2 phi), so its larger root is

        lam_phi = cos theta cos phi + sqrt(r^2 + sin^2 theta sin^2 phi),

    real at every sample, with no square root of a negative number.  Above
    lam_phi the target 2 (r^2 - lam^2) lies below f_phi(lam).  So above
    Lam = max_phi lam_phi the target lies below the sampled minimum of f, and
    at Lam it equals f at the maximising sample: Lam is the largest offset
    that the condition admits on the ``_F_SAMPLES`` samples of the circle,
    and lam_phi is the support, in direction theta, of the elliptical range
    of the symbol at phi (C.-K. Li, Proc. AMS 124, 1996).

    The value returned is the largest offset (r + 2) - OFFSET_STEP k,
    k >= 0, at or below Lam, spelled with the float operations of that grid
    element; k comes from one division, corrected by at most one step
    either way, and no grid is built.  Every sample has its root, and
    cos(pi / _F_SAMPLES) <= Lam <= 1 + sqrt(r^2 + 1) <= r + 2, as the
    samples phi and -phi come within pi / _F_SAMPLES of theta, so Lam lies
    in the grid's span and every angle has a value.  r^2 must be finite, so
    r above sqrt(DBL_MAX) = 1.34e154 raises ValueError.  A scalar
    ``theta`` gives a float; a one-dimensional array of angles gives an
    array of the values, each equal to the one-angle call, with the
    circle's tables built once per call.
    """
    thetas = np.asarray(theta, dtype=float)
    if thetas.ndim > 1:
        raise ValueError(f"theta must be a scalar or one-dimensional, got shape {thetas.shape}")
    if not np.isfinite(thetas).all():
        raise ValueError(f"theta must be finite, got {theta}")
    _check_radius(r)
    cos_phi = _circle(_F_SAMPLES)[1]
    sin2_phi = 1.0 - cos_phi * cos_phi
    top = r + 2.0
    values = []
    for angle in thetas.reshape(-1).tolist():
        roots = math.cos(angle) * cos_phi + np.sqrt(r * r + math.sin(angle) ** 2 * sin2_phi)
        largest = float(roots.max())
        k = max(0, math.ceil((top - largest) / OFFSET_STEP))
        if top - OFFSET_STEP * k > largest:
            k += 1
        elif k > 0 and top - OFFSET_STEP * (k - 1) <= largest:
            k -= 1
        values.append(top - OFFSET_STEP * k)
    return values[0] if thetas.ndim == 0 else np.array(values)


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
