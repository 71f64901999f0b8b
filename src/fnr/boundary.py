"""Closed-form geometry of the Foguel-operator numerical range.

For the Foguel operator built from the right shift with scalar coupling a,
write r = |a|/2.  The numerical range W is an open convex set, symmetric in
both coordinate axes, described completely by its supporting lines: in the
direction theta the supporting line sits at offset

    support_function(theta, r) = r + |cos theta|              (circle regime)
                                 sqrt(1 + (r/sin theta)^2)    (sextic regime)

with the regime decided by whether |cos theta| clears
switching_cosine(r) = (sqrt(4 + r^2) - r) / 2.  The right/left boundary
pieces are arcs of the circles of radius r centred at (+1, 0) and (-1, 0);
the top/bottom pieces are arcs of a sextic curve in (x^2, y^2) whose
polynomial is shared, term for term, with :func:`fnr.exact.sextic_polynomial`.
The numerical radius is support_function(0, r) = 1 + r, and the set always
contains the unit disk, so every offset is at least 1.

The module also quantifies how far the boundary is from the axis-aligned
ellipse with half-axes (1 + r, sqrt(1 + r^2)) that matches it at both axis
extremes: for every r > 0 the maximal deviation is strictly positive, i.e.
the region is not an elliptical disk.

The boundary sweep works on whole arrays: :func:`envelope_points` places the
envelope points of many angles at once, and :func:`ellipse_distance` runs one
masked bisection over all points.  Where numpy's x * x, pow or hypot would
round differently from C ``pow`` and ``hypot``, the sweep calls the latter, so
it reproduces the per-point scalar formulas bit for bit.

Everything here is a pure function of its arguments; concurrent calls are
safe.
"""

from __future__ import annotations

import math
import sys
from enum import Enum
from itertools import repeat
from typing import NamedTuple

import numpy as np

from . import exact

__all__ = [
    "Branch",
    "Region",
    "RangeInterval",
    "BoundaryCurve",
    "UnitDiskDegeneracyError",
    "angle_grid",
    "switching_cosine",
    "support_function",
    "symbol_range",
    "admissible_offset_intervals",
    "sextic_envelope",
    "envelope_points",
    "sextic_value",
    "sextic_scale",
    "boundary_curve",
    "classify_point",
    "membership_tolerance",
    "ellipse_axes",
    "ellipse_distance",
    "ellipse_gap",
]


class UnitDiskDegeneracyError(ValueError):
    """Raised where r = 0 degenerates the two-regime boundary.

    At r = 0 the numerical range is the open unit disk and the switching
    structure collapses; callers should use the unit circle directly.
    """


class Branch(Enum):
    """Which boundary family generated a point."""

    CIRCLE_RIGHT = "circle-right"
    CIRCLE_LEFT = "circle-left"
    SEXTIC_UPPER = "sextic-upper"
    SEXTIC_LOWER = "sextic-lower"


class Region(Enum):
    INTERIOR = "interior"
    BOUNDARY = "boundary"
    EXTERIOR = "exterior"


class RangeInterval(NamedTuple):
    """Closed interval [lo, hi], empty when lo > hi (endpoints may be inf)."""

    lo: float
    hi: float

    @property
    def empty(self) -> bool:
        return self.lo > self.hi


class BoundaryCurve(NamedTuple):
    """Envelope points as parallel arrays; ``branch`` holds :class:`Branch` members."""

    theta: np.ndarray
    x: np.ndarray
    y: np.ndarray
    branch: np.ndarray


def angle_grid(n: int) -> np.ndarray:
    """The n uniformly spaced angles -pi + 2 pi k / n, k = 0, ..., n - 1."""
    return -math.pi + 2.0 * math.pi * np.arange(n) / n


def _check_radius(r: float) -> None:
    """Refuse r unless 0 <= r <= sqrt(DBL_MAX) = 1.34e154, so r^2 is a finite double."""
    if not (math.isfinite(r) and r >= 0):
        raise ValueError(f"r must be finite and nonnegative, got {r}")
    limit = math.sqrt(sys.float_info.max)
    if r > limit:
        raise ValueError(f"r must be at most {limit!r}, above which r^2 overflows a double, got {r}")


def switching_cosine(r: float) -> float:
    """|cos theta| at which the boundary switches between circle and sextic arcs.

    Equals (sqrt(4 + r^2) - r)/2; lies in (0, 1], with value 1 exactly at
    r = 0.  At this cosine both support-function branches agree, since
    c (c + r) = 1 there.
    """
    _check_radius(r)
    return (math.sqrt(4.0 + r * r) - r) / 2.0


def _support(c: np.ndarray, s: np.ndarray, r: float, cut: float) -> np.ndarray:
    """Support function from c = |cos theta|, s = sin theta and cut = switching_cosine(r).

    The one transcription of both branches: r + c, overwritten where c < cut
    by the sextic branch sqrt(1 + (r / s)^2), which is evaluated only there.
    There s != 0, since sin theta = 0 gives c = 1 >= cut; (r / s)^2 may
    overflow near the axis to inf, the branch's limit.
    """
    out = np.add(r, c, out=np.empty(c.shape))
    sextic = c < cut
    with np.errstate(over="ignore"):
        ratio = r / s[sextic]
        out[sextic] = np.sqrt(1.0 + ratio * ratio)
    return out


def support_function(theta, r: float):
    """Support function of the numerical range in direction theta.

    Piecewise: r + |cos theta| while |cos theta| >= switching_cosine(r),
    else sqrt(1 + (r / sin theta)^2).  Accepts a scalar angle or an ndarray;
    the value is >= 1 everywhere, symmetric under theta -> -theta and
    theta -> pi - theta, and the two branches agree at the switching cosine.
    A non-finite theta, or r outside [0, sqrt(DBL_MAX)], raises ValueError.
    """
    cut = switching_cosine(r)
    th = np.asarray(theta, dtype=float)
    if not np.isfinite(th).all():
        raise ValueError("theta must be finite")
    out = _support(np.abs(np.cos(th)), np.sin(th), r, cut)
    if th.ndim == 0:
        return float(out)
    return out


def symbol_range(lam: float, theta: float) -> RangeInterval:
    """Range over the unit circle of f(t) = Re t^2 + Re w^2 - 4 lam Re t Re w.

    Here w = e^{i theta}.  The range depends on theta only through
    |cos theta| (conjugating w fixes f, negating w reflects t), so the angle
    is reduced to the first quadrant.  For lam |cos theta| >= 1 the range is
    [2 cos^2 - 4 lam cos, 2 cos^2 + 4 lam cos]; otherwise the parabola's
    vertex is interior and the minimum drops to 2 (1 - lam^2) cos^2 - 2.
    Only offsets lam > 1 are meaningful (the range contains the unit disk).
    """
    if not (lam > 1.0 and math.isfinite(theta)):
        raise ValueError(f"need an offset above 1 and a finite theta, got {lam}, {theta}")
    c = abs(math.cos(theta))
    hi = 2.0 * c * c + 4.0 * lam * c
    if lam * c >= 1.0:
        lo = 2.0 * c * c - 4.0 * lam * c
    else:
        lo = 2.0 * (1.0 - lam * lam) * c * c - 2.0
    return RangeInterval(lo, hi)


def admissible_offset_intervals(theta: float, r: float) -> tuple:
    """Offset intervals where the rotated, shifted operator fails invertibility.

    Returns the pair (I1, I2) with
      I1 = [max(r - cos, sec), r + cos]    (vertex-exterior case),
      I2 = [r - cos, min(sqrt(1 + (r/sin)^2), sec)]   (vertex-interior case),
    in first-quadrant reduction; sec and the sine bound are taken as +inf at
    cos theta = 0 and sin theta = 0 respectively (their pointwise limits).
    The maximum of the union is the support function wherever it exceeds 1.
    """
    _check_radius(r)
    if not math.isfinite(theta):
        raise ValueError(f"theta must be finite, got {theta}")
    c = abs(math.cos(theta))
    s = abs(math.sin(theta))
    sec = 1.0 / c if c > 0.0 else math.inf
    # hypot survives r/s overflowing to inf near the axis
    sine_bound = math.hypot(1.0, r / s) if s > 0.0 else math.inf
    first = RangeInterval(max(r - c, sec), r + c)
    second = RangeInterval(r - c, min(sine_bound, sec))
    return first, second


def _libm(fn, x: np.ndarray, y) -> np.ndarray:
    """``fn(x, y)`` by C ``pow`` or ``hypot`` per element, shaped as x; y may be a float.

    These are what Python's float ``**`` and ``math.hypot`` compute.  numpy
    squares by x * x and has its own pow and hypot, which can differ in the
    last bit, and the boundary CSV and the frozen ellipse gap keep every bit.
    """
    ys = y.ravel().tolist() if isinstance(y, np.ndarray) else repeat(y)
    return np.fromiter(map(fn, x.ravel().tolist(), ys), float, x.size).reshape(x.shape)


def _sextic_points(c: np.ndarray, s: np.ndarray, r: float) -> tuple:
    """The envelope points (x, y) of :func:`sextic_envelope` from c = cos and s = sin, unchecked."""
    p = np.sqrt(1.0 + _libm(math.pow, r / s, 2.0))
    dp = -(r * r) * c / (_libm(math.pow, s, 3.0) * p)
    return p * c - dp * s, p * s + dp * c


def sextic_envelope(thetas, r: float) -> tuple:
    """Sextic-regime envelope point of the supporting line at each angle.

    There p = sqrt(1 + (r / sin)^2) and p' = -r^2 cos / (sin^3 p), and the
    envelope (p cos - p' sin, p sin + p' cos) is returned as the arrays
    (x, y), or as two floats for a scalar angle.  Defined wherever
    sin theta != 0: outside the sextic regime it traces the part of the
    sextic curve that is not on the boundary.  A non-finite angle, or a
    scalar r outside [0, sqrt(DBL_MAX)], raises ValueError; below that limit
    C ``pow`` still overflows wherever r / |sin theta| exceeds sqrt(DBL_MAX).
    """
    _check_radius(r)
    angles = np.asarray(thetas, dtype=float)
    if not np.isfinite(angles).all():
        raise ValueError("theta must be finite")
    thetas = np.atleast_1d(angles)
    x, y = _sextic_points(np.cos(thetas), np.sin(thetas), r)
    if angles.ndim == 0:
        return float(x[0]), float(y[0])
    return x, y


def envelope_points(thetas, r: float) -> BoundaryCurve:
    """Boundary points where the supporting lines at the angles thetas touch.

    The envelope of the family x cos + y sin = p(theta) is
    (p cos - p' sin, p sin + p' cos).  On the circle regime (|cos theta| at
    least the switching cosine; ties go to the circles) this reduces to
    (+-1 + r cos, r sin); on the sextic regime it is :func:`sextic_envelope`.
    A scalar angle gives one point: floats and a :class:`Branch`.  Requires
    finite angles and a finite r > 0 (see :class:`UnitDiskDegeneracyError`
    for the r = 0 case).
    """
    if not (r > 0 and math.isfinite(r)):
        raise ValueError(f"r must be positive and finite, got {r}")
    angles = np.asarray(thetas, dtype=float)
    if not np.isfinite(angles).all():
        raise ValueError("theta must be finite")
    thetas = np.atleast_1d(angles)
    c = np.cos(thetas)
    s = np.sin(thetas)
    circle = np.abs(c) >= switching_cosine(r)
    right = c >= 0.0
    x = np.where(right, 1.0, -1.0) + r * c
    y = r * s
    x[~circle], y[~circle] = _sextic_points(c[~circle], s[~circle], r)
    branch = np.where(
        circle,
        np.where(right, Branch.CIRCLE_RIGHT, Branch.CIRCLE_LEFT),
        np.where(s > 0.0, Branch.SEXTIC_UPPER, Branch.SEXTIC_LOWER),
    )
    if angles.ndim == 0:
        return BoundaryCurve(float(thetas[0]), float(x[0]), float(y[0]), branch[0])
    return BoundaryCurve(thetas, x, y, branch)


# Single transcription: the float evaluator walks the exact term table.
_SEXTIC_TERMS = tuple(
    (eu, ev, er, float(coeff))
    for (eu, ev, er), coeff in sorted(exact.sextic_polynomial().terms.items())
)


def _fold_monomials(step, u, v, r):
    """Fold ``step(acc, monomial)`` over the sextic's terms at (u, v, r), in table order."""
    u, v, r = (np.asarray(z, dtype=float) for z in (u, v, r))
    acc = np.zeros(np.broadcast(u, v, r).shape)
    for eu, ev, er, coeff in _SEXTIC_TERMS:
        acc = step(acc, coeff * u**eu * v**ev * r**er)
    return float(acc) if acc.ndim == 0 else acc


def sextic_value(u, v, r):
    """Implicit sextic evaluated at (u, v) = (x^2, y^2); scalars or arrays.

    Evaluates the same integer term table as the exact-arithmetic
    polynomial, so the two routes agree to rounding error.  A scalar r
    outside [0, sqrt(DBL_MAX)] raises ValueError; r^6 overflows from ~1e51.
    """
    _check_radius(r)
    return _fold_monomials(np.add, u, v, r)


def sextic_scale(u, v, r):
    """Largest monomial magnitude of the sextic at (u, v, r).

    Natural normalizer for residuals: the coefficients span several orders
    of magnitude, so raw residuals are only meaningful relative to this.
    Takes r as :func:`sextic_value` does, and overflows where it does.
    """
    _check_radius(r)
    return _fold_monomials(lambda scale, term: np.maximum(scale, np.abs(term)), u, v, r)


def boundary_curve(r: float, samples: int) -> BoundaryCurve:
    """Closed, positively oriented polygonal sampling of the boundary.

    Sweeps theta over [-pi, pi) on a uniform grid and returns the envelope
    points in order, as arrays; the polygon closes by wrap-around.  The
    branch tag changes exactly four times along the sweep (at the switching
    points) and the polygon is convex up to rounding.
    """
    if r == 0:
        raise UnitDiskDegeneracyError(
            "r = 0: the numerical range is the open unit disk; "
            "sample the unit circle directly"
        )
    if samples < 8:
        raise ValueError(f"need at least 8 samples, got {samples}")
    return envelope_points(angle_grid(samples), r)


# The membership grid, built once at import: 720 angles with their cosines,
# |cosines| and sines, about 23 KB, so a query does no trig
_MEMBERSHIP_THETAS = angle_grid(720)
_MEMBERSHIP_COS = np.cos(_MEMBERSHIP_THETAS)
_MEMBERSHIP_ABS_COS = np.abs(_MEMBERSHIP_COS)
_MEMBERSHIP_SIN = np.sin(_MEMBERSHIP_THETAS)


def membership_tolerance(r: float) -> float:
    """Default boundary-band half-width for :func:`classify_point`.

    The support score of a true boundary point dips below zero by at most
    (curvature radius) * (half grid spacing)^2 / 2 when its touching
    direction falls between grid angles; (1 + r) (2 pi / 720)^2 covers that
    with a comfortable margin on the 720-angle grid.
    """
    return (1.0 + r) * (2.0 * math.pi / _MEMBERSHIP_THETAS.size) ** 2


def classify_point(x: float, y: float, r: float, tol: float | None = None) -> Region:
    """Classify a point against the region via its supporting half-planes.

    Computes s(theta) = x cos + y sin - support_function(theta, r) over the
    720 uniformly spaced angles of :func:`angle_grid`, from their cosines
    and sines computed once at import and support_function's own kernel,
    so the scores equal support_function's bit for bit: exterior if
    max s > tol, boundary if |max s| <= tol, interior otherwise.  ``tol``
    defaults to :func:`membership_tolerance`; a negative or non-finite one
    raises ValueError.
    """
    if not (math.isfinite(x) and math.isfinite(y) and math.isfinite(r)):
        raise ValueError(f"x, y and r must be finite, got ({x}, {y}, {r})")
    if tol is None:
        tol = membership_tolerance(r)
    elif not (math.isfinite(tol) and tol >= 0):
        raise ValueError(f"tol must be finite and nonnegative, got {tol}")
    support = _support(_MEMBERSHIP_ABS_COS, _MEMBERSHIP_SIN, r, switching_cosine(r))
    scores = x * _MEMBERSHIP_COS + y * _MEMBERSHIP_SIN - support
    top = float(np.max(scores))
    if top > tol:
        return Region.EXTERIOR
    if top >= -tol:
        return Region.BOUNDARY
    return Region.INTERIOR


def ellipse_axes(r: float) -> tuple:
    """Half-axes (1 + r, sqrt(1 + r^2)) of the comparison ellipse.

    The minor half-axis is the top-of-range offset sqrt(1 + r^2); the major
    half-axis is fixed to the numerical radius 1 + r so the ellipse touches
    the true boundary at all four axis extremes.
    """
    _check_radius(r)
    return 1.0 + r, math.sqrt(1.0 + r * r)


def ellipse_distance(x, y, a_axis: float, b_axis: float):
    """Euclidean distance from points to the ellipse (x/a)^2 + (y/b)^2 = 1.

    Accepts scalars or arrays.  Robust first-quadrant reduction: points on
    an axis have closed forms, and every other point solves its projection
    equation by bisection, all points at once.  A point stops moving once
    its bracket meets hi - lo <= 1e-17 max(1, |hi|), and none takes more
    than 200 steps.  Requires finite points and finite a_axis > b_axis > 0,
    which holds for the comparison ellipse at every finite r > 0.
    """
    a, b = float(a_axis), float(b_axis)
    if not (math.isfinite(a) and a > b > 0):
        raise ValueError(f"expected finite axes a > b > 0, got ({a}, {b})")
    p = np.abs(np.asarray(x, dtype=float))
    q = np.abs(np.asarray(y, dtype=float))
    if not (np.isfinite(p).all() and np.isfinite(q).all()):
        raise ValueError("the points must be finite")
    p, q = np.broadcast_arrays(p, q)
    dist = np.empty(p.shape)

    on_x = q == 0.0
    px = p[on_x]
    x0 = a * a * px / (a * a - b * b)
    y0 = b * np.sqrt(np.maximum(0.0, 1.0 - _libm(math.pow, x0 / a, 2.0)))
    far = px >= (a * a - b * b) / a
    dist[on_x] = np.where(far, np.abs(a - px), _libm(math.hypot, x0 - px, y0))

    # The evolute's y-extent is negative for a > b, so the nearest point to
    # any (0, q) with q >= 0 is the vertex (0, b).
    on_y = (p == 0.0) & ~on_x
    dist[on_y] = np.abs(b - q[on_y])

    rest = ~(on_x | on_y)
    p, q = p[rest], q[rest]
    lo = -b * b + b * q
    hi = -b * b + _libm(math.hypot, a * p, b * q)
    moving = np.arange(p.size)
    for _ in range(200):
        old_lo, old_hi = lo[moving], hi[moving]
        mid = 0.5 * (old_lo + old_hi)
        u = a * p[moving] / (mid + a * a)
        v = b * q[moving] / (mid + b * b)
        f = u * u + v * v - 1.0
        # u * u and C pow differ by at most 1.5 ulp (pow is within one), so
        # f moves by at most about 5.6e-16 (u^2 + v^2).  Where that could
        # flip its sign, take pow: every step is then the one pow takes.
        near = np.abs(f) <= 2e-15 * (u * u + v * v)
        f[near] = _libm(math.pow, u[near], 2.0) + _libm(math.pow, v[near], 2.0) - 1.0
        lo[moving] = new_lo = np.where(f > 0.0, mid, old_lo)
        hi[moving] = new_hi = np.where(f > 0.0, old_hi, mid)
        stopped = new_hi - new_lo <= 1e-17 * np.maximum(1.0, np.abs(new_hi))
        # Once mid rounds to an end the step leaves the bracket unchanged or
        # closes it, so stopping there gives the tau of all 200 steps.
        stopped |= (mid == old_lo) | (mid == old_hi)
        moving = moving[~stopped]
        if not moving.size:
            break
    tau = 0.5 * (lo + hi)
    x0 = a * a * p / (tau + a * a)
    y0 = b * b * q / (tau + b * b)
    dist[rest] = _libm(math.hypot, x0 - p, y0 - q)
    if dist.ndim == 0:
        return float(dist)
    return dist


def ellipse_gap(r: float, samples: int) -> tuple:
    """Largest deviation of the boundary from the comparison ellipse.

    Sweeps :func:`boundary_curve` and measures the unsigned distance of each
    point to the ellipse of :func:`ellipse_axes`; returns (max_gap,
    argmax_theta), the first angle of the sweep attaining the maximum.  The
    gap vanishes at the axis extremes by construction and is strictly
    positive for every r > 0: the region is not an elliptical disk.
    """
    if r == 0:
        raise UnitDiskDegeneracyError(
            "r = 0: the numerical range is the unit disk and the comparison "
            "ellipse coincides with it; the gap is identically zero"
        )
    if samples < 100:
        raise ValueError(f"need at least 100 samples, got {samples}")
    curve = boundary_curve(r, samples)
    gaps = ellipse_distance(curve.x, curve.y, *ellipse_axes(r))
    best = int(np.argmax(gaps))
    return float(gaps[best]), float(curve.theta[best])
