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

Everything here is a pure function of its arguments; concurrent calls are
safe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import exact

__all__ = [
    "Branch",
    "Region",
    "FoguelParams",
    "SupportLine",
    "RangeInterval",
    "BoundaryPoint",
    "UnitDiskDegeneracyError",
    "angle_grid",
    "switching_cosine",
    "support_function",
    "selected_branch",
    "support_line",
    "symbol_range",
    "admissible_offset_intervals",
    "envelope_point",
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

    @property
    def is_circle(self) -> bool:
        return self in (Branch.CIRCLE_RIGHT, Branch.CIRCLE_LEFT)


class Region(Enum):
    INTERIOR = "interior"
    BOUNDARY = "boundary"
    EXTERIOR = "exterior"


@dataclass(frozen=True)
class FoguelParams:
    """Coupling strength of the operator: r = |a|/2, optionally with a itself."""

    r: float
    a: complex | None = None

    def __post_init__(self):
        if not (self.r >= 0):
            raise ValueError(f"r must be nonnegative, got {self.r}")
        if self.a is not None and abs(self.a) / 2 != self.r:
            raise ValueError(f"r = {self.r} does not equal |a|/2 = {abs(self.a) / 2}")

    @classmethod
    def from_coupling(cls, a: complex) -> "FoguelParams":
        return cls(r=abs(a) / 2, a=complex(a))


@dataclass(frozen=True)
class SupportLine:
    """Supporting line in direction theta: the set e^{i theta} (offset + i R)."""

    theta: float
    offset: float

    def __post_init__(self):
        if not math.isfinite(self.offset) or self.offset < 1.0 - 1e-12:
            raise ValueError(f"offset {self.offset} below 1: the range contains the unit disk")


@dataclass(frozen=True)
class RangeInterval:
    """Closed interval with an explicit emptiness flag (endpoints may be inf)."""

    lo: float
    hi: float
    empty: bool = False

    def __post_init__(self):
        if not self.empty and self.lo > self.hi:
            raise ValueError(f"non-empty interval with lo {self.lo} > hi {self.hi}")

    @classmethod
    def closed(cls, lo: float, hi: float) -> "RangeInterval":
        """Interval [lo, hi], flagged empty when lo > hi."""
        return cls(lo, hi, empty=bool(lo > hi))

    def contains(self, value: float, tol: float = 0.0) -> bool:
        return (not self.empty) and self.lo - tol <= value <= self.hi + tol

    @property
    def max_value(self) -> float:
        if self.empty:
            raise ValueError("empty interval has no maximum")
        return self.hi


@dataclass(frozen=True)
class BoundaryPoint:
    x: float
    y: float
    branch: Branch
    theta: float


def angle_grid(n: int) -> np.ndarray:
    """The n uniformly spaced angles -pi + 2 pi k / n, k = 0, ..., n - 1."""
    return -math.pi + 2.0 * math.pi * np.arange(n) / n


def switching_cosine(r: float) -> float:
    """|cos theta| at which the boundary switches between circle and sextic arcs.

    Equals (sqrt(4 + r^2) - r)/2; lies in (0, 1], with value 1 exactly at
    r = 0.  At this cosine both support-function branches agree, since
    c (c + r) = 1 there.
    """
    if r < 0:
        raise ValueError(f"r must be nonnegative, got {r}")
    return (math.sqrt(4.0 + r * r) - r) / 2.0


def support_function(theta, r: float):
    """Support function of the numerical range in direction theta.

    Piecewise: r + |cos theta| while |cos theta| >= switching_cosine(r),
    else sqrt(1 + (r / sin theta)^2).  Accepts a scalar angle or an ndarray;
    the value is >= 1 everywhere, symmetric under theta -> -theta and
    theta -> pi - theta, and the two branches agree at the switching cosine.
    """
    if r < 0:
        raise ValueError(f"r must be nonnegative, got {r}")
    th = np.asarray(theta, dtype=float)
    c = np.abs(np.cos(th))
    s = np.sin(th)
    cut = switching_cosine(r)
    circle = r + c
    # The sextic branch is only selected where sin is well away from 0
    # (|cos| = 1 stays in the circle regime); mask the division and let the
    # unselected branch overflow to inf harmlessly.
    safe = np.where(s == 0.0, 1.0, s)
    with np.errstate(divide="ignore", over="ignore"):
        ratio = np.where(s == 0.0, np.inf, r / safe)
        sextic = np.sqrt(1.0 + ratio * ratio)
    out = np.where(c >= cut, circle, sextic)
    if th.ndim == 0:
        return float(out)
    return out


def selected_branch(theta: float, r: float) -> Branch:
    """Boundary family supporting direction theta; ties go to the circles."""
    c = math.cos(theta)
    if abs(c) >= switching_cosine(r):
        return Branch.CIRCLE_RIGHT if c >= 0 else Branch.CIRCLE_LEFT
    return Branch.SEXTIC_UPPER if math.sin(theta) > 0 else Branch.SEXTIC_LOWER


def support_line(theta: float, params: FoguelParams) -> SupportLine:
    return SupportLine(theta=theta, offset=support_function(theta, params.r))


def symbol_range(lam: float, theta: float) -> RangeInterval:
    """Range over the unit circle of f(t) = Re t^2 + Re w^2 - 4 lam Re t Re w.

    Here w = e^{i theta}.  The range depends on theta only through
    |cos theta| (conjugating w fixes f, negating w reflects t), so the angle
    is reduced to the first quadrant.  For lam |cos theta| >= 1 the range is
    [2 cos^2 - 4 lam cos, 2 cos^2 + 4 lam cos]; otherwise the parabola's
    vertex is interior and the minimum drops to 2 (1 - lam^2) cos^2 - 2.
    Only offsets lam > 1 are meaningful (the range contains the unit disk).
    """
    if not lam > 1.0:
        raise ValueError(f"offset must exceed 1, got {lam}")
    c = abs(math.cos(theta))
    hi = 2.0 * c * c + 4.0 * lam * c
    if lam * c >= 1.0:
        lo = 2.0 * c * c - 4.0 * lam * c
    else:
        lo = 2.0 * (1.0 - lam * lam) * c * c - 2.0
    return RangeInterval.closed(lo, hi)


def admissible_offset_intervals(theta: float, r: float) -> tuple:
    """Offset intervals where the rotated, shifted operator fails invertibility.

    Returns the pair (I1, I2) with
      I1 = [max(r - cos, sec), r + cos]    (vertex-exterior case),
      I2 = [r - cos, min(sqrt(1 + (r/sin)^2), sec)]   (vertex-interior case),
    in first-quadrant reduction; sec and the sine bound are taken as +inf at
    cos theta = 0 and sin theta = 0 respectively (their pointwise limits).
    The maximum of the union is the support function wherever it exceeds 1.
    """
    if r < 0:
        raise ValueError(f"r must be nonnegative, got {r}")
    c = abs(math.cos(theta))
    s = abs(math.sin(theta))
    sec = 1.0 / c if c > 0.0 else math.inf
    # hypot survives r/s overflowing to inf near the axis
    sine_bound = math.hypot(1.0, r / s) if s > 0.0 else math.inf
    first = RangeInterval.closed(max(r - c, sec), r + c)
    second = RangeInterval.closed(r - c, min(sine_bound, sec))
    return first, second


def envelope_point(theta: float, r: float) -> BoundaryPoint:
    """Boundary point where the supporting line at angle theta touches.

    The envelope of the family x cos + y sin = p(theta) is
    (p cos - p' sin, p sin + p' cos).  On the circle regime this reduces to
    (+-1 + r cos, r sin); on the sextic regime p' = -r^2 cos/(sin^3 p).
    Requires r > 0 (see :class:`UnitDiskDegeneracyError` for the r = 0 case).
    """
    if not r > 0:
        raise ValueError(f"r must be positive, got {r}")
    c = math.cos(theta)
    s = math.sin(theta)
    branch = selected_branch(theta, r)
    if branch.is_circle:
        centre = 1.0 if branch is Branch.CIRCLE_RIGHT else -1.0
        return BoundaryPoint(centre + r * c, r * s, branch, theta)
    if s == 0.0:
        raise ValueError(f"sextic parametrization singular at theta = {theta}")
    p = math.sqrt(1.0 + (r / s) ** 2)
    dp = -(r * r) * c / (s**3 * p)
    return BoundaryPoint(p * c - dp * s, p * s + dp * c, branch, theta)


# Single transcription: the float evaluator walks the exact term table.
_SEXTIC_TERMS = tuple(
    (eu, ev, er, float(coeff))
    for (eu, ev, er), coeff in sorted(exact.sextic_polynomial().terms.items())
)


def sextic_value(u, v, r):
    """Implicit sextic evaluated at (u, v) = (x^2, y^2); scalars or arrays.

    Evaluates the same integer term table as the exact-arithmetic
    polynomial, so the two routes agree to rounding error.
    """
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    r = np.asarray(r, dtype=float)
    total = np.zeros(np.broadcast(u, v, r).shape)
    for eu, ev, er, coeff in _SEXTIC_TERMS:
        total = total + coeff * u**eu * v**ev * r**er
    if total.ndim == 0:
        return float(total)
    return total


def sextic_scale(u, v, r):
    """Largest monomial magnitude of the sextic at (u, v, r).

    Natural normalizer for residuals: the coefficients span several orders
    of magnitude, so raw residuals are only meaningful relative to this.
    """
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    r = np.asarray(r, dtype=float)
    scale = np.zeros(np.broadcast(u, v, r).shape)
    for eu, ev, er, coeff in _SEXTIC_TERMS:
        scale = np.maximum(scale, np.abs(coeff * u**eu * v**ev * r**er))
    if scale.ndim == 0:
        return float(scale)
    return scale


def boundary_curve(r: float, samples: int) -> list:
    """Closed, positively oriented polygonal sampling of the boundary.

    Sweeps theta over [-pi, pi) on a uniform grid and returns the envelope
    points in order; the polygon closes by wrap-around.  The branch tag
    changes exactly four times along the sweep (at the switching points) and
    the polygon is convex up to rounding.
    """
    if r == 0:
        raise UnitDiskDegeneracyError(
            "r = 0: the numerical range is the open unit disk; "
            "sample the unit circle directly"
        )
    if r < 0:
        raise ValueError(f"r must be nonnegative, got {r}")
    if samples < 8:
        raise ValueError(f"need at least 8 samples, got {samples}")
    return [envelope_point(theta, r) for theta in angle_grid(samples).tolist()]


def membership_tolerance(r: float, gridsize: int) -> float:
    """Default boundary-band half-width for :func:`classify_point`.

    The support score of a true boundary point dips below zero by at most
    (curvature radius) * (half grid spacing)^2 / 2 when its touching
    direction falls between grid angles; (1 + r) (2 pi / gridsize)^2 covers
    that with a comfortable margin.
    """
    return (1.0 + r) * (2.0 * math.pi / gridsize) ** 2


def classify_point(
    x: float,
    y: float,
    r: float,
    gridsize: int = 720,
    tol: float | None = None,
) -> Region:
    """Classify a point against the region via its supporting half-planes.

    Computes s(theta) = x cos + y sin - support_function(theta, r) over a
    uniform angle grid: exterior if max s > tol, boundary if |max s| <= tol,
    interior otherwise.  ``tol`` defaults to :func:`membership_tolerance`.
    """
    if gridsize < 64:
        raise ValueError(f"gridsize must be at least 64, got {gridsize}")
    if tol is None:
        tol = membership_tolerance(r, gridsize)
    thetas = angle_grid(gridsize)
    scores = x * np.cos(thetas) + y * np.sin(thetas) - support_function(thetas, r)
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
    return 1.0 + r, math.sqrt(1.0 + r * r)


def ellipse_distance(x: float, y: float, a_axis: float, b_axis: float) -> float:
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


def ellipse_gap(r: float, samples: int) -> tuple:
    """Largest deviation of the boundary from the comparison ellipse.

    Sweeps :func:`boundary_curve` and measures the unsigned distance of each
    point to the ellipse of :func:`ellipse_axes`; returns (max_gap,
    argmax_theta).  The gap vanishes at the axis extremes by construction
    and is strictly positive for every r > 0: the region is not an
    elliptical disk.
    """
    if r == 0:
        raise UnitDiskDegeneracyError(
            "r = 0: the numerical range is the unit disk and the comparison "
            "ellipse coincides with it; the gap is identically zero"
        )
    if samples < 100:
        raise ValueError(f"need at least 100 samples, got {samples}")
    a_axis, b_axis = ellipse_axes(r)
    best_gap = -1.0
    best_theta = 0.0
    for point in boundary_curve(r, samples):
        gap = ellipse_distance(point.x, point.y, a_axis, b_axis)
        if gap > best_gap:
            best_gap = gap
            best_theta = point.theta
    return best_gap, best_theta
