"""Named verification checks orchestrated by ``fnr verify``, and their bounds.

Each check measures one quantity (a worst-case residual, gap or deviation),
compares it against its tolerance and reports a named pass/fail record; the
CLI serializes the records to JSON.  The bounds are fixed: the named ones are
module constants here (``envelope-on-circle`` holds ``ALGEBRAIC_SLACK`` times
max(1, r^2)), while ``dual-route`` is held to ``truncation.OFFSET_STEP`` and
``compression-bound``, ``phase-invariance`` and ``symbol-range-bruteforce`` to
literal bounds (1e-10, 1e-10 and 1e-8).  Every
grid lives here too: the closed-form and degenerate suites sample 720 angles,
and the ellipse check 2000 boundary points.  The closed-form suite exercises the
internal consistency of :mod:`fnr.boundary`; the truncation suite plays the
matrix compressions of :mod:`fnr.truncation` against the closed forms; the
ellipse check quantifies the failure of the elliptical-disk description.  The
exact route's certificate runs under ``fnr resultant``, not here.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from . import boundary, exact, truncation

__all__ = [
    "CheckResult",
    "closedform_checks",
    "truncation_checks",
    "ellipse_check",
    "degenerate_checks",
]

ELLIPSE_GAP_THRESHOLD = 1e-3
"""Positivity threshold for the ellipse deviation; the measured gap at
r = 0.5 is about 9.84e-2, nearly two orders of magnitude above it."""

SUPPORT_SLACK = 1e-10
"""Slack for the supporting half-plane inequalities."""

CONVEXITY_SLACK = 1e-10
"""Slack for cross products of consecutive boundary edges."""


ALGEBRAIC_SLACK = 1e-12
"""Absolute slack for closed-form identities evaluated in floats (branch
continuity, interval consistency); the circle equations, of size r^2, take it
times max(1, r^2) (see :func:`closedform_checks`)."""

ENVELOPE_SLACK = 1e-8
"""Relative slack for the sextic residual at envelope points: the residual is
taken relative to its largest monomial, because the curve's coefficients span
several orders of magnitude at moderate radii."""

CONVERGENCE_BOUND = 5e-3
"""Largest admissible support gap of the level-400 truncation."""


class CheckResult(NamedTuple):
    name: str
    measured: float
    tolerance: float
    passed: bool

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "measured": self.measured,
            "tolerance": self.tolerance,
            "pass": self.passed,
        }


def _leq(name: str, measured: float, tolerance: float) -> CheckResult:
    return CheckResult(name, float(measured), float(tolerance), bool(measured <= tolerance))


def closedform_checks(r: float) -> list:
    """Internal-consistency suite for the closed-form geometry at radius r, on 720 angles.

    ``envelope-on-circle`` is held to ``ALGEBRAIC_SLACK * max(1, r^2)``.  Its
    residual (x - c)^2 + y^2 - r^2 at a circle point x = c + r cos, y = r sin,
    c = +-1, is a rounding error of quantities of size up to r^2.  With unit
    roundoff u = 2^-53 and cos, sin within an ulp: cos^2 + sin^2 = 1 + eta,
    |eta| <= 5u, costs r^2 |eta|; x, rounded twice, and x - c carry an
    absolute error of at most u (1 + 3r), which the square makes
    2r u (1 + 3r); y carries r u, which its square makes 2 r^2 u; and the
    roundings of the two squares, their sum and r * r add 4 r^2 u (the last
    subtraction is exact, its operands being that close).  So the residual
    is at most u (17 r^2 + 2r) <= 19 u max(1, r^2), about 2.1e-15 max(1, r^2),
    to first order in u: a rounding of r^2, which an absolute bound fails
    from r = 64 on (two ulps of 4096 exceed 1e-12).  At r <= 1 the bound is
    ``ALGEBRAIC_SLACK`` itself.
    """
    results = []
    thetas = boundary.angle_grid(720)
    values = boundary.support_function(thetas, r)

    sym = np.max(np.abs(values - boundary.support_function(-thetas, r)))
    sym = max(sym, np.max(np.abs(values - boundary.support_function(math.pi - thetas, r))))
    results.append(_leq("support-symmetry", sym, ALGEBRAIC_SLACK))

    results.append(_leq("support-floor", 1.0 - float(np.min(values)), ALGEBRAIC_SLACK))

    shrink = boundary.support_function(thetas, r * 0.5) - values
    results.append(_leq("support-monotone-r", float(np.max(shrink)), ALGEBRAIC_SLACK))

    worst = 0.0
    for rr in (0.1, 0.25, 0.5, 1.0, 2.0, 5.0):
        cut = boundary.switching_cosine(rr)
        circle = rr + cut
        sextic = math.sqrt(1.0 + rr * rr / (1.0 - cut * cut))
        worst = max(worst, abs(circle - sextic))
    results.append(_leq("switching-continuity", worst, ALGEBRAIC_SLACK))

    worst = 0.0
    for theta in np.linspace(0.0, math.pi / 2.0, 181):
        top = max(iv.hi for iv in boundary.admissible_offset_intervals(theta, r) if not iv.empty)
        if top > 1.0:
            worst = max(worst, abs(top - boundary.support_function(float(theta), r)))
    results.append(_leq("interval-consistency", worst, ALGEBRAIC_SLACK))

    worst = 0.0
    lams = (1.05, 1.2, 1.7, 2.5)
    angles = np.linspace(0.0, math.pi / 2.0, 25)
    grid_lo, grid_hi = truncation.symbol_range_grid(np.array(lams), angles)
    for i, theta in enumerate(angles.tolist()):
        for j, lam in enumerate(lams):
            closed = boundary.symbol_range(lam, theta)
            worst = max(worst, abs(closed.lo - grid_lo[i, j]), abs(closed.hi - grid_hi[i, j]))
    results.append(_leq("symbol-range-bruteforce", worst, 1e-8))

    _, xs, ys, branch = boundary.boundary_curve(r, 720)
    right = branch == boundary.Branch.CIRCLE_RIGHT
    circle = right | (branch == boundary.Branch.CIRCLE_LEFT)
    u = xs[~circle] * xs[~circle]
    v = ys[~circle] * ys[~circle]
    residual = np.abs(boundary.sextic_value(u, v, r)) / boundary.sextic_scale(u, v, r)
    results.append(_leq("envelope-on-sextic", float(np.max(residual)), ENVELOPE_SLACK))

    centre = np.where(right, 1.0, -1.0)[circle]
    worst = np.max(np.abs((xs[circle] - centre) ** 2 + ys[circle] ** 2 - r * r), initial=0.0)
    results.append(_leq("envelope-on-circle", worst, ALGEBRAIC_SLACK * max(1.0, r * r)))

    # 64 boundary points at a time: a whole 720 x 720 table would set the suite's memory peak
    cos, sin = np.cos(thetas), np.sin(thetas)
    margins = [
        np.max(np.outer(xs[k : k + 64], cos) + np.outer(ys[k : k + 64], sin) - values)
        for k in range(0, xs.size, 64)
    ]
    results.append(_leq("support-consistency", float(np.max(margins)), SUPPORT_SLACK))

    edges_x = np.roll(xs, -1) - xs
    edges_y = np.roll(ys, -1) - ys
    cross = edges_x * np.roll(edges_y, -1) - edges_y * np.roll(edges_x, -1)
    results.append(_leq("convexity", float(-np.min(cross)), CONVEXITY_SLACK))

    worst = 0.0
    polynomial = exact.sextic_polynomial()
    for rr in (Fraction(1, 2), Fraction(1, 3), Fraction(2)):
        value = polynomial.evaluate({"u": 0, "v": 1 + rr * rr, "r": rr})
        worst = max(worst, abs(float(value)))
    results.append(_leq("sextic-top-vertex-exact", worst, 0.0))

    return results


def truncation_checks(a: complex, level: int) -> list:
    """Oracle suite: compressions against closed forms, both routes.

    The compressions are measured in one call: on 72 angles at four levels up
    to ``level``, and on 13 probe angles for two phases of ``a``.  The
    condition route runs at 24 angles of the first quadrant, in one call for
    each of three radii.
    """
    results = []
    r = abs(a) / 2.0
    thetas = boundary.angle_grid(72)
    levels = np.array([max(level // 8, 2), max(level // 4, 3), max(level // 2, 4), level])
    phase = complex(math.cos(math.pi / 7.0), math.sin(math.pi / 7.0))
    probes = np.linspace(-math.pi, math.pi, 13)
    parts = (
        np.broadcast_arrays(thetas, a, levels[:, None]),
        np.broadcast_arrays(probes, np.array([abs(a), phase * abs(a)])[:, None], min(level, 100)),
    )
    columns = (np.concatenate([x.ravel() for x in arg]) for arg in zip(*parts))
    tops = truncation.top_eigenvalue(*columns)
    split = levels.size * thetas.size
    deltas = boundary.support_function(thetas, r) - tops[:split].reshape(levels.size, -1)
    straight, rotated = tops[split:].reshape(2, -1)

    gaps = [float(np.max(delta)) for delta in deltas]
    bound_violation = max(0.0, *(float(np.max(-delta)) for delta in deltas))
    results.append(_leq("compression-bound", bound_violation, 1e-10))
    decreasing = all(gaps[i + 1] < gaps[i] for i in range(len(gaps) - 1))
    results.append(
        CheckResult(
            "compression-convergence",
            gaps[-1],
            CONVERGENCE_BOUND,
            bool(decreasing and gaps[-1] < CONVERGENCE_BOUND),
        )
    )
    results.append(_leq("phase-invariance", float(np.max(np.abs(straight - rotated))), 1e-10))

    worst = 0.0
    angles = np.linspace(0.0, math.pi / 2.0, 24)
    for rr in (0.25, 0.5, 1.0):
        via = truncation.support_function_via_condition(angles, rr)
        worst = max(worst, float(np.max(np.abs(via - boundary.support_function(angles, rr)))))
    results.append(_leq("dual-route", worst, truncation.OFFSET_STEP))

    return results


def ellipse_check(r: float) -> CheckResult:
    """The boundary must depart from the comparison ellipse for r > 0.

    The gap, measured at 2000 boundary samples, must exceed
    ``min(ELLIPSE_GAP_THRESHOLD, 0.1 r)``.  An absolute threshold cannot hold
    at small r, because the gap itself shrinks like r: the ellipse's major
    half-axis is 1 + r, while away from the real axis the sextic arc lies
    within O(r^2 / sin^2 theta) of the unit circle, so the gap tends to r as
    r -> 0.  At those 2000 samples, gap / r is 0.859 at
    r = 1e-2, 0.955 at 1e-3 and 0.9986 at 1e-6, so 0.1 r leaves a margin of at
    least 8.6 below r = 0.01.  From r = 0.01 up, 0.1 r >= 1e-3 and the
    threshold is the absolute one.
    """
    gap, _ = boundary.ellipse_gap(r, 2000)
    threshold = min(ELLIPSE_GAP_THRESHOLD, 0.1 * r)
    return CheckResult("ellipse-gap-positive", gap, threshold, bool(gap > threshold))


def degenerate_checks() -> list:
    """Unit-disk case r = 0: constant support function on 720 angles and documented refusals."""
    thetas = boundary.angle_grid(720)
    values = boundary.support_function(thetas, 0.0)
    results = [_leq("support-constant-one", float(np.max(np.abs(values - 1.0))), 0.0)]
    refused = 0
    for call in (
        lambda: boundary.boundary_curve(0.0, 1000),
        lambda: boundary.ellipse_gap(0.0, 1000),
    ):
        try:
            call()
        except boundary.UnitDiskDegeneracyError:
            refused += 1
    try:
        exact.verify_sextic_resultant_identity(0)
    except ValueError:
        refused += 1
    results.append(_leq("degenerate-refusals", float(3 - refused), 0.0))
    return results
