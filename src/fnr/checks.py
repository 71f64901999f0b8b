"""Named verification checks orchestrated by ``fnr verify``.

Each check measures one quantity (a worst-case residual, gap or deviation),
compares it against its tolerance and reports a named pass/fail record; the
CLI serializes the records to JSON.  The closed-form suite exercises the
internal consistency of :mod:`fnr.boundary`; the truncation suite plays the
matrix compressions of :mod:`fnr.truncation` against the closed forms; the
ellipse check quantifies the failure of the elliptical-disk description.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import boundary, exact, truncation
from .config import Tolerances

__all__ = [
    "CheckResult",
    "closedform_checks",
    "truncation_checks",
    "ellipse_check",
    "resultant_check",
    "degenerate_checks",
]

ELLIPSE_GAP_THRESHOLD = 1e-3
"""Positivity threshold for the ellipse deviation; the measured gap at
r = 0.5 is about 9.84e-2, nearly two orders of magnitude above it."""


@dataclass(frozen=True)
class CheckResult:
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


def closedform_checks(r: float, tol: Tolerances, grid: int = 720) -> list:
    """Internal-consistency suite for the closed-form geometry at radius r."""
    results = []
    thetas = boundary.angle_grid(grid)
    values = boundary.support_function(thetas, r)

    sym = np.max(np.abs(values - boundary.support_function(-thetas, r)))
    sym = max(sym, np.max(np.abs(values - boundary.support_function(math.pi - thetas, r))))
    results.append(_leq("support-symmetry", sym, tol.algebraic))

    results.append(_leq("support-floor", 1.0 - float(np.min(values)), tol.algebraic))

    shrink = boundary.support_function(thetas, r * 0.5) - values
    results.append(_leq("support-monotone-r", float(np.max(shrink)), tol.algebraic))

    worst = 0.0
    for rr in (0.1, 0.25, 0.5, 1.0, 2.0, 5.0):
        cut = boundary.switching_cosine(rr)
        circle = rr + cut
        sextic = math.sqrt(1.0 + rr * rr / (1.0 - cut * cut))
        worst = max(worst, abs(circle - sextic))
    results.append(_leq("switching-continuity", worst, tol.algebraic))

    worst = 0.0
    for theta in np.linspace(0.0, math.pi / 2.0, 181):
        first, second = boundary.admissible_offset_intervals(theta, r)
        candidates = [iv.max_value for iv in (first, second) if not iv.empty]
        top = max(candidates)
        if top > 1.0:
            worst = max(worst, abs(top - boundary.support_function(float(theta), r)))
    results.append(_leq("interval-consistency", worst, tol.algebraic))

    worst = 0.0
    lams = (1.05, 1.2, 1.7, 2.5)
    for theta in np.linspace(0.0, math.pi / 2.0, 25):
        probes = truncation.symbol_range_grid(np.array(lams), float(theta), 100_000)
        for lam, probe in zip(lams, probes):
            closed = boundary.symbol_range(lam, float(theta))
            worst = max(worst, abs(closed.lo - probe.lo), abs(closed.hi - probe.hi))
    results.append(_leq("symbol-range-bruteforce", worst, 1e-8))

    _, xs, ys, branch = boundary.boundary_curve(r, max(grid, 720))
    right = branch == boundary.Branch.CIRCLE_RIGHT
    circle = right | (branch == boundary.Branch.CIRCLE_LEFT)
    u = xs[~circle] * xs[~circle]
    v = ys[~circle] * ys[~circle]
    residual = np.abs(boundary.sextic_value(u, v, r)) / boundary.sextic_scale(u, v, r)
    results.append(_leq("envelope-on-sextic", float(np.max(residual)), tol.envelope))

    centre = np.where(right, 1.0, -1.0)[circle]
    worst = np.max(np.abs((xs[circle] - centre) ** 2 + ys[circle] ** 2 - r * r), initial=0.0)
    results.append(_leq("envelope-on-circle", worst, tol.algebraic))

    margins = (
        np.outer(xs, np.cos(thetas)) + np.outer(ys, np.sin(thetas)) - values[None, :]
    )
    results.append(_leq("support-consistency", float(np.max(margins)), tol.support))

    edges_x = np.roll(xs, -1) - xs
    edges_y = np.roll(ys, -1) - ys
    cross = edges_x * np.roll(edges_y, -1) - edges_y * np.roll(edges_x, -1)
    results.append(_leq("convexity", float(-np.min(cross)), tol.convexity))

    worst = 0.0
    for rr in (Fraction(1, 2), Fraction(1, 3), Fraction(2)):
        value = exact.sextic_polynomial().evaluate({"u": 0, "v": 1 + rr * rr, "r": rr})
        worst = max(worst, abs(float(value)))
    results.append(_leq("sextic-top-vertex-exact", worst, 0.0))

    return results


def truncation_checks(a: complex, level: int, tol: Tolerances) -> list:
    """Oracle suite: compressions against closed forms, both routes.

    The compressions are measured on 72 angles at four levels up to
    ``level``, in one call for the ladder; the condition scan runs at 24
    angles of the first quadrant for each of three radii.
    """
    results = []
    r = abs(a) / 2.0
    thetas = boundary.angle_grid(72)

    levels = [max(level // 8, 2), max(level // 4, 3), max(level // 2, 4), level]
    closed = boundary.support_function(thetas, r)
    deltas = closed - truncation.top_eigenvalue(thetas, a, levels)
    gaps = [float(np.max(delta)) for delta in deltas]
    bound_violation = max(0.0, *(float(np.max(-delta)) for delta in deltas))
    results.append(_leq("compression-bound", bound_violation, 1e-10))
    decreasing = all(gaps[i + 1] < gaps[i] for i in range(len(gaps) - 1))
    results.append(
        CheckResult(
            "compression-convergence",
            gaps[-1],
            tol.convergence,
            bool(decreasing and gaps[-1] < tol.convergence),
        )
    )

    phase = complex(math.cos(math.pi / 7.0), math.sin(math.pi / 7.0))
    probe_level = min(level, 100)
    probes = np.linspace(-math.pi, math.pi, 13)
    straight = truncation.top_eigenvalue(probes, abs(a), probe_level)
    rotated = truncation.top_eigenvalue(probes, phase * abs(a), probe_level)
    results.append(_leq("phase-invariance", float(np.max(np.abs(straight - rotated))), 1e-10))

    worst = 0.0
    for rr in (0.25, 0.5, 1.0):
        for theta in np.linspace(0.0, math.pi / 2.0, 24):
            via = truncation.support_function_via_condition(float(theta), rr)
            worst = max(worst, abs(via - boundary.support_function(float(theta), rr)))
    results.append(_leq("dual-route", worst, truncation.OFFSET_STEP))

    return results


def ellipse_check(r: float, samples: int) -> CheckResult:
    """The boundary must depart from the comparison ellipse for r > 0.

    The gap must exceed ``min(ELLIPSE_GAP_THRESHOLD, 0.1 r)``.  An absolute
    threshold cannot hold at small r, because the gap itself shrinks like r:
    the ellipse's major half-axis is 1 + r, while away from the real axis the
    sextic arc lies within O(r^2 / sin^2 theta) of the unit circle, so the gap
    tends to r as r -> 0.  Measured at 2000 samples, gap / r is 0.859 at
    r = 1e-2, 0.955 at 1e-3 and 0.9986 at 1e-6, so 0.1 r leaves a margin of at
    least 8.6 below r = 0.01.  From r = 0.01 up, 0.1 r >= 1e-3 and the
    threshold is the absolute one.
    """
    gap, _ = boundary.ellipse_gap(r, samples)
    threshold = min(ELLIPSE_GAP_THRESHOLD, 0.1 * r)
    return CheckResult("ellipse-gap-positive", gap, threshold, bool(gap > threshold))


def resultant_check(r: Fraction, seed: int) -> CheckResult:
    """Divisibility certificate outcome (degree bound 28) folded into a check record."""
    report = exact.verify_sextic_resultant_identity(r, seed=seed)
    return CheckResult(
        f"resultant-identity-r={r}",
        float(len(report.holdout_failures)),
        0.0,
        report.success,
    )


def degenerate_checks(grid: int = 720) -> list:
    """Unit-disk case r = 0: constant support function and documented refusals."""
    thetas = boundary.angle_grid(grid)
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
        exact.resultant_at(0, 1, 1)
    except ValueError:
        refused += 1
    results.append(_leq("degenerate-refusals", float(3 - refused), 0.0))
    return results
