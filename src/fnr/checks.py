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
    for lam in (1.05, 1.2, 1.7, 2.5):
        for theta in np.linspace(0.0, math.pi / 2.0, 25):
            closed = boundary.symbol_range(lam, float(theta))
            probe = truncation.symbol_range_grid(lam, float(theta), 100_000)
            worst = max(worst, abs(closed.lo - probe.lo), abs(closed.hi - probe.hi))
    results.append(_leq("symbol-range-bruteforce", worst, 1e-8))

    points = boundary.boundary_curve(r, max(grid, 720))
    sextic_pts = [p for p in points if not p.branch.is_circle]
    u = np.array([p.x * p.x for p in sextic_pts])
    v = np.array([p.y * p.y for p in sextic_pts])
    residual = np.abs(boundary.sextic_value(u, v, r)) / boundary.sextic_scale(u, v, r)
    results.append(_leq("envelope-on-sextic", float(np.max(residual)), tol.envelope))

    worst = 0.0
    for p in points:
        if p.branch.is_circle:
            centre = 1.0 if p.branch is boundary.Branch.CIRCLE_RIGHT else -1.0
            worst = max(worst, abs((p.x - centre) ** 2 + p.y**2 - r * r))
    results.append(_leq("envelope-on-circle", worst, tol.algebraic))

    xs = np.array([p.x for p in points])
    ys = np.array([p.y for p in points])
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


def truncation_checks(
    a: complex,
    level: int,
    tol: Tolerances,
    angles: int = 72,
    dual_angles: int = 24,
) -> list:
    """Oracle suite: compressions against closed forms, both routes."""
    results = []
    r = abs(a) / 2.0
    thetas = boundary.angle_grid(angles)

    levels = [max(level // 8, 2), max(level // 4, 3), max(level // 2, 4), level]
    gaps = []
    bound_violation = 0.0
    for n in levels:
        measured = [truncation.top_eigenvalue(float(th), a, n) for th in thetas]
        closed = boundary.support_function(thetas, r)
        delta = closed - np.asarray(measured)
        gaps.append(float(np.max(delta)))
        bound_violation = max(bound_violation, float(np.max(-delta)))
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
    worst = 0.0
    for theta in np.linspace(-math.pi, math.pi, 13):
        straight = truncation.top_eigenvalue(float(theta), abs(a), probe_level)
        rotated = truncation.top_eigenvalue(float(theta), phase * abs(a), probe_level)
        worst = max(worst, abs(straight - rotated))
    results.append(_leq("phase-invariance", worst, 1e-10))

    worst = 0.0
    for rr in (0.25, 0.5, 1.0):
        for theta in np.linspace(0.0, math.pi / 2.0, dual_angles):
            via = truncation.support_function_via_condition(float(theta), rr)
            worst = max(worst, abs(via - boundary.support_function(float(theta), rr)))
    results.append(_leq("dual-route", worst, tol.dual_route))

    return results


def ellipse_check(r: float, samples: int) -> CheckResult:
    """The boundary must depart from the comparison ellipse for r > 0."""
    gap, _ = boundary.ellipse_gap(r, samples)
    return CheckResult(
        "ellipse-gap-positive",
        gap,
        ELLIPSE_GAP_THRESHOLD,
        bool(gap > ELLIPSE_GAP_THRESHOLD),
    )


def resultant_check(r: Fraction, seed: int, degree_bound: int = 28) -> CheckResult:
    """Divisibility certificate outcome folded into a check record."""
    report = exact.verify_sextic_resultant_identity(r, degree_bound=degree_bound, seed=seed)
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
