"""Acceptance criteria, one test per criterion, each printing a verdict line.

Every criterion runs at its stated tolerance; the suite is the contract for
the whole package.  Expected runtimes are noted where they are not trivial
(the level-400 ellipse cross-check is the long pole at about twelve seconds).
"""

import csv
import math
import xml.etree.ElementTree as ET
from fractions import Fraction as Q

import numpy as np

from fnr import (
    Branch,
    Region,
    UnitDiskDegeneracyError,
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
    support_function_via_condition,
    switching_cosine,
    top_eigenvalue,
)
from fnr.cli import main
from fnr.exact import (
    mutated_sextic,
    resultant_at,
    sextic_polynomial,
    verify_sextic_resultant_identity,
)
from fnr.truncation import boundary_from_truncation

FROZEN_ELLIPSE_GAP = 0.09842444710573406


def _verdict(capsys, number: int, name: str, passed: bool) -> None:
    with capsys.disabled():
        print(f"[acceptance] criterion {number:2d} ({name}): {'PASS' if passed else 'FAIL'}")
    assert passed, f"criterion {number} ({name}) failed"


def test_criterion_01_numerical_radius(capsys):
    passed = all(
        abs(support_function(0.0, r) - (1.0 + r)) <= 1e-15
        for r in (0.0, 0.25, 0.5, 1.0, 2.0)
    )
    _verdict(capsys, 1, "numerical radius 1 + r", passed)


def test_criterion_02_minor_axis_point(capsys):
    floats_ok = all(
        abs(support_function(math.pi / 2.0, r) - math.sqrt(1.0 + r * r)) <= 1e-15
        for r in (0.25, 0.5, 1.0, 2.0)
    )
    sextic = sextic_polynomial()
    exact_ok = all(
        sextic.evaluate({"u": 0, "v": 1 + r * r, "r": r}) == 0
        for r in (Q(1, 2), Q(1, 3), Q(2))
    )
    _verdict(capsys, 2, "minor-axis point sqrt(1+r^2)", floats_ok and exact_ok)


def test_criterion_03_switching_continuity(capsys):
    worst = 0.0
    for r in (0.1, 0.25, 0.5, 1.0, 2.0, 5.0):
        cut = switching_cosine(r)
        circle = r + cut
        sextic = math.sqrt(1.0 + r * r / (1.0 - cut * cut))
        worst = max(worst, abs(circle - sextic))
    _verdict(capsys, 3, "branch agreement at the switching cosine", worst <= 1e-12)


def test_criterion_04_envelope_on_curve(capsys):
    r = 0.5
    cut_angle = math.acos(switching_cosine(r))

    worst_sextic = 0.0
    for half in (1.0, -1.0):
        for k in range(1000):
            theta = half * (cut_angle + (math.pi - 2 * cut_angle) * (k + 0.5) / 1000)
            point = envelope_point(theta, r)
            u, v = point.x**2, point.y**2
            worst_sextic = max(
                worst_sextic, abs(sextic_value(u, v, r)) / sextic_scale(u, v, r)
            )

    worst_circle = 0.0
    for point in boundary_curve(r, 2000):
        if point.branch.is_circle:
            centre = 1.0 if point.branch is Branch.CIRCLE_RIGHT else -1.0
            worst_circle = max(
                worst_circle, abs((point.x - centre) ** 2 + point.y**2 - r * r)
            )

    _verdict(capsys, 4,
        "envelope points on sextic (1e-8 rel) and circles (1e-12)",
        worst_sextic <= 1e-8 and worst_circle <= 1e-12,
    )


def test_criterion_05_oracle_convergence(capsys):
    # Runtime: the level-400 sweep dominates, under a minute in total.
    thetas = angle_grid(72)
    closed = support_function(thetas, 0.5)
    gaps = []
    for level in (50, 100, 200, 400):
        measured = np.array([top_eigenvalue(float(t), 1.0, level) for t in thetas])
        gaps.append(float(np.max(closed - measured)))
    decreasing = all(gaps[i + 1] < gaps[i] for i in range(3))
    _verdict(capsys, 5,
        f"truncation convergence, gaps {['%.2e' % g for g in gaps]}",
        decreasing and gaps[-1] < 5e-3,
    )


def test_criterion_06_dual_route_support(capsys):
    # Runtime: under a second for 72 scans; the chord certificate leaves only
    # a few dozen of each scan's 10^4 offsets to evaluate.
    worst = 0.0
    for r in (0.25, 0.5, 1.0):
        for theta in np.linspace(0.0, math.pi / 2.0, 24):
            via = support_function_via_condition(float(theta), r)
            worst = max(worst, abs(via - support_function(float(theta), r)))
    _verdict(capsys, 6, "condition-scan route matches closed form to 1e-4", worst <= 1e-4)


def test_criterion_07_ellipse_gap(capsys):
    # The frozen value was cross-checked against the level-400 truncation
    # boundary: its maximal ellipse distance is 9.8409e-2, within the
    # compression gap of the closed-form 9.8424e-2.
    gap, _ = ellipse_gap(0.5, 2000)
    _verdict(capsys, 7,
        "boundary departs from the comparison ellipse",
        gap > 1e-3 and abs(gap - FROZEN_ELLIPSE_GAP) <= 1e-12,
    )


def test_criterion_08_resultant_reproduction(capsys):
    # Runtime: a few seconds per radius at degree bound 28.
    ok = True
    for r in (Q(1, 2), Q(1, 3), Q(2)):
        report = verify_sextic_resultant_identity(r, degree_bound=28, seed=1)
        ok = ok and report.success and not report.holdout_failures
    mutated = verify_sextic_resultant_identity(
        Q(1, 2), degree_bound=28, seed=1, sextic=mutated_sextic()
    )
    ok = ok and (not mutated.success) and mutated.holdout_failures
    _verdict(capsys, 8, "sextic is the resultant (certificate + mutation)", bool(ok))


def test_criterion_09_figures(tmp_path, capsys):
    code_lines = main(["support-lines", "--r", "0.5", "--out", str(tmp_path)])
    code_boundary = main(["boundary", "--r", "0.5", "--out", str(tmp_path)])
    capsys.readouterr()
    ok = code_lines == 0 and code_boundary == 0

    lines_root = ET.parse(tmp_path / "support_lines.svg").getroot()
    line_count = sum(1 for e in lines_root.iter() if e.get("class") == "support-line")
    ok = ok and line_count == 720

    boundary_root = ET.parse(tmp_path / "boundary.svg").getroot()
    counts = {}
    for element in boundary_root.iter():
        cls = element.get("class")
        if cls:
            counts[cls] = counts.get(cls, 0) + 1
    ok = ok and counts.get("boundary") == 1
    ok = ok and counts.get("aux-circle") == 2
    ok = ok and counts.get("switch-marker") == 4
    ok = ok and counts.get("switch-line") == 4
    ok = ok and counts.get("aux-sextic", 0) >= 2

    rows = list(csv.DictReader(open(tmp_path / "boundary.csv")))
    transitions = sum(
        1 for i in range(len(rows)) if rows[i]["branch"] != rows[i - 1]["branch"]
    )
    ok = ok and transitions == 4

    _verdict(capsys, 9, "figure outputs match the expected structure", bool(ok))


def test_criterion_10_degenerate_unit_disk(capsys):
    thetas = np.linspace(-math.pi, math.pi, 721)
    flat = bool(np.all(support_function(thetas, 0.0) == 1.0))

    refusals = 0
    try:
        boundary_curve(0.0, 100)
    except UnitDiskDegeneracyError:
        refusals += 1
    try:
        ellipse_gap(0.0, 2000)
    except UnitDiskDegeneracyError:
        refusals += 1
    try:
        resultant_at(0, 1, 1)
    except ValueError:
        refusals += 1

    _verdict(capsys, 10, "unit-disk degeneracy handled", flat and refusals == 3)


def test_ellipse_gap_cross_check_against_truncation():
    points = boundary_from_truncation(1.0, 400, 720)
    a_axis, b_axis = ellipse_axes(0.5)
    oracle_gap = max(ellipse_distance(x, y, a_axis, b_axis) for x, y in points)
    assert abs(oracle_gap - FROZEN_ELLIPSE_GAP) <= 2e-4
    assert all(
        classify_point(x, y, 0.5, 720, tol=1e-2) is not Region.EXTERIOR
        for x, y in points
    )
