"""Acceptance criteria, one test per criterion, each printing a verdict line.

Every criterion runs at its stated tolerance; the suite is the contract for
the whole package.  Expected runtimes are noted where they are not trivial
(the level-400 ellipse cross-check, 720 angles, takes one to two seconds).
"""

import csv
import math
import xml.etree.ElementTree as ET
from fractions import Fraction as Q

import numpy as np
import pytest

from fnr.boundary import (
    Branch,
    Region,
    UnitDiskDegeneracyError,
    boundary_curve,
    classify_point,
    ellipse_axes,
    ellipse_distance,
    ellipse_gap,
    envelope_points,
    sextic_scale,
    sextic_value,
    support_function,
    switching_cosine,
)
from fnr.checks import truncation_checks
from fnr.cli import main
from fnr.exact import sextic_polynomial, verify_sextic_resultant_identity
from fnr.truncation import boundary_from_truncation

from conftest import FROZEN_ELLIPSE_GAP


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

    thetas = [
        half * (cut_angle + (math.pi - 2 * cut_angle) * (k + 0.5) / 1000)
        for half in (1.0, -1.0)
        for k in range(1000)
    ]
    sextic_arcs = envelope_points(np.array(thetas), r)
    u, v = sextic_arcs.x**2, sextic_arcs.y**2
    worst_sextic = float(np.max(np.abs(sextic_value(u, v, r)) / sextic_scale(u, v, r)))

    worst_circle = 0.0
    _, xs, ys, branches = boundary_curve(r, 2000)
    for x, y, branch in zip(xs.tolist(), ys.tolist(), branches):
        if branch in (Branch.CIRCLE_RIGHT, Branch.CIRCLE_LEFT):
            centre = 1.0 if branch is Branch.CIRCLE_RIGHT else -1.0
            worst_circle = max(worst_circle, abs((x - centre) ** 2 + y**2 - r * r))

    _verdict(capsys, 4,
        "envelope points on sextic (1e-8 rel) and circles (1e-12)",
        worst_sextic <= 1e-8 and worst_circle <= 1e-12,
    )


@pytest.fixture(scope="module")
def oracle_checks():
    """The truncation suite of ``fnr verify`` at a = 1 (r = 0.5), level 400, by name.

    Runtime: about a second.  It sweeps 72 angles at levels 50, 100, 200 and
    400 and runs 72 condition scans (three radii, 24 angles each).
    """
    return {c.name: c for c in truncation_checks(1.0, 400)}


def test_criterion_05_oracle_convergence(capsys, oracle_checks):
    # Passes when the four level gaps strictly decrease and the last is < 5e-3.
    check = oracle_checks["compression-convergence"]
    assert check.tolerance == 5e-3
    _verdict(capsys, 5,
        f"truncation convergence, level-400 gap {check.measured:.2e}",
        check.passed,
    )


def test_criterion_06_dual_route_support(capsys, oracle_checks):
    check = oracle_checks["dual-route"]
    assert check.tolerance == 1e-4
    _verdict(capsys, 6, "condition-scan route matches closed form to 1e-4", check.passed)


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
    # Runtime: about 0.1-0.3 s per radius on the certificate's fixed grid.
    ok = True
    for r in (Q(1, 2), Q(1, 3), Q(2)):
        report = verify_sextic_resultant_identity(r, seed=1)
        ok = ok and report.success and not report.holdout_failures
    mutated = verify_sextic_resultant_identity(Q(1, 2), seed=1, mutate=True)
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
        verify_sextic_resultant_identity(0)
    except ValueError:
        refusals += 1

    _verdict(capsys, 10, "unit-disk degeneracy handled", flat and refusals == 3)


def test_ellipse_gap_cross_check_against_truncation():
    points = boundary_from_truncation(1.0, 400, 720)
    a_axis, b_axis = ellipse_axes(0.5)
    oracle_gap = float(np.max(ellipse_distance(points[:, 0], points[:, 1], a_axis, b_axis)))
    assert abs(oracle_gap - FROZEN_ELLIPSE_GAP) <= 2e-4
    assert all(
        classify_point(x, y, 0.5, tol=1e-2) is not Region.EXTERIOR
        for x, y in points
    )
