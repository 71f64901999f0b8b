"""CLI behaviour, file formats, determinism and SVG structure."""

import argparse
import csv
import hashlib
import json
import math
import re
import xml.etree.ElementTree as ET
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from fnr import checks, cli, exact, render
from fnr.boundary import (
    BoundaryCurve,
    Branch,
    Region,
    angle_grid,
    boundary_curve,
    classify_point,
    support_function,
)
from fnr.cli import MAX_LEVEL, MAX_RADIUS, MAX_SAMPLES, main
from fnr.render import clip_segments, support_line_segments

SVG = "{http://www.w3.org/2000/svg}"


def _classes(root):
    counts = {}
    for element in root.iter():
        cls = element.get("class")
        if cls:
            counts[cls] = counts.get(cls, 0) + 1
    return counts


# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------


# Signed zero, the least subnormal, extremes, and values that print in exponent form.
CSV_VALUES = np.array([
    -0.0, 0.0, 5e-324, 1e-300, 1e150, math.pi, 0.1, -0.8042477193189872, 1e-5,
    -2.5e-8, 1e16, 1e17, 2.0**60, 1.7976931348623157e308, -1e-17, math.sqrt(1.25),
])


def _double_bits(values):
    return np.asarray(values, dtype=float).view(np.int64).tolist()


def test_csv_fields_round_trip_bit_for_bit():
    values = CSV_VALUES
    reversed_values = values[::-1].copy()
    branches = np.array([list(Branch)[k % 4] for k in range(values.size)], dtype=object)
    curve = BoundaryCurve(values, reversed_values, -values, branches)

    for name, text, header, columns, branch_fields in (
        (
            "lines",
            render.support_lines_csv(zip(values.tolist(), reversed_values.tolist())),
            "theta,offset",
            [values, reversed_values],
            [[]] * values.size,
        ),
        (
            "boundary",
            render.boundary_csv(curve),
            "theta,x,y,branch",
            [values, reversed_values, -values],
            [[b.value] for b in branches],
        ),
    ):
        assert text.isascii() and "\r" not in text and text.endswith("\n")
        assert "e-" in text and "e+" in text  # exponent forms are exercised
        lines = text.split("\n")
        assert lines[0] == header and lines[-1] == ""
        rows = [line.split(",") for line in lines[1:-1]]
        assert [row[len(columns):] for row in rows] == branch_fields
        for k, column in enumerate(columns):
            assert _double_bits([float(row[k]) for row in rows]) == _double_bits(column), (name, k)


def clip_segment(p0, p1, limit: float):
    """Reference: clip segment p0-p1 to the square [-limit, limit]^2 (Liang-Barsky), one at a time."""
    x0, y0 = p0
    x1, y1 = p1
    dx, dy = x1 - x0, y1 - y0
    t_lo, t_hi = 0.0, 1.0
    for delta, start in ((dx, x0), (dy, y0)):
        for sign in (1.0, -1.0):
            # sign * coordinate <= limit
            rate = sign * delta
            gap = limit - sign * start
            if rate == 0.0:
                if gap < 0.0:
                    return None
                continue
            ratio = gap / rate
            if rate > 0.0:
                t_hi = min(t_hi, ratio)
            else:
                t_lo = max(t_lo, ratio)
            if t_lo > t_hi:
                return None
    head = p0 if t_lo == 0.0 else (x0 + t_lo * dx, y0 + t_lo * dy)
    tail = p1 if t_hi == 1.0 else (x0 + t_hi * dx, y0 + t_hi * dy)
    return head, tail


def _clipped(segments):
    """A clip_segments result as one reference-style result per segment, None where not kept."""
    hx, hy, tx, ty, kept = (np.asarray(part).tolist() for part in segments)
    return [((a, b), (c, d)) if k else None for a, b, c, d, k in zip(hx, hy, tx, ty, kept)]


def _bits(clipped):
    """Every float of a clip result in hex, so -0.0 differs from 0.0 and nan equals nan."""
    return None if clipped is None else [float(z).hex() for point in clipped for z in point]


def test_clip_segment():
    assert _clipped(clip_segments([-5.0], [0.0], [5.0], [0.0], 2.0)) == [((-2.0, 0.0), (2.0, 0.0))]
    assert _clipped(clip_segments([0.0], [3.0], [0.0], [5.0], 2.0)) == [None]
    inside = _clipped(clip_segments([0.1], [0.2], [0.3], [-0.4], 2.0))
    assert inside == [((0.1, 0.2), (0.3, -0.4))]


def test_clip_segments_equals_the_reference_bit_for_bit():
    rng = np.random.default_rng(2020)
    limit = 2.0
    n = 400
    wide = rng.uniform(-3 * limit, 3 * limit, (4, n))
    inside = rng.uniform(-limit, limit, (4, n))
    outside = rng.uniform(limit, 3 * limit, (4, n)) * rng.choice([-1.0, 1.0], (1, n))
    edges = rng.choice([-limit, limit], (4, n))
    on_edge = wide.copy()  # one end exactly on a side of the square, the other anywhere
    on_edge[0, : n // 2], on_edge[3, n // 2 :] = edges[0, : n // 2], edges[3, n // 2 :]
    grid = rng.integers(-6, 7, (4, n)) * (limit / 2)  # exact ratios, ends on edges and corners
    flat = wide.copy()  # axis-parallel: rate == 0 for one pair of sides
    flat[2, : n // 2], flat[1, n // 2 :] = flat[0, : n // 2], flat[3, n // 2 :]
    point = np.repeat(rng.choice([0.0, -0.0, limit, -limit, 0.5, 2.5, -7.0], (2, n)), 2, axis=0)
    signed_zero = inside * np.array([[-0.0], [-0.0], [1.0], [1.0]])  # starts at 0.0 or -0.0
    cases = [wide, inside, outside, on_edge, grid, flat, point[[0, 2, 1, 3]], signed_zero]
    x0, y0, x1, y1 = np.hstack(cases)
    for size in (limit, 0.75):
        found = _clipped(clip_segments(x0, y0, x1, y1, size))
        ends = zip(x0.tolist(), y0.tolist(), x1.tolist(), y1.tolist())
        expected = [clip_segment((a, b), (c, d), size) for a, b, c, d in ends]
        assert [_bits(z) for z in found] == [_bits(z) for z in expected]
        assert 0 < sum(z is None for z in expected) < len(expected)


def test_support_line_segment_touches_the_offset_point():
    [segment] = _clipped(support_line_segments(np.array([0.3]), np.array([1.4]), 2.0))
    assert segment is not None
    (x0, y0), (x1, y1) = segment
    # both endpoints satisfy the line equation x cos + y sin = offset
    for x, y in ((x0, y0), (x1, y1)):
        assert abs(x * math.cos(0.3) + y * math.sin(0.3) - 1.4) <= 1e-9


def _reference_polylines(xs, ys, limit):
    """The sextic trace clipped one chord at a time, both halves.

    A polyline starts at the clipped head of a kept chord, takes the tail of
    each further kept chord, and ends at a chord whose tail is not its end or
    before a chord that is dropped.
    """
    polylines = []
    for mirror in (1.0, -1.0):
        points = [(x, mirror * y) for x, y in zip(xs.tolist(), ys.tolist())]
        run = []
        for p0, p1 in zip(points, points[1:]):
            clipped = clip_segment(p0, p1, limit)
            if clipped is None:
                if run:
                    polylines.append(run)
                run = []
                continue
            run = run or [clipped[0]]
            run.append(clipped[1])
            if clipped[1] != p1:
                polylines.append(run)
                run = []
        if run:
            polylines.append(run)
    return [" ".join(f"{x:.6f},{y:.6f}" for x, y in run) for run in polylines]


def test_sextic_polylines_break_where_the_one_chord_clip_breaks(monkeypatch):
    # A trace that leaves and re-enters the frame, crosses it, runs along
    # and ends on its edges, and repeats points; boundary_svg's frame at r = 0.5
    # is [-2, 2]^2.
    rng = np.random.default_rng(7)
    steps = rng.choice([-3.0, -2.0, -1.0, 0.0, 1.0, 2.0, 3.0], (2, 1201))
    xs, ys = np.where(rng.random((2, 1201)) < 0.5, steps, rng.uniform(-4.0, 4.0, (2, 1201)))
    monkeypatch.setattr(render, "sextic_envelope", lambda thetas, r: (xs, ys))
    svg = render.boundary_svg(0.5, boundary_curve(0.5, 90))
    found = re.findall(r'<polyline class="aux-sextic" points="([^"]*)"', svg)
    assert found == _reference_polylines(xs, ys, 2.0)
    assert len(found) > 300


@pytest.mark.parametrize("samples", [90, 2000])
def test_each_figure_clips_its_chords_in_a_fixed_number_of_calls(monkeypatch, samples):
    calls = []
    clip = render.clip_segments

    def counted(*ends):
        calls.append(np.shape(ends[0]))
        return clip(*ends)

    monkeypatch.setattr(render, "clip_segments", counted)
    thetas = angle_grid(samples)
    render.support_lines_svg(0.5, thetas, support_function(thetas, 0.5))
    assert calls == [(samples,)]  # every supporting line at once
    calls.clear()
    render.boundary_svg(0.5, boundary_curve(0.5, samples))
    assert calls == [(1200,), (1200,), (4,)]  # the two sextic halves, then the switching lines


# ---------------------------------------------------------------------------
# support-lines command
# ---------------------------------------------------------------------------


def test_support_lines_outputs(tmp_path, capsys):
    assert main(["support-lines", "--r", "0.5", "--samples", "180", "--out", str(tmp_path)]) == 0
    capsys.readouterr()

    rows = list(csv.DictReader(open(tmp_path / "support_lines.csv")))
    assert len(rows) == 180
    by_theta = {float(row["theta"]): float(row["offset"]) for row in rows}
    assert by_theta[0.0] == 1.5
    for theta, offset in by_theta.items():
        assert offset == support_function(theta, 0.5)

    root = ET.parse(tmp_path / "support_lines.svg").getroot()
    assert root.tag == f"{SVG}svg"
    assert _classes(root)["support-line"] == 180


def test_support_lines_degenerate_radius_is_flat(tmp_path, capsys):
    assert main(["support-lines", "--r", "0", "--samples", "90", "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    rows = list(csv.DictReader(open(tmp_path / "support_lines.csv")))
    assert all(float(row["offset"]) == 1.0 for row in rows)


# ---------------------------------------------------------------------------
# boundary command
# ---------------------------------------------------------------------------


def test_boundary_outputs(tmp_path, capsys):
    assert main(["boundary", "--r", "0.5", "--out", str(tmp_path)]) == 0
    capsys.readouterr()

    rows = list(csv.DictReader(open(tmp_path / "boundary.csv")))
    assert len(rows) == 720
    assert [row["branch"] for row in rows].count("circle-right") > 0

    rightmost = max(rows, key=lambda row: float(row["x"]))
    assert float(rightmost["x"]) == 1.5
    assert rightmost["branch"] == "circle-right"

    transitions = sum(
        1 for i in range(len(rows)) if rows[i]["branch"] != rows[i - 1]["branch"]
    )
    assert transitions == 4

    # round-trip: every emitted row classifies as a boundary point
    for row in rows:
        point = classify_point(float(row["x"]), float(row["y"]), 0.5)
        assert point is Region.BOUNDARY

    root = ET.parse(tmp_path / "boundary.svg").getroot()
    counts = _classes(root)
    assert counts["boundary"] == 1
    assert counts["aux-circle"] == 2
    assert counts["switch-marker"] == 4
    assert counts["switch-line"] == 4
    assert counts.get("aux-sextic", 0) >= 2

    # solid main curve, dashed auxiliaries
    for element in root.iter():
        cls = element.get("class")
        if cls == "boundary":
            assert element.get("stroke-dasharray") is None
        elif cls in ("aux-circle", "aux-sextic", "switch-line"):
            assert element.get("stroke-dasharray")


def test_boundary_rejects_degenerate_radius(tmp_path, capsys):
    assert main(["boundary", "--r", "0", "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "unit disk" in err
    assert not (tmp_path / "boundary.csv").exists()


# ---------------------------------------------------------------------------
# verify command
# ---------------------------------------------------------------------------


def test_verify_small_passes(tmp_path, capsys):
    code = main(["verify", "--r", "0.5", "--N", "64", "--out", str(tmp_path)])
    capsys.readouterr()
    assert code == 0
    payload = json.loads((tmp_path / "verify.json").read_text())
    assert payload["all_pass"] is True
    names = {check["name"] for check in payload["checks"]}
    assert {"support-symmetry", "compression-convergence", "dual-route",
            "ellipse-gap-positive"} <= names
    for check in payload["checks"]:
        assert set(check) == {"name", "measured", "tolerance", "pass"}


def test_verify_zero_tolerance_fails(tmp_path, capsys, monkeypatch):
    # The checks read their bounds at call time, so a patched bound fails the run.
    monkeypatch.setattr(checks, "CONVERGENCE_BOUND", 0.0)
    code = main(["verify", "--r", "0.5", "--N", "64", "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 1
    assert "compression-convergence" in err
    payload = json.loads((tmp_path / "verify.json").read_text())
    assert payload["all_pass"] is False
    assert payload["tolerances"]["convergence"] == 0.0


# The checks of the default suite that record a run-level bound, by its key.
CLAIMED_BOUNDS = {
    "algebraic": [
        "support-symmetry", "support-floor", "support-monotone-r",
        "switching-continuity", "interval-consistency", "envelope-on-circle",
    ],
    "envelope": ["envelope-on-sextic"],
    "convergence": ["compression-convergence"],
}


def test_each_check_records_the_bound_it_claims(tmp_path, capsys):
    assert main(["verify", "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    payload = json.loads((tmp_path / "verify.json").read_text())
    constants = {
        "algebraic": checks.ALGEBRAIC_SLACK,
        "envelope": checks.ENVELOPE_SLACK,
        "convergence": checks.CONVERGENCE_BOUND,
    }
    assert payload["tolerances"] == constants == {
        "algebraic": 1e-12, "envelope": 1e-8, "convergence": 5e-3
    }
    recorded = {check["name"]: check["tolerance"] for check in payload["checks"]}
    for key, names in CLAIMED_BOUNDS.items():
        assert {name: recorded[name] for name in names} == dict.fromkeys(names, constants[key])


def test_verify_degenerate_radius(tmp_path, capsys):
    assert main(["verify", "--r", "0", "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    payload = json.loads((tmp_path / "verify.json").read_text())
    names = {check["name"] for check in payload["checks"]}
    assert names == {"support-constant-one", "degenerate-refusals"}


@pytest.mark.parametrize("r", ["1e-3", "1e-6"])
def test_verify_passes_below_the_absolute_ellipse_threshold(tmp_path, capsys, r):
    # The ellipse gap shrinks like r, so below r = 0.01 it is held to 0.1 r.
    assert main(["verify", "--r", r, "--N", "50", "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    checks = json.loads((tmp_path / "verify.json").read_text())["checks"]
    (ellipse,) = [check for check in checks if check["name"] == "ellipse-gap-positive"]
    assert ellipse["tolerance"] == 0.1 * float(r) < ellipse["measured"] < float(r)


@pytest.mark.parametrize("r", ["64", "100"])
def test_verify_passes_where_the_circle_residual_is_a_rounding_of_r_squared(tmp_path, capsys, r):
    # From r = 64 on the circle residual reads two ulps of r^2, above an
    # absolute 1e-12; its bound scales with max(1, r^2).
    assert main(["verify", "--r", r, "--N", "50", "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    checks = json.loads((tmp_path / "verify.json").read_text())["checks"]
    (circle,) = [check for check in checks if check["name"] == "envelope-on-circle"]
    assert 1e-12 < circle["measured"] <= circle["tolerance"] == 1e-12 * float(r) ** 2


# sha256 of verify.json and the exit code for five configurations.  The first
# three were computed with one brute-force table per offset and one recurrence
# sweep per level, the last two (the defaults, and a large radius) with fresh
# temporaries at every recurrence step and circle tables built once per angle;
# sharing tables and work arrays must not change a byte.  The large radius was
# re-pinned when envelope-on-circle came to be held to 1e-12 max(1, r^2): its
# tolerance field, 1e-12 before, reads 5.625e-11, and no other byte moved.  All five were
# recomputed from the files of the earlier code with the lines "samples",
# "grid" and "seed" removed, which echoed flags verify no longer takes.  The
# digests hold on the platform they were computed on: another CPU or numpy
# build may round numpy's vectorised cosines differently.
VERIFY_DIGESTS = [
    (["--r", "0.3", "--N", "64"], 0,
     "67ad62a953446206a45124c615beaa98662a83133f08ccd3a200c7bc0da4c4af"),
    (["--a", "0.714,1.633", "--N", "100"], 0,
     "0b8b4a7cda0aa8ab78008f56857b60c594c0b8a35d2a7d4e16d5f73da1389ab9"),
    (["--N", "3"], 1,
     "fadadbe5faecbb0ee65c83fb27eb2df4741cf04a462e6862ccd1780643dae94f"),
    ([], 0,
     "eaedd7e67a85d6eebe557a89c695ba9da9aa7e987a7f2fc29f8cbe2f61e1893c"),
    (["--r", "7.5", "--N", "200"], 0,
     "353aec370e4ac4bdadd0dcafebf2f10d85e5c299e54d5080662d7915f1661078"),
]


# Named by their flags, so a re-pin keeps the test ids.
@pytest.mark.parametrize(
    "flags, code, digest",
    VERIFY_DIGESTS,
    ids=["_".join(flag.lstrip("-") for flag in flags) or "defaults" for flags, _, _ in VERIFY_DIGESTS],
)
def test_verify_json_bytes_are_pinned(tmp_path, capsys, flags, code, digest):
    assert main(["verify", *flags, "--out", str(tmp_path)]) == code
    capsys.readouterr()
    assert hashlib.sha256((tmp_path / "verify.json").read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("r", ["0.3", "0"])
def test_verify_json_records_the_run_and_no_settings_of_its_grids(tmp_path, capsys, r):
    assert main(["verify", "--r", r, "--N", "64", "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    payload = json.loads((tmp_path / "verify.json").read_text())
    assert list(payload) == ["command", "r", "a", "level", "tolerances", "checks", "all_pass"]


# sha256 of resultant.json and resultant.txt and the exit code for the
# certificate at three radii and its mutation self-test, both at seed 1,
# computed while the sample grid was still sized by --degree-bound 28.  The
# next two rows pin radii the benchmark never runs: a 355/113 whose numerator
# and denominator both exceed the samples', and a small 1/1000, each plain and
# mutated.  The last row mutates at (2^127 - 1)/(2^127 - 3): its exact
# resultants carry the largest coefficients, and its failing section's
# report takes them at x = 0, where the system has only even powers of t.
# The row after it is the plain certificate at that radius.  Both were
# computed while Res_t(f, g) was still the 10 x 8 elimination in t, before it
# became Res_z(F, G)^2 with z = t - 1/t.  The certificate is exact integer
# and rational arithmetic, so these hold on any platform.
RESULTANT_DIGESTS = [
    (["--r", "1/2,1/3,2"], 0, {
        "resultant.json": "99db95b41bbe29396f7937fc96e978f03b944d30b3fef0043d1b2c58c9725b07",
        "resultant.txt": "3c7b35cb057bcb0b6cd7dc39ce92c3db8eb92a8eec1cafee24742ce608e1da06",
    }),
    (["--r", "1/2", "--mutate"], 1, {
        "resultant.json": "24ba74a848f23c37d91a9c600da8e036f118e845120f449ad2742f265f26d964",
        "resultant.txt": "084c300190f10a99ca6fce2ead6521366bd79935aaccf3e3bb0159146467d524",
    }),
    (["--r", "355/113,1/1000"], 0, {
        "resultant.json": "f2d88831a09806adb246b229bd0d2359fc2be11b9adc243e1ffba494f0ce43e5",
        "resultant.txt": "f94b7c0b6f6671808c56a648fcc935c41aae2238127b35a194661b050d0d49e1",
    }),
    (["--r", "355/113,1/1000", "--mutate"], 1, {
        "resultant.json": "d57cae64dd9bb79f3c005dedbfaf17ccc0bed653b4b7b78968de6a5001f39b8a",
        "resultant.txt": "da7cc5d7f1302cc499920df92bede45512d15b55c54ed0ce79f15732184b8dc6",
    }),
    ([
        "--r",
        "170141183460469231731687303715884105727/170141183460469231731687303715884105725",
        "--mutate",
    ], 1, {
        "resultant.json": "7af2422a55da31004a2445dc09e2aec5f027c185975fdeeea47c30c492e9113f",
        "resultant.txt": "65df0363faa83c19540d56ed82ccd364117da8a19c119714df4aeda2c107205c",
    }),
    (["--r", "170141183460469231731687303715884105727/170141183460469231731687303715884105725"], 0, {
        "resultant.json": "77a281b4c6a881598bbf953e292ef6da352f6a5ae4110822f43c65cc5cd69cc1",
        "resultant.txt": "69234884cdac756ca09d9a69c25ce0b01a27d4f90050507e3f5d7db7041f1c5f",
    }),
]


@pytest.mark.parametrize("flags, code, digests", RESULTANT_DIGESTS)
def test_resultant_bytes_are_pinned(tmp_path, capsys, flags, code, digests):
    assert main(["resultant", *flags, "--seed", "1", "--out", str(tmp_path)]) == code
    capsys.readouterr()
    found = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in digests}
    assert found == digests


def test_the_certificate_at_a_negative_radius_is_pinned():
    # The command line refuses r < 0, so the plain certificate at r = -7/3 and
    # seed 1 is pinned through the library: sha256 of its record, dumped with
    # sorted keys, and of its text, computed with the elimination in t.
    report = exact.verify_sextic_resultant_identity(Fraction(-7, 3), seed=1)
    assert report.success
    found = [
        hashlib.sha256(json.dumps(report.to_json_dict(), sort_keys=True).encode()).hexdigest(),
        hashlib.sha256(report.to_text().encode()).hexdigest(),
    ]
    assert found == [
        "23821dfe03fd8fd2f86bac02cb72bd13b60dd2b7fa578d1fa7836f78a78efc1a",
        "11b3effed032724defd0b5c4475642234ad2e013e0c0cc669ea94b43482be505",
    ]


# The benchmark keeps its own copy of the expected outputs in
# perfbench/reference.json; these two tests hold it to the pins above and to
# the code, so neither store can move without the other.
BENCHMARK_REFERENCE = Path(__file__).resolve().parent.parent / "perfbench" / "reference.json"


def test_benchmark_reference_holds_the_pinned_resultant_digests():
    reference = json.loads(BENCHMARK_REFERENCE.read_text(encoding="utf-8"))["certify"]["1"]
    assert reference == {"certify": RESULTANT_DIGESTS[0][2], "mutate": RESULTANT_DIGESTS[1][2]}


# The two certify operations of perfbench/run.py, by the label the reference
# files them under: the flags before --seed and the exit code.
BENCHMARK_CERTIFY_OPS = {"certify": (["--r", "1/2,1/3,2"], 0), "mutate": (["--r", "1/2", "--mutate"], 1)}


@pytest.mark.parametrize("seed", range(1, 17))
def test_benchmark_reference_holds_every_certify_seed(tmp_path, capsys, seed):
    reference = json.loads(BENCHMARK_REFERENCE.read_text(encoding="utf-8"))["certify"][str(seed)]
    found = {}
    for label, (flags, code) in BENCHMARK_CERTIFY_OPS.items():
        out = tmp_path / label
        assert main(["resultant", *flags, "--seed", str(seed), "--out", str(out)]) == code
        found[label] = {
            name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in ("resultant.json", "resultant.txt")
        }
    capsys.readouterr()
    assert found == reference


def test_benchmark_reference_holds_the_default_verify_checks(tmp_path, capsys):
    # The benchmark's phase-0 input, --a 1,0, is the default run.  Floats are
    # held to the benchmark's own rule: within 1e-12 max(1, |x|).
    reference = json.loads(BENCHMARK_REFERENCE.read_text(encoding="utf-8"))["verify"]["checks"]
    assert main(["verify", "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    found = json.loads((tmp_path / "verify.json").read_text())["checks"]
    assert [(c["name"], c["pass"]) for c in found] == [(name, passed) for name, _, passed in reference]
    for check, (name, measured, _) in zip(found, reference):
        assert abs(check["measured"] - measured) <= 1e-12 * max(1.0, abs(measured)), name


# sha256 of the figure files.  The first four configurations were computed
# while the SVG documents were still built with ElementTree, the last two
# while the chords were clipped one at a time; assembling the documents as
# text and clipping in arrays must not change a byte.  The fourth was computed
# as --a 0.714,1.633, which the figures read as r = |a|/2, the radius given
# here as repr(abs(a) / 2).  The last two lie outside the benchmark's radii,
# and their odd sample counts put no angle on an axis.  The platform caveat of
# VERIFY_DIGESTS applies.
FIGURE_DIGESTS = [
    (["--r", "0.5", "--samples", "720"], {
        "support_lines.csv": "e00db444de758650075cb571081e89aa8136f0477367a9950014963a98bea137",
        "support_lines.svg": "af5907dd477f33d2dee7460ee99413f90718267362abd6f92e05b0652259be73",
        "boundary.csv": "c8dfa2994e22b8c810c3baf07252182b7b7fd5bb2baec65e197cf00533e88bb8",
        "boundary.svg": "8596e95993e438f88f107ad131cab534de6fbc70e8a983e5de4f956f51260754",
    }),
    (["--r", "0.01", "--samples", "2000"], {
        "support_lines.csv": "19e55e4136bfe304376c3a5594544b9b32fb3858dec4206c0e56bf1bf0ed3a8d",
        "support_lines.svg": "268705b2f0c50e3f0f516e6ffb5e73f1f5fc1d799e76cda275da3e87922df34e",
        "boundary.csv": "38c0ab08f521a5f714efa6b123918a0ef8791af027ca95ecf336fb57ad738d2e",
        "boundary.svg": "d448155a8b0b87c0429b3751175f23dd8dfbbdf4c77827705e77b7a791f328f7",
    }),
    (["--r", "1e4", "--samples", "720"], {
        "support_lines.csv": "2ad8549d849ce1a3265407c9ecb2798d200ffa93fab7face661052057cc906f4",
        "support_lines.svg": "a4e32fe1c87c42b02e51f842c34ed33092e62da6cb81734dbc9114f297565b63",
        "boundary.csv": "da6c8a4c3e421e3c19f0199c43aede88077826818f0702450ca5df1d3963af84",
        "boundary.svg": "40c12d0bc915c1d05acb90158f2a52f493a2dc614463ced254984a166285a71e",
    }),
    (["--r", "0.8911348102279475", "--samples", "90"], {
        "support_lines.csv": "8d784735c12bcf493804ea145fd16cac630f4e90f0adb00533edf81e89e07f30",
        "support_lines.svg": "40f9f2e78c8cfb29ac2f11b97d4b6b3e56fa40c751ceaf4d5c6b0cdbacd7a50e",
        "boundary.csv": "15f72e4f2e7472f05b950f6e1ccd7cb24e050773f32da252615235dbfa4274ac",
        "boundary.svg": "0750aab3ecef64a0c9013b0f9f72e940ee61f0be195260ca983b407ee1534418",
    }),
    (["--r", "1e-300", "--samples", "91"], {
        "support_lines.csv": "f78d7cbc7cdf326aaa895873cdce09e92129a0d91074092d47d70a47aba4d198",
        "support_lines.svg": "c5055ce3654c8d79dc32b1bc37fccfd6205c210b5e35a169396e0294546a51ee",
        "boundary.csv": "6f704cf4c3b250fd8b8ca21a1eb854235c76f14c2f1dd7269c8142f5352f6290",
        "boundary.svg": "c55bcf52dc35661f3e1e9a8908117b345ed3bebe68f61ed0f009cd4be6e170ae",
    }),
    (["--r", "1e150", "--samples", "1001"], {
        "support_lines.csv": "038cde757b5d7398d25301a2ee2b95b5b7164deb1936cc27faff0df68eab571d",
        "support_lines.svg": "049c6ca22dcb9c828e63475b03fdc9f5e53c5c50be9c906f1041010bef6af307",
        "boundary.csv": "3da0032abc4a68fd1de0677a52eaa1b0f95e1d06089b19f475268ba798087a90",
        "boundary.svg": "413d3e5f809e93396e54bea3dbc87b296afca839303944442bc1776923494bf8",
    }),
]


@pytest.mark.parametrize("flags, digests", FIGURE_DIGESTS)
def test_figure_bytes_are_pinned(tmp_path, capsys, flags, digests):
    for command in ("support-lines", "boundary"):
        assert main([command, *flags, "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    found = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in digests}
    assert found == digests
    # The text builders alone give the same bytes, encoded as ASCII.
    r, samples = float(flags[1]), int(flags[3])
    thetas = angle_grid(samples)
    offsets = support_function(thetas, r)
    points = boundary_curve(r, samples)
    texts = {
        "support_lines.csv": render.support_lines_csv(zip(thetas.tolist(), offsets.tolist())),
        "support_lines.svg": render.support_lines_svg(r, thetas, offsets),
        "boundary.csv": render.boundary_csv(points),
        "boundary.svg": render.boundary_svg(r, points),
    }
    found = {name: hashlib.sha256(text.encode("ascii")).hexdigest() for name, text in texts.items()}
    assert found == digests


# ---------------------------------------------------------------------------
# resultant command
# ---------------------------------------------------------------------------


def test_resultant_success_and_reports(tmp_path, capsys):
    code = main(["resultant", "--r", "1/2", "--seed", "1", "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "success        : True" in out
    payload = json.loads((tmp_path / "resultant.json").read_text())
    assert payload["all_success"] is True
    assert payload["reports"][0]["r"] == "1/2"
    assert (tmp_path / "resultant.txt").exists()


def test_resultant_mutation_self_test_fails(tmp_path, capsys):
    code = main(["resultant", "--r", "1/2", "--mutate", "--out", str(tmp_path)])
    captured = capsys.readouterr()
    assert code == 1
    assert "nonzero residual" in captured.out
    payload = json.loads((tmp_path / "resultant.json").read_text())
    assert payload["mutated"] is True
    assert payload["all_success"] is False


def test_a_mutation_that_is_not_rejected_raises_the_sensitivity_alarm(tmp_path, capsys, monkeypatch):
    # With the true sextic in place of the mutated one the certificate
    # succeeds, which --mutate must report as a lost sensitivity.
    monkeypatch.setattr(exact, "mutated_sextic", exact.sextic_polynomial)
    code = main(["resultant", "--r", "1/2", "--mutate", "--out", str(tmp_path)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == "fnr: mutated sextic was not rejected: the certificate lost its sensitivity\n"
    assert not (tmp_path / "resultant.json").exists()


def test_resultant_rejects_degenerate_radius(tmp_path, capsys):
    assert main(["resultant", "--r", "0", "--out", str(tmp_path)]) == 2
    capsys.readouterr()


# ---------------------------------------------------------------------------
# Configuration handling and exit codes
# ---------------------------------------------------------------------------


def test_coupling_flag_sets_radius(tmp_path, capsys):
    assert main(["verify", "--a", "0,1", "--N", "64", "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    payload = json.loads((tmp_path / "verify.json").read_text())
    assert payload["r"] == 0.5 and payload["a"] == [0.0, 1.0]  # |i|/2 = 0.5


def test_conflicting_radius_and_coupling(tmp_path, capsys):
    # --r and --a are exclusive, even where --r repeats |a|/2 = 0.5 exactly
    for argv in (["--r", "0.4", "--a", "1,0"], ["--a", "1,0", "--r", "0.5"]):
        assert main(["verify", *argv, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("fnr: ") and err.count("\n") == 1
        assert "not allowed with argument" in err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("argv", [["--a", "7,0"], ["--r", "1/2", "--a", "1,0"]])
def test_resultant_rejects_the_coupling_flag(tmp_path, capsys, argv):
    # The certificates take exact rational radii from --r only.
    assert main(["resultant", *argv, "--out", str(tmp_path)]) == 2
    assert "--r" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--a", "nan,0"],
        ["verify", "--a", "0,nan"],
        ["verify", "--a", "inf,0"],
        ["verify", "--a", "1.5e308,1.5e308"],
        ["support-lines", "--r", "1e400"],
        ["resultant", "--r", "1e400"],
    ],
)
def test_non_finite_numbers_are_usage_errors(tmp_path, capsys, argv):
    assert main([*argv, "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("fnr: ")
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize(
    "argv",
    [
        ["boundary", "--r", "1e200"],
        ["support-lines", "--r", "1e200"],
        ["boundary", "--r", "1e154"],
        ["support-lines", "--r", "1e160"],
        ["verify", "--r", "1e151"],
        ["verify", "--a", "2.5e150,0"],
    ],
)
def test_radius_above_the_limit_is_a_usage_error(tmp_path, capsys, argv):
    assert main([*argv, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("fnr: ") and f"{MAX_RADIUS:g}" in err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("command", ["boundary", "support-lines"])
def test_largest_radius_gives_finite_outputs(tmp_path, command):
    assert main([command, "--r", repr(MAX_RADIUS), "--out", str(tmp_path)]) == 0
    with open(tmp_path / f"{command.replace('-', '_')}.csv") as handle:
        header, *rows = csv.reader(handle)
    numeric = [i for i, name in enumerate(header) if name != "branch"]
    assert len(rows) == 720
    assert all(math.isfinite(float(row[i])) for row in rows for i in numeric)


def test_io_error_exit_code(tmp_path, capsys):
    # --out names a file, so no command can make its output directory.
    target = tmp_path / "blocked"
    target.write_text("a file, not a directory\n")
    for argv in (
        ["boundary", "--r", "0.5"],
        ["support-lines", "--r", "0.5"],
        ["verify", "--N", "3"],
        ["resultant", "--r", "1/2"],
    ):
        assert main([*argv, "--out", str(target)]) == 3, argv
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("fnr: I/O error") and err.count("\n") == 1, argv
    assert target.read_text() == "a file, not a directory\n"


def test_outputs_are_deterministic(tmp_path, capsys):
    first = tmp_path / "a"
    second = tmp_path / "b"
    for out in (first, second):
        assert main(["boundary", "--r", "0.5", "--samples", "180", "--out", str(out)]) == 0
        assert main(["resultant", "--r", "1/3", "--seed", "9", "--out", str(out)]) == 0
    capsys.readouterr()
    for name in ("boundary.csv", "boundary.svg", "resultant.json", "resultant.txt"):
        assert (first / name).read_bytes() == (second / name).read_bytes()


@pytest.mark.parametrize(
    "argv, named",
    [
        (["resultant", "--r", "1/2,1e400"], "1e400"),
        (["resultant", "--r=1/3,-1/2"], "-0.5"),
        (["resultant", "--r", "1/2,0"], "r = 0"),
        (["resultant", "--r", "1e-400"], "1e-400"),
        (["resultant", "--r=-1e-400"], "-1e-400"),
        (["resultant", "--r", "1/2,1e-400"], "1e-400"),
    ],
)
def test_every_resultant_radius_is_checked(tmp_path, capsys, argv, named):
    assert main([*argv, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("fnr: ") and named in err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("command", ["verify", "boundary", "support-lines"])
def test_a_radius_that_underflows_is_a_usage_error(tmp_path, capsys, command):
    assert main([command, "--r", "1e-400", "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err == "fnr: --r 1e-400 underflows a double to zero\n"
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize(
    "argv, named",
    [(["--r", "1e-17"], "1e-17"), (["--r", "1e-320"], "1e-320"), (["--a", "2e-17,0"], "1e-17")],
)
def test_verify_rejects_a_radius_lost_next_to_one(tmp_path, capsys, argv, named):
    # 1 + r rounds to 1, so the comparison ellipse would have equal axes.
    assert main(["verify", *argv, "--N", "20", "--out", str(tmp_path)]) == 2
    out, err = capsys.readouterr()
    assert err.startswith("fnr: ") and err.count("\n") == 1 and named in err
    assert "Traceback" not in out + err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize(
    "argv, named",
    [(["--r", "3e8"], "300000000.0"), (["--r", "1e16"], "1e+16"), (["--a", "2e9,0"], "1000000000.0")],
)
def test_verify_rejects_a_radius_whose_switching_cosine_rounds_to_zero(tmp_path, capsys, argv, named):
    # The sweeps would find no sextic point, and from r = 1e16 the comparison
    # ellipse's axes 1 + r and sqrt(1 + r^2) round to one double.
    assert main(["verify", *argv, "--N", "10", "--out", str(tmp_path)]) == 2
    out, err = capsys.readouterr()
    assert err.startswith("fnr: ") and err.count("\n") == 1 and named in err
    assert "switching cosine" in err and out == ""
    assert not any(tmp_path.iterdir())


def test_verify_still_names_its_failing_checks_just_below_that_radius(tmp_path, capsys):
    # switching_cosine(1e8) is 7.45e-9, 25% off but nonzero: the checks run.
    assert main(["verify", "--r", "1e8", "--N", "10", "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("fnr: checks failed: ") and err.count("\n") == 1
    assert (tmp_path / "verify.json").is_file()


# ---------------------------------------------------------------------------
# Flags per command
# ---------------------------------------------------------------------------

# In the order a usage error lists them.  The figures read r alone, since they
# depend on a only through |a|/2.
COMMAND_FLAGS = {
    "support-lines": ["--r", "--samples", "--out"],
    "boundary": ["--r", "--samples", "--out"],
    "verify": ["--r", "--a", "--out", "--N"],
    "resultant": ["--out", "--r", "--seed", "--mutate"],
}

# Each flag that every command used to accept, with a value it used to take.
FORMER_COMMON_FLAGS = {
    "--r": "0.5", "--a": "1,0", "--samples": "720", "--N": "5", "--grid": "720",
    "--seed": "1", "--out": ".", "--format": "csv", "--tol-alg": "1e-12",
    "--tol-env": "1e-8", "--tol-conv": "5e-3",
}

REMOVED = [
    (command, flag)
    for command, flags in COMMAND_FLAGS.items()
    for flag in FORMER_COMMON_FLAGS
    if flag not in flags
]

# Flags retired from one command, with a value each used to take (None for a
# switch): the certificate's sample grid is fixed, and verify runs it no more.
RETIRED_FLAGS = {("resultant", "--degree-bound"): "28", ("verify", "--with-resultant"): None}


def _parser_flags():
    """The option strings of each command, read from the parser ``main`` uses."""
    (commands,) = [
        action.choices for action in cli._PARSER._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    return {
        name: [
            option for action in parser._actions for option in action.option_strings
            if option not in ("-h", "--help")
        ]
        for name, parser in commands.items()
    }


def test_each_command_has_only_the_flags_it_reads():
    flags = _parser_flags()
    assert flags == COMMAND_FLAGS
    assert sum(len(options) for options in flags.values()) == 14
    assert len(REMOVED) == 31
    assert not any(flag in COMMAND_FLAGS[command] for command, flag in RETIRED_FLAGS)


@pytest.mark.parametrize("command, flag", REMOVED + list(RETIRED_FLAGS))
def test_a_flag_the_command_does_not_read_is_a_usage_error(tmp_path, capsys, command, flag):
    value = RETIRED_FLAGS.get((command, flag), FORMER_COMMON_FLAGS.get(flag))
    argv = [command, flag, *([value] if value else []), "--out", str(tmp_path)]
    assert main(argv) == 2  # returned, not raised as SystemExit
    err = capsys.readouterr().err
    assert err.startswith("fnr: ") and err.count("\n") == 1 and flag in err
    # The one line names every flag the command does take, in order.
    assert err.split("its flags are ")[1].rstrip("\n").split(", ") == COMMAND_FLAGS[command]
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("command", ["verify", "resultant", "boundary"])
def test_level_zero_is_rejected_before_any_work(tmp_path, capsys, command):
    # The benchmark's setup probe times exactly this rejection.
    assert main([command, "--N", "0", "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("fnr: ")
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize(
    "command, flag, bound",
    [
        ("support-lines", "--samples", MAX_SAMPLES),
        ("boundary", "--samples", MAX_SAMPLES),
        ("verify", "--N", MAX_LEVEL),
    ],
)
def test_a_count_above_its_bound_is_rejected_before_any_work(tmp_path, capsys, command, flag, bound):
    assert main([command, flag, str(bound + 1), "--out", str(tmp_path)]) == 2
    out, err = capsys.readouterr()
    assert err == f"fnr: {flag} must be at most {bound}, got {bound + 1}\n"
    assert out == ""
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--N", "abc"],
        ["resultant", "--seed", "abc"],
        ["support-lines", "--samples", "abc"],
        [],
        ["resultant", "--r", "abc"],
        ["boundary", "--r", "abc"],
        ["verify", "--r", "1/0"],
        ["verify", "--a", "1"],
        ["verify", "--a", "x,1"],
    ],
)
def test_parser_errors_are_returned_usage_errors(tmp_path, capsys, argv):
    assert main([*argv, "--out", str(tmp_path)] if argv else argv) == 2  # not SystemExit
    out, err = capsys.readouterr()
    assert err.startswith("fnr: ") and err.count("\n") == 1 and "usage:" not in err
    assert out == ""
    assert not any(tmp_path.iterdir())


# A usage error, an unknown --format, a figure, an unknown --a, an unknown
# --grid, and the level-zero rejection the setup probe times.
SHARED_PARSER_SEQUENCE = [
    ["verify", "--N", "abc"],
    ["boundary", "--r", "0.5", "--samples", "90", "--format", "csv"],
    ["boundary", "--r", "0.5", "--samples", "90"],
    ["boundary", "--a", "0.714,1.633", "--samples", "90"],
    ["boundary", "--samples", "90", "--grid", "720"],
    ["verify", "--N", "0"],
]


def _outcome(argv, out, capsys):
    """Exit code, stderr and output file bytes of one ``main`` call."""
    code = main([*argv, "--out", str(out)])
    err = capsys.readouterr().err
    files = {path.name: path.read_bytes() for path in sorted(out.iterdir())} if out.exists() else {}
    return code, err, files


def test_the_shared_parser_keeps_no_state_between_calls(tmp_path, capsys, monkeypatch):
    shared = [_outcome(argv, tmp_path / f"shared{k}", capsys) for k, argv in enumerate(SHARED_PARSER_SEQUENCE)]
    assert [code for code, _, _ in shared] == [2, 2, 0, 2, 2, 2]
    assert [sorted(files) for _, _, files in shared[1:4]] == [[], ["boundary.csv", "boundary.svg"], []]
    for k, argv in enumerate(SHARED_PARSER_SEQUENCE):
        monkeypatch.setattr(cli, "_PARSER", cli._build_parser())
        assert _outcome(argv, tmp_path / f"fresh{k}", capsys) == shared[k], argv
    for code, err, _ in shared:
        assert (err == "") == (code == 0)
        assert err == "" or (err.startswith("fnr: ") and err.count("\n") == 1)


def test_help_still_exits_zero(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["verify", "--help"])
    assert exit_info.value.code == 0
    assert "--N" in capsys.readouterr().out


def test_readme_flag_table_matches_the_parsers():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Command line", 1)[1].split("\n## ", 1)[0]
    documented = {}
    for row in section.splitlines():
        if not row.startswith("| `--"):
            continue
        flag_cell, command_cell = row.split(" | ")[:2]
        for command in re.findall(r"`([a-z-]+)`", command_cell):
            documented.setdefault(command, set()).update(re.findall(r"`(--[\w-]+)", flag_cell))
    assert documented == {name: set(options) for name, options in _parser_flags().items()}
