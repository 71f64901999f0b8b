"""CLI behaviour, file formats, determinism and SVG structure."""

import argparse
import csv
import hashlib
import json
import math
import re
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

from fnr import Region, cli, classify_point, exact, support_function
from fnr.cli import MAX_RADIUS, main
from fnr.render import clip_segment, format_float, support_line_segment

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


def test_float_format_round_trips():
    for value in (1.5, math.sqrt(1.25), -0.8042477193189872, 1e-17, 0.0):
        assert float(format_float(value)) == value


def test_clip_segment():
    assert clip_segment((-5.0, 0.0), (5.0, 0.0), 2.0) == ((-2.0, 0.0), (2.0, 0.0))
    assert clip_segment((0.0, 3.0), (0.0, 5.0), 2.0) is None
    inside = clip_segment((0.1, 0.2), (0.3, -0.4), 2.0)
    assert inside == ((0.1, 0.2), (0.3, -0.4))


def test_support_line_segment_touches_the_offset_point():
    segment = support_line_segment(0.3, 1.4, 2.0)
    assert segment is not None
    (x0, y0), (x1, y1) = segment
    # both endpoints satisfy the line equation x cos + y sin = offset
    for x, y in ((x0, y0), (x1, y1)):
        assert abs(x * math.cos(0.3) + y * math.sin(0.3) - 1.4) <= 1e-9


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


def test_verify_zero_tolerance_fails(tmp_path, capsys):
    code = main([
        "verify", "--r", "0.5", "--N", "64", "--tol-conv", "0", "--out", str(tmp_path)
    ])
    err = capsys.readouterr().err
    assert code == 1
    assert "compression-convergence" in err
    payload = json.loads((tmp_path / "verify.json").read_text())
    assert payload["all_pass"] is False


def test_verify_degenerate_radius(tmp_path, capsys):
    assert main(["verify", "--r", "0", "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    payload = json.loads((tmp_path / "verify.json").read_text())
    names = {check["name"] for check in payload["checks"]}
    assert names == {"support-constant-one", "degenerate-refusals"}


def test_verify_with_resultant(tmp_path, capsys):
    code = main([
        "verify", "--r", "0.5", "--N", "64", "--with-resultant", "--out", str(tmp_path)
    ])
    capsys.readouterr()
    assert code == 0
    payload = json.loads((tmp_path / "verify.json").read_text())
    names = {check["name"] for check in payload["checks"]}
    assert "resultant-identity-r=1/2" in names


@pytest.mark.parametrize("r", ["1e-3", "1e-6"])
def test_verify_passes_below_the_absolute_ellipse_threshold(tmp_path, capsys, r):
    # The ellipse gap shrinks like r, so below r = 0.01 it is held to 0.1 r.
    assert main(["verify", "--r", r, "--N", "50", "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    checks = json.loads((tmp_path / "verify.json").read_text())["checks"]
    (ellipse,) = [check for check in checks if check["name"] == "ellipse-gap-positive"]
    assert ellipse["tolerance"] == 0.1 * float(r) < ellipse["measured"] < float(r)


# sha256 of verify.json and the exit code for three configurations, computed
# with one brute-force table per offset and one recurrence sweep per level;
# sharing them must not change a byte.  The digests hold on the platform they
# were computed on: another CPU or numpy build may round numpy's vectorised
# cosines differently.
VERIFY_DIGESTS = [
    (["--r", "0.3", "--N", "64"], 0,
     "ded3696b5fe3daf27cfba335103d7b3aa973891601c63b540d714b361a3c45ac"),
    (["--a", "0.714,1.633", "--N", "100"], 0,
     "e02e9fd587f39bb7c2f0c5152c6d75905c1b843fe8a2aab020cf17cee4714865"),
    (["--N", "3"], 1,
     "b8aa3f84cd0fe661fdeb5b9e02313a845eba8f6d70e6d75d8cdd4cc45084677e"),
]


@pytest.mark.parametrize("flags, code, digest", VERIFY_DIGESTS)
def test_verify_json_bytes_are_pinned(tmp_path, capsys, flags, code, digest):
    assert main(["verify", *flags, "--out", str(tmp_path)]) == code
    capsys.readouterr()
    assert hashlib.sha256((tmp_path / "verify.json").read_bytes()).hexdigest() == digest


# sha256 of the figure files at four configurations, computed while the SVG
# documents were still built with ElementTree; assembling them as text must not
# change a byte.  The platform caveat of VERIFY_DIGESTS applies.
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
    (["--a", "0.714,1.633", "--samples", "90"], {
        "support_lines.csv": "8d784735c12bcf493804ea145fd16cac630f4e90f0adb00533edf81e89e07f30",
        "support_lines.svg": "40f9f2e78c8cfb29ac2f11b97d4b6b3e56fa40c751ceaf4d5c6b0cdbacd7a50e",
        "boundary.csv": "15f72e4f2e7472f05b950f6e1ccd7cb24e050773f32da252615235dbfa4274ac",
        "boundary.svg": "0750aab3ecef64a0c9013b0f9f72e940ee61f0be195260ca983b407ee1534418",
    }),
]


@pytest.mark.parametrize("flags, digests", FIGURE_DIGESTS)
def test_figure_bytes_are_pinned(tmp_path, capsys, flags, digests):
    for command in ("support-lines", "boundary"):
        assert main([command, *flags, "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    found = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in digests}
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


def test_resultant_rejects_degenerate_radius(tmp_path, capsys):
    assert main(["resultant", "--r", "0", "--out", str(tmp_path)]) == 2
    capsys.readouterr()


# ---------------------------------------------------------------------------
# Configuration handling and exit codes
# ---------------------------------------------------------------------------


def test_coupling_flag_sets_radius(tmp_path, capsys):
    assert main(["support-lines", "--a", "0,1", "--samples", "90", "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    rows = list(csv.DictReader(open(tmp_path / "support_lines.csv")))
    by_theta = {float(row["theta"]): float(row["offset"]) for row in rows}
    assert by_theta[0.0] == 1.5  # |i|/2 = 0.5


def test_conflicting_radius_and_coupling(tmp_path, capsys):
    assert main([
        "support-lines", "--r", "0.4", "--a", "1,0", "--out", str(tmp_path)
    ]) == 2
    assert "conflicts" in capsys.readouterr().err


def test_radius_matching_coupling_to_rounding_is_accepted(tmp_path, capsys):
    # |a|/2 = 0.8911348102279475 here; the 15-digit radius rounds to another double
    argv = ["support-lines", "--a", "0.714,1.633", "--samples", "90", "--out", str(tmp_path)]
    assert main(argv + ["--r", "0.891134810227947"]) == 0
    assert main(argv + ["--r", "0.8911348102"]) == 2
    assert "conflicts" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["--a", "7,0"], ["--r", "1/2", "--a", "1,0"]])
def test_resultant_rejects_the_coupling_flag(tmp_path, capsys, argv):
    # The certificates take exact rational radii from --r only.
    assert main(["resultant", *argv, "--out", str(tmp_path)]) == 2
    assert "--r" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize(
    "argv",
    [
        ["support-lines", "--a", "nan,0"],
        ["boundary", "--a", "nan,0"],
        ["boundary", "--a", "inf,0"],
        ["support-lines", "--a", "1.5e308,1.5e308"],
        ["support-lines", "--r", "1e400"],
        ["resultant", "--r", "1e400"],
    ],
)
def test_non_finite_numbers_are_usage_errors(tmp_path, capsys, argv):
    assert main([*argv, "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("fnr: ")
    assert not any(tmp_path.iterdir())


def test_negative_degree_bound_is_a_usage_error(tmp_path, capsys):
    assert main(["resultant", "--degree-bound", "-1", "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("fnr: ") and "--degree-bound" in err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("bound", [exact.MAX_DEGREE_BOUND + 1, 2000])
def test_degree_bound_beyond_the_cofactor_degrees_is_a_usage_error(tmp_path, capsys, monkeypatch, bound):
    def no_work(*args, **kwargs):
        raise AssertionError("the certificate started")

    monkeypatch.setattr(exact, "verify_sextic_resultant_identity", no_work)
    argv = ["resultant", "--r", "3", "--degree-bound", str(bound), "--out", str(tmp_path)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("fnr: ") and err.count("\n") == 1
    assert f"at most {exact.MAX_DEGREE_BOUND}" in err and str(bound) in err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize(
    "argv",
    [
        ["boundary", "--r", "1e200"],
        ["support-lines", "--r", "1e200"],
        ["boundary", "--r", "1e154"],
        ["support-lines", "--r", "1e160"],
        ["verify", "--r", "1e151"],
        ["boundary", "--a", "2.5e150,0"],
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
    target = tmp_path / "blocked"
    target.write_text("a file, not a directory\n")
    assert main(["boundary", "--r", "0.5", "--out", str(target)]) == 3
    assert "I/O error" in capsys.readouterr().err


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


def test_with_resultant_rejects_a_radius_that_rounds_to_zero(tmp_path, capsys):
    # The certificate runs at r rounded to a denominator of at most 10^6.
    argv = ["verify", "--r", "4.9e-7", "--N", "20", "--with-resultant", "--out", str(tmp_path)]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert err.startswith("fnr: ") and err.count("\n") == 1 and "5e-7" in err
    assert "Traceback" not in out + err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("flag", ["--tol-alg", "--tol-env", "--tol-conv"])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "-1e-9", "1e400", "abc"])
def test_a_tolerance_must_be_finite_and_nonnegative(tmp_path, capsys, flag, value):
    assert main(["verify", "--N", "20", f"{flag}={value}", "--out", str(tmp_path)]) == 2
    out, err = capsys.readouterr()
    assert err.startswith("fnr: ") and err.count("\n") == 1 and flag in err
    assert "Traceback" not in out + err
    assert not any(tmp_path.iterdir())


# ---------------------------------------------------------------------------
# Flags per command
# ---------------------------------------------------------------------------

COMMAND_FLAGS = {
    "support-lines": {"--r", "--a", "--samples", "--out", "--format"},
    "boundary": {"--r", "--a", "--samples", "--out", "--format"},
    "verify": {
        "--r", "--a", "--samples", "--N", "--grid", "--seed", "--out",
        "--tol-alg", "--tol-env", "--tol-conv", "--with-resultant",
    },
    "resultant": {"--r", "--seed", "--out", "--degree-bound", "--mutate"},
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


def _parser_flags():
    (commands,) = [
        action.choices for action in cli._build_parser()._actions
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
    assert {name: set(options) for name, options in flags.items()} == COMMAND_FLAGS
    assert sum(len(options) for options in flags.values()) == 26
    assert len(REMOVED) == 21


@pytest.mark.parametrize("command, flag", REMOVED)
def test_a_flag_the_command_does_not_read_is_a_usage_error(tmp_path, capsys, command, flag):
    argv = [command, flag, FORMER_COMMON_FLAGS[flag], "--out", str(tmp_path)]
    assert main(argv) == 2  # returned, not raised as SystemExit
    err = capsys.readouterr().err
    assert err.startswith("fnr: ") and flag in err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("command", ["verify", "resultant", "boundary"])
def test_level_zero_is_rejected_before_any_work(tmp_path, capsys, command):
    # The benchmark's setup probe times exactly this rejection.
    assert main([command, "--N", "0", "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("fnr: ")
    assert not any(tmp_path.iterdir())


def test_json_is_not_a_figure_format(tmp_path, capsys):
    assert main(["support-lines", "--format", "json", "--out", str(tmp_path)]) == 2
    assert "invalid choice" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--N", "abc"],
        ["verify", "--s", "5"],  # ambiguous: --samples or --seed
        ["support-lines", "--format", "json"],
        [],
    ],
)
def test_parser_errors_are_returned_usage_errors(tmp_path, capsys, argv):
    assert main([*argv, "--out", str(tmp_path)] if argv else argv) == 2  # not SystemExit
    out, err = capsys.readouterr()
    assert err.startswith("fnr: ") and "usage:" not in err
    assert out == ""
    assert not any(tmp_path.iterdir())


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
