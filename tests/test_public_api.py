"""The public names: every exported name exists, retired ones stay gone, and
the package itself exports only its version."""

import importlib
import json
import tomllib
from pathlib import Path

import fnr
from fnr import checks
from fnr.cli import main

MODULES = [
    "fnr",
    "fnr.boundary",
    "fnr.truncation",
    "fnr.exact",
    "fnr.render",
    "fnr.checks",
    "fnr.cli",
]

RETIRED = [
    "TruncatedOperator",
    "HermitianRotation",
    "BoundaryPoint",
    "envelope_point",
    "sylvester_matrix",
    "config",
    "RADIUS_MATCH",
    "foguel_truncation",
    "hermitian_rotation",
    "symbolic_resultant",
    "exact_divide",
    "clip_segment",
    "support_line_segment",
    "write_svg",
    "default_offset_grid",
    "ConditionNotSatisfiedError",
    "format_float",
    "MAX_DEGREE_BOUND",
    "MAX_GRID",
    "resultant_check",
    "Tolerances",
    "DEFAULT_TOLERANCES",
    "write_support_lines_csv",
    "write_boundary_csv",
]


def test_public_names_resolve():
    for name in MODULES:
        module = importlib.import_module(name)
        assert [attr for attr in module.__all__ if not hasattr(module, attr)] == [], name
        assert [attr for attr in RETIRED if hasattr(module, attr)] == [], name


def test_the_package_exports_only_its_version():
    # Every public name is imported from the module that defines it.
    assert fnr.__all__ == ["__version__"]


def test_the_package_version_is_the_project_version():
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    assert fnr.__version__ == tomllib.loads(pyproject.read_text(encoding="utf-8"))["project"]["version"]


def test_verify_records_the_whole_tolerance_record(tmp_path, capsys, monkeypatch):
    # verify.json reads the bounds from the constants at call time.
    bounds = {"ALGEBRAIC_SLACK": 2e-12, "ENVELOPE_SLACK": 3e-8, "CONVERGENCE_BOUND": 0.01}
    for name, value in bounds.items():
        monkeypatch.setattr(checks, name, value)
    assert main(["verify", "--N", "20", "--out", str(tmp_path)]) in (0, 1)
    capsys.readouterr()
    payload = json.loads((tmp_path / "verify.json").read_text())
    assert payload["tolerances"] == {"algebraic": 2e-12, "envelope": 3e-8, "convergence": 0.01}
    assert list(payload["tolerances"]) == ["algebraic", "envelope", "convergence"]
