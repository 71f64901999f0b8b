"""The public names: every exported name exists, and retired ones stay gone."""

import importlib

MODULES = ["fnr", "fnr.boundary", "fnr.truncation", "fnr.exact", "fnr.render", "fnr.checks"]

RETIRED = ["TruncatedOperator", "HermitianRotation", "BoundaryPoint", "envelope_point"]


def test_public_names_resolve():
    for name in MODULES:
        module = importlib.import_module(name)
        assert [attr for attr in module.__all__ if not hasattr(module, attr)] == [], name
        assert [attr for attr in RETIRED if hasattr(module, attr)] == [], name
