"""Source hygiene: no module in src/fnr or tests imports a name it never uses,
every private top-level name of src/fnr is used inside src/fnr, and one
function of src/fnr writes every output file."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def unused_imports(source: str) -> list:
    """(line, name) of each import-bound name that the module never references.

    A name counts as used when it appears as a bare name anywhere in the
    module (attribute chains start with one) or is listed in ``__all__``.
    """
    imported = {}
    used = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            used.update(elt.value for elt in node.value.elts if isinstance(elt, ast.Constant))
    return sorted((line, name) for name, line in imported.items() if name not in used)


def unreferenced_private_names(sources: dict) -> list:
    """(path, line, name) of each private top-level name that no source references.

    ``sources`` maps paths to module sources.  A private name starts with one
    underscore and is not a dunder; it is defined at module level by a def, a
    class or an assignment.  It counts as referenced when any of the sources
    loads it as a bare name or as an attribute, or lists it in ``__all__``.
    """
    defined = {}
    used = set()
    for path, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, ast.Assign):
                names = [target.id for target in node.targets if isinstance(target, ast.Name)]
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                names = [node.target.id]
            else:
                continue
            for name in names:
                if name.startswith("_") and not name.startswith("__"):
                    defined[path, name] = node.lineno
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                used.add(node.attr)
            elif isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
            ):
                used.update(elt.value for elt in node.value.elts if isinstance(elt, ast.Constant))
    return sorted((path, line, name) for (path, name), line in defined.items() if name not in used)


FILE_CALLS = {"open", "write_text", "write_bytes"}


def file_writes(source: str) -> list:
    """(top-level scope, source text) of each file call and ``xml.etree`` import.

    A call counts when it is ``json.dump`` or its function is named ``open``,
    ``write_text`` or ``write_bytes``, bare or as an attribute.  The scope is
    the name of the enclosing top-level definition, or ``<module>``.
    """
    found = []
    for top in ast.parse(source).body:
        scope = getattr(top, "name", "<module>")
        for node in ast.walk(top):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name in FILE_CALLS or ast.unparse(func) == "json.dump":
                    found.append((scope, ast.unparse(node)))
                continue
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [f"{node.module}.{alias.name}" for alias in node.names]
            else:
                continue
            found += [(scope, f"import {m}") for m in modules if m.startswith("xml.etree")]
    return found


def test_one_writer_puts_every_output_file_on_disk():
    found = [
        (path.name, *write)
        for path in sorted((ROOT / "src" / "fnr").glob("*.py"))
        for write in file_writes(path.read_text(encoding="utf-8"))
    ]
    assert found == [("render.py", "_write_text", "open(path, 'w', encoding='ascii', newline='\\n')")]


def test_file_write_scan_flags_writes_and_xml_imports():
    source = (
        "import json\n"
        "import xml.etree.ElementTree as ET\n"
        "from xml.etree import ElementTree\n"
        "from xml import etree\n"
        "def save(path, text):\n"
        "    path.write_text(text)\n"
        "    with open(path) as handle:\n"
        "        handle.write(json.dumps(text))\n"
        "class Saver:\n"
        "    def dump(self, handle):\n"
        "        json.dump({}, handle)\n"
        "        self.path.write_bytes(b'')\n"
    )
    assert file_writes(source) == [
        ("<module>", "import xml.etree.ElementTree"),
        ("<module>", "import xml.etree.ElementTree"),
        ("<module>", "import xml.etree"),
        ("save", "path.write_text(text)"),
        ("save", "open(path)"),
        ("Saver", "json.dump({}, handle)"),
        ("Saver", "self.path.write_bytes(b'')"),
    ]


def test_no_unused_imports():
    files = sorted((ROOT / "src" / "fnr").glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))
    assert len(files) > 10
    found = [
        f"{path.relative_to(ROOT)}:{line} {name}"
        for path in files
        for line, name in unused_imports(path.read_text(encoding="utf-8"))
    ]
    assert found == []


def test_scan_flags_only_unused_names():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import json as js\n"
        "from math import pi, tau\n"
        "__all__ = ['tau']\n"
        "print(os.path.sep)\n"
    )
    assert unused_imports(source) == [(3, "js"), (4, "pi")]


def test_no_private_name_of_src_is_used_only_by_the_tests():
    files = sorted((ROOT / "src" / "fnr").glob("*.py"))
    assert len(files) > 5
    sources = {str(path.relative_to(ROOT)): path.read_text(encoding="utf-8") for path in files}
    assert unreferenced_private_names(sources) == []


def test_private_name_scan_flags_only_names_no_source_loads():
    sources = {
        "a.py": (
            "_used = 1\n"
            "_only_defined = 2\n"
            "__dunder__ = 3\n"
            "def _helper():\n"
            "    return _used\n"
            "class _Kept:\n"
            "    pass\n"
            "_stored: int = 4\n"
        ),
        "b.py": (
            "import a\n"
            "__all__ = ['_listed']\n"
            "_listed = 5\n"
            "print(a._helper(), a._Kept)\n"
            "a._stored = 6\n"
        ),
    }
    assert unreferenced_private_names(sources) == [("a.py", 2, "_only_defined"), ("a.py", 8, "_stored")]
