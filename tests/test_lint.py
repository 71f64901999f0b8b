"""Source hygiene: no module in src/fnr or tests imports a name it never uses,
every private top-level name of src/fnr is used inside src/fnr, every name in
an ``__all__`` of src/fnr is used in src/fnr, scripts/ or perfbench/, every
method and every instance attribute of a class of src/fnr without bases
is used in src/fnr, one
function of src/fnr writes every output file, no cache in src/fnr keeps
results across calls, and no route imports another route's transcriptions."""

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


def loaded_names(tree: ast.AST) -> set:
    """The names a module loads, as bare names or as attributes."""
    return {
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)
    }


def unreferenced_names(sources: dict, readers: dict | None = None) -> list:
    """(path, line, name) of each private or exported name of ``sources`` that nothing loads.

    ``sources`` and ``readers`` map paths to module sources.  A private name
    starts with one underscore and is not a dunder; it is defined at module
    level in ``sources`` by a def, a class or an assignment, and it counts
    as referenced when ``sources`` load it.  An exported name is a string in
    the ``__all__`` of one of ``sources``, dunders aside, found at the line
    of that string; it counts as referenced when ``sources`` or ``readers``
    load it.  An import, a re-export included, is not a load, and neither is
    an ``__all__`` string.
    """
    defined = {}  # (path, name) -> (line, exported)
    used = set()
    for path, source in sources.items():
        tree = ast.parse(source)
        used |= loaded_names(tree)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, ast.Assign):
                names = [target.id for target in node.targets if isinstance(target, ast.Name)]
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                names = [node.target.id]
            else:
                continue
            if names == ["__all__"]:
                for elt in node.value.elts:
                    if isinstance(elt, ast.Constant) and not elt.value.startswith("__"):
                        defined[path, elt.value] = elt.lineno, True
                continue
            for name in names:
                if name.startswith("_") and not name.startswith("__"):
                    defined.setdefault((path, name), (node.lineno, False))
    read = set().union(*(loaded_names(ast.parse(source)) for source in (readers or {}).values()))
    return sorted(
        (path, line, name)
        for (path, name), (line, exported) in defined.items()
        if name not in used and not (exported and name in read)
    )


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


CACHES = {"cache", "lru_cache"}


def memoized_functions(source: str) -> list:
    """(line, name) of each function with parameters under a ``functools`` cache.

    A decorator counts when it is ``cache`` or ``lru_cache``, bare, as an
    attribute or called with arguments.  A function without parameters may
    keep one result for the life of the process; any other memo would hold
    tables across calls.
    """
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        args = node.args
        if not (args.posonlyargs or args.args or args.vararg or args.kwonlyargs or args.kwarg):
            continue
        for decorator in node.decorator_list:
            target = decorator.func if isinstance(decorator, ast.Call) else decorator
            name = target.id if isinstance(target, ast.Name) else getattr(target, "attr", None)
            if name in CACHES:
                found.append((node.lineno, node.name))
    return found


def test_no_cache_keeps_results_across_calls():
    found = [
        (path.name, *memo)
        for path in sorted((ROOT / "src" / "fnr").glob("*.py"))
        for memo in memoized_functions(path.read_text(encoding="utf-8"))
    ]
    assert found == []


def test_cache_scan_flags_a_memoized_circle_table():
    source = (ROOT / "src" / "fnr" / "truncation.py").read_text(encoding="utf-8")
    assert memoized_functions(source) == []
    definition = "def _circle("
    line = source[: source.index(definition)].count("\n") + 2
    memoized = source.replace(definition, "@functools.lru_cache(maxsize=None)\n" + definition)
    assert memoized_functions(memoized) == [(line, "_circle")]
    other = (
        "from functools import cache, lru_cache\n"
        "@cache\n"
        "def constant():\n"
        "    return 1\n"
        "@lru_cache\n"
        "def table(samples):\n"
        "    return samples\n"
        "class Holder:\n"
        "    @cache\n"
        "    def method(self):\n"
        "        return 2\n"
    )
    assert memoized_functions(other) == [(6, "table"), (10, "method")]


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


def src_names_no_one_loads() -> list:
    """The scan over src/fnr, with scripts/ and perfbench/ as readers of its exported names."""
    sources = {
        str(path.relative_to(ROOT)): path.read_text(encoding="utf-8")
        for path in sorted((ROOT / "src" / "fnr").glob("*.py"))
    }
    readers = {
        str(path.relative_to(ROOT)): path.read_text(encoding="utf-8")
        for folder in ("scripts", "perfbench")
        for path in sorted((ROOT / folder).glob("*.py"))
    }
    assert len(sources) > 5 and len(readers) > 3
    return unreferenced_names(sources, readers)


def test_no_private_name_of_src_is_used_only_by_the_tests():
    assert [found for found in src_names_no_one_loads() if found[2].startswith("_")] == []


def test_no_exported_name_of_src_is_used_only_by_the_tests():
    assert [found for found in src_names_no_one_loads() if not found[2].startswith("_")] == []


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
            "_read_by_a_reader = 5\n"
            "__all__ = [\n"
            "    '__version__',\n"
            "    'api',\n"
            "    'unused',\n"
            "    'internal',\n"
            "    're_exported',\n"
            "]\n"
            "def api():\n"
            "    return internal()\n"
            "def unused():\n"
            "    pass\n"
            "def internal():\n"
            "    pass\n"
            "def re_exported():\n"
            "    pass\n"
        ),
        "b.py": (
            "import a\n"
            "from a import re_exported\n"
            "__all__ = ['_listed', 're_exported']\n"
            "_listed = 5\n"
            "print(a._helper(), a._Kept)\n"
            "a._stored = 6\n"
        ),
    }
    readers = {"run.py": "import a\nimport b\na.api()\nb._listed\na._read_by_a_reader\n"}
    assert unreferenced_names(sources, readers) == [
        ("a.py", 2, "_only_defined"),
        ("a.py", 8, "_stored"),
        ("a.py", 9, "_read_by_a_reader"),
        ("a.py", 13, "unused"),
        ("a.py", 15, "re_exported"),
        ("b.py", 3, "re_exported"),
    ]
    # Without readers, the exported names that only they load are flagged too.
    assert unreferenced_names(sources) == sorted(
        unreferenced_names(sources, readers) + [("a.py", 12, "api"), ("b.py", 3, "_listed")]
    )


def unloaded_methods(sources: dict) -> list:
    """(path, line, "Class.method") of each method of a class without bases that no source loads.

    A class counts when its definition lists no base class; its methods are
    the defs in its body, dunders aside, and one counts as loaded when any
    of ``sources`` loads its name, bare or as an attribute.  A method that
    only the tests call is flagged.
    """
    trees = {path: ast.parse(source) for path, source in sources.items()}
    used = set().union(*map(loaded_names, trees.values()))
    return sorted(
        (path, item.lineno, f"{node.name}.{item.name}")
        for path, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef) and not node.bases
        for item in node.body
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not (item.name.startswith("__") and item.name.endswith("__"))
        and item.name not in used
    )


def test_every_method_of_a_class_without_bases_is_loaded_in_src():
    sources = {
        str(path.relative_to(ROOT)): path.read_text(encoding="utf-8")
        for path in sorted((ROOT / "src" / "fnr").glob("*.py"))
    }
    assert unloaded_methods(sources) == []


def test_method_scan_flags_only_methods_no_source_loads():
    sources = {
        "a.py": (
            "from dataclasses import dataclass\n"
            "@dataclass\n"
            "class Plain:\n"
            "    def used(self):\n"
            "        return self.helper()\n"
            "    def helper(self):\n"
            "        return 1\n"
            "    def only_for_tests(self):\n"
            "        return 2\n"
            "    def __repr__(self):\n"
            "        return ''\n"
            "    @classmethod\n"
            "    def build(cls):\n"
            "        return cls()\n"
            "    @property\n"
            "    def size(self):\n"
            "        return 0\n"
            "class Derived(Exception):\n"
            "    def unused(self):\n"
            "        pass\n"
            "def outer():\n"
            "    class Inner:\n"
            "        def hidden(self):\n"
            "            pass\n"
            "    return Inner\n"
        ),
        "b.py": "import a\nprint(a.Plain().used(), a.Plain.build)\n",
    }
    assert unloaded_methods(sources) == [
        ("a.py", 8, "Plain.only_for_tests"),
        ("a.py", 16, "Plain.size"),
        ("a.py", 23, "Inner.hidden"),
    ]
    # A load in a source that is left out of the scan does not count.
    assert ("a.py", 4, "Plain.used") in unloaded_methods({"a.py": sources["a.py"]})


def unloaded_attributes(sources: dict) -> list:
    """(path, line, "Class.attribute") of each instance attribute of a class without bases that no source loads.

    An instance attribute is a ``self.<name>`` that a method of the class
    assigns, alone or inside a tuple target; it counts as loaded when any of
    ``sources`` loads its name as an attribute or a bare name.  State kept
    only for the tests to read is flagged.
    """
    trees = {path: ast.parse(source) for path, source in sources.items()}
    used = set().union(*map(loaded_names, trees.values()))
    return sorted({
        (path, item.lineno, f"{node.name}.{item.attr}")
        for path, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef) and not node.bases
        for item in ast.walk(node)
        if isinstance(item, ast.Attribute) and isinstance(item.ctx, ast.Store)
        and isinstance(item.value, ast.Name) and item.value.id == "self"
        and item.attr not in used
    })


def test_every_attribute_of_a_class_without_bases_is_loaded_in_src():
    sources = {
        str(path.relative_to(ROOT)): path.read_text(encoding="utf-8")
        for path in sorted((ROOT / "src" / "fnr").glob("*.py"))
    }
    assert unloaded_attributes(sources) == []


def test_attribute_scan_flags_only_attributes_no_source_loads():
    sources = {
        "a.py": (
            "class Plain:\n"
            "    def __init__(self, other):\n"
            "        self.read, self.kept_for_tests = 1, 2\n"
            "        self.also_read = self.read\n"
            "        self.annotated: int = 3\n"
            "        other.elsewhere = 4\n"
            "        object.__setattr__(self, 'hidden', 5)\n"
            "    def grow(self):\n"
            "        [self.listed, self.read] = [6, 7]\n"
            "class Derived(Exception):\n"
            "    def __init__(self):\n"
            "        self.unread = 8\n"
        ),
        "b.py": "import a\nprint(a.Plain(None).also_read)\n",
    }
    assert unloaded_attributes(sources) == [
        ("a.py", 3, "Plain.kept_for_tests"),
        ("a.py", 5, "Plain.annotated"),
        ("a.py", 9, "Plain.listed"),
    ]
    # A load in a source that is left out of the scan does not count.
    assert ("a.py", 4, "Plain.also_read") in unloaded_attributes({"a.py": sources["a.py"]})


def sibling_imports(source: str) -> list:
    """(module, name) of each import of a module from another module of fnr.

    ``from .boundary import angle_grid`` and ``from fnr.boundary import
    angle_grid`` give ("boundary", "angle_grid").  An import that binds the
    whole module, ``from . import boundary`` or ``import fnr.boundary``, gives
    ("boundary", "*"), and so does a star import.
    """
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [
                (alias.name.split(".")[1], "*") for alias in node.names
                if alias.name.startswith("fnr.")
            ]
        elif isinstance(node, ast.ImportFrom) and (node.level or node.module.split(".")[0] == "fnr"):
            module = (node.module or "") if node.level else node.module.removeprefix("fnr").lstrip(".")
            if module:
                found += [(module.split(".")[0], alias.name) for alias in node.names]
            else:
                found += [(alias.name, "*") for alias in node.names]
    return found


# The routes check one another only while none reads another's formulas: the
# truncation route may load the closed form's input checks and nothing else,
# and the exact route loads none of the float routes or their checks.
TRUNCATION_MAY_LOAD_FROM_BOUNDARY = {"_check_radius", "angle_grid"}
EXACT_MAY_NOT_LOAD = {"boundary", "truncation", "checks"}


def route_leaks(truncation: str, exact: str) -> list:
    """(module, imported module, name) of each import that breaks route independence."""
    leaks = [
        ("truncation", module, name) for module, name in sibling_imports(truncation)
        if module == "boundary" and name not in TRUNCATION_MAY_LOAD_FROM_BOUNDARY
    ]
    leaks += [
        ("exact", module, name) for module, name in sibling_imports(exact)
        if module in EXACT_MAY_NOT_LOAD
    ]
    return leaks


def test_no_route_imports_another_routes_transcriptions():
    src = ROOT / "src" / "fnr"
    truncation = (src / "truncation.py").read_text(encoding="utf-8")
    exact = (src / "exact.py").read_text(encoding="utf-8")
    assert ("boundary", "angle_grid") in sibling_imports(truncation)
    assert route_leaks(truncation, exact) == []


def test_route_scan_flags_every_form_of_import():
    truncation = (
        "from .boundary import _check_radius, angle_grid, support_function\n"
        "from . import boundary, exact\n"
        "import fnr.boundary\n"
        "from fnr.boundary import *\n"
        "from .exact import sextic_polynomial\n"
        "import numpy\n"
    )
    exact = (
        "from .checks import CheckResult\n"
        "from fnr import truncation\n"
        "import fnr.render\n"
        "def late():\n"
        "    from .boundary import angle_grid\n"
    )
    assert route_leaks(truncation, exact) == [
        ("truncation", "boundary", "support_function"),
        ("truncation", "boundary", "*"),
        ("truncation", "boundary", "*"),
        ("truncation", "boundary", "*"),
        ("exact", "checks", "CheckResult"),
        ("exact", "truncation", "*"),
        ("exact", "boundary", "angle_grid"),
    ]
