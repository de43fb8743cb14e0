"""Every imported name is used where it is imported, and no `src/` module
imports another's private name.

An import that nothing references is dead code that still costs a load
and misleads a reader about what a module depends on.  The scan is over
the AST of every file in `src/` and `tests/`: a name bound by `import`
or `from ... import` must appear as a name elsewhere in the same file, or
in its `__all__`.  An import kept on purpose for another reader (such as
a binding the benchmark's tracer wraps) says so with the usual
`# noqa: F401` on its line.

A name with a leading underscore is its module's own: a second module that
needs it needs it under a public name, so the scan of `src/` refuses
`from .<module> import _<name>`, relative or through `geokin`.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = []
    for node in ast.walk(tree):
        if "# noqa: F401" in lines[getattr(node, "lineno", 1) - 1]:
            continue
        if isinstance(node, ast.Import):
            imported += [alias.asname or alias.name.partition(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names if alias.name != "*"]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used |= {elt.value for elt in node.value.elts if isinstance(elt, ast.Constant)}
    return sorted(set(imported) - used)


def test_the_scan_sees_an_unused_import():
    assert unused_imports("import os\nfrom a.b import c, d as e\nprint(c)\n") == ["e", "os"]
    assert unused_imports("import numpy as np\nx: np.ndarray\n") == []
    assert unused_imports("from __future__ import annotations\nfrom m import f\n"
                          "__all__ = ['f']\n") == []
    assert unused_imports("from m import f  # noqa: F401  kept for a tracer\n") == []


def test_no_file_imports_a_name_it_never_references():
    files = sorted([*(ROOT / "src").rglob("*.py"), *(ROOT / "tests").rglob("*.py")])
    assert files
    unused = {str(path.relative_to(ROOT)): names for path in files
              if (names := unused_imports(path.read_text()))}
    assert unused == {}


def private_imports(source: str) -> list[str]:
    """Each `from <module> import <name>` in `source` that takes a private
    name from a geokin module."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").partition(".")[0] == "geokin"):
            module = "." * node.level + (node.module or "")
            found += [f"from {module} import {alias.name}" for alias in node.names
                      if alias.name.startswith("_")]
    return sorted(found)


def test_the_scan_sees_a_private_import():
    assert private_imports("from .flow import rk4_stepper, _rkf45_stepper\n"
                           "from geokin.poly import _SLOT\nfrom . import _hidden\n") == [
        "from . import _hidden", "from .flow import _rkf45_stepper",
        "from geokin.poly import _SLOT"]
    assert private_imports("from __future__ import annotations\nfrom os import _exit\n"
                           "from .poly import Poly\n") == []


def test_no_src_module_imports_a_private_name_of_another():
    files = sorted((ROOT / "src").rglob("*.py"))
    assert files
    found = {str(path.relative_to(ROOT)): names for path in files
             if (names := private_imports(path.read_text()))}
    assert found == {}
