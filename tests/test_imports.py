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

A public function, class or method that nothing in `src/` references is
test-only code: every public top-level function or class in `src/`, and
every public method, must appear as a name or attribute somewhere in
`src/`, or be named in a code span of README.md (its documented API) or
in a `perfbench/*.py` file (which calls or traces it).
"""

import ast
import re
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


def unreferenced_public_names(sources: dict[str, str], readme: str, scripts: str = "") -> list[str]:
    """Each public top-level function or class of the `sources` (module
    name -> source), and each public method, as `module.name` or
    `module.Class.name`, that no source references as a name or attribute,
    that no word of a code span of the Markdown `readme` names (prose does
    not count: a dead name may be an English word), and that no word of
    `scripts` names."""
    spans = "\n".join(span for _, span in re.findall(r"(`+)(.+?)\1", readme, re.DOTALL))
    defined, referenced = [], set(re.findall(r"\w+", spans + "\n" + scripts))
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.append((f"{module}.{node.name}", node.name))
            if isinstance(node, ast.ClassDef):
                defined += [(f"{module}.{node.name}.{m.name}", m.name) for m in node.body
                            if isinstance(m, ast.FunctionDef)]
        referenced |= {node.id if isinstance(node, ast.Name) else node.attr
                       for node in ast.walk(tree) if isinstance(node, (ast.Name, ast.Attribute))}
    return sorted(qualified for qualified, name in defined
                  if not name.startswith("_") and name not in referenced)


def test_the_scan_sees_an_unreferenced_public_name():
    sources = {"a": "def used(): pass\ndef dead(): pass\ndef _own(): pass\n"
                    "class K:\n    def m(self): pass\n    def called(self): pass\n"
                    "    def __call__(self): pass\n",
               "b": "from .a import used\nused()\nK().called()\n"}
    assert unreferenced_public_names(sources, "") == ["a.K.m", "a.dead"]
    assert unreferenced_public_names(sources, "see `dead` and\n```\nK().m()\n```\n") == []
    assert unreferenced_public_names(sources, "a dead end, and K.m in prose") == [
        "a.K.m", "a.dead"]
    assert unreferenced_public_names(sources, "", "dead = K.m  # a script") == []


def test_every_public_name_in_src_has_a_reader_outside_the_tests():
    sources = {path.stem: path.read_text() for path in sorted((ROOT / "src").rglob("*.py"))}
    assert sources
    scripts = "\n".join(path.read_text() for path in sorted((ROOT / "perfbench").glob("*.py")))
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    assert unreferenced_public_names(sources, readme, scripts) == []
