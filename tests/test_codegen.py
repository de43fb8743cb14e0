"""Every generated function reads only the globals `codegen.define` gives
it, and `exec` runs nowhere in `src/` but there."""

import ast
import itertools
from fractions import Fraction
from pathlib import Path

import pytest

from geokin import codegen
from geokin.poly import Poly

ROOT = Path(__file__).resolve().parents[1]


def dense(dim: int) -> Poly:
    """Every monomial of total degree up to 3, each with its own coefficient."""
    return Poly(dim, {exps: Fraction(k + 1, 3) for k, exps in enumerate(
        e for e in itertools.product(range(4), repeat=dim) if sum(e) <= 3)})


def generated():
    """(id, function, the globals it is built with) for the entry and the
    kernel of zero, constant and dense polynomials on 0 to 4 coordinates,
    and the RK4 step, the RKF45 step and the norm on 1 to 40 coordinates."""
    entry = {"len", "float", "ValueError"}
    for dim in range(5):
        for name, p in (("zero", Poly.zero(dim)), ("const", Poly.const(dim, Fraction(-7, 2))),
                        ("dense", dense(dim))):
            terms = p.sorted_terms()
            yield f"entry-{name}-{dim}", codegen.evaluator(dim, terms, "entry"), entry
            yield f"array-{name}-{dim}", codegen.evaluator(dim, terms, "array"), set()
    for n in range(1, 41):
        yield f"rk4-{n}", codegen.rk4_stepper(n), set()
        yield f"rkf45-{n}", codegen.rkf45_stepper(n), set()
        yield f"norm-{n}", codegen.error_norm(n), {"sqrt", "max", "abs"}


GENERATED = list(generated())


@pytest.mark.parametrize("fn, names", [g[1:] for g in GENERATED], ids=[g[0] for g in GENERATED])
def test_a_generated_function_reads_no_global_it_is_not_given(fn, names):
    assert fn.__globals__["__builtins__"] == {}
    assert set(fn.__code__.co_names) <= set(fn.__globals__) - {"__builtins__"}
    assert set(fn.__code__.co_names) <= names
    assert not any(hasattr(c, "co_names") for c in fn.__code__.co_consts)  # no nested code


def test_a_name_outside_the_namespace_fails_when_the_function_runs():
    fn = codegen.define(["def f(x):", "    return abs(x) + len(x)"], {"abs": abs})
    with pytest.raises(NameError, match="'len'"):
        fn(-1.0)


def exec_sites(source: str) -> list[str]:
    """The innermost function around each `exec`, `eval` or `compile` name."""
    sites = []

    def visit(node: ast.AST, where: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Name) and child.id in ("exec", "eval", "compile"):
                sites.append(where)
            visit(child, child.name if isinstance(child, ast.FunctionDef) else where)

    visit(ast.parse(source), "<module>")
    return sites


def test_exec_runs_only_inside_codegen_define():
    assert exec_sites("def f():\n    def g():\n        exec('')\n    eval('1')\n") == ["g", "f"]
    sites = {path.name: found for path in sorted((ROOT / "src").rglob("*.py"))
             if (found := exec_sites(path.read_text()))}
    assert sites == {"codegen.py": ["define"]}
