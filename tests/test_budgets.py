"""Every run budget has one home, `geokin.budgets`.

A run budget says how much one run may cost: its steps, its work, the
sizes a config may ask for.  The scan is over the AST of every module in
`src/`: a module-level assignment to a `MAX_*` name may appear only in
`budgets.py`, and no module imports one from there by name, which would
bind a second name for it.  The exceptions are limits of an algorithm,
not of a run: `poly`'s degree, product and nesting caps, and the
adjudication's sample count in `density`.
"""

import ast
from pathlib import Path

from helpers import top_level_assignments

SRC = Path(__file__).resolve().parents[1] / "src" / "geokin"

ALGORITHM_LIMITS = {
    "poly.py": {"MAX_TOTAL_DEGREE", "MAX_PRODUCT_PAIRS", "MAX_NESTING"},
    "density.py": {"MAX_ADJUDICATION_SAMPLES"},
}


def max_assignments(source: str) -> list[str]:
    """The `MAX_*` names a module assigns at its top level."""
    return [name for name in top_level_assignments(source) if name.startswith("MAX_")]


def budget_imports(source: str) -> list[str]:
    """The names a module binds to the `MAX_*` budgets it imports from `budgets`."""
    return [alias.asname or alias.name for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ImportFrom) and node.module in ("budgets", "geokin.budgets")
            for alias in node.names if alias.name.startswith("MAX_")]


def test_the_scans_see_each_form_of_assignment_and_an_imported_budget():
    source = ("MAX_A = 1\nMAX_B: int = 2\nMAX_C, other = 3, 4\nMAX_A += 1\n"
              "def f():\n    MAX_D = 5\n")
    assert max_assignments(source) == ["MAX_A", "MAX_B", "MAX_C", "MAX_A"]
    assert budget_imports("from .budgets import MAX_A, step_count\n"
                          "from geokin.budgets import MAX_B as cap\n") == ["MAX_A", "cap"]


def test_every_run_budget_is_assigned_in_budgets_alone():
    elsewhere = {}
    for path in sorted(SRC.glob("*.py")):
        if path.name == "budgets.py":
            continue
        source = path.read_text()
        extra = set(max_assignments(source)) - ALGORITHM_LIMITS.get(path.name, set())
        if extra or budget_imports(source):
            elsewhere[path.name] = sorted(extra) + budget_imports(source)
    assert elsewhere == {}
    assert "MAX_STEPS" in max_assignments((SRC / "budgets.py").read_text())
