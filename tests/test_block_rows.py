"""Every pass over rows has one block size, `flow.BLOCK_ROWS`.

The monitors, the CSV writer, the seeding, the push, the cloud-in-cell
stencil and the grid writer all walk `flow.row_blocks`, which reads
`flow.BLOCK_ROWS` at each use, so one patch of it reaches every pass.
The scan is over the AST of every module in `src/`: a module-level
assignment to a name containing `BLOCK_ROWS` may appear only in
`flow.py`, and no module imports such a name from `flow`, which would
bind a copy that a patch does not reach.
"""

import ast
from pathlib import Path

from helpers import top_level_assignments

SRC = Path(__file__).resolve().parents[1] / "src" / "geokin"


def block_rows_names(source: str) -> list[str]:
    """The `*BLOCK_ROWS*` names a module assigns at its top level or
    imports from `flow`."""
    imported = [alias.asname or alias.name for node in ast.walk(ast.parse(source))
                if isinstance(node, ast.ImportFrom) and node.module in ("flow", "geokin.flow")
                for alias in node.names if "BLOCK_ROWS" in alias.name]
    return [name for name in top_level_assignments(source) if "BLOCK_ROWS" in name] + imported


def test_the_scan_sees_each_form_of_assignment_and_an_imported_block_size():
    source = ("PUSH_BLOCK_ROWS = 1\nCSV_BLOCK_ROWS: int = 2\nBLOCK_ROWS, other = 3, 4\n"
              "def f():\n    LOCAL_BLOCK_ROWS = 5\n"
              "from .flow import BLOCK_ROWS as rows, row_blocks\n")
    assert block_rows_names(source) == ["PUSH_BLOCK_ROWS", "CSV_BLOCK_ROWS", "BLOCK_ROWS", "rows"]


def test_the_block_size_is_assigned_in_flow_alone():
    elsewhere = {path.name: block_rows_names(path.read_text())
                 for path in sorted(SRC.glob("*.py")) if path.name != "flow.py"}
    assert {name: found for name, found in elsewhere.items() if found} == {}
    assert block_rows_names((SRC / "flow.py").read_text()) == ["BLOCK_ROWS"]
