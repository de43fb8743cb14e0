"""Output checks for one benchmark operation.

An operation fails when its exit code is wrong, it raised out of
`cli.main`, an output file is missing or malformed (wrong header, row
or cell count, a non-finite number), a report says it did not pass, or,
for the seed the digests were recorded at, a file's sha256 differs from
the recorded one.  Each check returns problems as strings; an empty
list is a pass.  Checks also return the work counts read from outputs.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import re

from scenarios import Op


def sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def _finite(text: str) -> bool:
    try:
        return math.isfinite(float(text))
    except ValueError:
        return False


def _csv(path: str, columns: list[str]) -> tuple[list[str], int, list[str] | None]:
    """Problems, data-row count and last row of a CSV with a known header."""
    problems = []
    rows = 0
    last = None
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n").split(",")
        if header != columns:
            problems.append(f"header {header} != {columns}")
        for line in fh:
            cells = line.rstrip("\n").split(",")
            rows += 1
            if len(cells) != len(columns) or not all(_finite(c) for c in cells):
                problems.append(f"row {rows} malformed or non-finite")
                break
            last = cells
    return problems, rows, last


def _trajectory(path: str, spec: dict) -> tuple[list[str], dict]:
    problems, rows, last = _csv(path, spec["columns"])
    if spec["rows"] is not None and rows != spec["rows"]:
        problems.append(f"{rows} rows, expected {spec['rows']}")
    if rows < 2:
        problems.append("fewer than two samples")
    elif abs(float(last[0]) - spec["t_final"]) > 1e-9 * max(1.0, spec["t_final"]):
        problems.append(f"last s = {last[0]}, expected {spec['t_final']}")
    return problems, {"steps": max(0, rows - 1)}


def _grid(path: str, spec: dict) -> tuple[list[str], dict]:
    problems = []
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().split("\n")
    if lines[-1] == "":
        lines.pop()
    if not lines or lines[0] != "geokin-grid 1":
        return ["not a geokin grid file"], {}
    if lines[1] != f"chart {spec['chart']}":
        problems.append(f"chart line {lines[1]!r}")
    axes = [line for line in lines[2:] if line.startswith("axis ")]
    if len(axes) != spec["axes"]:
        problems.append(f"{len(axes)} axis lines, expected {spec['axes']}")
    head = 2 + len(axes)
    if head >= len(lines) or lines[head] != f"values {spec['cells']}":
        problems.append(f"expected 'values {spec['cells']}'")
    values = lines[head + 1:]
    if len(values) != spec["cells"] or not all(_finite(v) for v in values):
        problems.append(f"{len(values)} values, expected {spec['cells']} finite")
    return problems, {}


_ESCAPED = re.compile(r"escaped (\d+) ")


def _particles(path: str, spec: dict, stdout: str) -> tuple[list[str], dict]:
    names = ["q1", "p1"]
    if spec["chart"] in ("contact", "cocontact"):
        names.append("z")
    if spec["chart"] in ("cosymplectic", "cocontact"):
        names.append("t")
    problems, rows, _ = _csv(path, names + ["w"])
    found = _ESCAPED.search(stdout)
    if found is None:
        problems.append("no escaped count in stdout")
    elif rows + int(found.group(1)) != spec["seeded"]:
        problems.append(f"{rows} survivors + {found.group(1)} escaped != {spec['seeded']} seeded")
    return problems, {}


def _identity(path: str, spec: dict) -> tuple[list[str], dict]:
    with open(path, encoding="utf-8") as fh:
        report = json.load(fh)
    problems = []
    if report.get("passed") is not True:
        problems.append("identity report did not pass")
    if report.get("chart") != {"kind": spec["chart"], "n": spec["n"]}:
        problems.append(f"report chart {report.get('chart')}")
    laws = report.get("laws", [])
    if not laws or any(law.get("status") != "pass" for law in laws):
        problems.append("a law did not pass")
    return problems, {"laws": len(laws)}


def _momentum(path: str, spec: dict) -> tuple[list[str], dict]:
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    problems = []
    if "status: PASS" not in text.splitlines():
        problems.append("momentum report did not pass")
    if f"pairs: {spec['pairs']}" not in text.splitlines():
        problems.append(f"expected pairs: {spec['pairs']}")
    return problems, {"laws": spec["pairs"]}


def check_op(op: Op, out_dir: str, result: dict, golden: dict | None) -> tuple[list[str], dict, dict]:
    """Problems, work counts read from outputs, and output digests for one op."""
    problems = []
    if result["raised"] is not None:
        problems.append(f"raised out of cli.main: {result['raised']}")
    elif result["rc"] != op.expect_rc:
        problems.append(f"exit {result['rc']}, expected {op.expect_rc}")
    if op.expect_err is not None and op.expect_err not in result["stderr"]:
        problems.append(f"stderr lacks {op.expect_err!r}: {result['stderr'][:200]!r}")
    if op.expect_out is not None and op.expect_out not in result["stdout"]:
        problems.append(f"stdout lacks {op.expect_out!r}")
    work: dict[str, int] = {}
    digests: dict[str, str] = {}
    if problems:
        return problems, work, digests
    for fname, spec in op.outputs.items():
        path = os.path.join(out_dir, fname)
        if not os.path.isfile(path):
            problems.append(f"missing output {fname}")
            continue
        digests[fname] = sha256(path)
        kind = spec["kind"]
        if kind == "trajectory":
            found, counts = _trajectory(path, spec)
        elif kind == "grid":
            found, counts = _grid(path, spec)
        elif kind == "particles":
            found, counts = _particles(path, spec, result["stdout"])
        elif kind == "identity":
            found, counts = _identity(path, spec)
        else:
            found, counts = _momentum(path, spec)
        problems.extend(f"{fname}: {p}" for p in found)
        for name, value in counts.items():
            work[name] = work.get(name, 0) + value
    escaped = _ESCAPED.search(result["stdout"])
    if escaped is not None:  # kinetic-particle reports the particles it dropped
        work["escaped"] = int(escaped.group(1))
    if golden is not None:
        want = golden.get("files", {})
        if golden.get("rc") != result["rc"]:
            problems.append(f"exit {result['rc']} differs from recorded {golden.get('rc')}")
        if want != digests:
            changed = sorted(set(want) ^ set(digests) | {f for f in want if digests.get(f) != want[f]})
            problems.append(f"digest differs from recorded for {', '.join(changed)}")
    return problems, work, digests
