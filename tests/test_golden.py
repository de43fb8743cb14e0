"""Golden outputs: seed-0 benchmark operations, byte for byte.

`perfbench/golden.json` records the exit code and the sha256 of every
output file of each seed-0 benchmark operation.  These tests rebuild a
subset of those operations with `perfbench/scenarios.py`, run them
in-process through `geokin.cli.main`, and compare; each operation's
expected stdout and stderr substrings (a config error's JSON path, for
one) must appear too, as `perfbench/check.py` requires.  A change that moves
one output byte fails here and has to say why; golden.json is re-recorded
only by `perfbench/run.py --record-golden`.
"""

import hashlib
import json
import os
import sys

import pytest

from geokin import cli

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")
sys.path.insert(0, PERFBENCH)

import scenarios  # noqa: E402

with open(os.path.join(PERFBENCH, "golden.json"), encoding="utf-8") as _fh:
    GOLDEN = json.load(_fh)

# None runs every operation of the workload.
SELECTED = {
    "short": None,
    "trajectory": (
        "traj00-symplectic-n1-hamiltonian-none-rk4-deg4",
        "traj06-contact-n1-strict-none-rk45-deg4",
    ),
    "kinetic": ("part2-contact-36cu", "grid1-cosymplectic-t-collapsed-96sq"),
    "exact": (
        "ident0-symplectic-n1",
        "momentum-symplectic",
        "momentum-cosymplectic",
        "momentum-contact",
        "momentum-cocontact",
    ),
}


def _sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _run(op, capsys):
    """Write the op's config and run it: its exit code and digests, and the
    expected stdout and stderr substrings it failed to print."""
    out_dir = os.path.dirname(next(a for a in op.argv if os.path.isabs(a)))
    os.makedirs(out_dir)
    if op.config is not None:
        with open(os.path.join(out_dir, "config.json"), "w", encoding="utf-8") as fh:
            json.dump(op.config, fh)
    rc = cli.main(op.argv)
    out, err = capsys.readouterr()
    files = {
        name: _sha256(os.path.join(out_dir, name))
        for name in op.outputs
        if os.path.isfile(os.path.join(out_dir, name))
    }
    missing = [text for text, stream in ((op.expect_out, out), (op.expect_err, err))
               if text is not None and text not in stream]
    return {"files": files, "rc": rc}, missing


@pytest.mark.parametrize("workload", sorted(SELECTED))
def test_outputs_match_golden_digests(workload, tmp_path, capsys):
    recorded = GOLDEN["workloads"][workload]
    names = SELECTED[workload]
    ops = scenarios.generate(workload, GOLDEN["seed"], str(tmp_path), GOLDEN["scale"])
    ops = [op for op in ops if names is None or op.name in names]
    assert len(ops) == (len(recorded) if names is None else len(names))
    results = {op.name: _run(op, capsys) for op in ops}
    assert [name for name, (got, _) in results.items() if got != recorded[name]] == []
    # config errors name their JSON path, and runs print what the checks expect
    assert {name: missing for name, (_, missing) in results.items() if missing} == {}


def test_known_defect_probes_exit_2_at_the_hamiltonian(tmp_path, capsys):
    ops = scenarios.known_defect_ops("short", str(tmp_path))
    assert len(ops) == 2
    for op in ops:
        assert op.expect_err == "config error at $.hamiltonian:"
        assert _run(op, capsys) == ({"files": {}, "rc": 2}, [])
