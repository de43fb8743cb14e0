"""Tests of the benchmark itself (not of geokin).

    python3 -m pytest -q perfbench/test_perfbench.py

Tiny runs (`--scale 0.05`) keep this to well under a minute.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import check  # noqa: E402
import run  # noqa: E402
import scenarios  # noqa: E402
import worker  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


def bench(*args: str) -> tuple[int, list[str], dict]:
    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), *args], cwd=ROOT,
                          capture_output=True, text=True, timeout=170)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, lines, json.loads(lines[-1]) if lines else {}


def tiny(workload: str, seed: int, trace: int) -> tuple[int, list[str], dict]:
    return bench("--workload", workload, "--seed", str(seed), "--seconds", "0",
                 "--trace", str(trace), "--scale", "0.05")


def test_spec_names_the_four_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(scenarios.WORKLOADS)


@pytest.mark.parametrize("workload", scenarios.WORKLOADS)
def test_tiny_run_emits_every_end_to_end_metric(workload):
    rc, lines, result = tiny(workload, 3, 0)
    assert rc == 0, "\n".join(lines)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert any(line.startswith("failed_frac = 0/") for line in lines)


@pytest.mark.parametrize("workload", ["short", "exact"])
def test_tiny_traced_run_emits_every_per_layer_metric(workload):
    rc, lines, result = tiny(workload, 4, 1)
    assert rc == 0, "\n".join(lines)
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert result["metrics"]["trace.overhead_frac"]["value"] > -1.0


def test_other_seed_changes_configs_not_metric_names():
    for workload in scenarios.WORKLOADS:
        a = scenarios.generate(workload, 1, "/out")
        b = scenarios.generate(workload, 2, "/out")
        assert [op.name for op in a] == [op.name for op in b]
        assert [op.work for op in a] == [op.work for op in b]
        assert json.dumps([op.config or op.argv for op in a]) != json.dumps(
            [op.config or op.argv for op in b])
    names = [set(tiny("short", seed, 0)[2]["metrics"]) for seed in (5, 6)]
    assert names[0] == names[1]


def test_ref_metrics_cancel_a_uniform_slowdown():
    def fake(scale, preempted=1.0):
        return {"ops": [{"latency_s": 0.1 * scale}, {"latency_s": 0.3 * scale}],
                "reference_s": [0.001 * scale] * 9 + [0.001 * scale * preempted],
                "work": {"invocations": 2, "steps": 10}, "setup_s": 0.2,
                "wall_s": 0.4 * scale, "peak_rss_mib": 30.0}

    fast, _ = run.end_to_end("trajectory", [fake(1.0)] * 4, [0.2] * 8)
    slow, _ = run.end_to_end("trajectory", [fake(1.5, preempted=20.0)] * 4, [0.2] * 8)
    assert slow["wall_s"] == pytest.approx(1.5 * fast["wall_s"])
    assert slow["wall_ref"] == pytest.approx(fast["wall_ref"])
    assert slow["scenario_p50_ref"] == pytest.approx(fast["scenario_p50_ref"])


def test_flipping_one_output_byte_fails_the_operation(tmp_path):
    from geokin import cli

    op = scenarios.generate("short", 0, str(tmp_path), 0.05)[0]
    worker.write_configs([op])
    result = worker.invoke(cli, op.argv)
    problems, work, digests = check.check_op(op, worker.op_dir(op), result, None)
    assert not problems and work["steps"] > 0 and digests
    recorded = {"rc": result["rc"], "files": digests}
    assert check.check_op(op, worker.op_dir(op), result, recorded)[0] == []
    path = os.path.join(worker.op_dir(op), next(iter(digests)))
    data = bytearray(open(path, "rb").read())
    data[len(data) // 2] ^= 0x01
    open(path, "wb").write(bytes(data))
    problems = check.check_op(op, worker.op_dir(op), result, recorded)[0]
    assert any("digest differs" in p or "non-finite" in p for p in problems)


def test_short_pass_at_default_seed_matches_golden(tmp_path):
    env = {k: v for k, v in os.environ.items() if k != "GEOKIN_THREADS"}
    env.update(run.THREAD_CAPS)
    out = tmp_path / "pass.json"
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py"), "--workload", "short",
         "--seed", str(run.DEFAULT_SEED), "--scale", "1.0", "--trace", "0",
         "--launch", "0", "--tmp", str(tmp_path / "ops"), "--result", str(out)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(out.read_text())
    assert payload["golden_checked"] is True
    assert [op["name"] for op in payload["ops"] if op["problems"]] == []
    # the two inputs that still raise out of cli.main are reported, not hidden
    assert [p["outcome"].split(":")[0] for p in payload["probes"]] == [
        "DegreeOverflowError", "OverflowError"]


def test_thread_leaks_are_refused(monkeypatch):
    ops = scenarios.generate("kinetic", 0, "/out", 0.05)
    for cap, value in run.THREAD_CAPS.items():
        monkeypatch.setenv(cap, value)
    monkeypatch.delenv("GEOKIN_THREADS", raising=False)
    assert worker.isolation_problems(ops) == []
    monkeypatch.setenv("GEOKIN_THREADS", "2")
    assert worker.isolation_problems(ops)
    monkeypatch.delenv("GEOKIN_THREADS")
    ops[0].config["threads"] = 2
    assert worker.isolation_problems(ops)


def test_count_mismatch_between_passes_fails_the_run():
    def fake(steps, calls, traced=True):
        return {"work": {"steps": steps}, "traced": traced,
                "trace": {"calls": {"poly.eval": calls}} if traced else None}

    assert run.determinism_problems([fake(10, 5), fake(10, 5, False), fake(10, 5)]) == []
    assert run.determinism_problems([fake(10, 5), fake(11, 5)])
    assert run.determinism_problems([fake(10, 5), fake(10, 6)])


def test_refuses_to_run_without_the_program(tmp_path):
    os.makedirs(tmp_path / "perfbench")
    for name in os.listdir(HERE):
        if name.endswith((".py", ".json")):
            with open(os.path.join(HERE, name), "rb") as src:
                (tmp_path / "perfbench" / name).write_bytes(src.read())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "short",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_invoke_counts_a_raise_as_a_failure():
    class Boom:
        @staticmethod
        def main(argv):
            raise OverflowError("too big")

    result = worker.invoke(Boom, [])
    op = scenarios.Op("demo", ["run"], 0)
    assert check.check_op(op, "/nonexistent", result, None)[0] == [
        "raised out of cli.main: OverflowError: too big"]
