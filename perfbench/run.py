"""geokin benchmark: end-to-end CLI workloads and a traced per-layer run.

    python3 perfbench/run.py --workload trajectory --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  One run repeats passes over the
workload's scenario list for about `--seconds` seconds (at least four
passes).  Each pass is a fresh `perfbench/worker.py` process, so no
state a real `geokin` invocation would lack carries from one timed
operation to the next; one operation is one `geokin.cli.main` call.
Load is one closed-loop client: each invocation starts when the
previous one returns.  Every pass runs single-threaded: GEOKIN_THREADS
is removed from the workers' environment, the OpenMP/OpenBLAS/MKL caps
are 1, and every kinetic config says `threads: 1`.

With `--trace 0` a set-up-only worker precedes each pass, and the run
reports the end-to-end metrics of BENCHMARK.json.  Their latencies are
in refs: each is divided by its pass's time for a fixed pure-Python
kernel (worker.reference_s), which cancels the shared host's changing
speed; the raw seconds are printed beside them.  With `--trace 1` the
run alternates traced and untraced passes and reports the per-layer
metrics; see layers.py.  Earlier lines
of stdout give provenance, every metric with its unit, the workload's
own throughput names and the failed operations; the last line is the
JSON result.  The exit code is 0 when the result is correct, 1 when an
output check, the exact-count determinism check or a trace coverage
bound failed, and 2 when the run could not start.

`--record-golden` rewrites golden.json, the exit codes and output
sha256 digests of every operation at the default seed, from the code in
this checkout.  Do that only on purpose: the digests are what pins the
program's output bytes across changes.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import layers  # noqa: E402
import scenarios  # noqa: E402
from worker import THREAD_CAPS  # noqa: E402

DEFAULT_SEED = 0
MIN_PASSES = 4
PASS_TIMEOUT_S = 150.0

# Each workload's own throughput: (work count, metric name, meaning).
THROUGHPUT = {
    "trajectory": ("steps", "steps_per_s", "accepted integrator steps"),
    "kinetic": ("particle_steps", "particle_steps_per_s", "seeded particles x RK4 steps"),
    "exact": ("laws", "laws_per_s", "identity laws + momentum pairs checked"),
    "short": ("steps", "steps_per_s", "accepted integrator steps"),
}


def report_unit(name: str) -> str:
    """Unit of a metric that BENCHMARK.json does not list."""
    for suffix, unit in (("_ms", "ms"), ("_per_s", "1/s"), ("_us_per_step", "us"),
                         ("_ref", "ref"), ("_us", "us"),
                         ("_ns_per_particle_step", "ns"), ("_s", "s"), (".calls", "count")):
        if name.endswith(suffix):
            return unit
    raise KeyError(name)


class RunError(Exception):
    """The run could not produce a result."""


def percentile(values: list[float], pct: int) -> float:
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * pct // 100))  # nearest rank, 1-based
    return ordered[rank - 1]


def tail_percentile(ops_per_pass: int) -> int:
    """Highest whole percentile with at least ten samples above it in MIN_PASSES passes.

    It depends only on the workload's scenario count, so every run of a
    workload reports the same percentile whatever the machine's speed.
    """
    samples = MIN_PASSES * ops_per_pass
    return max(1, (100 * (samples - 10)) // samples)


def provenance(seed: int) -> dict:
    def read(path: str) -> str | None:
        try:
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        except OSError:
            return None

    model = None
    for line in (read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            model = line.split(":", 1)[1].strip()
            break
    caches = {}
    for index in range(8):
        base = f"/sys/devices/system/cpu/cpu0/cache/index{index}"
        level, kind, size = (read(f"{base}/{f}") for f in ("level", "type", "size"))
        if level is None:
            break
        caches[f"L{level}{'' if kind == 'Unified' else kind[0].lower()}"] = size
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "cpu0_caches": caches,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "worker_env": dict(THREAD_CAPS),
        "GEOKIN_THREADS_removed": os.environ.get("GEOKIN_THREADS"),
    }


def run_pass(args, traced: bool, index: int | str, tmp: str, record: bool = False,
             setup_only: bool = False) -> dict:
    pass_dir = os.path.join(tmp, f"pass{index}")
    result = os.path.join(tmp, f"pass{index}.json")
    env = {k: v for k, v in os.environ.items() if k != "GEOKIN_THREADS"}
    env.update(THREAD_CAPS)
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--scale", repr(args.scale), "--trace", str(int(traced)),
           "--tmp", pass_dir, "--result", result]
    if record:
        cmd.append("--record")
    if setup_only:
        cmd.append("--setup-only")
    launch = time.monotonic()
    try:
        proc = subprocess.run(cmd + ["--launch", repr(launch)], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise RunError(f"pass {index} exceeded {PASS_TIMEOUT_S:g} s") from None
    if proc.returncode != 0:
        raise RunError(f"pass {index} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    with open(result, encoding="utf-8") as fh:
        payload = json.load(fh)
    shutil.rmtree(pass_dir, ignore_errors=True)
    os.remove(result)
    payload["traced"] = traced
    payload["duration_s"] = time.monotonic() - launch
    return payload


def run_passes(args, tmp: str) -> tuple[list[dict], list[float]]:
    """MIN_PASSES passes, then more while one more still ends within `--seconds`.

    Without tracing, a set-up-only launch precedes each pass, so set-up is
    sampled across the whole run.  Returns the passes and every set-up time.
    """
    start = time.monotonic()
    passes: list[dict] = []
    setups: list[float] = []
    rounds: list[float] = []
    while True:
        if len(passes) >= MIN_PASSES:
            if time.monotonic() - start + statistics.median(rounds) > args.seconds:
                break
        began = time.monotonic()
        if not args.trace:
            setups.append(run_pass(args, False, f"setup{len(passes)}", tmp,
                                   setup_only=True)["setup_s"])
        # a traced run interleaves: traced, untraced, traced, untraced, ...
        traced = bool(args.trace) and len(passes) % 2 == 0
        passes.append(run_pass(args, traced, len(passes), tmp))
        setups.append(passes[-1]["setup_s"])
        rounds.append(time.monotonic() - began)
    return passes, setups


def reference_s(p: dict) -> float:
    """A pass's reference-kernel time: the mean of its readings without the slowest tenth,
    which a preemption inflates."""
    readings = sorted(p["reference_s"])
    kept = readings[:len(readings) - len(readings) // 10]
    return sum(kept) / len(kept)


def wall_sum(latencies: list[list[float]]) -> float:
    """One pass's time, assembled from each scenario's median over the passes.

    `latencies` holds one list per pass, in scenario order.  A burst of
    contention that slows the scenarios it overlaps in one pass drops
    out of the per-scenario median, and unlike a minimum the median does
    not drift with the number of passes.
    """
    return sum(statistics.median(samples) for samples in zip(*latencies))


def end_to_end(workload: str, passes: list[dict], setups: list[float]) -> tuple[dict, list[str]]:
    unit, name, meaning = THROUGHPUT[workload]
    raw = [[op["latency_s"] for op in p["ops"]] for p in passes]
    ref = [[lat / reference_s(p) for lat in lats] for p, lats in zip(passes, raw)]
    latencies = [lat * 1e3 for lats in raw for lat in lats]
    pct = tail_percentile(len(passes[0]["ops"]))
    work = passes[0]["work"]
    wall = wall_sum(raw)
    values = {
        "wall_ref": wall_sum(ref),
        "scenario_p50_ref": statistics.median(lat for lats in ref for lat in lats),
        "wall_s": wall,
        "setup_s": statistics.median(setups),
        "scenario_p50_ms": statistics.median(latencies),
        "scenario_tail_ms": percentile(latencies, pct),
        "scenarios_per_s": work["invocations"] / wall,
        name: work[unit] / wall,
        "reference_us": statistics.median(reference_s(p) for p in passes) * 1e6,
        "peak_rss_mib": statistics.median(p["peak_rss_mib"] for p in passes),
    }
    if work.get("cell_steps"):
        values["grid_cell_steps_per_s"] = work["cell_steps"] / wall
    above = sum(1 for v in latencies if v > values["scenario_tail_ms"])
    notes = [
        "a ref is the time of a fixed pure-Python kernel (160 Fraction monomial "
        "products summed into a dict), timed in the worker before the first invocation and after each; a pass's "
        "ref (reference_us) is the mean of its readings without the slowest tenth; *_ref "
        "metrics divide each latency by its pass's ref, so they do not follow the shared "
        "host's changing speed",
        "wall_ref and wall_s sum each scenario's median latency over the passes; "
        f"median pass wall = {statistics.median(p['wall_s'] for p in passes)!r} s",
        f"setup_s is the median of {len(setups)} set-ups ({len(passes)} set-up-only "
        f"launches and {len(passes)} passes)",
        f"scenario_tail_ms is p{pct} of {len(latencies)} invocation latencies "
        f"({above} above it)",
        f"per pass: {work['invocations']} invocations, {work[unit]} {meaning}"
        + (f", {work['cell_steps']} grid cells x SSP-RK3 steps" if work.get("cell_steps") else ""),
        "throughputs are fixed work per pass / wall_s",
    ]
    return values, notes


def per_layer(passes: list[dict]) -> tuple[dict, list[str]]:
    traced = [p for p in passes if p["traced"]]
    plain = [p for p in passes if not p["traced"]]
    values: dict[str, float] = {}

    def median_over_passes(name: str, per_pass) -> float:
        values[name] = statistics.median(per_pass(p) for p in traced)
        return values[name]

    for t in layers.TRACED:
        k = layers.key(t)
        values[f"{k}.calls"] = traced[0]["trace"]["calls"][k]
        median_over_passes(f"{k}.self_s", lambda p: p["trace"]["self_s"][k])
        median_over_passes(f"{k}.share", lambda p: p["trace"]["self_s"][k] / p["wall_s"])
    for layer in layers.LAYERS:
        keys = [layers.key(t) for t in layers.TRACED if t.layer == layer]
        median_over_passes(f"{layer}.self_s",
                           lambda p: sum(p["trace"]["self_s"][k] for k in keys))
        median_over_passes(f"{layer}.share",
                           lambda p: sum(p["trace"]["self_s"][k] for k in keys) / p["wall_s"])
    median_over_passes("trace.unattributed_s",
                       lambda p: p["wall_s"] - sum(p["trace"]["self_s"].values()))
    wall = statistics.median(p["wall_s"] for p in traced)
    # in refs, so the host's drift between traced and untraced passes cancels
    values["trace.overhead_frac"] = (
        statistics.median(p["wall_s"] / reference_s(p) for p in traced)
        / statistics.median(p["wall_s"] / reference_s(p) for p in plain) - 1.0)
    work = traced[0]["work"]
    steps = work.get("steps", 0)
    psteps = work.get("particle_steps", 0)
    values["flow.integrate.self_us_per_step"] = (
        values["flow.integrate.self_s"] / steps * 1e6 if steps else 0.0)
    values["kinetics.solve_density_particle.self_ns_per_particle_step"] = (
        values["kinetics.solve_density_particle.self_s"] / psteps * 1e9 if psteps else 0.0)
    values["kinetics.push.computed_bytes_per_step"] = (
        work["push_state_bytes"] / work["push_steps"] if psteps else 0.0)
    values["kinetics.escaped_frac"] = (
        work.get("escaped", 0) / work["seeded"] if work.get("seeded") else 0.0)
    values["cli.known_defect_failures"] = sum(1 for probe in traced[0]["probes"]
                                              if probe["problems"])
    notes = [
        f"traced wall_s = {wall!r} s (median of {len(traced)} traced passes); "
        f"{len(plain)} untraced passes give trace.overhead_frac, from pass walls in refs",
        "<fn>.share and <layer>.share are self time / traced wall_s",
        "kinetics.push.computed_bytes_per_step is computed, not measured: "
        "seeded particles x (dim + 1) x 8 B of RK4 state, averaged over RK4 push steps",
        "per-step ratios and escaped_frac read 0 where the workload runs no such step",
    ]
    return values, notes


def coverage_problems(passes: list[dict]) -> list[str]:
    """Lower bounds every traced pass must meet; a miss means a layer escaped the trace."""
    problems = []
    for p in (p for p in passes if p["traced"]):
        calls = p["trace"]["calls"]
        ops = p["ops"]
        runs = [o for o in ops if o["command"] == "run"]
        validated = [o for o in runs if o["expect_rc"] != 2]
        bounds = [
            ("cli.load_scenario", sum(o["command"] in ("run", "validate") for o in ops), True),
            ("cli.run_scenario", len(validated), True),
            ("identities.run_identity_suite", sum(o["command"] == "identity" for o in ops), True),
            ("flow.integrate", sum(o["task"] == "simulate" for o in validated), True),
            ("fields.make_field", sum(o["task"] == "simulate" for o in validated), False),
            ("kinetics.solve_density_particle",
             sum(o["task"] == "kinetic-particle" for o in validated), True),
            ("kinetics.solve_density_grid", sum(o["task"] == "kinetic-grid" for o in validated),
             False),
            ("poly.eval", 4 * p["work"].get("steps", 0), False),
        ]
        for name, bound, exact in bounds:
            got = calls[name]
            if got < bound or (exact and got != bound):
                problems.append(f"{name}.calls = {got}, expected {'' if exact else '>= '}{bound}")
    return problems


def determinism_problems(passes: list[dict]) -> list[str]:
    """Work counts repeat in every pass, and call counts in every traced pass."""
    problems = []
    for p in passes[1:]:
        if p["work"] != passes[0]["work"]:
            problems.append(f"work counts differ between passes: {passes[0]['work']} vs {p['work']}")
            break
    traced = [p["trace"]["calls"] for p in passes if p["traced"]]
    for calls in traced[1:]:
        if calls != traced[0]:
            diff = sorted(k for k in calls if calls[k] != traced[0][k])
            problems.append(f"call counts differ between traced passes: {', '.join(diff)}")
            break
    return problems


def record_golden(args, tmp: str) -> None:
    out = {"seed": DEFAULT_SEED, "scale": 1.0, "workloads": {}}
    args.seed, args.scale = DEFAULT_SEED, 1.0
    for workload in scenarios.WORKLOADS:
        args.workload = workload
        payload = run_pass(args, False, 0, tmp, record=True)
        out["workloads"][workload] = {
            op["name"]: {"rc": op["rc"], "files": op["files"]} for op in payload["ops"]}
    with open(os.path.join(HERE, "golden.json"), "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=scenarios.WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="shrink every scenario (the benchmark's own tests use 0.05)")
    parser.add_argument("--record-golden", action="store_true")
    args = parser.parse_args()
    if not args.record_golden and args.workload is None:
        parser.error("--workload is required")

    if not os.path.isfile(os.path.join(ROOT, "src", "geokin", "__init__.py")):
        print(f"no geokin source under {ROOT}/src; run from a geokin checkout", file=sys.stderr)
        return 2
    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(spec_path, encoding="utf-8") as fh:
            spec = json.load(fh)
    except (OSError, ValueError) as exc:
        print(f"cannot read {spec_path}: {exc}", file=sys.stderr)
        return 2

    tmp_root = os.path.join(ROOT, ".perfbench_tmp")
    tmp = os.path.join(tmp_root, f"run{os.getpid()}")
    os.makedirs(tmp, exist_ok=True)
    try:
        if args.record_golden:
            record_golden(args, tmp)
            return 0
        passes, setups = run_passes(args, tmp)
    except RunError as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            os.rmdir(tmp_root)
        except OSError:
            pass  # another run still uses it

    if args.trace:
        values, notes = per_layer(passes)
        wanted = spec["per_layer"]
    else:
        values, notes = end_to_end(args.workload, passes, setups)
        wanted = spec["end_to_end"]

    attempted = sum(len(p["ops"]) for p in passes)
    failures = [(op["name"], op["problems"]) for p in passes for op in p["ops"] if op["problems"]]
    problems = determinism_problems(passes) + (coverage_problems(passes) if args.trace else [])

    print(f"geokin benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace} scale={args.scale:g} passes={len(passes)}")
    print("provenance: " + json.dumps(provenance(args.seed), sort_keys=True))
    print(f"output digests checked against golden.json: {passes[0]['golden_checked']}")
    for metric in wanted:
        print(f"  {metric['name']} = {values[metric['name']]!r} {metric['unit']}")
    for name in sorted(set(values) - {m["name"] for m in wanted}):
        print(f"  {name} = {values[name]!r} {report_unit(name)} (report only)")
    for note in notes:
        print(f"  note: {note}")
    if args.trace:
        for t in layers.TRACED:
            print(f"  prediction: {layers.key(t)} moves {t.moves} on {t.on}; "
                  f"no change on {t.bypass}")
    print(f"failed_frac = {len(failures)}/{attempted} = {len(failures) / attempted!r}")
    for name, found in failures[:20]:
        print(f"  FAILED {name}: {'; '.join(found)}")
    for probe in passes[0]["probes"]:
        status = "; ".join(probe["problems"]) or "ok"
        subject = probe["config"]["hamiltonian"] if probe["config"] else " ".join(probe["argv"][:7])
        print(f"  known-defect probe {probe['name']} ({subject}): {probe['outcome']}: {status}")
    for problem in problems:
        print(f"  CHECK FAILED {problem}")

    correct = not failures and not problems
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": len(failures),
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
