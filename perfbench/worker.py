"""One benchmark pass in a fresh process.

Started by run.py, never by hand:

    python3 perfbench/worker.py --workload W --seed S --scale X --trace 0|1
        --launch T --tmp DIR --result FILE [--record] [--setup-only]

Set-up is everything from process start (`--launch`, a CLOCK_MONOTONIC
reading taken by the parent just before the spawn) to the first timed
operation: `import geokin`, generating the inputs from the seed and
writing the configs.  Each operation is one `geokin.cli.main` call with
stdout and stderr captured; its outputs go to its own empty directory.
Output checks run after the last operation, so they are neither timed
nor counted in the peak resident memory.

Before the first operation and after each one the worker times a fixed
pure-Python kernel (`reference_s`).  Those readings track how fast this
core runs at that moment, which on a shared host changes by tens of
percent within minutes; run.py divides latencies by them.  With
`--setup-only` the worker stops after set-up and reports only its time.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import random
import resource
import sys
import time
from fractions import Fraction

import check
import scenarios

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
GOLDEN = os.path.join(HERE, "golden.json")
THREAD_CAPS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

# The reference kernel: 160 fixed products of monomials with Fraction
# coefficients, summed into a dict keyed by exponent tuples, in plain
# Python.  Its dicts, tuples and Fractions exercise the interpreter and
# allocator the way geokin's Poly does, so it slows with the host the way
# geokin does, yet it shares no code with geokin.  About 1 ms on a 2-vCPU
# Intel Xeon VM.
_REFERENCE_RNG = random.Random("geokin-bench/reference")
_REFERENCE_TERMS = [tuple(_REFERENCE_RNG.randrange(4) for _ in range(4)) for _ in range(160)]
_REFERENCE_COEFS = {m: Fraction(_REFERENCE_RNG.randrange(1, 50), _REFERENCE_RNG.randrange(1, 50))
                    for m in _REFERENCE_TERMS}
_REFERENCE_PAIRS = list(zip(_REFERENCE_TERMS, _REFERENCE_TERMS[1:] + _REFERENCE_TERMS[:1]))


def reference_s() -> float:
    """Time of the reference kernel: a reading of this core's current speed."""
    start = time.perf_counter()
    product: dict = {}
    for a, b in _REFERENCE_PAIRS:
        m = tuple(x + y for x, y in zip(a, b))
        product[m] = product.get(m, 0) + _REFERENCE_COEFS[a] * _REFERENCE_COEFS[b]
    return time.perf_counter() - start


def isolation_problems(ops: list[scenarios.Op]) -> list[str]:
    """Reasons this process could run more than one thread of solver work."""
    problems = []
    if "GEOKIN_THREADS" in os.environ:
        problems.append(f"GEOKIN_THREADS={os.environ['GEOKIN_THREADS']!r} is set")
    problems += [f"{cap} is not {value}" for cap, value in THREAD_CAPS.items()
                 if os.environ.get(cap) != value]
    for op in ops:
        threads = (op.config or {}).get("threads")
        if threads is not None and threads != 1:
            problems.append(f"{op.name}: config threads = {threads!r}")
    return problems


def invoke(cli, argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    rc, raised = None, None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            rc = exc.code
        except Exception as exc:  # counted as a failed operation, never hidden
            raised = f"{type(exc).__name__}: {str(exc)[:200]}"
        latency = time.perf_counter() - start
    return {"rc": rc, "raised": raised, "latency_s": latency,
            "stdout": out.getvalue(), "stderr": err.getvalue()}


def write_configs(ops: list[scenarios.Op]) -> None:
    for op in ops:
        out_dir = op_dir(op)
        os.makedirs(out_dir)
        if op.config is not None:
            with open(os.path.join(out_dir, "config.json"), "w", encoding="utf-8") as fh:
                json.dump(op.config, fh, indent=1)


def op_dir(op: scenarios.Op) -> str:
    # every op's argv carries a path inside its own output directory
    path = next(a for a in op.argv if os.path.isabs(a))
    return os.path.dirname(path)


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=scenarios.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--launch", type=float, required=True)
    parser.add_argument("--tmp", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--record", action="store_true",
                        help="return digests without comparing them to golden.json")
    parser.add_argument("--setup-only", action="store_true",
                        help="stop after set-up and report only its time")
    args = parser.parse_args()

    sys.path.insert(0, os.path.join(ROOT, "src"))
    import geokin
    from geokin import cli

    source = os.path.realpath(geokin.__file__)
    if not source.startswith(os.path.realpath(os.path.join(ROOT, "src")) + os.sep):
        print(f"geokin imported from {source}, not from this checkout", file=sys.stderr)
        return 3

    ops = scenarios.generate(args.workload, args.seed, args.tmp, args.scale)
    refused = isolation_problems(ops)
    if refused:
        print("refusing to run: " + "; ".join(refused), file=sys.stderr)
        return 3
    write_configs(ops)
    if args.setup_only:
        with open(args.result, "w", encoding="utf-8") as fh:
            json.dump({"setup_s": time.monotonic() - args.launch}, fh)
        return 0
    tracer = None
    if args.trace:
        import layers

        tracer = layers.Tracer()
        tracer.install()

    results = []
    setup_s = time.monotonic() - args.launch
    reference = [reference_s()]
    for op in ops:
        results.append(invoke(cli, op.argv))
        reference.append(reference_s())
    peak_rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    traced = None if tracer is None else {"calls": dict(tracer.calls),
                                          "self_s": dict(tracer.self_s)}

    probes = []
    defects = scenarios.known_defect_ops(args.workload, os.path.join(args.tmp, "probes"))
    write_configs(defects)
    for op in defects:
        result = invoke(cli, op.argv)
        problems, _, _ = check.check_op(op, op_dir(op), result, None)
        probes.append({"name": op.name, "argv": op.argv, "config": op.config,
                       "outcome": result["raised"] or f"exit {result['rc']}",
                       "problems": problems})

    golden = None
    if not args.record and os.path.exists(GOLDEN):
        with open(GOLDEN, encoding="utf-8") as fh:
            recorded = json.load(fh)
        if recorded["seed"] == args.seed and recorded["scale"] == args.scale:
            golden = recorded["workloads"][args.workload]

    work = {"invocations": len(ops)}
    records = []
    for op, result in zip(ops, results):
        want = None if golden is None else golden.get(op.name, {})
        problems, counts, digests = check.check_op(op, op_dir(op), result, want)
        if not problems:
            counts.update(op.work)
            for name, value in counts.items():
                work[name] = work.get(name, 0) + value
        records.append({"name": op.name, "command": op.argv[0],
                        "task": (op.config or {}).get("task"), "expect_rc": op.expect_rc,
                        "rc": result["rc"], "latency_s": result["latency_s"],
                        "problems": problems, "files": digests})

    payload = {
        "setup_s": setup_s,
        "wall_s": sum(r["latency_s"] for r in records),
        "reference_s": reference,
        "peak_rss_mib": peak_rss_kib / 1024.0,
        "ops": records,
        "work": work,
        "golden_checked": golden is not None,
        "probes": probes,
        "trace": traced,
    }
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
