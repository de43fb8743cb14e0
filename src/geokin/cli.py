"""Command line scenario runner.

One scenario per invocation, driven by a single JSON config:

    geokin run scenario.json        execute the configured task
    geokin validate scenario.json   parse and shape-check, no computation
    geokin identity --chart contact --n 1 --seed 42

Every random draw flows from the config seed and outputs are byte
identical for identical (config, seed) pairs.  Exit status: 0 on
success, 1 when a check fails or a solver aborts, 2 on config errors.

The config is declared once: `SCHEMA` types every key, and `TASK_TABLE`
gives each task's required paths and its runner.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
from functools import reduce

from .chart import Chart, ChartKind, OneFormExpr
from .fields import Family, FieldSpec, Gauge, StrictnessError, make_field
from .flow import METHODS, IntegrationError, IntegratorConfig, integrate, write_trajectory_csv
from .identities import run_identity_suite, suite_passed
from .kinetics import (
    GridAxis,
    GridDensity,
    StabilityError,
    intertwine_residual,
    solve_density_grid,
    solve_density_particle,
    write_grid,
    write_particles,
)
from .corpus import random_hamiltonian, random_one_form
from .poly import DegreeOverflowError, ParseError, Poly


class ConfigError(Exception):
    """A config problem, tagged with its JSON path."""

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path


def _parse_expr(chart: Chart, text: str | None, path: str) -> Poly | None:
    """Parse an expression field; every way it can fail names `path`."""
    if text is None:
        return None
    try:
        poly = chart.parse(text)
        for c in poly.terms.values():
            float(c)
    except (ParseError, DegreeOverflowError) as exc:
        raise ConfigError(path, f"{exc} on the {chart.kind.value} chart") from None
    except OverflowError:
        raise ConfigError(path, "a coefficient lies outside float range") from None
    return poly


def _at(cfg: dict, path: str):
    """The checked value at `path`; None when it or its section is absent."""
    return reduce(lambda value, key: value and value[key], path.split(".")[1:], cfg)


class Scenario:
    """A validated config, with everything parsed onto the chart."""

    def __init__(self, raw: dict, task_override: str | None = None):
        if task_override is not None and isinstance(raw, dict):
            raw = {**raw, "task": task_override}
        cfg = _check(raw, "$", "$")
        self.task = task = cfg["task"]
        self.chart = chart = Chart(ChartKind(cfg["chart"]["kind"]), cfg["chart"]["n"])
        self.seed = cfg["seed"]
        self.trials = cfg["trials"] or (20 if task == "identity-check" else 25)
        self.threads = cfg["threads"]
        self.particle_count = cfg["particles"]
        self.output = cfg["output"]

        time = cfg["time"]
        snapshots = time["snapshots"]
        if snapshots is not None:
            if snapshots[0] <= 0 or any(b <= a for a, b in zip(snapshots, snapshots[1:])):
                raise ConfigError("$.time.snapshots", "must be positive and strictly increasing")
            if time["t_final"] is not None and snapshots[-1] != time["t_final"]:
                raise ConfigError("$.time.snapshots", "last snapshot must equal t_final")
            time["t_final"] = float(snapshots[-1])
            time["snapshots"] = [float(s) for s in snapshots]
        vars(self).update(time)  # t_final, dt, cfl, method, rel_tol, abs_tol, snapshots

        for path in TASK_TABLE[task][0]:
            if _at(cfg, path) is None:
                raise ConfigError(path, f"required for task {task}")
        for path in ("$.initial.point", "$.initial.one_form", "$.initial.grid.axes"):
            entries = _at(cfg, path)
            if entries is not None and len(entries) != chart.dim:
                raise ConfigError(path, f"need one entry per chart coordinate "
                                        f"({', '.join(chart.coord_names)}); got {len(entries)}")

        self.hamiltonian = _parse_expr(chart, cfg["hamiltonian"], "$.hamiltonian")
        gauge = cfg["field"]["gauge"]
        if gauge is not None and not chart.has_time:
            raise ConfigError("$.field.gauge", f"{chart.kind.value} charts carry no time gauge")
        try:
            self.field = FieldSpec(chart, Family(cfg["field"]["family"]),
                                   Gauge(gauge or "zero") if chart.has_time else None)
        except ValueError as exc:
            raise ConfigError("$.field", str(exc)) from None
        if self.hamiltonian is not None:
            try:  # surface strictness violations before any solver runs
                make_field(self.field, self.hamiltonian)
            except StrictnessError as exc:
                raise ConfigError("$.hamiltonian", str(exc)) from None

        initial = cfg["initial"]
        self.point = [float(v) for v in initial["point"]] if initial["point"] else None
        self.density = _parse_expr(chart, initial["density"], "$.initial.density")
        self.one_form = None if initial["one_form"] is None else OneFormExpr(chart, tuple(
            _parse_expr(chart, text, f"$.initial.one_form[{i}]")
            for i, text in enumerate(initial["one_form"])))
        self.axes = None if initial["grid"] is None else tuple(
            self._axis(i, name, entry)
            for i, (name, entry) in enumerate(zip(chart.coord_names, initial["grid"]["axes"])))

        if isinstance(self.output["grid"], str):
            self.output["grid"] = [self.output["grid"]]
        count = len(self.snapshots) if self.snapshots else 1
        if task in ("kinetic-grid", "kinetic-particle") and len(self.output["grid"]) != count:
            raise ConfigError("$.output.grid", f"expected {count} paths, one per snapshot")
        if task == "kinetic-particle" and count > 1:
            raise ConfigError("$.time.snapshots", "the particle solver deposits once, at t_final")
        if task == "momentum-check" and self.one_form is not None and self.hamiltonian is None:
            raise ConfigError("$.hamiltonian", "required when initial.one_form is given")

    @staticmethod
    def _axis(i: int, name: str, entry: dict) -> GridAxis:
        path = f"$.initial.grid.axes[{i}]"
        if entry["name"] not in (None, name):
            raise ConfigError(f"{path}.name", f"expected coordinate {name!r} at this position")
        try:
            return GridAxis(name, float(entry["lo"]), float(entry["hi"]), entry["size"],
                            entry["boundary"])
        except ValueError as exc:
            raise ConfigError(path, str(exc)) from None

    def summary_lines(self) -> list[str]:
        lines = [
            f"task: {self.task}",
            f"chart: {self.chart.kind.value} n={self.chart.n}",
        ]
        if self.hamiltonian is not None:
            lines.append(f"hamiltonian: {self.hamiltonian.to_text(self.chart.coord_names)}")
        if self.task in ("simulate", "kinetic-grid", "kinetic-particle"):
            lines.append(f"field: {self.field.row_name}")
        if self.density is not None:
            lines.append(f"density: {self.density.to_text(self.chart.coord_names)}")
        return lines


def load_scenario(path: str, task_override: str | None = None) -> Scenario:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError("$", f"cannot read config: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError("$", f"invalid JSON: {exc}") from None
    return Scenario(raw, task_override)


def _prepare(path: str) -> str:
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    return path


# -- task runners ------------------------------------------------------


def _run_simulate(s: Scenario) -> int:
    cfg = IntegratorConfig(
        method=s.method, step=s.dt if s.dt is not None else 1e-3,
        rel_tol=float(s.rel_tol), abs_tol=float(s.abs_tol),
    )
    traj = integrate(s.field, s.hamiltonian, s.point, (0.0, float(s.t_final)), cfg)
    out = _prepare(s.output["trajectory"])
    write_trajectory_csv(traj, out)
    final = ", ".join(
        f"{name}={value:.6g}" for name, value in zip(s.chart.coord_names, traj.states[-1])
    )
    print(f"simulate: {len(traj.times)} samples to s={s.t_final:g}; final {final}")
    print(f"wrote {out}")
    return 0


def _run_identity(chart: Chart, seed: int, trials: int, out_path: str | None) -> int:
    reports = run_identity_suite(chart, seed=seed, trials=trials)
    passed = suite_passed(reports)
    payload = {
        "chart": {"kind": chart.kind.value, "n": chart.n},
        "seed": seed,
        "trials": trials,
        "passed": passed,
        "laws": [r.as_dict() for r in reports],
    }
    if out_path is not None:
        with open(_prepare(out_path), "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")
    failures = [r for r in reports if not r.passed]
    status = "all pass" if passed else f"{len(failures)} FAILED"
    print(f"identity-check {chart.kind.value} n={chart.n}: {len(reports)} laws, {status}")
    for r in failures:
        print(f"  FAIL {r.name}: {r.witness}")
    if out_path is not None:
        print(f"wrote {out_path}")
    return 0 if passed else 1


def _run_momentum(s: Scenario) -> int:
    chart = s.chart
    spec = FieldSpec(
        chart, Family.HAMILTONIAN, Gauge.ZERO if chart.has_time else None
    )
    pairs: list[tuple[Poly, OneFormExpr]] = []
    if s.one_form is not None:
        pairs.append((s.hamiltonian, s.one_form))
    else:
        rng = random.Random(s.seed)
        for _ in range(s.trials):
            pairs.append((
                random_hamiltonian(rng, chart, degree=2, terms=3),
                random_one_form(rng, chart, degree=2, terms=2),
            ))
    worst = chart.zero()
    for H, Pi in pairs:
        residual = intertwine_residual(spec, H, Pi)
        if not residual.is_zero() and worst.is_zero():
            worst = residual
    passed = worst.is_zero()
    lines = [
        f"momentum-check {chart.kind.value} n={chart.n}",
        f"seed: {s.seed}",
        f"pairs: {len(pairs)}",
        f"residual: {worst.to_text(chart.coord_names)}",
        f"status: {'PASS' if passed else 'FAIL'}",
    ]
    out = _prepare(s.output["report"])
    with open(out, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    print(f"momentum-check: {len(pairs)} pairs, residual "
          f"{worst.to_text(chart.coord_names)}, {'PASS' if passed else 'FAIL'}")
    print(f"wrote {out}")
    return 0 if passed else 1


def _run_kinetic_grid(s: Scenario) -> int:
    f0 = GridDensity.sample(s.chart, s.axes, s.density)
    snapshots = s.snapshots or [float(s.t_final)]
    outputs = s.output["grid"]
    current, reached = f0, 0.0
    for target, path in zip(snapshots, outputs):
        current = solve_density_grid(
            s.chart, s.hamiltonian, current, target - reached,
            dt=s.dt, cfl=float(s.cfl),
        )
        reached = target
        write_grid(current, _prepare(path))
        print(f"kinetic-grid: s={target:g} mass={current.total_mass():.9g} -> {path}")
    return 0


def _run_kinetic_particle(s: Scenario) -> int:
    result = solve_density_particle(
        s.chart, s.hamiltonian, s.density, float(s.t_final), float(s.dt),
        s.particle_count, seed=s.seed, threads=s.threads, axes=s.axes,
    )
    out = _prepare(s.output["grid"][0])
    write_grid(result.deposited, out)
    print(
        f"kinetic-particle: {s.particle_count} particles to s={s.t_final:g}; "
        f"mass {result.mass_initial:.9g} -> {result.mass_final:.9g}, "
        f"escaped {result.escaped_count} ({result.escaped_mass:.3g})"
    )
    print(f"wrote {out}")
    if s.output["particles"]:
        ppath = _prepare(s.output["particles"])
        write_particles(result.ensemble, ppath)
        print(f"wrote {ppath}")
    return 0


# -- the two tables ----------------------------------------------------

_KINETIC = ("$.hamiltonian", "$.initial.grid", "$.initial.density", "$.time.t_final",
            "$.output.grid")

# task -> (config paths the task requires, runner)
TASK_TABLE = {
    "simulate": (
        ("$.hamiltonian", "$.initial.point", "$.time.t_final", "$.output.trajectory"),
        _run_simulate,
    ),
    "identity-check": (
        ("$.output.report",),
        lambda s: _run_identity(s.chart, s.seed, s.trials, s.output["report"]),
    ),
    "kinetic-particle": (_KINETIC + ("$.time.dt",), _run_kinetic_particle),
    "kinetic-grid": (_KINETIC, _run_kinetic_grid),
    "momentum-check": (("$.output.report",), _run_momentum),
}
TASKS = tuple(TASK_TABLE)

REQUIRED = object()  # a default: the key must be present
POSITIVE = "positive"  # a rule: the number must be > 0


# JSON type -> (test, what an error says is expected).  A number lies in
# float range and is never a bool.  `numbers` and `paths` are single
# values: an error in one entry names the whole list.
_TYPES = {
    "object": (lambda v: isinstance(v, dict), "a JSON object"),
    "list": (lambda v: isinstance(v, list), "a list"),
    "string": (lambda v: isinstance(v, str), "a string"),
    "integer": (lambda v: type(v) is int, "an integer"),
    "number": (lambda v: type(v) in (int, float) and abs(v) <= sys.float_info.max,
               "a finite number"),
    "numbers": (lambda v: isinstance(v, list) and v != [] and all(map(_TYPES["number"][0], v)),
                "a nonempty list of finite numbers"),
    "paths": (lambda v: isinstance(v, str) or isinstance(v, list)
              and all(isinstance(p, str) for p in v), "a path or a list of paths"),
}

# config path -> (JSON type, default, rule).  A rule is POSITIVE, an
# integer minimum or a tuple of choices.  `.*` is each entry of a list.
SCHEMA = {
    "$": ("object", REQUIRED, None),
    "$.chart": ("object", REQUIRED, None),
    "$.chart.kind": ("string", REQUIRED, tuple(k.value for k in ChartKind)),
    "$.chart.n": ("integer", REQUIRED, POSITIVE),
    "$.task": ("string", REQUIRED, TASKS),
    "$.hamiltonian": ("string", None, None),
    "$.field": ("object", {}, None),
    "$.field.family": ("string", "hamiltonian", tuple(f.value for f in Family)),
    "$.field.gauge": ("string", None, tuple(g.value for g in Gauge)),  # zero if the chart has t
    "$.initial": ("object", {}, None),
    "$.initial.point": ("numbers", None, None),
    "$.initial.grid": ("object", None, None),
    "$.initial.grid.axes": ("list", REQUIRED, None),
    "$.initial.grid.axes.*": ("object", REQUIRED, None),
    "$.initial.grid.axes.*.name": ("string", None, None),  # the coordinate at this position
    "$.initial.grid.axes.*.lo": ("number", REQUIRED, None),
    "$.initial.grid.axes.*.hi": ("number", REQUIRED, None),
    "$.initial.grid.axes.*.size": ("integer", REQUIRED, None),
    "$.initial.grid.axes.*.boundary": ("string", "zero", None),
    "$.initial.density": ("string", None, None),
    "$.initial.one_form": ("list", None, None),
    "$.initial.one_form.*": ("string", REQUIRED, None),
    "$.time": ("object", {}, None),
    "$.time.t_final": ("number", None, POSITIVE),
    "$.time.dt": ("number", None, POSITIVE),
    "$.time.cfl": ("number", 0.9, POSITIVE),
    "$.time.method": ("string", "rk4", METHODS),
    "$.time.rel_tol": ("number", 1e-8, POSITIVE),
    "$.time.abs_tol": ("number", 1e-10, POSITIVE),
    "$.time.snapshots": ("numbers", None, None),
    "$.particles": ("integer", 100_000, 1_000),
    "$.threads": ("integer", None, POSITIVE),
    "$.trials": ("integer", None, POSITIVE),  # 20 for identity-check, else 25
    "$.output": ("object", {}, None),
    "$.output.trajectory": ("string", None, None),
    "$.output.report": ("string", None, None),
    "$.output.grid": ("paths", None, None),
    "$.output.particles": ("string", None, None),
    "$.seed": ("integer", 0, None),
}

# object path -> {key: its path}, in declaration order
_SECTIONS = {section: {path.rpartition(".")[2]: path for path in SCHEMA
                       if path.rpartition(".")[0] == section} for section in SCHEMA}


def _check(value, path: str, key: str):
    """`value` checked against the schema row `key`, with errors at `path`;
    an object comes back with every key of its section, defaults filled in."""
    kind, _, rule = SCHEMA[key]
    test, want = _TYPES[kind]
    if not test(value):
        raise ConfigError(path, f"expected {want}, got {value!r:.60}")
    if isinstance(rule, tuple) and value not in rule:
        raise ConfigError(path, f"unknown value {value!r}; choose from {', '.join(rule)}")
    if rule is POSITIVE and not value > 0:
        raise ConfigError(path, "must be positive")
    if isinstance(rule, int) and value < rule:
        raise ConfigError(path, f"must be at least {rule}")
    if kind == "list":
        return [_check(v, f"{path}[{i}]", f"{key}.*") for i, v in enumerate(value)]
    if kind != "object":
        return value
    section = _SECTIONS[key]
    for name in value:
        if name not in section:
            raise ConfigError(f"{path}.{name}", f"unknown key; allowed: {', '.join(section)}")
    out = {}
    for name, sub_key in section.items():
        default = SCHEMA[sub_key][1]
        if name in value:
            out[name] = _check(value[name], f"{path}.{name}", sub_key)
        elif default is REQUIRED:
            raise ConfigError(f"{path}.{name}", "required field is missing")
        else:
            out[name] = _check(default, f"{path}.{name}", sub_key) if default == {} else default
    return out


def run_scenario(s: Scenario, verbose: bool = False) -> int:
    if verbose:
        for line in s.summary_lines():
            print(line)
        print(f"seed: {s.seed}")
    _, runner = TASK_TABLE[s.task]
    return runner(s)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="geokin",
        description="Geometric dynamics on Darboux charts: identity suites, "
        "trajectory runs, and kinetic solvers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute a scenario config")
    run_p.add_argument("config", help="path to the JSON scenario")
    run_p.add_argument("--task", choices=TASKS, help="override the task in the config")
    run_p.add_argument("-v", "--verbose", action="store_true")

    val_p = sub.add_parser("validate", help="check a scenario config without running it")
    val_p.add_argument("config", help="path to the JSON scenario")

    id_p = sub.add_parser("identity", help="run the exact identity suite for one chart")
    id_p.add_argument("--chart", required=True, choices=[k.value for k in ChartKind])
    id_p.add_argument("--n", type=int, default=1, help="degrees of freedom (default 1)")
    id_p.add_argument("--seed", type=int, default=0)
    id_p.add_argument("--trials", type=int, default=20, help="draws per law (default 20)")
    id_p.add_argument("--output", help="also write the JSON report here")

    args = parser.parse_args(argv)

    try:
        if args.command == "identity":
            try:
                chart = Chart(ChartKind(args.chart), args.n)
            except ValueError as exc:
                raise ConfigError("--n", str(exc)) from None
            if args.trials < 1:
                raise ConfigError("--trials", "must be positive")
            return _run_identity(chart, args.seed, args.trials, args.output)
        if args.command == "validate":
            scenario = load_scenario(args.config)
            print("ok")
            for line in scenario.summary_lines():
                print(line)
            return 0
        scenario = load_scenario(args.config, args.task)
        return run_scenario(scenario, args.verbose)
    except ConfigError as exc:
        print(f"config error at {exc}", file=sys.stderr)
        return 2
    except (StrictnessError, StabilityError, IntegrationError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
