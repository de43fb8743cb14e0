"""Command line scenario runner.

One scenario per invocation, driven by a single JSON config:

    geokin run scenario.json        execute the configured task
    geokin validate scenario.json   parse and shape-check, no computation
    geokin identity --chart contact --n 1 --seed 42

Every random draw flows from the config seed and outputs are byte
identical for identical (config, seed) pairs.  Exit status: 0 on
success, 1 when a check fails, a solver aborts or an output cannot be
written, 2 on config errors.

The config is declared once: `SCHEMA` types every key and names the
tasks that read it, whose rules and value checks apply to those tasks
alone; `TASK_TABLE` gives each task's required paths and its runner.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import sys
from functools import partial, reduce

from . import budgets
from .chart import Chart, ChartKind, OneFormExpr
from .density import intertwine_residual, kinetic_spec, kinetic_terms
from .fields import Dynamics, Family, FieldSpec, Gauge, StrictnessError
from .flow import METHODS, IntegrationError, IntegratorConfig, integrate, write_trajectory_csv
from .identities import run_identity_suite, suite_passed
from .kinetics import (
    BOUNDARIES,
    GridAxis,
    StabilityError,
    solve_density_grid,
    solve_density_particle,
    write_grid,
    write_particles,
)
from .corpus import random_hamiltonian, random_one_form
from .poly import DegreeOverflowError, KernelBudgetError, ParseError, Poly


class ConfigError(Exception):
    """A config problem, tagged with its JSON path."""

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path


def _check_identity_work(chart: Chart, trials: int, path: str) -> None:
    """A config error at `path` unless an identity suite of `trials` draws
    per law on `chart` fits its work budget (`budgets.check_identity_work`)."""
    try:
        budgets.check_identity_work(trials, chart.dim)
    except ValueError as exc:
        raise ConfigError(path, str(exc)) from None


def _parse_expr(chart: Chart, text: str | None, path: str) -> Poly | None:
    """Parse an expression field; every way it can fail names `path`."""
    if text is None:
        return None
    try:
        poly = chart.parse(text)
        poly.float_coefficients()  # OverflowError, as a kernel raises when first evaluated
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

    def __init__(self, raw: dict):
        cfg = _check(raw, "$", "$", raw.get("task") if isinstance(raw, dict) else None)
        self.task = task = cfg["task"]
        reads = partial(_reads, task)  # the value checks below apply to a key's readers
        self.chart = chart = Chart(ChartKind(cfg["chart"]["kind"]), cfg["chart"]["n"])
        self.seed = cfg["seed"]
        self.trials = cfg["trials"] or (20 if task == "identity-check" else 25)
        if task == "identity-check":
            _check_identity_work(chart, self.trials, "$.trials")
        self.particle_count = count = cfg["particles"]
        self.output = cfg["output"]

        time = cfg["time"]
        snapshots = time["snapshots"]
        if snapshots is not None and reads("$.time.snapshots"):
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
            if entries is not None and reads(path) and len(entries) != chart.dim:
                raise ConfigError(path, f"need one entry per chart coordinate "
                                        f"({', '.join(chart.coord_names)}); got {len(entries)}")

        self.hamiltonian = H = _parse_expr(chart, cfg["hamiltonian"], "$.hamiltonian")
        self.dynamics = None
        if reads("$.field"):  # each task that reads it requires the hamiltonian
            gauge = cfg["field"]["gauge"]
            if gauge is not None and not chart.has_time:
                raise ConfigError("$.field.gauge",
                                  f"{chart.kind.value} charts carry no time gauge")
            try:
                spec = FieldSpec(chart, Family(cfg["field"]["family"]),
                                 Gauge(gauge or "zero") if chart.has_time else None)
            except ValueError as exc:
                raise ConfigError("$.field", str(exc)) from None
            if task in _KINETIC_TASKS and spec != kinetic_spec(chart):
                raise ConfigError("$.field", f"the kinetic tasks carry densities along the "
                                             f"hamiltonian field with gauge zero only, not "
                                             f"{spec.row_name}")
            # the run's one build of its field (and diagnostics), handed to its solver
            self.dynamics = dyn = Dynamics(spec, H)
            # surface strictness, degree or float overflow, and a kernel past its
            # term budget in what a solver evaluates, before any solver runs
            try:
                evaluated = [(f"X^{name}", c)
                             for name, c in zip(chart.coord_names, dyn.field.components)]
                if task in _KINETIC_TASKS:  # their one row, checked above
                    evaluated.append(("the weight rate", kinetic_terms(dyn)[0]))
                if task == "simulate":  # and its monitors
                    evaluated += [("H", H), ("the energy rate X(H)", dyn.diagnostics.dH_along_flow),
                                  ("the divergence", dyn.diagnostics.divergence)]
                for name, poly in evaluated:
                    poly.float_coefficients()
                    poly.check_kernel_budget(name)
            except (StrictnessError, DegreeOverflowError) as exc:
                raise ConfigError("$.hamiltonian", str(exc)) from None
            except OverflowError:
                raise ConfigError("$.hamiltonian",
                                  "a derived coefficient lies outside float range") from None

        initial = cfg["initial"]
        self.point = [float(v) for v in initial["point"]] if initial["point"] else None
        self.density = _parse_expr(chart, initial["density"], "$.initial.density")
        if self.density is not None and reads("$.initial.density"):
            try:
                self.density.check_kernel_budget("the density")
            except KernelBudgetError as exc:
                raise ConfigError("$.initial.density", str(exc)) from None
        one_form = tuple(_parse_expr(chart, text, f"$.initial.one_form[{i}]")
                         for i, text in enumerate(initial["one_form"] or ()))
        self.one_form = (OneFormExpr(chart, one_form) if one_form and reads("$.initial.one_form")
                         else None)
        self.axes = None if initial["grid"] is None or not reads("$.initial.grid") else tuple(
            self._axis(i, name, entry)
            for i, (name, entry) in enumerate(zip(chart.coord_names, initial["grid"]["axes"])))
        cells = math.prod(a.size for a in self.axes) if self.axes else 0
        most = budgets.MAX_GRID_VALUES // chart.dim  # cells x dim values: the velocities
        if cells > most:
            raise ConfigError("$.initial.grid.axes", f"the axis sizes multiply to more than "
                                                     f"{most} cells")
        if task == "kinetic-particle":  # the lattice rounds the count per axis, maybe up
            seeded = math.prod(budgets.seed_lattice([a.size for a in self.axes], count))
            values, most = chart.dim + 1, budgets.MAX_PUSH_VALUES
            if seeded * values > most:
                raise ConfigError("$.particles", f"{seeded} seeded particles x {values} values "
                                                 f"exceed the push budget of {most}; at most "
                                                 f"{most // values} on this chart")

        if isinstance(self.output["grid"], str):
            self.output["grid"] = [self.output["grid"]]
        count = len(self.snapshots) if self.snapshots else 1
        if task == "kinetic-particle" and count > 1:
            raise ConfigError("$.time.snapshots", "the particle solver deposits once, at t_final")
        if task in _KINETIC_TASKS and len(self.output["grid"]) != count:
            raise ConfigError("$.output.grid", f"expected {count} paths, one per snapshot")
        if task in _KINETIC_TASKS:  # a later file at an earlier one's path would replace it
            outputs = [(f"$.output.grid[{k}]", p) for k, p in enumerate(self.output["grid"])]
            if task == "kinetic-particle" and self.output["particles"]:
                outputs.append(("$.output.particles", self.output["particles"]))
            written = set()
            for where, target in outputs:
                if (full := os.path.abspath(target)) in written:
                    raise ConfigError(where, f"{target!r} is already an output of this run")
                written.add(full)
        # the grid solver holds every snapshot until the run ends
        if task == "kinetic-grid" and count * cells > budgets.MAX_GRID_VALUES:
            raise ConfigError("$.time.snapshots", f"{count} snapshots of the grid exceed the "
                                                  f"budget of {budgets.MAX_GRID_VALUES} values")
        if self.one_form is not None and self.hamiltonian is None:  # only momentum-check has one
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
        if self.task == "simulate":  # the kinetic tasks have one field
            lines.append(f"field: {self.dynamics.spec.row_name}")
        if self.density is not None:
            lines.append(f"density: {self.density.to_text(self.chart.coord_names)}")
        return lines


def load_scenario(path: str) -> Scenario:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError("$", f"cannot read config: {exc}") from None
    except UnicodeDecodeError as exc:
        raise ConfigError("$", f"config is not UTF-8: {exc}") from None
    except (ValueError, RecursionError) as exc:  # nested too deep, or an int past 4300 digits
        raise ConfigError("$", f"invalid JSON: {exc}") from None
    return Scenario(raw)


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
    traj = integrate(s.dynamics, s.point, float(s.t_final), cfg)
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
        residual = intertwine_residual(H, Pi)
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
    snapshots = s.snapshots or [float(s.t_final)]
    grids = solve_density_grid(s.dynamics, s.density, snapshots, dt=s.dt, cfl=float(s.cfl),
                               axes=s.axes)
    for target, path, grid in zip(snapshots, s.output["grid"], grids):
        write_grid(grid, _prepare(path))
        print(f"kinetic-grid: s={target:g} mass={grid.total_mass():.9g} -> {path}")
    return 0


def _run_kinetic_particle(s: Scenario) -> int:
    result = solve_density_particle(
        s.dynamics, s.density, float(s.t_final), float(s.dt),
        s.particle_count, seed=s.seed, axes=s.axes,
    )
    out = _prepare(s.output["grid"][0])
    write_grid(result.deposited, out)
    seeded = len(result.ensemble.weights) + result.escaped_count
    print(
        f"kinetic-particle: {seeded} particles to s={s.t_final:g}; "
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

_KINETIC_TASKS = ("kinetic-grid", "kinetic-particle")
_FIELD_TASKS = ("simulate",) + _KINETIC_TASKS  # the tasks that build a field and step it
_REPORT_TASKS = ("identity-check", "momentum-check")
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
NON_NEGATIVE = "non-negative"  # a rule: the number must be >= 0


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

# config path -> (JSON type, default, rule, readers).  A rule is POSITIVE,
# NON_NEGATIVE, a range or a tuple of choices; it applies to the tasks that
# read the key, every task when readers is None.  `.*` is each list entry.
SCHEMA = {
    "$": ("object", REQUIRED, None, None),
    "$.chart": ("object", REQUIRED, None, None),
    "$.chart.kind": ("string", REQUIRED, tuple(k.value for k in ChartKind), None),
    "$.chart.n": ("integer", REQUIRED, range(1, budgets.MAX_CHART_N + 1), None),
    "$.task": ("string", REQUIRED, TASKS, None),
    "$.hamiltonian": ("string", None, None, _FIELD_TASKS + ("momentum-check",)),
    "$.field": ("object", {}, None, _FIELD_TASKS),
    "$.field.family": ("string", "hamiltonian", tuple(f.value for f in Family), _FIELD_TASKS),
    "$.field.gauge": ("string", None, tuple(g.value for g in Gauge), _FIELD_TASKS),
    "$.initial": ("object", {}, None, None),
    "$.initial.point": ("numbers", None, None, ("simulate",)),
    "$.initial.grid": ("object", None, None, _KINETIC_TASKS),
    "$.initial.grid.axes": ("list", REQUIRED, None, _KINETIC_TASKS),
    "$.initial.grid.axes.*": ("object", REQUIRED, None, _KINETIC_TASKS),
    "$.initial.grid.axes.*.name": ("string", None, None, _KINETIC_TASKS),
    "$.initial.grid.axes.*.lo": ("number", REQUIRED, None, _KINETIC_TASKS),
    "$.initial.grid.axes.*.hi": ("number", REQUIRED, None, _KINETIC_TASKS),
    "$.initial.grid.axes.*.size": ("integer", REQUIRED, None, _KINETIC_TASKS),
    "$.initial.grid.axes.*.boundary": ("string", "zero", BOUNDARIES, _KINETIC_TASKS),
    "$.initial.density": ("string", None, None, _KINETIC_TASKS),
    "$.initial.one_form": ("list", None, None, ("momentum-check",)),
    "$.initial.one_form.*": ("string", REQUIRED, None, ("momentum-check",)),
    "$.time": ("object", {}, None, _FIELD_TASKS),
    "$.time.t_final": ("number", None, POSITIVE, _FIELD_TASKS),
    "$.time.dt": ("number", None, POSITIVE, _FIELD_TASKS),
    "$.time.cfl": ("number", 0.9, POSITIVE, ("kinetic-grid",)),
    "$.time.method": ("string", "rk4", METHODS, ("simulate",)),
    "$.time.rel_tol": ("number", 1e-8, POSITIVE, ("simulate",)),
    "$.time.abs_tol": ("number", 1e-10, POSITIVE, ("simulate",)),
    "$.time.snapshots": ("numbers", None, None, _FIELD_TASKS),  # simulate: through t_final
    "$.particles": ("integer", 100_000, range(1_000, budgets.MAX_PARTICLES + 1),
                    ("kinetic-particle",)),
    # checked, then ignored: the push runs on one thread, and old configs keep their exit code
    "$.threads": ("integer", None, POSITIVE, ("kinetic-particle",)),
    # 20 for identity-check, else 25
    "$.trials": ("integer", None, range(1, budgets.MAX_TRIALS + 1), _REPORT_TASKS),
    "$.output": ("object", {}, None, None),
    "$.output.trajectory": ("string", None, None, ("simulate",)),
    "$.output.report": ("string", None, None, _REPORT_TASKS),
    "$.output.grid": ("paths", None, None, _KINETIC_TASKS),
    "$.output.particles": ("string", None, None, ("kinetic-particle",)),
    "$.seed": ("integer", 0, NON_NEGATIVE, _REPORT_TASKS + ("kinetic-particle",)),
}

# object path -> {key: its path}, in declaration order
_SECTIONS = {section: {path.rpartition(".")[2]: path for path in SCHEMA
                       if path.rpartition(".")[0] == section} for section in SCHEMA}


def _reads(task, key: str) -> bool:
    """Whether `task` reads the config key `key`, by its schema row."""
    return SCHEMA[key][3] is None or task in SCHEMA[key][3]


def _check(value, path: str, key: str, task):
    """`value` checked against the schema row `key` for `task`, with errors at
    `path`; an object comes back with every key of its section, defaults filled in."""
    kind, rule = SCHEMA[key][0], SCHEMA[key][2] if _reads(task, key) else None
    test, want = _TYPES[kind]
    if not test(value):
        raise ConfigError(path, f"expected {want}, got {value!r:.60}")
    if isinstance(rule, tuple) and value not in rule:
        raise ConfigError(path, f"unknown value {value!r}; choose from {', '.join(rule)}")
    if rule is POSITIVE and not value > 0:
        raise ConfigError(path, "must be positive")
    if rule is NON_NEGATIVE and not value >= 0:
        raise ConfigError(path, "must be non-negative")
    if isinstance(rule, range) and value not in rule:
        raise ConfigError(path, f"must be between {rule.start} and {rule[-1]}")
    if kind == "list":
        return [_check(v, f"{path}[{i}]", f"{key}.*", task) for i, v in enumerate(value)]
    if kind != "object":
        return value
    section = _SECTIONS[key]
    for name in value:
        if name not in section:
            raise ConfigError(f"{path}.{name}", f"unknown key; allowed: {', '.join(section)}")
    out = {}
    for name, sub_key in section.items():
        default, where = SCHEMA[sub_key][1], f"{path}.{name}"
        if name in value:
            out[name] = _check(value[name], where, sub_key, task)
        elif default is REQUIRED:
            raise ConfigError(where, "required field is missing")
        else:
            out[name] = _check(default, where, sub_key, task) if default == {} else default
    return out


def run_scenario(s: Scenario, verbose: bool = False) -> int:
    if verbose:
        for line in s.summary_lines():
            print(line)
        print(f"seed: {s.seed}")
    _, runner = TASK_TABLE[s.task]
    import numpy as np

    # the solvers' finiteness checks decide a failure; numpy's warnings
    # would add lines to its one stderr line
    with np.errstate(all="ignore"):
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
            check = partial(_check, task="identity-check")
            chart = Chart(ChartKind(args.chart), check(args.n, "--n", "$.chart.n"))
            trials = check(args.trials, "--trials", "$.trials")
            _check_identity_work(chart, trials, "--trials")
            return _run_identity(chart, check(args.seed, "--seed", "$.seed"), trials, args.output)
        if args.command == "validate":
            scenario = load_scenario(args.config)
            print("ok")
            for line in scenario.summary_lines():
                print(line)
            return 0
        scenario = load_scenario(args.config)
        return run_scenario(scenario, args.verbose)
    except ConfigError as exc:
        print(f"config error at {exc}", file=sys.stderr)
        return 2
    except (StabilityError, IntegrationError, DegreeOverflowError, ValueError,
            OSError) as exc:  # OSError: an output path that cannot be written
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
