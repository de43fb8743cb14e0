"""Command line scenario runner.

One scenario per invocation, driven by a single JSON config:

    geokin run scenario.json        execute the configured task
    geokin validate scenario.json   parse and shape-check, no computation
    geokin identity --chart contact --n 1 --seed 42

Every random draw flows from the config seed and outputs are byte
identical for identical (config, seed) pairs.  Exit status: 0 on
success, 1 when a check fails or a solver aborts, 2 on config errors.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys

from .chart import Chart, ChartKind, OneFormExpr
from .fields import Family, FieldSpec, Gauge, StrictnessError, make_field
from .flow import IntegrationError, IntegratorConfig, integrate, write_trajectory_csv
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
from .poly import ParseError, Poly

TASKS = ("simulate", "identity-check", "kinetic-particle", "kinetic-grid", "momentum-check")


class ConfigError(Exception):
    """A config problem, tagged with its JSON path."""

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path


def _require_mapping(obj, path: str, allowed: tuple[str, ...]) -> dict:
    if not isinstance(obj, dict):
        raise ConfigError(path, "expected a JSON object")
    for key in obj:
        if key not in allowed:
            raise ConfigError(f"{path}.{key}", f"unknown key; allowed: {', '.join(allowed)}")
    return obj


def _get(obj: dict, key: str, path: str, kinds, required: bool = False, default=None):
    if key not in obj:
        if required:
            raise ConfigError(f"{path}.{key}", "required field is missing")
        return default
    value = obj[key]
    if kinds is not None and not isinstance(value, kinds):
        want = kinds[0].__name__ if isinstance(kinds, tuple) else kinds.__name__
        raise ConfigError(f"{path}.{key}", f"expected {want}, got {type(value).__name__}")
    if kinds is not None and isinstance(value, bool) and bool not in (
        kinds if isinstance(kinds, tuple) else (kinds,)
    ):
        raise ConfigError(f"{path}.{key}", "expected a number, got a boolean")
    return value


def _parse_chart(raw: dict) -> Chart:
    section = _require_mapping(
        _get(raw, "chart", "$", dict, required=True), "$.chart", ("kind", "n")
    )
    kind_text = _get(section, "kind", "$.chart", str, required=True)
    try:
        kind = ChartKind(kind_text)
    except ValueError:
        raise ConfigError(
            "$.chart.kind", f"unknown chart kind {kind_text!r}; "
            f"choose from {', '.join(k.value for k in ChartKind)}"
        ) from None
    n = _get(section, "n", "$.chart", int, required=True)
    try:
        return Chart(kind, n)
    except ValueError as exc:
        raise ConfigError("$.chart.n", str(exc)) from None


def _parse_expr(chart: Chart, text: str, path: str) -> Poly:
    try:
        return chart.parse(text)
    except ParseError as exc:
        raise ConfigError(path, f"{exc} on the {chart.kind.value} chart") from None


def _parse_field(chart: Chart, raw: dict) -> FieldSpec:
    section = _require_mapping(
        raw.get("field", {}), "$.field", ("family", "gauge")
    )
    family_text = _get(section, "family", "$.field", str, default="hamiltonian")
    try:
        family = Family(family_text)
    except ValueError:
        raise ConfigError(
            "$.field.family",
            f"unknown family {family_text!r}; choose from {', '.join(f.value for f in Family)}",
        ) from None
    gauge = None
    if chart.has_time:
        gauge_text = _get(section, "gauge", "$.field", str, default="zero")
        try:
            gauge = Gauge(gauge_text)
        except ValueError:
            raise ConfigError(
                "$.field.gauge",
                f"unknown gauge {gauge_text!r}; choose from {', '.join(g.value for g in Gauge)}",
            ) from None
    elif "gauge" in section:
        raise ConfigError(
            "$.field.gauge", f"{chart.kind.value} charts carry no time gauge"
        )
    try:
        return FieldSpec(chart, family, gauge)
    except ValueError as exc:
        raise ConfigError("$.field", str(exc)) from None


def _parse_axes(chart: Chart, raw, path: str) -> tuple[GridAxis, ...]:
    if not isinstance(raw, list):
        raise ConfigError(path, "expected a list of axis objects")
    names = chart.coord_names
    if len(raw) != len(names):
        raise ConfigError(
            path,
            f"need one axis per chart coordinate ({', '.join(names)}); got {len(raw)}",
        )
    axes = []
    for i, entry in enumerate(raw):
        apath = f"{path}[{i}]"
        section = _require_mapping(entry, apath, ("name", "lo", "hi", "size", "boundary"))
        name = _get(section, "name", apath, str, default=names[i])
        if name != names[i]:
            raise ConfigError(
                f"{apath}.name", f"expected coordinate {names[i]!r} at this position"
            )
        lo = _get(section, "lo", apath, (int, float), required=True)
        hi = _get(section, "hi", apath, (int, float), required=True)
        size = _get(section, "size", apath, int, required=True)
        boundary = _get(section, "boundary", apath, str, default="zero")
        try:
            axes.append(GridAxis(name, float(lo), float(hi), size, boundary))
        except ValueError as exc:
            raise ConfigError(apath, str(exc)) from None
    return tuple(axes)


class Scenario:
    """A validated config, with everything parsed onto the chart."""

    def __init__(self, raw: dict, task_override: str | None = None):
        _require_mapping(
            raw, "$",
            ("chart", "task", "hamiltonian", "field", "initial", "time",
             "particles", "threads", "trials", "output", "seed"),
        )
        self.chart = _parse_chart(raw)
        task = task_override or _get(raw, "task", "$", str, required=True)
        if task not in TASKS:
            raise ConfigError("$.task", f"unknown task {task!r}; choose from {', '.join(TASKS)}")
        self.task = task
        self.seed = _get(raw, "seed", "$", int, default=0)
        self.trials = _get(raw, "trials", "$", int, default=20 if task == "identity-check" else 25)
        if self.trials < 1:
            raise ConfigError("$.trials", "must be positive")
        self.threads = _get(raw, "threads", "$", int, default=None)
        if self.threads is not None and self.threads < 1:
            raise ConfigError("$.threads", "must be positive")

        self.hamiltonian: Poly | None = None
        if "hamiltonian" in raw:
            text = _get(raw, "hamiltonian", "$", str)
            self.hamiltonian = _parse_expr(self.chart, text, "$.hamiltonian")
        self.field = _parse_field(self.chart, raw)
        if self.hamiltonian is not None:
            try:  # surface strictness violations before any solver runs
                make_field(self.field, self.hamiltonian)
            except StrictnessError as exc:
                raise ConfigError("$.hamiltonian", str(exc)) from None

        time_cfg = _require_mapping(
            raw.get("time", {}), "$.time",
            ("t_final", "dt", "cfl", "method", "rel_tol", "abs_tol", "snapshots"),
        )
        self.t_final = _get(time_cfg, "t_final", "$.time", (int, float), default=None)
        if self.t_final is not None and not self.t_final > 0:
            raise ConfigError("$.time.t_final", "must be positive")
        self.dt = _get(time_cfg, "dt", "$.time", (int, float), default=None)
        if self.dt is not None and not self.dt > 0:
            raise ConfigError("$.time.dt", "must be positive")
        self.cfl = _get(time_cfg, "cfl", "$.time", (int, float), default=0.9)
        self.method = _get(time_cfg, "method", "$.time", str, default="rk4")
        if self.method not in ("rk4", "rk45"):
            raise ConfigError("$.time.method", "must be rk4 or rk45")
        self.rel_tol = _get(time_cfg, "rel_tol", "$.time", (int, float), default=1e-8)
        self.abs_tol = _get(time_cfg, "abs_tol", "$.time", (int, float), default=1e-10)
        snapshots = _get(time_cfg, "snapshots", "$.time", list, default=None)
        if snapshots is not None:
            if not snapshots or any(not isinstance(s, (int, float)) for s in snapshots):
                raise ConfigError("$.time.snapshots", "expected a nonempty list of numbers")
            if any(b <= a for a, b in zip(snapshots, snapshots[1:])) or snapshots[0] <= 0:
                raise ConfigError("$.time.snapshots", "must be positive and strictly increasing")
            if self.t_final is not None and snapshots[-1] != self.t_final:
                raise ConfigError("$.time.snapshots", "last snapshot must equal t_final")
            self.t_final = float(snapshots[-1])
        self.snapshots = [float(s) for s in snapshots] if snapshots else None

        initial = _require_mapping(
            raw.get("initial", {}), "$.initial", ("point", "grid", "density", "one_form")
        )
        self.point: list[float] | None = None
        if "point" in initial:
            pt = initial["point"]
            if not isinstance(pt, list) or any(not isinstance(v, (int, float)) for v in pt):
                raise ConfigError("$.initial.point", "expected a list of numbers")
            if len(pt) != self.chart.dim:
                raise ConfigError(
                    "$.initial.point",
                    f"chart state is ({', '.join(self.chart.coord_names)}); got {len(pt)} values",
                )
            self.point = [float(v) for v in pt]
        self.axes: tuple[GridAxis, ...] | None = None
        if "grid" in initial:
            grid_cfg = _require_mapping(initial["grid"], "$.initial.grid", ("axes",))
            self.axes = _parse_axes(
                self.chart, _get(grid_cfg, "axes", "$.initial.grid", list, required=True),
                "$.initial.grid.axes",
            )
        self.density: Poly | None = None
        if "density" in initial:
            self.density = _parse_expr(
                self.chart, _get(initial, "density", "$.initial", str), "$.initial.density"
            )
        self.one_form: OneFormExpr | None = None
        if "one_form" in initial:
            comps = initial["one_form"]
            if not isinstance(comps, list) or len(comps) != self.chart.dim:
                raise ConfigError(
                    "$.initial.one_form",
                    f"expected {self.chart.dim} component expressions "
                    f"(d{', d'.join(self.chart.coord_names)})",
                )
            parsed = tuple(
                self._parse_component(c, i) for i, c in enumerate(comps)
            )
            self.one_form = OneFormExpr(self.chart, parsed)

        self.particle_count = _get(raw, "particles", "$", int, default=100_000)
        self.output = _require_mapping(
            raw.get("output", {}), "$.output", ("trajectory", "report", "grid", "particles")
        )
        self._check_task_shape()

    def _parse_component(self, text, index: int) -> Poly:
        path = f"$.initial.one_form[{index}]"
        if not isinstance(text, str):
            raise ConfigError(path, "expected an expression string")
        return _parse_expr(self.chart, text, path)

    def _out(self, key: str, required: bool):
        value = self.output.get(key)
        if value is None and required:
            raise ConfigError(f"$.output.{key}", f"required for task {self.task}")
        return value

    def _check_task_shape(self) -> None:
        task = self.task
        if task == "simulate":
            if self.hamiltonian is None:
                raise ConfigError("$.hamiltonian", "required for task simulate")
            if self.point is None:
                raise ConfigError("$.initial.point", "required for task simulate")
            if self.t_final is None:
                raise ConfigError("$.time.t_final", "required for task simulate")
            self._out("trajectory", required=True)
        elif task == "identity-check":
            self._out("report", required=True)
        elif task in ("kinetic-grid", "kinetic-particle"):
            if self.hamiltonian is None:
                raise ConfigError("$.hamiltonian", f"required for task {task}")
            if self.axes is None:
                raise ConfigError("$.initial.grid", f"required for task {task}")
            if self.density is None:
                raise ConfigError("$.initial.density", f"required for task {task}")
            if self.t_final is None:
                raise ConfigError("$.time.t_final", f"required for task {task}")
            grid_out = self._out("grid", required=True)
            count = len(self.snapshots) if self.snapshots else 1
            if isinstance(grid_out, list):
                if len(grid_out) != count or any(not isinstance(p, str) for p in grid_out):
                    raise ConfigError(
                        "$.output.grid", f"expected {count} paths, one per snapshot"
                    )
            elif not isinstance(grid_out, str):
                raise ConfigError("$.output.grid", "expected a path or list of paths")
            elif count != 1:
                raise ConfigError("$.output.grid", f"expected {count} paths, one per snapshot")
            if task == "kinetic-particle":
                if self.dt is None:
                    raise ConfigError("$.time.dt", "required for task kinetic-particle")
                if self.snapshots and len(self.snapshots) > 1:
                    raise ConfigError(
                        "$.time.snapshots",
                        "the particle solver deposits once, at t_final",
                    )
        elif task == "momentum-check":
            self._out("report", required=True)
            if self.one_form is not None and self.hamiltonian is None:
                raise ConfigError(
                    "$.hamiltonian", "required when initial.one_form is given"
                )

    def grid_outputs(self) -> list[str]:
        out = self.output["grid"]
        return list(out) if isinstance(out, list) else [out]

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


def _run_simulate(s: Scenario, verbose: bool) -> int:
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
    outputs = s.grid_outputs()
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
    out = _prepare(s.grid_outputs()[0])
    write_grid(result.deposited, out)
    print(
        f"kinetic-particle: {s.particle_count} particles to s={s.t_final:g}; "
        f"mass {result.mass_initial:.9g} -> {result.mass_final:.9g}, "
        f"escaped {result.escaped_count} ({result.escaped_mass:.3g})"
    )
    print(f"wrote {out}")
    if s.output.get("particles"):
        ppath = _prepare(s.output["particles"])
        write_particles(result.ensemble, ppath)
        print(f"wrote {ppath}")
    return 0


def run_scenario(s: Scenario, verbose: bool = False) -> int:
    if verbose:
        for line in s.summary_lines():
            print(line)
        print(f"seed: {s.seed}")
    if s.task == "simulate":
        return _run_simulate(s, verbose)
    if s.task == "identity-check":
        return _run_identity(s.chart, s.seed, s.trials, s.output["report"])
    if s.task == "momentum-check":
        return _run_momentum(s)
    if s.task == "kinetic-grid":
        return _run_kinetic_grid(s)
    return _run_kinetic_particle(s)


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
