"""Per-layer tracing from outside the program.

`install` wraps the public functions of every geokin layer in the
running process.  Each wrapper counts calls and accumulates self time:
the span's duration minus the part covered by wrapped calls it made.
Spans are aggregated as they close instead of being kept one by one,
because a single pass makes millions of `Poly.eval` and `Poly.__add__`
calls.

A function is wrapped wherever a module binds it, not only where it is
defined: `from .fields import make_field` in `cli`, `flow`, `kinetics`
and `identities` each hold their own reference, and a class attribute
such as `Poly.__radd__ = __add__` is a second binding of the same
function.  Every binding that is the original object gets the wrapper.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from dataclasses import dataclass


@dataclass(frozen=True)
class Traced:
    """One traced function and the prediction the benchmark attaches to it."""

    layer: str
    fn: str  # metric name part: <layer>.<fn>.calls / .share / .self_s
    module: str
    target: str  # "name" or "Class.attr" inside `module`
    moves: str  # end-to-end metric a speed-up here should move ...
    on: str  # ... on this workload
    bypass: str  # workloads where the prediction is no change


TRACED = (
    Traced("poly", "eval", "geokin.poly", "Poly.eval",
           "steps_per_s", "trajectory", "exact"),
    Traced("poly", "eval_array", "geokin.poly", "Poly.eval_array",
           "particle_steps_per_s", "kinetic", "exact, trajectory"),
    Traced("poly", "mul", "geokin.poly", "Poly.__mul__",
           "laws_per_s", "exact", "kinetic"),
    Traced("poly", "add", "geokin.poly", "Poly.__add__",
           "laws_per_s", "exact", "kinetic"),
    Traced("poly", "partial", "geokin.poly", "Poly.partial",
           "laws_per_s", "exact", "kinetic"),
    Traced("poly", "parse", "geokin.poly", "parse",
           "scenario_p50_ref", "short", "kinetic"),
    Traced("poly", "to_text", "geokin.poly", "Poly.to_text",
           "scenario_p50_ref", "short", "kinetic"),
    Traced("chart", "differential", "geokin.chart", "differential",
           "laws_per_s", "exact", "kinetic"),
    Traced("chart", "pairing", "geokin.chart", "pairing",
           "laws_per_s", "exact", "kinetic"),
    Traced("chart", "apply_to", "geokin.chart", "VectorFieldExpr.apply_to",
           "laws_per_s", "exact", "kinetic"),
    Traced("musical", "sharp", "geokin.musical", "sharp",
           "laws_per_s", "exact", "trajectory, kinetic"),
    Traced("musical", "flat", "geokin.musical", "flat",
           "laws_per_s", "exact", "trajectory, kinetic"),
    Traced("brackets", "bracket", "geokin.brackets", "bracket",
           "laws_per_s", "exact", "trajectory, kinetic"),
    Traced("brackets", "bracket_via_bivector", "geokin.brackets", "bracket_via_bivector",
           "laws_per_s", "exact", "trajectory, kinetic"),
    Traced("brackets", "jacobiator", "geokin.brackets", "jacobiator",
           "laws_per_s", "exact", "trajectory, kinetic"),
    Traced("brackets", "leibniz_defect", "geokin.brackets", "leibniz_defect",
           "laws_per_s", "exact", "trajectory, kinetic"),
    Traced("fields", "make_field", "geokin.fields", "make_field",
           "laws_per_s; scenario_p50_ref", "exact; short", "kinetic"),
    Traced("fields", "diagnostics", "geokin.fields", "diagnostics",
           "laws_per_s; scenario_p50_ref", "exact; short", "kinetic"),
    Traced("fields", "divergence", "geokin.fields", "divergence",
           "laws_per_s", "exact", "kinetic"),
    Traced("fields", "lie_derivative_oneform", "geokin.fields", "lie_derivative_oneform",
           "laws_per_s", "exact", "kinetic"),
    Traced("fields", "lie_derivative_twoform", "geokin.fields", "lie_derivative_twoform",
           "laws_per_s", "exact", "kinetic"),
    Traced("fields", "jacobi_lie_bracket", "geokin.fields", "jacobi_lie_bracket",
           "laws_per_s", "exact", "kinetic"),
    Traced("flow", "integrate", "geokin.flow", "integrate",
           "steps_per_s, wall_ref", "trajectory", "exact, kinetic"),
    Traced("flow", "write_trajectory_csv", "geokin.flow", "write_trajectory_csv",
           "wall_ref", "trajectory", "exact, kinetic"),
    Traced("kinetics", "solve_density_particle", "geokin.kinetics", "solve_density_particle",
           "particle_steps_per_s", "kinetic", "trajectory, exact"),
    Traced("kinetics", "seed_particles", "geokin.kinetics", "seed_particles",
           "particle_steps_per_s", "kinetic", "trajectory, exact"),
    Traced("kinetics", "deposit", "geokin.kinetics", "deposit",
           "particle_steps_per_s", "kinetic", "trajectory, exact"),
    Traced("kinetics", "GridDensity.sample", "geokin.kinetics", "GridDensity.sample",
           "particle_steps_per_s", "kinetic", "trajectory, exact"),
    Traced("kinetics", "GridDensity.interpolate", "geokin.kinetics", "GridDensity.interpolate",
           "particle_steps_per_s", "kinetic", "trajectory, exact"),
    Traced("kinetics", "write_particles", "geokin.kinetics", "write_particles",
           "particle_steps_per_s", "kinetic", "trajectory, exact"),
    Traced("kinetics", "solve_density_grid", "geokin.kinetics", "solve_density_grid",
           "wall_ref (grid_cell_steps_per_s)", "kinetic", "trajectory, exact"),
    Traced("kinetics", "write_grid", "geokin.kinetics", "write_grid",
           "wall_ref (grid_cell_steps_per_s)", "kinetic", "trajectory, exact"),
    Traced("kinetics", "intertwine_residual", "geokin.kinetics", "intertwine_residual",
           "laws_per_s", "exact", "kinetic"),
    Traced("identities", "run_identity_suite", "geokin.identities", "run_identity_suite",
           "laws_per_s", "exact", "trajectory, kinetic, short"),
    Traced("cli", "load_scenario", "geokin.cli", "load_scenario",
           "scenario_p50_ref, scenarios_per_s, setup_s", "short", "trajectory"),
    Traced("cli", "run_scenario", "geokin.cli", "run_scenario",
           "scenario_p50_ref, scenarios_per_s, setup_s", "short", "trajectory"),
)

LAYERS = tuple(dict.fromkeys(t.layer for t in TRACED))


def key(t: Traced) -> str:
    return f"{t.layer}.{t.fn}"


class Tracer:
    """Call counts and self time per traced function, for one process."""

    def __init__(self) -> None:
        self.calls: dict[str, int] = {key(t): 0 for t in TRACED}
        self.self_s: dict[str, float] = {key(t): 0.0 for t in TRACED}
        self._stack: list[list[float]] = []  # per open span: [child time]

    def wrap(self, name: str, fn):
        calls, self_s, stack = self.calls, self.self_s, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span = clock() - start
                stack.pop()
                self_s[name] += span - frame[0]
                calls[name] += 1
                if stack:
                    stack[-1][0] += span

        return traced

    def install(self) -> int:
        """Wrap every binding of every traced function; return the binding count."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "geokin" or n.startswith("geokin."))]
        bound = 0
        for t in TRACED:
            owner = importlib.import_module(t.module)
            cls_name, _, attr = t.target.rpartition(".")
            if cls_name:
                cls = getattr(owner, cls_name)
                raw = cls.__dict__[attr]
                original = raw.__func__ if isinstance(raw, classmethod) else raw
                wrapper = self.wrap(key(t), original)
                for name, value in list(vars(cls).items()):
                    inner = value.__func__ if isinstance(value, classmethod) else value
                    if inner is original:
                        setattr(cls, name, classmethod(wrapper)
                                if isinstance(value, classmethod) else wrapper)
                        bound += 1
                continue
            original = getattr(owner, attr)
            wrapper = self.wrap(key(t), original)
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, name, wrapper)
                        bound += 1
        return bound
