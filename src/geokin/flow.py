"""Trajectory integration for catalog fields, with monitor channels.

Two integrators: classic fixed-step RK4 and adaptive RKF45 (Fehlberg
pair, fifth-order propagation, step control on the embedded error).
Each entry point takes a `fields.Dynamics` and shares its field and
diagnostics, and their compiled kernels, with every run it is given to.
Both integrators record, at every accepted node, the Hamiltonian value,
the exact predicted energy rate X(H) and the exact local divergence.
After the run two derived channels are filled: the measured energy rate
(central differences of the H channel) and a log-volume estimate
(trapezoidal time integral of the divergence).

A non-finite state aborts the run with the last good time and the
partial trajectory attached to the error; so does exhausting the step
budget.  A span that needs more than `MAX_STEPS` steps of the fixed
RK4 step, or of the largest RKF45 step `MAX_RK45_STEP`, gets the same
error before the first step.

The steppers work on a list of coordinates: one Python float each in
`integrate`, one contiguous numpy column each in the particle push
(`kinetics._push_chunk`), matching the polynomial kernel's own "one
float or one column per coordinate" contract.  Every update is a
per-coordinate expression, so floats and columns go through the same
float operations in the same order.  `Trajectory` still holds arrays.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .chart import Chart
from .fields import Dynamics, FieldSpec

METHODS = ("rk4", "rk45")
MAX_STEPS = 2_000_000  # the step budget of every solver loop
# The largest RKF45 step, so that a span past MAX_STEPS of them is refused
# before the first step, as RK4 refuses one.  The largest step tried by any
# test or seed-0 benchmark run is 0.4 (the benchmark's own is 0.0345).
MAX_RK45_STEP = 100.0
# The work budget of one kinetic run: cells x steps (all snapshot segments)
# on the grid, particles x steps in the push.  At least 10x the largest
# benchmark or test input (128^2 cells x 250 steps; 10^5 particles x 50
# steps); one core of a 2-vCPU x86 host steps it in about 35 s on the grid
# and pushes it in about 80 s.
MAX_WORK = 1_000_000_000
# What one config may ask for, each at least 10x the largest benchmark or
# test input (64 000 cells of 3 coordinates, 230 400 particles of 2 plus a
# weight, 25 trials); `cli` refuses more.  The grid and particle budgets
# count float64 values, so a chart with more coordinates gets fewer of each.
MAX_GRID_VALUES = 2_000_000  # cells x dim: the cell centers, or the velocity grids
# particles x (dim + 1): the push state, the one copy of the ensemble a
# particle run holds from seeding to its written files, beside one block of
# `kinetics.PUSH_BLOCK_ROWS` rows of working memory per worker
MAX_PUSH_VALUES = 7_500_000
MAX_PARTICLES = MAX_PUSH_VALUES // 3  # the most particles, reached on the two-coordinate charts
MAX_TRIALS = 1_000


@dataclass(frozen=True)
class IntegratorConfig:
    method: str = "rk4"  # one of METHODS
    step: float = 1e-3  # rk4 step; initial step for rk45
    rel_tol: float = 1e-8
    abs_tol: float = 1e-10

    def __post_init__(self) -> None:
        if self.method not in METHODS:
            raise ValueError(f"unknown integrator method {self.method!r}")
        if self.step <= 0:
            raise ValueError("step must be positive")
        if not (self.abs_tol > 0 and self.rel_tol >= 0):  # the rk45 error scale divides
            raise ValueError("need abs_tol > 0 and rel_tol >= 0")


@dataclass
class Trajectory:
    spec: FieldSpec
    times: np.ndarray
    states: np.ndarray  # shape (len(times), chart.dim)
    monitors: dict[str, np.ndarray] = field(default_factory=dict)

    @property
    def chart(self) -> Chart:
        return self.spec.chart


class IntegrationError(RuntimeError):
    """Base for aborted runs; carries the salvageable prefix."""

    def __init__(self, message: str, last_good_time: float, partial: Trajectory):
        super().__init__(f"{message} (last good time {last_good_time!r})")
        self.last_good_time = last_good_time
        self.partial = partial


class BlowUpError(IntegrationError):
    pass


class StepBudgetError(IntegrationError):
    pass


def _add_scaled(x: list, terms) -> list:
    """x + c0*k0 + c1*k1 + ..., added left to right per coordinate, for
    (c, k) in `terms`; a coordinate of x or k is a float or a column."""
    for c, k in terms:
        x = [a + c * b for a, b in zip(x, k)]
    return x


def _rk4_step(rhs, x: list, h: float) -> list:
    half, sixth = 0.5 * h, h / 6.0
    k1 = rhs(x)
    k2 = rhs([a + half * b for a, b in zip(x, k1)])
    k3 = rhs([a + half * b for a, b in zip(x, k2)])
    k4 = rhs([a + h * b for a, b in zip(x, k3)])
    return [a + sixth * (((b1 + 2.0 * b2) + 2.0 * b3) + b4)
            for a, b1, b2, b3, b4 in zip(x, k1, k2, k3, k4)]


# Fehlberg 4(5) coefficients, classic values.
_RKF_A = (
    (),
    (1 / 4,),
    (3 / 32, 9 / 32),
    (1932 / 2197, -7200 / 2197, 7296 / 2197),
    (439 / 216, -8.0, 3680 / 513, -845 / 4104),
    (-8 / 27, 2.0, -3544 / 2565, 1859 / 4104, -11 / 40),
)
_RKF_B5 = (16 / 135, 0.0, 6656 / 12825, 28561 / 56430, -9 / 50, 2 / 55)
_RKF_B4 = (25 / 216, 0.0, 1408 / 2565, 2197 / 4104, -1 / 5, 0.0)


def _rkf45_step(rhs, x: list, h: float):
    """The fifth-order state and its difference from the fourth-order one."""
    ks: list = []
    for row in _RKF_A:
        ks.append(rhs(_add_scaled(x, [(h * a, k) for a, k in zip(row, ks) if a])))
    x5 = _add_scaled(x, [(h * b, k) for b, k in zip(_RKF_B5, ks) if b])
    x4 = _add_scaled(x, [(h * b, k) for b, k in zip(_RKF_B4, ks) if b])
    return x5, [a - b for a, b in zip(x5, x4)]


def _error_norm(err: list, x: list, x_new: list, abs_tol: float, rel_tol: float) -> float:
    """RMS of err scaled by abs_tol + rel_tol * max(|x|, |x_new|) per coordinate.

    The sum is np.mean's own, np.add.reduce: numpy adds pairwise from
    eight terms on, so a Python sum would move the bytes.
    """
    ratios = [e / (abs_tol + rel_tol * max(abs(a), abs(b))) for e, a, b in zip(err, x, x_new)]
    return math.sqrt(float(np.add.reduce(np.array([r * r for r in ratios]))) / len(ratios))


def integrate(
    dyn: Dynamics,
    x0: Sequence[float],
    t_span: tuple[float, float],
    config: IntegratorConfig = IntegratorConfig(),
) -> Trajectory:
    """Integrate the catalog field of `dyn` from x0 over t_span.

    The flow parameter s is the integration variable; on charts with a
    time coordinate, t is part of the state and moves only as the gauge
    dictates.
    """
    spec = dyn.spec
    chart = spec.chart
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (chart.dim,):
        raise ValueError(f"initial state must have shape ({chart.dim},)")
    if not np.all(np.isfinite(x0)):
        raise ValueError("initial state must be finite")
    s0, s1 = float(t_span[0]), float(t_span[1])
    if s1 < s0:
        raise ValueError("backward integration is not supported; swap the span")
    comps, diag = dyn.field.components, dyn.diagnostics
    h_eval, rate_eval, div_eval = dyn.H.eval, diag.dH_along_flow.eval, diag.divergence.eval

    def rhs(x: list[float]) -> list[float]:
        return [c.eval(x) for c in comps]

    x = x0.tolist()
    times = [s0]
    states = array("d", x)  # row after row, 8 bytes a coordinate
    ham = [h_eval(x)]
    pred = [rate_eval(x)]
    div = [div_eval(x)]

    def partial_trajectory() -> Trajectory:
        traj = Trajectory(spec, np.array(times), np.array(states).reshape(-1, chart.dim))
        _fill_monitors(traj, ham, pred, div)
        return traj

    def record(s: float, y: list[float]) -> None:
        times.append(s)
        states.extend(y)
        ham.append(h_eval(y))
        pred.append(rate_eval(y))
        div.append(div_eval(y))

    if config.method == "rk4":
        total = s1 - s0
        steps = total / config.step  # inf when a long span meets a tiny step
        if not steps <= MAX_STEPS:
            raise StepBudgetError(
                f"{steps:.6g} RK4 steps exceed the step budget of {MAX_STEPS}", s0,
                partial_trajectory(),
            )
        n_steps = max(1, round(steps)) if total > 0 else 0
        h = total / n_steps if n_steps else 0.0
        s = s0
        for k in range(n_steps):
            try:
                x = _rk4_step(rhs, x, h)
            except (ValueError, OverflowError, FloatingPointError):
                raise BlowUpError(
                    "state left the representable range mid-step", times[-1],
                    partial_trajectory(),
                ) from None
            s = s0 + (k + 1) * h
            if not all(map(math.isfinite, x)):
                raise BlowUpError("non-finite state", times[-1], partial_trajectory())
            record(s, x)
    else:
        fewest = (s1 - s0) / MAX_RK45_STEP
        if not fewest <= MAX_STEPS:
            raise StepBudgetError(
                f"{fewest:.6g} RKF45 steps of at most {MAX_RK45_STEP} exceed the step "
                f"budget of {MAX_STEPS}", s0, partial_trajectory(),
            )
        s = s0
        h = min(config.step, s1 - s0) if s1 > s0 else 0.0
        steps = 0
        while s < s1:
            if steps >= MAX_STEPS:
                raise StepBudgetError(
                    f"step budget {MAX_STEPS} exhausted", s, partial_trajectory()
                )
            steps += 1
            h = min(h, MAX_RK45_STEP, s1 - s)
            try:
                x_new, err = _rkf45_step(rhs, x, h)
            except (ValueError, OverflowError, FloatingPointError):
                raise BlowUpError(
                    "state left the representable range mid-step", s, partial_trajectory()
                ) from None
            if not all(map(math.isfinite, x_new)):
                raise BlowUpError("non-finite state", s, partial_trajectory())
            err_norm = _error_norm(err, x, x_new, config.abs_tol, config.rel_tol)
            if err_norm <= 1.0:
                s = s + h
                x = x_new
                record(s, x)
            factor = 0.9 * (err_norm ** -0.2) if err_norm > 0 else 5.0
            h = h * min(5.0, max(0.2, factor))
            if h <= 0 or not math.isfinite(h):
                raise BlowUpError("step size collapsed", s, partial_trajectory())

    return partial_trajectory()


def _fill_monitors(traj: Trajectory, ham, pred, div) -> None:
    times = traj.times
    h_arr = np.array(ham, dtype=float)
    pred_arr = np.array(pred, dtype=float)
    div_arr = np.array(div, dtype=float)
    if len(times) >= 3:
        measured = np.gradient(h_arr, times, edge_order=2)
    elif len(times) == 2:
        slope = (h_arr[1] - h_arr[0]) / (times[1] - times[0])
        measured = np.array([slope, slope])
    else:
        measured = np.zeros_like(h_arr)
    log_vol = np.zeros_like(div_arr)
    if len(times) > 1 and np.all(np.isfinite(div_arr)):
        dt = np.diff(times)
        log_vol[1:] = np.cumsum(0.5 * (div_arr[1:] + div_arr[:-1]) * dt)
    elif not np.all(np.isfinite(div_arr)):
        log_vol[:] = math.nan
    traj.monitors = {
        "hamiltonian": h_arr,
        "predicted_dH": pred_arr,
        "measured_dH": measured,
        "divergence": div_arr,
        "log_volume": log_vol,
    }


def monitored_energy_rate(traj: Trajectory) -> float:
    """Max |measured - predicted| energy rate over interior nodes."""
    measured = traj.monitors["measured_dH"]
    predicted = traj.monitors["predicted_dH"]
    if len(measured) < 3:
        return 0.0
    return float(np.max(np.abs(measured[1:-1] - predicted[1:-1])))


def trajectory_csv_lines(traj: Trajectory) -> list[str]:
    """CSV rows: s, chart coordinates present, H, pred_dHds, div."""
    chart = traj.chart
    header = ["s"]
    header.extend(chart.coord_names)
    header.extend(["H", "pred_dHds", "div"])
    lines = [",".join(header)]
    monitors = [traj.monitors[k] for k in ("hamiltonian", "predicted_dH", "divergence")]
    for row in np.column_stack([traj.times, traj.states, *monitors]):
        lines.append(",".join(map(repr, row.tolist())))
    return lines


def write_trajectory_csv(traj: Trajectory, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(trajectory_csv_lines(traj)))
        fh.write("\n")
