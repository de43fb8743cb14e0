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
budget.  A span that needs more than `budgets.MAX_STEPS` steps of the
fixed RK4 step, or of the largest RKF45 step `budgets.MAX_RK45_STEP`,
gets the same error before the first step.  The step arithmetic is
this module's own; the budgets are read from `budgets` at each use.

The steppers work on a list of coordinates: one Python float each in
`integrate`, one contiguous numpy column each in the particle push
(`kinetics._push_chunk`), matching the polynomial kernel's own "one
float or one column per coordinate" contract.  Every update is a
per-coordinate expression, so floats and columns go through the same
float operations in the same order.  The RKF45 step writes out each
stage state, and the two solutions, as one sum per coordinate over the
Fehlberg tables, x + (h*a1)*k1 + (h*a2)*k2 + ..., added left to right
with the zero weights left out.

A run grows its times, states and the three evaluated monitor channels
as arrays of doubles, 8 bytes a value, and `Trajectory` holds numpy
views of them.  `write_trajectory_csv` formats and writes one block of
`CSV_BLOCK_ROWS` samples at a time, so a long run's file never sits in
memory whole.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import budgets
from .chart import Chart
from .fields import Dynamics, FieldSpec

METHODS = ("rk4", "rk45")
CSV_BLOCK_ROWS = 4_096  # samples formatted per write by `write_trajectory_csv`


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


# The tables unpacked for the written-out stages of `_rkf45_step`, which
# has no term for the zero weights B5[1], B4[1] and B4[5].
(_A21,), (_A31, _A32), (_A41, _A42, _A43), (_A51, _A52, _A53, _A54), \
    (_A61, _A62, _A63, _A64, _A65) = _RKF_A[1:]
_B51, _B53, _B54, _B55, _B56 = (b for b in _RKF_B5 if b)
_B41, _B43, _B44, _B45 = (b for b in _RKF_B4 if b)


def _rkf45_step(rhs, x: list, h: float):
    """The fifth-order state and its difference from the fourth-order one.

    Each stage state, and each of the two solutions, is one comprehension
    over coordinates: x + (h*a1)*k1 + (h*a2)*k2 + ..., added left to right.
    """
    k1 = rhs(x)
    c1 = h * _A21
    k2 = rhs([a + c1 * b1 for a, b1 in zip(x, k1)])
    c1, c2 = h * _A31, h * _A32
    k3 = rhs([a + c1 * b1 + c2 * b2 for a, b1, b2 in zip(x, k1, k2)])
    c1, c2, c3 = h * _A41, h * _A42, h * _A43
    k4 = rhs([a + c1 * b1 + c2 * b2 + c3 * b3 for a, b1, b2, b3 in zip(x, k1, k2, k3)])
    c1, c2, c3, c4 = h * _A51, h * _A52, h * _A53, h * _A54
    k5 = rhs([a + c1 * b1 + c2 * b2 + c3 * b3 + c4 * b4
              for a, b1, b2, b3, b4 in zip(x, k1, k2, k3, k4)])
    c1, c2, c3, c4, c5 = h * _A61, h * _A62, h * _A63, h * _A64, h * _A65
    k6 = rhs([a + c1 * b1 + c2 * b2 + c3 * b3 + c4 * b4 + c5 * b5
              for a, b1, b2, b3, b4, b5 in zip(x, k1, k2, k3, k4, k5)])
    c1, c3, c4, c5, c6 = h * _B51, h * _B53, h * _B54, h * _B55, h * _B56
    x5 = [a + c1 * b1 + c3 * b3 + c4 * b4 + c5 * b5 + c6 * b6
          for a, b1, b3, b4, b5, b6 in zip(x, k1, k3, k4, k5, k6)]
    c1, c3, c4, c5 = h * _B41, h * _B43, h * _B44, h * _B45
    x4 = [a + c1 * b1 + c3 * b3 + c4 * b4 + c5 * b5
          for a, b1, b3, b4, b5 in zip(x, k1, k3, k4, k5)]
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
    # every channel is a growing array of doubles, 8 bytes a value; states
    # holds one row after another
    times = array("d", [s0])
    states = array("d", x)
    ham = array("d", [h_eval(x)])
    pred = array("d", [rate_eval(x)])
    div = array("d", [div_eval(x)])

    def partial_trajectory() -> Trajectory:
        """The run so far, over views of the channels: called only when the
        run ends, since a channel with a view cannot grow."""
        traj = Trajectory(spec, np.frombuffer(times), np.frombuffer(states).reshape(-1, chart.dim))
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
        if not steps <= budgets.MAX_STEPS:
            raise StepBudgetError(
                f"{steps:.6g} RK4 steps exceed the step budget of {budgets.MAX_STEPS}", s0,
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
        fewest = (s1 - s0) / budgets.MAX_RK45_STEP
        if not fewest <= budgets.MAX_STEPS:
            raise StepBudgetError(
                f"{fewest:.6g} RKF45 steps of at most {budgets.MAX_RK45_STEP} exceed the step "
                f"budget of {budgets.MAX_STEPS}", s0, partial_trajectory(),
            )
        s = s0
        h = min(config.step, s1 - s0) if s1 > s0 else 0.0
        steps = 0
        while s < s1:
            if steps >= budgets.MAX_STEPS:
                raise StepBudgetError(
                    f"step budget {budgets.MAX_STEPS} exhausted", s, partial_trajectory()
                )
            steps += 1
            h = min(h, budgets.MAX_RK45_STEP, s1 - s)
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
    h_arr = np.asarray(ham, dtype=float)
    pred_arr = np.asarray(pred, dtype=float)
    div_arr = np.asarray(div, dtype=float)
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


def _csv_rows(traj: Trajectory, rows: slice) -> list[str]:
    """The CSV rows of samples `rows`: s, the state, H, pred_dHds, div."""
    monitors = [traj.monitors[k][rows] for k in ("hamiltonian", "predicted_dH", "divergence")]
    block = np.column_stack([traj.times[rows], traj.states[rows], *monitors])
    # one row's floats at a time: listing the whole block first made the
    # benchmark's `trajectory` workload about 8% slower (2-vCPU x86 host)
    return [",".join(map(repr, row.tolist())) for row in block]


def _csv_header(traj: Trajectory) -> str:
    return ",".join(["s", *traj.chart.coord_names, "H", "pred_dHds", "div"])


def trajectory_csv_lines(traj: Trajectory) -> list[str]:
    """CSV rows: s, chart coordinates present, H, pred_dHds, div."""
    return [_csv_header(traj), *_csv_rows(traj, slice(None))]


def write_trajectory_csv(traj: Trajectory, path: str) -> None:
    """The lines of `trajectory_csv_lines`, each ended by a newline,
    formatted and written one block of `CSV_BLOCK_ROWS` samples at a time."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_csv_header(traj) + "\n")
        for lo in range(0, len(traj.times), CSV_BLOCK_ROWS):
            fh.write("\n".join(_csv_rows(traj, slice(lo, lo + CSV_BLOCK_ROWS))) + "\n")
