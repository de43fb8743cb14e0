"""Trajectory integration for catalog fields, with monitor channels,
and the row blocks and CSV writer every pass over rows shares.

Two integrators: classic fixed-step RK4 and adaptive RKF45 (Fehlberg
pair, fifth-order propagation, step control on the embedded error), each
a straight-line step of `codegen` on a list of floats, handed each field
component's `Poly.eval`, two Python frames a call.  Each entry point
takes a `fields.Dynamics` and shares its field and diagnostics, and
their compiled kernels, with every run it is given to.
A run records s and the state at every accepted node.  When it ends,
the three monitor channels, the Hamiltonian value, the exact predicted
energy rate X(H) and the exact local divergence, are evaluated at every
recorded node, with `Poly.eval_array` on one block of rows at a time,
bit-identical to `Poly.eval` node by node; their coefficients are
checked before the first step, so one past float range raises there.
`monitored_energy_rate` measures the energy rate from the H channel
when it is asked to.

A non-finite state aborts the run with the last good time and the
partial trajectory, monitors included, attached to the error; so does
exhausting the step budget.  A span that needs more than
`budgets.MAX_STEPS` steps of the fixed RK4 step, or of the largest RKF45
step `budgets.MAX_RK45_STEP`, gets the same error before the first step;
the budgets are read from `budgets` at each use.

A run grows its times and states as arrays of doubles, 8 bytes a value,
and `Trajectory` holds numpy views of them beside the three monitor
channels.  Every pass over rows, here and in `kinetics`, walks them in
the blocks of `row_blocks`, `BLOCK_ROWS` rows each, read at each use;
`write_csv` formats and writes one block at a time, so a long run's file
never sits in memory whole, and both CSV formats go through it.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import budgets
from .chart import Chart
from .codegen import error_norm, rk4_stepper, rkf45_stepper
from .fields import Dynamics, FieldSpec

METHODS = ("rk4", "rk45")

# Rows per block of every pass over rows: the monitors and the CSV writer
# here; the seeding, the push and the cloud-in-cell stencil in `kinetics`,
# and its grid writer.  No result depends on it.  A block's RK4 working set
# should stay in cache: 480^2 symplectic particles x 10 steps, one thread
# on a 2-vCPU x86 host, took 141 ms in 2k-row blocks, 80 ms in 8k, 76 ms
# in 16k and 132 ms in 64k.  What a pass holds past its output grows with
# it: three block-sized arrays while a monitor kernel runs, and one Python
# float per value while the CSV writer formats a block.  At 16k those took
# `integrate`'s peak on a 2e4-step cocontact n=1 run to 84 B a sample
# (66 B of channels), against 74.5 B at 8k.
BLOCK_ROWS = 8_192


def row_blocks(count: int) -> list[slice]:
    """`count` rows as consecutive slices of `BLOCK_ROWS` rows, in order."""
    return [slice(lo, min(lo + BLOCK_ROWS, count)) for lo in range(0, count, BLOCK_ROWS)]


@dataclass(frozen=True)
class IntegratorConfig:
    method: str = "rk4"  # one of METHODS
    step: float = 1e-3  # rk4 step; initial step for rk45
    rel_tol: float = 1e-8
    abs_tol: float = 1e-10

    def __post_init__(self) -> None:
        if self.method not in METHODS:
            raise ValueError(f"unknown integrator method {self.method!r}")
        if not self.step > 0:  # NaN too
            raise ValueError("step must be positive")
        if not (self.abs_tol > 0 and self.rel_tol >= 0):  # the rk45 error scale divides
            raise ValueError("need abs_tol > 0 and rel_tol >= 0")


@dataclass(eq=False)
class Trajectory:
    spec: FieldSpec
    times: np.ndarray
    states: np.ndarray  # shape (len(times), chart.dim)
    monitors: dict[str, np.ndarray]  # hamiltonian, predicted_dH, divergence: one value a sample

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


def integrate(
    dyn: Dynamics,
    x0: Sequence[float],
    t_final: float,
    config: IntegratorConfig = IntegratorConfig(),
) -> Trajectory:
    """Integrate the catalog field of `dyn` from x0 over s in [0, t_final].

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
    t_final = float(t_final)
    if not t_final >= 0:  # NaN too
        raise ValueError(f"need t_final >= 0, not {t_final!r}")
    comps, diag = dyn.field.components, dyn.diagnostics
    monitors = {"hamiltonian": dyn.H, "predicted_dH": diag.dH_along_flow,
                "divergence": diag.divergence}

    fs = tuple(c.eval for c in comps)
    for poly in monitors.values():
        poly.float_coefficients()  # a coefficient past float range raises here
    x = x0.tolist()
    # s and the state at every accepted node, as growing arrays of doubles,
    # 8 bytes a value; states holds one row after another
    times = array("d", [0.0])
    states = array("d", x)

    def partial_trajectory() -> Trajectory:
        """The run so far, over views of the channels, with its monitors:
        called only when the run ends, since a channel with a view cannot grow."""
        rows = np.frombuffer(states).reshape(-1, chart.dim)
        # a monitor past float range is inf, as `Poly.eval` gives: numpy's
        # warnings about it are off
        with np.errstate(all="ignore"):
            channels = _evaluate_monitors(monitors, rows)
        return Trajectory(spec, np.frombuffer(times), rows, channels)

    def abort(error: type[IntegrationError], message: str, s: float) -> IntegrationError:
        """`error` at the last good time `s`, with the run so far."""
        return error(message, s, partial_trajectory())

    if config.method == "rk4":
        steps = t_final / config.step  # inf when a long span meets a tiny step
        if not steps <= budgets.MAX_STEPS:
            raise abort(StepBudgetError, f"{steps:.6g} RK4 steps exceed the step budget of "
                                         f"{budgets.MAX_STEPS}", 0.0)
        n_steps = max(1, round(steps)) if t_final > 0 else 0
        h = t_final / n_steps if n_steps else 0.0
        step = rk4_stepper(chart.dim)
        for k in range(n_steps):
            try:
                x = step(fs, x, h)
            except (ValueError, OverflowError, FloatingPointError):
                raise abort(BlowUpError, "state left the representable range mid-step",
                            times[-1]) from None
            if not all(map(math.isfinite, x)):
                raise abort(BlowUpError, "non-finite state", times[-1])
            times.append((k + 1) * h)
            states.extend(x)
    else:
        fewest = t_final / budgets.MAX_RK45_STEP
        if not fewest <= budgets.MAX_STEPS:
            raise abort(StepBudgetError, f"{fewest:.6g} RKF45 steps of at most "
                                         f"{budgets.MAX_RK45_STEP} exceed the step budget of "
                                         f"{budgets.MAX_STEPS}", 0.0)
        s = 0.0
        h = min(config.step, t_final) if t_final > 0 else 0.0
        steps = 0
        step, norm = rkf45_stepper(chart.dim), error_norm(chart.dim)
        while s < t_final:
            if steps >= budgets.MAX_STEPS:
                raise abort(StepBudgetError, f"step budget {budgets.MAX_STEPS} exhausted", s)
            steps += 1
            h = min(h, budgets.MAX_RK45_STEP, t_final - s)
            try:
                x_new, err = step(fs, x, h)
            except (ValueError, OverflowError, FloatingPointError):
                raise abort(BlowUpError, "state left the representable range mid-step",
                            s) from None
            if not all(map(math.isfinite, x_new)):
                raise abort(BlowUpError, "non-finite state", s)
            err_norm = norm(err, x, x_new, config.abs_tol, config.rel_tol)
            if err_norm <= 1.0:
                s = s + h
                x = x_new
                times.append(s)
                states.extend(x)
            factor = 0.9 * (err_norm ** -0.2) if err_norm > 0 else 5.0
            h = h * min(5.0, max(0.2, factor))
            if h <= 0 or not math.isfinite(h):
                raise abort(BlowUpError, "step size collapsed", s)

    return partial_trajectory()


def _evaluate_monitors(monitors: dict, states: np.ndarray) -> dict[str, np.ndarray]:
    """Each monitor polynomial, by name, at every row of `states`, by
    `Poly.eval_array` on one block of `row_blocks` at a time:
    bit-identical to `Poly.eval` row by row."""
    channels = {name: np.empty(len(states)) for name in monitors}
    for rows in row_blocks(len(states)):
        columns = states[rows].T
        for name, poly in monitors.items():
            channels[name][rows] = poly.eval_array(columns)
    return channels


def monitored_energy_rate(traj: Trajectory) -> float:
    """Max |measured - predicted| energy rate over interior nodes; 0.0
    under three samples.  The measured rate is the central difference of
    the H channel over s (`np.gradient`, second order at the ends), NaN
    where H is not finite, with numpy's warnings off."""
    if len(traj.times) < 3:
        return 0.0
    with np.errstate(all="ignore"):
        measured = np.gradient(traj.monitors["hamiltonian"], traj.times, edge_order=2)
        return float(np.max(np.abs(measured[1:-1] - traj.monitors["predicted_dH"][1:-1])))


def write_csv(path: str, header: Sequence[str], columns: Sequence[np.ndarray]) -> None:
    """A CSV file: the `header` names, then one row per index of the float
    `columns`, each value by `repr`, formatted and written one block of
    `row_blocks` at a time."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for rows in row_blocks(len(columns[0])):
            fh.writelines(",".join(map(repr, row)) + "\n"
                          for row in zip(*(c[rows].tolist() for c in columns)))


def write_trajectory_csv(traj: Trajectory, path: str) -> None:
    """One row per sample: s, the chart coordinates, H, pred_dHds, div."""
    monitors = [traj.monitors[k] for k in ("hamiltonian", "predicted_dH", "divergence")]
    write_csv(path, ["s", *traj.chart.coord_names, "H", "pred_dHds", "div"],
              [traj.times, *traj.states.T, *monitors])
