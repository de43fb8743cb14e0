"""Trajectory integration for catalog fields, with monitor channels,
and the row blocks and CSV writer every pass over rows shares.

Two integrators: classic fixed-step RK4 and adaptive RKF45 (Fehlberg
pair, fifth-order propagation, step control on the embedded error).
Each entry point takes a `fields.Dynamics` and shares its field and
diagnostics, and their compiled kernels, with every run it is given to.
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
step `budgets.MAX_RK45_STEP`, gets the same error before the first step.
The step arithmetic is this module's own; the budgets are read from
`budgets` at each use.

The steppers and the RKF45 error norm are straight-line code, generated
once per state length (`rk4_stepper`, which the particle push
`kinetics._push_chunk` shares, `_rkf45_stepper` and `_error_norm`).  A
step works on a list of coordinates, one Python float each in
`integrate` and one numpy column each in the push, and takes one
evaluator per coordinate: `integrate` passes each component's
`Poly.eval`, two Python frames a call, the push callables on columns.
x and each stage unpack into names, and every stage state and solution
is one expression per coordinate, so floats and columns go through the
same float operations in the same order.  The RKF45 step writes each as
one sum over the Fehlberg tables, x + (h*a1)*k1 + (h*a2)*k2 + ...,
added left to right with the zero weights left out.

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
from functools import cache
from typing import Sequence

import numpy as np

from . import budgets
from .chart import Chart
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


@dataclass
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

# The names the generated RKF45 step reads the tables by: `_A{s}{j}` weighs
# stage j in stage state s, `_B5{j}` and `_B4{j}` weigh it in the two
# solutions.  The zero weights B5[1], B4[1] and B4[5] get no name and no term.
_RKF_NAMES = {
    **{f"_A{s}{j}": a for s, row in enumerate(_RKF_A, 1) for j, a in enumerate(row, 1) if a},
    **{f"_B5{j}": b for j, b in enumerate(_RKF_B5, 1) if b},
    **{f"_B4{j}": b for j, b in enumerate(_RKF_B4, 1) if b},
}


def _targets(prefix: str, n: int) -> str:
    """`{prefix}0, {prefix}1, ..., `: the names n values unpack into."""
    return "".join(f"{prefix}{i}, " for i in range(n))


def _stage(s: int, n: int, state: str | None = None) -> list[str]:
    """Stage s: x, or the list `state` as y, handed to f0, ..., f{n-1} in
    turn for the rates k{s}_i.  y goes once they are in: holding it into
    the next stage made the benchmark's particle pushes 25-50% slower."""
    if state is None:
        return [f"    k{s}_{i} = f{i}(x)" for i in range(n)]
    return [f"    y = {state}", *(f"    k{s}_{i} = f{i}(y)" for i in range(n)), "    del y"]


def _define(lines: list[str], namespace: dict):
    """Compile the function whose `def` opens `lines`, over `namespace`."""
    namespace = dict(namespace)
    exec("\n".join(lines), namespace)
    return namespace[lines[0][len("def "):lines[0].index("(")]]


@cache
def rk4_stepper(n: int):
    """The classic RK4 step on a state of `n` coordinates, generated once
    per length: `step(fs, x, h)` returns the new state as a list; fs[i]
    maps a whole stage state to the rate of coordinate i.

    Each stage state is one list of one expression per coordinate,
    x + half*k, then x + h*k, and the solution is
    x + sixth*(((k1 + 2.0*k2) + 2.0*k3) + k4), with half = 0.5*h and
    sixth = h/6.0.  Only generated names and float literals enter the
    source.  Threads that race on a cold cache build the same step, so
    whichever is cached is right.
    """
    def stage_state(c: str, s: int) -> str:
        return f"[{', '.join(f'x{i} + {c} * k{s}_{i}' for i in range(n))}]"

    solution = ", ".join(f"x{i} + sixth * (((k1_{i} + 2.0 * k2_{i}) + 2.0 * k3_{i}) + k4_{i})"
                         for i in range(n))
    return _define([
        "def step(fs, x, h):",
        f"    {_targets('f', n)}= fs",
        "    half, sixth = 0.5 * h, h / 6.0",
        f"    {_targets('x', n)}= x",
        *_stage(1, n),
        *_stage(2, n, stage_state("half", 1)),
        *_stage(3, n, stage_state("half", 2)),
        *_stage(4, n, stage_state("h", 3)),
        f"    return [{solution}]",
    ], {})


@cache
def _rkf45_stepper(n: int):
    """The Fehlberg step on a state of `n` coordinates, generated once per
    length: `step(fs, x, h)`, fs as `rk4_stepper` takes it, returns the
    fifth-order state and its difference from the fourth-order one.

    Each stage state, and each of the two solutions, is one sum per
    coordinate over the tables, x + c1*k1 + c2*k2 + ..., added left to
    right, with c_j = h times the
    table's weight of stage j; the difference is x5 - x4 per coordinate.
    Only generated names and the table names of `_RKF_NAMES` enter the
    source.
    """
    def sums(weights: list[int]) -> list[str]:
        return [" + ".join([f"x{i}", *(f"c{j} * k{j}_{i}" for j in weights)]) for i in range(n)]

    def coefficients(table: str, weights: list[int]) -> str:
        return (f"    {', '.join(f'c{j}' for j in weights)} = "
                f"{', '.join(f'h * {table}{j}' for j in weights)}")

    lines = ["def step(fs, x, h):", f"    {_targets('f', n)}= fs",
             f"    {_targets('x', n)}= x", *_stage(1, n)]
    for s, row in enumerate(_RKF_A[1:], 2):
        weights = [j for j, a in enumerate(row, 1) if a]
        lines += [coefficients(f"_A{s}", weights),
                  *_stage(s, n, f"[{', '.join(sums(weights))}]")]
    fifth = [j for j, b in enumerate(_RKF_B5, 1) if b]
    fourth = [j for j, b in enumerate(_RKF_B4, 1) if b]
    lines += [coefficients("_B5", fifth),
              *(f"    y{i} = {total}" for i, total in enumerate(sums(fifth))),
              coefficients("_B4", fourth),
              f"    return [{_targets('y', n)}], "
              f"[{', '.join(f'y{i} - ({total})' for i, total in enumerate(sums(fourth)))}]"]
    return _define(lines, _RKF_NAMES)


def _pairwise_sum(terms: list[str]) -> str:
    """The sum of `terms` with the additions of `np.add.reduce` on float64:
    left to right under 8 terms; up to 128, eight running sums in strides
    of 8, added in pairs, then the tail; past 128, two halves split at a
    multiple of 8."""
    n = len(terms)
    if n < 8:
        return " + ".join(terms)
    if n <= 128:
        body = n - n % 8
        runs = [f"({' + '.join(terms[j:body:8])})" for j in range(8)]
        pairs = [f"({runs[j]} + {runs[j + 1]})" for j in range(0, 8, 2)]
        return " + ".join([f"(({pairs[0]} + {pairs[1]}) + ({pairs[2]} + {pairs[3]}))",
                           *terms[body:]])
    half = n // 2 - n // 2 % 8
    return f"({_pairwise_sum(terms[:half])}) + ({_pairwise_sum(terms[half:])})"


@cache
def _error_norm(n: int):
    """The RKF45 error norm on `n` coordinates, generated once per length:
    `norm(err, x, x_new, abs_tol, rel_tol)`, the RMS of err scaled by
    abs_tol + rel_tol * max(|x|, |x_new|) per coordinate, its squares r*r
    added as np.mean adds them (`_pairwise_sum`).  Only generated names
    and int literals enter the source."""
    return _define([
        "def norm(err, x, x_new, abs_tol, rel_tol):",
        f"    {_targets('e', n)}= err",
        f"    {_targets('a', n)}= x",
        f"    {_targets('b', n)}= x_new",
        *(f"    r{i} = e{i} / (abs_tol + rel_tol * max(abs(a{i}), abs(b{i})))" for i in range(n)),
        f"    return sqrt(({_pairwise_sum([f'r{i} * r{i}' for i in range(n)])}) / {n})",
    ], {"sqrt": math.sqrt})


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
    monitors = {"hamiltonian": dyn.H, "predicted_dH": diag.dH_along_flow,
                "divergence": diag.divergence}

    fs = tuple(c.eval for c in comps)
    for poly in monitors.values():
        poly.float_coefficients()  # a coefficient past float range raises here
    x = x0.tolist()
    # s and the state at every accepted node, as growing arrays of doubles,
    # 8 bytes a value; states holds one row after another
    times = array("d", [s0])
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
        step = rk4_stepper(chart.dim)
        for k in range(n_steps):
            try:
                x = step(fs, x, h)
            except (ValueError, OverflowError, FloatingPointError):
                raise BlowUpError(
                    "state left the representable range mid-step", times[-1],
                    partial_trajectory(),
                ) from None
            if not all(map(math.isfinite, x)):
                raise BlowUpError("non-finite state", times[-1], partial_trajectory())
            times.append(s0 + (k + 1) * h)
            states.extend(x)
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
        step, error_norm = _rkf45_stepper(chart.dim), _error_norm(chart.dim)
        while s < s1:
            if steps >= budgets.MAX_STEPS:
                raise StepBudgetError(
                    f"step budget {budgets.MAX_STEPS} exhausted", s, partial_trajectory()
                )
            steps += 1
            h = min(h, budgets.MAX_RK45_STEP, s1 - s)
            try:
                x_new, err = step(fs, x, h)
            except (ValueError, OverflowError, FloatingPointError):
                raise BlowUpError(
                    "state left the representable range mid-step", s, partial_trajectory()
                ) from None
            if not all(map(math.isfinite, x_new)):
                raise BlowUpError("non-finite state", s, partial_trajectory())
            err_norm = error_norm(err, x, x_new, config.abs_tol, config.rel_tol)
            if err_norm <= 1.0:
                s = s + h
                x = x_new
                times.append(s)
                states.extend(x)
            factor = 0.9 * (err_norm ** -0.2) if err_norm > 0 else 5.0
            h = h * min(5.0, max(0.2, factor))
            if h <= 0 or not math.isfinite(h):
                raise BlowUpError("step size collapsed", s, partial_trajectory())

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
