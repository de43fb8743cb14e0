"""Trajectory integration for catalog fields, with monitor channels.

Two integrators: classic fixed-step RK4 and adaptive RKF45 (Fehlberg
pair, fifth-order propagation, step control on the embedded error).
Both record, at every accepted node, the Hamiltonian value and, for
polynomial Hamiltonians, the exact predicted energy rate X(H) and the
exact local divergence.  After the run two derived channels are filled:
the measured energy rate (central differences of the H channel) and a
log-volume estimate (trapezoidal time integral of the divergence).

Polynomial Hamiltonians drive the field through the exact catalog
construction.  A `NumericHamiltonian` (value plus gradient callables)
bypasses the exact layer: the field components are assembled from the
same coordinate formulas with gradient values, and the exact-only
channels hold NaN.

A non-finite state aborts the run with the last good time and the
partial trajectory attached to the error; so does exhausting the step
budget.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .chart import Chart
from .fields import Family, FieldSpec, Gauge, diagnostics, make_field
from .poly import Poly

METHODS = ("rk4", "rk45")


@dataclass(frozen=True)
class IntegratorConfig:
    method: str = "rk4"  # one of METHODS
    step: float = 1e-3  # rk4 step; initial step for rk45
    rel_tol: float = 1e-8
    abs_tol: float = 1e-10
    max_steps: int = 2_000_000

    def __post_init__(self) -> None:
        if self.method not in METHODS:
            raise ValueError(f"unknown integrator method {self.method!r}")
        if self.step <= 0:
            raise ValueError("step must be positive")


@dataclass(frozen=True)
class NumericHamiltonian:
    """Escape hatch for non-polynomial Hamiltonians.

    `value` maps a state array to a float, `gradient` to the array of
    partials in chart coordinate order.  Strictness of strict rows is
    the caller's responsibility here; it cannot be checked symbolically.
    """

    value: Callable[[np.ndarray], float]
    gradient: Callable[[np.ndarray], np.ndarray]


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


def _poly_channels(spec: FieldSpec, H: Poly):
    X = make_field(spec, H)
    comps = X.components
    diag = diagnostics(spec, H)

    def rhs(x: np.ndarray) -> np.ndarray:
        return np.array([c.eval(x) for c in comps])

    return rhs, H.eval, diag.dH_along_flow.eval, diag.divergence.eval


def _numeric_channels(spec: FieldSpec, H: NumericHamiltonian):
    chart = spec.chart
    dim = chart.dim
    q_slots = [chart.q_slot(i) for i in range(1, chart.n + 1)]
    p_slots = [chart.p_slot(i) for i in range(1, chart.n + 1)]

    def rhs(x: np.ndarray) -> np.ndarray:
        g = np.asarray(H.gradient(x), dtype=float)
        if g.shape != (dim,):
            raise ValueError(f"gradient must return shape ({dim},)")
        out = np.zeros(dim)
        Hz = g[chart.z_slot] if chart.has_z else 0.0
        p_dot_Hp = 0.0
        for qs, ps in zip(q_slots, p_slots):
            out[qs] = g[ps]
            drag = g[qs]
            if chart.has_z and spec.family is not Family.STRICT:
                drag += x[ps] * Hz
            out[ps] = -drag
            p_dot_Hp += x[ps] * g[ps]
        if chart.has_z:
            out[chart.z_slot] = p_dot_Hp
            if spec.family is not Family.ENERGY:
                out[chart.z_slot] -= H.value(x)
        if chart.has_time:
            if spec.gauge is Gauge.ONE:
                out[chart.t_slot] = 1.0
            elif spec.gauge is Gauge.GRAD_H:
                out[chart.t_slot] = g[chart.t_slot]
        return out

    nan = lambda x: math.nan
    return rhs, (lambda x: float(H.value(x))), nan, nan


def _channels(spec: FieldSpec, H: Poly | NumericHamiltonian):
    if isinstance(H, Poly):
        return _poly_channels(spec, H)
    return _numeric_channels(spec, H)


def _rk4_step(rhs, x: np.ndarray, h: float) -> np.ndarray:
    k1 = rhs(x)
    k2 = rhs(x + 0.5 * h * k1)
    k3 = rhs(x + 0.5 * h * k2)
    k4 = rhs(x + h * k3)
    return x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


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


def _rkf45_step(rhs, x: np.ndarray, h: float):
    ks = []
    for row in _RKF_A:
        xi = x.copy()
        for a, k in zip(row, ks):
            if a:
                xi = xi + (h * a) * k
        ks.append(rhs(xi))
    x5 = x.copy()
    x4 = x.copy()
    for b5, b4, k in zip(_RKF_B5, _RKF_B4, ks):
        if b5:
            x5 = x5 + (h * b5) * k
        if b4:
            x4 = x4 + (h * b4) * k
    return x5, x5 - x4


def integrate(
    spec: FieldSpec,
    H: Poly | NumericHamiltonian,
    x0: Sequence[float],
    t_span: tuple[float, float],
    config: IntegratorConfig = IntegratorConfig(),
) -> Trajectory:
    """Integrate the catalog field for `spec` from x0 over t_span.

    The flow parameter s is the integration variable; on charts with a
    time coordinate, t is part of the state and moves only as the gauge
    dictates.
    """
    chart = spec.chart
    x = np.asarray(x0, dtype=float)
    if x.shape != (chart.dim,):
        raise ValueError(f"initial state must have shape ({chart.dim},)")
    if not np.all(np.isfinite(x)):
        raise ValueError("initial state must be finite")
    s0, s1 = float(t_span[0]), float(t_span[1])
    if s1 < s0:
        raise ValueError("backward integration is not supported; swap the span")
    rhs, h_eval, rate_eval, div_eval = _channels(spec, H)

    times = [s0]
    states = [x.copy()]
    ham = [h_eval(x)]
    pred = [rate_eval(x)]
    div = [div_eval(x)]

    def partial_trajectory() -> Trajectory:
        traj = Trajectory(spec, np.array(times), np.array(states))
        _fill_monitors(traj, ham, pred, div)
        return traj

    def record(s: float, y: np.ndarray) -> None:
        times.append(s)
        states.append(y.copy())
        ham.append(h_eval(y))
        pred.append(rate_eval(y))
        div.append(div_eval(y))

    if config.method == "rk4":
        total = s1 - s0
        n_steps = max(1, int(round(total / config.step))) if total > 0 else 0
        if n_steps > config.max_steps:
            raise StepBudgetError(
                f"{n_steps} RK4 steps exceed max_steps={config.max_steps}", s0,
                partial_trajectory(),
            )
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
            if not np.all(np.isfinite(x)):
                raise BlowUpError("non-finite state", times[-1], partial_trajectory())
            record(s, x)
    else:
        s = s0
        h = min(config.step, s1 - s0) if s1 > s0 else 0.0
        steps = 0
        while s < s1:
            if steps >= config.max_steps:
                raise StepBudgetError(
                    f"step budget {config.max_steps} exhausted", s, partial_trajectory()
                )
            steps += 1
            h = min(h, s1 - s)
            try:
                x_new, err = _rkf45_step(rhs, x, h)
            except (ValueError, OverflowError, FloatingPointError):
                raise BlowUpError(
                    "state left the representable range mid-step", s, partial_trajectory()
                ) from None
            if not np.all(np.isfinite(x_new)):
                raise BlowUpError("non-finite state", s, partial_trajectory())
            scale = config.abs_tol + config.rel_tol * np.maximum(np.abs(x), np.abs(x_new))
            err_norm = math.sqrt(float(np.mean((err / scale) ** 2)))
            if err_norm <= 1.0:
                s = s + h
                x = x_new
                record(s, x)
            factor = 0.9 * (err_norm ** -0.2) if err_norm > 0 else 5.0
            h = h * min(5.0, max(0.2, factor))
            if h <= 0 or not math.isfinite(h):
                raise BlowUpError("step size collapsed", s, partial_trajectory())

    traj = Trajectory(spec, np.array(times), np.array(states))
    _fill_monitors(traj, ham, pred, div)
    return traj


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


def numeric_divergence(
    spec: FieldSpec, H: Poly | NumericHamiltonian, x: Sequence[float], h: float = 1e-4
) -> float:
    """Central-difference divergence of the catalog field at x."""
    rhs, *_ = _channels(spec, H)
    x = np.asarray(x, dtype=float)
    total = 0.0
    for i in range(spec.chart.dim):
        e = np.zeros_like(x)
        e[i] = h
        total += (rhs(x + e)[i] - rhs(x - e)[i]) / (2.0 * h)
    return total


def flow_map_logdet(
    spec: FieldSpec,
    H: Poly | NumericHamiltonian,
    x0: Sequence[float],
    t_span: tuple[float, float],
    config: IntegratorConfig = IntegratorConfig(),
    h: float = 1e-6,
) -> float:
    """log |det d(flow map)/dx0| by central differences of endpoints.

    Compared in the tests against the time integral of the exact
    divergence along the center trajectory.
    """
    x0 = np.asarray(x0, dtype=float)
    dim = spec.chart.dim
    jac = np.zeros((dim, dim))
    for i in range(dim):
        e = np.zeros(dim)
        e[i] = h
        plus = integrate(spec, H, x0 + e, t_span, config).states[-1]
        minus = integrate(spec, H, x0 - e, t_span, config).states[-1]
        jac[:, i] = (plus - minus) / (2.0 * h)
    sign, logdet = np.linalg.slogdet(jac)
    if sign <= 0:
        raise ArithmeticError("flow map Jacobian lost orientation; window too long?")
    return float(logdet)


def trajectory_csv_lines(traj: Trajectory) -> list[str]:
    """CSV rows: s, chart coordinates present, H, pred_dHds, div."""
    chart = traj.chart
    header = ["s"]
    header.extend(chart.coord_names)
    header.extend(["H", "pred_dHds", "div"])
    lines = [",".join(header)]
    for k in range(len(traj.times)):
        row = [repr(float(traj.times[k]))]
        row.extend(repr(float(v)) for v in traj.states[k])
        row.append(repr(float(traj.monitors["hamiltonian"][k])))
        row.append(repr(float(traj.monitors["predicted_dH"][k])))
        row.append(repr(float(traj.monitors["divergence"][k])))
        lines.append(",".join(row))
    return lines


def write_trajectory_csv(traj: Trajectory, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(trajectory_csv_lines(traj)))
        fh.write("\n")
