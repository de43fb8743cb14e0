"""Integrator tests: pinned trajectories, convergence order, monitors, and
a bit-identity oracle against the array loop the coordinate-list steps replaced."""

import math
import random
import re
import struct

import numpy as np
import pytest
from hypothesis import given, reject, settings, strategies as st

from geokin import budgets, flow
from geokin.chart import Chart, ChartKind
from geokin.corpus import random_hamiltonian
from geokin.fields import Dynamics, Family, FieldSpec, Gauge, catalog, diagnostics, make_field
from geokin.flow import (
    BlowUpError,
    IntegrationError,
    IntegratorConfig,
    StepBudgetError,
    Trajectory,
    integrate,
    monitored_energy_rate,
    trajectory_csv_lines,
    write_trajectory_csv,
)
from geokin.poly import Poly

from helpers import flow_map_logdet, numeric_divergence, traced_peak


def _spec(kind, n=1, family=Family.HAMILTONIAN, gauge="auto"):
    chart = Chart(kind, n)
    if gauge == "auto":
        gauge = Gauge.ZERO if chart.has_time else None
    return chart, FieldSpec(chart, family, gauge)


def test_harmonic_oscillator_period_return():
    chart, spec = _spec(ChartKind.SYMPLECTIC)
    H = chart.parse("(q1^2 + p1^2)/2")
    x0 = [1.0, 0.0]
    traj = integrate(Dynamics(spec, H), x0, (0.0, 2.0 * math.pi), IntegratorConfig(step=1e-3))
    assert np.max(np.abs(traj.states[-1] - np.array(x0))) < 1e-8


def test_rk4_order_on_oscillator():
    chart, spec = _spec(ChartKind.SYMPLECTIC)
    H = chart.parse("(q1^2 + p1^2)/2")
    x0 = [1.0, 0.0]
    span = (0.0, 2.0 * math.pi)
    errs = []
    for h in (0.02, 0.01):
        traj = integrate(Dynamics(spec, H), x0, span, IntegratorConfig(step=h))
        errs.append(float(np.max(np.abs(traj.states[-1] - np.array(x0)))))
    ratio = errs[0] / errs[1]
    assert 8.0 <= ratio <= 32.0  # fourth order halving


def test_contact_linear_decay_pinned():
    # H = z: qdot = 0, pdot = -p, zdot = -z
    chart, spec = _spec(ChartKind.CONTACT)
    H = chart.parse("z")
    traj = integrate(Dynamics(spec, H), [0.0, 1.0, 1.0], (0.0, 1.0), IntegratorConfig(step=1e-3))
    expected = math.exp(-1.0)
    assert abs(traj.states[-1][1] - expected) < 1e-6
    assert abs(traj.states[-1][2] - expected) < 1e-6
    assert abs(traj.states[-1][0]) == 0.0


def test_gauge_one_time_channel_is_affine():
    chart, spec = _spec(ChartKind.COSYMPLECTIC, gauge=Gauge.ONE)
    H = chart.parse("p1^2/2 + t*q1")
    traj = integrate(Dynamics(spec, H), [0.25, 0.5, -0.3], (0.0, 1.5), IntegratorConfig(step=1e-3))
    t_slot = chart.t_slot
    drift = np.abs(traj.states[:, t_slot] - (0.25 + traj.times))
    assert np.max(drift) < 1e-10


def test_gauge_zero_freezes_time_channel():
    chart, spec = _spec(ChartKind.COCONTACT, gauge=Gauge.ZERO)
    H = chart.parse("p1^2/2 + t*q1 + z")
    traj = integrate(Dynamics(spec, H), [0.7, 0.2, 0.1, 0.0], (0.0, 1.0), IntegratorConfig(step=1e-3))
    assert np.max(np.abs(traj.states[:, chart.t_slot] - 0.7)) == 0.0


_RATE_CASES = [
    (ChartKind.SYMPLECTIC, "(q1^2 + p1^2)/2"),
    (ChartKind.COSYMPLECTIC, "p1^2/2 + t*q1"),
    (ChartKind.CONTACT, "p1^2/2 + q1^2/2 + z/2"),
    (ChartKind.COCONTACT, "p1^2/2 + q1^2/2 + z/2 + t/4"),
]


@pytest.mark.parametrize("kind,text", _RATE_CASES)
def test_energy_rate_monitor_all_rows(kind, text):
    chart = Chart(kind, 1)
    H = chart.parse(text)
    x0 = [0.2] * chart.dim
    for family in Family:
        if family is not Family.HAMILTONIAN and not chart.has_z:
            continue
        gauges = [Gauge.ZERO, Gauge.ONE, Gauge.GRAD_H] if chart.has_time else [None]
        for gauge in gauges:
            spec = FieldSpec(chart, family, gauge)
            use_H = H
            if family is Family.STRICT and chart.has_z:
                use_H = chart.parse(text.replace(" + z/2", ""))
            traj = integrate(Dynamics(spec, use_H), x0, (0.0, 0.2), IntegratorConfig(step=1e-3))
            assert monitored_energy_rate(traj) < 1e-5, spec.row_name


def test_monitor_channels_match_closed_forms():
    chart, spec = _spec(ChartKind.CONTACT)
    H = chart.parse("z")
    traj = integrate(Dynamics(spec, H), [0.0, 1.0, 1.0], (0.0, 1.0), IntegratorConfig(step=1e-3))
    z = traj.states[:, chart.z_slot]
    assert np.max(np.abs(traj.monitors["hamiltonian"] - z)) < 1e-12
    # X(H) = -H*H_z = -z along the flow
    assert np.max(np.abs(traj.monitors["predicted_dH"] + z)) < 1e-12
    # div = -(n+1) H_z = -2 everywhere
    assert np.max(np.abs(traj.monitors["divergence"] + 2.0)) < 1e-12
    assert np.max(np.abs(traj.monitors["log_volume"] + 2.0 * traj.times)) < 1e-10


def test_numeric_divergence_matches_symbolic():
    rng = np.random.default_rng(3)
    for kind in ChartKind:
        chart = Chart(kind, 1)
        gauge = Gauge.GRAD_H if chart.has_time else None
        spec = FieldSpec(chart, Family.HAMILTONIAN, gauge)
        H = chart.parse("p1^2/2 + q1*p1/3 + t*q1 + z*q1/2") if chart.dim == 4 else None
        if H is None:
            pieces = ["p1^2/2", "q1*p1/3"]
            if chart.has_time:
                pieces.append("t*q1")
            if chart.has_z:
                pieces.append("z*q1/2")
            H = chart.parse(" + ".join(pieces))
        sym = diagnostics(spec, H).divergence
        for _ in range(20):
            x = rng.uniform(-1.0, 1.0, chart.dim)
            assert abs(numeric_divergence(Dynamics(spec, H), x) - sym.eval(x)) < 1e-5


def test_flow_map_logdet_matches_divergence_integral():
    # contact H = z + p1^2/2: div = -(n+1) H_z = -2, constant
    chart, spec = _spec(ChartKind.CONTACT)
    H = chart.parse("z + p1^2/2")
    window = 0.3
    logdet = flow_map_logdet(Dynamics(spec, H), [0.1, 0.4, 0.2], (0.0, window))
    expected = -2.0 * window
    assert abs(logdet - expected) <= 0.05 * abs(expected)


def test_rk45_adaptive_matches_exact_solution():
    chart, spec = _spec(ChartKind.SYMPLECTIC)
    H = chart.parse("(q1^2 + p1^2)/2")
    cfg = IntegratorConfig(method="rk45", rel_tol=1e-10, abs_tol=1e-12)
    traj = integrate(Dynamics(spec, H), [1.0, 0.0], (0.0, 2.0 * math.pi), cfg)
    assert np.max(np.abs(traj.states[-1] - np.array([1.0, 0.0]))) < 1e-6
    steps = np.diff(traj.times)
    assert steps.min() > 0
    assert traj.times[-1] == pytest.approx(2.0 * math.pi, abs=1e-12)


def test_blow_up_reports_last_good_state():
    # qdot = q1^3 escapes to infinity in finite time from q0 = 1
    chart, spec = _spec(ChartKind.SYMPLECTIC)
    H = chart.parse("q1^3 * p1")
    with pytest.raises(BlowUpError) as err:
        integrate(Dynamics(spec, H), [1.0, 0.2], (0.0, 1.0), IntegratorConfig(step=1e-3))
    assert isinstance(err.value, IntegrationError)
    assert 0.0 < err.value.last_good_time < 0.6
    assert err.value.partial is not None
    assert len(err.value.partial.times) > 1


def test_step_budget_is_enforced(monkeypatch):
    chart, spec = _spec(ChartKind.SYMPLECTIC)
    H = chart.parse("(q1^2 + p1^2)/2")
    monkeypatch.setattr(budgets, "MAX_STEPS", 10)
    for method in flow.METHODS:
        with pytest.raises(StepBudgetError) as err:
            integrate(Dynamics(spec, H), [1.0, 0.0], (0.0, 1.0),
                      IntegratorConfig(method=method, step=1e-3))
        assert err.value.partial is not None


def test_a_step_count_past_float_range_is_refused():
    chart, spec = _spec(ChartKind.SYMPLECTIC)
    H = chart.parse("(q1^2 + p1^2)/2")
    with pytest.raises(StepBudgetError, match="inf RK4 steps exceed the step budget"):
        integrate(Dynamics(spec, H), [1.0, 0.0], (0.0, 1e300), IntegratorConfig(step=1e-300))


@pytest.mark.parametrize("kind, hamiltonian, x0, t_final", [
    (ChartKind.CONTACT, "z + p1^2/2", [0.1, 0.5, 1.0], 1e300),
    (ChartKind.SYMPLECTIC, "(q1^2 + p1^2)/2", [0.1, 0.5], 1e12),
])
def test_an_rk45_span_past_the_step_budget_is_refused_before_the_first_step(
        monkeypatch, kind, hamiltonian, x0, t_final):
    def no_step(*args, **kwargs):
        raise AssertionError("a step ran")

    monkeypatch.setattr(flow, "_rkf45_step", no_step)
    chart, spec = _spec(kind)
    fewest = t_final / budgets.MAX_RK45_STEP
    message = f"{fewest:.6g} RKF45 steps of at most {budgets.MAX_RK45_STEP} exceed the step budget"
    with pytest.raises(StepBudgetError, match=re.escape(message)):
        integrate(Dynamics(spec, chart.parse(hamiltonian)), x0, (0.0, t_final),
                  IntegratorConfig(method="rk45"))


def test_rk45_steps_are_capped_at_the_largest_step(monkeypatch):
    # a linear drift has no error to control: the step grows to the cap and stays
    chart, spec = _spec(ChartKind.SYMPLECTIC)
    monkeypatch.setattr(budgets, "MAX_RK45_STEP", 0.25)
    traj = integrate(Dynamics(spec, chart.parse("p1")), [0.0, 0.0], (0.0, 3.0),
                     IntegratorConfig(method="rk45", step=0.1))
    steps = np.diff(traj.times)  # 0.1, eleven of 0.25, then the 0.15 left
    assert len(steps) == 13 and np.allclose(steps[1:-1], 0.25)
    assert traj.times[-1] == 3.0


def test_integrate_evaluates_through_poly_eval_alone(monkeypatch):
    """The `Poly.eval` budget of `integrate`: 4*dim calls per RK4 step and
    6*dim per RKF45 attempt, accepted or rejected, plus 3 (H, X(H) and the
    divergence) per recorded node, the first one included.

    The benchmark's `--trace 1` run bounds `poly.eval.calls` below by 4 x
    steps (`perfbench/run.py::coverage_problems`), so a change that
    evaluates the field past `Poly.eval` (ROADMAP item 2's fused kernel)
    fails here first.  ROADMAP item 1b must move that bench bound to an
    exact right-hand-side count before such a change lands."""
    chart, spec = _spec(ChartKind.COCONTACT)
    dyn = Dynamics(spec, chart.parse("p1^2/2 + q1^2/2 + z/3 + t*q1/5"))
    calls = attempts = 0
    poly_eval, rkf45_step = Poly.eval, flow._rkf45_step

    def counted_eval(self, point):
        nonlocal calls
        calls += 1
        return poly_eval(self, point)

    def counted_step(rhs, x, h):
        nonlocal attempts
        attempts += 1
        return rkf45_step(rhs, x, h)

    monkeypatch.setattr(Poly, "eval", counted_eval)
    monkeypatch.setattr(flow, "_rkf45_step", counted_step)
    x0 = [0.0, 0.3, 0.4, 0.1]
    traj = integrate(dyn, x0, (0.0, 0.25), IntegratorConfig(step=5e-3))
    assert calls == 4 * chart.dim * 50 + 3 * len(traj.times) and len(traj.times) == 51
    calls = 0
    # a first step far past the tolerance: the controller rejects and shrinks it
    traj = integrate(dyn, x0, (0.0, 2.0), IntegratorConfig(method="rk45", step=1.0))
    assert attempts > len(traj.times) - 1
    assert calls == 6 * chart.dim * attempts + 3 * len(traj.times)


def test_a_trajectory_holds_about_eight_bytes_per_sample_per_channel():
    # time, four coordinates and five monitors: ten channels of float64.
    # The traced peak is theirs plus np.gradient's temporaries for the
    # measured energy rate, about 64 B a sample.
    chart, spec = _spec(ChartKind.COCONTACT)
    dyn = Dynamics(spec, chart.parse("p1^2/2 + z/3 + t/5"))
    x0, config = [0.0, 0.3, 0.4, 0.1], IntegratorConfig(step=1e-4)
    integrate(dyn, x0, (0.0, 1e-3), config)  # compile the kernels outside the trace
    traj, peak = traced_peak(lambda: integrate(dyn, x0, (0.0, 1.0), config))
    samples = len(traj.times)
    assert samples == 10_001
    assert sum(a.nbytes for a in [traj.times, traj.states, *traj.monitors.values()]) \
        == 8 * 10 * samples
    assert peak < 160 * samples


def test_csv_export_is_written_one_block_of_rows_at_a_time(tmp_path, monkeypatch):
    chart, spec = _spec(ChartKind.COCONTACT)
    dyn = Dynamics(spec, chart.parse("p1^2/2 + z/3 + t/5"))
    traj = integrate(dyn, [0.0, 0.3, 0.4, 0.1], (0.0, 1.0), IntegratorConfig(step=1e-4))
    monkeypatch.setattr(flow, "CSV_BLOCK_ROWS", 100)
    path = tmp_path / "traj.csv"
    _, peak = traced_peak(lambda: write_trajectory_csv(traj, path))
    text = path.read_text(encoding="utf-8")
    assert text == "\n".join(trajectory_csv_lines(traj)) + "\n"
    assert peak < len(text) / 10  # 101 blocks, one of them held at a time


def test_backward_time_is_rejected():
    chart, spec = _spec(ChartKind.SYMPLECTIC)
    H = chart.parse("(q1^2 + p1^2)/2")
    with pytest.raises(ValueError):
        integrate(Dynamics(spec, H), [1.0, 0.0], (0.5, 0.0), IntegratorConfig())


def test_csv_export_layout_and_determinism(tmp_path):
    chart, spec = _spec(ChartKind.COCONTACT)
    H = chart.parse("p1^2/2 + z/3 + t/5")
    traj = integrate(Dynamics(spec, H), [0.0, 0.3, 0.4, 0.1], (0.0, 0.25), IntegratorConfig(step=5e-3))
    lines = trajectory_csv_lines(traj)
    assert lines[0] == "s,t,q1,p1,z,H,pred_dHds,div"
    assert len(lines) == 1 + len(traj.times)
    first = lines[1].split(",")
    assert float(first[0]) == 0.0
    assert float(first[1]) == 0.0 and float(first[4]) == 0.1
    p1 = tmp_path / "a.csv"
    p2 = tmp_path / "b.csv"
    write_trajectory_csv(traj, p1)
    traj2 = integrate(Dynamics(spec, H), [0.0, 0.3, 0.4, 0.1], (0.0, 0.25), IntegratorConfig(step=5e-3))
    write_trajectory_csv(traj2, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_strictness_violation_surfaces_before_integration():
    chart = Chart(ChartKind.CONTACT, 1)
    spec = FieldSpec(chart, Family.STRICT)
    H = chart.parse("z")
    from geokin.fields import StrictnessError

    with pytest.raises(StrictnessError):
        integrate(Dynamics(spec, H), [0.0, 1.0, 1.0], (0.0, 0.1), IntegratorConfig())


def test_integrator_config_refuses_a_tolerance_the_error_scale_cannot_divide_by():
    for bad in ({"abs_tol": 0.0}, {"abs_tol": -1e-10}, {"rel_tol": -1e-8}):
        with pytest.raises(ValueError, match="abs_tol"):
            IntegratorConfig(method="rk45", **bad)
    IntegratorConfig(method="rk45", rel_tol=0.0)  # absolute control alone is fine


# -- bit-identity oracle: the array loop the coordinate-list steps replaced --


def reference_rk4_step(rhs, x, h):
    k1 = rhs(x)
    k2 = rhs(x + 0.5 * h * k1)
    k3 = rhs(x + 0.5 * h * k2)
    k4 = rhs(x + h * k3)
    return x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def reference_rkf45_step(rhs, x, h):
    ks = []
    for row in flow._RKF_A:
        xi = x.copy()
        for a, k in zip(row, ks):
            if a:
                xi = xi + (h * a) * k
        ks.append(rhs(xi))
    x5 = x.copy()
    x4 = x.copy()
    for b5, b4, k in zip(flow._RKF_B5, flow._RKF_B4, ks):
        if b5:
            x5 = x5 + (h * b5) * k
        if b4:
            x4 = x4 + (h * b4) * k
    return x5, x5 - x4


# -0.0, subnormals and values whose products leave float range, besides generic ones
STEP_VALUE = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-310, 1e300, -1e300, 1.0, -0.5]),
    st.floats(-1e6, 1e6),
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(data=st.data())
def test_rkf45_step_is_bit_identical_to_the_array_step(data):
    dim = data.draw(st.integers(2, 34))
    vector = st.lists(STEP_VALUE, min_size=dim, max_size=dim)
    x, weights, shifts = data.draw(vector), data.draw(vector), data.draw(vector)
    h = data.draw(st.one_of(st.sampled_from([1e-12, budgets.MAX_RK45_STEP]),
                            st.floats(1e-12, budgets.MAX_RK45_STEP)))

    def field(y):
        """A linear field that mixes neighbouring coordinates, on floats."""
        return [w * float(y[(j + 1) % dim]) + v for j, (w, v) in enumerate(zip(weights, shifts))]

    def pack(values):
        return struct.pack(f"<{dim}d", *values)

    stages, ref_stages = [], []

    def rhs(y):
        stages.append(pack(y))
        return field(y)

    def ref_rhs(y):
        ref_stages.append(pack(y))
        return np.array(field(y))

    with np.errstate(all="ignore"):
        want = reference_rkf45_step(ref_rhs, np.array(x), h)
    got = flow._rkf45_step(rhs, x, h)
    assert stages == ref_stages  # every stage state, in order
    assert [pack(v) for v in got] == [pack(v) for v in want]


def reference_integrate(spec, H, x0, s1, config):
    """`integrate` on numpy state, as it ran before its state became a list
    of floats: array steps, the array error norm, monitors evaluated on
    arrays, and per-element CSV formatting.  None when the state leaves
    float range."""
    comps = make_field(spec, H).components
    diag = diagnostics(spec, H)
    h_eval, rate_eval, div_eval = H.eval, diag.dH_along_flow.eval, diag.divergence.eval

    def rhs(x):
        return np.array([c.eval(x) for c in comps])

    with np.errstate(all="ignore"):
        try:
            found = _reference_states(rhs, np.asarray(x0, dtype=float), s1, config)
        except ValueError:  # a stage evaluated the field off float range
            found = None
    if found is None:
        return None
    times, states = found
    traj = Trajectory(spec, np.array(times), np.array(states))
    flow._fill_monitors(traj, [h_eval(y) for y in states], [rate_eval(y) for y in states],
                        [div_eval(y) for y in states])
    lines = [trajectory_csv_lines(traj)[0]]
    for k in range(len(traj.times)):
        row = [repr(float(traj.times[k]))]
        row.extend(repr(float(v)) for v in traj.states[k])
        row.extend(repr(float(traj.monitors[m][k]))
                   for m in ("hamiltonian", "predicted_dH", "divergence"))
        lines.append(",".join(row))
    return traj, lines


def _reference_states(rhs, x, s1, config):
    """The array step loop: its times and states, or None at the first
    non-finite state."""
    times, states = [0.0], [x.copy()]
    if config.method == "rk4":
        n_steps = max(1, int(round(s1 / config.step))) if s1 > 0 else 0
        h = s1 / n_steps if n_steps else 0.0
        for k in range(n_steps):
            x = reference_rk4_step(rhs, x, h)
            if not np.all(np.isfinite(x)):
                return None
            times.append((k + 1) * h)
            states.append(x.copy())
        return times, states
    s, h = 0.0, min(config.step, s1) if s1 > 0 else 0.0
    while s < s1:
        h = min(h, s1 - s)
        x_new, err = reference_rkf45_step(rhs, x, h)
        if not np.all(np.isfinite(x_new)):
            return None
        scale = config.abs_tol + config.rel_tol * np.maximum(np.abs(x), np.abs(x_new))
        err_norm = math.sqrt(float(np.mean((err / scale) ** 2)))
        if err_norm <= 1.0:
            s, x = s + h, x_new
            times.append(s)
            states.append(x.copy())
        factor = 0.9 * (err_norm ** -0.2) if err_norm > 0 else 5.0
        h = h * min(5.0, max(0.2, factor))
    return times, states


@settings(max_examples=300, deadline=None, derandomize=True)
@given(data=st.data())
def test_error_norm_is_bit_identical_to_the_array_norm(data):
    dim = data.draw(st.integers(2, 34))  # chart dims from symplectic n=1 to cocontact n=16
    vectors = st.lists(st.floats(-1e6, 1e6), min_size=dim, max_size=dim)
    err, x, x_new = data.draw(vectors), data.draw(vectors), data.draw(vectors)
    abs_tol = data.draw(st.sampled_from([1e-14, 1e-10, 1e-3]))
    rel_tol = data.draw(st.sampled_from([0.0, 1e-12, 1e-8, 0.5]))
    scale = abs_tol + rel_tol * np.maximum(np.abs(np.array(x)), np.abs(np.array(x_new)))
    with np.errstate(over="ignore"):
        want = math.sqrt(float(np.mean((np.array(err) / scale) ** 2)))
    got = flow._error_norm(err, x, x_new, abs_tol, rel_tol)
    assert struct.pack("<d", got) == struct.pack("<d", want)


# -0.0 and exact zeros as well as generic values
COORDINATE = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -0.5]), st.floats(-1.0, 1.0))


@settings(max_examples=120, deadline=None, derandomize=True)
@given(kind=st.sampled_from(list(ChartKind)), method=st.sampled_from(flow.METHODS),
       data=st.data())
def test_integrate_is_bit_identical_to_the_array_loop(kind, method, data):
    chart = Chart(kind, data.draw(st.integers(1, 4)))  # dim 8 and up sums the norm pairwise
    spec = data.draw(st.sampled_from(catalog(chart)))
    rng = random.Random(data.draw(st.integers(0, 2 ** 32)))
    H = random_hamiltonian(rng, chart, degree=3, terms=4, z_free=spec.family is Family.STRICT)
    x0 = data.draw(st.lists(COORDINATE, min_size=chart.dim, max_size=chart.dim))
    # tight tolerances keep the rk45 controller where err_norm sets the step
    rel_tol = data.draw(st.sampled_from([1e-12, 1e-10, 1e-7]))
    config = IntegratorConfig(method=method, step=data.draw(st.sampled_from([0.005, 0.02, 0.1])),
                              rel_tol=rel_tol, abs_tol=rel_tol / 100)
    s1 = data.draw(st.sampled_from([0.0, 0.01, 0.2, 0.5]))
    want = reference_integrate(spec, H, x0, s1, config)
    if want is None:
        with pytest.raises(BlowUpError):
            integrate(Dynamics(spec, H), x0, (0.0, s1), config)
        reject()
    ref, ref_lines = want
    traj = integrate(Dynamics(spec, H), x0, (0.0, s1), config)
    assert traj.times.dtype == traj.states.dtype == np.float64
    assert traj.times.tobytes() == ref.times.tobytes()
    assert traj.states.shape == ref.states.shape
    assert traj.states.tobytes() == ref.states.tobytes()
    assert traj.monitors.keys() == ref.monitors.keys()
    for name, channel in ref.monitors.items():
        assert traj.monitors[name].tobytes() == channel.tobytes(), name
    assert trajectory_csv_lines(traj) == ref_lines
