"""Integrator tests: pinned trajectories, convergence order, monitors."""

import math

import numpy as np
import pytest

from geokin.chart import Chart, ChartKind
from geokin.fields import Family, FieldSpec, Gauge, diagnostics
from geokin.flow import (
    BlowUpError,
    IntegrationError,
    IntegratorConfig,
    StepBudgetError,
    flow_map_logdet,
    integrate,
    monitored_energy_rate,
    numeric_divergence,
    trajectory_csv_lines,
    write_trajectory_csv,
)


def _spec(kind, n=1, family=Family.HAMILTONIAN, gauge="auto"):
    chart = Chart(kind, n)
    if gauge == "auto":
        gauge = Gauge.ZERO if chart.has_time else None
    return chart, FieldSpec(chart, family, gauge)


def test_harmonic_oscillator_period_return():
    chart, spec = _spec(ChartKind.SYMPLECTIC)
    H = chart.parse("(q1^2 + p1^2)/2")
    x0 = [1.0, 0.0]
    traj = integrate(spec, H, x0, (0.0, 2.0 * math.pi), IntegratorConfig(step=1e-3))
    assert np.max(np.abs(traj.states[-1] - np.array(x0))) < 1e-8


def test_rk4_order_on_oscillator():
    chart, spec = _spec(ChartKind.SYMPLECTIC)
    H = chart.parse("(q1^2 + p1^2)/2")
    x0 = [1.0, 0.0]
    span = (0.0, 2.0 * math.pi)
    errs = []
    for h in (0.02, 0.01):
        traj = integrate(spec, H, x0, span, IntegratorConfig(step=h))
        errs.append(float(np.max(np.abs(traj.states[-1] - np.array(x0)))))
    ratio = errs[0] / errs[1]
    assert 8.0 <= ratio <= 32.0  # fourth order halving


def test_contact_linear_decay_pinned():
    # H = z: qdot = 0, pdot = -p, zdot = -z
    chart, spec = _spec(ChartKind.CONTACT)
    H = chart.parse("z")
    traj = integrate(spec, H, [0.0, 1.0, 1.0], (0.0, 1.0), IntegratorConfig(step=1e-3))
    expected = math.exp(-1.0)
    assert abs(traj.states[-1][1] - expected) < 1e-6
    assert abs(traj.states[-1][2] - expected) < 1e-6
    assert abs(traj.states[-1][0]) == 0.0


def test_gauge_one_time_channel_is_affine():
    chart, spec = _spec(ChartKind.COSYMPLECTIC, gauge=Gauge.ONE)
    H = chart.parse("p1^2/2 + t*q1")
    traj = integrate(spec, H, [0.25, 0.5, -0.3], (0.0, 1.5), IntegratorConfig(step=1e-3))
    t_slot = chart.t_slot
    drift = np.abs(traj.states[:, t_slot] - (0.25 + traj.times))
    assert np.max(drift) < 1e-10


def test_gauge_zero_freezes_time_channel():
    chart, spec = _spec(ChartKind.COCONTACT, gauge=Gauge.ZERO)
    H = chart.parse("p1^2/2 + t*q1 + z")
    traj = integrate(spec, H, [0.7, 0.2, 0.1, 0.0], (0.0, 1.0), IntegratorConfig(step=1e-3))
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
            traj = integrate(spec, use_H, x0, (0.0, 0.2), IntegratorConfig(step=1e-3))
            assert monitored_energy_rate(traj) < 1e-5, spec.row_name


def test_monitor_channels_match_closed_forms():
    chart, spec = _spec(ChartKind.CONTACT)
    H = chart.parse("z")
    traj = integrate(spec, H, [0.0, 1.0, 1.0], (0.0, 1.0), IntegratorConfig(step=1e-3))
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
            assert abs(numeric_divergence(spec, H, x) - sym.eval(x)) < 1e-5


def test_flow_map_logdet_matches_divergence_integral():
    # contact H = z + p1^2/2: div = -(n+1) H_z = -2, constant
    chart, spec = _spec(ChartKind.CONTACT)
    H = chart.parse("z + p1^2/2")
    window = 0.3
    logdet = flow_map_logdet(spec, H, [0.1, 0.4, 0.2], (0.0, window))
    expected = -2.0 * window
    assert abs(logdet - expected) <= 0.05 * abs(expected)


def test_rk45_adaptive_matches_exact_solution():
    chart, spec = _spec(ChartKind.SYMPLECTIC)
    H = chart.parse("(q1^2 + p1^2)/2")
    cfg = IntegratorConfig(method="rk45", rel_tol=1e-10, abs_tol=1e-12)
    traj = integrate(spec, H, [1.0, 0.0], (0.0, 2.0 * math.pi), cfg)
    assert np.max(np.abs(traj.states[-1] - np.array([1.0, 0.0]))) < 1e-6
    steps = np.diff(traj.times)
    assert steps.min() > 0
    assert traj.times[-1] == pytest.approx(2.0 * math.pi, abs=1e-12)


def test_blow_up_reports_last_good_state():
    # qdot = q1^3 escapes to infinity in finite time from q0 = 1
    chart, spec = _spec(ChartKind.SYMPLECTIC)
    H = chart.parse("q1^3 * p1")
    with pytest.raises(BlowUpError) as err:
        integrate(spec, H, [1.0, 0.2], (0.0, 1.0), IntegratorConfig(step=1e-3))
    assert isinstance(err.value, IntegrationError)
    assert 0.0 < err.value.last_good_time < 0.6
    assert err.value.partial is not None
    assert len(err.value.partial.times) > 1


def test_step_budget_is_enforced():
    chart, spec = _spec(ChartKind.SYMPLECTIC)
    H = chart.parse("(q1^2 + p1^2)/2")
    cfg = IntegratorConfig(step=1e-3, max_steps=10)
    with pytest.raises(StepBudgetError) as err:
        integrate(spec, H, [1.0, 0.0], (0.0, 1.0), cfg)
    assert err.value.partial is not None


def test_backward_time_is_rejected():
    chart, spec = _spec(ChartKind.SYMPLECTIC)
    H = chart.parse("(q1^2 + p1^2)/2")
    with pytest.raises(ValueError):
        integrate(spec, H, [1.0, 0.0], (0.5, 0.0), IntegratorConfig())


def test_csv_export_layout_and_determinism(tmp_path):
    chart, spec = _spec(ChartKind.COCONTACT)
    H = chart.parse("p1^2/2 + z/3 + t/5")
    traj = integrate(spec, H, [0.0, 0.3, 0.4, 0.1], (0.0, 0.25), IntegratorConfig(step=5e-3))
    lines = trajectory_csv_lines(traj)
    assert lines[0] == "s,t,q1,p1,z,H,pred_dHds,div"
    assert len(lines) == 1 + len(traj.times)
    first = lines[1].split(",")
    assert float(first[0]) == 0.0
    assert float(first[1]) == 0.0 and float(first[4]) == 0.1
    p1 = tmp_path / "a.csv"
    p2 = tmp_path / "b.csv"
    write_trajectory_csv(traj, p1)
    traj2 = integrate(spec, H, [0.0, 0.3, 0.4, 0.1], (0.0, 0.25), IntegratorConfig(step=5e-3))
    write_trajectory_csv(traj2, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_strictness_violation_surfaces_before_integration():
    chart = Chart(ChartKind.CONTACT, 1)
    spec = FieldSpec(chart, Family.STRICT)
    H = chart.parse("z")
    from geokin.fields import StrictnessError

    with pytest.raises(StrictnessError):
        integrate(spec, H, [0.0, 1.0, 1.0], (0.0, 0.1), IntegratorConfig())
