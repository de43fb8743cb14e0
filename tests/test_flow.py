"""Integrator tests: pinned trajectories, convergence order, monitors, a
bit-identity oracle against the array loop the coordinate-list steps
replaced, one against the comprehension steps and the array error norm
the generated steppers and norm replaced, and a byte oracle against the
CSV writer `flow.write_csv` replaced."""

import math
import random
import re
import struct
import threading
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, reject, settings, strategies as st

from geokin import budgets, codegen, flow
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
    write_trajectory_csv,
)
from geokin.poly import Poly

from helpers import (
    array_error_norm,
    comprehension_rk4_step,
    comprehension_rkf45_step,
    flow_map_logdet,
    log_volume,
    numeric_divergence,
    oracle_write_trajectory_csv,
    traced_peak,
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
    traj = integrate(Dynamics(spec, H), x0, 2.0 * math.pi, IntegratorConfig(step=1e-3))
    assert np.max(np.abs(traj.states[-1] - np.array(x0))) < 1e-8


def test_rk4_order_on_oscillator():
    chart, spec = _spec(ChartKind.SYMPLECTIC)
    H = chart.parse("(q1^2 + p1^2)/2")
    x0 = [1.0, 0.0]
    span = 2.0 * math.pi
    errs = []
    for h in (0.02, 0.01):
        traj = integrate(Dynamics(spec, H), x0, span, IntegratorConfig(step=h))
        errs.append(float(np.max(np.abs(traj.states[-1] - np.array(x0)))))
    ratio = errs[0] / errs[1]
    assert 8.0 <= ratio <= 32.0  # fourth order halving


# -- the Butcher tables, exactly, and the generated steps' local errors ------


def rooted_trees(order: int) -> list[tuple]:
    """Every rooted tree of `order` nodes, each a sorted tuple of its subtrees."""
    if order == 1:
        return [()]

    def grown(tree: tuple):
        """`tree` with one leaf added under each of its nodes in turn."""
        yield tuple(sorted(tree + ((),)))
        for k, child in enumerate(tree):
            for bigger in grown(child):
                yield tuple(sorted(tree[:k] + (bigger,) + tree[k + 1:]))

    return sorted({bigger for tree in rooted_trees(order - 1) for bigger in grown(tree)})


def order_defect(A, b, tree: tuple) -> Fraction:
    """The elementary weight of `tree` under the tableau (A, b) less its
    exact value 1/gamma: sum_i b_i Phi_i(tree), where Phi_i multiplies, over
    the subtrees u, sum_j a_ij Phi_j(u).  Zero iff the condition holds."""
    def phi(t: tuple) -> list:
        out = [Fraction(1)] * len(b)
        for u in t:
            inner = phi(u)
            out = [o * sum((Fraction(a) * v for a, v in zip(row, inner)), Fraction(0))
                   for o, row in zip(out, A)]
        return out

    def size(t: tuple) -> int:
        return 1 + sum(map(size, t))

    def gamma(t: tuple) -> int:
        return size(t) * math.prod(map(gamma, t))

    weight = sum((Fraction(w) * v for w, v in zip(b, phi(tree))), Fraction(0))
    return weight - Fraction(1, gamma(tree))


def failed_conditions(A, b, order: int) -> list[tuple]:
    return [tree for tree in rooted_trees(order) if order_defect(A, b, tree)]


# classic RK4, as `codegen.rk4_stepper` writes its stages out by hand
RK4_A = ((), (Fraction(1, 2),), (0, Fraction(1, 2)), (0, 0, 1))
RK4_B = (Fraction(1, 6), Fraction(1, 3), Fraction(1, 3), Fraction(1, 6))


def test_the_butcher_tables_meet_their_order_conditions_exactly():
    assert [len(rooted_trees(k)) for k in range(1, 6)] == [1, 1, 2, 4, 9]
    A, b5, b4 = codegen._RKF_A, codegen._RKF_B5, codegen._RKF_B4
    nodes = [sum(row, Fraction(0)) for row in A]  # the row sums c_i
    assert nodes == [0, Fraction(1, 4), Fraction(3, 8), Fraction(12, 13), 1, Fraction(1, 2)]
    assert all(failed_conditions(A, b5, k) == [] for k in range(1, 6))
    assert all(failed_conditions(A, b4, k) == [] for k in range(1, 5))
    assert failed_conditions(A, b4, 5) == rooted_trees(5)  # the embedded one: fourth order only
    assert sum(w * c ** 4 for w, c in zip(b4, nodes)) == Fraction(83, 416)  # not 1/5
    assert all(failed_conditions(RK4_A, RK4_B, k) == [] for k in range(1, 5))
    assert failed_conditions(RK4_A, RK4_B, 5)


# (chart, H, x0, the exact flow at s = h from x0): contact H = z decays p and
# z as e^-s, and the oscillator turns (q1, p1) through the angle s
_EXACT_FLOWS = {
    "contact": (Chart(ChartKind.CONTACT, 1), "z", [0.3, 1.0, 1.0],
                lambda h: [0.3, math.exp(-h), math.exp(-h)]),
    "oscillator": (Chart(ChartKind.SYMPLECTIC, 1), "(q1^2 + p1^2)/2", [1.0, 0.0],
                   lambda h: [math.cos(h), -math.sin(h)]),
}


@pytest.mark.parametrize("case", sorted(_EXACT_FLOWS))
def test_each_generated_step_has_its_local_order(case):
    """One step's error shrinks as h^(p+1) as h halves: 2^5 for RK4, 2^6 for
    the RKF45 fifth-order state, and 2^5 for its error estimate, the
    fourth-order state's difference.  Measured over h = 0.2, 0.1, 0.05 on
    both flows: 31.48 to 32.00, 62.62 to 63.99 and 32.00 to 33.16; a
    Fehlberg weight off by 1e-9 takes the fifth-order ratio to 69 and 134."""
    chart, H, x0, exact = _EXACT_FLOWS[case]
    fs = [c.eval for c in make_field(FieldSpec(chart, Family.HAMILTONIAN, None),
                                     chart.parse(H)).components]
    rk4, rkf45 = codegen.rk4_stepper(chart.dim), codegen.rkf45_stepper(chart.dim)

    def errors(h: float) -> list[float]:
        """RK4's error, the fifth-order state's error, and the estimate's size."""
        x5, estimate = rkf45(fs, x0, h)
        return [max(abs(a - b) for a, b in zip(x, exact(h))) for x in (rk4(fs, x0, h), x5)] + [
            max(map(abs, estimate))]

    for h in (0.2, 0.1, 0.05):
        rk4_ratio, fifth_ratio, estimate_ratio = (
            a / b for a, b in zip(errors(h), errors(h / 2)))
        assert 31.0 <= rk4_ratio <= 33.0
        assert 62.0 <= fifth_ratio <= 66.0
        assert 31.5 <= estimate_ratio <= 34.0


def test_contact_linear_decay_pinned():
    # H = z: qdot = 0, pdot = -p, zdot = -z
    chart, spec = _spec(ChartKind.CONTACT)
    H = chart.parse("z")
    traj = integrate(Dynamics(spec, H), [0.0, 1.0, 1.0], 1.0, IntegratorConfig(step=1e-3))
    expected = math.exp(-1.0)
    assert abs(traj.states[-1][1] - expected) < 1e-6
    assert abs(traj.states[-1][2] - expected) < 1e-6
    assert abs(traj.states[-1][0]) == 0.0


def test_gauge_one_time_channel_is_affine():
    chart, spec = _spec(ChartKind.COSYMPLECTIC, gauge=Gauge.ONE)
    H = chart.parse("p1^2/2 + t*q1")
    traj = integrate(Dynamics(spec, H), [0.25, 0.5, -0.3], 1.5, IntegratorConfig(step=1e-3))
    t_slot = chart.t_slot
    drift = np.abs(traj.states[:, t_slot] - (0.25 + traj.times))
    assert np.max(drift) < 1e-10


def test_gauge_zero_freezes_time_channel():
    chart, spec = _spec(ChartKind.COCONTACT, gauge=Gauge.ZERO)
    H = chart.parse("p1^2/2 + t*q1 + z")
    traj = integrate(Dynamics(spec, H), [0.7, 0.2, 0.1, 0.0], 1.0, IntegratorConfig(step=1e-3))
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
            traj = integrate(Dynamics(spec, use_H), x0, 0.2, IntegratorConfig(step=1e-3))
            assert monitored_energy_rate(traj) < 1e-5, spec.row_name


def test_monitor_channels_match_closed_forms():
    chart, spec = _spec(ChartKind.CONTACT)
    H = chart.parse("z")
    traj = integrate(Dynamics(spec, H), [0.0, 1.0, 1.0], 1.0, IntegratorConfig(step=1e-3))
    z = traj.states[:, chart.z_slot]
    assert np.max(np.abs(traj.monitors["hamiltonian"] - z)) < 1e-12
    # X(H) = -H*H_z = -z along the flow
    assert np.max(np.abs(traj.monitors["predicted_dH"] + z)) < 1e-12
    # div = -(n+1) H_z = -2 everywhere
    assert np.max(np.abs(traj.monitors["divergence"] + 2.0)) < 1e-12
    assert np.max(np.abs(log_volume(traj) + 2.0 * traj.times)) < 1e-10


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
    logdet = flow_map_logdet(Dynamics(spec, H), [0.1, 0.4, 0.2], window)
    expected = -2.0 * window
    assert abs(logdet - expected) <= 0.05 * abs(expected)


def test_rk45_adaptive_matches_exact_solution():
    chart, spec = _spec(ChartKind.SYMPLECTIC)
    H = chart.parse("(q1^2 + p1^2)/2")
    cfg = IntegratorConfig(method="rk45", rel_tol=1e-10, abs_tol=1e-12)
    traj = integrate(Dynamics(spec, H), [1.0, 0.0], 2.0 * math.pi, cfg)
    assert np.max(np.abs(traj.states[-1] - np.array([1.0, 0.0]))) < 1e-6
    steps = np.diff(traj.times)
    assert steps.min() > 0
    assert traj.times[-1] == pytest.approx(2.0 * math.pi, abs=1e-12)


def test_blow_up_reports_last_good_state():
    # qdot = q1^3 escapes to infinity in finite time from q0 = 1
    chart, spec = _spec(ChartKind.SYMPLECTIC)
    H = chart.parse("q1^3 * p1")
    with pytest.raises(BlowUpError) as err:
        integrate(Dynamics(spec, H), [1.0, 0.2], 1.0, IntegratorConfig(step=1e-3))
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
            integrate(Dynamics(spec, H), [1.0, 0.0], 1.0,
                      IntegratorConfig(method=method, step=1e-3))
        assert err.value.partial is not None


def test_a_step_count_past_float_range_is_refused():
    chart, spec = _spec(ChartKind.SYMPLECTIC)
    H = chart.parse("(q1^2 + p1^2)/2")
    with pytest.raises(StepBudgetError, match="inf RK4 steps exceed the step budget"):
        integrate(Dynamics(spec, H), [1.0, 0.0], 1e300, IntegratorConfig(step=1e-300))


@pytest.mark.parametrize("kind, hamiltonian, x0, t_final", [
    (ChartKind.CONTACT, "z + p1^2/2", [0.1, 0.5, 1.0], 1e300),
    (ChartKind.SYMPLECTIC, "(q1^2 + p1^2)/2", [0.1, 0.5], 1e12),
])
def test_an_rk45_span_past_the_step_budget_is_refused_before_the_first_step(
        monkeypatch, kind, hamiltonian, x0, t_final):
    def no_step(*args, **kwargs):
        raise AssertionError("a step ran")

    monkeypatch.setattr(flow, "rkf45_stepper", lambda n: no_step)
    chart, spec = _spec(kind)
    fewest = t_final / budgets.MAX_RK45_STEP
    message = f"{fewest:.6g} RKF45 steps of at most {budgets.MAX_RK45_STEP} exceed the step budget"
    with pytest.raises(StepBudgetError, match=re.escape(message)):
        integrate(Dynamics(spec, chart.parse(hamiltonian)), x0, t_final,
                  IntegratorConfig(method="rk45"))


def test_rk45_steps_are_capped_at_the_largest_step(monkeypatch):
    # a linear drift has no error to control: the step grows to the cap and stays
    chart, spec = _spec(ChartKind.SYMPLECTIC)
    monkeypatch.setattr(budgets, "MAX_RK45_STEP", 0.25)
    traj = integrate(Dynamics(spec, chart.parse("p1")), [0.0, 0.0], 3.0,
                     IntegratorConfig(method="rk45", step=0.1))
    steps = np.diff(traj.times)  # 0.1, eleven of 0.25, then the 0.15 left
    assert len(steps) == 13 and np.allclose(steps[1:-1], 0.25)
    assert traj.times[-1] == 3.0


def test_integrate_evaluates_through_poly_eval_alone(monkeypatch):
    """The evaluation budget of `integrate`.  `Poly.eval`: 4*dim calls per
    RK4 step and 6*dim per RKF45 attempt, accepted or rejected, each a
    field component's, and none besides: the monitors H, X(H) and the
    divergence have their coefficients checked before the first step, not
    evaluated.  `Poly.eval_array`: those 3 monitors once per block of
    `flow.BLOCK_ROWS` recorded nodes, after the run.

    The benchmark's `--trace 1` run bounds `poly.eval.calls` below by 4 x
    steps (`perfbench/run.py::coverage_problems`).  The monitors already
    evaluate past `Poly.eval`; a change that evaluates the field past it
    too (ROADMAP item 3's fused step) fails here first.  Item 3's
    benchmark half must move that bench bound to an exact right-hand-side
    count before such a change lands."""
    chart, spec = _spec(ChartKind.COCONTACT)
    dyn = Dynamics(spec, chart.parse("p1^2/2 + q1^2/2 + z/3 + t*q1/5"))
    calls = array_calls = attempts = 0
    poly_eval, poly_eval_array, rkf45_stepper = Poly.eval, Poly.eval_array, flow.rkf45_stepper

    def counted_eval(self, point):
        nonlocal calls
        calls += 1
        return poly_eval(self, point)

    def counted_eval_array(self, columns):
        nonlocal array_calls
        array_calls += 1
        return poly_eval_array(self, columns)

    def counted_stepper(n):
        step = rkf45_stepper(n)

        def counted_step(fs, x, h):
            nonlocal attempts
            attempts += 1
            return step(fs, x, h)
        return counted_step

    monkeypatch.setattr(Poly, "eval", counted_eval)
    monkeypatch.setattr(Poly, "eval_array", counted_eval_array)
    monkeypatch.setattr(flow, "rkf45_stepper", counted_stepper)
    monkeypatch.setattr(flow, "BLOCK_ROWS", 16)
    x0 = [0.0, 0.3, 0.4, 0.1]
    traj = integrate(dyn, x0, 0.25, IntegratorConfig(step=5e-3))
    assert len(traj.times) == 51  # four blocks of 16 nodes, the last one short
    assert calls == 4 * chart.dim * 50
    assert array_calls == 3 * 4
    calls = array_calls = 0
    # a first step far past the tolerance: the controller rejects and shrinks it
    traj = integrate(dyn, x0, 2.0, IntegratorConfig(method="rk45", step=1.0))
    assert attempts > len(traj.times) - 1
    assert calls == 6 * chart.dim * attempts
    assert array_calls == 3 * -(-len(traj.times) // 16)


def test_a_trajectory_holds_about_eight_bytes_per_sample_per_channel():
    # time, four coordinates and three monitors: eight channels of float64.
    # The traced peak is theirs plus the growth slack of the recording
    # arrays and one block's monitor temporaries: 85 B a sample measured.
    chart, spec = _spec(ChartKind.COCONTACT)
    dyn = Dynamics(spec, chart.parse("p1^2/2 + z/3 + t/5"))
    x0, config = [0.0, 0.3, 0.4, 0.1], IntegratorConfig(step=1e-4)
    integrate(dyn, x0, 1e-3, config)  # compile the kernels outside the trace
    traj, peak = traced_peak(lambda: integrate(dyn, x0, 1.0, config))
    samples = len(traj.times)
    assert samples == 10_001
    assert sum(a.nbytes for a in [traj.times, traj.states, *traj.monitors.values()]) \
        == 8 * 8 * samples
    assert peak < 100 * samples


def test_csv_export_is_written_one_block_of_rows_at_a_time(tmp_path, monkeypatch):
    chart, spec = _spec(ChartKind.COCONTACT)
    dyn = Dynamics(spec, chart.parse("p1^2/2 + z/3 + t/5"))
    traj = integrate(dyn, [0.0, 0.3, 0.4, 0.1], 1.0, IntegratorConfig(step=1e-4))
    monkeypatch.setattr(flow, "BLOCK_ROWS", 100)
    path = tmp_path / "traj.csv"
    _, peak = traced_peak(lambda: write_trajectory_csv(traj, path))
    oracle_write_trajectory_csv(traj, tmp_path / "oracle.csv")
    text = path.read_text(encoding="utf-8")
    assert text == (tmp_path / "oracle.csv").read_text(encoding="utf-8")
    assert peak < len(text) / 10  # 101 blocks, one of them held at a time


def test_backward_time_is_rejected():
    # a run goes from s = 0 to t_final; a negative or NaN t_final is refused, -0.0 is no step
    chart, spec = _spec(ChartKind.SYMPLECTIC)
    dyn = Dynamics(spec, chart.parse("(q1^2 + p1^2)/2"))
    for method in flow.METHODS:
        for bad in (-0.5, math.nan):
            with pytest.raises(ValueError, match=f"^need t_final >= 0, not {re.escape(repr(bad))}$"):
                integrate(dyn, [1.0, 0.0], bad, IntegratorConfig(method=method))
        traj = integrate(dyn, [1.0, 0.0], -0.0, IntegratorConfig(method=method))
        assert traj.times.tolist() == [0.0] and traj.states.tolist() == [[1.0, 0.0]]


def test_csv_export_layout_and_determinism(tmp_path):
    chart, spec = _spec(ChartKind.COCONTACT)
    H = chart.parse("p1^2/2 + z/3 + t/5")
    traj = integrate(Dynamics(spec, H), [0.0, 0.3, 0.4, 0.1], 0.25, IntegratorConfig(step=5e-3))
    p1 = tmp_path / "a.csv"
    p2 = tmp_path / "b.csv"
    write_trajectory_csv(traj, p1)
    lines = p1.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "s,t,q1,p1,z,H,pred_dHds,div"
    assert len(lines) == 1 + len(traj.times)
    first = lines[1].split(",")
    assert float(first[0]) == 0.0
    assert float(first[1]) == 0.0 and float(first[4]) == 0.1
    traj2 = integrate(Dynamics(spec, H), [0.0, 0.3, 0.4, 0.1], 0.25, IntegratorConfig(step=5e-3))
    write_trajectory_csv(traj2, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_strictness_violation_surfaces_before_integration():
    chart = Chart(ChartKind.CONTACT, 1)
    spec = FieldSpec(chart, Family.STRICT)
    H = chart.parse("z")
    from geokin.fields import StrictnessError

    with pytest.raises(StrictnessError):
        integrate(Dynamics(spec, H), [0.0, 1.0, 1.0], 0.1, IntegratorConfig())


def test_integrator_config_refuses_a_tolerance_the_error_scale_cannot_divide_by():
    for bad in ({"abs_tol": 0.0}, {"abs_tol": -1e-10}, {"rel_tol": -1e-8}):
        with pytest.raises(ValueError, match="abs_tol"):
            IntegratorConfig(method="rk45", **bad)
    IntegratorConfig(method="rk45", rel_tol=0.0)  # absolute control alone is fine


@pytest.mark.parametrize("method", flow.METHODS)
@pytest.mark.parametrize("step", [0.0, -1e-3, math.nan])
def test_integrator_config_refuses_a_step_that_is_not_positive(method, step):
    with pytest.raises(ValueError, match="step must be positive"):
        IntegratorConfig(method=method, step=step)


# -- bit-identity oracle: the array loop the coordinate-list steps replaced --


def reference_rk4_step(rhs, x, h):
    k1 = rhs(x)
    k2 = rhs(x + 0.5 * h * k1)
    k3 = rhs(x + 0.5 * h * k2)
    k4 = rhs(x + h * k3)
    return x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def reference_rkf45_step(rhs, x, h):
    ks = []
    for row in codegen._RKF_A:
        xi = x.copy()
        for a, k in zip(row, ks):
            if a:
                xi = xi + (h * a) * k
        ks.append(rhs(xi))
    x5 = x.copy()
    x4 = x.copy()
    for b5, b4, k in zip(codegen._RKF_B5, codegen._RKF_B4, ks):
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

    calls, ref_stages = [], []

    def ref_rhs(y):
        ref_stages.append(pack(y))
        return np.array(field(y))

    with np.errstate(all="ignore"):
        want = reference_rkf45_step(ref_rhs, np.array(x), h)
    got = codegen.rkf45_stepper(dim)(recorded_evaluators(per_coordinate(field, dim), calls), x, h)
    assert [pack(y) for y in stage_states(calls, dim)] == ref_stages  # every stage, in order
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
    traj = Trajectory(spec, np.array(times), np.array(states), {
        name: np.array([evaluate(y) for y in states], dtype=float)
        for name, evaluate in [("hamiltonian", h_eval), ("predicted_dH", rate_eval),
                           ("divergence", div_eval)]})
    lines = [",".join(["s", *spec.chart.coord_names, "H", "pred_dHds", "div"])]
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
    got = codegen.error_norm(dim)(err, x, x_new, abs_tol, rel_tol)
    assert struct.pack("<d", got) == struct.pack("<d", want)


# -0.0 and exact zeros as well as generic values
COORDINATE = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -0.5]), st.floats(-1.0, 1.0))


@settings(max_examples=120, deadline=None, derandomize=True)
@given(kind=st.sampled_from(list(ChartKind)), method=st.sampled_from(flow.METHODS),
       data=st.data())
def test_integrate_is_bit_identical_to_the_array_loop(tmp_path_factory, kind, method, data):
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
            integrate(Dynamics(spec, H), x0, s1, config)
        reject()
    ref, ref_lines = want
    traj = integrate(Dynamics(spec, H), x0, s1, config)
    assert traj.times.dtype == traj.states.dtype == np.float64
    assert traj.times.tobytes() == ref.times.tobytes()
    assert traj.states.shape == ref.states.shape
    assert traj.states.tobytes() == ref.states.tobytes()
    assert traj.monitors.keys() == ref.monitors.keys()
    for name, channel in ref.monitors.items():
        assert traj.monitors[name].tobytes() == channel.tobytes(), name
    path = tmp_path_factory.mktemp("csv") / "traj.csv"
    write_trajectory_csv(traj, path)
    assert path.read_text(encoding="utf-8") == "\n".join(ref_lines) + "\n"


# -- the generated steppers and norm against the oracles they replaced -----


# ±0.0, subnormals, ±inf, NaN and values whose products leave float range,
# besides any float
ANY_FLOAT = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-310, math.inf, -math.inf, math.nan,
                     1e300, -1e300, 1.0, -0.5]),
    st.floats(),
)
STEPPERS = [(codegen.rk4_stepper, comprehension_rk4_step),
            (codegen.rkf45_stepper, comprehension_rkf45_step)]


def as_bytes(result) -> list[bytes]:
    """A state, or an RKF45 step's (state, error) pair, one coordinate at a
    time as bytes, so that -0.0 and NaN count.  Every NaN is written as the
    one quiet NaN: when both operands of a float add or multiply are NaN,
    CPython 3.11 returns one or the other depending on whether the
    interpreter has specialised the instruction yet, so a NaN's sign is not
    fixed by the float operations alone."""
    values = [*result[0], *result[1]] if isinstance(result, tuple) else result
    return [np.where(np.isnan(v), math.nan, v).astype(float).tobytes() for v in values]


def mixing_field(weights, shifts, zero=frozenset()):
    """A linear field that mixes neighbouring coordinates, with the scalar
    0.0 for each component in `zero`, as the particle push passes it."""
    n = len(weights)

    def field(y):
        return [0.0 if j in zero else w * y[(j + 1) % n] + v
                for j, (w, v) in enumerate(zip(weights, shifts))]
    return field


def per_coordinate(field, n: int) -> tuple:
    """`field`, one function of a state that returns every rate, as one
    evaluator per coordinate: the form the generated steps take."""
    return tuple((lambda y, j=j: field(y)[j]) for j in range(n))


def recorded_evaluators(evaluators, calls: list) -> tuple:
    """Each evaluator, appending (its coordinate, the state it was handed)
    to `calls` before it runs."""
    def record(j, evaluate):
        def recording(y):
            calls.append((j, y))
            return evaluate(y)
        return recording
    return tuple(record(j, evaluate) for j, evaluate in enumerate(evaluators))


def stage_states(calls: list, n: int) -> list:
    """The stage states of one generated step's recorded `calls`, in order,
    after checking that each was one list, handed to the evaluators in
    coordinate order: to all `n` of them, or, in a stage that raised, to
    those before and at the one that raised."""
    states = []
    for lo in range(0, len(calls), n):
        stage = calls[lo:lo + n]
        assert [j for j, _ in stage] == list(range(len(stage)))
        assert isinstance(stage[0][1], list) and all(y is stage[0][1] for _, y in stage)
        states.append(stage[0][1])
    return states


def recorded(field, stages: list):
    def rhs(y):
        stages.append(as_bytes(y))
        return field(y)
    return rhs


def step_outcome(step):
    """`step()` as bytes, or the type and message of the error it raised."""
    try:
        return as_bytes(step())
    except ValueError as exc:
        return type(exc), str(exc)


def assert_steps_match(n, evaluators, field, x, h):
    """Each generated step on `evaluators` against its comprehension step
    on `field`, the same rates as one function: every stage state, in
    order, and the result or the error, byte for byte.  Returns the
    outcomes."""
    outcomes = []
    for stepper, oracle in STEPPERS:
        calls, want_stages = [], []
        got = step_outcome(lambda: stepper(n)(recorded_evaluators(evaluators, calls), x, h))
        want = step_outcome(lambda: oracle(recorded(field, want_stages), x, h))
        assert [as_bytes(y) for y in stage_states(calls, n)] == want_stages, oracle.__name__
        assert got == want, oracle.__name__
        outcomes.append(got)
    return outcomes



@settings(max_examples=300, deadline=None, derandomize=True)
@given(data=st.data())
def test_generated_steppers_are_bit_identical_to_the_comprehension_steps(data):
    n = data.draw(st.integers(1, 35))  # cocontact n=16 has 34 coordinates, its push 35
    vector = st.lists(ANY_FLOAT, min_size=n, max_size=n)
    field = mixing_field(data.draw(vector), data.draw(vector))
    assert_steps_match(n, per_coordinate(field, n), field, data.draw(vector), data.draw(ANY_FLOAT))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(data=st.data())
def test_generated_steppers_are_bit_identical_on_numpy_columns(data):
    n, rows = data.draw(st.integers(1, 35)), data.draw(st.integers(0, 4))
    column = st.lists(ANY_FLOAT, min_size=rows, max_size=rows).map(np.array)
    vector = st.lists(ANY_FLOAT, min_size=n, max_size=n)
    zero = frozenset(data.draw(st.lists(st.integers(0, n - 1), max_size=n)))
    field = mixing_field(data.draw(vector), data.draw(vector), zero)
    x = [data.draw(column) for _ in range(n)]
    with np.errstate(all="ignore"):
        assert_steps_match(n, per_coordinate(field, n), field, x, data.draw(ANY_FLOAT))


def test_threads_racing_on_a_cold_cache_step_alike():
    n, h = 9, 0.1
    x = [0.1 * (i - 4) for i in range(n)]
    field = mixing_field([1.5 - 0.25 * i for i in range(n)], [0.01 * i for i in range(n)])
    for stepper, oracle in STEPPERS:
        stepper.cache_clear()
        barrier, results = threading.Barrier(2), [None, None]

        def run(slot):
            barrier.wait()
            results[slot] = as_bytes(stepper(n)(per_coordinate(field, n), x, h))

        threads = [threading.Thread(target=run, args=(slot,)) for slot in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert results[0] == results[1] == as_bytes(oracle(field, x, h)), oracle.__name__


def catalog_steps_match(kind, n, spec_index, seed, x, h):
    """The steps `integrate` takes on a random catalog field: each
    component's `Poly.eval`, zero components included, against the
    comprehension steps on the list of them.  Returns the outcomes."""
    chart = Chart(kind, n)
    specs = catalog(chart)
    spec = specs[spec_index % len(specs)]
    H = random_hamiltonian(random.Random(seed), chart, degree=4, terms=4,
                           z_free=spec.family is Family.STRICT)
    comps = make_field(spec, H).components
    return assert_steps_match(chart.dim, [c.eval for c in comps],
                              lambda y: [c.eval(y) for c in comps], x, h)


@settings(max_examples=120, deadline=None, derandomize=True)
@given(kind=st.sampled_from(list(ChartKind)), data=st.data())
def test_generated_steppers_match_the_comprehension_steps_on_catalog_fields(kind, data):
    n = data.draw(st.integers(1, 2))
    dim = Chart(kind, n).dim
    x = data.draw(st.lists(st.one_of(st.sampled_from([0.0, -0.0, 1e100, -1e100]),
                                     st.floats(-2.0, 2.0)), min_size=dim, max_size=dim))
    # the large steps take a stage state past float range, where the
    # entry of the first component refuses it
    h = data.draw(st.sampled_from([1e-3, 0.1, 1e100, 1e300]))
    catalog_steps_match(kind, n, data.draw(st.integers(0, 99)), data.draw(st.integers(0, 2 ** 32)),
                        x, h)


@pytest.mark.parametrize("kind", list(ChartKind))
def test_a_stage_past_float_range_is_refused_as_the_comprehension_step_refuses_it(kind):
    dim = Chart(kind, 1).dim
    for outcome in catalog_steps_match(kind, 1, 0, 7, [1e200] * dim, 1e200):
        assert outcome == (ValueError, "non-finite coordinate in evaluation point")


# ±0.0, subnormals, ±inf, NaN, and values whose squares or ratios leave float
# range, besides any float
NORM_VALUE = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-310, math.inf, -math.inf, math.nan,
                     1e200, -1e200, 1e300, 1.0, -0.5]),
    st.floats(),
)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(data=st.data())
def test_generated_error_norm_is_bit_identical_to_the_array_norm(data):
    n = data.draw(st.integers(1, 40))
    vector = st.lists(NORM_VALUE, min_size=n, max_size=n)
    err, x, x_new = data.draw(vector), data.draw(vector), data.draw(vector)
    abs_tol = data.draw(st.sampled_from([5e-324, 1e-300, 1e-10, 1.0]))
    rel_tol = data.draw(st.sampled_from([0.0, 1e-8, 0.5, 1e300]))
    with np.errstate(all="ignore"):
        want = array_error_norm(err, x, x_new, abs_tol, rel_tol)
    assert as_bytes([codegen.error_norm(n)(err, x, x_new, abs_tol, rel_tol)]) == as_bytes([want])


def test_generated_error_norm_adds_in_numpy_order_at_every_length():
    # past 128 terms numpy splits the sum in two halves at a multiple of 8
    rng = random.Random(3)
    for n in range(1, 300):
        err = [rng.choice([1e16, 1.0, rng.random(), 3e-9]) * rng.choice([1, -1]) for _ in range(n)]
        zeros = [0.0] * n
        want = array_error_norm(err, zeros, zeros, 1.0, 0.0)
        assert codegen.error_norm(n)(err, zeros, zeros, 1.0, 0.0) == want, n


# -- the monitors, evaluated per block after the run, and the CSV writer ------


def assert_written_as_before(traj, directory):
    """`write_trajectory_csv` writes the bytes of the writer it replaced."""
    write_trajectory_csv(traj, directory / "new.csv")
    oracle_write_trajectory_csv(traj, directory / "old.csv")
    assert (directory / "new.csv").read_bytes() == (directory / "old.csv").read_bytes()


def assert_monitors_are_per_sample_evals(dyn, traj):
    """H, X(H) and div equal `Poly.eval` sample by sample, byte for byte."""
    diag = dyn.diagnostics
    for name, poly in [("hamiltonian", dyn.H), ("predicted_dH", diag.dH_along_flow),
                       ("divergence", diag.divergence)]:
        want = np.array([poly.eval(row) for row in traj.states.tolist()], dtype=float)
        assert traj.monitors[name].tobytes() == want.tobytes(), name


@pytest.mark.parametrize("method", flow.METHODS)
@pytest.mark.parametrize("kind", list(ChartKind))
def test_monitors_are_per_sample_evaluations_on_every_row(tmp_path, kind, method):
    chart = Chart(kind, 2)
    rng = random.Random(5)
    for spec in catalog(chart):
        dyn = Dynamics(spec, random_hamiltonian(rng, chart, z_free=spec.family is Family.STRICT))
        try:
            traj = integrate(dyn, [0.1] * chart.dim, 0.2,
                             IntegratorConfig(method=method, step=1e-2))
        except BlowUpError as err:
            traj = err.partial
        assert len(traj.times) > 1, spec.row_name
        assert_monitors_are_per_sample_evals(dyn, traj)
        assert_written_as_before(traj, tmp_path)


def test_monitors_of_a_run_longer_than_a_block_are_per_sample_evaluations(monkeypatch):
    chart, spec = _spec(ChartKind.COCONTACT)
    dyn = Dynamics(spec, chart.parse("p1^2/2 + q1^2/2 + z/3 + t*q1/5"))
    monkeypatch.setattr(flow, "BLOCK_ROWS", 4_096)
    traj = integrate(dyn, [0.0, 0.3, 0.4, 0.1], 1.0, IntegratorConfig(step=1e-4))
    assert len(traj.times) > 2 * flow.BLOCK_ROWS  # two whole blocks and a short one
    assert_monitors_are_per_sample_evals(dyn, traj)


@pytest.mark.parametrize("method", flow.METHODS)
def test_a_run_of_several_blocks_is_written_as_before(monkeypatch, tmp_path, method):
    chart, spec = _spec(ChartKind.COCONTACT, n=2)
    dyn = Dynamics(spec, chart.parse("p1^2/2 + q2^2/2 + z/3 + t*q1/5"))
    monkeypatch.setattr(flow, "BLOCK_ROWS", 16)
    traj = integrate(dyn, [0.0, 0.3, -0.2, 0.4, -0.0, 0.1], 2.0,
                     IntegratorConfig(method=method, step=2e-2, rel_tol=1e-12, abs_tol=1e-14))
    assert len(traj.times) > 4 * flow.BLOCK_ROWS  # whole blocks and a short one
    assert_written_as_before(traj, tmp_path)


@pytest.mark.parametrize("method", flow.METHODS)
def test_monitors_of_a_blown_up_run_are_per_sample_evaluations(tmp_path, method):
    chart, spec = _spec(ChartKind.SYMPLECTIC)
    dyn = Dynamics(spec, chart.parse("q1^3 * p1"))
    with pytest.raises(BlowUpError) as err:
        integrate(dyn, [1.0, 0.2], 1.0, IntegratorConfig(method=method, step=1e-3))
    assert len(err.value.partial.times) > 1
    assert_monitors_are_per_sample_evals(dyn, err.value.partial)
    assert_written_as_before(err.value.partial, tmp_path)


@pytest.mark.parametrize("method", flow.METHODS)
def test_monitors_of_a_run_past_the_step_budget_are_per_sample_evaluations(monkeypatch, tmp_path,
                                                                            method):
    # rk4 is refused before its first step; rk45 runs out after ten attempts
    chart, spec = _spec(ChartKind.COCONTACT)
    dyn = Dynamics(spec, chart.parse("p1^2/2 + q1^2/2 + z/3 + t*q1/5"))
    monkeypatch.setattr(budgets, "MAX_STEPS", 10)
    with pytest.raises(StepBudgetError) as err:
        integrate(dyn, [0.0, 0.3, 0.4, 0.1], 1.0,
                  IntegratorConfig(method=method, step=1e-3, rel_tol=1e-12, abs_tol=1e-14))
    samples = len(err.value.partial.times)
    assert samples == 1 if method == "rk4" else 1 < samples <= 11
    assert_monitors_are_per_sample_evals(dyn, err.value.partial)
    assert_written_as_before(err.value.partial, tmp_path)


@pytest.mark.parametrize("method", flow.METHODS)
def test_an_out_of_range_monitor_coefficient_raises_before_the_first_step(monkeypatch, method):
    # the field of H = 2^600 z has coefficients in float range; X(H) = -2^1200 z has not
    def no_step(*args, **kwargs):
        raise AssertionError("a step ran")

    monkeypatch.setattr(flow, "rk4_stepper", lambda n: no_step)
    monkeypatch.setattr(flow, "rkf45_stepper", lambda n: no_step)
    chart, spec = _spec(ChartKind.CONTACT)
    dyn = Dynamics(spec, chart.parse("2^600*z"))
    assert all(c.eval([0.0, 0.1, 0.1]) for c in dyn.field.components[1:])
    with pytest.raises(OverflowError):
        integrate(dyn, [0.0, 0.1, 0.1], 1.0, IntegratorConfig(method=method))


def test_a_monitor_past_float_range_is_inf_and_prints_nothing(capfd):
    # H = q1^2/10^10 is 1e390 at q1 = 1e200, while the flow (p1 falls at 2e190) stays finite
    chart, spec = _spec(ChartKind.SYMPLECTIC)
    dyn = Dynamics(spec, chart.parse("q1^2/10^10"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        traj = integrate(dyn, [1e200, 0.0], 0.01, IntegratorConfig(step=1e-3))
        rate = monitored_energy_rate(traj)  # central differences of inf are NaN
    assert np.all(traj.monitors["hamiltonian"] == math.inf)
    assert math.isnan(rate)
    assert_monitors_are_per_sample_evals(dyn, traj)
    assert capfd.readouterr() == ("", "")
