"""Release gate: one test per acceptance criterion.

Each test prints a single "[criterion N] name: PASS/FAIL" line and
pins its tolerance inline.  Symbolic checks use tolerance 0 (exact
rational equality); numeric checks carry the measured headroom of the
solvers they exercise.
"""

import math
import random
import time
from fractions import Fraction

import numpy as np

from geokin.brackets import (
    BracketKind,
    bracket,
    jacobiator,
    jacobiator_witness,
    leibniz_defect,
)
from geokin.chart import (
    Chart,
    ChartKind,
    canonical_eta,
    canonical_tau,
    contract_twoform,
    differential,
    pairing,
    reeb_eta,
    reeb_tau,
    two_form_omega,
)
from geokin.corpus import random_hamiltonian, random_one_form, random_poly
from geokin.fields import (
    Dynamics,
    Family,
    FieldSpec,
    Gauge,
    catalog,
    diagnostics,
    divergence,
    exterior_derivative_oneform,
    jacobi_lie_bracket,
    lie_derivative_oneform,
    lie_derivative_twoform,
    make_field,
    wedge,
)
from geokin.flow import IntegratorConfig, integrate, monitored_energy_rate
from geokin.density import (
    adjudicate_density_coefficients,
    density_coefficients,
    intertwine_residual,
)
from geokin.kinetics import (
    GridAxis,
    GridDensity,
    solve_density_grid,
    solve_density_particle,
)
from geokin.musical import SharpVariant, flat_sharp_residual, sharp, sharp_flat_residual

from helpers import l1_distance, l1_norm, numeric_divergence


def _report(number: int, name: str, failures: list) -> None:
    status = "PASS" if not failures else "FAIL"
    print(f"[criterion {number}] {name}: {status}")
    assert not failures, "\n".join(str(f) for f in failures)


def _gauss(center, width):
    def f(pts):
        out = np.ones(pts.shape[0])
        for k, (c, w) in enumerate(zip(center, width)):
            if w is None:
                continue
            out *= np.exp(-0.5 * ((pts[:, k] - c) / w) ** 2)
        return out

    return f


def _hamiltonian_row(chart: Chart) -> FieldSpec:
    return FieldSpec(chart, Family.HAMILTONIAN, Gauge.ZERO if chart.has_time else None)


def _dyn(chart: Chart, H) -> Dynamics:
    return Dynamics(_hamiltonian_row(chart), H)


JACOBI_KINDS = (
    BracketKind.POISSON_SYMPLECTIC,
    BracketKind.POISSON_COSYMPLECTIC,
    BracketKind.JACOBI_CONTACT,
    BracketKind.JACOBI_COCONTACT,
)
LEIBNIZ_KINDS = (
    BracketKind.POISSON_SYMPLECTIC,
    BracketKind.POISSON_COSYMPLECTIC,
    BracketKind.ALMOST_POISSON_CONTACT,
    BracketKind.ALMOST_POISSON_COCONTACT,
)
WEAK_KINDS = (BracketKind.JACOBI_CONTACT, BracketKind.JACOBI_COCONTACT)


def test_criterion_1_exact_bracket_laws():
    # >= 100 random inputs per law, degree <= 3, n in {1, 2}; tolerance 0
    started = time.monotonic()
    rng = random.Random(101)
    failures = []

    def draws(kind):
        for n in (1, 2):
            chart = Chart(kind.chart_kind, n)
            for _ in range(50):
                yield chart

    for kind in BracketKind:
        for chart in draws(kind):
            F = random_poly(rng, chart.dim, degree=3, terms=3)
            H = random_poly(rng, chart.dim, degree=3, terms=3)
            if not (bracket(chart, kind, F, H) + bracket(chart, kind, H, F)).is_zero():
                failures.append(f"antisymmetry: {kind.value} n={chart.n}")

    for kind in JACOBI_KINDS:
        for chart in draws(kind):
            F, G, H = (random_poly(rng, chart.dim, degree=3, terms=3) for _ in range(3))
            if not jacobiator(chart, kind, F, G, H).is_zero():
                failures.append(f"jacobi: {kind.value} n={chart.n}")

    for kind in LEIBNIZ_KINDS:
        for chart in draws(kind):
            F, K, H = (random_poly(rng, chart.dim, degree=3, terms=3) for _ in range(3))
            if not leibniz_defect(chart, kind, F, K, H).is_zero():
                failures.append(f"leibniz: {kind.value} n={chart.n}")

    for kind in WEAK_KINDS:
        for chart in draws(kind):
            F, K, H = (random_poly(rng, chart.dim, degree=3, terms=3) for _ in range(3))
            expected = K * H * F.partial(chart.z_slot)
            if leibniz_defect(chart, kind, F, K, H) != expected:
                failures.append(f"weak-leibniz defect: {kind.value} n={chart.n}")

    for chart in draws(BracketKind.POISSON_COSYMPLECTIC):
        frozen = tuple(i for i in range(chart.dim) if i != chart.t_slot)
        c = random_poly(rng, chart.dim, degree=3, terms=3, frozen_slots=frozen)
        H = random_poly(rng, chart.dim, degree=3, terms=3)
        if not bracket(chart, BracketKind.POISSON_COSYMPLECTIC, c, H).is_zero():
            failures.append(f"time casimir: n={chart.n}")

    elapsed = time.monotonic() - started
    if elapsed > 30.0:
        failures.append(f"runtime budget: {elapsed:.1f}s > 30s")
    _report(1, "exact bracket laws", failures)


def test_criterion_2_jacobi_failure_witness():
    # pinned witness triple with jacobiator exactly -1; tolerance 0
    failures = []
    for kind in (BracketKind.ALMOST_POISSON_CONTACT, BracketKind.ALMOST_POISSON_COCONTACT):
        for n in (1, 2):
            chart = Chart(kind.chart_kind, n)
            F, G, H = jacobiator_witness(chart, kind)
            value = jacobiator(chart, kind, F, G, H)
            if value != chart.const(-1):
                failures.append(
                    f"{kind.value} n={n}: jacobiator(witness) = "
                    f"{value.to_text(chart.coord_names)}, pinned -1"
                )
    _report(2, "almost-Poisson Jacobi failure", failures)


def test_criterion_3_field_catalog():
    # all 16 rows: contractions, divergence, <dH, X> exact on >= 50 H;
    # finite-difference divergence within 1e-5 at 20 points, h = 1e-4
    rng = random.Random(103)
    failures = []
    rows = 0
    for kind in ChartKind:
        chart = Chart(kind, 1)
        omega = two_form_omega(chart)
        eta = canonical_eta(chart) if chart.has_z else None
        tau = canonical_tau(chart) if chart.has_time else None
        for spec in catalog(chart):
            rows += 1
            z_free = spec.family is Family.STRICT
            for _ in range(50):
                H = random_hamiltonian(rng, chart, z_free=z_free)
                X = make_field(spec, H)
                dH = differential(H, chart)
                expected = dH
                if chart.has_z:
                    expected = expected - eta.scaled(pairing(dH, reeb_eta(chart)))
                if chart.has_time:
                    expected = expected - tau.scaled(pairing(dH, reeb_tau(chart)))
                if contract_twoform(X, omega) != expected:
                    failures.append(f"{kind.value} {spec.row_name}: i_X omega")
                    break
                if chart.has_z:
                    want = chart.zero() if spec.family is Family.ENERGY else -H
                    if pairing(eta, X) != want:
                        failures.append(f"{kind.value} {spec.row_name}: i_X eta")
                        break
                if chart.has_time:
                    gauge_value = {
                        Gauge.ZERO: chart.zero(),
                        Gauge.ONE: chart.const(1),
                        Gauge.GRAD_H: H.partial(chart.t_slot),
                    }[spec.gauge]
                    if pairing(tau, X) != gauge_value:
                        failures.append(f"{kind.value} {spec.row_name}: i_X tau")
                        break
                d = diagnostics(spec, H)
                if divergence(X) != d.divergence:
                    failures.append(f"{kind.value} {spec.row_name}: divergence")
                    break
                if X.apply_to(H) != d.dH_along_flow:
                    failures.append(f"{kind.value} {spec.row_name}: <dH, X>")
                    break
            H = random_hamiltonian(rng, chart, z_free=z_free)
            sym = diagnostics(spec, H).divergence
            for _ in range(20):
                x = [rng.uniform(-1.5, 1.5) for _ in range(chart.dim)]
                err = abs(numeric_divergence(Dynamics(spec, H), x, h=1e-4) - sym.eval(x))
                if err > 1e-5:
                    failures.append(f"{kind.value} {spec.row_name}: FD divergence err {err:.2e}")
                    break
    if rows != 16:
        failures.append(f"catalog spans {rows} rows, expected 16")
    _report(3, "field catalog", failures)


def test_criterion_4_bracket_homomorphisms():
    # [X_F, X_H] = -X_{F,H} on each chart kind; >= 50 pairs, tolerance 0
    canonical = {
        ChartKind.SYMPLECTIC: BracketKind.POISSON_SYMPLECTIC,
        ChartKind.COSYMPLECTIC: BracketKind.POISSON_COSYMPLECTIC,
        ChartKind.CONTACT: BracketKind.JACOBI_CONTACT,
        ChartKind.COCONTACT: BracketKind.JACOBI_COCONTACT,
    }
    rng = random.Random(104)
    failures = []
    for kind, bkind in canonical.items():
        chart = Chart(kind, 1)
        spec = _hamiltonian_row(chart)
        for _ in range(50):
            F = random_hamiltonian(rng, chart)
            H = random_hamiltonian(rng, chart)
            lhs = jacobi_lie_bracket(make_field(spec, F), make_field(spec, H))
            rhs = -make_field(spec, bracket(chart, bkind, F, H))
            if lhs != rhs:
                failures.append(f"{kind.value}: [X_F, X_H] != -X_{{F,H}}")
                break
    _report(4, "bracket homomorphisms", failures)


def test_criterion_5_lie_derivative_laws():
    # L_X tau, L_X eta, L_X d(eta) (and the omega analogs) against the
    # displayed right-hand sides; >= 20 random H per law, tolerance 0
    rng = random.Random(105)
    failures = []
    for kind in ChartKind:
        chart = Chart(kind, 1)
        omega = two_form_omega(chart)
        eta = canonical_eta(chart) if chart.has_z else None
        tau = canonical_tau(chart) if chart.has_time else None
        d_eta = exterior_derivative_oneform(eta) if chart.has_z else None
        for spec in catalog(chart):
            z_free = spec.family is Family.STRICT
            for _ in range(20):
                H = random_hamiltonian(rng, chart, z_free=z_free)
                X = make_field(spec, H)
                if chart.has_z:
                    expected = eta.scaled(-H.partial(chart.z_slot))
                    if chart.has_time:
                        expected = expected + tau.scaled(-H.partial(chart.t_slot))
                    if spec.family is Family.ENERGY:
                        expected = expected + differential(H, chart)
                    if lie_derivative_oneform(X, eta) != expected:
                        failures.append(f"{kind.value} {spec.row_name}: L_X eta")
                        break
                    h_z = H.partial(chart.z_slot)
                    exp2 = wedge(differential(-h_z, chart), eta) + d_eta.scaled(-h_z)
                    if chart.has_time:
                        exp2 = exp2 + wedge(differential(-H.partial(chart.t_slot), chart), tau)
                    if lie_derivative_twoform(X, d_eta) != exp2:
                        failures.append(f"{kind.value} {spec.row_name}: L_X d(eta)")
                        break
                if chart.has_time:
                    got_tau = lie_derivative_oneform(X, tau)
                    if spec.gauge is Gauge.GRAD_H:
                        expected_tau = differential(H.partial(chart.t_slot), chart)
                        if got_tau != expected_tau:
                            failures.append(f"{kind.value} {spec.row_name}: L_X tau")
                            break
                    elif not got_tau.is_zero():
                        failures.append(f"{kind.value} {spec.row_name}: L_X tau != 0")
                        break
                if not chart.has_z:
                    got_omega = lie_derivative_twoform(X, omega)
                    if chart.has_time:
                        expected_omega = wedge(
                            differential(-H.partial(chart.t_slot), chart), tau
                        )
                        if got_omega != expected_omega:
                            failures.append(f"{kind.value} {spec.row_name}: L_X omega")
                            break
                    elif not got_omega.is_zero():
                        failures.append(f"{kind.value} {spec.row_name}: omega drift")
                        break
    _report(5, "Lie derivative laws", failures)


def test_criterion_6_flow_physics():
    failures = []
    sym = Chart(ChartKind.SYMPLECTIC, 1)
    spec = _hamiltonian_row(sym)
    oscillator = sym.parse("(q1^2 + p1^2)/2")
    x0 = [1.0, 0.0]
    span = 2.0 * math.pi

    # period return within 1e-8 at step 1e-3
    traj = integrate(Dynamics(spec, oscillator), x0, span, IntegratorConfig(step=1e-3))
    err = float(np.max(np.abs(traj.states[-1] - np.array(x0))))
    if err >= 1e-8:
        failures.append(f"oscillator return error {err:.2e} >= 1e-8")

    # RK4 order factor within [8, 32] when halving the step
    errs = [
        float(np.max(np.abs(
            integrate(Dynamics(spec, oscillator), x0, span, IntegratorConfig(step=h)).states[-1]
            - np.array(x0)
        )))
        for h in (0.02, 0.01)
    ]
    ratio = errs[0] / errs[1]
    if not 8.0 <= ratio <= 32.0:
        failures.append(f"order factor {ratio:.2f} outside [8, 32]")

    # contact H = z: p and z decay like e^{-s}; within 1e-6 at s = 1
    contact = Chart(ChartKind.CONTACT, 1)
    traj = integrate(
        _dyn(contact, contact.parse("z")), [0.0, 1.0, 1.0],
        1.0, IntegratorConfig(step=1e-3),
    )
    for slot in (1, 2):
        err = abs(traj.states[-1][slot] - math.exp(-1.0))
        if err >= 1e-6:
            failures.append(f"contact decay slot {slot} error {err:.2e} >= 1e-6")

    # gauge One advances t affinely within 1e-10
    cosym = Chart(ChartKind.COSYMPLECTIC, 1)
    traj = integrate(
        Dynamics(FieldSpec(cosym, Family.HAMILTONIAN, Gauge.ONE), cosym.parse("p1^2/2 + t*q1")),
        [0.25, 0.5, -0.3],
        1.5, IntegratorConfig(step=1e-3),
    )
    drift = float(np.max(np.abs(traj.states[:, cosym.t_slot] - (0.25 + traj.times))))
    if drift >= 1e-10:
        failures.append(f"gauge-One t-channel drift {drift:.2e} >= 1e-10")

    # energy-rate monitor residual < 1e-5 on all 16 rows at step 1e-3
    rate_cases = {
        ChartKind.SYMPLECTIC: "(q1^2 + p1^2)/2",
        ChartKind.COSYMPLECTIC: "p1^2/2 + t*q1",
        ChartKind.CONTACT: "p1^2/2 + q1^2/2 + z/2",
        ChartKind.COCONTACT: "p1^2/2 + q1^2/2 + z/2 + t/4",
    }
    rows = 0
    for kind, text in rate_cases.items():
        chart = Chart(kind, 1)
        for spec in catalog(chart):
            rows += 1
            use = text
            if spec.family is Family.STRICT:
                use = text.replace(" + z/2", "")
            traj = integrate(
                Dynamics(spec, chart.parse(use)), [0.2] * chart.dim,
                0.2, IntegratorConfig(step=1e-3),
            )
            rate = monitored_energy_rate(traj)
            if rate >= 1e-5:
                failures.append(f"{spec.row_name} on {kind.value}: rate residual {rate:.2e}")
    if rows != 16:
        failures.append(f"energy-rate sweep covered {rows} rows, expected 16")
    _report(6, "flow physics", failures)


def test_criterion_7_momentum_intertwining():
    # residual identically zero on >= 50 pairs per chart kind, and the
    # evolution coefficients re-solved from scratch match the pinned
    # values (a, b, c) = (1, n+3, 0) on z-charts, (1, 0, 0) otherwise
    rng = random.Random(107)
    failures = []
    for kind in ChartKind:
        for n, pairs in ((1, 30), (2, 20)):
            chart = Chart(kind, n)
            for _ in range(pairs):
                H = random_hamiltonian(rng, chart, degree=2, terms=3)
                Pi = random_one_form(rng, chart, degree=2, terms=2)
                residual = intertwine_residual(H, Pi)
                if not residual.is_zero():
                    failures.append(f"{kind.value} n={n}: nonzero intertwine residual")
                    break
            pinned = (
                Fraction(1),
                Fraction(n + 3) if chart.has_z else Fraction(0),
                Fraction(0),
            )
            if density_coefficients(chart) != pinned:
                failures.append(f"{kind.value} n={n}: frozen coefficients moved")
            if adjudicate_density_coefficients(chart, seed=71) != pinned:
                failures.append(f"{kind.value} n={n}: re-solved coefficients differ")
    _report(7, "momentum-map intertwining", failures)


def test_criterion_8_kinetic_solvers():
    started = time.monotonic()
    failures = []

    # free streaming: exact translation of the profile; 2% L1
    sym = Chart(ChartKind.SYMPLECTIC, 1)
    axes = (GridAxis("q1", -2.5, 2.5, 64), GridAxis("p1", -2, 2, 64))
    f0 = _gauss((0.0, 0.0), (0.45, 0.45))
    t = 0.5
    res = solve_density_particle(
        _dyn(sym, sym.parse("p1^2/2")), f0, t_final=t, dt=0.02,
        particle_count=100_000, seed=3, axes=axes,
    )
    ref = GridDensity.sample(
        sym, axes,
        lambda pts: f0(np.stack([pts[:, 0] - t * pts[:, 1], pts[:, 1]], axis=1)),
    )
    rel = l1_distance(res.deposited, ref) / l1_norm(ref)
    if rel > 0.02:
        failures.append(f"free streaming L1 {rel:.3f} > 0.02")

    # rigid rotation: quarter turn of an offset profile; 2% L1
    T = math.pi / 2
    axes = (GridAxis("q1", -2.4, 2.4, 64), GridAxis("p1", -2.4, 2.4, 64))
    f0 = _gauss((1.0, 0.0), (0.45, 0.45))
    res = solve_density_particle(
        _dyn(sym, sym.parse("(q1^2 + p1^2)/2")), f0, t_final=T, dt=0.02,
        particle_count=100_000, seed=4, axes=axes,
    )

    def rotated(pts):
        q0 = pts[:, 0] * math.cos(T) - pts[:, 1] * math.sin(T)
        p0 = pts[:, 0] * math.sin(T) + pts[:, 1] * math.cos(T)
        return f0(np.stack([q0, p0], axis=1))

    ref = GridDensity.sample(sym, axes, rotated)
    rel = l1_distance(res.deposited, ref) / l1_norm(ref)
    if rel > 0.02:
        failures.append(f"rigid rotation L1 {rel:.3f} > 0.02")

    # particle vs grid cross-oracle on the dilating contact flow:
    # 1e5 particles vs a 64^2 mesh, 5% L1 at t = 0.5
    contact = Chart(ChartKind.CONTACT, 1)
    H = contact.parse("z")
    contact_axes = (
        GridAxis("q1", -0.5, 0.5, 1),
        GridAxis("p1", -2.0, 2.0, 64),
        GridAxis("z", -2.0, 2.0, 64),
    )
    f0 = _gauss((None, 0.0, 0.0), (None, 0.9, 0.9))
    particle = solve_density_particle(
        _dyn(contact, H), f0, t_final=0.5, dt=0.01,
        particle_count=100_000, seed=5, axes=contact_axes,
    )
    [grid] = solve_density_grid(_dyn(contact, H), f0, [0.5], axes=contact_axes)

    def dilated(pts):
        scaled = pts.copy()
        scaled[:, 1] *= math.exp(0.5)
        scaled[:, 2] *= math.exp(0.5)
        return math.exp(1.5) * f0(scaled)

    ref = GridDensity.sample(contact, contact_axes, dilated)
    rel = l1_distance(particle.deposited, grid) / l1_norm(ref)
    if rel > 0.05:
        failures.append(f"particle vs grid L1 {rel:.3f} > 0.05")

    # mass conservation when the z-derivative of H vanishes: 1e-10
    cons_axes = (
        GridAxis("q1", -2.0, 2.0, 64, "periodic"),
        GridAxis("p1", -2.0, 2.0, 64),
        GridAxis("z", -0.5, 0.5, 1),
    )
    H = contact.parse("p1/2")
    f0 = _gauss((0.0, 0.0, None), (0.4, 0.4, None))
    res = solve_density_particle(
        _dyn(contact, H), f0, t_final=1.0, dt=0.05,
        particle_count=20_000, seed=6, axes=cons_axes,
    )
    drift = abs(res.mass_final - res.mass_initial) / abs(res.mass_initial)
    if drift > 1e-10:
        failures.append(f"particle mass drift {drift:.2e} > 1e-10")
    g0 = GridDensity.sample(contact, cons_axes, f0)
    [gout] = solve_density_grid(_dyn(contact, H), f0, [1.0], axes=cons_axes)
    drift = abs(gout.total_mass() - g0.total_mass()) / g0.total_mass()
    if drift > 1e-10:
        failures.append(f"grid mass drift {drift:.2e} > 1e-10")

    elapsed = time.monotonic() - started
    if elapsed > 300.0:
        failures.append(f"runtime budget: {elapsed:.1f}s > 300s")
    _report(8, "kinetic solvers", failures)


def test_criterion_9_musicals_and_reeb():
    # flat(sharp(alpha)) = alpha and sharp(flat(X)) = X exactly on all
    # four chart kinds; Reeb contraction identities exact
    rng = random.Random(109)
    failures = []
    for kind in ChartKind:
        for n in (1, 2):
            chart = Chart(kind, n)
            for _ in range(25):
                alpha = random_one_form(rng, chart)
                if not flat_sharp_residual(alpha).is_zero():
                    failures.append(f"{kind.value} n={n}: flat(sharp) != id")
                    break
                X = sharp(random_one_form(rng, chart))
                if not sharp_flat_residual(X).is_zero():
                    failures.append(f"{kind.value} n={n}: sharp(flat) != id")
                    break
            eta = canonical_eta(chart) if chart.has_z else None
            tau = canonical_tau(chart) if chart.has_time else None
            d_eta = exterior_derivative_oneform(eta) if chart.has_z else None
            if chart.has_time:
                R = reeb_tau(chart)
                if pairing(tau, R) != chart.const(1):
                    failures.append(f"{kind.value} n={n}: <tau, R_tau> != 1")
                if chart.has_z and not pairing(eta, R).is_zero():
                    failures.append(f"{kind.value} n={n}: <eta, R_tau> != 0")
                if chart.has_z and not contract_twoform(R, d_eta).is_zero():
                    failures.append(f"{kind.value} n={n}: i_R_tau d(eta) != 0")
                if sharp(tau) != R:
                    failures.append(f"{kind.value} n={n}: sharp(tau) != R_tau")
                if not sharp(tau, SharpVariant.BIVECTOR).is_zero():
                    failures.append(f"{kind.value} n={n}: bivector keeps tau")
            if chart.has_z:
                R = reeb_eta(chart)
                if pairing(eta, R) != chart.const(1):
                    failures.append(f"{kind.value} n={n}: <eta, R_eta> != 1")
                if chart.has_time and not pairing(tau, R).is_zero():
                    failures.append(f"{kind.value} n={n}: <tau, R_eta> != 0")
                if not contract_twoform(R, d_eta).is_zero():
                    failures.append(f"{kind.value} n={n}: i_R_eta d(eta) != 0")
                if sharp(eta) != R:
                    failures.append(f"{kind.value} n={n}: sharp(eta) != R_eta")
                if not sharp(eta, SharpVariant.BIVECTOR).is_zero():
                    failures.append(f"{kind.value} n={n}: bivector keeps eta")
    _report(9, "musical maps and Reeb identities", failures)
