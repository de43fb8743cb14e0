"""Kinetics tests: momentum maps, intertwining, and the two solvers.

The symbolic half pins the momentum map against an independent
coordinate-display oracle and checks that momentum and density dynamics
commute exactly.  The numeric half validates the particle solver
against closed-form solutions and the upwind grid oracle.
"""

import math
import os
import random
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from geokin.brackets import bracket, canonical_bracket_kind
from geokin.chart import (
    Chart,
    ChartKind,
    OneFormExpr,
    canonical_eta,
    differential,
    pairing,
)
from geokin.corpus import random_hamiltonian, random_one_form, random_poly
from geokin.fields import Family, FieldSpec, Gauge, divergence, make_field
from geokin import kinetics
from geokin.kinetics import (
    GridAxis,
    GridDensity,
    MomentumOneForm,
    ParticleEnsemble,
    StabilityError,
    adjudicate_density_coefficients,
    density_coefficients,
    density_vlasov_rhs,
    deposit,
    dual_pairing_residual,
    intertwine_residual,
    momentum_map,
    momentum_vlasov_rhs,
    particle_csv_columns,
    read_grid,
    read_particles,
    seed_particles,
    solve_density_grid,
    solve_density_particle,
    write_grid,
    write_particles,
)
from geokin.musical import SharpVariant, sharp
from geokin.poly import Poly

ALL_CHARTS = [Chart(kind, n) for kind in ChartKind for n in (1, 2)]


def _ham_zero_spec(chart):
    return FieldSpec(chart, Family.HAMILTONIAN, Gauge.ZERO if chart.has_time else None)


def _form(chart, by_name):
    comps = [chart.zero()] * chart.dim
    for name, text in by_name.items():
        comps[chart.coord_names.index(name)] = chart.parse(text)
    return OneFormExpr(chart, tuple(comps))


def _momentum_oracle(Pi):
    """Coordinate display of the momentum map, written independently."""
    s = Pi.chart
    f = s.zero()
    for i in range(1, s.n + 1):
        f = f + Pi.components[s.p_slot(i)].partial(s.q_slot(i))
        f = f - Pi.components[s.q_slot(i)].partial(s.p_slot(i))
    if s.has_z:
        zc = Pi.components[s.z_slot]
        for i in range(1, s.n + 1):
            p_i = s.coordinate(s.p_slot(i))
            f = f - p_i * (zc.partial(s.p_slot(i)) - Pi.components[s.p_slot(i)].partial(s.z_slot))
        f = f - s.const(s.n + 1) * zc
    return f


# -- momentum map ------------------------------------------------------


def test_momentum_map_matches_coordinate_display():
    rng = random.Random(11)
    for chart in ALL_CHARTS:
        for _ in range(10):
            Pi = random_one_form(rng, chart, degree=3, terms=4)
            assert (momentum_map(Pi) - _momentum_oracle(Pi)).is_zero()


def test_momentum_map_pinned_examples():
    s = Chart(ChartKind.SYMPLECTIC, 1)
    assert momentum_map(_form(s, {"p1": "q1"})).to_text(s.coord_names) == "1"
    cc = Chart(ChartKind.COCONTACT, 1)
    assert momentum_map(_form(cc, {"q1": "p1"})).to_text(cc.coord_names) == "-1"
    assert momentum_map(OneFormExpr(cc, tuple(cc.zero() for _ in range(4)))).is_zero()


def test_momentum_map_of_eta_regression():
    # value fixed by agreement of the abstract and coordinate routes
    for kind in (ChartKind.CONTACT, ChartKind.COCONTACT):
        for n in (1, 2, 3):
            chart = Chart(kind, n)
            eta = canonical_eta(chart)
            via_module = momentum_map(eta)
            via_display = _momentum_oracle(eta)
            assert (via_module - via_display).is_zero()
            assert via_module.to_text(chart.coord_names) == "-1"


def test_momentum_map_linearity():
    rng = random.Random(12)
    for chart in ALL_CHARTS:
        A = random_one_form(rng, chart, degree=2, terms=3)
        B = random_one_form(rng, chart, degree=2, terms=3)
        lhs = momentum_map(A.scaled(chart.const(3)) + B)
        rhs = Poly.const(chart.dim, 3) * momentum_map(A) + momentum_map(B)
        assert (lhs - rhs).is_zero()


def test_momentum_one_form_membership_validation():
    s = Chart(ChartKind.SYMPLECTIC, 1)
    good = MomentumOneForm(s, _form(s, {"p1": "q1"}).components, validate=True)
    assert not momentum_map(good).is_zero()
    # exact forms have vanishing density: d(q1^2*p1) fails membership
    dF = differential(s.parse("q1^2*p1"), s)
    assert momentum_map(dF).is_zero()
    with pytest.raises(ValueError):
        MomentumOneForm(s, dF.components, validate=True)
    MomentumOneForm(s, dF.components)  # unvalidated construction stays legal
    MomentumOneForm(s, [s.zero(), s.zero()], validate=True)  # zero form is exempt


# -- momentum dynamics -------------------------------------------------


def test_momentum_vlasov_pinned_symplectic():
    s = Chart(ChartKind.SYMPLECTIC, 1)
    H = s.parse("p1^2/2")
    rhs = momentum_vlasov_rhs(H, _form(s, {"q1": "p1"}))
    expected = _form(s, {"p1": "-p1"})
    assert (rhs - expected).is_zero()


def test_momentum_vlasov_needs_a_shared_chart():
    c = Chart(ChartKind.CONTACT, 1)
    Pi = _form(c, {"q1": "p1"})
    with pytest.raises(ValueError):
        momentum_vlasov_rhs(Chart(ChartKind.CONTACT, 2).parse("z"), Pi)


def test_momentum_vlasov_linearity():
    rng = random.Random(13)
    for chart in ALL_CHARTS:
        H = random_hamiltonian(rng, chart, degree=2, terms=3)
        A = random_one_form(rng, chart, degree=2, terms=2)
        B = random_one_form(rng, chart, degree=2, terms=2)
        lhs = momentum_vlasov_rhs(H, A + B.scaled(chart.const(-2)))
        rhs = momentum_vlasov_rhs(H, A) - momentum_vlasov_rhs(H, B).scaled(chart.const(2))
        assert (lhs - rhs).is_zero()


def test_momentum_reduction_to_symplectic_block():
    # z,t-independent cocontact data with no z,t components behaves
    # exactly like the symplectic theory on the (q,p) block
    rng = random.Random(14)
    s = Chart(ChartKind.SYMPLECTIC, 1)
    cc = Chart(ChartKind.COCONTACT, 1)
    lift = {0: cc.q_slot(1), 1: cc.p_slot(1)}
    for _ in range(6):
        H_s = random_poly(rng, 2, degree=2, terms=3)
        comps_s = [random_poly(rng, 2, degree=2, terms=2) for _ in range(2)]
        H_cc = H_s.remap(cc.dim, lift)
        Pi_s = OneFormExpr(s, tuple(comps_s))
        comps_cc = [cc.zero()] * cc.dim
        comps_cc[cc.q_slot(1)] = comps_s[0].remap(cc.dim, lift)
        comps_cc[cc.p_slot(1)] = comps_s[1].remap(cc.dim, lift)
        Pi_cc = OneFormExpr(cc, tuple(comps_cc))
        out_s = momentum_vlasov_rhs(H_s, Pi_s)
        out_cc = momentum_vlasov_rhs(H_cc, Pi_cc)
        assert out_cc.components[cc.t_slot].is_zero()
        assert out_cc.components[cc.z_slot].is_zero()
        assert (out_cc.components[cc.q_slot(1)] - out_s.components[0].remap(cc.dim, lift)).is_zero()
        assert (out_cc.components[cc.p_slot(1)] - out_s.components[1].remap(cc.dim, lift)).is_zero()


# -- density dynamics and intertwining ---------------------------------


def test_density_rhs_pinned_examples():
    s = Chart(ChartKind.SYMPLECTIC, 1)
    out = density_vlasov_rhs(s, s.parse("p1^2/2"), s.parse("q1"))
    assert out.to_text(s.coord_names) == "-p1"
    cs = Chart(ChartKind.COSYMPLECTIC, 1)
    casimir = cs.parse("t^3 - 2*t + 1/2")
    assert density_vlasov_rhs(cs, cs.parse("p1^2/2 + t*q1"), casimir).is_zero()


def test_density_rhs_reduction_chain():
    rng = random.Random(15)
    s = Chart(ChartKind.SYMPLECTIC, 1)
    c = Chart(ChartKind.CONTACT, 1)
    cc = Chart(ChartKind.COCONTACT, 1)
    to_c = {0: c.q_slot(1), 1: c.p_slot(1)}
    to_cc = {0: cc.q_slot(1), 1: cc.p_slot(1)}
    c_to_cc = {c.q_slot(1): cc.q_slot(1), c.p_slot(1): cc.p_slot(1), c.z_slot: cc.z_slot}
    for _ in range(8):
        H = random_poly(rng, 2, degree=3, terms=3)
        f = random_poly(rng, 2, degree=3, terms=3)
        base = density_vlasov_rhs(s, H, f)
        via_c = density_vlasov_rhs(c, H.remap(c.dim, to_c), f.remap(c.dim, to_c))
        via_cc = density_vlasov_rhs(cc, H.remap(cc.dim, to_cc), f.remap(cc.dim, to_cc))
        assert (via_c - base.remap(c.dim, to_c)).is_zero()
        assert (via_cc - base.remap(cc.dim, to_cc)).is_zero()
        # and the t-free contact theory sits inside cocontact unchanged
        Hc = random_poly(rng, 3, degree=2, terms=3)
        fc = random_poly(rng, 3, degree=2, terms=3)
        lhs = density_vlasov_rhs(cc, Hc.remap(cc.dim, c_to_cc), fc.remap(cc.dim, c_to_cc))
        assert (lhs - density_vlasov_rhs(c, Hc, fc).remap(cc.dim, c_to_cc)).is_zero()


def test_density_coefficients_regression():
    # frozen values re-derived from scratch by the exact adjudicator
    for chart in ALL_CHARTS:
        frozen = density_coefficients(chart)
        assert adjudicate_density_coefficients(chart) == frozen
        assert adjudicate_density_coefficients(chart, seed=2025) == frozen
        a, b, c = frozen
        assert a == 1 and c == 0
        assert b == (chart.n + 3 if chart.has_z else 0)


@pytest.mark.parametrize("kind, n, seed", [
    ("cosymplectic", 1, 21),
    ("cosymplectic", 1, 67),
    ("cosymplectic", 2, 18),
    ("cocontact", 2, 968),
])
def test_adjudication_pins_c_when_few_draws_depend_on_t(kind, n, seed):
    # `geokin identity --seed S` adjudicates at seed S + 17; these seeds
    # draw too few t-dependent Hamiltonians in their first 24 samples to
    # pin the coefficient of f R_tau(H)
    chart = Chart(ChartKind(kind), n)
    assert adjudicate_density_coefficients(chart, seed=seed + 17) == density_coefficients(chart)


def test_intertwine_residual_vanishes_on_corpus():
    rng = random.Random(16)
    for chart in ALL_CHARTS:
        for _ in range(12):
            H = random_hamiltonian(rng, chart, degree=2, terms=3)
            Pi = random_one_form(rng, chart, degree=2, terms=2)
            assert intertwine_residual(H, Pi).is_zero()


def test_intertwine_pinned_symplectic_example():
    s = Chart(ChartKind.SYMPLECTIC, 1)
    H = s.parse("p1^2/2")
    Pi = _form(s, {"q1": "p1"})
    assert momentum_map(Pi).to_text(s.coord_names) == "-1"
    assert intertwine_residual(H, Pi).is_zero()


def test_dual_pairing_integrand_identity():
    rng = random.Random(17)
    for chart in ALL_CHARTS:
        for _ in range(6):
            H = random_hamiltonian(rng, chart, degree=2, terms=3)
            Pi = random_one_form(rng, chart, degree=2, terms=2)
            assert dual_pairing_residual(chart, H, Pi).is_zero()


def test_zero_density_forms_pair_into_pure_divergences():
    # symplectic exact forms have f == 0, so <Pi, X_H> must be a total
    # divergence for every H: the pairing plus div(H sharp_biv Pi) is 0
    rng = random.Random(18)
    s = Chart(ChartKind.SYMPLECTIC, 2)
    spec = _ham_zero_spec(s)
    for _ in range(6):
        F = random_poly(rng, s.dim, degree=3, terms=3)
        Pi = differential(F, s)
        assert momentum_map(Pi).is_zero()
        H = random_hamiltonian(rng, s, degree=2, terms=3)
        X = make_field(spec, H)
        total_div = divergence(sharp(Pi, SharpVariant.BIVECTOR).scaled(H))
        assert (pairing(Pi, X) + total_div).is_zero()


# -- grids, particles, deposition --------------------------------------


def _gauss(center, width):
    def f(pts):
        out = np.ones(pts.shape[0])
        for k, (c, w) in enumerate(zip(center, width)):
            if w is None:
                continue
            out *= np.exp(-0.5 * ((pts[:, k] - c) / w) ** 2)
        return out

    return f


def test_grid_axis_validation():
    with pytest.raises(ValueError):
        GridAxis("q1", 0.0, 0.0, 8)
    with pytest.raises(ValueError):
        GridAxis("q1", 0.0, 1.0, 0)
    with pytest.raises(ValueError):
        GridAxis("q1", 0.0, 1.0, 8, boundary="reflect")
    ax = GridAxis("q1", -1.0, 1.0, 4)
    assert ax.dx == pytest.approx(0.5)
    assert np.allclose(ax.centers(), [-0.75, -0.25, 0.25, 0.75])


def test_grid_density_validation():
    s = Chart(ChartKind.SYMPLECTIC, 1)
    axes = (GridAxis("q1", -1, 1, 4), GridAxis("p1", -1, 1, 4))
    with pytest.raises(ValueError):
        GridDensity(s, (axes[1], axes[0]), np.zeros((4, 4)))
    with pytest.raises(ValueError):
        GridDensity(s, axes, np.zeros((4, 5)))
    g = GridDensity(s, axes, np.ones((4, 4)))
    assert g.total_mass() == pytest.approx(4.0)  # unit density over area 4


def test_grid_sample_matches_poly_eval():
    s = Chart(ChartKind.SYMPLECTIC, 1)
    axes = (GridAxis("q1", -1, 1, 8), GridAxis("p1", 0, 2, 4))
    f = s.parse("q1*p1 + 1/2")
    g = GridDensity.sample(s, axes, f)
    pts = g.points()
    assert np.allclose(g.values.ravel(), f.eval_array(pts.T))
    assert pts.shape == (32, 2)


def test_interpolation_is_exact_on_multilinear_data():
    s = Chart(ChartKind.SYMPLECTIC, 1)
    axes = (GridAxis("q1", -2, 2, 16), GridAxis("p1", -2, 2, 16))
    f = s.parse("1 + q1/2 - p1/3 + q1*p1/4")
    g = GridDensity.sample(s, axes, f)
    rng = np.random.default_rng(5)
    pts = rng.uniform(-1.5, 1.5, size=(40, 2))  # interior, away from edge cells
    assert np.allclose(g.interpolate(pts), f.eval_array(pts.T), atol=1e-12)
    outside = np.array([[5.0, 0.0], [0.0, -9.0]])
    assert np.allclose(g.interpolate(outside), 0.0)


def test_deposit_conserves_mass_for_interior_particles():
    s = Chart(ChartKind.SYMPLECTIC, 1)
    axes = (GridAxis("q1", -2, 2, 16), GridAxis("p1", -2, 2, 16))
    rng = np.random.default_rng(6)
    pts = rng.uniform(-1.5, 1.5, size=(500, 2))
    wts = rng.uniform(0.5, 2.0, size=500)
    g = deposit(ParticleEnsemble(s, pts, wts), axes)
    assert g.total_mass() == pytest.approx(float(wts.sum()), rel=1e-12)


def test_deposit_is_the_adjoint_of_interpolate():
    # one stencil: sum(deposit * g) * cell volume == sum(w * g(x)) for any grid g
    c = Chart(ChartKind.CONTACT, 1)
    axes = (
        GridAxis("q1", -1.0, 1.0, 8, boundary="periodic"),
        GridAxis("p1", -2.0, 2.0, 6),
        GridAxis("z", 0.0, 1.0, 5),
    )
    rng = np.random.default_rng(12)
    pts = rng.uniform([-3.0, -2.5, -0.3], [3.0, 2.5, 1.3], size=(400, 3))
    assert np.any((np.abs(pts[:, 1]) > 2.0) | (pts[:, 2] < 0.0) | (pts[:, 2] > 1.0))
    wts = rng.uniform(0.5, 2.0, size=400)
    g = GridDensity(c, axes, rng.uniform(-1.0, 1.0, size=(8, 6, 5)))
    dep = deposit(ParticleEnsemble(c, pts, wts), axes)
    lhs = float(np.sum(dep.values * g.values)) * g.cell_volume
    rhs = float(np.sum(wts * g.interpolate(pts)))
    assert abs(lhs - rhs) <= 1e-12 * abs(rhs)


def test_seed_then_deposit_reproduces_density():
    s = Chart(ChartKind.SYMPLECTIC, 1)
    axes = (GridAxis("q1", -2, 2, 64), GridAxis("p1", -2, 2, 64))
    f0 = _gauss((0.0, 0.0), (0.4, 0.4))
    g0 = GridDensity.sample(s, axes, f0)
    ens = seed_particles(g0, 90_000, seed=9, density=f0)
    redeposited = deposit(ens, axes)
    assert redeposited.l1_distance(g0) <= 0.02 * g0.l1_norm()
    assert ens.total_weight() == pytest.approx(g0.total_mass(), rel=0.01)


def test_seed_is_reproducible_and_seed_sensitive():
    s = Chart(ChartKind.SYMPLECTIC, 1)
    axes = (GridAxis("q1", -2, 2, 32), GridAxis("p1", -2, 2, 32))
    g0 = GridDensity.sample(s, axes, _gauss((0, 0), (0.5, 0.5)))
    a = seed_particles(g0, 2_000, seed=1)
    b = seed_particles(g0, 2_000, seed=1)
    c = seed_particles(g0, 2_000, seed=2)
    assert np.array_equal(a.positions, b.positions)
    assert np.array_equal(a.weights, b.weights)
    assert not np.array_equal(a.positions, c.positions)
    with pytest.raises(ValueError):
        seed_particles(g0, 999)


def test_grid_file_roundtrip(tmp_path):
    cc = Chart(ChartKind.COCONTACT, 1)
    axes = (
        GridAxis("t", 0.0, 1.0, 1),
        GridAxis("q1", -1.0, 1.0, 4, "periodic"),
        GridAxis("p1", -2.0, 2.0, 3),
        GridAxis("z", -0.5, 0.5, 2),
    )
    rng = np.random.default_rng(7)
    g = GridDensity(cc, axes, rng.standard_normal((1, 4, 3, 2)))
    path = tmp_path / "density.grid"
    write_grid(g, str(path))
    back = read_grid(str(path))
    assert back.chart == cc
    assert back.axes == axes
    assert np.array_equal(back.values, g.values)
    # byte determinism
    write_grid(back, str(tmp_path / "again.grid"))
    assert (tmp_path / "again.grid").read_bytes() == path.read_bytes()


def test_grid_file_rejects_garbage(tmp_path):
    bad = tmp_path / "bad.grid"
    bad.write_text("not a grid\n")
    with pytest.raises(ValueError):
        read_grid(str(bad))
    truncated = tmp_path / "trunc.grid"
    truncated.write_text("geokin-grid 1\nchart symplectic 1\naxis q1 0.0 1.0 1 zero\naxis p1 0.0 1.0 2 zero\nvalues 2\n0.5\n")
    with pytest.raises(ValueError):
        read_grid(str(truncated))


def test_particle_csv_roundtrip(tmp_path):
    cc = Chart(ChartKind.COCONTACT, 2)
    assert particle_csv_columns(cc) == ["q1", "q2", "p1", "p2", "z", "t", "w"]
    rng = np.random.default_rng(8)
    ens = ParticleEnsemble(cc, rng.standard_normal((5, cc.dim)), rng.uniform(0, 1, 5))
    path = tmp_path / "cloud.csv"
    write_particles(ens, str(path))
    back = read_particles(cc, str(path))
    assert np.array_equal(back.positions, ens.positions)
    assert np.array_equal(back.weights, ens.weights)
    with pytest.raises(ValueError):
        read_particles(Chart(ChartKind.CONTACT, 2), str(path))


# -- grid solver -------------------------------------------------------


def test_grid_zero_field_is_identity():
    s = Chart(ChartKind.SYMPLECTIC, 1)
    axes = (GridAxis("q1", -2, 2, 32), GridAxis("p1", -2, 2, 32))
    g0 = GridDensity.sample(s, axes, _gauss((0, 0), (0.5, 0.5)))
    out = solve_density_grid(s, s.zero(), g0, t_final=1.0)
    # stage recombination rounds at 1 ulp; nothing else may move
    assert np.max(np.abs(out.values - g0.values)) <= 1e-14 * np.max(g0.values)


def test_grid_rigid_rotation_moves_center_one_quarter_turn():
    s = Chart(ChartKind.SYMPLECTIC, 1)
    H = s.parse("(q1^2 + p1^2)/2")
    axes = (GridAxis("q1", -2, 2, 64), GridAxis("p1", -2, 2, 64))
    g0 = GridDensity.sample(s, axes, _gauss((1.0, 0.0), (0.25, 0.25)))
    out = solve_density_grid(s, H, g0, t_final=math.pi / 2)
    pts = out.points()
    mass = out.values.ravel()
    q_bar = float((pts[:, 0] * mass).sum() / mass.sum())
    p_bar = float((pts[:, 1] * mass).sum() / mass.sum())
    cell = axes[0].dx
    assert abs(q_bar - 0.0) <= cell
    assert abs(p_bar - (-1.0)) <= cell
    # upwind transport loses no mass in the interior
    assert out.total_mass() == pytest.approx(g0.total_mass(), rel=0.02)


def test_grid_guards():
    s = Chart(ChartKind.SYMPLECTIC, 1)
    H = s.parse("(q1^2 + p1^2)/2")
    axes = (GridAxis("q1", -2, 2, 64), GridAxis("p1", -2, 2, 64))
    g0 = GridDensity.sample(s, axes, _gauss((1, 0), (0.3, 0.3)))
    with pytest.raises(StabilityError):
        solve_density_grid(s, H, g0, t_final=0.5, dt=0.5)
    # collapsed axis with transport across it
    thin = (GridAxis("q1", -2, 2, 1), GridAxis("p1", -2, 2, 64))
    g1 = GridDensity.sample(s, thin, _gauss((0, 0), (None, 0.3)))
    with pytest.raises(ValueError):
        solve_density_grid(s, H, g1, t_final=0.1)
    # under-resolved active axis
    coarse = (GridAxis("q1", -2, 2, 16), GridAxis("p1", -2, 2, 64))
    g2 = GridDensity.sample(s, coarse, _gauss((0, 0), (0.3, 0.3)))
    with pytest.raises(ValueError):
        solve_density_grid(s, H, g2, t_final=0.1)


# -- particle solver ---------------------------------------------------


def test_particle_free_streaming_matches_closed_form():
    s = Chart(ChartKind.SYMPLECTIC, 1)
    H = s.parse("p1^2/2")
    axes = (GridAxis("q1", -2.5, 2.5, 64), GridAxis("p1", -2, 2, 64))
    f0 = _gauss((0.0, 0.0), (0.45, 0.45))
    t = 0.5
    res = solve_density_particle(s, H, f0, t_final=t, dt=0.02, particle_count=100_000, seed=3, axes=axes)
    ref = GridDensity.sample(s, axes, lambda pts: f0(np.stack([pts[:, 0] - t * pts[:, 1], pts[:, 1]], axis=1)))
    assert res.deposited.l1_distance(ref) <= 0.02 * ref.l1_norm()
    # escapers are far-tail lattice sites; the ledger must still balance
    assert res.mass_initial - res.mass_final == pytest.approx(res.escaped_mass, abs=1e-12 * res.mass_initial)


def test_particle_rigid_rotation_matches_closed_form():
    s = Chart(ChartKind.SYMPLECTIC, 1)
    H = s.parse("(q1^2 + p1^2)/2")
    T = math.pi / 2
    axes = (GridAxis("q1", -2.4, 2.4, 64), GridAxis("p1", -2.4, 2.4, 64))
    f0 = _gauss((1.0, 0.0), (0.45, 0.45))
    res = solve_density_particle(s, H, f0, t_final=T, dt=0.02, particle_count=100_000, seed=4, axes=axes)

    def exact(pts):
        q0 = pts[:, 0] * math.cos(T) - pts[:, 1] * math.sin(T)
        p0 = pts[:, 0] * math.sin(T) + pts[:, 1] * math.cos(T)
        return f0(np.stack([q0, p0], axis=1))

    ref = GridDensity.sample(s, axes, exact)
    assert res.deposited.l1_distance(ref) <= 0.02 * ref.l1_norm()


def test_particle_cosymplectic_forced_flow_matches_closed_form():
    # gauge-zero time channel: each characteristic keeps its own t and
    # feels the constant force -t; here the collapsed axis holds t = 1
    cs = Chart(ChartKind.COSYMPLECTIC, 1)
    H = cs.parse("p1^2/2 + t*q1")
    axes = (
        GridAxis("t", 0.75, 1.25, 1),
        GridAxis("q1", -2.8, 2.8, 64),
        GridAxis("p1", -2.5, 2.5, 64),
    )
    f0 = _gauss((None, 0.0, 0.0), (None, 0.5, 0.5))
    t = 0.5

    def exact(pts):
        tt, q, p = pts[:, 0], pts[:, 1], pts[:, 2]
        q0 = q - p * t - tt * t * t / 2
        p0 = p + tt * t
        return f0(np.stack([tt, q0, p0], axis=1))

    res = solve_density_particle(cs, H, f0, t_final=t, dt=0.02, particle_count=100_000, seed=4, axes=axes)
    ref = GridDensity.sample(cs, axes, exact)
    assert res.deposited.l1_distance(ref) <= 0.02 * ref.l1_norm()
    assert res.mass_initial - res.mass_final == pytest.approx(res.escaped_mass, abs=1e-12 * res.mass_initial)


_CONTACT_AXES = (
    GridAxis("q1", -0.5, 0.5, 1),
    GridAxis("p1", -2.0, 2.0, 64),
    GridAxis("z", -2.0, 2.0, 64),
)


def _contact_exact(f0, t):
    def exact(pts):
        scaled = pts.copy()
        scaled[:, 1] *= math.exp(t)
        scaled[:, 2] *= math.exp(t)
        return math.exp(3 * t) * f0(scaled)

    return exact


def test_particle_contact_decay_matches_closed_form():
    # narrow offset profile: particle route is accurate to CIC smoothing
    c = Chart(ChartKind.CONTACT, 1)
    H = c.parse("z")
    f0 = _gauss((None, 0.5, 0.4), (None, 0.5, 0.5))
    t = 0.5
    res = solve_density_particle(c, H, f0, t_final=t, dt=0.01, particle_count=100_000, seed=5, axes=_CONTACT_AXES)
    ref = GridDensity.sample(c, _CONTACT_AXES, _contact_exact(f0, t))
    assert res.deposited.l1_distance(ref) <= 0.02 * ref.l1_norm()
    # total mass grows like e^t; the weight ODE reproduces it to 1e-8
    assert res.escaped_count == 0
    assert res.mass_final / res.mass_initial == pytest.approx(math.exp(t), rel=1e-8)


def test_particle_vs_grid_cross_oracle_contact_decay():
    # the two solvers share nothing numerically; 64^2 grid, 1e5 particles
    c = Chart(ChartKind.CONTACT, 1)
    H = c.parse("z")
    f0 = _gauss((None, 0.0, 0.0), (None, 0.9, 0.9))
    t = 0.5
    particle = solve_density_particle(c, H, f0, t_final=t, dt=0.01, particle_count=100_000, seed=5, axes=_CONTACT_AXES)
    grid = solve_density_grid(c, H, GridDensity.sample(c, _CONTACT_AXES, f0), t_final=t)
    ref = GridDensity.sample(c, _CONTACT_AXES, _contact_exact(f0, t))
    assert particle.deposited.l1_distance(grid) <= 0.05 * ref.l1_norm()


def test_grid_contact_decay_converges_first_order():
    c = Chart(ChartKind.CONTACT, 1)
    H = c.parse("z")
    t = 0.5
    errs = []
    for cells in (64, 128):
        axes = (
            GridAxis("q1", -0.5, 0.5, 1),
            GridAxis("p1", -2.0, 2.0, cells),
            GridAxis("z", -2.0, 2.0, cells),
        )
        f0 = _gauss((None, 0.5, 0.4), (None, 0.5, 0.5))
        grid = solve_density_grid(c, H, GridDensity.sample(c, axes, f0), t_final=t)
        ref = GridDensity.sample(c, axes, _contact_exact(f0, t))
        errs.append(grid.l1_distance(ref) / ref.l1_norm())
    assert errs[0] <= 0.10  # upwind diffusion level at 64^2
    assert 1.5 <= errs[0] / errs[1] <= 2.6  # first order in the cell size


def test_particle_mass_conserved_without_reeb_source():
    # z-chart with R_eta(H) == 0 and no escapes: periodic transport
    c = Chart(ChartKind.CONTACT, 1)
    H = c.parse("p1/2")  # qdot = 1/2, pdot = 0, zdot = 0
    axes = (
        GridAxis("q1", -2.0, 2.0, 64, "periodic"),
        GridAxis("p1", -2.0, 2.0, 64),
        GridAxis("z", -0.5, 0.5, 1),
    )
    f0 = _gauss((0.0, 0.0, None), (0.4, 0.4, None))
    res = solve_density_particle(c, H, f0, t_final=1.0, dt=0.05, particle_count=20_000, seed=6, axes=axes)
    assert res.escaped_count == 0
    assert abs(res.mass_final - res.mass_initial) <= 1e-10 * abs(res.mass_initial)


def test_particle_escape_reporting_balances_mass():
    s = Chart(ChartKind.SYMPLECTIC, 1)
    H = s.parse("p1^2/2")
    axes = (GridAxis("q1", -1.0, 1.0, 32), GridAxis("p1", -2.0, 2.0, 32))
    f0 = _gauss((0.0, 0.0), (0.5, 0.5))
    res = solve_density_particle(s, H, f0, t_final=0.5, dt=0.05, particle_count=10_000, seed=7, axes=axes)
    assert res.escaped_count > 0
    assert res.mass_initial - res.mass_final == pytest.approx(res.escaped_mass, rel=1e-10)


def test_particle_guard_rejects_oversized_step():
    s = Chart(ChartKind.SYMPLECTIC, 1)
    H = s.parse("p1^2/2")
    axes = (GridAxis("q1", -2, 2, 64), GridAxis("p1", -2, 2, 64))
    with pytest.raises(StabilityError):
        solve_density_particle(s, H, _gauss((0, 0), (0.3, 0.3)), t_final=1.0, dt=2.0, particle_count=2_000, axes=axes)


def test_particle_threads_do_not_change_the_answer():
    c = Chart(ChartKind.CONTACT, 1)
    H = c.parse("z")
    axes = (
        GridAxis("q1", -0.5, 0.5, 1),
        GridAxis("p1", -2.0, 2.0, 64),
        GridAxis("z", -2.0, 2.0, 64),
    )
    f0 = _gauss((None, 0.5, 0.5), (None, 0.4, 0.4))
    kw = dict(t_final=0.3, dt=0.02, particle_count=5_000, seed=8, axes=axes)
    one = solve_density_particle(c, H, f0, threads=1, **kw)
    three = solve_density_particle(c, H, f0, threads=3, **kw)
    assert np.array_equal(one.deposited.values, three.deposited.values)
    assert one.mass_final == three.mass_final


@pytest.mark.parametrize("threads, env", [(1_000_000, None), (None, "1000000")])
def test_thread_pool_is_capped_at_cpu_count(monkeypatch, threads, env):
    import concurrent.futures

    requested = []

    class InlineExecutor:
        """Runs every job on the calling thread; records the pool size asked for."""

        def __init__(self, max_workers=None):
            requested.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args, **kwargs):
            future = concurrent.futures.Future()
            future.set_result(fn(*args, **kwargs))
            return future

        def map(self, fn, *iterables):
            return [fn(*args) for args in zip(*iterables)]

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", InlineExecutor)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    monkeypatch.delenv("GEOKIN_THREADS", raising=False)
    s = Chart(ChartKind.SYMPLECTIC, 1)
    axes = (GridAxis("q1", -2, 2, 32), GridAxis("p1", -2, 2, 32))
    kw = dict(t_final=0.04, dt=0.02, particle_count=1_000, seed=3, axes=axes)
    f0 = _gauss((0.0, 0.0), (0.5, 0.5))
    H = s.parse("p1^2/2 + q1^2/2")
    one = solve_density_particle(s, H, f0, threads=1, **kw)
    assert requested == []
    if env is not None:
        monkeypatch.setenv("GEOKIN_THREADS", env)
    capped = solve_density_particle(s, H, f0, threads=threads, **kw)
    assert requested == [3]
    assert np.array_equal(one.deposited.values, capped.deposited.values)


def test_thread_count_env_override(monkeypatch):
    from geokin.kinetics import _thread_count

    monkeypatch.delenv("GEOKIN_THREADS", raising=False)
    assert _thread_count(None) == 1
    assert _thread_count(4) == 4
    monkeypatch.setenv("GEOKIN_THREADS", "6")
    assert _thread_count(None) == 6
    monkeypatch.setenv("GEOKIN_THREADS", "junk")
    assert _thread_count(None) == 1


# -- bit-identity oracle: the (N, dim+1) array push the column push replaced --


def reference_rk4_step(rhs, x, h):
    k1 = rhs(x)
    k2 = rhs(x + 0.5 * h * k1)
    k3 = rhs(x + 0.5 * h * k2)
    k4 = rhs(x + h * k3)
    return x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def reference_push_chunk(state, X, source, h, n_steps, axes):
    """RK4 on one row-major (N, dim+1) chunk, weight last, with a zeros
    block for the components that do not move."""
    dim = len(axes)
    moving = [(k, c.eval_array) for k, c in enumerate(X.components) if not c.is_zero()]
    src_eval = None if source is None or source.is_zero() else source.eval_array

    def rhs(y):
        x = y[:, :dim]
        dy = np.zeros_like(y)
        for k, eval_array in moving:
            dy[:, k] = eval_array(x.T)
        if src_eval is not None:
            dy[:, dim] = src_eval(x.T) * y[:, dim]
        return dy

    escaped_mass = 0.0
    escaped_count = 0
    for _ in range(n_steps):
        state = reference_rk4_step(rhs, state, h)
        alive = np.ones(state.shape[0], dtype=bool)
        for k, axis in enumerate(axes):
            if axis.boundary == "periodic":
                state[:, k] = axis.lo + np.mod(state[:, k] - axis.lo, axis.hi - axis.lo)
            else:
                alive &= (state[:, k] >= axis.lo) & (state[:, k] <= axis.hi)
        if not alive.all():
            escaped_mass += float(state[~alive, dim].sum())
            escaped_count += int((~alive).sum())
            state = state[alive]
    return state, escaped_mass, escaped_count


# signed zeros and the axis ends as well as generic values
PUSH_VALUE = st.one_of(st.sampled_from([0.0, -0.0, -1.0, 1.0]), st.floats(-1.5, 1.5))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(kind=st.sampled_from(list(ChartKind)), data=st.data())
def test_push_chunk_is_bit_identical_to_the_array_push(kind, data):
    chart = Chart(kind, data.draw(st.integers(1, 2)))
    rng = random.Random(data.draw(st.integers(0, 2 ** 32)))
    # frozen coordinates give identically zero components (t never moves)
    frozen = tuple(data.draw(st.sets(st.integers(0, chart.dim - 1), max_size=chart.dim - 1)))
    H = random_poly(rng, chart.dim, degree=3, terms=4, frozen_slots=frozen)
    X, source = kinetics._field_and_source(chart, H)
    axes = tuple(GridAxis(name, -1.0, 1.0, 4, data.draw(st.sampled_from(["zero", "periodic"])))
                 for name in chart.coord_names)
    rows = data.draw(st.lists(st.lists(PUSH_VALUE, min_size=chart.dim + 1,
                                       max_size=chart.dim + 1), min_size=1, max_size=12))
    # plus a bulk, so that a step drops enough rows for numpy to sum them pairwise
    bulk = np.random.default_rng(rng.randrange(2 ** 32)).uniform(
        -1.5, 1.5, (data.draw(st.integers(0, 300)), chart.dim + 1))
    state = np.concatenate([np.array(rows), bulk])
    h = data.draw(st.sampled_from([0.01, 0.05, 0.2]))
    n_steps = data.draw(st.integers(0, 6))
    with np.errstate(all="ignore"):
        want = reference_push_chunk(state.copy(), X, source, h, n_steps, axes)
        columns = [np.ascontiguousarray(c) for c in state.T]
        got = kinetics._push_chunk(columns, X, source, h, n_steps, axes)
    assert len(got[0]) == chart.dim + 1
    assert all(c.flags.c_contiguous and c.dtype == np.float64 for c in got[0])
    assert np.column_stack(got[0]).tobytes() == want[0].tobytes()
    assert struct.pack("<d", got[1]) == struct.pack("<d", want[1])
    assert got[2] == want[2]
