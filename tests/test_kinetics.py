"""Kinetics tests: momentum maps, intertwining, and the two solvers.

The symbolic half pins the momentum map against an independent
coordinate-display oracle and checks that momentum and density dynamics
commute exactly.  The numeric half validates the particle solver
against closed-form solutions and the upwind grid oracle.
"""

import dataclasses
import itertools
import json
import math
import os
import random
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from geokin.chart import (
    Chart,
    ChartKind,
    OneFormExpr,
    canonical_eta,
    differential,
    pairing,
)
from geokin.corpus import random_hamiltonian, random_one_form, random_poly
from geokin.fields import Dynamics, Family, FieldSpec, Gauge, divergence, make_field
from geokin import budgets, cli, flow, kinetics
from geokin.density import (
    adjudicate_density_coefficients,
    density_coefficients,
    density_vlasov_rhs,
    dual_pairing_residual,
    intertwine_residual,
    kinetic_spec,
    kinetic_terms,
    momentum_map,
    momentum_vlasov_rhs,
)
from geokin.kinetics import (
    GridAxis,
    GridDensity,
    ParticleEnsemble,
    StabilityError,
    deposit,
    particle_csv_columns,
    seed_particles,
    solve_density_grid,
    solve_density_particle,
    write_grid,
    write_particles,
)
from geokin.musical import SharpVariant, sharp
from geokin.poly import Poly

from helpers import grid_points, l1_distance, l1_norm, oracle_write_particles, traced_peak

ALL_CHARTS = [Chart(kind, n) for kind in ChartKind for n in (1, 2)]


def remap(p, new_dim, index_map):
    """`p` read on a chart with `new_dim` coordinates: coordinate i becomes
    `index_map[i]`, which must be injective on the coordinates `p` uses."""
    out = {}
    for exps, coeff in p.terms.items():
        new_exps = [0] * new_dim
        for i, e in enumerate(exps):
            if e:
                new_exps[index_map[i]] = e
        out[tuple(new_exps)] = coeff
    return Poly(new_dim, out)


def _dyn(chart, H):
    """The motion both solvers carry densities along: H's Hamiltonian/gauge-zero row."""
    return Dynamics(kinetic_spec(chart), H)


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
    # an exact form has vanishing density: d(q1^2*p1)
    assert momentum_map(differential(s.parse("q1^2*p1"), s)).is_zero()
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
        H_cc = remap(H_s, cc.dim, lift)
        Pi_s = OneFormExpr(s, tuple(comps_s))
        comps_cc = [cc.zero()] * cc.dim
        comps_cc[cc.q_slot(1)] = remap(comps_s[0], cc.dim, lift)
        comps_cc[cc.p_slot(1)] = remap(comps_s[1], cc.dim, lift)
        Pi_cc = OneFormExpr(cc, tuple(comps_cc))
        out_s = momentum_vlasov_rhs(H_s, Pi_s)
        out_cc = momentum_vlasov_rhs(H_cc, Pi_cc)
        assert out_cc.components[cc.t_slot].is_zero()
        assert out_cc.components[cc.z_slot].is_zero()
        for slot, comp_s in zip((cc.q_slot(1), cc.p_slot(1)), out_s.components):
            assert (out_cc.components[slot] - remap(comp_s, cc.dim, lift)).is_zero()


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
        via_c = density_vlasov_rhs(c, remap(H, c.dim, to_c), remap(f, c.dim, to_c))
        via_cc = density_vlasov_rhs(cc, remap(H, cc.dim, to_cc), remap(f, cc.dim, to_cc))
        assert (via_c - remap(base, c.dim, to_c)).is_zero()
        assert (via_cc - remap(base, cc.dim, to_cc)).is_zero()
        # and the t-free contact theory sits inside cocontact unchanged
        Hc = random_poly(rng, 3, degree=2, terms=3)
        fc = random_poly(rng, 3, degree=2, terms=3)
        lhs = density_vlasov_rhs(cc, remap(Hc, cc.dim, c_to_cc), remap(fc, cc.dim, c_to_cc))
        assert (lhs - remap(density_vlasov_rhs(c, Hc, fc), cc.dim, c_to_cc)).is_zero()


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
    pts = grid_points(g)
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
    g = deposit(ParticleEnsemble(s, pts.T, wts), axes)
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
    dep = deposit(ParticleEnsemble(c, pts.T, wts), axes)
    lhs = float(np.sum(dep.values * g.values)) * g.cell_volume
    rhs = float(np.sum(wts * g.interpolate(pts)))
    assert abs(lhs - rhs) <= 1e-12 * abs(rhs)


def test_seed_then_deposit_reproduces_density():
    s = Chart(ChartKind.SYMPLECTIC, 1)
    axes = (GridAxis("q1", -2, 2, 64), GridAxis("p1", -2, 2, 64))
    f0 = _gauss((0.0, 0.0), (0.4, 0.4))
    g0 = GridDensity.sample(s, axes, f0)
    ens = seed_particles(s, f0, 90_000, seed=9, axes=axes)
    redeposited = deposit(ens, axes)
    assert l1_distance(redeposited, g0) <= 0.02 * l1_norm(g0)
    assert ens.total_weight() == pytest.approx(g0.total_mass(), rel=0.01)


def test_seed_is_reproducible_and_seed_sensitive():
    s = Chart(ChartKind.SYMPLECTIC, 1)
    axes = (GridAxis("q1", -2, 2, 32), GridAxis("p1", -2, 2, 32))
    g0 = GridDensity.sample(s, axes, _gauss((0, 0), (0.5, 0.5)))
    a = seed_particles(s, g0.interpolate, 2_000, seed=1, axes=axes)
    b = seed_particles(s, g0.interpolate, 2_000, seed=1, axes=axes)
    c = seed_particles(s, g0.interpolate, 2_000, seed=2, axes=axes)
    assert np.array_equal(a.columns, b.columns)
    assert np.array_equal(a.weights, b.weights)
    assert not np.array_equal(a.columns, c.columns)
    with pytest.raises(ValueError):
        seed_particles(s, g0.interpolate, 999, axes=axes)


def test_particle_ensemble_refuses_bad_shapes():
    s = Chart(ChartKind.SYMPLECTIC, 1)
    ones = np.ones(4)
    with pytest.raises(ValueError):
        ParticleEnsemble(s, [ones], ones)  # one column on a two-coordinate chart
    with pytest.raises(ValueError):
        ParticleEnsemble(s, [ones, np.ones(3)], ones)  # a column one particle short
    with pytest.raises(ValueError):
        ParticleEnsemble(s, [ones, ones], np.ones((4, 1)))  # weights not one per particle


def test_grids_and_ensembles_are_built_once_and_never_rebound():
    s = Chart(ChartKind.SYMPLECTIC, 1)
    axes = (GridAxis("q1", -1, 1, 4), GridAxis("p1", -1, 1, 4))
    grid = GridDensity(s, axes, np.ones((4, 4)))
    ensemble = ParticleEnsemble(s, [np.zeros(3), np.ones(3)], np.ones(3))
    for value, field in ((grid, "values"), (ensemble, "columns"), (ensemble, "weights")):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(value, field, getattr(value, field))
    grid.values[0, 0] = 2.0  # the arrays themselves may be written in place
    ensemble.columns[0][1] = 5.0
    ensemble.weights[2] = 0.5
    assert grid.total_mass() == 17 * grid.cell_volume
    assert ensemble.columns[0].tolist() == [0.0, 5.0, 0.0] and ensemble.total_weight() == 2.5


def test_grids_ensembles_results_and_trajectories_compare_and_hash_by_identity():
    # field-wise `==` over their arrays has no truth value, and arrays no hash
    s = Chart(ChartKind.SYMPLECTIC, 1)
    axes = (GridAxis("q1", -1, 1, 4), GridAxis("p1", -1, 1, 4))

    def grid():
        return GridDensity(s, axes, np.ones((4, 4)))

    def ensemble():
        return ParticleEnsemble(s, [np.zeros(3), np.ones(3)], np.ones(3))

    def result():
        return kinetics.ParticleKineticResult(ensemble(), grid(), 3.0, 3.0, 0.0, 0)

    def trajectory():
        return flow.Trajectory(kinetic_spec(s), np.zeros(2), np.zeros((2, 2)),
                               {"hamiltonian": np.zeros(2)})

    for build in (grid, ensemble, result, trajectory):
        a, b = build(), build()
        assert a == a and a != b and hash(a) == hash(a) and len({a, b, a}) == 2


# A 1000^2 grid and 200 000 particles, numpy's buffers traced, each bound in
# units of one float64 grid array
_WIDE = (GridAxis("q1", -2.0, 2.0, 1000), GridAxis("p1", -2.0, 2.0, 1000))
_WIDE_GRID = 1000 * 1000 * 8


def test_sampling_a_grid_holds_its_points_and_kernel_and_no_placeholder():
    # the kernel's two powers and its product, which becomes the samples,
    # on broadcast views of the axis centers: 3.0 measured; the two
    # cell-center columns of a meshgrid beside them reach 5.0
    s = Chart(ChartKind.SYMPLECTIC, 1)
    f0 = s.parse("1 + q1^2*p1^2/10")
    f0.eval_array([np.zeros(1), np.zeros(1)])  # compile the kernel
    grid, peak = traced_peak(lambda: GridDensity.sample(s, _WIDE, f0))
    assert grid.values.shape == (1000, 1000)
    assert peak < 3.5 * _WIDE_GRID


def test_sampling_a_callable_builds_no_meshgrid_columns():
    # the (N, 2) points, stacked once from broadcast views of the axis
    # centers, and the Gaussian's temporaries: 5.00 measured; the two
    # meshgrid columns of the cell centers beside their stack reach 7.00
    s = Chart(ChartKind.SYMPLECTIC, 1)
    f0 = _gauss((0.0, 0.0), (0.5, 0.5))
    grid, peak = traced_peak(lambda: GridDensity.sample(s, _WIDE, f0))
    assert peak < 5.5 * _WIDE_GRID
    columns = np.meshgrid(*[a.centers() for a in _WIDE], indexing="ij")
    assert grid.values.tobytes() == f0(np.stack([c.ravel() for c in columns], axis=1)).tobytes()


@pytest.mark.parametrize("kind, sizes, H, bound", [
    # -v and v > 0 of both axes, each velocity spanning one axis: 2.25
    # measured; velocities and source on meshgrid cell centers reach 6.25
    (ChartKind.SYMPLECTIC, (1000, 1000), "p1^2/2 + q1^2/2", 2.5),
    # the same, plus two full velocities and the kernel's sums: 4.01
    # measured; on meshgrid cell centers, 6.25
    (ChartKind.SYMPLECTIC, (1000, 1000), "p1^2/2 + q1^2/2 + q1^2*p1^2/10", 4.5),
    # three winds and the flat source: 4.39 measured; on meshgrid cell
    # centers, 10.38
    (ChartKind.CONTACT, (100, 100, 100), "p1^2/2 + q1^2/2 + z/5", 5.0),
])
def test_the_grid_setup_holds_what_the_steps_read(kind, sizes, H, bound):
    # `_transport` plus the wind and the source, on 10^6 cells, in units of
    # one float64 grid array
    chart = Chart(kind, 1)
    axes = tuple(GridAxis(name, -2.0, 2.0, size) for name, size in zip(chart.coord_names, sizes))
    dyn = _dyn(chart, chart.parse(H))

    def setup():
        terms, moving, _, _ = kinetics._transport(dyn, axes, (0.1,), None, 0.9, 10 ** 6, "cells")
        return kinetics._grid_terms(terms, moving, axes)

    setup()  # compile the kernels
    (wind, src), peak = traced_peak(setup)
    assert len(wind) == len(sizes) and (src is None) == (kind is ChartKind.SYMPLECTIC)
    assert peak < bound * _WIDE_GRID


def test_depositing_holds_one_grid_array():
    # the mass grid, divided in place by the cell volume, plus the stencil's
    # block working set: 1.09 measured; a placeholder grid and an
    # out-of-place division reach 3.01
    s = Chart(ChartKind.SYMPLECTIC, 1)
    rng = np.random.default_rng(0)
    ensemble = ParticleEnsemble(s, list(rng.uniform(-1.9, 1.9, size=(2, 200_000))),
                                rng.uniform(0.5, 1.5, size=200_000))
    grid, peak = traced_peak(lambda: deposit(ensemble, _WIDE))
    assert grid.total_mass() == pytest.approx(ensemble.total_weight(), rel=1e-12)
    assert peak < 1.5 * _WIDE_GRID


def test_grid_file_text(tmp_path):
    cc = Chart(ChartKind.COCONTACT, 1)
    axes = (
        GridAxis("t", 0.0, 1.0, 1),
        GridAxis("q1", -1.0, 1.0, 4, "periodic"),
        GridAxis("p1", -2.0, 2.0, 3),
        GridAxis("z", -0.5, 1 / 3, 2),
    )
    values = np.random.default_rng(7).standard_normal((1, 4, 3, 2))
    path = tmp_path / "density.grid"
    write_grid(GridDensity(cc, axes, values), str(path))
    lines = ["geokin-grid 1", "chart cocontact 1", "axis t 0.0 1.0 1 zero",
             "axis q1 -1.0 1.0 4 periodic", "axis p1 -2.0 2.0 3 zero",
             "axis z -0.5 0.3333333333333333 2 zero", "values 24"]
    assert path.read_text() == "\n".join(lines + [repr(v) for v in values.ravel().tolist()]) + "\n"
    # byte determinism
    write_grid(GridDensity(cc, axes, values.copy()), str(tmp_path / "again.grid"))
    assert (tmp_path / "again.grid").read_bytes() == path.read_bytes()


@pytest.mark.parametrize("lo, hi", [(0.0, 5e-324), (-1.7e308, 1.7e308)],
                         ids=["width-underflows", "width-overflows"])
def test_grid_axes_refuse_a_cell_width_outside_float_range(lo, hi):
    # hi > lo, but (hi - lo) / size rounds to 0.0 or overflows to inf
    with pytest.raises(ValueError, match="axis q1: hi must exceed lo by a finite nonzero cell"):
        GridAxis("q1", lo, hi, 32)


def test_particle_csv_text(tmp_path):
    cc = Chart(ChartKind.COCONTACT, 2)
    assert particle_csv_columns(cc) == ["q1", "q2", "p1", "p2", "z", "t", "w"]
    # chart order is t, q1, q2, p1, p2, z; the file moves t after z
    columns = [np.array([10.0, -0.0]), np.array([0.1, 2.0]), np.array([1 / 3, 3.0]),
               np.array([-1.5, 4.0]), np.array([5e-324, 5.0]), np.array([1e300, 6.0])]
    path = tmp_path / "cloud.csv"
    write_particles(ParticleEnsemble(cc, columns, np.array([0.25, 7.0])), str(path))
    assert path.read_text() == ("q1,q2,p1,p2,z,t,w\n"
                                "0.1,0.3333333333333333,-1.5,5e-324,1e+300,10.0,0.25\n"
                                "2.0,3.0,4.0,5.0,6.0,-0.0,7.0\n")


@pytest.mark.parametrize("kind, head", [
    (ChartKind.SYMPLECTIC, ["chart symplectic 1", "axis q1 0.0 1.0 2 zero",
                            "axis p1 0.0 1.0 2 zero", "values 4"]),
    (ChartKind.COSYMPLECTIC, ["chart cosymplectic 1", "axis t 0.0 1.0 2 zero",
                              "axis q1 0.0 1.0 2 zero", "axis p1 0.0 1.0 2 zero", "values 8"]),
    (ChartKind.CONTACT, ["chart contact 1", "axis q1 0.0 1.0 2 zero",
                         "axis p1 0.0 1.0 2 zero", "axis z 0.0 1.0 2 zero", "values 8"]),
    (ChartKind.COCONTACT, ["chart cocontact 1", "axis t 0.0 1.0 2 zero", "axis q1 0.0 1.0 2 zero",
                           "axis p1 0.0 1.0 2 zero", "axis z 0.0 1.0 2 zero", "values 16"]),
], ids=["symplectic", "cosymplectic", "contact", "cocontact"])
def test_grid_file_names_each_axis_in_chart_order(tmp_path, kind, head):
    chart = Chart(kind, 1)
    axes = tuple(GridAxis(name, 0.0, 1.0, 2) for name in chart.coord_names)
    values = np.arange(2.0 ** chart.dim).reshape((2,) * chart.dim)
    path = tmp_path / "density.grid"
    write_grid(GridDensity(chart, axes, values), str(path))
    lines = ["geokin-grid 1", *head, *(repr(v) for v in values.ravel().tolist())]
    assert path.read_text() == "\n".join(lines) + "\n"


@pytest.mark.parametrize("kind, text", [
    (ChartKind.SYMPLECTIC, "q1,p1,w\n1.0,2.0,0.5\n"),
    (ChartKind.COSYMPLECTIC, "q1,p1,t,w\n2.0,3.0,1.0,0.5\n"),
    (ChartKind.CONTACT, "q1,p1,z,w\n1.0,2.0,3.0,0.5\n"),
    (ChartKind.COCONTACT, "q1,p1,z,t,w\n2.0,3.0,4.0,1.0,0.5\n"),
], ids=["symplectic", "cosymplectic", "contact", "cocontact"])
def test_particle_csv_moves_t_after_z_on_every_chart_kind(tmp_path, kind, text):
    chart = Chart(kind, 1)
    # one particle at chart coordinates 1.0, 2.0, ... in chart order
    columns = [np.array([float(k)]) for k in range(1, chart.dim + 1)]
    path = tmp_path / "cloud.csv"
    write_particles(ParticleEnsemble(chart, columns, np.array([0.5])), str(path))
    assert path.read_text() == text
    assert text.split("\n")[0] == ",".join(particle_csv_columns(chart))


# ±0.0, subnormals and values at the ends of float range, besides generic ones
_CSV_VALUES = [0.0, -0.0, 5e-324, -5e-324, 1e-310, -2.2250738585072014e-308, 1e300, -1.0, 0.1]


@pytest.mark.parametrize("rows", [0, 1, 50], ids=["empty", "one-row", "several-blocks"])
@pytest.mark.parametrize("kind", list(ChartKind))
def test_particles_are_written_as_before(monkeypatch, tmp_path, kind, rows):
    # 50 rows in blocks of 16: three whole blocks and a short one
    monkeypatch.setattr(flow, "BLOCK_ROWS", 16)
    chart = Chart(kind, 2)
    rng = np.random.default_rng(rows)
    pool = np.array(_CSV_VALUES + list(rng.standard_normal(4)))
    table = pool[rng.integers(len(pool), size=(chart.dim + 1, rows))]
    table[:, :1] = pool[:chart.dim + 1, None]  # every column starts with a signed or tiny zero
    ens = ParticleEnsemble(chart, list(table[:-1]), table[-1])
    write_particles(ens, str(tmp_path / "new.csv"))
    oracle_write_particles(ens, str(tmp_path / "old.csv"))
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()
    assert len((tmp_path / "new.csv").read_text().splitlines()) == 1 + rows


# -- grid solver -------------------------------------------------------


def test_grid_zero_field_is_identity():
    s = Chart(ChartKind.SYMPLECTIC, 1)
    axes = (GridAxis("q1", -2, 2, 32), GridAxis("p1", -2, 2, 32))
    f0 = _gauss((0, 0), (0.5, 0.5))
    g0 = GridDensity.sample(s, axes, f0)
    [out] = solve_density_grid(_dyn(s, s.zero()), f0, [1.0], axes=axes)
    # stage recombination rounds at 1 ulp; nothing else may move
    assert np.max(np.abs(out.values - g0.values)) <= 1e-14 * np.max(g0.values)


def test_grid_rigid_rotation_moves_center_one_quarter_turn():
    s = Chart(ChartKind.SYMPLECTIC, 1)
    H = s.parse("(q1^2 + p1^2)/2")
    axes = (GridAxis("q1", -2, 2, 64), GridAxis("p1", -2, 2, 64))
    f0 = _gauss((1.0, 0.0), (0.25, 0.25))
    g0 = GridDensity.sample(s, axes, f0)
    [out] = solve_density_grid(_dyn(s, H), f0, [math.pi / 2], axes=axes)
    pts = grid_points(out)
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
    with pytest.raises(StabilityError):
        solve_density_grid(_dyn(s, H), _gauss((1, 0), (0.3, 0.3)), [0.5], dt=0.5, axes=axes)
    # the axis and chart checks are shared: test_both_solvers_refuse_the_same_bad_grids


# -- particle solver ---------------------------------------------------


def test_particle_free_streaming_matches_closed_form():
    s = Chart(ChartKind.SYMPLECTIC, 1)
    H = s.parse("p1^2/2")
    axes = (GridAxis("q1", -2.5, 2.5, 64), GridAxis("p1", -2, 2, 64))
    f0 = _gauss((0.0, 0.0), (0.45, 0.45))
    t = 0.5
    res = solve_density_particle(_dyn(s, H), f0, t_final=t, dt=0.02, particle_count=100_000, seed=3, axes=axes)
    ref = GridDensity.sample(s, axes, lambda pts: f0(np.stack([pts[:, 0] - t * pts[:, 1], pts[:, 1]], axis=1)))
    assert l1_distance(res.deposited, ref) <= 0.02 * l1_norm(ref)
    # escapers are far-tail lattice sites; the ledger must still balance
    assert res.mass_initial - res.mass_final == pytest.approx(res.escaped_mass, abs=1e-12 * res.mass_initial)


def test_particle_rigid_rotation_matches_closed_form():
    s = Chart(ChartKind.SYMPLECTIC, 1)
    H = s.parse("(q1^2 + p1^2)/2")
    T = math.pi / 2
    axes = (GridAxis("q1", -2.4, 2.4, 64), GridAxis("p1", -2.4, 2.4, 64))
    f0 = _gauss((1.0, 0.0), (0.45, 0.45))
    res = solve_density_particle(_dyn(s, H), f0, t_final=T, dt=0.02, particle_count=100_000, seed=4, axes=axes)

    def exact(pts):
        q0 = pts[:, 0] * math.cos(T) - pts[:, 1] * math.sin(T)
        p0 = pts[:, 0] * math.sin(T) + pts[:, 1] * math.cos(T)
        return f0(np.stack([q0, p0], axis=1))

    ref = GridDensity.sample(s, axes, exact)
    assert l1_distance(res.deposited, ref) <= 0.02 * l1_norm(ref)


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

    res = solve_density_particle(_dyn(cs, H), f0, t_final=t, dt=0.02, particle_count=100_000, seed=4, axes=axes)
    ref = GridDensity.sample(cs, axes, exact)
    assert l1_distance(res.deposited, ref) <= 0.02 * l1_norm(ref)
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
    res = solve_density_particle(_dyn(c, H), f0, t_final=t, dt=0.01, particle_count=100_000, seed=5, axes=_CONTACT_AXES)
    ref = GridDensity.sample(c, _CONTACT_AXES, _contact_exact(f0, t))
    assert l1_distance(res.deposited, ref) <= 0.02 * l1_norm(ref)
    # total mass grows like e^t; the weight ODE reproduces it to 1e-8
    assert res.escaped_count == 0
    assert res.mass_final / res.mass_initial == pytest.approx(math.exp(t), rel=1e-8)


def test_particle_vs_grid_cross_oracle_contact_decay():
    # the two solvers share nothing numerically; 64^2 grid, 1e5 particles
    c = Chart(ChartKind.CONTACT, 1)
    H = c.parse("z")
    f0 = _gauss((None, 0.0, 0.0), (None, 0.9, 0.9))
    t = 0.5
    particle = solve_density_particle(_dyn(c, H), f0, t_final=t, dt=0.01, particle_count=100_000, seed=5, axes=_CONTACT_AXES)
    [grid] = solve_density_grid(_dyn(c, H), f0, [t], axes=_CONTACT_AXES)
    ref = GridDensity.sample(c, _CONTACT_AXES, _contact_exact(f0, t))
    assert l1_distance(particle.deposited, grid) <= 0.05 * l1_norm(ref)


def test_the_work_budget_counts_the_seeded_particles(monkeypatch):
    # 1057 requested particles seed a 33^2 lattice on a 32^2 grid: 1089 x 10 steps
    # exceed a budget that the requested 1057 x 10 would meet exactly
    s = Chart(ChartKind.SYMPLECTIC, 1)
    axes = (GridAxis("q1", -2, 2, 32), GridAxis("p1", -2, 2, 32))
    f0 = _gauss((0.0, 0.0), (0.5, 0.5))
    assert len(seed_particles(s, f0, 1057, axes=axes).weights) == 33 ** 2
    monkeypatch.setattr(budgets, "MAX_WORK", 1057 * 10)
    with pytest.raises(ValueError, match="1089 seeded particles x 10 steps exceed"):
        solve_density_particle(_dyn(s, s.parse("p1^2/2")), f0, t_final=0.1, dt=0.01,
                               particle_count=1057, axes=axes)


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
        [grid] = solve_density_grid(_dyn(c, H), f0, [t], axes=axes)
        ref = GridDensity.sample(c, axes, _contact_exact(f0, t))
        errs.append(l1_distance(grid, ref) / l1_norm(ref))
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
    res = solve_density_particle(_dyn(c, H), f0, t_final=1.0, dt=0.05, particle_count=20_000, seed=6, axes=axes)
    assert res.escaped_count == 0
    assert abs(res.mass_final - res.mass_initial) <= 1e-10 * abs(res.mass_initial)


def test_particle_escape_reporting_balances_mass():
    s = Chart(ChartKind.SYMPLECTIC, 1)
    H = s.parse("p1^2/2")
    axes = (GridAxis("q1", -1.0, 1.0, 32), GridAxis("p1", -2.0, 2.0, 32))
    f0 = _gauss((0.0, 0.0), (0.5, 0.5))
    res = solve_density_particle(_dyn(s, H), f0, t_final=0.5, dt=0.05, particle_count=10_000, seed=7, axes=axes)
    assert res.escaped_count > 0
    assert res.mass_initial - res.mass_final == pytest.approx(res.escaped_mass, rel=1e-10)


def test_particle_solve_makes_no_extra_copies_of_the_state():
    # 480^2 particles x 10 steps: seeding, push and deposit together peak under
    # one push state (N x (dim + 1) float64) plus 4.5 block working sets
    # (BLOCK_ROWS x (dim + 1) float64) of push, compaction and deposit: 3.9 on
    # x86-64 with numpy's buffers traced.  A push that keeps the last block's
    # pushed columns alive through the next block peaks at 4.9; whole-ensemble
    # temporaries in any of them peak near 4 states
    s = Chart(ChartKind.SYMPLECTIC, 1)
    axes = (GridAxis("q1", -2.0, 2.0, 64), GridAxis("p1", -2.0, 2.0, 64))
    dyn, f0 = _dyn(s, s.parse("p1^2/2")), s.parse("1 + q1^2/4 - p1^2/8")
    solve_density_particle(dyn, f0, 0.1, 0.01, 1_000, axes=axes)  # compile the kernels
    count = 480 ** 2
    res, peak = traced_peak(lambda: solve_density_particle(dyn, f0, 0.1, 0.01, count, axes=axes))
    assert len(res.ensemble.weights) + res.escaped_count == count
    assert peak <= (count + 4.5 * flow.BLOCK_ROWS) * (s.dim + 1) * 8


def test_particle_guard_rejects_oversized_step():
    s = Chart(ChartKind.SYMPLECTIC, 1)
    H = s.parse("p1^2/2")
    axes = (GridAxis("q1", -2, 2, 64), GridAxis("p1", -2, 2, 64))
    with pytest.raises(StabilityError):
        solve_density_particle(_dyn(s, H), _gauss((0, 0), (0.3, 0.3)), t_final=1.0, dt=2.0, particle_count=2_000, axes=axes)


def _contact_no_escapes():
    c = Chart(ChartKind.CONTACT, 1)
    axes = (
        GridAxis("q1", -0.5, 0.5, 1),
        GridAxis("p1", -2.0, 2.0, 64),
        GridAxis("z", -2.0, 2.0, 64),
    )
    f0 = _gauss((None, 0.5, 0.5), (None, 0.4, 0.4))
    return c, c.parse("z"), f0, dict(t_final=0.3, dt=0.02, particle_count=5_000, seed=8,
                                     axes=axes)


def _symplectic_escapes(particle_count=60_000, dt=0.01):
    # about a sixth of the ensemble leaves q1 or p1 over the 50 steps
    s = Chart(ChartKind.SYMPLECTIC, 1)
    axes = (GridAxis("q1", -1.0, 1.0, 64), GridAxis("p1", -1.0, 1.0, 64))
    return s, s.parse("p1^2/2 + q1^2/2 + q1*p1/10"), s.parse("1 + q1^2"), dict(
        t_final=0.5, dt=dt, particle_count=particle_count, seed=3, axes=axes)


def _few_symplectic_escapes():
    # 45^2 particles over 10 steps, 325 of which leave: small enough for 1-row blocks
    return _symplectic_escapes(particle_count=2_000, dt=0.05)


@pytest.mark.parametrize("case, block_rows", [
    (_contact_no_escapes, (1_000, 25_000, 1_000_000)),
    (_symplectic_escapes, (1_000, 25_000, 1_000_000)),
    (_few_symplectic_escapes, (1, 7, 1_000, 1_000_000)),
], ids=["contact-no-escapes", "symplectic-escapes", "few-symplectic-escapes"])
def test_particle_blocking_does_not_change_the_answer(monkeypatch, tmp_path, case, block_rows):
    # every pass over the ensemble, from the seeding to the written files and
    # the interpolated deposit, goes in row blocks; none moves a byte
    chart, H, f0, kw = case()

    def outputs():
        res = solve_density_particle(_dyn(chart, H), f0, **kw)
        write_grid(res.deposited, str(tmp_path / "deposit.grid"))
        write_particles(res.ensemble, str(tmp_path / "particles.csv"))
        inside = np.stack(res.ensemble.columns, axis=1)
        return {
            "deposit": res.deposited.values.tobytes(),
            "columns": [c.tobytes() for c in res.ensemble.columns],
            "weights": res.ensemble.weights.tobytes(),
            "mass_final": struct.pack("<d", res.mass_final),
            "escaped_mass": struct.pack("<d", res.escaped_mass),
            "escaped_count": res.escaped_count,
            "grid file": (tmp_path / "deposit.grid").read_bytes(),
            "particle file": (tmp_path / "particles.csv").read_bytes(),
            # at the survivors, and at points of which some lie off the grid
            "interpolated": res.deposited.interpolate(
                np.concatenate([inside, 1.25 * inside])).tobytes(),
        }

    one = outputs()
    assert (one["escaped_count"] > 0) == (case is not _contact_no_escapes)
    for rows in block_rows:
        monkeypatch.setattr(flow, "BLOCK_ROWS", rows)
        other = outputs()
        assert [key for key in one if other[key] != one[key]] == [], rows


def test_the_particle_push_starts_no_thread(monkeypatch):
    # the blocks are pushed on the calling thread, and nothing else imports a pool
    import ast
    import inspect
    import threading

    def refuse(self):
        raise AssertionError("the particle solver started a thread")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    monkeypatch.setattr(flow, "BLOCK_ROWS", 1_000)  # several blocks, some with escapes
    chart, H, f0, kw = _symplectic_escapes(particle_count=10_000)
    res = solve_density_particle(_dyn(chart, H), f0, **kw)
    assert res.escaped_count > 0
    assert "threads" not in inspect.signature(solve_density_particle).parameters
    tree = ast.parse(inspect.getsource(kinetics))
    imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                for alias in node.names}
    imported |= {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    assert not imported & {"os", "concurrent.futures", "threading"}, imported


# -- the setup both solvers share --------------------------------------


def _solve(solver, dyn, axes, f0, t_final=0.1, dt=None):
    if solver == "grid":
        return solve_density_grid(dyn, f0, [t_final], dt, axes=axes)
    return solve_density_particle(dyn, f0, t_final, 0.01 if dt is None else dt, 1_000, axes=axes)


_SYM = Chart(ChartKind.SYMPLECTIC, 1)


@pytest.mark.parametrize("solver", ["grid", "particle"])
@pytest.mark.parametrize("axes, H, match", [
    ((GridAxis("q1", -2, 2, 1), GridAxis("p1", -2, 2, 64)), _SYM.parse("(q1^2 + p1^2)/2"),
     "axis q1 is collapsed but its advection velocity is nonzero"),
    ((GridAxis("q1", -2, 2, 16), GridAxis("p1", -2, 2, 64)), _SYM.parse("(q1^2 + p1^2)/2"),
     "axis q1: active axes need at least 32 cells"),
    ((GridAxis("q1", -2, 2, 64), GridAxis("p1", -2, 2, 64)),
     Chart(ChartKind.SYMPLECTIC, 2).parse("p1^2/2"), "grid, Hamiltonian and chart must agree"),
    # -4 q1^3 overflows at the far cells, which would make the CFL limit zero
    ((GridAxis("q1", -2, 1e300, 64), GridAxis("p1", -2, 2, 64)), _SYM.parse("p1^2/2 + q1^4"),
     "axis p1: the advection velocity is not finite on the grid"),
], ids=["collapsed-but-moving", "under-32-cells", "chart-mismatch", "infinite-velocity"])
def test_both_solvers_refuse_the_same_bad_grids(solver, axes, H, match):
    with pytest.raises(ValueError, match=match), np.errstate(over="ignore", invalid="ignore"):
        _solve(solver, _dyn(_SYM, H), axes, _gauss((0.0, 0.0), (0.3, 0.3)))


@pytest.mark.parametrize("solver", ["grid", "particle"])
@pytest.mark.parametrize("chart, spec", [
    (Chart(ChartKind.CONTACT, 1), FieldSpec(Chart(ChartKind.CONTACT, 1), Family.ENERGY)),
    (Chart(ChartKind.COSYMPLECTIC, 1),
     FieldSpec(Chart(ChartKind.COSYMPLECTIC, 1), Family.HAMILTONIAN, Gauge.ONE)),
], ids=["contact-energy", "cosymplectic-gauge-one"])
def test_both_solvers_refuse_any_row_but_hamiltonian_gauge_zero(solver, chart, spec):
    axes = tuple(GridAxis(name, -2, 2, 32) for name in chart.coord_names)
    dyn = Dynamics(spec, chart.parse("p1^2/2"))
    with pytest.raises(ValueError, match=f"gauge zero only, not {spec.row_name}$"):
        _solve(solver, dyn, axes, lambda pts: np.ones(len(pts)))


def test_both_solvers_take_the_density_in_closed_form_and_the_axes_by_keyword():
    import inspect

    for solver in (solve_density_grid, solve_density_particle):
        params = inspect.signature(solver).parameters
        assert list(params)[:2] == ["dyn", "f0"] and params["f0"].annotation == "Density"
        axes = params["axes"]
        assert axes.kind is inspect.Parameter.KEYWORD_ONLY
        assert axes.default is inspect.Parameter.empty
    # a `Poly` is sampled on the axis centers, a callable on the cell
    # centers; both give the grid solver the same bytes
    axes = (GridAxis("q1", -2, 2, 32), GridAxis("p1", -2, 2, 32, "periodic"))
    dyn, f0 = _dyn(_SYM, _SYM.parse("p1^2/2 + q1^2/2")), _SYM.parse("1 + q1^2*p1^2/10")
    by_poly, by_callable = (solve_density_grid(dyn, f, [0.02, 0.05], 0.01, axes=axes)
                            for f in (f0, lambda pts: f0.eval_array(pts.T)))
    assert [g.values.tobytes() for g in by_poly] == [g.values.tobytes() for g in by_callable]


@pytest.mark.parametrize("solver", ["grid", "particle"])
@pytest.mark.parametrize("t_final, dt", [(-0.1, 0.01), (0.1, 0.0), (0.1, -0.01)])
def test_both_solvers_refuse_bad_times(solver, t_final, dt):
    axes = (GridAxis("q1", -2, 2, 32), GridAxis("p1", -2, 2, 32))
    with pytest.raises(ValueError, match=r"need dt > 0 and t_final >= 0"):
        _solve(solver, _dyn(_SYM, _SYM.parse("p1^2/2")), axes, _gauss((0.0, 0.0), (0.5, 0.5)),
               t_final, dt)


@pytest.mark.parametrize("cfl", [-0.5, 0.0, math.nan])
def test_the_grid_solver_refuses_a_cfl_that_is_not_positive(monkeypatch, cfl):
    # before any grid is built: a negative CFL number would give one step over the whole span
    monkeypatch.setattr(kinetics, "_cell_centers", None)
    axes = (GridAxis("q1", -2, 2, 32), GridAxis("p1", -2, 2, 32))
    with pytest.raises(ValueError, match=r"need cfl > 0, not"):
        solve_density_grid(_dyn(_SYM, _SYM.parse("p1^2/2")), lambda pts: np.ones(len(pts)),
                           [1.0], cfl=cfl, axes=axes)


@pytest.mark.parametrize("run", ["grid", "particle", "grid-3-snapshots"])
def test_each_solver_call_runs_the_shared_setup_once(monkeypatch, tmp_path, run):
    calls = []
    setup = kinetics._transport
    monkeypatch.setattr(kinetics, "_transport", lambda *a: calls.append(a) or setup(*a))
    if run == "grid-3-snapshots":  # one setup for the whole run, not one per snapshot
        outs = [str(tmp_path / f"snap{k}.grid") for k in range(3)]
        cfg = {"chart": {"kind": "symplectic", "n": 1}, "task": "kinetic-grid",
               "hamiltonian": "p1^2/2",
               "initial": {"grid": {"axes": [{"lo": -2, "hi": 2, "size": 32}] * 2},
                           "density": "1 + q1^2"},
               "time": {"snapshots": [0.02, 0.03, 0.04], "dt": 0.01}, "output": {"grid": outs}}
        (tmp_path / "cfg.json").write_text(json.dumps(cfg))
        assert cli.main(["run", str(tmp_path / "cfg.json")]) == 0
        assert all(os.path.exists(out) for out in outs)
    else:
        axes = (GridAxis("q1", -2, 2, 32), GridAxis("p1", -2, 2, 32))
        _solve(run, _dyn(_SYM, _SYM.parse("p1^2/2")), axes, _gauss((0.0, 0.0), (0.5, 0.5)), 0.04)
    assert len(calls) == 1


@pytest.mark.parametrize("run, dt", [("grid", None), ("grid", 0.01), ("particle", 0.01)])
def test_each_solver_call_counts_its_steps_once(monkeypatch, run, dt):
    # one span, one step count, whether dt is given or the CFL limit
    calls = []
    count = budgets.step_count
    monkeypatch.setattr(budgets, "step_count", lambda *a: calls.append(a) or count(*a))
    axes = (GridAxis("q1", -2, 2, 32), GridAxis("p1", -2, 2, 32))
    _solve(run, _dyn(_SYM, _SYM.parse("p1^2/2")), axes, _gauss((0.0, 0.0), (0.5, 0.5)), 0.04, dt)
    assert len(calls) == 1


def test_solver_terms_are_the_density_law():
    """The terms the solvers read off the law against its closed form, on
    random (H, f).

    With X the transport field and s = density_vlasov_rhs(chart, H, 1) the
    law's f-coefficient: the law is transport plus growth, -X(f) + s f; the
    particle weight rate of `kinetic_terms` is R_eta(H) = dH/dz (zero off
    z-charts), exactly, so every kernel compiled from it is the one the
    closed form gives; and the grid source s is its int growth times it.
    """
    for chart in ALL_CHARTS:
        rng = random.Random(f"density-law/{chart.kind.value}/{chart.n}")
        for _ in range(15):
            H = random_hamiltonian(rng, chart, degree=3, terms=4)
            f = random_poly(rng, chart.dim, degree=2, terms=3)
            dyn = _dyn(chart, H)
            X = dyn.field
            s = density_vlasov_rhs(chart, H, chart.const(1))
            rate, growth = kinetic_terms(dyn)
            closed_form = H.partial(chart.z_slot) if chart.has_z else chart.zero()
            assert rate == closed_form
            assert type(growth) is int  # an exact multiple keeps the source grid's bytes
            assert growth == (chart.n + 2 if chart.has_z else -1)
            assert density_vlasov_rhs(chart, H, f) == -X.apply_to(f) + s * f
            assert s == growth * rate


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
    X = _dyn(chart, H).field
    source = H.partial(chart.z_slot) if chart.has_z else chart.zero()
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
    # pushed in blocks of rows, as the solver does, then gathered in row order
    block = data.draw(st.integers(1, len(state)))
    with np.errstate(all="ignore"):
        want = reference_push_chunk(state.copy(), X, source, h, n_steps, axes)
        parts = [kinetics._push_chunk([np.ascontiguousarray(c) for c in state[lo:lo + block].T],
                                      X, source, h, n_steps, axes)
                 for lo in range(0, len(state), block)]
    assert all(len(columns) == chart.dim + 1 for columns, _ in parts)
    assert all(c.flags.c_contiguous and c.dtype == np.float64
               for columns, _ in parts for c in columns)
    got = np.concatenate([np.column_stack(columns) for columns, _ in parts])
    assert got.tobytes() == want[0].tobytes()
    mass, count = kinetics._gather_escapes([escapes for _, escapes in parts])
    assert struct.pack("<d", mass) == struct.pack("<d", want[1])
    assert count == want[2]


# -- bit-identity oracle: the padded upwind term and per-snapshot solves the
# -- grid step replaced


def reference_upwind_term(values, v, axis_idx, axis):
    """-v * df/dx with first-order upwinding along one axis."""
    if axis.boundary == "periodic":
        lower = np.roll(values, 1, axis=axis_idx)
        upper = np.roll(values, -1, axis=axis_idx)
    else:
        pad = [(0, 0)] * values.ndim
        pad[axis_idx] = (1, 1)
        padded = np.pad(values, pad)  # zero inflow
        sl_lo = [slice(None)] * values.ndim
        sl_hi = [slice(None)] * values.ndim
        sl_lo[axis_idx] = slice(0, values.shape[axis_idx])
        sl_hi[axis_idx] = slice(2, 2 + values.shape[axis_idx])
        lower = padded[tuple(sl_lo)]
        upper = padded[tuple(sl_hi)]
    backward = (values - lower) / axis.dx
    forward = (upper - values) / axis.dx
    return -v * np.where(v > 0.0, backward, forward)


def reference_solve_grid(chart, H, f0, t_final, dt, cfl):
    """One snapshot segment, set up anew: velocities, CFL limit,
    source, then SSP-RK3 over ceil(t_final/dt) equal steps."""
    X = _dyn(chart, H).field
    source = H.partial(chart.z_slot) if chart.has_z else chart.zero()
    shape = f0.values.shape
    vel = [c.eval_array(grid_points(f0).T).reshape(shape) for c in X.components]
    active = [k for k, axis in enumerate(f0.axes) if axis.size > 1]
    rate = sum(float(np.max(np.abs(vel[k]))) / f0.axes[k].dx for k in active)
    limit = cfl / rate if rate else math.inf
    if dt is None:
        dt = limit if math.isfinite(limit) else max(t_final, 1e-3)
    elif dt > limit:
        raise StabilityError(f"dt={dt!r} exceeds the CFL bound {limit!r}")
    if t_final == 0:
        return GridDensity(chart, f0.axes, f0.values.copy())
    n_steps = budgets.step_count(t_final, dt)
    h = t_final / n_steps
    src = None
    if source is not None and not source.is_zero():
        src = (chart.n + 2) * source.eval_array(grid_points(f0).T).reshape(shape)

    def rhs(values):
        out = np.zeros_like(values)
        for k in active:
            out += reference_upwind_term(values, vel[k], k, f0.axes[k])
        if src is not None:
            out += src * values
        return out

    v = f0.values.copy()
    for _ in range(n_steps):
        k1 = v + h * rhs(v)
        k2 = 0.75 * v + 0.25 * (k1 + h * rhs(k1))
        v = v / 3.0 + (2.0 / 3.0) * (k2 + h * rhs(k2))
        if not np.all(np.isfinite(v)):
            raise StabilityError("grid solution lost finiteness; reduce dt")
    return GridDensity(chart, f0.axes, v)


def _outcome(solve):
    try:
        return solve()
    except StabilityError as exc:
        return str(exc)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(kind=st.sampled_from(list(ChartKind)), data=st.data())
def test_grid_solver_is_bit_identical_to_the_padded_upwind_solver(kind, data):
    chart = Chart(kind, 1)
    rng = random.Random(data.draw(st.integers(0, 2 ** 32)))
    # frozen coordinates zero some components (a frozen p1 stops q1, and t
    # never moves), so their axes may collapse or stay active at rest; a
    # frozen z drops the source on z-charts
    frozen = tuple(data.draw(st.sets(st.integers(0, chart.dim - 1), max_size=chart.dim - 1)))
    H = random_poly(rng, chart.dim, degree=3, terms=4, frozen_slots=frozen)
    X = _dyn(chart, H).field
    # odd sizes on symmetric axes put a center at 0.0, so velocities hit -0.0 and 0.0
    sizes = [data.draw(st.sampled_from([1, 32, 33] if c.is_zero() else [32, 33]))
             for c in X.components]
    for k, c in enumerate(X.components):  # at most three active axes, for speed
        if math.prod(sizes) > 40_000 and c.is_zero():
            sizes[k] = 1
    axes = tuple(GridAxis(name, -1.0, 1.0, size, data.draw(st.sampled_from(["zero", "periodic"])))
                 for name, size in zip(chart.coord_names, sizes))
    shape = tuple(sizes)
    gen = np.random.default_rng(rng.randrange(2 ** 32))
    values = gen.uniform(-1.0, 1.0, shape)
    values[gen.random(shape) < data.draw(st.sampled_from([0.0, 0.3]))] = 0.0
    values[gen.random(shape) < data.draw(st.sampled_from([0.0, 0.3]))] = -0.0
    f0 = GridDensity(chart, axes, values)
    spans = data.draw(st.lists(st.sampled_from([0.002, 0.005, 0.0125]), min_size=1, max_size=3))
    times = list(itertools.accumulate(spans))
    dt = data.draw(st.sampled_from([None, 0.002, 0.004]))
    cfl = data.draw(st.sampled_from([0.9, 0.3]))
    with np.errstate(all="ignore"):
        def reference():
            grids, reached, current = [], 0.0, f0
            for target in times:
                current = reference_solve_grid(chart, H, current, target - reached, dt, cfl)
                grids.append(current)
                reached = target
            return grids

        want = _outcome(reference)
        got = _outcome(lambda: solve_density_grid(_dyn(chart, H), lambda pts: values.ravel(),
                                                  times, dt, cfl, axes=axes))
    if isinstance(want, str):
        assert got == want
        return
    assert len(got) == len(times)
    for g, w in zip(got, want):
        assert g.axes == w.axes and g.values.shape == w.values.shape
        assert g.values.tobytes() == w.values.tobytes()


def reference_snapshots(chart, H, f0, times, dt, cfl=0.9):
    """The snapshots of one run as a chain of `reference_solve_grid` segments."""
    grids, reached, current = [], 0.0, f0
    for target in times:
        current = reference_solve_grid(chart, H, current, target - reached, dt, cfl)
        grids.append(current)
        reached = target
    return grids


def _random_values(shape, seed):
    """Uniform values on [-1, 1] with signed zeros sprinkled in."""
    gen = np.random.default_rng(seed)
    values = gen.uniform(-1.0, 1.0, shape)
    values[gen.random(shape) < 0.2] = 0.0
    values[gen.random(shape) < 0.2] = -0.0
    return values


@pytest.mark.parametrize("times", [[0.0, 0.01], [0.006, 0.006, 0.012], [0.0, 0.0, 0.004],
                                   [0.004, 0.01, 0.01]],
                         ids=["first-at-0", "two-at-once", "two-at-0", "last-two-at-once"])
@pytest.mark.parametrize("kind", [ChartKind.SYMPLECTIC, ChartKind.COCONTACT])
def test_every_snapshot_keeps_its_bytes_to_the_end_of_the_solve(kind, times):
    """Zero-length spans among the snapshots: each grid is checked only after
    the whole solve, so a step that wrote into a snapshot's array shows."""
    chart = Chart(kind, 1)
    H = chart.parse("p1^2/2 + q1^2/2 + q1^4/20" if kind is ChartKind.SYMPLECTIC
                    else "q1*p1/2 + q1^2*p1/3 + z/4")
    axes = tuple(GridAxis(name, -1.0, 1.0, 1 if name in ("t", "z") else 33, "zero")
                 for name in chart.coord_names)
    values = _random_values(tuple(a.size for a in axes), 7)
    with np.errstate(all="ignore"):
        # f0 hands back the caller's own array, as a view in C order
        got = solve_density_grid(_dyn(chart, H), lambda pts: values.ravel(), times, 0.002,
                                 axes=axes)
        want = reference_snapshots(chart, H, GridDensity(chart, axes, values), times, 0.002)
    assert [g.values.tobytes() for g in got] == [w.values.tobytes() for w in want]
    # each snapshot owns its array, and none is the caller's
    arrays = [values, *(g.values for g in got)]
    assert not any(np.shares_memory(a, b) for a, b in itertools.combinations(arrays, 2))


# Every field component of this Hamiltonian is linear in its own coordinate
# (t' = 0, q1' = q1, q2' = -q2/2, p1' = -4/3 p1, p2' = p2/6, z' = -z/3), so
# an axis may collapse at 0.0 or stay active, and the source is nonzero.
_STRIDE_CHART = Chart(ChartKind.COCONTACT, 2)
_STRIDE_H = "q1*p1 - q2*p2/2 + z/3"


def _stride_layouts():
    """One or two active axes, never neighbours, the rest collapsed: every
    active axis sits between collapsed ones, at every position, with 1 or
    33 cells in the axes before and after it, under each boundary."""
    dim = _STRIDE_CHART.dim
    for active in [(k,) for k in range(dim)] + [
            pair for pair in itertools.combinations(range(dim), 2) if pair[1] - pair[0] > 1]:
        for first in ("zero", "periodic"):
            second = "periodic" if first == "zero" else "zero"
            yield pytest.param(active, (first, second)[:len(active)],
                               id="-".join(f"{k}{b[0]}" for k, b in zip(active, (first, second))))


@pytest.mark.parametrize("active, boundaries", list(_stride_layouts()))
def test_the_grid_step_is_bit_identical_at_every_stride(active, boundaries):
    chart, H = _STRIDE_CHART, _STRIDE_CHART.parse(_STRIDE_H)
    kinds = dict(zip(active, boundaries))
    axes = tuple(GridAxis(name, -1.0, 1.0, 33 if k in kinds else 1, kinds.get(k, "zero"))
                 for k, name in enumerate(chart.coord_names))
    values = _random_values(tuple(a.size for a in axes), len(active))
    times = [0.004, 0.01]
    with np.errstate(all="ignore"):
        got = solve_density_grid(_dyn(chart, H), lambda pts: values.ravel(), times, axes=axes)
        want = reference_snapshots(chart, H, GridDensity(chart, axes, values), times, None)
    assert [g.values.tobytes() for g in got] == [w.values.tobytes() for w in want]


@pytest.mark.parametrize("kind", [ChartKind.CONTACT, ChartKind.COCONTACT])
def test_a_grid_solve_builds_no_point_grid(monkeypatch, kind):
    # the solve's own sample of a `Poly` density, the setup's velocities and
    # the source all evaluate on broadcast views of the axis centers
    chart = Chart(kind, 1)
    axes = tuple(GridAxis(name, -2.0, 2.0, 1 if name == "t" else 32) for name in chart.coord_names)
    dyn = _dyn(chart, chart.parse("p1^2/2 + q1^2/2 + z/5"))
    assert not kinetic_terms(dyn)[0].is_zero()  # a source, evaluated on the grid

    def refuse(*args, **kwargs):
        raise AssertionError("a point grid was built")

    monkeypatch.setattr(kinetics, "_cell_centers", refuse)
    monkeypatch.setattr(np, "meshgrid", refuse)
    (grid,) = solve_density_grid(dyn, chart.parse("1 + q1^2*p1^2/10"), [0.004], 0.002,
                                 axes=axes)
    assert np.isfinite(grid.values).all()


def test_the_grid_solve_holds_a_fixed_number_of_grid_arrays():
    """The traced peak of a solve, its own sample of f0 included, does not
    grow with its step count, and stays under 10 grid arrays (32^3 contact
    cells, three active axes and a source: 9.6 measured, since the sample
    is gone before the workspace is allocated; a step that allocates its
    stages reaches 11.9)."""
    chart = Chart(ChartKind.CONTACT, 1)
    axes = tuple(GridAxis(name, -2.0, 2.0, 32) for name in chart.coord_names)
    f0 = chart.parse("1 + q1^2*p1^2/10")
    dyn = _dyn(chart, chart.parse("p1^2/2 + q1^2/2 + z/5"))
    grid = 32 ** 3 * 8
    peaks = {}
    for steps in (10, 40):
        _, peaks[steps] = traced_peak(
            lambda: solve_density_grid(dyn, f0, [steps * 0.002], 0.002, axes=axes))
    assert abs(peaks[40] - peaks[10]) < grid / 2
    assert peaks[40] < 10 * grid


# Three ways a particle run overflows, each caught where it happens.  The
# contact runs keep p1 and z collapsed at 0, so nothing moves and only the
# weights grow, by dw/ds = R_eta(H) w = c w.
_COLLAPSED_CONTACT = (GridAxis("q1", -1.0, 1.0, 32), GridAxis("p1", -1e-3, 1e-3, 1),
                      GridAxis("z", -1e-3, 1e-3, 1))
_OVERFLOWS = {
    # q1^24 at |q1| ~ 1e20 is past float range: the seeded weights are inf
    "seeded": (_SYM, "p1^2/2", "q1^24",
               (GridAxis("q1", -1e20, 1e20, 32), GridAxis("p1", -2.0, 2.0, 32)), 1.0, 0.5),
    # one RK4 step of h c = 1e100: the last stage overflows mid-push
    "pushed": (Chart(ChartKind.CONTACT, 1), "10^100*z", "1", _COLLAPSED_CONTACT, 1.0, 1.0),
    # e^258 growth keeps the weights (about 1e-8 * f0 each) finite but takes
    # the density they deposit (about f0) past float range
    "deposited": (Chart(ChartKind.CONTACT, 1), "258*z", "10^200", _COLLAPSED_CONTACT, 1.0, 0.001),
}


@pytest.mark.parametrize("case", sorted(_OVERFLOWS))
def test_particle_runs_that_lose_finiteness_are_refused(case):
    chart, H, f0, axes, t_final, dt = _OVERFLOWS[case]
    with np.errstate(all="ignore"), pytest.raises(StabilityError, match="not finite"):
        solve_density_particle(_dyn(chart, chart.parse(H)), chart.parse(f0), t_final, dt, 1000,
                               axes=axes)
