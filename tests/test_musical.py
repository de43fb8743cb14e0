"""Sharp/flat maps: displayed component formulas, round trips, kernels."""

import random

import pytest

from geokin.chart import (
    Chart,
    ChartKind,
    OneFormExpr,
    canonical_eta,
    canonical_tau,
    pairing,
    reeb_eta,
    reeb_tau,
)
from geokin.corpus import random_one_form
from geokin.musical import (
    SharpVariant,
    flat,
    flat_sharp_residual,
    sharp,
    sharp_flat_residual,
)

ALL_CHARTS = [Chart(kind, n) for kind in ChartKind for n in (1, 2)]


def comps(expr, chart):
    return [c.to_text(chart.coord_names) for c in expr.components]


def _form(chart, by_name):
    parts = []
    for name in chart.coord_names:
        parts.append(chart.parse(by_name.get(name, "0")))
    return OneFormExpr(chart, tuple(parts))


def test_sharp_displays_per_chart():
    s = Chart(ChartKind.SYMPLECTIC, 1)
    assert comps(sharp(_form(s, {"q1": "1"})), s) == ["0", "-1"]  # dq1 -> -d/dp1
    assert comps(sharp(_form(s, {"p1": "1"})), s) == ["1", "0"]  # dp1 -> d/dq1

    cs = Chart(ChartKind.COSYMPLECTIC, 1)
    assert comps(sharp(_form(cs, {"t": "1"})), cs) == ["1", "0", "0"]  # dt -> d/dt
    assert comps(sharp(_form(cs, {"q1": "1"})), cs) == ["0", "0", "-1"]

    c = Chart(ChartKind.CONTACT, 1)
    # dz -> -p1 d/dp1 + d/dz
    assert comps(sharp(_form(c, {"z": "1"})), c) == ["0", "-p1", "1"]
    # dq1 -> -d/dp1
    assert comps(sharp(_form(c, {"q1": "1"})), c) == ["0", "-1", "0"]
    # dp1 -> d/dq1 + p1 d/dz
    assert comps(sharp(_form(c, {"p1": "1"})), c) == ["1", "0", "p1"]

    cc = Chart(ChartKind.COCONTACT, 1)
    assert comps(sharp(_form(cc, {"t": "1"})), cc) == ["1", "0", "0", "0"]
    assert comps(sharp(_form(cc, {"z": "1"})), cc) == ["0", "0", "-p1", "1"]
    assert comps(sharp(_form(cc, {"p1": "1"})), cc) == ["0", "1", "0", "p1"]


def test_sharp_general_cocontact_formula():
    # alpha = a_i dq + b^i dp + zeta dz + u dt maps to
    # b^i d/dq - (a_i + p_i zeta) d/dp + (zeta + b^i p_i) d/dz + u d/dt
    cc = Chart(ChartKind.COCONTACT, 2)
    alpha = _form(cc, {"t": "z", "q1": "q1", "q2": "p2", "p1": "t", "p2": "1", "z": "q2"})
    X = sharp(alpha)
    names = cc.coord_names
    assert X.components[cc.t_slot] == cc.parse("z")
    assert X.components[cc.q_slot(1)] == cc.parse("t")
    assert X.components[cc.q_slot(2)] == cc.parse("1")
    assert X.components[cc.p_slot(1)] == cc.parse("-(q1 + p1*q2)")
    assert X.components[cc.p_slot(2)] == cc.parse("-(p2 + p2*q2)")
    assert X.components[cc.z_slot] == cc.parse("q2 + t*p1 + p2")


def test_flat_displays():
    s = Chart(ChartKind.SYMPLECTIC, 1)
    from geokin.chart import VectorFieldExpr

    # flat(d/dq1) = i_{d/dq1} Omega = dp1
    assert comps(flat(VectorFieldExpr.basis(s, s.q_slot(1))), s) == ["0", "1"]
    # flat(d/dp1) = -dq1
    assert comps(flat(VectorFieldExpr.basis(s, s.p_slot(1))), s) == ["-1", "0"]
    c = Chart(ChartKind.CONTACT, 1)
    # flat(R_eta) = eta
    assert flat(reeb_eta(c)) == canonical_eta(c)
    cc = Chart(ChartKind.COCONTACT, 2)
    assert flat(reeb_eta(cc)) == canonical_eta(cc)
    assert flat(reeb_tau(cc)) == canonical_tau(cc)


@pytest.mark.parametrize("chart", ALL_CHARTS, ids=str)
def test_roundtrips_both_ways(chart):
    rng = random.Random(40 + chart.dim)
    for _ in range(12):
        alpha = random_one_form(rng, chart)
        assert flat_sharp_residual(alpha).is_zero()
        X = sharp(alpha)  # sharp is onto, so this samples vector fields too
        assert sharp_flat_residual(X).is_zero()


@pytest.mark.parametrize("chart", ALL_CHARTS, ids=str)
def test_bivector_is_full_minus_reeb_parts(chart):
    rng = random.Random(50 + chart.dim)
    for _ in range(10):
        alpha = random_one_form(rng, chart)
        expected = sharp(alpha)
        if chart.has_z:
            expected = expected - reeb_eta(chart).scaled(pairing(alpha, reeb_eta(chart)))
        if chart.has_time:
            expected = expected - reeb_tau(chart).scaled(pairing(alpha, reeb_tau(chart)))
        assert sharp(alpha, SharpVariant.BIVECTOR) == expected


def test_bivector_kernel_contains_canonical_forms():
    cc = Chart(ChartKind.COCONTACT, 2)
    assert sharp(canonical_tau(cc), SharpVariant.BIVECTOR).is_zero()
    assert sharp(canonical_eta(cc), SharpVariant.BIVECTOR).is_zero()
    c = Chart(ChartKind.CONTACT, 2)
    assert sharp(canonical_eta(c), SharpVariant.BIVECTOR).is_zero()
    cs = Chart(ChartKind.COSYMPLECTIC, 2)
    assert sharp(canonical_tau(cs), SharpVariant.BIVECTOR).is_zero()


def test_sharp_of_canonical_forms_hits_reeb_fields():
    cc = Chart(ChartKind.COCONTACT, 1)
    assert sharp(canonical_tau(cc)) == reeb_tau(cc)
    assert sharp(canonical_eta(cc)) == reeb_eta(cc)


def test_zero_form_maps_to_zero_field():
    for chart in ALL_CHARTS:
        zero = OneFormExpr(chart, (chart.zero(),) * chart.dim)
        assert sharp(zero).is_zero()
        assert sharp(zero, SharpVariant.BIVECTOR).is_zero()


@pytest.mark.parametrize("kind", [ChartKind.SYMPLECTIC, ChartKind.COSYMPLECTIC])
def test_sharp_forms_the_p_sum_only_on_charts_with_z(kind):
    # alpha^i p_i enters the z-component alone, so without z a dp-component
    # at the degree cap maps as it is instead of overflowing in p1 * p1^24
    chart = Chart(kind, 1)
    X = sharp(_form(chart, {"p1": "p1^24", "q1": "q1"}))
    assert comps(X, chart)[chart.q_slot(1):] == ["p1^24", "-q1"]
