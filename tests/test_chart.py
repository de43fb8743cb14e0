"""Chart layouts, canonical forms, Reeb fields, pairings."""

import dataclasses

import pytest

from geokin.chart import (
    Chart,
    ChartKind,
    OneFormExpr,
    canonical_eta,
    canonical_tau,
    contract_twoform,
    differential,
    pairing,
    reeb_eta,
    reeb_tau,
    two_form_omega,
)
from geokin.fields import exterior_derivative_oneform
from helpers import entry


def canonical_theta(chart):
    """The Liouville form Theta = p_i dq^i (every chart kind)."""
    comps = [chart.zero()] * chart.dim
    for i in range(1, chart.n + 1):
        comps[chart.q_slot(i)] = chart.coordinate(chart.p_slot(i))
    return OneFormExpr(chart, tuple(comps))


def test_dimensions():
    assert Chart(ChartKind.SYMPLECTIC, 1).dim == 2
    assert Chart(ChartKind.COSYMPLECTIC, 1).dim == 3
    assert Chart(ChartKind.CONTACT, 1).dim == 3
    assert Chart(ChartKind.COCONTACT, 1).dim == 4
    assert Chart(ChartKind.COCONTACT, 3).dim == 8
    with pytest.raises(ValueError):
        Chart(ChartKind.SYMPLECTIC, 0)


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("kind", list(ChartKind))
def test_chart_shape_is_computed_once_and_the_chart_stays_frozen(kind, n):
    chart, fresh = Chart(kind, n), Chart(kind, n)
    has_time = kind in (ChartKind.COSYMPLECTIC, ChartKind.COCONTACT)
    has_z = kind in (ChartKind.CONTACT, ChartKind.COCONTACT)
    assert not {"dim", "has_time", "has_z"} & set(vars(chart))  # nothing before the first read
    assert (chart.dim, chart.has_time, chart.has_z) == (2 * n + has_time + has_z, has_time, has_z)
    assert {"dim", "has_time", "has_z"} <= set(vars(chart))  # kept, not recomputed
    assert chart.dim == len(chart.coord_names)
    with pytest.raises(dataclasses.FrozenInstanceError):
        chart.n = n + 1
    assert chart.n == n and chart.dim == 2 * n + has_time + has_z
    # the cached shape is not a field: a chart that read it equals one that did not
    assert chart == fresh and hash(chart) == hash(fresh)
    assert "dim" not in vars(fresh) and chart != Chart(kind, n + 1)


def test_coordinate_layouts():
    assert Chart(ChartKind.SYMPLECTIC, 2).coord_names == ("q1", "q2", "p1", "p2")
    assert Chart(ChartKind.COSYMPLECTIC, 2).coord_names == ("t", "q1", "q2", "p1", "p2")
    assert Chart(ChartKind.CONTACT, 2).coord_names == ("q1", "q2", "p1", "p2", "z")
    assert Chart(ChartKind.COCONTACT, 2).coord_names == ("t", "q1", "q2", "p1", "p2", "z")


def test_slots_match_names():
    for kind in ChartKind:
        for n in (1, 2, 3):
            chart = Chart(kind, n)
            names = chart.coord_names
            for i in range(1, n + 1):
                assert names[chart.q_slot(i)] == f"q{i}"
                assert names[chart.p_slot(i)] == f"p{i}"
            if chart.has_time:
                assert names[chart.t_slot] == "t"
            if chart.has_z:
                assert names[chart.z_slot] == "z"


def test_slot_errors():
    s = Chart(ChartKind.SYMPLECTIC, 2)
    with pytest.raises(ValueError):
        s.t_slot
    with pytest.raises(ValueError):
        s.z_slot
    with pytest.raises(ValueError):
        s.q_slot(3)
    with pytest.raises(ValueError):
        s.p_slot(0)


def test_canonical_form_components():
    cc = Chart(ChartKind.COCONTACT, 2)
    names = cc.coord_names
    tau = canonical_tau(cc)
    assert [c.to_text(names) for c in tau.components] == ["1", "0", "0", "0", "0", "0"]
    eta = canonical_eta(cc)
    assert [c.to_text(names) for c in eta.components] == ["0", "-p1", "-p2", "0", "0", "1"]
    theta = canonical_theta(cc)
    assert [c.to_text(names) for c in theta.components] == ["0", "p1", "p2", "0", "0", "0"]


def test_forms_unavailable_off_chart():
    with pytest.raises(ValueError):
        canonical_tau(Chart(ChartKind.CONTACT, 1))
    with pytest.raises(ValueError):
        canonical_eta(Chart(ChartKind.COSYMPLECTIC, 1))
    with pytest.raises(ValueError):
        reeb_tau(Chart(ChartKind.SYMPLECTIC, 1))
    with pytest.raises(ValueError):
        reeb_eta(Chart(ChartKind.COSYMPLECTIC, 1))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_reeb_contractions_cocontact(n):
    # <tau, R_tau> = 1, <eta, R_tau> = 0, i_{R_tau} d(eta) = 0, and the
    # mirrored identities for R_eta.
    cc = Chart(ChartKind.COCONTACT, n)
    tau, eta = canonical_tau(cc), canonical_eta(cc)
    d_eta = exterior_derivative_oneform(eta)
    r_tau, r_eta = reeb_tau(cc), reeb_eta(cc)
    assert pairing(tau, r_tau) == 1
    assert pairing(eta, r_tau).is_zero()
    assert contract_twoform(r_tau, d_eta).is_zero()
    assert pairing(tau, r_eta).is_zero()
    assert pairing(eta, r_eta) == 1
    assert contract_twoform(r_eta, d_eta).is_zero()


def test_reeb_contractions_single_structure_charts():
    cs = Chart(ChartKind.COSYMPLECTIC, 2)
    assert pairing(canonical_tau(cs), reeb_tau(cs)) == 1
    assert contract_twoform(reeb_tau(cs), two_form_omega(cs)).is_zero()
    c = Chart(ChartKind.CONTACT, 2)
    eta = canonical_eta(c)
    assert pairing(eta, reeb_eta(c)) == 1
    assert contract_twoform(reeb_eta(c), exterior_derivative_oneform(eta)).is_zero()


def test_d_eta_equals_omega_matrix():
    # d(dz - p_i dq^i) = dq^i wedge dp_i with entry +1 at (q_i, p_i)
    for kind in (ChartKind.CONTACT, ChartKind.COCONTACT):
        chart = Chart(kind, 2)
        assert exterior_derivative_oneform(canonical_eta(chart)) == two_form_omega(chart)
    c1 = Chart(ChartKind.CONTACT, 1)
    d_eta = exterior_derivative_oneform(canonical_eta(c1))
    assert entry(d_eta, c1.q_slot(1), c1.p_slot(1)) == (1, c1.const(1))
    assert entry(d_eta, c1.p_slot(1), c1.q_slot(1)) == (-1, c1.const(1))


def test_theta_differential_is_minus_omega_convention():
    # d(Theta) = dp_i wedge dq^i = -Omega in our sign convention
    s = Chart(ChartKind.SYMPLECTIC, 2)
    assert exterior_derivative_oneform(canonical_theta(s)) == -two_form_omega(s)


def test_differential_and_pairing():
    cc = Chart(ChartKind.COCONTACT, 1)
    H = cc.parse("p1^2/2 + t*q1 + z")
    dH = differential(H, cc)
    names = cc.coord_names
    assert [c.to_text(names) for c in dH.components] == ["q1", "t", "p1", "1"]
    assert pairing(dH, reeb_tau(cc)) == cc.parse("q1")
    assert pairing(dH, reeb_eta(cc)) == 1


def test_parse_on_chart_gates_coordinates():
    c = Chart(ChartKind.CONTACT, 1)
    assert c.parse("z - p1*q1").dim == 3
    from geokin.poly import ParseError

    with pytest.raises(ParseError):
        c.parse("t + z")


def test_expression_algebra():
    cc = Chart(ChartKind.COCONTACT, 1)
    eta = canonical_eta(cc)
    theta = canonical_theta(cc)
    # eta + theta = dz
    total = eta + theta
    names = cc.coord_names
    assert [c.to_text(names) for c in total.components] == ["0", "0", "0", "1"]
    assert (eta - eta).is_zero()
    scaled = eta.scaled(cc.parse("2*t"))
    assert scaled.components[cc.z_slot] == cc.parse("2*t")


def test_vector_field_directional_derivative():
    cc = Chart(ChartKind.COCONTACT, 1)
    X = reeb_tau(cc).scaled(cc.parse("q1"))
    f = cc.parse("t^2 + p1")
    assert X.apply_to(f) == cc.parse("2*t*q1")
