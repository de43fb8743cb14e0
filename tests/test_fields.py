"""Field catalog: coordinate displays, contractions, diagnostics, Lie laws.

The oracle here builds every catalog row directly from its displayed
coordinate formula; the module under test builds them through the
musical layer.  The two routes must agree exactly.
"""

import random

import pytest

from geokin import chart as chart_module
from geokin.brackets import BracketKind, bracket, canonical_bracket_kind
from geokin.chart import (
    Chart,
    ChartKind,
    OneFormExpr,
    TwoFormExpr,
    VectorFieldExpr,
    canonical_eta,
    canonical_tau,
    contract_twoform,
    differential,
    pairing,
    reeb_eta,
    reeb_tau,
    two_form_omega,
)
from geokin.corpus import random_hamiltonian, random_one_form
from geokin.density import MomentumOneForm, momentum_vlasov_rhs
from geokin.fields import (
    Family,
    FieldSpec,
    Gauge,
    StrictnessError,
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
from geokin.musical import SharpVariant, flat, sharp
from geokin.poly import Poly

ALL_CHARTS = [Chart(kind, n) for kind in ChartKind for n in (1, 2)]


def display_field(spec: FieldSpec, H: Poly) -> VectorFieldExpr:
    """Coordinate-display construction of each catalog row (the oracle)."""
    chart = spec.chart
    comps = [chart.zero() for _ in range(chart.dim)]
    Hz = H.partial(chart.z_slot) if chart.has_z else None
    p_dot_Hp = chart.zero()
    for i in range(1, chart.n + 1):
        qs, ps = chart.q_slot(i), chart.p_slot(i)
        comps[qs] = H.partial(ps)
        drag = H.partial(qs)
        if Hz is not None and spec.family is not Family.STRICT:
            drag = drag + chart.coordinate(ps) * Hz
        comps[ps] = -drag
        p_dot_Hp = p_dot_Hp + chart.coordinate(ps) * H.partial(ps)
    if chart.has_z:
        comps[chart.z_slot] = p_dot_Hp if spec.family is Family.ENERGY else p_dot_Hp - H
    if chart.has_time:
        comps[chart.t_slot] = {
            Gauge.ZERO: chart.zero(),
            Gauge.ONE: chart.const(1),
            Gauge.GRAD_H: H.partial(chart.t_slot),
        }[spec.gauge]
    return VectorFieldExpr(chart, tuple(comps))


def hamiltonians_for(chart: Chart, spec: FieldSpec, rng: random.Random, count: int):
    for _ in range(count):
        yield random_hamiltonian(rng, chart, z_free=spec.family is Family.STRICT)


def test_catalog_sizes_total_sixteen():
    sizes = {kind: len(catalog(Chart(kind, 1))) for kind in ChartKind}
    assert sizes == {
        ChartKind.SYMPLECTIC: 1,
        ChartKind.COSYMPLECTIC: 3,
        ChartKind.CONTACT: 3,
        ChartKind.COCONTACT: 9,
    }
    assert sum(sizes.values()) == 16


def test_spec_validation():
    with pytest.raises(ValueError):
        FieldSpec(Chart(ChartKind.SYMPLECTIC, 1), Family.ENERGY)
    with pytest.raises(ValueError):
        FieldSpec(Chart(ChartKind.SYMPLECTIC, 1), Family.HAMILTONIAN, Gauge.ZERO)
    with pytest.raises(ValueError):
        FieldSpec(Chart(ChartKind.COSYMPLECTIC, 1), Family.STRICT, Gauge.ZERO)
    with pytest.raises(ValueError):
        FieldSpec(Chart(ChartKind.COSYMPLECTIC, 1), Family.HAMILTONIAN, None)
    with pytest.raises(ValueError):
        FieldSpec(Chart(ChartKind.CONTACT, 1), Family.ENERGY, Gauge.ONE)
    with pytest.raises(ValueError):
        FieldSpec(Chart(ChartKind.COCONTACT, 1), Family.HAMILTONIAN, None)


def test_strictness_enforced_symbolically():
    cc = Chart(ChartKind.COCONTACT, 1)
    spec = FieldSpec(cc, Family.STRICT, Gauge.ZERO)
    with pytest.raises(StrictnessError):
        make_field(spec, cc.parse("z + p1"))
    with pytest.raises(StrictnessError):
        diagnostics(spec, cc.parse("q1*z"))
    # z-free is fine even when other coordinates appear
    make_field(spec, cc.parse("t*q1 + p1^2/2"))


def test_pinned_cocontact_examples():
    cc = Chart(ChartKind.COCONTACT, 1)
    X = make_field(FieldSpec(cc, Family.HAMILTONIAN, Gauge.ZERO), cc.parse("p1^2/2 + z"))
    names = cc.coord_names
    assert [c.to_text(names) for c in X.components] == ["0", "p1", "-p1", "1/2*p1^2 - z"]
    d = diagnostics(FieldSpec(cc, Family.HAMILTONIAN, Gauge.ZERO), cc.parse("z"))
    assert d.divergence == -2
    assert d.dH_along_flow == cc.parse("-z")
    cc3 = Chart(ChartKind.COCONTACT, 3)
    d3 = diagnostics(FieldSpec(cc3, Family.ENERGY, Gauge.ONE), cc3.parse("z*t"))
    assert d3.divergence == cc3.parse("-3*t")
    assert d3.dH_along_flow == cc3.parse("z")


@pytest.mark.parametrize("chart", ALL_CHARTS, ids=str)
def test_musical_route_matches_coordinate_display(chart):
    rng = random.Random(110 + chart.dim)
    for spec in catalog(chart):
        for H in hamiltonians_for(chart, spec, rng, 8):
            assert make_field(spec, H) == display_field(spec, H), spec.row_name


@pytest.mark.parametrize("chart", ALL_CHARTS, ids=str)
def test_defining_contractions(chart):
    rng = random.Random(120 + chart.dim)
    omega = two_form_omega(chart)
    tau = canonical_tau(chart) if chart.has_time else None
    eta = canonical_eta(chart) if chart.has_z else None
    for spec in catalog(chart):
        for H in hamiltonians_for(chart, spec, rng, 6):
            X = make_field(spec, H)
            dH = differential(H, chart)
            expected = dH
            if chart.has_z:
                expected = expected - eta.scaled(pairing(dH, reeb_eta(chart)))
            if chart.has_time:
                expected = expected - tau.scaled(pairing(dH, reeb_tau(chart)))
            assert contract_twoform(X, omega) == expected, spec.row_name
            if chart.has_z:
                want = chart.zero() if spec.family is Family.ENERGY else -H
                assert pairing(eta, X) == want, spec.row_name
            if chart.has_time:
                gauge_value = {
                    Gauge.ZERO: chart.zero(),
                    Gauge.ONE: chart.const(1),
                    Gauge.GRAD_H: H.partial(chart.t_slot),
                }[spec.gauge]
                assert pairing(tau, X) == gauge_value, spec.row_name


@pytest.mark.parametrize("chart", ALL_CHARTS, ids=str)
def test_divergence_and_energy_rate_closed_forms(chart):
    # symbolic divergence of the constructed field vs the table value,
    # and X(H) vs the table value
    rng = random.Random(130 + chart.dim)
    for spec in catalog(chart):
        for H in hamiltonians_for(chart, spec, rng, 6):
            X = make_field(spec, H)
            d = diagnostics(spec, H)
            assert divergence(X) == d.divergence, spec.row_name
            assert X.apply_to(H) == d.dH_along_flow, spec.row_name


def expected_lie_eta(spec: FieldSpec, H: Poly):
    chart = spec.chart
    dH = differential(H, chart)
    eta = canonical_eta(chart)
    out = eta.scaled(-H.partial(chart.z_slot))
    if chart.has_time:
        out = out + canonical_tau(chart).scaled(-H.partial(chart.t_slot))
    if spec.family is Family.ENERGY:
        out = out + dH
    return out


@pytest.mark.parametrize(
    "chart", [Chart(k, n) for k in (ChartKind.CONTACT, ChartKind.COCONTACT) for n in (1, 2)], ids=str
)
def test_lie_derivative_of_eta_laws(chart):
    eta = canonical_eta(chart)
    rng = random.Random(140 + chart.dim)
    for spec in catalog(chart):
        for H in hamiltonians_for(chart, spec, rng, 5):
            X = make_field(spec, H)
            assert lie_derivative_oneform(X, eta) == expected_lie_eta(spec, H), spec.row_name


@pytest.mark.parametrize(
    "chart", [Chart(k, n) for k in (ChartKind.CONTACT, ChartKind.COCONTACT) for n in (1, 2)], ids=str
)
def test_lie_derivative_of_d_eta_laws(chart):
    # L_X d(eta) = -d(h) wedge eta - h d(eta) - d(g) wedge tau with
    # h = dH/dz and, on cocontact, g = dH/dt; strict rows keep only the
    # tau part (h vanishes identically there)
    eta = canonical_eta(chart)
    d_eta = exterior_derivative_oneform(eta)
    rng = random.Random(150 + chart.dim)
    for spec in catalog(chart):
        for H in hamiltonians_for(chart, spec, rng, 4):
            X = make_field(spec, H)
            h = H.partial(chart.z_slot)
            expected = wedge(differential(-h, chart), eta) + d_eta.scaled(-h)
            if chart.has_time:
                g = H.partial(chart.t_slot)
                expected = expected + wedge(differential(-g, chart), canonical_tau(chart))
            got = lie_derivative_twoform(X, d_eta)
            assert got == expected, spec.row_name
            # cross-check the Cartan route d(L_X eta)
            assert got == exterior_derivative_oneform(lie_derivative_oneform(X, eta))


@pytest.mark.parametrize(
    "chart", [Chart(k, n) for k in (ChartKind.COSYMPLECTIC, ChartKind.COCONTACT) for n in (1, 2)], ids=str
)
def test_lie_derivative_of_tau_laws(chart):
    tau = canonical_tau(chart)
    rng = random.Random(160 + chart.dim)
    for spec in catalog(chart):
        for H in hamiltonians_for(chart, spec, rng, 5):
            X = make_field(spec, H)
            got = lie_derivative_oneform(X, tau)
            if spec.gauge is Gauge.GRAD_H:
                assert got == differential(H.partial(chart.t_slot), chart), spec.row_name
            else:
                assert got.is_zero(), spec.row_name


@pytest.mark.parametrize("n", [1, 2])
def test_lie_derivative_of_omega_cosymplectic(n):
    # all three rows: L_X Omega = -d(dH/dt) wedge tau
    cs = Chart(ChartKind.COSYMPLECTIC, n)
    omega = two_form_omega(cs)
    rng = random.Random(170 + n)
    for spec in catalog(cs):
        for H in hamiltonians_for(cs, spec, rng, 5):
            X = make_field(spec, H)
            expected = wedge(differential(-H.partial(cs.t_slot), cs), canonical_tau(cs))
            assert lie_derivative_twoform(X, omega) == expected, spec.row_name


def test_symplectic_flow_preserves_omega():
    s = Chart(ChartKind.SYMPLECTIC, 2)
    omega = two_form_omega(s)
    rng = random.Random(180)
    spec = FieldSpec(s)
    for H in hamiltonians_for(s, spec, rng, 6):
        X = make_field(spec, H)
        assert lie_derivative_twoform(X, omega).is_zero()
        assert divergence(X).is_zero()


def test_conformal_diagnostics_match_lie_eta_coefficients():
    for kind in (ChartKind.CONTACT, ChartKind.COCONTACT):
        chart = Chart(kind, 1)
        rng = random.Random(190)
        for spec in catalog(chart):
            for H in hamiltonians_for(chart, spec, rng, 4):
                d = diagnostics(spec, H)
                assert d.conformal_eta == -H.partial(chart.z_slot)
                if chart.has_time:
                    assert d.conformal_tau == -H.partial(chart.t_slot)
                else:
                    assert d.conformal_tau is None
    s = Chart(ChartKind.SYMPLECTIC, 1)
    d = diagnostics(FieldSpec(s), s.parse("p1^2"))
    assert d.conformal_eta is None and d.conformal_tau is None


HOMOMORPHISM_ROWS = [
    (ChartKind.SYMPLECTIC, BracketKind.POISSON_SYMPLECTIC),
    (ChartKind.COSYMPLECTIC, BracketKind.POISSON_COSYMPLECTIC),
    (ChartKind.CONTACT, BracketKind.JACOBI_CONTACT),
    (ChartKind.COCONTACT, BracketKind.JACOBI_COCONTACT),
]


@pytest.mark.parametrize("chart_kind,bracket_kind", HOMOMORPHISM_ROWS, ids=lambda v: str(v))
@pytest.mark.parametrize("n", [1, 2])
def test_hamiltonian_fields_antihomomorphism(chart_kind, bracket_kind, n):
    # [X_F, X_H] = -X_{F,H} for the Hamiltonian/gauge-zero rows
    chart = Chart(chart_kind, n)
    gauge = Gauge.ZERO if chart.has_time else None
    spec = FieldSpec(chart, Family.HAMILTONIAN, gauge)
    rng = random.Random(210 + n)
    for _ in range(8):
        F = random_hamiltonian(rng, chart, degree=3, terms=3)
        H = random_hamiltonian(rng, chart, degree=3, terms=3)
        lhs = jacobi_lie_bracket(make_field(spec, F), make_field(spec, H))
        rhs = -make_field(spec, bracket(chart, bracket_kind, F, H))
        assert lhs == rhs


@pytest.mark.parametrize("chart_kind", [ChartKind.CONTACT, ChartKind.COCONTACT])
def test_strict_fields_antihomomorphism(chart_kind):
    # strict rows with z-free Hamiltonians close under the Jacobi bracket
    chart = Chart(chart_kind, 2)
    gauge = Gauge.ZERO if chart.has_time else None
    spec = FieldSpec(chart, Family.STRICT, gauge)
    kind = canonical_bracket_kind(chart.kind)
    rng = random.Random(220)
    for _ in range(8):
        F = random_hamiltonian(rng, chart, degree=3, terms=3, z_free=True)
        H = random_hamiltonian(rng, chart, degree=3, terms=3, z_free=True)
        lhs = jacobi_lie_bracket(make_field(spec, F), make_field(spec, H))
        rhs = -make_field(spec, bracket(chart, kind, F, H))
        assert lhs == rhs


def test_relation_gradient_vs_hamiltonian_cosymplectic():
    # grad H = X_H + sharp(<dH, R_tau> tau)
    cs = Chart(ChartKind.COSYMPLECTIC, 2)
    rng = random.Random(230)
    for _ in range(8):
        H = random_hamiltonian(rng, cs)
        grad = make_field(FieldSpec(cs, Family.HAMILTONIAN, Gauge.GRAD_H), H)
        ham = make_field(FieldSpec(cs, Family.HAMILTONIAN, Gauge.ZERO), H)
        correction = sharp(canonical_tau(cs).scaled(pairing(differential(H, cs), reeb_tau(cs))))
        assert grad == ham + correction


def test_relation_evolution_vs_sharp_cosymplectic():
    # E_H = sharp(dH) + R_tau - <dH, R_tau> R_tau
    cs = Chart(ChartKind.COSYMPLECTIC, 1)
    rng = random.Random(240)
    for _ in range(8):
        H = random_hamiltonian(rng, cs)
        evo = make_field(FieldSpec(cs, Family.HAMILTONIAN, Gauge.ONE), H)
        Ht = pairing(differential(H, cs), reeb_tau(cs))
        expected = sharp(differential(H, cs)) + reeb_tau(cs) - reeb_tau(cs).scaled(Ht)
        assert evo == expected


@pytest.mark.parametrize("chart_kind", [ChartKind.CONTACT, ChartKind.COCONTACT])
def test_relation_flow_derivative_vs_bracket(chart_kind):
    # X_H(F) = {F,H} - F * dH/dz for the Hamiltonian/gauge-zero rows
    chart = Chart(chart_kind, 1)
    gauge = Gauge.ZERO if chart.has_time else None
    spec = FieldSpec(chart, Family.HAMILTONIAN, gauge)
    kind = canonical_bracket_kind(chart.kind)
    rng = random.Random(250)
    for _ in range(10):
        F = random_hamiltonian(rng, chart)
        H = random_hamiltonian(rng, chart)
        lhs = make_field(spec, H).apply_to(F)
        rhs = bracket(chart, kind, F, H) - F * H.partial(chart.z_slot)
        assert lhs == rhs


def test_gauge_zero_keeps_time_frozen():
    for kind in (ChartKind.COSYMPLECTIC, ChartKind.COCONTACT):
        chart = Chart(kind, 2)
        rng = random.Random(260)
        for fam in (Family.HAMILTONIAN,) if kind is ChartKind.COSYMPLECTIC else Family:
            spec = FieldSpec(chart, fam, Gauge.ZERO)
            H = random_hamiltonian(rng, chart, z_free=fam is Family.STRICT)
            assert make_field(spec, H).components[chart.t_slot].is_zero()


def test_two_form_validation():
    # a two-form holds its strict upper triangle, so antisymmetry cannot fail;
    # a wrong component count can
    s = Chart(ChartKind.SYMPLECTIC, 1)
    with pytest.raises(ValueError, match="expected 1 components, got 2"):
        TwoFormExpr(s, (s.parse("1"), s.zero()))
    with pytest.raises(ValueError, match="expected 1 components, got 0"):
        TwoFormExpr(s, ())
    assert TwoFormExpr(s, (s.zero(),)).is_zero()


@pytest.mark.parametrize("cls", [OneFormExpr, VectorFieldExpr, TwoFormExpr, MomentumOneForm])
def test_the_public_constructors_refuse_a_wrong_count_or_dimension(cls):
    chart = Chart(ChartKind.CONTACT, 1)  # dim 3, and three two-form components
    right = (chart.zero(),) * cls.size(chart)
    with pytest.raises(ValueError, match="expected 3 components, got 4"):
        cls(chart, (*right, chart.zero()))
    with pytest.raises(ValueError, match="expected 3 components, got 2"):
        cls(chart, right[1:])
    with pytest.raises(ValueError, match="component dimension 2 does not match chart dim 3"):
        cls(chart, (*right[1:], Poly.zero(2)))
    assert cls(chart, right).is_zero()


def test_the_algebra_does_not_recheck_the_tensors_it_builds(monkeypatch):
    """Sums, negatives, multiples, basis elements and the Cartan and
    musical layers build from checked tensors, so they skip the component
    check; each result still has the right count, dimension and type."""
    calls = []
    check = chart_module._check_components
    monkeypatch.setattr(chart_module, "_check_components", lambda *a: calls.append(a) or check(*a))
    for chart in ALL_CHARTS:
        rng = random.Random(f"unchecked/{chart.kind.value}/{chart.n}")
        H = random_hamiltonian(rng, chart)
        alpha, beta = random_one_form(rng, chart), random_one_form(rng, chart)
        Pi = MomentumOneForm(chart, alpha.components)
        calls.clear()
        X = make_field(FieldSpec(chart, Family.HAMILTONIAN,
                                 Gauge.ZERO if chart.has_time else None), H)
        B = exterior_derivative_oneform(alpha)
        results = [
            (X, VectorFieldExpr), (B, TwoFormExpr), (differential(H, chart), OneFormExpr),
            (alpha + beta, OneFormExpr), (alpha - Pi, OneFormExpr), (-B, TwoFormExpr),
            (B + wedge(alpha, beta), TwoFormExpr), (X.scaled(H), VectorFieldExpr),
            (Pi.scaled(3), OneFormExpr), (OneFormExpr.basis(chart, 0), OneFormExpr),
            (TwoFormExpr.basis(chart, 0), TwoFormExpr),
            (VectorFieldExpr.basis(chart, chart.dim - 1), VectorFieldExpr),
            (contract_twoform(X, B), OneFormExpr), (flat(X), OneFormExpr),
            (sharp(alpha), VectorFieldExpr), (sharp(alpha, SharpVariant.BIVECTOR), VectorFieldExpr),
            (lie_derivative_oneform(X, alpha), OneFormExpr),
            (lie_derivative_twoform(X, B), TwoFormExpr),
            (jacobi_lie_bracket(X, sharp(beta)), VectorFieldExpr),
            (momentum_vlasov_rhs(H, Pi), OneFormExpr),
        ]
        assert calls == []
        with pytest.raises(ValueError, match="cannot add two-forms to one-forms"):
            alpha + B
        for result, cls in results:
            assert type(result) is cls
            assert check(chart, result.components, cls.size(chart)) == result.components
            assert type(result.components) is tuple
