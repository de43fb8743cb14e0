"""Bracket algebra: pinned values, Jacobi/Leibniz laws, dual routes."""

import random

import pytest

from geokin.brackets import (
    BracketKind,
    bracket,
    bracket_via_bivector,
    canonical_bracket_kind,
    jacobiator,
    jacobiator_witness,
    kinds_for_chart,
    leibniz_defect,
)
from geokin.chart import Chart, ChartKind
from geokin.corpus import random_hamiltonian
from geokin.poly import Poly

S1 = Chart(ChartKind.SYMPLECTIC, 1)
CS1 = Chart(ChartKind.COSYMPLECTIC, 1)
C1 = Chart(ChartKind.CONTACT, 1)
CC1 = Chart(ChartKind.COCONTACT, 1)


def chart_for(kind: BracketKind, n: int = 1) -> Chart:
    return Chart(kind.chart_kind, n)


ALL_KINDS = list(BracketKind)
JACOBI_HOLDS = [
    BracketKind.POISSON_SYMPLECTIC,
    BracketKind.POISSON_COSYMPLECTIC,
    BracketKind.JACOBI_CONTACT,
    BracketKind.JACOBI_COCONTACT,
]
LEIBNIZ_HOLDS = [
    BracketKind.POISSON_SYMPLECTIC,
    BracketKind.POISSON_COSYMPLECTIC,
    BracketKind.ALMOST_POISSON_CONTACT,
    BracketKind.ALMOST_POISSON_COCONTACT,
]


def test_pinned_values():
    assert bracket(S1, BracketKind.POISSON_SYMPLECTIC, S1.parse("q1"), S1.parse("p1")) == 1
    assert bracket(C1, BracketKind.JACOBI_CONTACT, C1.parse("z"), C1.parse("p1^2/2")) == C1.parse(
        "p1^2/2"
    )
    # weak-Leibniz defect for F=z, K=H=1 is exactly 1
    one = C1.parse("1")
    assert leibniz_defect(C1, BracketKind.JACOBI_CONTACT, C1.parse("z"), one, one) == 1


def test_kind_chart_gating():
    assert set(kinds_for_chart(ChartKind.CONTACT)) == {
        BracketKind.ALMOST_POISSON_CONTACT,
        BracketKind.JACOBI_CONTACT,
    }
    with pytest.raises(ValueError):
        bracket(S1, BracketKind.JACOBI_CONTACT, S1.parse("q1"), S1.parse("p1"))
    assert canonical_bracket_kind(ChartKind.COCONTACT) is BracketKind.JACOBI_COCONTACT


@pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.value)
@pytest.mark.parametrize("n", [1, 2])
def test_antisymmetry_and_bilinearity(kind, n):
    chart = chart_for(kind, n)
    rng = random.Random(100 + n)
    for _ in range(15):
        F = random_hamiltonian(rng, chart)
        G = random_hamiltonian(rng, chart)
        H = random_hamiltonian(rng, chart)
        assert bracket(chart, kind, F, H) == -bracket(chart, kind, H, F)
        assert bracket(chart, kind, F, F).is_zero()
        assert bracket(chart, kind, F + 2 * G, H) == bracket(chart, kind, F, H) + 2 * bracket(
            chart, kind, G, H
        )


@pytest.mark.parametrize("kind", JACOBI_HOLDS, ids=lambda k: k.value)
@pytest.mark.parametrize("n", [1, 2])
def test_jacobi_identity_exact(kind, n):
    chart = chart_for(kind, n)
    rng = random.Random(200 + n)
    for _ in range(12):
        F = random_hamiltonian(rng, chart, degree=3, terms=3)
        G = random_hamiltonian(rng, chart, degree=3, terms=3)
        H = random_hamiltonian(rng, chart, degree=3, terms=3)
        assert jacobiator(chart, kind, F, G, H).is_zero()


@pytest.mark.parametrize("kind", LEIBNIZ_HOLDS, ids=lambda k: k.value)
def test_leibniz_rule_exact(kind):
    chart = chart_for(kind)
    rng = random.Random(300)
    for _ in range(12):
        F = random_hamiltonian(rng, chart, degree=3, terms=3)
        K = random_hamiltonian(rng, chart, degree=2, terms=3)
        H = random_hamiltonian(rng, chart, degree=2, terms=3)
        assert leibniz_defect(chart, kind, F, K, H).is_zero()


@pytest.mark.parametrize(
    "kind", [BracketKind.JACOBI_CONTACT, BracketKind.JACOBI_COCONTACT], ids=lambda k: k.value
)
@pytest.mark.parametrize("n", [1, 2])
def test_weak_leibniz_defect_formula(kind, n):
    # {F, K*H} - K{F,H} - H{F,K} = K*H*dF/dz exactly
    chart = chart_for(kind, n)
    rng = random.Random(400 + n)
    for _ in range(12):
        F = random_hamiltonian(rng, chart, degree=3, terms=3)
        K = random_hamiltonian(rng, chart, degree=2, terms=3)
        H = random_hamiltonian(rng, chart, degree=2, terms=3)
        defect = leibniz_defect(chart, kind, F, K, H)
        assert defect == K * H * F.partial(chart.z_slot)


def _search_jacobiator_witness(chart, kind, seed, tries=200):
    """The randomized search the frozen witness came from: the first
    triple of monomials of total degree <= 2 with a nonzero jacobiator."""
    rng = random.Random(seed)

    def draw():
        exps = [0] * chart.dim
        for _ in range(rng.randint(1, 2)):
            exps[rng.randrange(chart.dim)] += 1
        return Poly.monomial(chart.dim, exps)

    for _ in range(tries):
        F, G, H = draw(), draw(), draw()
        if not jacobiator(chart, kind, F, G, H).is_zero():
            return F, G, H
    return None


@pytest.mark.parametrize(
    "kind",
    [BracketKind.ALMOST_POISSON_CONTACT, BracketKind.ALMOST_POISSON_COCONTACT],
    ids=lambda k: k.value,
)
def test_almost_poisson_jacobi_failure_witness(kind):
    chart = chart_for(kind)
    F, G, H = jacobiator_witness(chart, kind)
    value = jacobiator(chart, kind, F, G, H)
    assert value == -1  # frozen regression value for (z, p1, q1)
    # the randomized search the witness came from still finds one
    found = _search_jacobiator_witness(chart, kind, seed=2024)
    assert found is not None
    assert not jacobiator(chart, kind, *found).is_zero()


def test_witness_refused_for_jacobi_kinds():
    with pytest.raises(ValueError):
        jacobiator_witness(C1, BracketKind.JACOBI_CONTACT)


def test_cosymplectic_casimirs_are_functions_of_time():
    rng = random.Random(500)
    for _ in range(10):
        F = random_hamiltonian(rng, CS1)
        phi = CS1.parse("t^3 - 2*t + 1/2")
        assert bracket(CS1, BracketKind.POISSON_COSYMPLECTIC, F, phi).is_zero()


@pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.value)
@pytest.mark.parametrize("n", [1, 2])
def test_bivector_route_agrees(kind, n):
    # direct partial-derivative formula vs musical-layer route
    chart = chart_for(kind, n)
    rng = random.Random(600 + n)
    for _ in range(12):
        F = random_hamiltonian(rng, chart)
        H = random_hamiltonian(rng, chart)
        assert bracket(chart, kind, F, H) == bracket_via_bivector(chart, kind, F, H)


def test_jacobi_equals_almost_poisson_plus_reeb_terms():
    # {F,H}^Jac = {F,H}^AP + F dH/dz - H dF/dz on both z-charts
    for almost, jac in [
        (BracketKind.ALMOST_POISSON_CONTACT, BracketKind.JACOBI_CONTACT),
        (BracketKind.ALMOST_POISSON_COCONTACT, BracketKind.JACOBI_COCONTACT),
    ]:
        chart = chart_for(jac, 2)
        rng = random.Random(700)
        for _ in range(8):
            F = random_hamiltonian(rng, chart)
            H = random_hamiltonian(rng, chart)
            z = chart.z_slot
            assert bracket(chart, jac, F, H) == bracket(chart, almost, F, H) + F * H.partial(
                z
            ) - H * F.partial(z)
