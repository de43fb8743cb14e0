"""The nonzero tensor walks against the dense walks they replaced.

`contract_twoform`, `lie_derivative_twoform`, `lie_derivative_oneform`,
`exterior_derivative_oneform` and `sharp` visit only nonzero components.
`tests/helpers.py` keeps the dense walks they replaced, which read every
entry and take every partial.  Both sum the same nonzero terms in the
same order, so they must give the same components, term for term and in
the same term order, and raise the same first degree-cap or
product-budget error.
"""

import random
from itertools import combinations_with_replacement

import pytest
from hypothesis import given, settings, strategies as st

from geokin.brackets import BracketKind, bracket
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
    reeb_eta,
    reeb_tau,
    two_form_omega,
)
from geokin.corpus import random_hamiltonian, random_one_form, random_poly
from geokin.density import momentum_map
from geokin.fields import (
    Family,
    Gauge,
    catalog,
    diagnostics,
    divergence,
    exterior_derivative_oneform,
    lie_derivative_oneform,
    lie_derivative_twoform,
    make_field,
)
from geokin.musical import SharpVariant, sharp
from geokin.poly import MAX_TOTAL_DEGREE, DegreeOverflowError, Poly, ProductBudgetError
from helpers import (
    dense_contract_twoform,
    dense_exterior_derivative_oneform,
    dense_lie_derivative_oneform,
    dense_lie_derivative_twoform,
    dense_sharp,
)

CHARTS = [Chart(kind, n) for kind in ChartKind for n in (1, 2, 3)]


def outcome(fn, *args):
    """The components `fn(*args)` returns, each as its terms in order, or
    the type and message of the degree-cap or product-budget error it raises."""
    try:
        return [list(c.terms.items()) for c in fn(*args).components]
    except DegreeOverflowError as exc:
        return type(exc), str(exc)


def walk_outcomes(X, alpha, B):
    """{walk: (nonzero walk's outcome, dense walk's outcome)} on one input."""
    cases = {
        "contract_twoform": (contract_twoform, dense_contract_twoform, (X, B)),
        "lie_derivative_twoform": (lie_derivative_twoform, dense_lie_derivative_twoform, (X, B)),
        "lie_derivative_oneform": (lie_derivative_oneform, dense_lie_derivative_oneform,
                                   (X, alpha)),
        "exterior_derivative_oneform": (exterior_derivative_oneform,
                                        dense_exterior_derivative_oneform, (alpha,)),
        "sharp": (sharp, dense_sharp, (alpha, SharpVariant.FULL)),
        "sharp_bivector": (sharp, dense_sharp, (alpha, SharpVariant.BIVECTOR)),
    }
    return {name: (outcome(walk, *args), outcome(dense, *args))
            for name, (walk, dense, args) in cases.items()}


def assert_walks_agree(X, alpha, B):
    for name, (got, want) in walk_outcomes(X, alpha, B).items():
        assert got == want, name


def structured_two_forms(chart):
    """Omega, d(eta) on z-charts, the zero form and two basis elements."""
    size = TwoFormExpr.size(chart)
    forms = [two_form_omega(chart), TwoFormExpr(chart, (chart.zero(),) * size),
             TwoFormExpr.basis(chart, 0), TwoFormExpr.basis(chart, size - 1)]
    if chart.has_z:
        forms.append(exterior_derivative_oneform(canonical_eta(chart)))
    return forms


# -- random forms ---------------------------------------------------------

LIGHT = ("zero", "one", "coordinate", "poly")
# "heavy" products can pass the degree cap, and a "cap" term passes it
# times any coordinate
HEAVY = LIGHT + ("heavy", "cap")


def component(rng, chart, kind):
    if kind == "zero":
        return chart.zero()
    if kind == "one":
        return chart.const(1)
    if kind == "coordinate":
        return chart.coordinate(rng.randrange(chart.dim))
    if kind == "cap":
        return chart.coordinate(rng.randrange(chart.dim)) ** MAX_TOTAL_DEGREE
    return random_poly(rng, chart.dim, degree=2 if kind == "poly" else 13, terms=3)


@st.composite
def tensors(draw, kinds):
    """(X, alpha, B) on a chart of any kind with n = 1..3: components of
    the drawn kinds, and B either random or structured."""
    chart = draw(st.sampled_from(CHARTS))
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    kind = st.sampled_from(kinds)

    def comps(size):
        return tuple(component(rng, chart, draw(kind)) for _ in range(size))

    X = VectorFieldExpr(chart, comps(chart.dim))
    alpha = OneFormExpr(chart, comps(chart.dim))
    B = draw(st.sampled_from([None, *structured_two_forms(chart)]))
    return X, alpha, B or TwoFormExpr(chart, comps(TwoFormExpr.size(chart)))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(tensors(LIGHT))
def test_nonzero_walks_match_the_dense_walks_on_random_forms(sample):
    assert_walks_agree(*sample)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(tensors(HEAVY))
def test_nonzero_walks_raise_the_dense_walks_first_degree_error(sample):
    assert_walks_agree(*sample)


# -- the corpus -------------------------------------------------------------


@pytest.mark.parametrize("chart", CHARTS, ids=str)
def test_nonzero_walks_match_the_dense_walks_on_structured_forms(chart):
    rng = random.Random(2100 + 10 * chart.dim + chart.n)
    H = random_hamiltonian(rng, chart, z_free=True)
    d = chart.dim
    fields = [make_field(spec, H) for spec in catalog(chart)]
    fields += [VectorFieldExpr(chart, (chart.zero(),) * d),
               VectorFieldExpr.basis(chart, 0), VectorFieldExpr.basis(chart, d - 1)]
    fields += [reeb(chart) for reeb, has in ((reeb_tau, chart.has_time), (reeb_eta, chart.has_z))
               if has]
    forms = [differential(H, chart), random_one_form(rng, chart),
             OneFormExpr(chart, (chart.zero(),) * d), OneFormExpr.basis(chart, d - 1)]
    forms += [form(chart) for form, has in ((canonical_tau, chart.has_time),
                                            (canonical_eta, chart.has_z)) if has]
    two_forms = structured_two_forms(chart) + [exterior_derivative_oneform(forms[1])]
    # every field meets every one-form and every two-form
    for X in fields:
        for i in range(max(len(forms), len(two_forms))):
            assert_walks_agree(X, forms[i % len(forms)], two_forms[i % len(two_forms)])


def test_the_walks_raise_the_same_first_degree_error():
    chart = Chart(ChartKind.COCONTACT, 2)
    d = chart.dim
    x = chart.coordinate
    # every product of a component of X with one of B, or with a partial of
    # one, has degree 24 to 28: past the cap, each by its own amount
    X = VectorFieldExpr(chart, tuple(x(i) ** (12 + i % 3) for i in range(d)))
    alpha = OneFormExpr(chart, tuple(x(i) ** (13 + i % 4) for i in range(d - 1))
                        + (x(0) ** MAX_TOTAL_DEGREE,))
    B = TwoFormExpr(chart, tuple(x(s % d) ** (12 + s % 5) * x((s + 1) % d)
                                 for s in range(TwoFormExpr.size(chart))))
    outcomes = walk_outcomes(X, alpha, B)
    for name in ("contract_twoform", "lie_derivative_twoform", "lie_derivative_oneform",
                 "sharp"):
        got, want = outcomes[name]
        assert got == want, name
        assert got[0] is DegreeOverflowError, name


def many_terms(dim, count, degree=10):
    """A polynomial with `count` distinct terms of degree <= `degree`."""
    exps = []
    for total in range(degree + 1):
        for slots in combinations_with_replacement(range(dim), total):
            exps.append(tuple(slots.count(i) for i in range(dim)))
    assert len(exps) >= count
    return Poly(dim, {e: k + 1 for k, e in enumerate(exps[:count])})


def test_the_walks_raise_the_same_product_budget_error():
    chart = Chart(ChartKind.SYMPLECTIC, 2)
    d = chart.dim
    # the pair count at the first term past the budget depends on the order
    # of the terms before it
    X = VectorFieldExpr(chart, tuple(many_terms(d, 600 + 100 * i) for i in range(d)))
    alpha = OneFormExpr(chart, tuple(many_terms(d, 700 - 100 * i) for i in range(d)))
    B = TwoFormExpr(chart, tuple(many_terms(d, 500 + 50 * s)
                                 for s in range(TwoFormExpr.size(chart))))
    outcomes = walk_outcomes(X, alpha, B)
    for name in ("contract_twoform", "lie_derivative_twoform", "lie_derivative_oneform"):
        got, want = outcomes[name]
        assert got == want, name
        assert got[0] is ProductBudgetError, name


# -- what the walks skip --------------------------------------------------------


def test_the_walks_take_no_partial_of_a_zero_polynomial(monkeypatch):
    chart = Chart(ChartKind.COCONTACT, 8)
    X = make_field(catalog(chart)[0], random_hamiltonian(random.Random(8), chart))
    assert not X.components[chart.t_slot]  # gauge zero, so L_X tau meets a zero X^t
    omega, eta, tau = two_form_omega(chart), canonical_eta(chart), canonical_tau(chart)
    taken = {"all": 0, "zero": 0}
    partial = Poly.partial

    def counted(self, index):
        taken["all"] += 1
        taken["zero"] += not self
        return partial(self, index)

    monkeypatch.setattr(Poly, "partial", counted)
    assert X.derivative_terms(chart.zero()) == []
    assert taken["all"] == 0
    lie_derivative_twoform(X, omega)
    lie_derivative_oneform(X, eta)
    lie_derivative_oneform(X, tau)
    exterior_derivative_oneform(eta)
    assert taken["zero"] == 0 and taken["all"] > 0
    # the dense walk reads Omega's 145 zero components and differentiates each
    taken.update(all=0, zero=0)
    dense_lie_derivative_twoform(X, omega)
    assert taken["zero"] > 145


def test_the_exact_layers_agree_with_the_closed_forms_on_a_zero_polynomial(monkeypatch):
    """`differential`, `divergence`, `bracket`, `diagnostics`, `momentum_map`
    and `make_field` agree with the closed forms where a polynomial is zero;
    `differential` puts the chart's cached zero in every slot, with no
    partial taken.  The others differentiate a zero where they meet one:
    `Poly.partial` of a zero loops over no terms."""
    taken = []
    partial = Poly.partial
    monkeypatch.setattr(Poly, "partial", lambda self, i: taken.append(i) or partial(self, i))
    rng = random.Random(21)
    for chart in CHARTS:
        zero = chart.zero()
        taken.clear()
        assert differential(zero, chart).components == (zero,) * chart.dim
        assert taken == [], chart
        for spec in catalog(chart):
            # gauge zero leaves X^t zero; a t-free H leaves H_t zero under gauge grad H
            H = random_poly(rng, chart.dim, frozen_slots=(
                *((chart.z_slot,) if spec.family is Family.STRICT else ()),
                *((chart.t_slot,) if spec.gauge is Gauge.GRAD_H else ())))
            assert divergence(make_field(spec, H)) == diagnostics(spec, H).divergence
            assert divergence(make_field(spec, zero)) == diagnostics(spec, zero).divergence == zero
        H = random_hamiltonian(rng, chart)
        for kind in BracketKind:
            if kind.chart_kind is chart.kind:
                assert bracket(chart, kind, zero, H) == bracket(chart, kind, H, zero) == zero
        assert momentum_map(OneFormExpr(chart, (zero,) * chart.dim)) == zero
        assert taken, chart  # the count sees the other layers' partials
