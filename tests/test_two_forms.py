"""Two-forms against full-matrix oracles.

A `TwoFormExpr` stores only its strict upper triangle.  The references
below build the whole d x d matrix the way the layer once did: every
entry from its own formula, summed by plain `+` and `*`, with no use of
antisymmetry.  Reading a two-form back through `helpers.entry` must give the
reference matrix entry for entry, B_kj = -B_jk and B_jj = 0 included.
"""

import random
from itertools import combinations

import pytest

from geokin.chart import (
    Chart,
    ChartKind,
    TwoFormExpr,
    VectorFieldExpr,
    contract_twoform,
    two_form_omega,
)
from geokin.corpus import random_one_form, random_poly
from geokin.fields import exterior_derivative_oneform, lie_derivative_twoform, wedge
from helpers import entry

ALL_CHARTS = [Chart(kind, n) for kind in ChartKind for n in (1, 2)]


def full(B):
    """The d x d matrix B stands for, read through `entry`."""
    d = B.chart.dim
    rows = [[B.chart.zero()] * d for _ in range(d)]
    for j in range(d):
        for k in range(d):
            e = entry(B, j, k)
            if e is not None:
                sign, comp = e
                rows[j][k] = comp if sign == 1 else -comp
    return rows


def zeros(chart):
    return [[chart.zero()] * chart.dim for _ in range(chart.dim)]


def ref_omega(chart):
    rows = zeros(chart)
    for i in range(1, chart.n + 1):
        rows[chart.q_slot(i)][chart.p_slot(i)] = chart.const(1)
        rows[chart.p_slot(i)][chart.q_slot(i)] = chart.const(-1)
    return rows


def ref_d(alpha):
    a = alpha.components
    d = alpha.chart.dim
    return [[a[k].partial(j) - a[j].partial(k) for k in range(d)] for j in range(d)]


def ref_wedge(alpha, beta):
    a, b = alpha.components, beta.components
    d = alpha.chart.dim
    return [[a[j] * b[k] - a[k] * b[j] for k in range(d)] for j in range(d)]


def ref_contract(X, rows):
    d = X.chart.dim
    out = []
    for k in range(d):
        acc = X.chart.zero()
        for j in range(d):
            acc = acc + X.components[j] * rows[j][k]
        out.append(acc)
    return out


def ref_lie(X, rows):
    d = X.chart.dim
    Xc = X.components
    out = zeros(X.chart)
    for j in range(d):
        for k in range(d):
            acc = X.chart.zero()
            for i in range(d):
                acc = acc + Xc[i] * rows[j][k].partial(i)
                acc = acc + rows[i][k] * Xc[i].partial(j)
                acc = acc + rows[j][i] * Xc[i].partial(k)
            out[j][k] = acc
    return out


def random_field(rng, chart):
    return VectorFieldExpr(chart, tuple(
        random_poly(rng, chart.dim, degree=2, terms=3, allow_zero=True)
        for _ in range(chart.dim)))


def random_two_form(rng, chart):
    """A two-form and its reference matrix, mirrored test-side."""
    comps = [random_poly(rng, chart.dim, degree=2, terms=2, allow_zero=True)
             for _ in range(TwoFormExpr.size(chart))]
    rows = zeros(chart)
    for (j, k), c in zip(combinations(range(chart.dim), 2), comps):
        rows[j][k], rows[k][j] = c, -c
    return TwoFormExpr(chart, tuple(comps)), rows


def assert_matches(B, rows):
    got = full(B)
    d = B.chart.dim
    for j in range(d):
        assert entry(B, j, j) is None
        for k in range(d):
            assert got[j][k] == rows[j][k], (j, k)
            assert got[k][j] == -got[j][k], (j, k)
    # the nonzero index lists column k's nonzero entries, in ascending rows
    for k, col in enumerate(B.columns):
        assert [i for i, _, _ in col] == [i for i in range(d) if rows[i][k]], k
        assert all((c if sign == 1 else -c) == rows[i][k] for i, sign, c in col), k


@pytest.mark.parametrize("chart", ALL_CHARTS, ids=str)
def test_two_form_layer_matches_full_matrix_oracle(chart):
    rng = random.Random(900 + 10 * chart.dim + chart.n)
    omega = two_form_omega(chart)
    assert_matches(omega, ref_omega(chart))
    for _ in range(5):
        alpha, beta = random_one_form(rng, chart), random_one_form(rng, chart)
        X = random_field(rng, chart)
        f = random_poly(rng, chart.dim, degree=2, terms=2)
        B, B_rows = random_two_form(rng, chart)

        d_alpha = exterior_derivative_oneform(alpha)
        assert_matches(d_alpha, ref_d(alpha))
        a_wedge_b = wedge(alpha, beta)
        assert_matches(a_wedge_b, ref_wedge(alpha, beta))

        for form, rows in ((omega, ref_omega(chart)), (d_alpha, ref_d(alpha)), (B, B_rows)):
            assert list(contract_twoform(X, form).components) == ref_contract(X, rows)
            assert_matches(lie_derivative_twoform(X, form), ref_lie(X, rows))
            assert_matches(form.scaled(f), [[c * f for c in row] for row in rows])

        total = [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(ref_d(alpha), B_rows)]
        assert_matches(d_alpha + B, total)
        assert_matches(d_alpha - d_alpha, zeros(chart))
        assert (d_alpha - d_alpha).is_zero()


def test_entry_index_round_trips_on_every_chart():
    # row order (0,1), (0,2), ..., (d-2,d-1), up to the largest chart (dim 34)
    for kind in ChartKind:
        for n in range(1, 17):
            chart = Chart(kind, n)
            pairs = list(combinations(range(chart.dim), 2))
            assert TwoFormExpr.size(chart) == len(pairs)
            for idx, (j, k) in enumerate(pairs):
                assert TwoFormExpr.slot(chart.dim, j, k) == idx


@pytest.mark.parametrize("kind", list(ChartKind), ids=lambda k: k.value)
def test_entry_reads_each_component_with_its_sign(kind):
    chart = Chart(kind, 16)
    # component idx holds the constant idx + 1, so every read names its slot
    B = TwoFormExpr(chart, tuple(chart.const(idx + 1) for idx in range(TwoFormExpr.size(chart))))
    for idx, (j, k) in enumerate(combinations(range(chart.dim), 2)):
        assert entry(B, j, k) == (1, chart.const(idx + 1))
        assert entry(B, k, j) == (-1, chart.const(idx + 1))
    assert all(entry(B, j, j) is None for j in range(chart.dim))


def test_entry_skips_vanishing_components():
    chart = Chart(ChartKind.CONTACT, 1)
    omega = two_form_omega(chart)
    q, p, z = chart.q_slot(1), chart.p_slot(1), chart.z_slot
    assert entry(omega, q, p) == (1, chart.const(1))
    assert entry(omega, p, q) == (-1, chart.const(1))
    assert entry(omega, q, z) is None and entry(omega, z, p) is None
