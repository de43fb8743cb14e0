"""Exact polynomial layer: ring behavior, calculus, parsing, printing."""

import math
import random
import struct
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from geokin.chart import Chart, ChartKind
from geokin.fields import Family, FieldSpec, Gauge, make_field
from geokin.poly import (
    DegreeOverflowError,
    ParseError,
    Poly,
    parse,
)
from geokin.corpus import random_poly

NAMES2 = ("x", "y")


def P(text, names=NAMES2):
    return parse(text, names)


def test_construction_prunes_zero_terms():
    p = Poly(2, {(1, 0): Fraction(0), (0, 1): Fraction(2)})
    assert (1, 0) not in p.terms
    assert p == Poly(2, {(0, 1): 2})


def test_zero_is_empty_term_map():
    assert Poly.zero(3).terms == {}
    assert Poly.zero(3).is_zero()
    assert (P("x") - P("x")).terms == {}


def test_basic_arithmetic_examples():
    assert P("(x + y)^2") == P("x^2 + 2*x*y + y^2")
    assert P("x^2 - y^2") == P("(x - y)*(x + y)")
    assert P("0.5*x") == P("x/2")
    assert P("1/3 + 1/6") == P("0.5")


def test_coefficients_stay_exact():
    p = P("x/3")
    for _ in range(30):
        p = p + P("x/3")
    # 31 thirds, no drift
    assert p == Poly(2, {(1, 0): Fraction(31, 3)})


def test_ring_axioms_on_random_triples():
    rng = random.Random(7)
    for _ in range(60):
        a = random_poly(rng, 3, degree=3, terms=4, allow_zero=True)
        b = random_poly(rng, 3, degree=3, terms=4, allow_zero=True)
        c = random_poly(rng, 3, degree=3, terms=4, allow_zero=True)
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + Poly.zero(3) == a
        assert a * Poly.const(3, 1) == a
        assert (a - a).is_zero()


def test_partial_derivative_rules():
    rng = random.Random(8)
    for _ in range(40):
        a = random_poly(rng, 3, allow_zero=True)
        b = random_poly(rng, 3, allow_zero=True)
        for i in range(3):
            assert (a * b).partial(i) == a.partial(i) * b + a * b.partial(i)
            assert (a + b).partial(i) == a.partial(i) + b.partial(i)
        # mixed partials commute
        assert a.partial(0).partial(1) == a.partial(1).partial(0)


def test_partial_examples():
    assert P("x^3").partial(0) == P("3*x^2")
    assert P("x*y").partial(1) == P("x")
    assert P("7").partial(0).is_zero()


def test_degree_and_dependence():
    p = P("x^2*y + 4")
    assert p.total_degree() == 3
    assert Poly.zero(2).total_degree() == -1
    assert p.depends_on(0) and p.depends_on(1)
    assert not P("x^2").depends_on(1)


def test_degree_cap_is_enforced():
    # the cap of 24 admits degree 24 exactly
    assert (P("x^12") * P("x^12")).total_degree() == 24
    with pytest.raises(DegreeOverflowError):
        P("x^13") * P("x^12")


def test_pow_matches_repeated_multiplication():
    p = P("x + 2*y - 1")
    q = Poly.const(2, 1)
    for _ in range(5):
        q = q * p
    assert p ** 5 == q
    assert p ** 0 == Poly.const(2, 1)
    with pytest.raises(ValueError):
        p ** -1


def test_division_only_by_rationals():
    assert P("x") / 2 == P("x/2")
    assert P("x") / Fraction(1, 3) == P("3*x")
    with pytest.raises(TypeError):
        P("x") / P("y")
    with pytest.raises(ZeroDivisionError):
        P("x") / 0


def test_eval_scalar_and_errors():
    p = P("x^2 + y/2")
    assert p.eval([2.0, 4.0]) == pytest.approx(6.0)
    assert p([2.0, 4.0]) == pytest.approx(6.0)
    with pytest.raises(ValueError):
        p.eval([1.0])
    with pytest.raises(ValueError):
        p.eval([math.nan, 0.0])


def test_eval_deterministic():
    rng = random.Random(9)
    p = random_poly(rng, 4, degree=5, terms=12)
    pt = [0.3, -1.7, 2.2, 0.9]
    first = p.eval(pt)
    assert all(p.eval(pt) == first for _ in range(5))


def test_eval_array_matches_scalar():
    rng = random.Random(10)
    pts = np.array([
        [0.1, -0.4, 2.0, 0.3],
        [1.5, 0.0, -1.0, -2.5],
        [0.0, 0.0, 0.0, 0.0],
        [-0.0, 1e-3, 7.25, 1 / 3],
    ])
    # one coordinate layout per chart kind
    for names in (("q1", "p1"), ("t", "q1", "p1"), ("q1", "p1", "z"), ("t", "q1", "p1", "z")):
        dim = len(names)
        rows = pts[:, :dim]
        for p in (random_poly(rng, dim, degree=4, terms=8), parse("3/7", names), Poly.zero(dim)):
            vec = p.eval_array(rows.T)
            assert vec.shape == (len(rows),) and vec.dtype == np.float64
            # the same term walk: bit-identical, not merely close
            assert np.array_equal(vec, [p.eval(row) for row in rows])


def reference_walk(p, xs):
    """The graded-lex walk that the compiled kernel must reproduce, as a
    loop: one float, or one numpy column, per coordinate in `xs`."""
    graded_lex = sorted(p.terms.items(), key=lambda kv: (-sum(kv[0]), [-e for e in kv[0]]))
    powers = [[1.0] for _ in xs]
    total = 0.0
    for exps, coeff in graded_lex:
        term = float(coeff)
        for i, e in enumerate(exps):
            if e:
                cache = powers[i]
                while len(cache) <= e:
                    cache.append(cache[-1] * xs[i])
                term *= cache[e]
        total += term
    return total


@st.composite
def terms_of_degree_8(draw, dim):
    terms = {}
    for _ in range(draw(st.integers(1, 12))):
        budget, exps = draw(st.integers(0, 8)), []
        for _ in range(dim):
            exps.append(draw(st.integers(0, budget)))
            budget -= exps[-1]
        terms[tuple(draw(st.permutations(exps)))] = draw(
            st.fractions(min_value=-10 ** 6, max_value=10 ** 6, max_denominator=10 ** 4))
    return Poly(dim, terms)


@st.composite
def polys(draw):
    shape = draw(st.sampled_from(["terms", "field", "constant", "zero"]))
    if shape == "field":  # a Hamiltonian field component on one of the four chart layouts
        chart = Chart(draw(st.sampled_from(list(ChartKind))), 1)
        spec = FieldSpec(chart, Family.HAMILTONIAN, Gauge.ZERO if chart.has_time else None)
        X = make_field(spec, draw(terms_of_degree_8(chart.dim)))
        return draw(st.sampled_from(X.components))
    dim = draw(st.integers(1, 5))
    if shape == "constant":
        return Poly.const(dim, draw(st.fractions(-10 ** 6, 10 ** 6, max_denominator=10 ** 4)))
    return Poly.zero(dim) if shape == "zero" else draw(terms_of_degree_8(dim))


# -0.0, subnormal, tiny and large magnitudes; |x| <= 1e30 keeps degree-8 values finite
COORDINATES = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-300, -1e-160,
                     1.0, -1.0, 1 / 3, 1e15, -1e30, 1e30]),
    st.floats(min_value=-1e30, max_value=1e30),
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(data=st.data())
def test_kernel_is_bit_identical_to_the_reference_walk(data):
    p = data.draw(polys())
    rows = data.draw(st.lists(st.lists(COORDINATES, min_size=p.dim, max_size=p.dim),
                              min_size=1, max_size=6))
    # plus generic points, where the order of the float operations shows in the last bits
    rng = data.draw(st.randoms(use_true_random=False))
    pts = np.array(rows + [[rng.uniform(-2, 2) for _ in range(p.dim)] for _ in range(16)])
    # bytes, not ==, so that a -0.0 where the walk gives 0.0 counts
    for row in pts:
        want = reference_walk(p, [float(x) for x in row])
        assert struct.pack("<d", p.eval(row)) == struct.pack("<d", want)
    want = reference_walk(p, [pts[:, i] for i in range(p.dim)])
    want = np.broadcast_to(np.asarray(want, dtype=float), (len(pts),))
    assert p.eval_array(pts.T).tobytes() == want.tobytes()
    assert p.eval_array(pts.T).tobytes() == np.array([p.eval(row) for row in pts]).tobytes()


def test_kernel_is_built_once_and_the_checks_still_fire():
    p = P("x^3*y - 2*y^2 + 1/3")
    assert p._kernel is None  # nothing is compiled before the first evaluation
    first = p.eval([0.5, -1.5])
    kernel = p._kernel
    assert kernel is not None
    p.eval([2.0, 3.0])
    p.eval_array(np.ones((4, 2)).T)
    assert p._kernel is kernel and p.eval([0.5, -1.5]) == first
    assert (p + 0)._kernel is None  # a new polynomial compiles its own
    for bad in ([1.0], [1.0, 2.0, 3.0]):
        with pytest.raises(ValueError, match="expected 2"):
            p.eval(bad)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="non-finite"):
            p.eval([bad, 0.0])
    for bad in (np.ones((4, 3)).T, [np.ones(4), np.ones(3)], [1.0, 2.0], np.ones((2, 4, 1))):
        with pytest.raises(ValueError, match="shape"):
            p.eval_array(bad)
    columns = [np.array([0.5, 2.0]), np.array([-1.5, 3.0])]  # a list of columns, or an array's .T
    assert p.eval_array(columns).tolist() == [first, p.eval([2.0, 3.0])]
    assert p._kernel is kernel


def test_coefficients_outside_float_range_raise_on_first_evaluation():
    p = Poly(1, {(1,): Fraction(10 ** 400)})
    with pytest.raises(OverflowError):
        p.eval([1.0])
    assert p._kernel is None


def test_remap_between_dimensions():
    p = P("x^2 + y")  # dims (x, y) -> slots (0, 2) of a 3d chart
    q = p.remap(3, {0: 0, 1: 2})
    assert q == parse("a^2 + c", ("a", "b", "c"))
    with pytest.raises(ValueError):
        p.remap(3, {0: 0})  # y used but unmapped
    with pytest.raises(ValueError):
        p.remap(3, {0: 1, 1: 1})  # not injective


def test_print_parse_roundtrip_is_identity():
    rng = random.Random(11)
    names = ("t", "q1", "p1", "z")
    for _ in range(40):
        p = random_poly(rng, 4, degree=4, terms=6, allow_zero=True)
        text = p.to_text(names)
        assert parse(text, names) == p
        # canonical form is a fixed point of print->parse->print
        assert parse(text, names).to_text(names) == text


def test_print_examples():
    assert Poly.zero(2).to_text(NAMES2) == "0"
    assert P("y + x").to_text(NAMES2) == "x + y"
    assert P("-x/2 + x^2*y").to_text(NAMES2) == "x^2*y - 1/2*x"


def test_parse_error_offsets():
    with pytest.raises(ParseError) as err:
        P("x + )")
    assert err.value.offset == 4
    with pytest.raises(ParseError) as err:
        P("x + w2")
    assert err.value.offset == 4
    assert "w2" in str(err.value)
    with pytest.raises(ParseError):
        P("x ^ 1.5")
    with pytest.raises(ParseError):
        P("x / y")
    with pytest.raises(ParseError):
        P("x / 0")
    with pytest.raises(ParseError):
        P("")


def test_constant_powers_outside_float_range_are_parse_errors():
    # refused before the exact power is built
    for text in ("2^5000", "(1/2)^5000", "3^5000", "1.5^5000"):
        with pytest.raises(ParseError, match="outside float range"):
            P(text)
    assert P("2^1023").constant_value() == 2 ** 1023
    assert P("1^10000000000") == 1
    assert P("0^10000000000") == 0


def test_parse_gates_variables_by_name_set():
    assert parse("t*z", ("t", "q1", "p1", "z")) == Poly(4, {(1, 0, 0, 1): 1})
    with pytest.raises(ParseError):
        parse("t", ("q1", "p1"))  # no time coordinate on this chart


def test_decimal_literals_are_exact():
    assert P("0.125*x") == Poly(2, {(1, 0): Fraction(1, 8)})
    assert P("2.50") == Poly.const(2, Fraction(5, 2))
