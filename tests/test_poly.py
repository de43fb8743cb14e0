"""Exact polynomial layer: ring behavior, calculus, parsing, printing."""

import itertools
import math
import random
import struct
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from geokin.chart import (
    Chart,
    ChartKind,
    canonical_eta,
    canonical_tau,
    pairing,
    reeb_eta,
    reeb_tau,
    two_form_omega,
)
from geokin import budgets, codegen
from geokin.fields import Family, FieldSpec, Gauge, make_field
from geokin.musical import flat, sharp
from geokin.poly import (
    MAX_NESTING,
    MAX_TOTAL_DEGREE,
    DegreeOverflowError,
    KernelBudgetError,
    ParseError,
    Poly,
    ProductBudgetError,
    parse,
)
from geokin.corpus import random_poly
from helpers import oracle_parse, traced_peak

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


def total_degree(p):
    """Total degree of `p` from its public terms; -1 for the zero polynomial."""
    return max((sum(e) for e in p.terms), default=-1)


def test_degree_and_dependence():
    p = P("x^2*y + 4")
    assert total_degree(p) == 3
    assert total_degree(Poly.zero(2)) == -1
    assert p.depends_on(0) and p.depends_on(1)
    assert not P("x^2").depends_on(1)


def test_degree_cap_is_enforced():
    # the cap of 24 admits degree 24 exactly
    assert total_degree(P("x^12") * P("x^12")) == 24
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


@st.composite
def grid_polys(draw, chart):
    """A polynomial on `chart`'s coordinates: random terms, the same with
    some coordinates dropped, a Hamiltonian field component, a constant
    or zero."""
    shape = draw(st.sampled_from(["terms", "partial", "field", "constant", "zero"]))
    if shape == "constant":
        return Poly.const(chart.dim, draw(st.fractions(-10 ** 6, 10 ** 6, max_denominator=10 ** 4)))
    if shape == "zero":
        return Poly.zero(chart.dim)
    p = draw(terms_of_degree_8(chart.dim))
    if shape == "field":
        spec = FieldSpec(chart, Family.HAMILTONIAN, Gauge.ZERO if chart.has_time else None)
        return draw(st.sampled_from(make_field(spec, p).components))
    if shape == "partial":
        kept = draw(st.sets(st.integers(0, chart.dim - 1), max_size=chart.dim - 1))
        terms = {}
        for exps, coeff in p.terms.items():
            exps = tuple(e if i in kept else 0 for i, e in enumerate(exps))
            terms[exps] = terms.get(exps, 0) + coeff
        p = Poly(chart.dim, terms)
    return p


@settings(max_examples=300, deadline=None, derandomize=True)
@given(data=st.data())
def test_eval_grid_broadcasts_to_eval_array_on_the_meshgrid_bit_for_bit(data):
    chart = Chart(data.draw(st.sampled_from(list(ChartKind))), data.draw(st.integers(1, 2)))
    p = data.draw(grid_polys(chart))
    largest = 5 if chart.n == 1 else 3
    # collapsed (one value) and active axes; values past 1e30 overflow to inf at degree 8
    values = st.one_of(COORDINATES, st.sampled_from([1e200, -1e250, 1e308, -1.7e308]))
    coords = [np.array(data.draw(st.lists(values, min_size=size, max_size=size)))
              for size in (data.draw(st.sampled_from([1, *range(2, largest + 1)]))
                           for _ in range(chart.dim))]
    shape = tuple(len(c) for c in coords)
    with np.errstate(all="ignore"):
        got = p.eval_grid(coords)
        want = p.eval_array([g.ravel() for g in np.meshgrid(*coords, indexing="ij")])
    assert got.shape == tuple(n if p.depends_on(k) else 1 for k, n in enumerate(shape))
    assert np.broadcast_to(got, shape).tobytes() == want.tobytes()


def test_eval_grid_runs_the_array_kernel_and_refuses_bad_axes():
    p = P("x^3*y - 2*y^2 + 1/3")
    p.eval_array([np.ones(2), np.ones(2)])
    kernel = p._kernel
    x, y = np.array([0.5, 2.0, -1.0]), np.array([-1.5, 3.0])
    assert p.eval_grid([x, y]).tolist() == [[p.eval([a, b]) for b in y] for a in x]
    assert P("y^2").eval_grid([x, y]).shape == (1, 2) and p._kernel is kernel
    for bad in ([x], [x, y, y], [x, np.ones((2, 1))], [x, 2.0]):
        with pytest.raises(ValueError, match="^need 2 one-dimensional coordinate arrays"):
            p.eval_grid(bad)


def reference_eval(p, point):
    """`Poly.eval` as the generic wrapper it was before the checked scalar
    entry: the length check, the float map, the finiteness check and the
    array kernel called on the unpacked floats."""
    if len(point) != p.dim:
        raise ValueError(f"point has length {len(point)}, expected {p.dim}")
    xs = list(map(float, point))
    if not all(map(math.isfinite, xs)):
        raise ValueError("non-finite coordinate in evaluation point")
    return (p._kernel or p._compile("array"))(*xs)


def eval_outcome(evaluate, p, point):
    """The value's bytes, or the exception's type and message."""
    try:
        return struct.pack("<d", evaluate(p, point))
    except Exception as exc:  # the type and message are what is compared
        return type(exc), str(exc)


class FloatSub(float):
    pass


class FloatReturnsText:
    """`float()` of this raises TypeError: `__float__` returns a str."""

    def __float__(self):
        return "1.0"


# every form a point reaches `eval` in: a list, a tuple, a 1-D array, a row
# of a 2-D array, numpy scalars, ints (numpy's and Python's), Fractions,
# bools, a float subclass, and a str of digits (one character a coordinate)
POINT_FORMS = [
    list,
    tuple,
    np.array,
    lambda xs: np.array([xs, xs])[1],
    lambda xs: [np.float64(x) for x in xs],
    lambda xs: [np.float32(x) for x in xs],
    lambda xs: np.array([int(x) for x in xs]),
    lambda xs: [int(x) for x in xs],
    lambda xs: [Fraction(x) for x in xs],
    lambda xs: [bool(x) for x in xs],
    lambda xs: [FloatSub(x) for x in xs],
    lambda xs: "".join(str(int(abs(x)) % 10) for x in xs),
]
# each raises in `float()` (OverflowError, ValueError, TypeError) or is not finite
BAD_COORDINATES = [math.nan, math.inf, -math.inf, np.float64(math.nan), np.float64(-math.inf),
                   np.float32(math.inf), 10 ** 400, Fraction(10 ** 400, 3), "1.5", "x1", None,
                   [1.0], FloatReturnsText()]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(data=st.data())
def test_checked_entry_matches_the_generic_wrapper(data):
    p = data.draw(st.one_of(polys(), st.just(Poly.zero(0)), st.just(Poly.const(0, 3))))
    xs = data.draw(st.lists(st.one_of(COORDINATES, st.integers(-10 ** 6, 10 ** 6)),
                            min_size=p.dim, max_size=p.dim))
    points = [form(xs) for form in POINT_FORMS]
    points += [xs[:-1], xs + [1.0]] if xs else [[1.0]]  # wrong lengths
    for slot in range(p.dim):
        points += [xs[:slot] + [bad] + xs[slot + 1:] for bad in BAD_COORDINATES]
    if p.dim >= 2:  # two bad coordinates: the first in coordinate order raises, also
        # a TypeError ([1.0], None, ...) after a coordinate that converts ("1.5")
        points += [[first] + xs[1:-1] + [last] for first in BAD_COORDINATES
                   for last in BAD_COORDINATES]
    for point in points:
        want = eval_outcome(reference_eval, p, point)
        assert eval_outcome(Poly.eval, p, point) == want, point


@pytest.mark.parametrize("dim", range(5))
def test_the_checked_entry_refers_to_no_global_but_len_float_and_valueerror(dim):
    # a dense polynomial: every monomial of total degree up to 3
    dense = Poly(dim, {exps: Fraction(k + 1, 3) for k, exps in enumerate(
        e for e in itertools.product(range(4), repeat=dim) if sum(e) <= 3)})
    for p in (Poly.zero(dim), Poly.const(dim, Fraction(-7, 2)), dense):
        names = set(p._compile("entry").__code__.co_names)
        assert names <= {"len", "float", "ValueError"}, names


class FractionPoly:
    """The exact ring as `Poly` computed it when each coefficient was a
    `Fraction`: the reference the differential test below holds the
    integer-numerator `Poly` to.  The loops, and so the order of the term
    maps and the first product past the degree cap, are that code's."""

    def __init__(self, dim, terms):
        self.dim = dim
        self.terms = {e: c for e, c in terms.items() if c != 0}

    def _accumulate(self, pairs):
        out = {}
        for exps, coeff in pairs:
            acc = out.get(exps, Fraction(0)) + coeff
            if acc == 0:
                out.pop(exps, None)
            else:
                out[exps] = acc
        return FractionPoly(self.dim, out)

    def __add__(self, other):
        return self._accumulate([*self.terms.items(), *other.terms.items()])

    def __neg__(self):
        return self.scaled(-1)

    def __sub__(self, other):
        return self + (-other)

    def scaled(self, c):
        return FractionPoly(self.dim, {e: k * Fraction(c) for e, k in self.terms.items()})

    def __mul__(self, other):
        def products():
            for ea, ca in self.terms.items():
                for eb, cb in other.terms.items():
                    exps = tuple(x + y for x, y in zip(ea, eb))
                    if sum(exps) > MAX_TOTAL_DEGREE:
                        raise DegreeOverflowError(
                            f"product term degree {sum(exps)} exceeds cap {MAX_TOTAL_DEGREE}")
                    yield exps, ca * cb
        return self._accumulate(products())

    def __pow__(self, k):
        result, base = FractionPoly(self.dim, {(0,) * self.dim: Fraction(1)}), self
        while k:
            if k & 1:
                result = result * base
            if k > 1:
                base = base * base
            k >>= 1
        return result

    def partial(self, i):
        return self._accumulate(
            (tuple(x - 1 if j == i else x for j, x in enumerate(exps)), coeff * exps[i])
            for exps, coeff in self.terms.items() if exps[i])

    def to_text(self, names):
        if not self.terms:
            return "0"
        pieces = []
        for k, (exps, coeff) in enumerate(sorted(
                self.terms.items(), key=lambda kv: (-sum(kv[0]), [-e for e in kv[0]]))):
            factors = [name if e == 1 else f"{name}^{e}" for name, e in zip(names, exps) if e]
            if not factors or abs(coeff) != 1:
                factors.insert(0, str(abs(coeff)))
            sign = ("" if coeff > 0 else "-") if k == 0 else ("+ " if coeff > 0 else "- ")
            pieces.append(sign + "*".join(factors))
        return " ".join(pieces)


SMALL_RATIONALS = st.fractions(min_value=-50, max_value=50, max_denominator=12)


@st.composite
def small_terms(draw, dim):
    terms = {}
    for _ in range(draw(st.integers(1, 4))):
        budget, exps = draw(st.integers(0, 6)), []
        for _ in range(dim):
            exps.append(draw(st.integers(0, budget)))
            budget -= exps[-1]
        terms[tuple(draw(st.permutations(exps)))] = draw(SMALL_RATIONALS)
    return terms


def assert_matches_reference(p, ref, points):
    names = [f"x{i}" for i in range(p.dim)]
    assert p.terms == ref.terms
    assert p.to_text(names) == ref.to_text(names)
    # canonical: a positive denominator sharing no factor with the numerators,
    # so the same polynomial built from its coefficients is equal and hashes equal
    assert p._den > 0 and math.gcd(p._den, *p._num.values()) == 1 and 0 not in p._num.values()
    rebuilt = Poly(p.dim, ref.terms)
    assert rebuilt == p and hash(rebuilt) == hash(p)
    for pt in points:
        assert struct.pack("<d", p.eval(pt)) == struct.pack("<d", reference_walk(ref, pt))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(data=st.data())
def test_integer_numerators_match_the_fraction_reference(data):
    def outcome(compute):
        try:
            return compute(), None
        except DegreeOverflowError as exc:
            return None, str(exc)

    dim = data.draw(st.integers(1, 4))
    pool = [(Poly(dim, t), FractionPoly(dim, t))
            for t in data.draw(st.lists(small_terms(dim), min_size=1, max_size=3))]
    pool += [(Poly.variable(dim, i), FractionPoly(dim, {tuple(int(i == j) for j in range(dim)): 1}))
             for i in range(dim)]
    # a monomial of degree 10 to 13, so that products and powers reach the cap and pass it
    top = (data.draw(st.integers(10, 13)),) + (0,) * (dim - 1)
    pool.append((Poly.monomial(dim, top, 3), FractionPoly(dim, {top: Fraction(3)})))
    rng = data.draw(st.randoms(use_true_random=False))
    points = [[rng.uniform(-2, 2) for _ in range(dim)] for _ in range(3)]
    for _ in range(data.draw(st.integers(1, 10))):
        (a, ra), (b, rb) = data.draw(st.sampled_from(pool)), data.draw(st.sampled_from(pool))
        c = data.draw(SMALL_RATIONALS.filter(bool) | st.integers(-3, 3).filter(bool))
        i, k = data.draw(st.integers(0, dim - 1)), data.draw(st.integers(0, 6))
        compute, reference = data.draw(st.sampled_from([
            (lambda: a + b, lambda: ra + rb),
            (lambda: a - b, lambda: ra - rb),
            (lambda: a * b, lambda: ra * rb),
            (lambda: a * c, lambda: ra.scaled(c)),
            (lambda: c * a, lambda: ra.scaled(c)),
            (lambda: a * 0, lambda: ra.scaled(0)),
            (lambda: a / c, lambda: ra.scaled(1 / Fraction(c))),
            (lambda: -a, lambda: -ra),
            (lambda: a.partial(i), lambda: ra.partial(i)),
            (lambda: a ** k, lambda: ra ** k),
        ]))
        if len(a.terms) * len(b.terms) > 400 or len(a.terms) ** k > 4000:
            continue  # keep each example fast; the cap is still reached through degree
        (p, error), (ref, ref_error) = outcome(compute), outcome(reference)
        assert error == ref_error  # past the cap both refuse, at the same first term
        if error is None:
            assert_matches_reference(p, ref, points)
            pool.append((p, ref))


def test_canonical_form_makes_equality_structural():
    x, y = P("x"), P("y")
    for a, b in [(P("2*x/4"), P("x/2")), (x * 2 / 4, x / 2), (x + y - y, x),
                 (P("x/6") + P("x/3"), P("x/2")), (P("(x + y)/2"), P("x/2 + y/2")),
                 (P("x/3") * 3, x), (Poly(2, {(1, 0): Fraction(2, 4)}), Poly(2, {(1, 0): 0.5}))]:
        assert a == b and hash(a) == hash(b)
        assert (a._num, a._den) == (b._num, b._den)
    assert (P("x/6") + P("x/3"))._den == 2
    for zero in (x - x, Poly.zero(2), x * 0, P("x/3") - P("2*x/6"), Poly(2, {(1, 0): 0})):
        assert zero._num == {} and zero._den == 1
        assert zero == Poly.zero(2) and hash(zero) == hash(Poly.zero(2)) and zero == 0
    assert P("x/2") != P("x/3") and P("x/2") != P("y/2")


def test_kernel_is_built_once_and_the_checks_still_fire():
    p = P("x^3*y - 2*y^2 + 1/3")
    assert p._entry is p._kernel is None  # nothing is compiled before the first evaluation
    first = p.eval([0.5, -1.5])
    entry = p._entry
    assert entry is not None and p._kernel is None  # `eval` compiles the entry alone
    p.eval([2.0, 3.0])
    p.eval_array(np.ones((4, 2)).T)
    kernel = p._kernel
    assert kernel is not None
    assert p._entry is entry and p.eval([0.5, -1.5]) == first
    assert (p + 0)._entry is (p + 0)._kernel is None  # a new polynomial compiles its own
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
    assert p._entry is entry and p._kernel is kernel


def test_coefficients_outside_float_range_raise_on_first_evaluation():
    p = Poly(1, {(1,): Fraction(10 ** 400)})
    with pytest.raises(OverflowError):
        p.eval([1.0])
    with pytest.raises(OverflowError):
        p.eval_array([np.ones(2)])
    assert p._entry is p._kernel is None


def test_a_polynomial_past_the_kernel_budget_is_refused_before_any_source(monkeypatch):
    monkeypatch.setattr(budgets, "MAX_KERNEL_TERMS", 3)
    emitted = []
    evaluator = codegen.evaluator
    monkeypatch.setattr(codegen, "evaluator",
                        lambda *args: emitted.append(args[2]) or evaluator(*args))
    at, past = P("x^2 + x*y + 1"), P("x^2 + x*y + y + 1")
    assert at.eval([1.0, 2.0]) == 4.0
    assert at.eval_array([np.ones(2), np.ones(2)]).tolist() == [3.0, 3.0]
    assert emitted == ["entry", "array"]
    for evaluate in (lambda: past.eval([1.0, 2.0]), lambda: past.eval_array([np.ones(2)] * 2)):
        with pytest.raises(KernelBudgetError, match="^the polynomial has 4 terms, past the "
                                                    "kernel budget of 3$"):
            evaluate()
    assert emitted == ["entry", "array"] and past._entry is past._kernel is None
    assert issubclass(KernelBudgetError, DegreeOverflowError)  # every degree-cap handler covers it


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


def parse_outcome(parser, text, names):
    """The Poly `parser` returns, or its exception's type, message and offset."""
    try:
        return parser(text, names)
    except (ValueError, ArithmeticError) as exc:
        return type(exc), str(exc), getattr(exc, "offset", None)


ORACLE_NAMES = ("t", "q1", "p1", "z")
GAPS = st.sampled_from(["", "", " ", "  ", "\t", "\n "])


@st.composite
def poly_texts(draw):
    """(names, poly, text): `random_poly(...).to_text` written out again at
    random, with the same value: random spacing, parentheses around
    factors, terms and runs of terms, powers split into repeated factors,
    the denominator divided in at any point of its term, redundant unary
    signs and decimal literals."""
    dim = draw(st.integers(1, 4))
    names = ORACLE_NAMES[:dim]
    poly = random_poly(random.Random(draw(st.integers(0, 2 ** 32))), dim,
                       degree=draw(st.integers(0, 6)), terms=draw(st.integers(1, 6)),
                       allow_zero=True)

    def numeral(n):
        return draw(st.sampled_from([str(n), f"{n}.0", f"0{n}", f"({n})"]))

    def body(exps, mag):
        factors = []
        for name, e in zip(names, exps):
            if e:
                split = draw(st.integers(0, e - 1))  # x^e as x^(e - split) * x^split
                factors += [f"{name}^{e - split}", f"({name})^{split}"] if split else \
                    [draw(st.sampled_from([name, f"({name})"]) if e == 1 else
                          st.sampled_from([f"{name}^{e}", f"({name})^{e}", f"({name}^{e})"]))]
        num, den = mag.numerator, mag.denominator
        if 10 ** 6 % den == 0 and draw(st.booleans()):  # an exact decimal literal
            digits = f"{num * 10 ** 6 // den:07d}"
            factors.append(f"{digits[:-6].lstrip('0')}.{digits[-6:]}")
        else:
            if num != 1 or not factors or draw(st.booleans()):
                factors.append(numeral(num))
            if den != 1:
                at = draw(st.integers(1, len(factors)))
                factors[at - 1] += f"/{numeral(den)}"
        order = draw(st.permutations(factors))
        text = "*".join(order)
        return f"({text})" if draw(st.booleans()) else text

    terms = [("-" if c < 0 else "+", body(e, abs(c))) for e, c in poly.sorted_terms()] or \
        [("+", "0")]
    pieces, k = [], 0
    while k < len(terms):
        run = draw(st.integers(1, len(terms) - k))
        group = [draw(st.sampled_from(["", "+", "--"])) + (s if i else s.replace("+", ""))
                 + " " + t for i, (s, t) in enumerate(terms[k:k + run])]
        inner = " ".join(group)
        pieces.append(("+ " if k else "") + (f"({inner})" if run > 1 else inner))
        k += run
    text = "".join(draw(GAPS) if ch == " " else ch + draw(GAPS) if ch in "*/^()" else ch
                   for ch in " ".join(pieces))
    return names, poly, text


@settings(max_examples=300, deadline=None, derandomize=True)
@given(sample=poly_texts(), cut=st.integers(0, 10 ** 6), junk=st.sampled_from(
    [None, "", "(", ")", "$", "^", "^2", "/", "/0", "*", ".", "1.2.3", "x", "\u00b2", "q1^30"]))
def test_parse_matches_the_oracle_on_written_and_broken_texts(sample, cut, junk):
    names, poly, text = sample
    got = parse_outcome(parse, text, names)
    assert got == poly
    assert got == parse_outcome(oracle_parse, text, names)
    if junk is not None:  # splice junk in (or cut the text, for "") at any offset
        at = cut % (len(text) + 1)
        broken = text[:at] + junk + (text[at:] if junk else "")
        assert parse_outcome(parse, broken, names) == parse_outcome(oracle_parse, broken, names)


PARSE_EDGE_CASES = [
    "x + )", "x + ) $", "(q1", "", "q1^30", "q1^20*q1^20", "0*q1^20*q1^20", "q1^20*q1^20*0",
    "(q1+p1)^25", "(2*q1)^13", "2^5000", "(1/2)^1100", "1^10000000000", "0^0", "q1/(p1-p1)",
    "1.2.3", "\u00b2 + q1", "\u0663*q1", "7" * 5000, "7" * 5000 + ".5", "q1^" + "1" * 5000,
    "q1^\u00b2", "q1^1.0", "q1^-1", "q1^", "q1 q1", "q1/p1", "q1/0", "q1/(0*p1)", "q1/(2*p1^0)",
    "q1/(1/2)/(-3)", "-(-q1)^2", "- -+-q1^2/-2", "(q1^12)^2", "(q1^12)^3", "q1^12^2",
    "q1^24*0", "0*q1^25", "q1^25*0", "(0*q1)^30", "0^10000000000", "(-1)^10000000000",
    "(-1/2)^7", "2.5^3", ".5", ".", "5.", "1_000", "q1 + w2", "q1 + _", "q1 $ p1",
    "((((q1))))^2", "(" * 60 + "q1+p1" + ")" * 60, "q1*(p1+1)*(p1-1)/4 - q1*p1^2/4",
    "\u00a0q1\u2003+\u3000p1", "q1\u0301", "x", "q1 +", "* q1", "q1 ** 2", "()", "(q1))",
    "q1^\u0663", "(q1+p1)^\u00b2", "q1^" + "9" * 4301, "2^" + "0" * 5000 + "3",
]


@pytest.mark.parametrize("text", PARSE_EDGE_CASES)
def test_parse_matches_the_oracle_on_edge_cases(text):
    names = ("q1", "p1")
    assert parse_outcome(parse, text, names) == parse_outcome(oracle_parse, text, names)


@pytest.mark.parametrize("exponent", ["\u00b2", "1" * 5000], ids=["superscript", "5000-digit"])
def test_a_malformed_exponent_is_a_parse_error_at_its_offset(exponent):
    with pytest.raises(ParseError, match=r"\(at offset 6\)$"):
        P("y + x^" + exponent)
    # an Arabic-Indic three is a decimal digit, read as in a literal
    assert P("x^\u0663") == P("x^3")


def test_parentheses_nest_at_most_max_nesting_deep():
    def nested(depth):
        return "(" * depth + "x + 1" + ")" * depth + "^2"

    assert P(nested(MAX_NESTING)) == P("x^2 + 2*x + 1")
    for depth in (MAX_NESTING + 1, 10 ** 5):
        with pytest.raises(ParseError, match=f"^parentheses nested deeper than {MAX_NESTING} "
                                             f"levels .at offset {MAX_NESTING}.$"):
            P(nested(depth))
    # siblings do not add up
    assert P("*".join([nested(MAX_NESTING)] * 3)) == P("(x + 1)^6")


def test_a_long_sum_parses_in_memory_bounded_by_its_result():
    text = " + ".join(["x*y/2"] * 10000)
    result, peak = traced_peak(lambda: P(text))
    assert result == P("5000*x*y")
    assert peak < 1 << 20  # a list of its 60 000 tokens, or a Poly per term, holds megabytes


def test_parse_builds_one_poly_per_term(monkeypatch):
    # the 14-term cocontact n=2 Hamiltonian a `validate` of the benchmark's
    # short workload parses; one Poly per factor would make over a hundred
    text = ("1012/1000/2*q1^2 + 1012/1000/2*p1^2 + 277/1000*q1^4 + 102/1000*p1^4 + "
            "865/1000/2*q2^2 + 865/1000/2*p2^2 + 153/1000*q2^4 + 281/1000*p2^4 + "
            "53/1000*q1*p1 - 27/1000*q1*q2 + 85/1000*p1*p2 + 33/1000*q1^2*p2 + "
            "100/1000*q2*p1^2 - 84/1000*t*q1")
    names = Chart(ChartKind.COCONTACT, 2).coord_names
    made = []
    init, wrap = Poly.__init__, Poly._wrap.__func__

    def counted_init(self, *args, **kwargs):
        made.append(None)
        init(self, *args, **kwargs)

    def counted_wrap(cls, *args):
        made.append(None)
        return wrap(cls, *args)

    monkeypatch.setattr(Poly, "__init__", counted_init)
    monkeypatch.setattr(Poly, "_wrap", classmethod(counted_wrap))
    h = parse(text, names)
    assert len(h.terms) == 14
    assert len(made) <= 14 + 2
    made.clear()
    assert oracle_parse(text, names) == h
    assert len(made) > 100


def fold_of_products(dim, terms):
    """The reference for `Poly.sum_of_products`: out = out + c * a * b from zero."""
    out = Poly.zero(dim)
    for c, a, b in terms:
        out = out + (c * a if b is None else c * a * b)
    return out


def first_overflow(a, b):
    """The degree `a * b` must name past the cap: its first term past it in
    product order, or None."""
    return next((sum(ea) + sum(eb) for ea in a.terms for eb in b.terms
                 if sum(ea) + sum(eb) > MAX_TOTAL_DEGREE), None)


def assert_canonical(p):
    assert p._den > 0 and 0 not in p._num.values()
    assert math.gcd(p._den, *p._num.values()) == 1  # also: zero is the empty map over 1


@settings(max_examples=200, deadline=None, derandomize=True)
@given(data=st.data())
def test_sum_of_products_matches_the_fold(data):
    def outcome(compute):
        try:
            return compute(), None
        except DegreeOverflowError as exc:
            return None, str(exc)

    dim = data.draw(st.integers(1, 4))
    # first (hypothesis favours early entries): two polynomials with two high
    # terms each, so that products pass the cap and the first term past it
    # need not be the highest
    pool = []
    for _ in range(2):
        lo, hi = sorted(data.draw(st.lists(st.integers(11, 16), min_size=2, max_size=2,
                                           unique=True)))
        first = data.draw(st.sampled_from([lo, hi]))
        pool.append(Poly(dim, {(first,) + (0,) * (dim - 1): Fraction(1, 4),
                               (0,) * (dim - 1) + (lo + hi - first,): -3}))
    pool += [Poly.zero(dim), Poly.const(dim, Fraction(-5, 6)), Poly.variable(dim, dim - 1)]
    pool += [Poly(dim, t) for t in data.draw(st.lists(small_terms(dim), min_size=1, max_size=3))]
    term = st.tuples(st.integers(-3, 3), st.sampled_from(pool), st.none() | st.sampled_from(pool))
    terms = [data.draw(term) for _ in range(data.draw(st.integers(0, 5)))]
    got, error = outcome(lambda: Poly.sum_of_products(dim, terms))
    want, want_error = outcome(lambda: fold_of_products(dim, terms))
    assert error == want_error
    overflows = [first_overflow(a, b) for c, a, b in terms if c and b is not None]
    degree = next((d for d in overflows if d is not None), None)
    assert error == (None if degree is None else
                     f"product term degree {degree} exceeds cap {MAX_TOTAL_DEGREE}")
    if error is None:
        assert_canonical(got)
        assert got == want and hash(got) == hash(want)
        assert got.terms == want.terms


def test_sum_of_products_edge_cases():
    x, y = P("x"), P("y")
    for terms in ([], [(0, x, y)], [(2, Poly.zero(2), y), (1, x, Poly.zero(2))],
                  [(1, x / 3, y / 2), (-1, y / 6, x)], [(3, x / 4, None), (-3, x, P("1/4"))]):
        total = Poly.sum_of_products(2, terms)
        assert total._num == {} and total._den == 1 and total == Poly.zero(2)
    total = Poly.sum_of_products(2, [(1, x / 2, y / 3), (-2, x / 6, None), (5, P("1/10"), None)])
    assert total == P("x*y/6 - x/3 + 1/2") and total._den == 6
    assert_canonical(total)
    with pytest.raises(ValueError, match="dimension mismatch"):
        Poly.sum_of_products(2, [(1, x, Poly.variable(3, 0))])
    # the first product term past the cap is x^13 * x^12, not the highest, x^13 * x^14
    high = [(1, x, y), (1, P("x^10 + x^13"), P("x^12 + x^14"))]
    for total in (Poly.sum_of_products, fold_of_products):
        with pytest.raises(DegreeOverflowError, match="^product term degree 25 exceeds cap 24$"):
            total(2, high)


def fraction_random_poly(rng, dim, degree=3, terms=4, allow_zero=False, frozen_slots=()):
    """`corpus.random_poly` as it was written on Fractions: one Fraction per
    drawn term, summed per monomial, then `Poly(dim, terms)`."""
    free = [i for i in range(dim) if i not in frozen_slots]
    for _ in range(50):
        out = {}
        for _ in range(rng.randint(1, max(1, terms))):
            exps = [0] * dim
            for _ in range(rng.randint(0, degree)):
                if free:
                    exps[rng.choice(free)] += 1
            num = rng.choice([-4, -3, -2, -1, 1, 2, 3, 4])
            den = rng.randint(1, 3)
            key = tuple(exps)
            out[key] = out.get(key, Fraction(0)) + Fraction(num, den)
        poly = Poly(dim, out)
        if allow_zero or not poly.is_zero():
            return poly
    raise RuntimeError("failed to draw a nonzero polynomial")


def test_corpus_draws_match_the_fraction_reference():
    for seed in range(300):
        dim = 1 + seed % 6
        kwargs = {"degree": seed % 4, "terms": 1 + seed % 7, "allow_zero": seed % 2 == 0,
                  "frozen_slots": (dim - 1,) if seed % 3 == 0 else ()}
        ours, ref = random.Random(seed), random.Random(seed)
        for _ in range(5):
            p = random_poly(ours, dim, **kwargs)
            q = fraction_random_poly(ref, dim, **kwargs)
            assert p == q and hash(p) == hash(q) and list(p._num) == list(q._num)
            assert_canonical(p)
        assert ours.getstate() == ref.getstate()  # the same draws, in the same order


class TuplePoly:
    """The integer-numerator ring as `Poly` computed it with exponent-tuple
    keys: the reference the packed int keys are held to.  The loops are
    that code's, so the numerator maps come out in the same order and a
    product past the cap names the same first term."""

    def __init__(self, dim, num, den):
        self.dim, self.num, self.den = dim, num, den

    @classmethod
    def of(cls, dim, terms):
        """Fraction coefficients as numerators over their lcm."""
        den = math.lcm(*(Fraction(c).denominator for c in terms.values()))
        return cls(dim, {e: int(c * den) for e, c in terms.items() if c}, den)

    def reduced(self, num, den):
        g = math.gcd(den, *num.values())
        return TuplePoly(self.dim, {e: n // g for e, n in num.items()}, den // g)

    @staticmethod
    def check_degree(na, nb):
        if na and nb and max(map(sum, na)) + max(map(sum, nb)) > MAX_TOTAL_DEGREE:
            deg = next(d for ea in na for eb in nb if (d := sum(ea) + sum(eb)) > MAX_TOTAL_DEGREE)
            raise DegreeOverflowError(f"product term degree {deg} exceeds cap {MAX_TOTAL_DEGREE}")

    def sum(self, other, sign):
        da, db = self.den, other.den
        if da == db:
            out, den = dict(self.num), da
            items = [(e, sign * n) for e, n in other.num.items()]
        else:
            den = da // math.gcd(da, db) * db
            out = {e: n * (den // da) for e, n in self.num.items()}
            items = [(e, sign * n * (den // db)) for e, n in other.num.items()]
        for exps, n in items:
            acc = out.get(exps)
            if acc is None:
                out[exps] = n
            elif acc + n:
                out[exps] = acc + n
            else:
                del out[exps]
        return self.reduced(out, den)

    def __mul__(self, other):
        self.check_degree(self.num, other.num)
        out = {}
        for ea, na in self.num.items():
            for eb, nb in other.num.items():
                exps = tuple(x + y for x, y in zip(ea, eb))
                acc = out.get(exps, 0) + na * nb
                if acc:
                    out[exps] = acc
                else:
                    out.pop(exps, None)
        return self.reduced(out, self.den * other.den)

    def __pow__(self, k):
        result, base = TuplePoly(self.dim, {(0,) * self.dim: 1}, 1), self
        while k:
            if k & 1:
                result = result * base
            if k > 1:
                base = base * base
            k >>= 1
        return result

    def partial(self, i):
        return self.reduced({exps[:i] + (exps[i] - 1,) + exps[i + 1:]: n * exps[i]
                             for exps, n in self.num.items() if exps[i]}, self.den)

    @staticmethod
    def sum_of_products(dim, terms):
        prods, den = [], 1
        for c, a, b in terms:
            if not c or not a.num or (b is not None and not b.num):
                continue
            if b is not None:
                TuplePoly.check_degree(a.num, b.num)
            d = a.den if b is None else a.den * b.den
            prods.append((c, a.num, None if b is None else b.num, d))
            den = math.lcm(den, d)
        out = {}
        for c, na, nb, d in prods:
            s = c * (den // d)
            for ea, x in na.items():
                for eb, y in ({(0,) * dim: 1} if nb is None else nb).items():
                    e = tuple(u + v for u, v in zip(ea, eb))
                    out[e] = out.get(e, 0) + s * x * y
        return TuplePoly(dim, {}, 1).reduced({e: n for e, n in out.items() if n}, den)

    def sorted_terms(self):
        return sorted(((e, Fraction(n, self.den)) for e, n in self.num.items()),
                      key=lambda kv: (-sum(kv[0]), tuple(-e for e in kv[0])))


def assert_same_as_tuple_reference(p, ref):
    """Term for term and in the same order: the packed keys decode to the
    reference's tuples over the same denominator."""
    assert p.dim == ref.dim and p._den == ref.den
    assert list(p.terms.items()) == [(e, Fraction(n, ref.den)) for e, n in ref.num.items()]
    assert list(p._num.values()) == list(ref.num.values())
    assert p.sorted_terms() == ref.sorted_terms()


@st.composite
def spread_terms(draw, dim):
    """Up to four terms of degree <= 12 with one coordinate carrying most of
    it, so that slots near both ends of the key, and products at the cap,
    come up."""
    terms = {}
    for _ in range(draw(st.integers(1, 4))):
        exps = [0] * dim
        for _ in range(draw(st.integers(0, 3))):
            exps[draw(st.integers(0, dim - 1))] += draw(st.integers(1, 4))
        terms[tuple(exps)] = draw(SMALL_RATIONALS)
    return terms


@settings(max_examples=150, deadline=None, derandomize=True)
@given(data=st.data())
def test_packed_keys_match_the_tuple_reference(data):
    def outcome(compute):
        try:
            return compute(), None
        except DegreeOverflowError as exc:
            return None, str(exc)

    dim = data.draw(st.sampled_from([1, 2, 3, 5, 34]))
    pool = [(Poly(dim, t), TuplePoly.of(dim, t))
            for t in data.draw(st.lists(spread_terms(dim), min_size=1, max_size=3))]
    pool += [(Poly.zero(dim), TuplePoly(dim, {}, 1)),
             (Poly.variable(dim, dim - 1), TuplePoly.of(dim, {(0,) * (dim - 1) + (1,): 1}))]
    for p, ref in pool:
        assert_same_as_tuple_reference(p, ref)
    for _ in range(data.draw(st.integers(1, 8))):
        (a, ra), (b, rb) = data.draw(st.sampled_from(pool)), data.draw(st.sampled_from(pool))
        c, i, k = data.draw(st.integers(-3, 3)), data.draw(st.integers(0, dim - 1)), data.draw(
            st.integers(0, 4))
        compute, reference = data.draw(st.sampled_from([
            (lambda: a + b, lambda: ra.sum(rb, 1)),
            (lambda: a - b, lambda: ra.sum(rb, -1)),
            (lambda: a * b, lambda: ra * rb),
            (lambda: a ** k, lambda: ra ** k),
            (lambda: a.partial(i), lambda: ra.partial(i)),
            (lambda: Poly.sum_of_products(dim, [(c, a, b), (1, b, None), (-c, b, a)]),
             lambda: TuplePoly.sum_of_products(dim, [(c, ra, rb), (1, rb, None), (-c, rb, ra)])),
        ]))
        if len(ra.num) ** max(k, 2) > 2000:
            continue  # keep each example fast; the cap is still reached through degree
        (p, error), (ref, ref_error) = outcome(compute), outcome(reference)
        assert error == ref_error
        if error is None:
            assert_same_as_tuple_reference(p, ref)
            pool.append((p, ref))
    # equality and hashing follow the terms, whatever the keys
    for p, ref in pool:
        for q, ref_q in pool:
            assert (p == q) == ((ref.num, ref.den) == (ref_q.num, ref_q.den))
            assert p != q or hash(p) == hash(q)
        rebuilt = Poly(dim, p.terms)
        assert rebuilt == p and hash(rebuilt) == hash(p)


def test_the_constructor_refuses_a_term_past_the_degree_cap():
    for dim, exps in [(1, (25,)), (2, (20, 5)), (34, (0,) * 33 + (25,)),
                      (34, (1,) * 25 + (0,) * 9)]:
        for make in (lambda: Poly(dim, {exps: 1}), lambda: Poly.monomial(dim, exps),
                     lambda: Poly(dim, {exps: 0})):  # any term, even one whose coefficient is 0
            with pytest.raises(DegreeOverflowError, match="^term degree 25 exceeds cap 24$"):
                make()
    assert Poly.monomial(2, (20, 4), 3).terms == {(20, 4): 3}
    with pytest.raises(ValueError, match="degree must lie in 0..24"):
        random_poly(random.Random(0), 2, degree=25)


def test_a_product_at_the_cap_decodes_at_dim_34():
    dim = 34
    a = Poly.monomial(dim, (12,) + (0,) * 33, 2) + Poly.monomial(dim, (0,) * 33 + (1,))
    b = Poly.monomial(dim, (6,) + (0,) * 16 + (3,) + (0,) * 15 + (3,), Fraction(1, 3))
    top = (18,) + (0,) * 16 + (3,) + (0,) * 15 + (3,)
    low = (6,) + (0,) * 16 + (3,) + (0,) * 15 + (4,)
    for p in (a * b, b * a, Poly.sum_of_products(dim, [(1, a, b)]), a * b * 1):
        assert p.sorted_terms() == [(top, Fraction(2, 3)), (low, Fraction(1, 3))]
        assert_same_as_tuple_reference(p, TuplePoly.of(dim, a.terms) * TuplePoly.of(dim, b.terms))
    p = a * b
    for i in range(dim):
        want = {e[:i] + (e[i] - 1,) + e[i + 1:]: c * e[i] for e, c in p.terms.items() if e[i]}
        assert p.partial(i).terms == want
    # every slot at its widest, 24, at both ends of the key and in the middle
    for i in (0, 17, 33):
        e = tuple(24 if j == i else 0 for j in range(dim))
        q = Poly.monomial(dim, e[:i] + (12,) + e[i + 1:]) ** 2
        assert q.terms == {e: 1} and q.depends_on(i) and not q.depends_on((i + 1) % dim)
        with pytest.raises(DegreeOverflowError, match="^product term degree 25 exceeds cap 24$"):
            q * Poly.variable(dim, (i + 5) % dim)
    names = [f"x{i}" for i in range(dim)]
    assert parse(p.to_text(names), names) == p
    point = [1.0 + j / 64 for j in range(dim)]
    assert struct.pack("<d", p.eval(point)) == struct.pack("<d", reference_walk(p, point))


def test_memoised_partials_and_chart_constants_are_never_mutated():
    chart = Chart(ChartKind.COCONTACT, 2)
    H = chart.parse("t*q1^2*p2 - z*p1/3 + 5")
    dH = H.partial(chart.q_slot(1))
    constants = [two_form_omega(chart), canonical_eta(chart), canonical_tau(chart),
                 reeb_eta(chart), reeb_tau(chart)]
    coords = [chart.coordinate(k) for k in range(chart.dim)]
    polys = [H, dH, chart.zero(), *coords, *(c for x in constants for c in x.components)]
    before = [(p.terms, p._den) for p in polys]
    # use every memoised value the ways the layers do: sums, products, powers,
    # more partials, evaluation, and the contractions that read the constants
    for p in polys:
        for q in (p + dH, p - H, -p, p * H, p * Fraction(-2, 3), p ** 2, p.partial(0),
                  Poly.sum_of_products(chart.dim, [(2, p, dH), (-1, p, None)])):
            q.partial(chart.z_slot)
        p.eval([0.5] * chart.dim)
    for X in (sharp(canonical_eta(chart)), reeb_tau(chart).scaled(H)):
        flat(X)
        pairing(canonical_eta(chart).scaled(dH), X)
    assert [(p.terms, p._den) for p in polys] == before
    # and each is built once: the same instance comes back
    assert H.partial(chart.q_slot(1)) is dH
    assert two_form_omega(Chart(ChartKind.COCONTACT, 2)) is constants[0]
    assert chart.coordinate(1) is coords[1] and chart.zero() is polys[2]
    assert Chart(ChartKind.CONTACT, 2).zero() is not chart.zero()


def test_exact_products_past_the_pair_budget_are_refused_before_any_work(monkeypatch):
    x, y = P("x"), P("y")
    a, b = x + y + 1, x * y - x + 2 * y + 3  # 3 and 4 terms
    monkeypatch.setattr("geokin.poly.MAX_PRODUCT_PAIRS", 15)
    assert a * b == P("(x+y+1)*(x*y-x+2*y+3)")
    assert Poly.sum_of_products(2, [(1, a, b), (5, a, None)]) == a * b + 5 * a
    assert a ** 2 == a * a  # 3 x 3 for the square, then 1 x 6 onto the unit: 15 pairs
    monkeypatch.setattr("geokin.poly.MAX_PRODUCT_PAIRS", 14)
    with pytest.raises(ProductBudgetError, match="visit 15 term pairs, past the budget of 14"):
        a ** 2  # the power's products add up
    monkeypatch.setattr("geokin.poly.MAX_PRODUCT_PAIRS", 11)

    def no_work(*args):
        raise AssertionError("a product past the budget was formed")

    monkeypatch.setattr(Poly, "_times", no_work)
    for refused, pairs in [(lambda: a * b, 12), (lambda: b * a, 12),
                           (lambda: Poly.sum_of_products(2, [(1, a, a), (-1, b, y)]), 13)]:
        with pytest.raises(ProductBudgetError,
                           match=f"^exact products would visit {pairs} term pairs, "
                                 f"past the budget of 11$") as err:
            refused()
        assert isinstance(err.value, DegreeOverflowError)  # so every cap handler maps it
