"""The named Hamiltonian-type vector fields and their exact diagnostics.

Every field in the catalog is built through one musical formula.  Write
g for the gauge value (0, 1, or dH/dt) and e for the eta-value (-H for
the Hamiltonian and strict families, 0 for the energy family).  Then

    X = sharp(dH) + (g - <dH, R_tau>) R_tau + (e - <dH, R_eta>) R_eta

where each Reeb correction applies only on charts carrying that
structure.  Equivalently: <tau, X> = g, <eta, X> = e, and i_X d(eta)
(resp. i_X Omega) is dH minus its Reeb multiples.  On the symplectic
chart this degenerates to sharp(dH).

The catalog sizes per chart kind: symplectic 1, cosymplectic 3 (gauge
only), contact 3 (family only), cocontact 9 (family x gauge).  Strict
rows demand dH/dz == 0, checked symbolically at construction.

`diagnostics` returns the closed-form divergence, energy rate X(H), and
the eta/tau coefficients of L_X eta, all as exact polynomials.
`Dynamics` is one row with one Hamiltonian: what a run hands its
solver.  The module also houses the small Cartan toolbox (exterior
derivative, wedge, Lie derivatives of one- and two-forms, the Lie bracket
of fields) used to verify the displayed Lie-derivative laws symbolically;
two-forms and their contraction live in `chart` beside `pairing`.  The
toolbox visits only nonzero components: it takes no partial of a zero
one, and walks a two-form through its nonzero index, `TwoFormExpr.columns`.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from itertools import combinations

from .chart import (
    Chart,
    ChartKind,
    OneFormExpr,
    TwoFormExpr,
    VectorFieldExpr,
    differential,
)
from .musical import SharpVariant, sharp
from .poly import Poly


class Family(str, Enum):
    HAMILTONIAN = "hamiltonian"
    ENERGY = "energy"
    STRICT = "strict"


class Gauge(str, Enum):
    ZERO = "zero"
    ONE = "one"
    GRAD_H = "gradH"


class StrictnessError(ValueError):
    """A strict-family field was requested for a z-dependent Hamiltonian."""


@dataclass(frozen=True)
class FieldSpec:
    """Selects one row of the field catalog on a chart.

    gauge must be None exactly on charts without a time coordinate;
    cosymplectic rows are all of the Hamiltonian family.
    """

    chart: Chart
    family: Family = Family.HAMILTONIAN
    gauge: Gauge | None = None

    def __post_init__(self) -> None:
        kind = self.chart.kind
        if kind.has_time:
            if self.gauge is None:
                raise ValueError(f"{kind.value} fields need a gauge (zero, one, gradH)")
        elif self.gauge is not None:
            raise ValueError(f"{kind.value} fields take no gauge")
        if kind in (ChartKind.SYMPLECTIC, ChartKind.COSYMPLECTIC):
            if self.family is not Family.HAMILTONIAN:
                raise ValueError(f"{kind.value} charts only carry the hamiltonian family")

    @property
    def row_name(self) -> str:
        gauge = self.gauge.value if self.gauge is not None else "none"
        return f"{self.family.value}/{gauge}"


def catalog(chart: Chart) -> tuple[FieldSpec, ...]:
    """All field rows on the chart, in a fixed order."""
    if chart.kind is ChartKind.SYMPLECTIC:
        return (FieldSpec(chart),)
    if chart.kind is ChartKind.COSYMPLECTIC:
        return tuple(FieldSpec(chart, Family.HAMILTONIAN, g) for g in Gauge)
    if chart.kind is ChartKind.CONTACT:
        return tuple(FieldSpec(chart, fam, None) for fam in Family)
    return tuple(FieldSpec(chart, fam, g) for fam in Family for g in Gauge)


def _require_strictness(spec: FieldSpec, H: Poly) -> None:
    if spec.family is Family.STRICT and H.depends_on(spec.chart.z_slot):
        raise StrictnessError("strict-family fields require a z-independent Hamiltonian")


def _eta_value(spec: FieldSpec, H: Poly) -> Poly:
    # <eta, X>: -H for hamiltonian and strict rows, 0 for energy rows.
    if spec.family is Family.ENERGY:
        return Poly.zero(H.dim)
    return -H


def _gauge_value(spec: FieldSpec, H: Poly) -> Poly:
    # <tau, X>: the time component produced by the gauge.
    chart = spec.chart
    if spec.gauge is Gauge.ZERO:
        return Poly.zero(H.dim)
    if spec.gauge is Gauge.ONE:
        return Poly.const(H.dim, 1)
    return H.partial(chart.t_slot)


def make_field(spec: FieldSpec, H: Poly) -> VectorFieldExpr:
    """Construct the field via the musical route (exact)."""
    chart = spec.chart
    if H.dim != chart.dim:
        raise ValueError("Hamiltonian dimension does not match chart")
    _require_strictness(spec, H)
    comps = list(sharp(differential(H, chart), SharpVariant.FULL).components)
    # the Reeb corrections change one component each
    if chart.has_time:
        t = chart.t_slot
        comps[t] = Poly.sum_of_products(chart.dim, [
            (1, comps[t], None), (1, _gauge_value(spec, H), None), (-1, H.partial(t), None)])
    if chart.has_z:
        z = chart.z_slot
        comps[z] = Poly.sum_of_products(chart.dim, [
            (1, comps[z], None), (1, _eta_value(spec, H), None), (-1, H.partial(z), None)])
    return VectorFieldExpr._of(chart, tuple(comps))


@dataclass(frozen=True)
class FieldDiagnostics:
    """Closed-form diagnostics for one catalog row.

    conformal_eta / conformal_tau are the coefficients of eta and tau in
    the displayed L_X eta law (the decomposition a*dH + b*eta + c*tau
    with a in {0,1}); None on charts lacking the respective form.
    """

    divergence: Poly
    dH_along_flow: Poly
    conformal_eta: Poly | None
    conformal_tau: Poly | None


def diagnostics(spec: FieldSpec, H: Poly) -> FieldDiagnostics:
    chart = spec.chart
    if H.dim != chart.dim:
        raise ValueError("Hamiltonian dimension does not match chart")
    _require_strictness(spec, H)
    zero = Poly.zero(chart.dim)

    div = zero
    rate = zero
    if chart.has_z:
        Hz = H.partial(chart.z_slot)
        if spec.family is Family.HAMILTONIAN:
            div = div - (chart.n + 1) * Hz
            rate = rate - Hz * H
        elif spec.family is Family.ENERGY:
            div = div - chart.n * Hz
        # strict rows contribute nothing: Hz vanishes identically
    if chart.has_time:
        Ht = H.partial(chart.t_slot)
        if spec.gauge is Gauge.ONE:
            rate = rate + Ht
        elif spec.gauge is Gauge.GRAD_H:
            div = div + Ht.partial(chart.t_slot)
            rate = rate + Ht * Ht

    conformal_eta = -H.partial(chart.z_slot) if chart.has_z else None
    conformal_tau = (
        -H.partial(chart.t_slot) if (chart.has_z and chart.has_time) else None
    )
    return FieldDiagnostics(div, rate, conformal_eta, conformal_tau)


@dataclass(frozen=True)
class Dynamics:
    """One catalog row driven by one Hamiltonian.  `field` and `diagnostics`
    are built on first use and kept, with their polynomials' compiled kernels."""

    spec: FieldSpec
    H: Poly

    @cached_property
    def field(self) -> VectorFieldExpr:
        return make_field(self.spec, self.H)

    @cached_property
    def diagnostics(self) -> FieldDiagnostics:
        return diagnostics(self.spec, self.H)


# -- Cartan toolbox ----------------------------------------------------


def exterior_derivative_oneform(alpha: OneFormExpr) -> TwoFormExpr:
    """(d alpha)_{jk} = d_j alpha_k - d_k alpha_j."""
    a = alpha.components
    zero = alpha.chart.zero()
    return TwoFormExpr._of(alpha.chart, tuple(
        (a[k].partial(j) if a[k] else zero) - (a[j].partial(k) if a[j] else zero)
        for j, k in combinations(range(alpha.chart.dim), 2)))


def wedge(alpha: OneFormExpr, beta: OneFormExpr) -> TwoFormExpr:
    """(alpha wedge beta)_{jk} = alpha_j beta_k - alpha_k beta_j."""
    if alpha.chart != beta.chart:
        raise ValueError("wedge requires a common chart")
    d = alpha.chart.dim
    a, b = alpha.components, beta.components
    return TwoFormExpr._of(alpha.chart, tuple(
        Poly.sum_of_products(d, [(1, a[j], b[k]), (-1, a[k], b[j])])
        for j, k in combinations(range(d), 2)))


def lie_derivative_oneform(X: VectorFieldExpr, alpha: OneFormExpr) -> OneFormExpr:
    """(L_X alpha)_j = X^i d_i alpha_j + alpha_i d_j X^i."""
    if X.chart != alpha.chart:
        raise ValueError("Lie derivative requires a common chart")
    chart = X.chart
    d = chart.dim
    pairs = [(a_i, X_i) for a_i, X_i in zip(alpha.components, X.components) if a_i and X_i]
    return OneFormExpr._of(chart, tuple(
        Poly.sum_of_products(d, X.derivative_terms(alpha.components[j])
                             + [(1, a_i, X_i.partial(j)) for a_i, X_i in pairs])
        for j in range(d)))


def lie_derivative_twoform(X: VectorFieldExpr, B: TwoFormExpr) -> TwoFormExpr:
    """(L_X B)_{jk} = X^i d_i B_{jk} + B_{ik} d_j X^i + B_{ji} d_k X^i.

    Walks B's nonzero index where X^i != 0: column k gives the B_ik terms,
    and column j, negated, the B_ji = -B_ij ones.  Sorting the two by
    (i, then j before k) keeps the terms in the order of the sum over i."""
    if X.chart != B.chart:
        raise ValueError("Lie derivative requires a common chart")
    d = X.chart.dim
    Xc = X.components
    cols = [[e for e in col if Xc[e[0]]] for col in B.columns]
    comps = []
    for (j, k), b_jk in zip(combinations(range(d), 2), B.components):
        # (i, p) is unique in the list, so the sort never compares two Polys
        walk = sorted([(i, j, sign, c) for i, sign, c in cols[k]]
                      + [(i, k, -sign, c) for i, sign, c in cols[j]])
        terms = [(sign, c, Xc[i].partial(p)) for i, p, sign, c in walk]
        comps.append(Poly.sum_of_products(d, X.derivative_terms(b_jk) + terms))
    return TwoFormExpr._of(X.chart, tuple(comps))


def divergence(X: VectorFieldExpr) -> Poly:
    """Coordinate divergence sum_i dX^i/dx^i (Darboux volume)."""
    return Poly.sum_of_products(
        X.chart.dim, [(1, comp.partial(i), None) for i, comp in enumerate(X.components) if comp])


def jacobi_lie_bracket(X: VectorFieldExpr, Y: VectorFieldExpr) -> VectorFieldExpr:
    """[X, Y]^i = X^j d_j Y^i - Y^j d_j X^i."""
    if X.chart != Y.chart:
        raise ValueError("bracket requires a common chart")
    chart = X.chart
    comps = tuple(
        Poly.sum_of_products(chart.dim, X.derivative_terms(Y_i) + Y.derivative_terms(X_i, -1))
        for X_i, Y_i in zip(X.components, Y.components))
    return VectorFieldExpr._of(chart, comps)
