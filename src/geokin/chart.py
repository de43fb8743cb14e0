"""Darboux charts for the four geometries and expressions living on them.

Coordinate layouts are fixed once and for all (n >= 1 pairs):

    symplectic    (q1..qn, p1..pn)          dim 2n
    cosymplectic  (t, q1..qn, p1..pn)       dim 2n+1
    contact       (q1..qn, p1..pn, z)       dim 2n+1
    cocontact     (t, q1..qn, p1..pn, z)    dim 2n+2

Canonical structure in these coordinates: the clock form tau = dt, the
contact form eta = dz - p_i dq^i, and d(eta) = dq^i wedge dp_i (the
same matrix as the symplectic two-form).  The Reeb fields are d/dt (for
tau) and d/dz (for eta); their defining contractions are asserted in the
test suite.  These constants, and a chart's coordinates and zero, are
built once per chart and shared (`functools.cache`): they are immutable
values.

One-forms, vector fields and two-forms share one container: a tuple of
exact polynomials over the chart's coordinates.  One-forms and vector
fields hold one component per coordinate, in chart order.  A two-form
holds its strict upper triangle B_jk, j < k, in row order, so it is
antisymmetric by construction.  Its nonzero index, `TwoFormExpr.columns`,
lists (i, sign, component) for each B_ik that does not vanish, column by
column, so the contractions and Lie derivatives walk only nonzero
entries: Omega has n of them out of d(d-1)/2.  `pairing` and
`contract_twoform` are the two contractions.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cache, cached_property
from itertools import combinations
from typing import Sequence

from .poly import Poly, Rational, parse


class ChartKind(str, Enum):
    SYMPLECTIC = "symplectic"
    COSYMPLECTIC = "cosymplectic"
    CONTACT = "contact"
    COCONTACT = "cocontact"

    @property
    def has_time(self) -> bool:
        return self in (ChartKind.COSYMPLECTIC, ChartKind.COCONTACT)

    @property
    def has_z(self) -> bool:
        return self in (ChartKind.CONTACT, ChartKind.COCONTACT)


@dataclass(frozen=True)
class Chart:
    """A Darboux chart: a kind plus the number of (q, p) pairs.

    Its shape (`dim`, `has_time`, `has_z`) is computed once per instance:
    `cached_property` stores it in the instance dict, which neither the
    frozen fields nor equality and hashing see."""

    kind: ChartKind
    n: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("a chart needs at least one (q, p) pair")

    @cached_property
    def dim(self) -> int:
        return 2 * self.n + self.has_time + self.has_z

    @cached_property
    def has_time(self) -> bool:
        return self.kind.has_time

    @cached_property
    def has_z(self) -> bool:
        return self.kind.has_z

    @property
    def coord_names(self) -> tuple[str, ...]:
        names: list[str] = []
        if self.has_time:
            names.append("t")
        names.extend(f"q{i}" for i in range(1, self.n + 1))
        names.extend(f"p{i}" for i in range(1, self.n + 1))
        if self.has_z:
            names.append("z")
        return tuple(names)

    # slot indices; q_slot/p_slot take 1-based i matching the names q1..qn

    @property
    def t_slot(self) -> int:
        if not self.has_time:
            raise ValueError(f"{self.kind.value} chart has no time coordinate")
        return 0

    def q_slot(self, i: int) -> int:
        if not 1 <= i <= self.n:
            raise ValueError(f"q index {i} out of range 1..{self.n}")
        return (1 if self.has_time else 0) + (i - 1)

    def p_slot(self, i: int) -> int:
        if not 1 <= i <= self.n:
            raise ValueError(f"p index {i} out of range 1..{self.n}")
        return (1 if self.has_time else 0) + self.n + (i - 1)

    @property
    def z_slot(self) -> int:
        if not self.has_z:
            raise ValueError(f"{self.kind.value} chart has no z coordinate")
        return self.dim - 1

    # polynomial helpers on this chart

    @cache
    def coordinate(self, slot: int) -> Poly:
        return Poly.variable(self.dim, slot)

    @cache
    def zero(self) -> Poly:
        return Poly.zero(self.dim)

    def partial(self, f: Poly, slot: int) -> Poly:
        """df/dx^slot; the cached zero, with no derivative taken, when f is zero."""
        return f.partial(slot) if f else self.zero()

    def const(self, value: Rational) -> Poly:
        return Poly.const(self.dim, value)

    def parse(self, text: str) -> Poly:
        """Parse an expression in this chart's coordinates."""
        return parse(text, self.coord_names)


def _check_components(chart: Chart, components: Sequence[Poly], size: int) -> tuple[Poly, ...]:
    comps = tuple(components)
    if len(comps) != size:
        raise ValueError(f"expected {size} components, got {len(comps)}")
    for c in comps:
        if c.dim != chart.dim:
            raise ValueError(f"component dimension {c.dim} does not match chart dim {chart.dim}")
    return comps


@dataclass(frozen=True)
class _Components:
    """Components with the linear algebra every exact tensor shares: one
    per coordinate in chart order unless a subclass overrides `size`.  A
    subclass passing `noun=` names its errors and types its results: a sum
    of `MomentumOneForm`s is a `OneFormExpr`."""

    chart: Chart
    components: tuple[Poly, ...]

    def __init_subclass__(cls, noun: str = "", **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        if noun:
            cls._noun, cls._result = noun, cls

    @staticmethod
    def size(chart: Chart) -> int:
        """The number of components on `chart`."""
        return chart.dim

    def __post_init__(self) -> None:
        object.__setattr__(self, "components",
                           _check_components(self.chart, self.components, self.size(self.chart)))

    @classmethod
    def _of(cls, chart: Chart, components: tuple[Poly, ...]):
        """An element of `cls` from a tuple of components that the algebra
        built from checked elements on `chart`, so of the right count and
        dimension by construction: not checked again."""
        out = object.__new__(cls)
        object.__setattr__(out, "chart", chart)
        object.__setattr__(out, "components", components)
        return out

    @classmethod
    def basis(cls, chart: Chart, slot: int):
        """The element with component 1 at `slot` and 0 elsewhere."""
        comps = [chart.zero()] * cls.size(chart)
        comps[slot] = chart.const(1)
        return cls._of(chart, tuple(comps))

    def __add__(self, other):
        if other.chart != self.chart:
            raise ValueError(f"{self._noun} live on different charts")
        if other._result is not self._result:
            raise ValueError(f"cannot add {other._noun} to {self._noun}")
        return self._result._of(self.chart,
                                tuple(a + b for a, b in zip(self.components, other.components)))

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return self._result._of(self.chart, tuple(-a for a in self.components))

    def scaled(self, factor: Poly | Rational):
        return self._result._of(self.chart, tuple(a * factor for a in self.components))

    def is_zero(self) -> bool:
        return all(a.is_zero() for a in self.components)


class OneFormExpr(_Components, noun="one-forms"):
    """A one-form alpha = alpha_k dx^k with polynomial components."""


class VectorFieldExpr(_Components, noun="vector fields"):
    """A vector field X = X^k d/dx^k with polynomial components."""

    def apply_to(self, f: Poly) -> Poly:
        """Directional derivative X(f) = X^k df/dx^k."""
        if f.dim != self.chart.dim:
            raise ValueError("function dimension does not match chart")
        return Poly.sum_of_products(f.dim, self.derivative_terms(f))

    def derivative_terms(self, f: Poly, sign: int = 1) -> list[tuple[int, Poly, Poly]]:
        """sign * X(f) as `Poly.sum_of_products` terms (sign, X^k, df/dx^k),
        one per nonzero component, for sums that hold X(f) among others;
        none for a zero f."""
        if not f:
            return []
        return [(sign, comp, f.partial(k)) for k, comp in enumerate(self.components) if comp]


class TwoFormExpr(_Components, noun="two-forms"):
    """A two-form B = sum_{j<k} B_jk dx^j wedge dx^k, stored as its strict
    upper triangle in row order (0,1), (0,2), ..., (d-2,d-1); B_kj = -B_jk
    and B_jj = 0 hold by construction."""

    @staticmethod
    def size(chart: Chart) -> int:
        return chart.dim * (chart.dim - 1) // 2

    @staticmethod
    def slot(dim: int, j: int, k: int) -> int:
        """The component index of B_jk, 0 <= j < k < dim."""
        return j * (2 * dim - j - 1) // 2 + k - j - 1

    @cached_property
    def columns(self) -> tuple[tuple[tuple[int, int, Poly], ...], ...]:
        """The nonzero index, built on first use and kept: for each column
        k, (i, sign, stored component) for every B_ik != 0 in ascending i.
        The sign is -1 below the diagonal, so no negated copy is built."""
        cols: list[list[tuple[int, int, Poly]]] = [[] for _ in range(self.chart.dim)]
        # row order fills every column in ascending i: rows above k first
        for (j, k), comp in zip(combinations(range(self.chart.dim), 2), self.components):
            if comp:
                cols[k].append((j, 1, comp))
                cols[j].append((k, -1, comp))
        return tuple(map(tuple, cols))


def pairing(alpha: OneFormExpr, X: VectorFieldExpr) -> Poly:
    """Pointwise pairing <alpha, X> = alpha_k X^k."""
    if alpha.chart != X.chart:
        raise ValueError("pairing requires a common chart")
    return Poly.sum_of_products(
        alpha.chart.dim, [(1, a, v) for a, v in zip(alpha.components, X.components)])


def contract_twoform(X: VectorFieldExpr, B: TwoFormExpr) -> OneFormExpr:
    """(i_X B)_k = X^j B_{jk}."""
    if X.chart != B.chart:
        raise ValueError("contraction requires a common chart")
    Xc = X.components
    return OneFormExpr._of(X.chart, tuple(
        Poly.sum_of_products(X.chart.dim, [(sign, Xc[j], comp) for j, sign, comp in col if Xc[j]])
        for col in B.columns))


def differential(H: Poly, chart: Chart) -> OneFormExpr:
    """dH as a one-form on the chart."""
    if H.dim != chart.dim:
        raise ValueError("function dimension does not match chart")
    if not H:
        return OneFormExpr._of(chart, (chart.zero(),) * chart.dim)
    return OneFormExpr._of(chart, tuple(H.partial(k) for k in range(chart.dim)))


@cache
def canonical_tau(chart: Chart) -> OneFormExpr:
    """The clock form tau = dt (cosymplectic and cocontact charts)."""
    return OneFormExpr.basis(chart, chart.t_slot)


@cache
def canonical_eta(chart: Chart) -> OneFormExpr:
    """The contact form eta = dz - p_i dq^i (contact and cocontact charts)."""
    comps = [chart.zero()] * chart.dim
    comps[chart.z_slot] = chart.const(1)
    for i in range(1, chart.n + 1):
        comps[chart.q_slot(i)] = -chart.coordinate(chart.p_slot(i))
    return OneFormExpr._of(chart, tuple(comps))


@cache
def two_form_omega(chart: Chart) -> TwoFormExpr:
    """Omega = dq^i wedge dp_i; the symplectic two-form, and d(eta) on z-charts."""
    comps = [chart.zero()] * TwoFormExpr.size(chart)
    for i in range(1, chart.n + 1):
        comps[TwoFormExpr.slot(chart.dim, chart.q_slot(i), chart.p_slot(i))] = chart.const(1)
    return TwoFormExpr._of(chart, tuple(comps))


@cache
def reeb_tau(chart: Chart) -> VectorFieldExpr:
    """Reeb field of the clock form: d/dt."""
    return VectorFieldExpr.basis(chart, chart.t_slot)


@cache
def reeb_eta(chart: Chart) -> VectorFieldExpr:
    """Reeb field of the contact form: d/dz."""
    return VectorFieldExpr.basis(chart, chart.z_slot)
