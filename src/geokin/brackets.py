"""Function brackets on the four chart kinds.

Six kinds.  With F_q = dF/dq^i etc. and summation over i:

    poisson-symplectic     {F,H} = F_q H_p - F_p H_q
    poisson-cosymplectic   same formula on (t, q, p); functions of t
                           alone are Casimirs
    almost-poisson-contact {F,H} = F_q H_p - F_p H_q
                                   + p_i F_z H_p - p_i F_p H_z
    jacobi-contact         {F,H} = F_q H_p - F_p H_q
                                   + (F - p_i F_p) H_z - (H - p_i H_p) F_z
    almost-poisson-cocontact / jacobi-cocontact: the same two formulas
    read on (t, q, p, z).

The Poisson kinds satisfy Jacobi and Leibniz.  The almost-Poisson kinds
keep Leibniz but break Jacobi (a fixed nonzero jacobiator witness is
pinned in the tests).  The Jacobi kinds satisfy Jacobi but only the
weak Leibniz rule

    {F, K*H} = K {F,H} + H {F,K} + K*H * dF/dz.

`bracket_via_bivector` recomputes every kind through the musical layer
(bivector sharp plus, for the Jacobi kinds, the Reeb correction
F R_eta(H) - H R_eta(F)); the two routes are cross-checked in the test
suite and must never be collapsed into one.
"""

from __future__ import annotations

from enum import Enum

from .chart import Chart, ChartKind, differential, pairing
from .musical import SharpVariant, sharp
from .poly import Poly


class BracketKind(str, Enum):
    POISSON_SYMPLECTIC = "poisson-symplectic"
    POISSON_COSYMPLECTIC = "poisson-cosymplectic"
    ALMOST_POISSON_CONTACT = "almost-poisson-contact"
    JACOBI_CONTACT = "jacobi-contact"
    ALMOST_POISSON_COCONTACT = "almost-poisson-cocontact"
    JACOBI_COCONTACT = "jacobi-cocontact"

    @property
    def chart_kind(self) -> ChartKind:
        return _CHART_OF_KIND[self]

    @property
    def is_jacobi(self) -> bool:
        return self in (BracketKind.JACOBI_CONTACT, BracketKind.JACOBI_COCONTACT)

    @property
    def is_almost_poisson(self) -> bool:
        return self in (
            BracketKind.ALMOST_POISSON_CONTACT,
            BracketKind.ALMOST_POISSON_COCONTACT,
        )


_CHART_OF_KIND = {
    BracketKind.POISSON_SYMPLECTIC: ChartKind.SYMPLECTIC,
    BracketKind.POISSON_COSYMPLECTIC: ChartKind.COSYMPLECTIC,
    BracketKind.ALMOST_POISSON_CONTACT: ChartKind.CONTACT,
    BracketKind.JACOBI_CONTACT: ChartKind.CONTACT,
    BracketKind.ALMOST_POISSON_COCONTACT: ChartKind.COCONTACT,
    BracketKind.JACOBI_COCONTACT: ChartKind.COCONTACT,
}


def kinds_for_chart(kind: ChartKind) -> tuple[BracketKind, ...]:
    return tuple(k for k, ck in _CHART_OF_KIND.items() if ck is kind)


def canonical_bracket_kind(kind: ChartKind) -> BracketKind:
    """The bracket driving each chart's density dynamics."""
    return {
        ChartKind.SYMPLECTIC: BracketKind.POISSON_SYMPLECTIC,
        ChartKind.COSYMPLECTIC: BracketKind.POISSON_COSYMPLECTIC,
        ChartKind.CONTACT: BracketKind.JACOBI_CONTACT,
        ChartKind.COCONTACT: BracketKind.JACOBI_COCONTACT,
    }[kind]


def _check(chart: Chart, kind: BracketKind, *fs: Poly) -> None:
    if chart.kind is not kind.chart_kind:
        raise ValueError(f"bracket {kind.value} is not defined on a {chart.kind.value} chart")
    for f in fs:
        if f.dim != chart.dim:
            raise ValueError("function dimension does not match chart")


def bracket(chart: Chart, kind: BracketKind, F: Poly, H: Poly) -> Poly:
    """Evaluate the bracket, exactly."""
    _check(chart, kind, F, H)
    dim = chart.dim
    terms = []
    # each first partial once: the p-partials feed the drift and Reeb terms too
    ps = [chart.p_slot(i) for i in range(1, chart.n + 1)]
    Fp = [F.partial(pi) for pi in ps]
    Hp = [H.partial(pi) for pi in ps]
    for i, (Fpi, Hpi) in enumerate(zip(Fp, Hp), 1):
        qi = chart.q_slot(i)
        terms += [(1, F.partial(qi), Hpi), (-1, Fpi, H.partial(qi))]
    if kind.is_almost_poisson:
        z = chart.z_slot
        Fz, Hz = F.partial(z), H.partial(z)
        for pi, Fpi, Hpi in zip(ps, Fp, Hp):
            drift = Poly.sum_of_products(dim, [(1, Fz, Hpi), (-1, Fpi, Hz)])
            terms.append((1, chart.coordinate(pi), drift))
    elif kind.is_jacobi:
        z = chart.z_slot
        # p_i dF/dp_i is of no higher degree than F: these sums pass the cap only where F does
        pcoords = [chart.coordinate(pi) for pi in ps]
        pFp = Poly.sum_of_products(dim, [(1, p, Fpi) for p, Fpi in zip(pcoords, Fp)])
        pHp = Poly.sum_of_products(dim, [(1, p, Hpi) for p, Hpi in zip(pcoords, Hp)])
        terms += [(1, F - pFp, H.partial(z)), (-1, H - pHp, F.partial(z))]
    return Poly.sum_of_products(dim, terms)


def bracket_via_bivector(chart: Chart, kind: BracketKind, F: Poly, H: Poly) -> Poly:
    """Independent route through the musical layer.

    All six kinds contract dF with the bivector sharp of dH; the Jacobi
    kinds add the Reeb correction F R_eta(H) - H R_eta(F).
    """
    _check(chart, kind, F, H)
    out = pairing(differential(F, chart), sharp(differential(H, chart), SharpVariant.BIVECTOR))
    if kind.is_jacobi:
        z = chart.z_slot
        out = Poly.sum_of_products(chart.dim, [(1, out, None), (1, F, H.partial(z)),
                                               (-1, H, F.partial(z))])
    return out


def jacobiator(chart: Chart, kind: BracketKind, F: Poly, G: Poly, H: Poly) -> Poly:
    """{{F,G},H} + {{G,H},F} + {{H,F},G}; zero iff Jacobi holds."""
    return (
        bracket(chart, kind, bracket(chart, kind, F, G), H)
        + bracket(chart, kind, bracket(chart, kind, G, H), F)
        + bracket(chart, kind, bracket(chart, kind, H, F), G)
    )


def leibniz_defect(chart: Chart, kind: BracketKind, F: Poly, K: Poly, H: Poly) -> Poly:
    """{F, K*H} - K{F,H} - H{F,K}; zero iff the plain Leibniz rule holds.

    For the Jacobi kinds the defect equals K*H*dF/dz exactly.
    """
    return (
        bracket(chart, kind, F, K * H)
        - K * bracket(chart, kind, F, H)
        - H * bracket(chart, kind, F, K)
    )


# Jacobiator witness pinned for the almost-Poisson kinds, found once by a
# randomized search over degree <= 2 monomials and frozen; no search runs
# here.  jacobiator(z, p1, q1) == -1 on both charts.
JACOBIATOR_WITNESS_NAMES: tuple[str, str, str] = ("z", "p1", "q1")


def jacobiator_witness(chart: Chart, kind: BracketKind) -> tuple[Poly, Poly, Poly]:
    """The frozen witness triple, parsed on the given chart."""
    if not kind.is_almost_poisson:
        raise ValueError(f"{kind.value} satisfies Jacobi; no witness exists")
    _check(chart, kind)
    F, G, H = (chart.parse(name) for name in JACOBIATOR_WITNESS_NAMES)
    return F, G, H
