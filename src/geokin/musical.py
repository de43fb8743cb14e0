"""Musical maps between one-forms and vector fields on each chart kind.

The flat map is assembled from contractions with the canonical forms
(`chart.contract_twoform` with `chart.two_form_omega`, and `pairing` with
tau and eta), never by matrix inversion:

    symplectic    flat(X) = i_X Omega
    cosymplectic  flat(X) = i_X Omega + <tau, X> tau
    contact       flat(X) = i_X d(eta) + <eta, X> eta
    cocontact     flat(X) = <tau, X> tau + i_X d(eta) + <eta, X> eta

with Omega = dq^i wedge dp_i = d(eta) in these coordinates.  The sharp
map is its closed-form inverse.  On the component level, writing
alpha = alpha_i dq^i + alpha^i dp_i (+ zeta dz) (+ u dt):

    sharp(alpha) = alpha^i d/dq - (alpha_i + p_i zeta) d/dp
                   + (zeta + alpha^i p_i) d/dz + u d/dt

where the zeta terms appear only on charts with z and the u term only on
charts with t.  The bivector variant kills the Reeb directions:

    sharp_biv(alpha) = sharp(alpha) - <alpha, R_eta> R_eta - <alpha, R_tau> R_tau

(each subtraction only on charts carrying that Reeb field), which leaves
tau and eta in the kernel and reproduces the almost-Poisson bivector.
"""

from __future__ import annotations

from enum import Enum

from .chart import (
    OneFormExpr,
    VectorFieldExpr,
    canonical_eta,
    canonical_tau,
    contract_twoform,
    pairing,
    two_form_omega,
)
from .poly import Poly


class SharpVariant(Enum):
    FULL = "full"
    BIVECTOR = "bivector"


def sharp(alpha: OneFormExpr, variant: SharpVariant = SharpVariant.FULL) -> VectorFieldExpr:
    """Send a one-form to a vector field via the chart's sharp map."""
    chart = alpha.chart
    # the bivector variant drops <alpha, R_eta> R_eta and <alpha, R_tau> R_tau:
    # zeta leaves the z-component and the time component stays zero
    full = variant is SharpVariant.FULL
    comps = [chart.zero()] * chart.dim
    zeta = alpha.components[chart.z_slot] if chart.has_z else None
    pdotalpha = [(1, zeta, None)] if zeta is not None and full else []  # (zeta +) alpha^i p_i
    for i in range(1, chart.n + 1):
        a_q = alpha.components[chart.q_slot(i)]
        a_p = alpha.components[chart.p_slot(i)]
        p_i = chart.coordinate(chart.p_slot(i))
        comps[chart.q_slot(i)] = a_p
        comps[chart.p_slot(i)] = (-a_q if zeta is None else
                                  Poly.sum_of_products(chart.dim, [(-1, a_q, None), (-1, p_i, zeta)]))
        pdotalpha.append((1, a_p, p_i))
    if chart.has_z:
        comps[chart.z_slot] = Poly.sum_of_products(chart.dim, pdotalpha)
    if chart.has_time and full:
        comps[chart.t_slot] = alpha.components[chart.t_slot]
    return VectorFieldExpr._of(chart, tuple(comps))


def flat(X: VectorFieldExpr) -> OneFormExpr:
    """Send a vector field to a one-form; inverse of sharp(FULL)."""
    chart = X.chart
    alpha = contract_twoform(X, two_form_omega(chart))
    if chart.has_z:
        eta = canonical_eta(chart)
        alpha = alpha + eta.scaled(pairing(eta, X))
    if chart.has_time:
        tau = canonical_tau(chart)
        alpha = alpha + tau.scaled(pairing(tau, X))
    return alpha


def flat_sharp_residual(alpha: OneFormExpr) -> OneFormExpr:
    """flat(sharp(alpha)) - alpha; identically zero if the maps invert."""
    return flat(sharp(alpha)) - alpha


def sharp_flat_residual(X: VectorFieldExpr) -> VectorFieldExpr:
    """sharp(flat(X)) - X; identically zero if the maps invert."""
    return sharp(flat(X)) - X
