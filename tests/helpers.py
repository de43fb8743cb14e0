"""Helpers shared by the tests: a traced allocation peak, and the two
finite-difference oracles the exact divergence is checked against."""

import tracemalloc
from typing import Sequence

import numpy as np

from geokin.fields import Dynamics
from geokin.flow import IntegratorConfig, integrate


def traced_peak(fn):
    """Run `fn()` under tracemalloc; return (its result, the peak bytes
    traced while it ran).  numpy reports its buffers to tracemalloc."""
    tracemalloc.start()
    try:
        result = fn()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def numeric_divergence(dyn: Dynamics, x: Sequence[float], h: float = 1e-4) -> float:
    """Central-difference divergence of the catalog field at x."""
    x = np.asarray(x, dtype=float)
    total = 0.0
    for i, comp in enumerate(dyn.field.components):
        e = np.zeros_like(x)
        e[i] = h
        total += (comp.eval(x + e) - comp.eval(x - e)) / (2.0 * h)
    return total


def flow_map_logdet(
    dyn: Dynamics,
    x0: Sequence[float],
    t_span: tuple[float, float],
    config: IntegratorConfig = IntegratorConfig(),
    h: float = 1e-6,
) -> float:
    """log |det d(flow map)/dx0| by central differences of endpoints.

    Compared against the time integral of the exact divergence along the
    center trajectory.  The 2 * dim runs share the field of `dyn` and its
    compiled kernels.
    """
    x0 = np.asarray(x0, dtype=float)
    dim = dyn.spec.chart.dim
    jac = np.zeros((dim, dim))
    for i in range(dim):
        e = np.zeros(dim)
        e[i] = h
        plus = integrate(dyn, x0 + e, t_span, config).states[-1]
        minus = integrate(dyn, x0 - e, t_span, config).states[-1]
        jac[:, i] = (plus - minus) / (2.0 * h)
    sign, logdet = np.linalg.slogdet(jac)
    if sign <= 0:
        raise ArithmeticError("flow map Jacobian lost orientation; window too long?")
    return float(logdet)
