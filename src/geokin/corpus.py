"""Seeded random polynomials, one-forms and Hamiltonians.

Shared by the identity suite and the test corpus.  All draws flow from
a caller-supplied `random.Random`; nothing here touches global state,
so a fixed seed reproduces a corpus byte for byte.

Coefficients are small rationals (denominators up to 3) to keep nested
exact operations fast while still exercising non-integer arithmetic.
They are summed as integer numerators over 6, the lcm of 1..3.
"""

from __future__ import annotations

import random

from .chart import Chart, OneFormExpr
from .poly import MAX_TOTAL_DEGREE, Poly, unit_key


def random_poly(
    rng: random.Random,
    dim: int,
    degree: int = 3,
    terms: int = 4,
    allow_zero: bool = False,
    frozen_slots: tuple[int, ...] = (),
) -> Poly:
    """A random polynomial of total degree <= `degree` with <= `terms` terms.

    `frozen_slots` lists coordinate indices the result must not depend
    on (used for strict rows and reduction chains).
    """
    if not 0 <= degree <= MAX_TOTAL_DEGREE:
        raise ValueError(f"degree must lie in 0..{MAX_TOTAL_DEGREE}")
    # the key of each free coordinate: a term's key is the sum of its factors' keys
    free = [unit_key(dim, i) for i in range(dim) if i not in frozen_slots]
    for _ in range(50):
        out: dict[int, int] = {}  # numerators over 6, the lcm of 1..3
        for _ in range(rng.randint(1, max(1, terms))):
            key = 0
            for _ in range(rng.randint(0, degree)):
                if free:
                    key += rng.choice(free)
            num = rng.choice([-4, -3, -2, -1, 1, 2, 3, 4])
            den = rng.randint(1, 3)
            out[key] = out.get(key, 0) + num * (6 // den)
        poly = Poly._of(dim, {k: n for k, n in out.items() if n}, 6)
        if allow_zero or not poly.is_zero():
            return poly
    raise RuntimeError("failed to draw a nonzero polynomial")


def random_hamiltonian(
    rng: random.Random,
    chart: Chart,
    degree: int = 3,
    terms: int = 4,
    z_free: bool = False,
) -> Poly:
    frozen = (chart.z_slot,) if z_free and chart.has_z else ()
    return random_poly(rng, chart.dim, degree=degree, terms=terms, frozen_slots=frozen)


def random_one_form(
    rng: random.Random, chart: Chart, degree: int = 2, terms: int = 3
) -> OneFormExpr:
    comps = tuple(
        random_poly(rng, chart.dim, degree=degree, terms=terms, allow_zero=True)
        for _ in range(chart.dim)
    )
    return OneFormExpr(chart, comps)
