"""Run budgets: how much one run may cost, and the checks that refuse more.

Every run budget is assigned here, once, with the comment that derives
it; `flow`, `kinetics`, `poly` and `cli` read it here when called.  The checks
the kinetic solvers and the CLI share live here too.  Each raises a
ValueError with the message the user reads, and the caller picks the
exit status.  `flow` keeps its own step arithmetic (RK4 rounds where the
kinetic solvers take the ceiling).  `poly`'s caps and
`density.MAX_ADJUDICATION_SAMPLES` limit an algorithm, not a run, and
stay with it.  This module imports no numpy.
"""

from __future__ import annotations

import math
from typing import Sequence

# The step budget of every solver loop: one `integrate` run (RK4 steps, or
# RKF45 steps tried) or one snapshot segment of a kinetic run.  The longest
# loop of any test or seed-0 benchmark run is 10 000 RK4 steps (a test
# trajectory; the benchmark's longest is 2 100 RK4 steps, its kinetic
# segments at most 125), so it holds 200 times over.
MAX_STEPS = 2_000_000
# The largest RKF45 step, so that a span past MAX_STEPS of them is refused
# before the first step, as RK4 refuses one.  The largest step tried by any
# test or seed-0 benchmark run is 0.4 (the benchmark's own is 0.0345).
MAX_RK45_STEP = 100.0
# The work budget of one kinetic run: cells x steps (all snapshot segments)
# on the grid, particles x steps in the push.  At least 10x the largest
# benchmark or test input (128^2 cells x 250 steps; 10^5 particles x 50
# steps); one core of a 2-vCPU x86 host steps it in about 25 to 55 s on the
# grid (a 128^2 grid to a 40^3 one with a source) and pushes it in about 80 s.
MAX_WORK = 1_000_000_000
# What one config may ask for, each at least 10x the largest benchmark or
# test input (64 000 cells of 3 coordinates, 230 400 particles of 2 plus a
# weight, 25 trials); `cli` refuses more.  The grid and particle budgets
# count float64 values, so a chart with more coordinates gets fewer of each.
MAX_GRID_VALUES = 2_000_000  # cells x dim: the cell centers, or the velocity grids
# particles x (dim + 1): the push state, the one copy of the ensemble a
# particle run holds from seeding to its written files, beside one block of
# `flow.BLOCK_ROWS` rows of working memory
MAX_PUSH_VALUES = 7_500_000
MAX_PARTICLES = MAX_PUSH_VALUES // 3  # the most particles, reached on the two-coordinate charts
MAX_TRIALS = 1_000
# The work budget of one identity suite: trials x chart coordinates.  Its
# cost grows with both, and the cocontact chart, with the most laws, costs
# most: one core of a 2-vCPU x86 host runs it at about 2.4 ms per trial and
# coordinate (20 trials at n=16, 34 coordinates: 1.7 s; 1000 at n=1: 9 s).
# The default 20 trials on the widest chart (20 x 34 = 680) fit 14 times
# over, the benchmark's largest suite (10 trials x 6 coordinates) 160
# times; the dearest accepted suite, 294 trials at n=16, takes about 27 s.
MAX_IDENTITY_WORK = 10_000
MAX_CHART_N = 16  # the most (q, p) pairs a config or `identity --n` may ask for
# The most terms one polynomial's generated evaluator (`codegen.evaluator`,
# the scalar entry or the array kernel) may hold; `Poly` refuses to compile
# more.  Compiling peaks at about 5 KB of RSS a term, and takes 30 to 110 us
# a term by the terms' shape, on a 2-vCPU x86 host: 10^4 random terms of 1 to
# 4 factors on 34 coordinates took 1.1 s and 51 MiB, and X(H) of 712 073
# terms 23 s and 3.7 GB.  So the budget is about 50 MB and 1 s a kernel; the
# largest kernel of any test has 56 terms, of any seed-0 benchmark run 25, so
# it holds 178 times over.  A derived polynomial under `poly`'s product cap
# can reach about 10^6 terms.
MAX_KERNEL_TERMS = 10_000


def step_count(t_final: float, dt: float) -> int:
    """ceil(t_final / dt) steps, at least one (none for t_final = 0);
    refused before any work when past the step budget."""
    ratio = t_final / dt if dt else math.inf  # a CFL limit can underflow to 0.0
    steps = ratio - 1e-12
    if not steps <= MAX_STEPS:
        raise ValueError(f"t_final/dt = {ratio:.6g} steps exceed the budget of {MAX_STEPS}")
    return max(1, math.ceil(steps)) if t_final > 0 else 0


def snapshot_spans(times: Sequence[float]) -> list[float]:
    """The spans of time between consecutive snapshot `times`, from 0: the
    segments a grid run steps through."""
    return [b - a for a, b in zip([0.0, *times], times)]


def step_counts(spans: Sequence[float], dt: float, size: int, what: str) -> list[int]:
    """The steps of each span at `dt`, by `step_count`; a run of them over
    `size` cells or particles is refused past the work budget, before any
    work."""
    counts = [step_count(span, dt) for span in spans]
    steps = sum(counts)
    if size * steps > MAX_WORK:
        raise ValueError(f"{size} {what} x {steps} steps exceed the work budget of {MAX_WORK}")
    return counts


def seed_lattice(sizes: Sequence[int], requested: int) -> list[int]:
    """The axis sizes of the lattice a particle run seeds on axes of
    `sizes`: `requested` rounded to a whole number of sites per active
    axis, one layer on collapsed ones.  The seeded count is their product,
    which may pass the requested one."""
    active = sum(n > 1 for n in sizes)
    per_axis = max(2, int(round(requested ** (1.0 / max(1, active)))))
    return [per_axis if n > 1 else 1 for n in sizes]


def check_identity_work(trials: int, dim: int) -> None:
    """Refuse an identity suite of `trials` draws per law on a chart of
    `dim` coordinates past the identity work budget."""
    if trials * dim > MAX_IDENTITY_WORK:
        raise ValueError(f"{trials} trials x {dim} coordinates exceed the identity budget of "
                         f"{MAX_IDENTITY_WORK}; at most {MAX_IDENTITY_WORK // dim} on this chart")
