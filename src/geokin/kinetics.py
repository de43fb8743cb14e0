"""Kinetic solvers: a density carried along the Hamiltonian/gauge-zero
flow, by particles and on a grid, and the writers of their grid and
particle files (nothing in geokin reads those files back).

The law they carry, and what they read off it (the row, the weight rate
R_eta(H) and the grid's growth factor), lives in `density`.  Both solvers
take a `fields.Dynamics` of that row, built once by the caller, and start
from one setup per call, `_transport`: it checks the chart, the row, the
times and the CFL number, evaluates the field the `Dynamics` holds on the
grid by `Poly.eval_grid` on the axis centers, so each velocity spans only
the axes its component depends on, refuses a velocity that is not finite
there, a collapsed axis with transport across it and an active axis
under 32 cells, and returns the weight rate, the velocity of each active
axis, the CFL limit and the steps of each span; it builds and returns no
cell centers.  Both refuse a run past `budgets.MAX_STEPS` steps, or past
`budgets.MAX_WORK` cells (or seeded particles) x steps, before the first
step (`budgets.step_counts`, once a call); with a given dt, before the
setup evaluates any velocity.  Both refuse a state that loses finiteness
with a `StabilityError`.  Past that setup they share no numerics.

The particle solver takes the initial density in closed form (a `Poly`
or a callable) plus the grid axes.  It pushes a jittered-lattice
ensemble along the flow with per-particle weights obeying
dw/ds = R_eta(H) w (the material growth rate n+2 minus the volume
contraction n+1), then deposits cloud-in-cell.  From seeding to the
written files the ensemble is one contiguous column per chart
coordinate, in chart order, plus the weights, allocated once by the
seeding; every pass over it goes in the row blocks of `flow.row_blocks`,
so what a run holds past the ensemble is one block's working set.
Seeding jitters the lattice and evaluates the weights block by block, in
the draw order of one whole-column draw.  The push state is the dim+1
columns, weight last, stepped by `codegen`'s RK4 step along one path; the
calling thread pushes the blocks one after another, each a slice (a
view, not a copy) of the seeded columns, and writes each block's
survivors straight after those of the blocks before it, in rows no later
block reads.  So the final columns are prefixes of the seeded ones; the
weights that escape are gathered step by step in row order, so no result
depends on the blocking.  The cloud-in-cell stencil
walks the corners in its outer loop and the blocks in its inner one,
which keeps the deposit's additions in the order of one whole-column
pass, and the file writers format one block at a time; the particle CSV
goes through `flow.write_csv`, as the trajectory CSV does.

The grid solver is the independent oracle: from f0 as the particle solver
takes it, sampled once after every up-front refusal, method of lines with
first-order upwind transport per advecting axis (one difference per cell
face), the pointwise source (n+2) R_eta(H) f (the factor is
`density.growth_factor`), and SSP-RK3 in time under an
explicit CFL guard, through every snapshot time in one call.  The source
comes from `eval_grid` too; it, and -v and the wind direction v > 0 of
each active axis, are materialized full and flat once per solve
(`_grid_terms`), as the steps read them.  A `Poly` density is sampled
the same way, materialized once as the grid's values; `_cell_centers`
builds point columns only to seed particles and for a callable density.
It steps in a workspace allocated once per call, after every up-front
refusal: five flat grid arrays (the state and the spare it alternates
with, the right-hand side, the second stage and one face scratch shared
by the axes) and a finiteness mask, which every step writes in place.  Along an axis, one
contiguous subtraction over the flat grid forms every face difference,
and a multiplication by -v of the forward faces, then one masked by
v > 0 of the backward ones, picks the upwind face.  Each snapshot owns
its array: the steps go on in a copy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import budgets
from .chart import Chart, VectorFieldExpr
from .codegen import rk4_stepper
from .density import growth_factor, kinetic_spec, weight_rate
from .density import intertwine_residual  # noqa: F401  perfbench/layers.py traces it here
from .fields import Dynamics
from .flow import row_blocks, write_csv
from .poly import Poly


# -- grids, particles, solvers ----------------------------------------


class StabilityError(RuntimeError):
    """A solver was asked to run outside its stability envelope."""


BOUNDARIES = ("zero", "periodic")


@dataclass(frozen=True)
class GridAxis:
    name: str
    lo: float
    hi: float
    size: int
    boundary: str = "zero"

    def __post_init__(self) -> None:
        if self.size < 1:
            raise ValueError("axis size must be at least 1")
        if not 0.0 < self.dx < math.inf:  # (hi - lo) / size may underflow or overflow
            raise ValueError(f"axis {self.name}: hi must exceed lo by a finite nonzero cell width")
        if self.boundary not in BOUNDARIES:
            raise ValueError(f"axis {self.name}: boundary must be one of {BOUNDARIES}")

    @property
    def dx(self) -> float:
        return (self.hi - self.lo) / self.size

    def centers(self) -> np.ndarray:
        return self.lo + (np.arange(self.size) + 0.5) * self.dx


Density = Poly | Callable[[np.ndarray], np.ndarray]  # a density in closed form


def _evaluate(density: Density, cols: Sequence[np.ndarray]) -> np.ndarray:
    """A closed-form density at N points given as one column per axis; a
    callable takes them as one (N, dim) array."""
    if isinstance(density, Poly):
        return density.eval_array(cols)
    return np.asarray(density(np.stack(cols, axis=1)), dtype=float)


def _cell_centers(axes: Sequence[GridAxis]) -> list[np.ndarray]:
    """Cell centers of a tensor-product grid, one column per axis, C order:
    the seeding lattice, and the points a callable density takes."""
    return [g.ravel() for g in np.meshgrid(*[a.centers() for a in axes], indexing="ij")]


def _full(values: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """An `eval_grid` result on the whole grid, C-contiguous and writable:
    the array itself when it spans every axis already, else a copy of its
    broadcast."""
    return values if values.shape == shape else np.broadcast_to(values, shape).copy()


def _cic_corners(axes: Sequence[GridAxis], cols: Sequence[np.ndarray],
                 weight: np.ndarray | float):
    """The cloud-in-cell stencil around points given as one column per
    axis, with one weight per point or one for all: per cell-center
    corner, then per block of rows, yield (the block's rows, flat cell
    index, weight times corner weight, in-grid mask)."""
    shape = tuple(a.size for a in axes)
    blocks = row_blocks(len(cols[0]))
    for corner in range(1 << len(axes)):
        for rows in blocks:
            idx = []
            w = weight if np.ndim(weight) == 0 else weight[rows]
            valid = np.ones(rows.stop - rows.start, dtype=bool)
            for k, axis in enumerate(axes):
                u = (cols[k][rows] - axis.lo) / axis.dx - 0.5
                i0 = np.floor(u).astype(int)
                frac = u - i0
                hi = (corner >> k) & 1
                i = i0 + hi
                w = w * (frac if hi else 1.0 - frac)
                if axis.boundary == "periodic":
                    i = np.mod(i, axis.size)
                else:
                    valid &= (i >= 0) & (i < axis.size)
                    i = np.clip(i, 0, axis.size - 1)
                idx.append(i)
            yield rows, np.ravel_multi_index(idx, shape, mode="clip"), w, valid


@dataclass(frozen=True, eq=False)
class GridDensity:
    """A density sampled at cell centers of a tensor-product grid.

    Axes cover every chart coordinate, in chart order; collapsed axes
    (size 1) stand for directions the problem does not resolve.  Frozen:
    the constructor converts and checks `values` once, and no field is
    rebound after it; the array itself may be written in place.  Compared
    and hashed by identity, as are `ParticleEnsemble`,
    `ParticleKineticResult` and `flow.Trajectory`: `==` field by field
    would compare arrays, which have no truth value and no hash.
    """

    chart: Chart
    axes: tuple[GridAxis, ...]
    values: np.ndarray

    def __post_init__(self) -> None:
        names = tuple(a.name for a in self.axes)
        if names != self.chart.coord_names:
            raise ValueError(
                f"axes {names} must match chart coordinates {self.chart.coord_names}"
            )
        shape = tuple(a.size for a in self.axes)
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))
        if self.values.shape != shape:
            raise ValueError(f"values shape {self.values.shape} does not match grid {shape}")

    @property
    def cell_volume(self) -> float:
        return math.prod(a.dx for a in self.axes)

    def total_mass(self) -> float:
        return float(self.values.sum()) * self.cell_volume

    @classmethod
    def sample(cls, chart: Chart, axes: Sequence[GridAxis], func: Density) -> "GridDensity":
        axes = tuple(axes)
        shape = tuple(a.size for a in axes)
        if isinstance(func, Poly):
            return cls(chart, axes, _full(func.eval_grid([a.centers() for a in axes]), shape))
        return cls(chart, axes, _evaluate(func, _cell_centers(axes)).reshape(shape))

    def interpolate(self, points: np.ndarray) -> np.ndarray:
        """Multilinear interpolation; zero outside zero-boundary axes.  No
        CLI path calls it; it stays as the deposit's adjoint, as the f0 by
        which a density known only on a grid enters either solver, and
        because perfbench's tracer wraps it by name."""
        pts = np.asarray(points, dtype=float)
        out = np.zeros(pts.shape[0])
        values = self.values.ravel()
        for rows, flat, weight, valid in _cic_corners(self.axes, pts.T, 1.0):
            out[rows] += np.where(valid, weight * values[flat], 0.0)
        return out


@dataclass(frozen=True, eq=False)
class ParticleEnsemble:
    """Weighted particles, frozen as `GridDensity` is."""

    chart: Chart
    columns: list[np.ndarray]  # one (N,) column per chart coordinate, chart order
    weights: np.ndarray  # (N,)

    def __post_init__(self) -> None:
        object.__setattr__(self, "columns", [np.asarray(c, dtype=float) for c in self.columns])
        object.__setattr__(self, "weights", np.asarray(self.weights, dtype=float))
        if self.weights.ndim != 1:
            raise ValueError("weights must be one per particle")
        if len(self.columns) != self.chart.dim or any(
                c.shape != self.weights.shape for c in self.columns):
            raise ValueError(f"need {self.chart.dim} columns of one value per particle")

    def total_weight(self) -> float:
        return float(self.weights.sum())


@dataclass(eq=False)
class ParticleKineticResult:
    ensemble: ParticleEnsemble
    deposited: GridDensity
    mass_initial: float
    mass_final: float
    escaped_mass: float
    escaped_count: int


def _transport(dyn: Dynamics, axes: tuple[GridAxis, ...], spans: Sequence[float],
               dt: float | None, cfl: float, size: int, what: str):
    """The setup both solvers share, checked in this order: the chart, the
    row (Hamiltonian/gauge-zero only), the times (each span of time to
    run), the CFL number, with a given `dt` the step and work budgets of a
    run over `size` cells or particles (`budgets.step_counts`), then each
    axis against the field's velocity at the cell centers, then, without a
    `dt`, the budgets at the CFL limit.  Each velocity is the component's
    `Poly.eval_grid` on the axis centers, so it spans only the axes the
    component depends on; no cell centers are built or returned.

    Returns (rate, moving, limit, counts): the weight rate, (k, velocity)
    for each active axis k, in axis order, the CFL limit
    cfl / sum(max|v_k| / dx_k) over them (inf when nothing moves), and the
    steps of each span at `dt`, or at the limit when `dt` is None.
    """
    chart = dyn.spec.chart
    if tuple(a.name for a in axes) != chart.coord_names or dyn.H.dim != chart.dim:
        raise ValueError("grid, Hamiltonian and chart must agree")
    if dyn.spec != kinetic_spec(chart):
        raise ValueError(f"the solvers carry densities along the hamiltonian field with "
                         f"gauge zero only, not {dyn.spec.row_name}")
    if not all(span >= 0 for span in spans) or dt is not None and not dt > 0:
        raise ValueError("need dt > 0 and t_final >= 0, with times in order")
    if not cfl > 0:
        raise ValueError(f"need cfl > 0, not {cfl!r}")
    if dt is not None:  # refused before any velocity is evaluated
        counts = budgets.step_counts(spans, dt, size, what)
    centers = [a.centers() for a in axes]
    moving, rate = [], 0.0
    for k, (axis, component) in enumerate(zip(axes, dyn.field.components)):
        vel = component.eval_grid(centers)
        speed = float(np.max(np.abs(vel)))
        if not math.isfinite(speed):
            raise ValueError(f"axis {axis.name}: the advection velocity is not finite on the grid")
        if axis.size == 1:
            if speed > 0.0:
                raise ValueError(
                    f"axis {axis.name} is collapsed but its advection velocity is nonzero"
                )
        elif axis.size < 32:
            raise ValueError(f"axis {axis.name}: active axes need at least 32 cells")
        else:
            moving.append((k, vel))
            rate += speed / axis.dx
    limit = cfl / rate if rate else math.inf
    if dt is None:  # dt is the CFL limit; with nothing moving it is inf, one step a span
        counts = budgets.step_counts(spans, limit, size, what)
    return weight_rate(dyn), moving, limit, counts


def _grid_terms(chart: Chart, rate: Poly, moving, axes: tuple[GridAxis, ...]):
    """What the grid steps read, full and flat, from `_transport`'s rate and
    velocities: the wind (-v, v > 0, the axis, its stride) of each moving
    axis, -v negated in place over the velocity it consumes, and the source
    (n+2) R_eta(H) on the cell centers, or None where the rate is zero."""
    shape = tuple(a.size for a in axes)
    wind = []
    for k, vel in moving:
        v = _full(vel, shape).ravel()
        pos = v > 0.0
        wind.append((np.negative(v, out=v), pos, axes[k], math.prod(shape[k + 1:])))
    if rate.is_zero():
        return wind, None
    src = growth_factor(chart) * rate.eval_grid([a.centers() for a in axes])
    return wind, _full(src, shape).ravel()


def _upwind_term(values: np.ndarray, negv: np.ndarray, pos: np.ndarray, axis: GridAxis,
                 stride: int, face: np.ndarray, term: np.ndarray) -> None:
    """Write -v * df/dx along one axis into `term`, first-order upwinding
    given -v and v > 0.  Every array is the flat C-order grid; `stride` is
    the product of the trailing axis sizes, and `face` is scratch.

    One contiguous subtraction forms every backward face difference,
    face[j] = f[j] - f[j - stride]; the first slab along the axis then takes
    its inflow face, `f[0] - 0.0` (zero inflow) or `f[0] - f[-1]`
    (periodic), so signed zeros come out as from a zero-padded array.  A
    cell's forward face is the backward face one stride on, except on the
    last slab, whose forward face is `0.0 - f[-1]` or the periodic face.
    """
    s = stride
    np.subtract(values[s:], values[:-s], out=face[s:])
    f, faces, terms, nv = (a.reshape(-1, axis.size, s) for a in (values, face, term, negv))
    periodic = axis.boundary == "periodic"
    np.subtract(f[:, 0], f[:, -1] if periodic else 0.0, out=faces[:, 0])
    face /= axis.dx
    np.multiply(negv[:-s], face[s:], out=term[:-s])  # forward faces, the last slab's mended next
    if periodic:
        np.multiply(nv[:, -1], faces[:, 0], out=terms[:, -1])
    else:
        last = terms[:, -1]
        np.subtract(0.0, f[:, -1], out=last)
        last /= axis.dx
        last *= nv[:, -1]
    np.multiply(negv, face, out=term, where=pos)  # backward faces where the wind is positive


def _ssp_rk3_step(rhs, v: np.ndarray, h: float, out: np.ndarray, r: np.ndarray,
                  k: np.ndarray) -> None:
    """One SSP-RK3 (Shu-Osher) step from v into `out`, allocating nothing:
    `rhs(x, r, scratch)` writes the right-hand side at x into r, `k` holds
    the second stage, and `out` the first until the step's result replaces
    it.  The values are those of
    k1 = v + h*rhs(v), k2 = 0.75*v + 0.25*(k1 + h*rhs(k1)) and
    v/3 + (2/3)*(k2 + h*rhs(k2)), by the same operations in the same order
    (IEEE addition and multiplication commute, so `r += k1` is k1 + h*r)."""
    rhs(v, r, k)
    r *= h
    np.add(v, r, out=out)  # k1
    rhs(out, r, k)
    r *= h
    r += out
    r *= 0.25
    np.multiply(v, 0.75, out=k)
    k += r  # k2
    rhs(k, r, out)
    r *= h
    r += k
    r *= 2.0 / 3.0
    np.divide(v, 3.0, out=out)
    out += r


def solve_density_grid(
    dyn: Dynamics,
    f0: Density,
    times: Sequence[float],
    dt: float | None = None,
    cfl: float = 0.9,
    *,
    axes: Sequence[GridAxis],
) -> list[GridDensity]:
    """Method-of-lines oracle for the density equation.

    f0 and `axes` as for `solve_density_particle`.  First-order upwind
    transport along each active axis, pointwise source (n+2) R_eta(H) f on
    z-charts, SSP-RK3 in time.  Returns the density at each of `times`
    (nondecreasing, from s = 0), one grid per time, all held until the call
    returns.  The setup runs once; each span between consecutive times is
    its own segment of ceil(span/dt) equal steps.  Raises ValueError where
    `_transport` refuses the setup, any segment needs more than
    `budgets.MAX_STEPS` steps or cells x steps over all segments exceed
    `budgets.MAX_WORK`, and StabilityError if the requested dt violates the
    CFL bound, all before f0 is sampled (`GridDensity.sample`, once), and
    StabilityError if a step loses finiteness.  The steps run in a fixed
    workspace of five grid arrays and a mask, besides -v, v > 0 and the
    source; each returned grid owns its array, and none is written again.
    """
    chart, axes = dyn.spec.chart, tuple(axes)
    shape, spans = tuple(a.size for a in axes), budgets.snapshot_spans(times)
    rate, moving, limit, counts = _transport(dyn, axes, spans, dt, cfl, math.prod(shape), "cells")
    if dt is not None and dt > limit:
        raise StabilityError(f"dt={dt!r} exceeds the CFL bound {limit!r}")
    wind, src = _grid_terms(chart, rate, moving, axes)
    del moving  # -v and v > 0 are all the steps read
    # the workspace: the state, its spare, the right-hand side, the second
    # stage and the face scratch, flat, plus the finiteness mask; the state
    # is a copy, for a callable f0 may return an array its caller holds
    v = GridDensity.sample(chart, axes, f0).values.flatten()
    spare, r, stage, face = (np.empty_like(v) for _ in range(4))
    finite = np.empty(v.size, dtype=bool)

    def rhs(values: np.ndarray, out: np.ndarray, term: np.ndarray) -> None:
        total = 0.0  # 0.0 + t_1 + t_2 + ... + src*f, summed into `out`
        for negv, pos, axis, stride in wind:
            _upwind_term(values, negv, pos, axis, stride, face, term)
            total = np.add(total, term, out=out)
        if src is not None:
            total = np.add(total, np.multiply(src, values, out=term), out=out)
        if total is not out:  # nothing moves and nothing grows
            out.fill(0.0)

    grids = []
    for span, n_steps in zip(spans, counts):
        h = span / n_steps if n_steps else 0.0
        for _ in range(n_steps):
            _ssp_rk3_step(rhs, v, h, spare, r, stage)
            v, spare = spare, v
            if not np.isfinite(v, out=finite).all():
                raise StabilityError("grid solution lost finiteness; reduce dt")
        grids.append(GridDensity(chart, axes, v.reshape(shape)))
        if len(grids) < len(spans):
            v = v.copy()  # the snapshot owns its array; the steps go on in a copy
    return grids


def seed_particles(
    chart: Chart,
    f0: Density,
    particle_count: int,
    seed: int = 0,
    *,
    axes: Sequence[GridAxis],
) -> ParticleEnsemble:
    """Jittered-lattice sampling of f0 into weighted particles.

    Active axes share the lattice budget evenly; collapsed axes hold one
    layer at the axis center.  Weights are f0 at the jittered site times
    the lattice cell volume, so depositing the fresh ensemble reproduces
    f0 up to cloud-in-cell smoothing.  f0 is a closed form; a density
    known only on a grid is seeded through its `GridDensity.interpolate`.
    """
    if particle_count < 1_000:
        raise ValueError("particle_count must be at least 1000")
    rng = np.random.default_rng(seed)
    sizes = budgets.seed_lattice([a.size for a in axes], particle_count)
    lattice = [GridAxis(a.name, a.lo, a.hi, size) for a, size in zip(axes, sizes)]
    cols = _cell_centers(lattice)
    blocks = row_blocks(len(cols[0]))
    for col, cell in zip(cols, lattice):
        if cell.size > 1:
            for rows in blocks:
                col[rows] += (rng.random(rows.stop - rows.start) - 0.5) * cell.dx
    vol = math.prod(cell.dx for cell in lattice)
    weights = np.empty(len(cols[0]))
    for rows in blocks:
        weights[rows] = _evaluate(f0, [col[rows] for col in cols]) * vol
    return ParticleEnsemble(chart, cols, weights)


def deposit(ensemble: ParticleEnsemble, axes: Sequence[GridAxis]) -> GridDensity:
    """Cloud-in-cell deposition onto a grid (density = mass / volume)."""
    axes = tuple(axes)
    mass = np.zeros(tuple(a.size for a in axes))
    for _, flat, weight, valid in _cic_corners(axes, ensemble.columns, ensemble.weights):
        np.add.at(mass.ravel(), flat, np.where(valid, weight, 0.0))
    mass /= math.prod(a.dx for a in axes)
    return GridDensity(ensemble.chart, axes, mass)


def _push_chunk(
    state: list[np.ndarray],
    X: VectorFieldExpr,
    rate: Poly,
    h: float,
    n_steps: int,
    axes: tuple[GridAxis, ...],
) -> tuple[list[np.ndarray], list[tuple[int, np.ndarray]]]:
    """RK4 on one block held as dim+1 contiguous columns, weight last: X
    moves the positions, dw/ds = rate * w; rows leaving a zero-boundary
    axis are dropped.  Returns the surviving columns and, for each step
    that dropped rows, (step, their weights in row order).  A column's
    rate is its component's `eval_array` on the positions, or the rate
    times the weight; where that is identically zero, the scalar 0.0 (x +
    c*0.0 is what a zero column gives).  Raises StabilityError if a
    column, or an escaped weight, is not finite after the push; numpy's
    warnings are off, since that check decides."""
    dim = len(axes)

    def zero(y: list) -> float:
        return 0.0

    fs = [zero if c.is_zero() else (lambda y, f=c.eval_array: f(y[:dim])) for c in X.components]
    fs.append(zero if rate.is_zero() else lambda y: rate.eval_array(y[:dim]) * y[dim])
    rk4_step = rk4_stepper(dim + 1)
    escapes = []
    with np.errstate(all="ignore"):  # the finiteness check below decides
        for step in range(n_steps):
            state = rk4_step(fs, state, h)
            alive = np.ones(len(state[dim]), dtype=bool)
            for k, axis in enumerate(axes):
                if axis.boundary == "periodic":
                    state[k] = axis.lo + np.mod(state[k] - axis.lo, axis.hi - axis.lo)
                else:
                    alive &= (state[k] >= axis.lo) & (state[k] <= axis.hi)
            if not alive.all():
                escapes.append((step, state[dim][~alive]))
                state = [column[alive] for column in state]
    if not all(np.isfinite(c).all() for c in [*state, *(w for _, w in escapes)]):
        raise StabilityError("the pushed particle state is not finite; reduce dt")
    return state, escapes


def _gather_escapes(per_block: Sequence[list[tuple[int, np.ndarray]]]) -> tuple[float, int]:
    """Escaped mass and count from each block's escapes, blocks in row
    order.  Each step's weights are joined across blocks and summed, and
    the steps are added in order, so the mass is the one a single block
    gives, bit for bit, whatever the blocking."""
    by_step: dict[int, list[np.ndarray]] = {}
    for escapes in per_block:
        for step, weights in escapes:
            by_step.setdefault(step, []).append(weights)
    mass, count = 0.0, 0
    for step in sorted(by_step):
        weights = np.concatenate(by_step[step])
        mass += float(weights.sum())
        count += len(weights)
    return mass, count


def solve_density_particle(
    dyn: Dynamics,
    f0: Density,
    t_final: float,
    dt: float,
    particle_count: int,
    seed: int = 0,
    *,
    axes: Sequence[GridAxis],
) -> ParticleKineticResult:
    """Characteristics solver for the density equation.

    f0 is the initial density in closed form, a `Poly` or a callable on
    (N, dim) points, and `axes` the grid it lives on.  After the setup it
    shares with the grid solver (`_transport`, with the particle guard at
    4x the CFL limit), it seeds weights from f0 exactly, pushes along the
    field of `dyn` with the weight ODE dw/ds = R_eta(H) w,
    drops and reports particles that leave zero-boundary axes, and
    deposits the survivors onto `axes`.  The ensemble is pushed on the
    calling thread, one block of `flow.row_blocks` after another, and each
    block's survivors are compacted in place behind those of the blocks
    before it, so the result's columns are prefixes of the seeded ones.
    No output, escaped mass included, depends on the blocking.  A run of more
    than `budgets.MAX_STEPS` steps, or of more than `budgets.MAX_WORK` seeded
    particles x steps, is refused with ValueError before seeding.  As on the grid, a state that
    is not finite is refused with StabilityError: the seeded weights before
    the push, each block after its push, and the deposit.
    """
    chart = dyn.spec.chart
    axes = tuple(axes)
    # particles tolerate larger steps than the grid; guard at 4x CFL
    seeded_count = math.prod(budgets.seed_lattice([a.size for a in axes], particle_count))
    rate, moving, guard, (n_steps,) = _transport(dyn, axes, (t_final,), dt, 4.0, seeded_count,
                                                 "seeded particles")
    del moving  # the push evaluates the field on the particles
    if dt > guard:
        raise StabilityError(f"dt={dt!r} exceeds the particle guard {guard!r}")
    h = t_final / n_steps if n_steps else 0.0
    seeded = seed_particles(chart, f0, particle_count, seed=seed, axes=axes)
    if not np.isfinite(seeded.weights).all():
        raise StabilityError("the seeded weights are not finite; f0 overflows on the grid")
    mass_initial = seeded.total_weight()
    columns = [*seeded.columns, seeded.weights]
    del seeded  # `columns` holds the ensemble from here on
    kept, per_block = 0, []
    for rows in row_blocks(len(columns[-1])):  # survivors compacted in place, in block order
        state, escapes = _push_chunk([c[rows] for c in columns], dyn.field, rate, h, n_steps,
                                     axes)
        for column, pushed in zip(columns, state):
            column[kept:kept + len(pushed)] = pushed
        kept += len(state[-1])
        per_block.append(escapes)
        del state, pushed  # else they stay alive through the next block's push
    *columns, weights = (c[:kept] for c in columns)
    escaped_mass, escaped_count = _gather_escapes(per_block)
    del per_block
    final = ParticleEnsemble(chart, columns, weights)
    deposited = deposit(final, axes)
    if not np.isfinite(deposited.values).all():
        raise StabilityError("the deposited density is not finite")
    return ParticleKineticResult(
        ensemble=final,
        deposited=deposited,
        mass_initial=mass_initial,
        mass_final=final.total_weight(),
        escaped_mass=escaped_mass,
        escaped_count=escaped_count,
    )


# -- file formats ------------------------------------------------------

_GRID_MAGIC = "geokin-grid 1"


def write_grid(grid: GridDensity, path: str) -> None:
    """Self-describing text format, specified in README; values row-major,
    one per line, formatted and written one block of `flow.row_blocks` at a
    time."""
    lines = [_GRID_MAGIC, f"chart {grid.chart.kind.value} {grid.chart.n}"]
    for a in grid.axes:
        lines.append(f"axis {a.name} {a.lo!r} {a.hi!r} {a.size} {a.boundary}")
    flat = grid.values.ravel()
    lines.append(f"values {flat.size}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
        for rows in row_blocks(flat.size):
            fh.write("\n".join(map(repr, flat[rows].tolist())) + "\n")


def particle_csv_columns(chart: Chart) -> list[str]:
    """CSV column order: q block, p block, then z, then t, then weight.

    This is not chart order (t, q, p, z): t comes after z here.
    """
    cols = [f"q{i}" for i in range(1, chart.n + 1)]
    cols.extend(f"p{i}" for i in range(1, chart.n + 1))
    if chart.has_z:
        cols.append("z")
    if chart.has_time:
        cols.append("t")
    cols.append("w")
    return cols


def write_particles(ensemble: ParticleEnsemble, path: str) -> None:
    """One row per particle, columns in `particle_csv_columns` order
    (q, p, z, t, w), which differs from chart order (t, q, p, z); written
    by `flow.write_csv`.  README specifies the format."""
    cols = particle_csv_columns(ensemble.chart)
    slot_of = {name: k for k, name in enumerate(ensemble.chart.coord_names)}
    write_csv(path, cols, [*(ensemble.columns[slot_of[c]] for c in cols[:-1]), ensemble.weights])
