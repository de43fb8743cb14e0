"""Kinetic lifts: momentum one-forms, density dynamics, two solvers.

Momentum side.  A momentum one-form Pi is carried to a scalar density

    f = div sharp(Pi) - d<Pi,R_eta>/dz - d<Pi,R_tau>/dt - <Pi,R_eta>

(each correction only on charts carrying that Reeb field; the
divergence uses the Darboux volume).  Its evolution under the
Hamiltonian/gauge-zero flow is the coadjoint equation

    dPi/ds = -L_{X_H} Pi + (n+1) R_eta(H) Pi               (z-charts)
    dPi/ds = -L_{X_H} Pi                                   (otherwise)

Density side.  The induced density equation is, by construction, the
unique combination a {H,f} + b f R_eta(H) + c f R_tau(H) that makes
momentum map and momentum dynamics commute (`intertwine_residual`
vanishes identically).  `adjudicate_density_coefficients` solves for
(a, b, c) exactly over a seeded corpus; the result, frozen here and
re-derived in a regression test, is

    a = 1,  b = n + 3  (0 without z),  c = 0,

i.e. df/ds = {H,f} + (n+3) f R_eta(H) on contact and cocontact charts
and the plain bracket equation elsewhere.

Solvers.  Both start from one setup, `_transport`: it checks the chart
and the times, builds the Hamiltonian/gauge-zero field and its z-source,
evaluates the field on the grid, refuses a collapsed axis with transport
across it and an active axis under 32 cells, and returns the CFL limit.
Past that setup they share no numerics.  The particle solver takes the
initial density in closed form (a `Poly` or a callable) plus the grid
axes.  It pushes a jittered-lattice ensemble along the flow with
per-particle weights obeying dw/ds = R_eta(H) w (the material growth
rate n+2 minus the volume contraction n+1), then deposits cloud-in-cell.
The push state is dim+1 contiguous columns, weight last, stepped by
`flow`'s RK4 step along one path: one chunk per worker, mapped in the
calling thread or a thread pool, and stacked into the final ensemble
once, at the end.  The grid solver is the independent oracle: from a
sampled `GridDensity`, method of lines with first-order upwind transport
per advecting axis, the pointwise source (n+2) R_eta(H) f, and SSP-RK3
in time under an explicit CFL guard.
"""

from __future__ import annotations

import functools
import math
import os
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from .brackets import bracket, canonical_bracket_kind
from .chart import Chart, ChartKind, OneFormExpr, VectorFieldExpr, pairing
from .corpus import random_hamiltonian, random_one_form
from .fields import Family, FieldSpec, Gauge, divergence, lie_derivative_oneform, make_field
from .flow import MAX_STEPS, _rk4_step
from .musical import SharpVariant, sharp
from .poly import Poly

import random as _random


class MomentumOneForm(OneFormExpr):
    """A one-form designated as a dual-space element.

    With validate=True, membership is asserted: the associated density
    must not vanish identically unless the form itself is zero.
    """

    def __init__(self, chart: Chart, components: Sequence[Poly], validate: bool = False):
        super().__init__(chart, tuple(components))
        if validate and not self.is_zero() and momentum_map(self).is_zero():
            raise ValueError(
                "one-form lies outside the dual space: its density vanishes identically"
            )


def momentum_map(Pi: OneFormExpr) -> Poly:
    """The scalar density associated to a momentum one-form (exact)."""
    chart = Pi.chart
    f = divergence(sharp(Pi, SharpVariant.FULL))
    if chart.has_z:
        pi_z = Pi.components[chart.z_slot]
        f = f - pi_z.partial(chart.z_slot) - pi_z
    if chart.has_time:
        pi_t = Pi.components[chart.t_slot]
        f = f - pi_t.partial(chart.t_slot)
    return f


def _hamiltonian_zero_spec(chart: Chart) -> FieldSpec:
    gauge = Gauge.ZERO if chart.has_time else None
    return FieldSpec(chart, Family.HAMILTONIAN, gauge)


def momentum_vlasov_rhs(H: Poly, Pi: OneFormExpr) -> OneFormExpr:
    """dPi/ds under the coadjoint flow of the Hamiltonian/gauge-zero field."""
    chart = Pi.chart
    if H.dim != chart.dim:
        raise ValueError("Hamiltonian and one-form must share a chart")
    X = make_field(_hamiltonian_zero_spec(chart), H)
    out = -lie_derivative_oneform(X, Pi)
    if chart.has_z:
        out = out + Pi.scaled((chart.n + 1) * H.partial(chart.z_slot))
    return out


def density_coefficients(chart: Chart) -> tuple[Fraction, Fraction, Fraction]:
    """Frozen (a, b, c) of the density equation for this chart."""
    b = Fraction(chart.n + 3) if chart.has_z else Fraction(0)
    return (Fraction(1), b, Fraction(0))


def density_vlasov_rhs(chart: Chart, H: Poly, f: Poly) -> Poly:
    """df/ds = a {H,f} + b f R_eta(H) + c f R_tau(H), exact."""
    if H.dim != chart.dim or f.dim != chart.dim:
        raise ValueError("function dimension does not match chart")
    a, b, c = density_coefficients(chart)
    out = a * bracket(chart, canonical_bracket_kind(chart.kind), H, f)
    if b and chart.has_z:
        out = out + b * f * H.partial(chart.z_slot)
    if c and chart.has_time:
        out = out + c * f * H.partial(chart.t_slot)
    return out


def intertwine_residual(H: Poly, Pi: OneFormExpr) -> Poly:
    """Momentum route minus density route; identically zero."""
    mom = momentum_map(momentum_vlasov_rhs(H, Pi))
    den = density_vlasov_rhs(Pi.chart, H, momentum_map(Pi))
    return mom - den


def dual_pairing_residual(chart: Chart, H: Poly, Pi: OneFormExpr) -> Poly:
    """Integrand identity behind the dual pairing, as an exact residual.

    <Pi, X_H> = H * f - div(H * sharp_biv(Pi)); a Pi whose density
    vanishes therefore pairs to a pure divergence and annihilates every
    Hamiltonian after integration.
    """
    X = make_field(_hamiltonian_zero_spec(chart), H)
    lhs = pairing(Pi, X)
    rhs = H * momentum_map(Pi) - divergence(sharp(Pi, SharpVariant.BIVECTOR).scaled(H))
    return lhs - rhs


def _solve_exact(rows: list[list[Fraction]], unknowns: int) -> list[Fraction] | None:
    """Solve an overdetermined exact linear system [A | b].

    Returns the unique solution, None while underdetermined, and raises
    on inconsistency.
    """
    mat = [row[:] for row in rows]
    pivots: list[int] = []
    r = 0
    for col in range(unknowns):
        pivot = next((i for i in range(r, len(mat)) if mat[i][col] != 0), None)
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        inv = Fraction(1) / mat[r][col]
        mat[r] = [v * inv for v in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][col] != 0:
                factor = mat[i][col]
                mat[i] = [v - factor * w for v, w in zip(mat[i], mat[r])]
        pivots.append(col)
        r += 1
    for i in range(r, len(mat)):
        if mat[i][-1] != 0:
            raise ArithmeticError("density ansatz is inconsistent with the momentum flow")
    if len(pivots) < unknowns:
        return None
    solution = [Fraction(0)] * unknowns
    for row_idx, col in enumerate(pivots):
        solution[col] = mat[row_idx][-1]
    return solution


def adjudicate_density_coefficients(
    chart: Chart, seed: int = 71, max_samples: int = 64
) -> tuple[Fraction, Fraction, Fraction]:
    """Re-derive (a, b, c) from scratch by exact linear solve.

    Draws random (H, Pi) pairs, demands
    momentum_map(dPi/ds) == a {H,f} + b f R_eta(H) + c f R_tau(H)
    term by term, and solves the resulting system over the rationals.
    """
    rng = _random.Random(seed)
    kind = canonical_bracket_kind(chart.kind)
    slots = [0]  # a always present
    if chart.has_z:
        slots.append(1)
    if chart.has_time:
        slots.append(2)
    rows: list[list[Fraction]] = []
    for _ in range(max_samples):
        H = random_hamiltonian(rng, chart, degree=2, terms=3)
        Pi = random_one_form(rng, chart, degree=2, terms=2)
        f = momentum_map(Pi)
        lhs = momentum_map(momentum_vlasov_rhs(H, Pi))
        basis = [bracket(chart, kind, H, f)]
        if chart.has_z:
            basis.append(f * H.partial(chart.z_slot))
        if chart.has_time:
            basis.append(f * H.partial(chart.t_slot))
        monomials = set(lhs.terms)
        for poly in basis:
            monomials.update(poly.terms)
        for exps in monomials:
            row = [poly.terms.get(exps, Fraction(0)) for poly in basis]
            row.append(lhs.terms.get(exps, Fraction(0)))
            rows.append(row)
        solution = _solve_exact(rows, len(slots))
        if solution is not None:
            out = [Fraction(0)] * 3
            for slot, value in zip(slots, solution):
                out[slot] = value
            return tuple(out)  # type: ignore[return-value]
    raise ArithmeticError("corpus never determined the density coefficients")


# -- grids, particles, solvers ----------------------------------------


class StabilityError(RuntimeError):
    """A solver was asked to run outside its stability envelope."""


_BOUNDARIES = ("zero", "periodic")


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
        if not self.hi > self.lo:
            raise ValueError(f"axis {self.name}: hi must exceed lo")
        if self.boundary not in _BOUNDARIES:
            raise ValueError(f"axis {self.name}: boundary must be one of {_BOUNDARIES}")

    @property
    def dx(self) -> float:
        return (self.hi - self.lo) / self.size

    def centers(self) -> np.ndarray:
        return self.lo + (np.arange(self.size) + 0.5) * self.dx


Density = Poly | Callable[[np.ndarray], np.ndarray]  # a density in closed form


def _evaluate(density: Density, pts: np.ndarray) -> np.ndarray:
    """A closed-form density at (N, dim) points."""
    if isinstance(density, Poly):
        return density.eval_array(pts.T)
    return np.asarray(density(pts), dtype=float)


def _cic_corners(axes: Sequence[GridAxis], pts: np.ndarray, weight: np.ndarray):
    """The cloud-in-cell stencil: per cell-center corner around the points,
    yield (flat cell index, weight times corner weight, in-grid mask)."""
    shape = tuple(a.size for a in axes)
    for corner in range(1 << len(axes)):
        idx = []
        w = weight
        valid = np.ones(pts.shape[0], dtype=bool)
        for k, axis in enumerate(axes):
            u = (pts[:, k] - axis.lo) / axis.dx - 0.5
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
        yield np.ravel_multi_index(idx, shape, mode="clip"), w, valid


@dataclass
class GridDensity:
    """A density sampled at cell centers of a tensor-product grid.

    Axes cover every chart coordinate, in chart order; collapsed axes
    (size 1) stand for directions the problem does not resolve.
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
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != shape:
            raise ValueError(f"values shape {self.values.shape} does not match grid {shape}")

    @property
    def cell_volume(self) -> float:
        out = 1.0
        for a in self.axes:
            out *= a.dx
        return out

    def total_mass(self) -> float:
        return float(self.values.sum()) * self.cell_volume

    def points(self) -> np.ndarray:
        """Cell centers as an (N, dim) array in C order."""
        grids = np.meshgrid(*[a.centers() for a in self.axes], indexing="ij")
        return np.stack([g.ravel() for g in grids], axis=1)

    @classmethod
    def sample(cls, chart: Chart, axes: Sequence[GridAxis], func: Density) -> "GridDensity":
        axes = tuple(axes)
        shape = tuple(a.size for a in axes)
        grid = cls(chart, axes, np.zeros(shape))
        grid.values = _evaluate(func, grid.points()).reshape(shape)
        return grid

    def interpolate(self, points: np.ndarray) -> np.ndarray:
        """Multilinear interpolation; zero outside zero-boundary axes."""
        pts = np.asarray(points, dtype=float)
        out = np.zeros(pts.shape[0])
        values = self.values.ravel()
        for flat, weight, valid in _cic_corners(self.axes, pts, np.ones(pts.shape[0])):
            out += np.where(valid, weight * values[flat], 0.0)
        return out

    def l1_distance(self, other: "GridDensity") -> float:
        if self.values.shape != other.values.shape:
            raise ValueError("grids are not comparable")
        return float(np.abs(self.values - other.values).sum()) * self.cell_volume

    def l1_norm(self) -> float:
        return float(np.abs(self.values).sum()) * self.cell_volume


@dataclass
class ParticleEnsemble:
    chart: Chart
    positions: np.ndarray  # (N, dim), chart coordinate order
    weights: np.ndarray  # (N,)

    def __post_init__(self) -> None:
        self.positions = np.asarray(self.positions, dtype=float)
        self.weights = np.asarray(self.weights, dtype=float)
        if self.positions.ndim != 2 or self.positions.shape[1] != self.chart.dim:
            raise ValueError(f"positions must have shape (N, {self.chart.dim})")
        if self.weights.shape != (self.positions.shape[0],):
            raise ValueError("weights must be one per particle")

    def total_weight(self) -> float:
        return float(self.weights.sum())


@dataclass
class ParticleKineticResult:
    ensemble: ParticleEnsemble
    deposited: GridDensity
    mass_initial: float
    mass_final: float
    escaped_mass: float
    escaped_count: int


def _step_count(t_final: float, dt: float) -> int:
    """ceil(t_final / dt) steps, at least one (none for t_final = 0);
    refused before any work when past the step budget."""
    steps = t_final / dt - 1e-12
    if not steps <= MAX_STEPS:
        raise ValueError(f"t_final/dt = {t_final / dt:.6g} steps exceed the budget of {MAX_STEPS}")
    return max(1, math.ceil(steps)) if t_final > 0 else 0


def _field_and_source(chart: Chart, H: Poly):
    X = make_field(_hamiltonian_zero_spec(chart), H)
    source = H.partial(chart.z_slot) if chart.has_z else None
    return X, source


def _transport(chart: Chart, H: Poly, grid: GridDensity, t_final: float, dt: float | None,
               cfl: float):
    """The setup both solvers share, checked in this order: the chart, the
    times, then each axis against the field's velocity on the grid.

    Returns (X, source, vel, active, limit): the field, the z-source (None
    off z-charts), each component's velocity grid, the active axes, and the
    CFL limit cfl / sum(max|v_k| / dx_k) over them (inf when nothing moves).
    """
    if grid.chart != chart or H.dim != chart.dim:
        raise ValueError("grid, Hamiltonian and chart must agree")
    if not t_final >= 0 or dt is not None and not dt > 0:
        raise ValueError("need dt > 0 and t_final >= 0")
    X, source = _field_and_source(chart, H)
    pts = grid.points().T
    vel, active, rate = [], [], 0.0
    for k, (axis, component) in enumerate(zip(grid.axes, X.components)):
        vel.append(component.eval_array(pts).reshape(grid.values.shape))
        speed = float(np.max(np.abs(vel[k])))
        if axis.size == 1:
            if speed > 0.0:
                raise ValueError(
                    f"axis {axis.name} is collapsed but its advection velocity is nonzero"
                )
        elif axis.size < 32:
            raise ValueError(f"axis {axis.name}: active axes need at least 32 cells")
        else:
            active.append(k)
            rate += speed / axis.dx
    return X, source, vel, active, cfl / rate if rate else math.inf


def _upwind_term(values: np.ndarray, v: np.ndarray, axis_idx: int, axis: GridAxis) -> np.ndarray:
    """-v * df/dx with first-order upwinding along one axis."""
    if axis.boundary == "periodic":
        lower = np.roll(values, 1, axis=axis_idx)
        upper = np.roll(values, -1, axis=axis_idx)
    else:
        pad = [(0, 0)] * values.ndim
        pad[axis_idx] = (1, 1)
        padded = np.pad(values, pad)  # zero inflow
        sl_lo = [slice(None)] * values.ndim
        sl_hi = [slice(None)] * values.ndim
        sl_lo[axis_idx] = slice(0, values.shape[axis_idx])
        sl_hi[axis_idx] = slice(2, 2 + values.shape[axis_idx])
        lower = padded[tuple(sl_lo)]
        upper = padded[tuple(sl_hi)]
    backward = (values - lower) / axis.dx
    forward = (upper - values) / axis.dx
    return -v * np.where(v > 0.0, backward, forward)


def solve_density_grid(
    chart: Chart,
    H: Poly,
    f0: GridDensity,
    t_final: float,
    dt: float | None = None,
    cfl: float = 0.9,
) -> GridDensity:
    """Method-of-lines oracle for the density equation.

    First-order upwind transport along each active axis, pointwise
    source (n+2) R_eta(H) f on z-charts, SSP-RK3 in time.  Raises
    ValueError where `_transport` refuses the setup or the run needs more
    than `flow.MAX_STEPS` steps, and StabilityError if the requested dt
    violates the CFL bound.
    """
    _, source, vel, active, limit = _transport(chart, H, f0, t_final, dt, cfl)
    if dt is None:
        dt = limit if math.isfinite(limit) else max(t_final, 1e-3)
    elif dt > limit:
        raise StabilityError(f"dt={dt!r} exceeds the CFL bound {limit!r}")
    if t_final == 0:
        return GridDensity(chart, f0.axes, f0.values.copy())
    n_steps = _step_count(t_final, dt)
    h = t_final / n_steps
    src = None
    if source is not None and not source.is_zero():
        shape = f0.values.shape
        src = (chart.n + 2) * source.eval_array(f0.points().T).reshape(shape)

    def rhs(values: np.ndarray) -> np.ndarray:
        out = np.zeros_like(values)
        for k in active:
            out += _upwind_term(values, vel[k], k, f0.axes[k])
        if src is not None:
            out += src * values
        return out

    v = f0.values.copy()
    for _ in range(n_steps):
        k1 = v + h * rhs(v)
        k2 = 0.75 * v + 0.25 * (k1 + h * rhs(k1))
        v = v / 3.0 + (2.0 / 3.0) * (k2 + h * rhs(k2))
        if not np.all(np.isfinite(v)):
            raise StabilityError("grid solution lost finiteness; reduce dt")
    return GridDensity(chart, f0.axes, v)


def seed_particles(
    f0: GridDensity,
    particle_count: int,
    seed: int = 0,
    density: Density | None = None,
) -> ParticleEnsemble:
    """Jittered-lattice sampling of f0 into weighted particles.

    Active axes share the lattice budget evenly; collapsed axes hold one
    layer at the axis center.  Weights are f0 at the jittered site times
    the lattice cell volume, so depositing the fresh ensemble
    reproduces f0 up to cloud-in-cell smoothing.  When the density is
    known in closed form, passing it as `density` skips the grid
    interpolation and evaluates weights exactly.
    """
    if particle_count < 1_000:
        raise ValueError("particle_count must be at least 1000")
    active = [k for k, a in enumerate(f0.axes) if a.size > 1]
    per_axis = max(2, int(round(particle_count ** (1.0 / max(1, len(active))))))
    rng = np.random.default_rng(seed)
    axes_counts = [per_axis if k in active else 1 for k in range(len(f0.axes))]
    coords = []
    vol = 1.0
    for k, axis in enumerate(f0.axes):
        m = axes_counts[k]
        step = (axis.hi - axis.lo) / m
        centers = axis.lo + (np.arange(m) + 0.5) * step
        coords.append(centers)
        vol *= step
    mesh = np.meshgrid(*coords, indexing="ij")
    pts = np.stack([g.ravel() for g in mesh], axis=1)
    for k, axis in enumerate(f0.axes):
        m = axes_counts[k]
        if m > 1:
            step = (axis.hi - axis.lo) / m
            pts[:, k] += (rng.random(pts.shape[0]) - 0.5) * step
    weights = (f0.interpolate(pts) if density is None else _evaluate(density, pts)) * vol
    return ParticleEnsemble(f0.chart, pts, weights)


def deposit(ensemble: ParticleEnsemble, axes: Sequence[GridAxis]) -> GridDensity:
    """Cloud-in-cell deposition onto a grid (density = mass / volume)."""
    axes = tuple(axes)
    grid = GridDensity(ensemble.chart, axes, np.zeros(tuple(a.size for a in axes)))
    acc = np.zeros(grid.values.shape)
    for flat, weight, valid in _cic_corners(axes, ensemble.positions, ensemble.weights):
        np.add.at(acc.ravel(), flat, np.where(valid, weight, 0.0))
    grid.values = acc / grid.cell_volume
    return grid


def _push_chunk(
    state: list[np.ndarray],
    X: VectorFieldExpr,
    source: Poly | None,
    h: float,
    n_steps: int,
    axes: tuple[GridAxis, ...],
) -> tuple[list[np.ndarray], float, int]:
    """RK4 on one chunk held as dim+1 contiguous columns, weight last: X
    moves the positions, dw/ds = source * w; rows leaving a zero-boundary
    axis are dropped and tallied.  A component that is identically zero
    contributes the scalar 0.0 (x + c*0.0 is what a zero column gives)."""
    dim = len(axes)
    moving = [(k, c.eval_array) for k, c in enumerate(X.components) if not c.is_zero()]
    src_eval = None if source is None or source.is_zero() else source.eval_array

    def rhs(y: list[np.ndarray]) -> list:
        x = y[:dim]
        dy: list = [0.0] * (dim + 1)
        for k, eval_array in moving:
            dy[k] = eval_array(x)
        if src_eval is not None:
            dy[dim] = src_eval(x) * y[dim]
        return dy

    escaped_mass = 0.0
    escaped_count = 0
    for _ in range(n_steps):
        state = _rk4_step(rhs, state, h)
        alive = np.ones(len(state[dim]), dtype=bool)
        for k, axis in enumerate(axes):
            if axis.boundary == "periodic":
                state[k] = axis.lo + np.mod(state[k] - axis.lo, axis.hi - axis.lo)
            else:
                alive &= (state[k] >= axis.lo) & (state[k] <= axis.hi)
        if not alive.all():
            escaped_mass += float(state[dim][~alive].sum())
            escaped_count += int((~alive).sum())
            state = [column[alive] for column in state]
    return state, escaped_mass, escaped_count


def solve_density_particle(
    chart: Chart,
    H: Poly,
    f0: Density,
    t_final: float,
    dt: float,
    particle_count: int,
    seed: int = 0,
    threads: int | None = None,
    *,
    axes: Sequence[GridAxis],
) -> ParticleKineticResult:
    """Characteristics solver for the density equation.

    f0 is the initial density in closed form, a `Poly` or a callable on
    (N, dim) points, and `axes` the grid it lives on.  After the setup it
    shares with the grid solver (`_transport`, with the particle guard at
    4x the CFL limit), it seeds weights from f0 exactly, pushes along the
    Hamiltonian/gauge-zero field with the weight ODE dw/ds = R_eta(H) w,
    drops and reports particles that leave zero-boundary axes, and
    deposits the survivors onto `axes`.  `threads` workers (one when None
    or below 1), capped at the CPU count, push independent chunks of the
    ensemble; the answer does not depend on the split.  A run of more
    than `flow.MAX_STEPS` steps is refused with ValueError before seeding.
    """
    grid = GridDensity.sample(chart, axes, f0)
    # particles tolerate larger steps than the grid; guard at 4x CFL
    X, source, _, _, guard = _transport(chart, H, grid, t_final, dt, 4.0)
    if dt > guard:
        raise StabilityError(f"dt={dt!r} exceeds the particle guard {guard!r}")
    n_steps = _step_count(t_final, dt)
    h = t_final / n_steps if n_steps else 0.0
    seeded = seed_particles(grid, particle_count, seed=seed, density=f0)
    mass_initial = seeded.total_weight()
    workers = min(max(1, threads or 1), os.cpu_count() or 1)
    bounds = [(len(seeded.weights) * i) // workers for i in range(workers + 1)]
    columns = [*seeded.positions.T, seeded.weights]
    chunks = [[np.ascontiguousarray(c[lo:hi]) for c in columns]
              for lo, hi in zip(bounds, bounds[1:])]
    del seeded, columns  # the chunks now hold the ensemble
    push = functools.partial(_push_chunk, X=X, source=source, h=h, n_steps=n_steps, axes=grid.axes)
    if workers == 1:
        parts = list(map(push, chunks))
    else:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(push, chunks))
    del chunks
    *positions, weights = (np.concatenate(c) for c in zip(*(p[0] for p in parts)))
    final = ParticleEnsemble(chart, np.column_stack(positions), weights)
    return ParticleKineticResult(
        ensemble=final,
        deposited=deposit(final, grid.axes),
        mass_initial=mass_initial,
        mass_final=final.total_weight(),
        escaped_mass=sum(p[1] for p in parts),
        escaped_count=sum(p[2] for p in parts),
    )


# -- file formats ------------------------------------------------------

_GRID_MAGIC = "geokin-grid 1"


def write_grid(grid: GridDensity, path: str) -> None:
    """Self-describing text format; values row-major, one per line."""
    lines = [_GRID_MAGIC, f"chart {grid.chart.kind.value} {grid.chart.n}"]
    for a in grid.axes:
        lines.append(f"axis {a.name} {a.lo!r} {a.hi!r} {a.size} {a.boundary}")
    flat = grid.values.ravel()
    lines.append(f"values {flat.size}")
    lines.extend(repr(float(v)) for v in flat)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines))
        fh.write("\n")


def read_grid(path: str) -> GridDensity:
    with open(path, "r", encoding="utf-8") as fh:
        lines = [line.rstrip("\n") for line in fh]
    if not lines or lines[0] != _GRID_MAGIC:
        raise ValueError(f"{path}: not a geokin grid file")
    fields = lines[1].split()
    if len(fields) != 3 or fields[0] != "chart":
        raise ValueError(f"{path}:2: expected 'chart <kind> <n>'")
    chart = Chart(ChartKind(fields[1]), int(fields[2]))
    axes = []
    row = 2
    while row < len(lines) and lines[row].startswith("axis "):
        parts = lines[row].split()
        if len(parts) != 6:
            raise ValueError(f"{path}:{row + 1}: malformed axis line")
        axes.append(
            GridAxis(parts[1], float(parts[2]), float(parts[3]), int(parts[4]), parts[5])
        )
        row += 1
    if row >= len(lines) or not lines[row].startswith("values "):
        raise ValueError(f"{path}:{row + 1}: expected 'values <count>'")
    count = int(lines[row].split()[1])
    data = lines[row + 1 : row + 1 + count]
    if len(data) != count:
        raise ValueError(f"{path}: expected {count} values, found {len(data)}")
    values = np.array([float(v) for v in data])
    shape = tuple(a.size for a in axes)
    return GridDensity(chart, tuple(axes), values.reshape(shape))


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
    (q, p, z, t, w), which differs from chart order (t, q, p, z);
    `read_particles` maps them back."""
    cols = particle_csv_columns(ensemble.chart)
    slot_of = {name: k for k, name in enumerate(ensemble.chart.coord_names)}
    table = np.column_stack([ensemble.positions[:, [slot_of[c] for c in cols[:-1]]],
                             ensemble.weights])
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(cols) + "\n")
        for row in table:
            fh.write(",".join(map(repr, row.tolist())) + "\n")


def read_particles(chart: Chart, path: str) -> ParticleEnsemble:
    expected = particle_csv_columns(chart)
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        if header != expected:
            raise ValueError(f"{path}: header {header} does not match {expected}")
        rows = [line.strip().split(",") for line in fh if line.strip()]
    data = np.array([[float(v) for v in row] for row in rows]) if rows else np.zeros((0, len(expected)))
    slot_of = {name: k for k, name in enumerate(chart.coord_names)}
    positions = np.zeros((data.shape[0], chart.dim))
    for col_idx, col in enumerate(expected[:-1]):
        positions[:, slot_of[col]] = data[:, col_idx]
    weights = data[:, -1] if data.size else np.zeros(0)
    return ParticleEnsemble(chart, positions, weights)
