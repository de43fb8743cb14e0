"""Helpers shared by the tests: a traced allocation peak, a scan of the
names a module assigns at its top level, the two finite-difference
oracles the exact divergence is checked against and the log-volume
integral of the divergence channel, a grid's cell centers and its L1
measures, the comprehension RK4 and RKF45 steps and the array error
norm the generated steppers and norm of `codegen` are checked against, the
two CSV writers `flow.write_csv` is checked against, the dense tensor
walks the nonzero walks of `chart`, `fields` and `musical` are checked
against, and the reference expression parser `geokin.poly.parse` is
checked against."""

import ast
import math
import sys
import tracemalloc
from fractions import Fraction
from itertools import combinations
from typing import Sequence

import numpy as np

from geokin.chart import OneFormExpr, TwoFormExpr, VectorFieldExpr
from geokin.codegen import _RKF_A, _RKF_B4, _RKF_B5
from geokin.fields import Dynamics
from geokin.flow import IntegratorConfig, Trajectory, integrate
from geokin.kinetics import GridDensity, ParticleEnsemble, particle_csv_columns
from geokin.musical import SharpVariant
from geokin.poly import ParseError, Poly


def traced_peak(fn):
    """Run `fn()` under tracemalloc; return (its result, the peak bytes
    traced while it ran).  numpy reports its buffers to tracemalloc."""
    tracemalloc.start()
    try:
        result = fn()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def top_level_assignments(source: str) -> list[str]:
    """The names a module assigns at its top level, in order, once per
    assignment: plain, annotated and augmented, tuple targets included."""
    names = []
    for node in ast.parse(source).body:
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
            targets = [node.target]
        else:
            continue
        for target in targets:
            names.extend(name.id for name in ast.walk(target) if isinstance(name, ast.Name))
    return names


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


def log_volume(traj: Trajectory) -> np.ndarray:
    """The log-volume estimate at each sample: the trapezoidal integral
    over s of the divergence channel, from 0 at the first sample; NaN
    throughout when a divergence is not finite."""
    times, div = traj.times, traj.monitors["divergence"]
    out = np.zeros_like(div)
    if not np.all(np.isfinite(div)):
        out[:] = math.nan
    elif len(times) > 1:
        out[1:] = np.cumsum(0.5 * (div[1:] + div[:-1]) * np.diff(times))
    return out


# -- grid measures ----------------------------------------------------------


def grid_points(grid: GridDensity) -> np.ndarray:
    """The grid's cell centers as an (N, dim) array in C order."""
    mesh = np.meshgrid(*[a.centers() for a in grid.axes], indexing="ij")
    return np.stack([g.ravel() for g in mesh], axis=1)


def l1_norm(grid: GridDensity) -> float:
    return float(np.abs(grid.values).sum()) * grid.cell_volume


def l1_distance(grid: GridDensity, other: GridDensity) -> float:
    if grid.values.shape != other.values.shape:
        raise ValueError("grids are not comparable")
    return float(np.abs(grid.values - other.values).sum()) * grid.cell_volume


# -- the comprehension steppers and the array error norm ------------------
#
# `flow`'s RK4 and RKF45 steps as they were before they were generated per
# state length: one comprehension over zipped coordinates per stage state
# and per solution, with the same float operations in the same order, each
# stage through one `rhs` call that returns every rate.  And the RKF45 error
# norm as it was before it was generated per length, summed by numpy.


def comprehension_rk4_step(rhs, x: list, h: float) -> list:
    half, sixth = 0.5 * h, h / 6.0
    k1 = rhs(x)
    k2 = rhs([a + half * b for a, b in zip(x, k1)])
    k3 = rhs([a + half * b for a, b in zip(x, k2)])
    k4 = rhs([a + h * b for a, b in zip(x, k3)])
    return [a + sixth * (((b1 + 2.0 * b2) + 2.0 * b3) + b4)
            for a, b1, b2, b3, b4 in zip(x, k1, k2, k3, k4)]


(_A21,), (_A31, _A32), (_A41, _A42, _A43), (_A51, _A52, _A53, _A54), \
    (_A61, _A62, _A63, _A64, _A65) = _RKF_A[1:]
_B51, _B53, _B54, _B55, _B56 = (b for b in _RKF_B5 if b)
_B41, _B43, _B44, _B45 = (b for b in _RKF_B4 if b)


def comprehension_rkf45_step(rhs, x: list, h: float):
    """The fifth-order state and its difference from the fourth-order one."""
    k1 = rhs(x)
    c1 = h * _A21
    k2 = rhs([a + c1 * b1 for a, b1 in zip(x, k1)])
    c1, c2 = h * _A31, h * _A32
    k3 = rhs([a + c1 * b1 + c2 * b2 for a, b1, b2 in zip(x, k1, k2)])
    c1, c2, c3 = h * _A41, h * _A42, h * _A43
    k4 = rhs([a + c1 * b1 + c2 * b2 + c3 * b3 for a, b1, b2, b3 in zip(x, k1, k2, k3)])
    c1, c2, c3, c4 = h * _A51, h * _A52, h * _A53, h * _A54
    k5 = rhs([a + c1 * b1 + c2 * b2 + c3 * b3 + c4 * b4
              for a, b1, b2, b3, b4 in zip(x, k1, k2, k3, k4)])
    c1, c2, c3, c4, c5 = h * _A61, h * _A62, h * _A63, h * _A64, h * _A65
    k6 = rhs([a + c1 * b1 + c2 * b2 + c3 * b3 + c4 * b4 + c5 * b5
              for a, b1, b2, b3, b4, b5 in zip(x, k1, k2, k3, k4, k5)])
    c1, c3, c4, c5, c6 = h * _B51, h * _B53, h * _B54, h * _B55, h * _B56
    x5 = [a + c1 * b1 + c3 * b3 + c4 * b4 + c5 * b5 + c6 * b6
          for a, b1, b3, b4, b5, b6 in zip(x, k1, k3, k4, k5, k6)]
    c1, c3, c4, c5 = h * _B41, h * _B43, h * _B44, h * _B45
    x4 = [a + c1 * b1 + c3 * b3 + c4 * b4 + c5 * b5
          for a, b1, b3, b4, b5 in zip(x, k1, k3, k4, k5)]
    return x5, [a - b for a, b in zip(x5, x4)]


def array_error_norm(err: list, x: list, x_new: list, abs_tol: float, rel_tol: float) -> float:
    """RMS of err scaled by abs_tol + rel_tol * max(|x|, |x_new|) per
    coordinate, its squares summed by np.add.reduce, np.mean's own sum."""
    ratios = [e / (abs_tol + rel_tol * max(abs(a), abs(b))) for e, a, b in zip(err, x, x_new)]
    return math.sqrt(float(np.add.reduce(np.array([r * r for r in ratios]))) / len(ratios))


# -- the CSV writers --------------------------------------------------------
#
# `flow.write_trajectory_csv` and `kinetics.write_particles` as they were
# before both went through `flow.write_csv`: a stacked block formatted row
# by row, and zipped column lists, each with its own block size.

ORACLE_TRAJECTORY_BLOCK_ROWS = 4_096
ORACLE_PARTICLE_BLOCK_ROWS = 16_384


def _oracle_csv_rows(traj: Trajectory, rows: slice) -> list[str]:
    """The CSV rows of samples `rows`: s, the state, H, pred_dHds, div."""
    monitors = [traj.monitors[k][rows] for k in ("hamiltonian", "predicted_dH", "divergence")]
    block = np.column_stack([traj.times[rows], traj.states[rows], *monitors])
    return [",".join(map(repr, row.tolist())) for row in block]


def oracle_write_trajectory_csv(traj: Trajectory, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(["s", *traj.chart.coord_names, "H", "pred_dHds", "div"]) + "\n")
        for lo in range(0, len(traj.times), ORACLE_TRAJECTORY_BLOCK_ROWS):
            rows = slice(lo, lo + ORACLE_TRAJECTORY_BLOCK_ROWS)
            fh.write("\n".join(_oracle_csv_rows(traj, rows)) + "\n")


def oracle_write_particles(ensemble: ParticleEnsemble, path) -> None:
    cols = particle_csv_columns(ensemble.chart)
    slot_of = {name: k for k, name in enumerate(ensemble.chart.coord_names)}
    in_csv_order = [*(ensemble.columns[slot_of[c]] for c in cols[:-1]), ensemble.weights]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(cols) + "\n")
        for lo in range(0, len(ensemble.weights), ORACLE_PARTICLE_BLOCK_ROWS):
            rows = slice(lo, min(lo + ORACLE_PARTICLE_BLOCK_ROWS, len(ensemble.weights)))
            fh.writelines(",".join(map(repr, row)) + "\n"
                          for row in zip(*(c[rows].tolist() for c in in_csv_order)))


# -- the dense tensor walks ----------------------------------------------
#
# The tensor layers as they were before they walked only nonzero
# components: every (i, j, k) read through `entry`, every partial taken,
# zero or not.  Each sums the same nonzero terms in the same order as its
# nonzero walk, so results and first errors must agree exactly.


def entry(B: TwoFormExpr, j: int, k: int) -> tuple[int, Poly] | None:
    """B_jk as (sign, stored component), None where it vanishes: the
    sign is -1 below the diagonal, so no negated copy is built."""
    if j == k:
        return None
    sign = 1 if j < k else -1
    comp = B.components[TwoFormExpr.slot(B.chart.dim, min(j, k), max(j, k))]
    return (sign, comp) if comp else None


def dense_derivative_terms(X: VectorFieldExpr, f: Poly) -> list[tuple[int, Poly, Poly]]:
    return [(1, comp, f.partial(k)) for k, comp in enumerate(X.components) if comp]


def dense_contract_twoform(X: VectorFieldExpr, B: TwoFormExpr) -> OneFormExpr:
    """(i_X B)_k = X^j B_{jk}."""
    d = X.chart.dim
    return OneFormExpr(X.chart, tuple(
        Poly.sum_of_products(d, [(e[0], Xj, e[1]) for j, Xj in enumerate(X.components)
                                 if (e := entry(B, j, k))])
        for k in range(d)))


def dense_exterior_derivative_oneform(alpha: OneFormExpr) -> TwoFormExpr:
    """(d alpha)_{jk} = d_j alpha_k - d_k alpha_j."""
    a = alpha.components
    return TwoFormExpr(alpha.chart, tuple(
        a[k].partial(j) - a[j].partial(k) for j, k in combinations(range(alpha.chart.dim), 2)))


def dense_lie_derivative_oneform(X: VectorFieldExpr, alpha: OneFormExpr) -> OneFormExpr:
    """(L_X alpha)_j = X^i d_i alpha_j + alpha_i d_j X^i."""
    d = X.chart.dim
    pairs = [(a_i, X_i) for a_i, X_i in zip(alpha.components, X.components) if a_i]
    return OneFormExpr(X.chart, tuple(
        Poly.sum_of_products(d, dense_derivative_terms(X, alpha.components[j])
                             + [(1, a_i, X_i.partial(j)) for a_i, X_i in pairs])
        for j in range(d)))


def dense_lie_derivative_twoform(X: VectorFieldExpr, B: TwoFormExpr) -> TwoFormExpr:
    """(L_X B)_{jk} = X^i d_i B_{jk} + B_{ik} d_j X^i + B_{ji} d_k X^i."""
    d = X.chart.dim
    comps = []
    for (j, k), b_jk in zip(combinations(range(d), 2), B.components):
        terms = dense_derivative_terms(X, b_jk)
        for i, Xi in enumerate(X.components):
            if Xi:
                if e := entry(B, i, k):
                    terms.append((e[0], e[1], Xi.partial(j)))
                if e := entry(B, j, i):
                    terms.append((e[0], e[1], Xi.partial(k)))
        comps.append(Poly.sum_of_products(d, terms))
    return TwoFormExpr(X.chart, tuple(comps))


def dense_sharp(alpha: OneFormExpr, variant: SharpVariant = SharpVariant.FULL) -> VectorFieldExpr:
    """`musical.sharp`, filling every component with a zero of its own first."""
    chart = alpha.chart
    full = variant is SharpVariant.FULL
    comps = [chart.zero() for _ in range(chart.dim)]
    zeta = alpha.components[chart.z_slot] if chart.has_z else None
    pdotalpha = [(1, zeta, None)] if zeta is not None and full else []
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
    return VectorFieldExpr(chart, tuple(comps))


# -- the reference parser ------------------------------------------------

_ORACLE_OPS = set("+-*/^()")


class _Tokenizer:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def _skip_space(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> tuple[str, str, int]:
        """Return (kind, value, offset) without consuming.

        kind is one of 'num', 'name', 'op', 'end'.
        """
        self._skip_space()
        if self.pos >= len(self.text):
            return ("end", "", self.pos)
        start = self.pos
        ch = self.text[start]
        if ch in _ORACLE_OPS:
            return ("op", ch, start)
        if ch.isdigit() or ch == ".":
            j = start
            seen_dot = False
            while j < len(self.text) and (self.text[j].isdigit() or self.text[j] == "."):
                if self.text[j] == ".":
                    if seen_dot:
                        break
                    seen_dot = True
                j += 1
            return ("num", self.text[start:j], start)
        if ch.isalpha() or ch == "_":
            j = start
            while j < len(self.text) and (self.text[j].isalnum() or self.text[j] == "_"):
                j += 1
            return ("name", self.text[start:j], start)
        raise ParseError(f"unexpected character {ch!r}", start)

    def take(self) -> tuple[str, str, int]:
        kind, value, offset = self.peek()
        if kind != "end":
            self.pos = offset + len(value)
        return (kind, value, offset)


def _number_to_fraction(text: str, offset: int) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ParseError(f"bad numeric literal {text!r}", offset) from None


class OracleParser:
    """The expression parser as `geokin.poly` wrote it before its one-pass,
    term-wise rewrite: the oracle that rewrite is held to.  It rescans a
    token on every look and builds one `Poly` per factor.

    Recursive descent over: expr := term (('+'|'-') term)*,
    term := factor (('*'|'/') factor)*, factor := sign* atom ('^' uint)?,
    atom := number | name | '(' expr ')'.

    Division is only defined when the divisor reduces to a numeric
    constant; decimal literals convert exactly to rationals.
    """

    def __init__(self, text: str, names: Sequence[str]):
        self.toks = _Tokenizer(text)
        self.names = list(names)
        self.index = {n: i for i, n in enumerate(self.names)}
        self.dim = len(self.names)

    def parse(self) -> Poly:
        value = self.expr()
        kind, tok, offset = self.toks.peek()
        if kind != "end":
            raise ParseError(f"unexpected trailing input {tok!r}", offset)
        return value

    def expr(self) -> Poly:
        value = self.term()
        while True:
            kind, tok, _ = self.toks.peek()
            if kind == "op" and tok in "+-":
                self.toks.take()
                rhs = self.term()
                value = value + rhs if tok == "+" else value - rhs
            else:
                return value

    def term(self) -> Poly:
        value = self.factor()
        while True:
            kind, tok, offset = self.toks.peek()
            if kind == "op" and tok == "*":
                self.toks.take()
                value = value * self.factor()
            elif kind == "op" and tok == "/":
                self.toks.take()
                _, _, div_offset = self.toks.peek()
                divisor = self.factor()
                if not divisor.is_constant():
                    raise ParseError("division is only defined by numeric literals", div_offset)
                c = divisor.constant_value()
                if c == 0:
                    raise ParseError("division by zero", div_offset)
                value = value / c
            else:
                return value

    def factor(self) -> Poly:
        sign = 1
        while True:
            kind, tok, _ = self.toks.peek()
            if kind == "op" and tok in "+-":
                self.toks.take()
                if tok == "-":
                    sign = -sign
            else:
                break
        value = self.atom()
        kind, tok, _ = self.toks.peek()
        if kind == "op" and tok == "^":
            self.toks.take()
            ekind, etok, eoffset = self.toks.take()
            if ekind != "num" or not etok.isdecimal():
                raise ParseError("exponent must be a nonnegative integer", eoffset)
            try:
                exponent = int(etok)
            except ValueError:
                raise ParseError(f"exponent of {len(etok)} digits is too long", eoffset) from None
            if value.is_constant():
                # Refuse before computing: the exact power of a constant
                # grows without bound in memory, long before any float use.
                c = value.constant_value()
                bits = max(abs(c.numerator).bit_length(), c.denominator.bit_length()) - 1
                if bits * exponent >= sys.float_info.max_exp:
                    raise ParseError("constant power lies outside float range", eoffset)
            value = value ** exponent
        return value if sign == 1 else -value

    def atom(self) -> Poly:
        kind, tok, offset = self.toks.take()
        if kind == "num":
            return Poly.const(self.dim, _number_to_fraction(tok, offset))
        if kind == "name":
            if tok not in self.index:
                known = ", ".join(self.names) if self.names else "none"
                raise ParseError(
                    f"unknown variable {tok!r}; chart coordinates are: {known}", offset
                )
            return Poly.variable(self.dim, self.index[tok])
        if kind == "op" and tok == "(":
            value = self.expr()
            ckind, ctok, coffset = self.toks.take()
            if not (ckind == "op" and ctok == ")"):
                raise ParseError("expected ')'", coffset)
            return value
        if kind == "end":
            raise ParseError("unexpected end of input", offset)
        raise ParseError(f"unexpected token {tok!r}", offset)


def oracle_parse(text: str, names: Sequence[str]) -> Poly:
    """`geokin.poly.parse` as it was before the one-pass rewrite."""
    return OracleParser(text, names).parse()
