"""Straight-line code generation: every generated function geokin runs.

Each builder emits the source lines of one function and compiles them
with `define`, over a namespace of exactly the globals that function may
read, builtins included: `len`, `float` and `ValueError` for the checked
entry of `evaluator`, `sqrt`, `max` and `abs` for `error_norm`, none for
the array kernel and the RK4 and RKF45 steps.  Imports neither numpy nor
any `geokin` module.

A step takes a list of coordinates, one float each in `flow.integrate`
and one numpy column each in the particle push, and one evaluator per
coordinate.  x and each stage unpack into names, and every stage state
and solution is one expression per coordinate, so floats and columns go
through the same float operations in the same order.
"""

from __future__ import annotations

import math
from fractions import Fraction as F
from functools import cache
from typing import Iterable, Sequence

# Fehlberg 4(5) coefficients, classic values, exact: the step is emitted with
# each weight's correctly rounded float.
_RKF_A = (
    (),
    (F(1, 4),),
    (F(3, 32), F(9, 32)),
    (F(1932, 2197), F(-7200, 2197), F(7296, 2197)),
    (F(439, 216), F(-8), F(3680, 513), F(-845, 4104)),
    (F(-8, 27), F(2), F(-3544, 2565), F(1859, 4104), F(-11, 40)),
)
_RKF_B5 = (F(16, 135), F(0), F(6656, 12825), F(28561, 56430), F(-9, 50), F(2, 55))
_RKF_B4 = (F(25, 216), F(0), F(1408, 2565), F(2197, 4104), F(-1, 5), F(0))


def define(lines: list[str], names: dict):
    """Compile the function whose `def` opens `lines`, over a namespace of
    `names` alone: every global it may read, builtins included."""
    namespace = {**names, "__builtins__": {}}
    exec("\n".join(lines), namespace)
    return namespace[lines[0][len("def "):lines[0].index("(")]]


def evaluator(dim: int, terms: Iterable[tuple[Sequence[int], object]], kind: str):
    """The "entry" `Poly.eval` runs or the "array" kernel `Poly.eval_array`
    runs, for the polynomial on `dim` coordinates whose (exponents,
    rational coefficient) pairs, in graded-lex order, are `terms`.

    Power e of coordinate i is `p{i}_{e} = p{i}_{e-1} * x{i}`, from x{i}
    itself; each term is `repr(float(c))` times its powers, in coordinate
    order, added one by one to `total = 0.0`, so floats and numpy columns
    get the same bits.  The kernel takes x0, ..., x{dim-1}.  The entry
    takes a point, checks its length, unpacks it as it stands, converts
    each coordinate with one `float()` and refuses a non-finite one with
    one `or` chain of `x - x` (0.0 for a finite float, else NaN).  A
    coefficient outside float range raises OverflowError.
    """
    def power(i: int, e: int) -> str:
        return f"x{i}" if e == 1 else f"p{i}_{e}"

    top = [0] * dim
    lines = []
    for exps, coeff in terms:
        factors = [power(i, e) for i, e in enumerate(exps) if e]
        lines.append(f"    total += {' * '.join([repr(float(coeff))] + factors)}")
        top = [max(t, e) for t, e in zip(top, exps)]
    args = ", ".join(f"x{i}" for i in range(dim))
    if kind == "array":
        head, names = [f"def evaluate({args}):"], {}
    else:
        head = ["def evaluate(point):",
                f"    if len(point) != {dim}:",
                f"        raise ValueError(f'point has length {{len(point)}}, expected {dim}')"]
        if dim:
            head += [f"    {args}, = point",
                     *(f"    x{i} = float(x{i})" for i in range(dim)),
                     f"    if {' or '.join(f'x{i} - x{i}' for i in range(dim))}:",
                     "        raise ValueError('non-finite coordinate in evaluation point')"]
        names = {"len": len, "float": float, "ValueError": ValueError}
    return define([
        *head,
        *(f"    {power(i, e)} = {power(i, e - 1)} * x{i}"
          for i, t in enumerate(top) for e in range(2, t + 1)),
        "    total = 0.0",
        *lines,
        "    return total",
    ], names)


def targets(prefix: str, n: int) -> str:
    """`{prefix}0, {prefix}1, ..., `: the names n values unpack into."""
    return "".join(f"{prefix}{i}, " for i in range(n))


def _stage(s: int, n: int, state: str | None = None) -> list[str]:
    """Stage s: x, or the list `state` as y, handed to f0, ..., f{n-1} in
    turn for the rates k{s}_i.  y goes once they are in: holding it into
    the next stage made the benchmark's particle pushes 25-50% slower."""
    if state is None:
        return [f"    k{s}_{i} = f{i}(x)" for i in range(n)]
    return [f"    y = {state}", *(f"    k{s}_{i} = f{i}(y)" for i in range(n)), "    del y"]


@cache
def rk4_stepper(n: int):
    """The classic RK4 step on a state of `n` coordinates, generated once
    per length (racing threads build the same step): `step(fs, x, h)`
    returns the new state as a list; fs[i] maps a whole stage state to
    the rate of coordinate i.

    Each stage state is one list of one expression per coordinate,
    x + half*k, then x + h*k, and the solution is
    x + sixth*(((k1 + 2.0*k2) + 2.0*k3) + k4), with half = 0.5*h and
    sixth = h/6.0.
    """
    def stage_state(c: str, s: int) -> str:
        return f"[{', '.join(f'x{i} + {c} * k{s}_{i}' for i in range(n))}]"

    solution = ", ".join(f"x{i} + sixth * (((k1_{i} + 2.0 * k2_{i}) + 2.0 * k3_{i}) + k4_{i})"
                         for i in range(n))
    return define([
        "def step(fs, x, h):",
        f"    {targets('f', n)}= fs",
        "    half, sixth = 0.5 * h, h / 6.0",
        f"    {targets('x', n)}= x",
        *_stage(1, n),
        *_stage(2, n, stage_state("half", 1)),
        *_stage(3, n, stage_state("half", 2)),
        *_stage(4, n, stage_state("h", 3)),
        f"    return [{solution}]",
    ], {})


@cache
def rkf45_stepper(n: int):
    """The Fehlberg step on a state of `n` coordinates: `step(fs, x, h)`,
    fs as `rk4_stepper` takes it, returns the fifth-order state and its
    difference from the fourth-order one.

    Each stage state, and each of the two solutions, is one sum per
    coordinate over the tables, x + c1*k1 + c2*k2 + ..., added left to
    right, with c_j = h times the table's weight of stage j, written as
    the `repr` of its float, and the zero weights left out; the
    difference is x5 - x4 per coordinate.
    """
    def weighted(row: Sequence[F]) -> tuple[str, list[str]]:
        """The line setting c_j for each nonzero weight of `row`, and the
        sum x + c_j*k_j + ... of each coordinate."""
        js = [j for j, a in enumerate(row, 1) if a]
        return (f"    {', '.join(f'c{j}' for j in js)} = "
                f"{', '.join(f'h * {float(row[j - 1])!r}' for j in js)}",
                [" + ".join([f"x{i}", *(f"c{j} * k{j}_{i}" for j in js)]) for i in range(n)])

    lines = ["def step(fs, x, h):", f"    {targets('f', n)}= fs",
             f"    {targets('x', n)}= x", *_stage(1, n)]
    for s, row in enumerate(_RKF_A[1:], 2):
        line, sums = weighted(row)
        lines += [line, *_stage(s, n, f"[{', '.join(sums)}]")]
    (fifth_line, fifth), (fourth_line, fourth) = weighted(_RKF_B5), weighted(_RKF_B4)
    lines += [fifth_line, *(f"    y{i} = {total}" for i, total in enumerate(fifth)), fourth_line,
              f"    return [{targets('y', n)}], "
              f"[{', '.join(f'y{i} - ({total})' for i, total in enumerate(fourth))}]"]
    return define(lines, {})


def _pairwise_sum(terms: list[str]) -> str:
    """The sum of `terms` with the additions of `np.add.reduce` on float64:
    left to right under 8 terms; up to 128, eight running sums in strides
    of 8, added in pairs, then the tail; past 128, two halves split at a
    multiple of 8."""
    n = len(terms)
    if n < 8:
        return " + ".join(terms)
    if n <= 128:
        body = n - n % 8
        runs = [f"({' + '.join(terms[j:body:8])})" for j in range(8)]
        pairs = [f"({runs[j]} + {runs[j + 1]})" for j in range(0, 8, 2)]
        return " + ".join([f"(({pairs[0]} + {pairs[1]}) + ({pairs[2]} + {pairs[3]}))",
                           *terms[body:]])
    half = n // 2 - n // 2 % 8
    return f"({_pairwise_sum(terms[:half])}) + ({_pairwise_sum(terms[half:])})"


@cache
def error_norm(n: int):
    """The RKF45 error norm on `n` coordinates:
    `norm(err, x, x_new, abs_tol, rel_tol)`, the RMS of err scaled by
    abs_tol + rel_tol * max(|x|, |x_new|) per coordinate, its squares r*r
    added as np.mean adds them (`_pairwise_sum`)."""
    return define([
        "def norm(err, x, x_new, abs_tol, rel_tol):",
        f"    {targets('e', n)}= err",
        f"    {targets('a', n)}= x",
        f"    {targets('b', n)}= x_new",
        *(f"    r{i} = e{i} / (abs_tol + rel_tol * max(abs(a{i}), abs(b{i})))" for i in range(n)),
        f"    return sqrt(({_pairwise_sum([f'r{i} * r{i}' for i in range(n)])}) / {n})",
    ], {"sqrt": math.sqrt, "max": max, "abs": abs})
