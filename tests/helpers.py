"""Helpers shared by the tests: a traced allocation peak, the two
finite-difference oracles the exact divergence is checked against, and
the reference expression parser `geokin.poly.parse` is checked against."""

import sys
import tracemalloc
from fractions import Fraction
from typing import Sequence

import numpy as np

from geokin.fields import Dynamics
from geokin.flow import IntegratorConfig, integrate
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
            if ekind != "num" or "." in etok:
                raise ParseError("exponent must be a nonnegative integer", eoffset)
            exponent = int(etok)
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
