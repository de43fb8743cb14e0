"""Exact multivariate polynomials with rational coefficients.

A polynomial in d coordinates is stored sparsely as a map from exponent
tuples (length d, nonnegative ints) to nonzero `fractions.Fraction`
coefficients.  Zero terms are pruned on construction, so two polynomials
are equal iff their term maps are equal, and the zero polynomial is the
empty map.  Every arithmetic result is canonical; nothing here ever
rounds.

Term order everywhere (printing, evaluation) is graded lexicographic,
highest total degree first, ties broken by earlier coordinates carrying
higher exponents.  Numeric evaluation walks terms in that fixed order
with cached coordinate powers, so results are deterministic in double
precision.

Iterated symbolic work (nested brackets, Lie derivatives) can blow up;
a configurable total-degree cap (default 24) turns runaway growth into
an explicit `DegreeOverflowError` instead of a hang.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from typing import Mapping, Sequence

import numpy as np

Exponents = tuple[int, ...]
Rational = Fraction | int

DEFAULT_MAX_TOTAL_DEGREE = 24

_max_total_degree = DEFAULT_MAX_TOTAL_DEGREE


class DegreeOverflowError(ArithmeticError):
    """Raised when an operation would exceed the configured degree cap."""


class ParseError(ValueError):
    """Syntax or name error while parsing an expression.

    `offset` is the byte offset into the input at which the problem was
    detected.
    """

    def __init__(self, message: str, offset: int) -> None:
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


def max_total_degree() -> int:
    return _max_total_degree


def set_max_total_degree(limit: int) -> int:
    """Set the global degree cap, returning the previous value."""
    global _max_total_degree
    if limit < 1:
        raise ValueError("degree cap must be at least 1")
    previous = _max_total_degree
    _max_total_degree = limit
    return previous


def _term_sort_key(exps: Exponents) -> tuple:
    # graded lex, descending: highest total degree first, then the term
    # whose earlier coordinates carry higher exponents.
    return (-sum(exps), tuple(-e for e in exps))


class Poly:
    """Sparse exact polynomial over Fraction coefficients.

    Instances are immutable by convention: no method mutates `terms`
    after construction, and callers must not either.
    """

    __slots__ = ("dim", "terms")

    def __init__(self, dim: int, terms: Mapping[Exponents, Rational] | None = None):
        if dim < 0:
            raise ValueError("dim must be nonnegative")
        clean: dict[Exponents, Fraction] = {}
        if terms:
            for exps, coeff in terms.items():
                if len(exps) != dim:
                    raise ValueError(
                        f"exponent tuple {exps} has length {len(exps)}, expected {dim}"
                    )
                if any(e < 0 for e in exps):
                    raise ValueError(f"negative exponent in {exps}")
                c = Fraction(coeff)
                if c != 0:
                    key = tuple(int(e) for e in exps)
                    acc = clean.get(key)
                    c = c if acc is None else acc + c
                    if c == 0:
                        clean.pop(key, None)
                    else:
                        clean[key] = c
        self.dim = dim
        self.terms = clean

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, dim: int) -> "Poly":
        return cls(dim, {})

    @classmethod
    def const(cls, dim: int, value: Rational) -> "Poly":
        return cls(dim, {(0,) * dim: Fraction(value)})

    @classmethod
    def variable(cls, dim: int, index: int) -> "Poly":
        if not 0 <= index < dim:
            raise ValueError(f"variable index {index} out of range for dim {dim}")
        exps = tuple(1 if i == index else 0 for i in range(dim))
        return cls(dim, {exps: Fraction(1)})

    @classmethod
    def monomial(cls, dim: int, exps: Sequence[int], coeff: Rational = 1) -> "Poly":
        return cls(dim, {tuple(exps): Fraction(coeff)})

    # -- predicates and views -----------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return not self.terms or (len(self.terms) == 1 and (0,) * self.dim in self.terms)

    def constant_value(self) -> Fraction:
        """The coefficient of the constant term (0 if absent)."""
        return self.terms.get((0,) * self.dim, Fraction(0))

    def total_degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def depends_on(self, index: int) -> bool:
        return any(exps[index] > 0 for exps in self.terms)

    def sorted_terms(self) -> list[tuple[Exponents, Fraction]]:
        return sorted(self.terms.items(), key=lambda kv: _term_sort_key(kv[0]))

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Poly):
            return self.dim == other.dim and self.terms == other.terms
        if isinstance(other, (int, Fraction)):
            return self == Poly.const(self.dim, other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.dim, frozenset(self.terms.items())))

    # -- ring operations ----------------------------------------------

    def _coerce(self, other: "Poly | Rational") -> "Poly":
        if isinstance(other, Poly):
            if other.dim != self.dim:
                raise ValueError(f"dimension mismatch: {self.dim} vs {other.dim}")
            return other
        return Poly.const(self.dim, other)

    def __add__(self, other: "Poly | Rational") -> "Poly":
        other = self._coerce(other)
        out = dict(self.terms)
        for exps, coeff in other.terms.items():
            acc = out.get(exps, Fraction(0)) + coeff
            if acc == 0:
                out.pop(exps, None)
            else:
                out[exps] = acc
        result = Poly.__new__(Poly)
        result.dim = self.dim
        result.terms = out
        return result

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        result = Poly.__new__(Poly)
        result.dim = self.dim
        result.terms = {e: -c for e, c in self.terms.items()}
        return result

    def __sub__(self, other: "Poly | Rational") -> "Poly":
        return self + (-self._coerce(other))

    def __rsub__(self, other: Rational) -> "Poly":
        return self._coerce(other) - self

    def __mul__(self, other: "Poly | Rational") -> "Poly":
        if isinstance(other, (int, Fraction)):
            c = Fraction(other)
            if c == 0:
                return Poly.zero(self.dim)
            result = Poly.__new__(Poly)
            result.dim = self.dim
            result.terms = {e: k * c for e, k in self.terms.items()}
            return result
        other = self._coerce(other)
        cap = _max_total_degree
        out: dict[Exponents, Fraction] = {}
        for ea, ca in self.terms.items():
            for eb, cb in other.terms.items():
                exps = tuple(x + y for x, y in zip(ea, eb))
                if sum(exps) > cap:
                    raise DegreeOverflowError(
                        f"product term degree {sum(exps)} exceeds cap {cap}"
                    )
                acc = out.get(exps, Fraction(0)) + ca * cb
                if acc == 0:
                    out.pop(exps, None)
                else:
                    out[exps] = acc
        result = Poly.__new__(Poly)
        result.dim = self.dim
        result.terms = out
        return result

    __rmul__ = __mul__

    def __truediv__(self, other: Rational) -> "Poly":
        if isinstance(other, Poly):
            raise TypeError("division by a polynomial is not defined; divide by a rational")
        c = Fraction(other)
        if c == 0:
            raise ZeroDivisionError("division of a polynomial by zero")
        return self * (Fraction(1) / c)

    def __pow__(self, exponent: int) -> "Poly":
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("polynomial powers must be nonnegative integers")
        result = Poly.const(self.dim, 1)
        base = self
        k = exponent
        while k:
            if k & 1:
                result = result * base
            base_needed = k > 1
            if base_needed:
                base = base * base
            k >>= 1
        return result

    # -- calculus ------------------------------------------------------

    def partial(self, index: int) -> "Poly":
        """Partial derivative with respect to coordinate `index`."""
        if not 0 <= index < self.dim:
            raise ValueError(f"coordinate index {index} out of range for dim {self.dim}")
        out: dict[Exponents, Fraction] = {}
        for exps, coeff in self.terms.items():
            e = exps[index]
            if e == 0:
                continue
            lowered = tuple(x - 1 if i == index else x for i, x in enumerate(exps))
            out[lowered] = out.get(lowered, Fraction(0)) + coeff * e
        result = Poly.__new__(Poly)
        result.dim = self.dim
        result.terms = {e: c for e, c in out.items() if c != 0}
        return result

    def remap(self, new_dim: int, index_map: Mapping[int, int]) -> "Poly":
        """Reinterpret on a chart with `new_dim` coordinates.

        `index_map` sends old coordinate indices to new ones and must be
        injective; every coordinate this polynomial actually depends on
        must be mapped.  Used to compare reductions across chart kinds
        (for example a time-and-z-independent cocontact Hamiltonian read
        as a symplectic one).
        """
        used = {i for exps in self.terms for i, e in enumerate(exps) if e > 0}
        missing = used - set(index_map)
        if missing:
            raise ValueError(f"coordinates {sorted(missing)} are used but not mapped")
        targets = [index_map[i] for i in sorted(index_map)]
        if len(set(targets)) != len(targets):
            raise ValueError("index_map must be injective")
        out: dict[Exponents, Fraction] = {}
        for exps, coeff in self.terms.items():
            new_exps = [0] * new_dim
            for i, e in enumerate(exps):
                if e:
                    j = index_map[i]
                    if not 0 <= j < new_dim:
                        raise ValueError(f"mapped index {j} out of range for dim {new_dim}")
                    new_exps[j] = e
            key = tuple(new_exps)
            out[key] = out.get(key, Fraction(0)) + coeff
        return Poly(new_dim, out)

    # -- numeric evaluation -------------------------------------------

    def __call__(self, point: Sequence[float]) -> float:
        return self.eval(point)

    def eval(self, point: Sequence[float]) -> float:
        """Evaluate at a point of floats.

        Deterministic: terms are accumulated in graded-lex order with
        cached powers per coordinate.
        """
        if len(point) != self.dim:
            raise ValueError(f"point has length {len(point)}, expected {self.dim}")
        xs = [float(x) for x in point]
        if not all(math.isfinite(x) for x in xs):
            raise ValueError("non-finite coordinate in evaluation point")
        return self._walk(xs)

    def eval_array(self, points: np.ndarray) -> np.ndarray:
        """Vectorized evaluation on an (N, dim) array; bit-identical to `eval`."""
        pts = np.asarray(points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != self.dim:
            raise ValueError(f"points must have shape (N, {self.dim})")
        total = self._walk([pts[:, i] for i in range(self.dim)])
        return total if isinstance(total, np.ndarray) else np.full(len(pts), total)

    def _walk(self, xs: Sequence) -> float | np.ndarray:
        """Sum the terms in graded-lex order at `xs`: one float, or one
        numpy column, per coordinate; the same arithmetic either way."""
        powers = [[1.0] for _ in xs]
        total = 0.0
        for exps, coeff in self.sorted_terms():
            term = float(coeff)
            for i, e in enumerate(exps):
                if e:
                    cache = powers[i]
                    while len(cache) <= e:
                        cache.append(cache[-1] * xs[i])
                    term *= cache[e]
            total += term
        return total

    # -- printing ------------------------------------------------------

    def to_text(self, names: Sequence[str]) -> str:
        """Canonical text form, parseable by `parse` with the same names."""
        if len(names) != self.dim:
            raise ValueError(f"got {len(names)} names for dim {self.dim}")
        if not self.terms:
            return "0"
        pieces: list[str] = []
        for k, (exps, coeff) in enumerate(self.sorted_terms()):
            factors = []
            for name, e in zip(names, exps):
                if e == 1:
                    factors.append(name)
                elif e > 1:
                    factors.append(f"{name}^{e}")
            mag = abs(coeff)
            if not factors or mag != 1:
                factors.insert(0, str(mag))
            body = "*".join(factors)
            if k == 0:
                pieces.append(body if coeff > 0 else f"-{body}")
            else:
                pieces.append(f"+ {body}" if coeff > 0 else f"- {body}")
        return " ".join(pieces)

    def __repr__(self) -> str:
        names = [f"x{i}" for i in range(self.dim)]
        return f"Poly[{self.dim}]({self.to_text(names)})"


# -- parsing -----------------------------------------------------------

_TOKEN_OPS = set("+-*/^()")


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
        if ch in _TOKEN_OPS:
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


class _Parser:
    """Recursive descent over: expr := term (('+'|'-') term)*,
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
        kind, tok, _ = self.toks.peek()
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


def parse(text: str, names: Sequence[str]) -> Poly:
    """Parse an expression over the given coordinate names into a Poly.

    Supports + - * / ^ and parentheses; ^ takes nonnegative integer
    exponents, / only numeric divisors.  Decimal literals are converted
    exactly (0.5 becomes 1/2).  Raises ParseError with a byte offset on
    any syntax or name problem, and on a power of a constant whose
    numerator or denominator would lie outside float range.
    """
    return _Parser(text, names).parse()
