"""Exact multivariate polynomials with rational coefficients.

A polynomial in d coordinates is stored sparsely as integer numerators
over one positive denominator: a map from exponent keys to nonzero ints,
and the int that divides them all.  The form is canonical: zero terms
are pruned, the denominator and the numerators share no common factor,
and the zero polynomial is the empty map over 1.  So two polynomials are
equal iff their maps and denominators are equal.  Ring operations run on
ints alone (a product multiplies numerators and denominators, a sum
first scales both sides to their common denominator) with one gcd per
result; nothing here ever rounds.  `terms` shows the coefficients as
`fractions.Fraction`s.

A term's exponents (e_0, ..., e_{d-1}) are packed into one int key: the
total degree in the top bits, then one 6-bit slot per coordinate with
coordinate 0 most significant,

    key = deg << 6d | e_0 << 6(d-1) | ... | e_{d-1}.

So a product's key is the sum of its factors' keys, a term's degree is
`key >> 6d`, a partial in x^i lowers the key by one unit of slot i and
one of the degree, and descending key order is the graded-lex term
order below.  Exponent tuples appear only at the public boundary: the
constructor, `monomial`, `terms` and `sorted_terms`.  The width rule
that keeps slots from carrying: the constructor refuses a term past
`MAX_TOTAL_DEGREE`, and a product is checked against it before it is
formed, so every stored exponent is at most 24 and the sum of two is
below 64.

The symbolic layers mostly need sums of products, such as X^k df/dx^k
or F_q H_p - F_p H_q.  `Poly.sum_of_products(dim, [(c, a, b), ...])`
forms the sum of c * a * b (int c, b None for c * a) in one pass: every
product goes into one numerator map over the lcm of the products'
denominators, with one gcd at the end.  It equals the fold over `+` and
`*`, which builds, copies and reduces an intermediate per step, and
raises the same degree-cap error from the same term.

Term order everywhere (printing, evaluation) is graded lexicographic,
highest total degree first, ties broken by earlier coordinates carrying
higher exponents.  Numeric evaluation runs the straight-line walk of
the terms in that order that `codegen.evaluator` generates, in two forms
per polynomial, each compiled on its first use: `Poly.eval` runs a
checked scalar entry, two Python frames a call, and `Poly.eval_array` an
array kernel on `dim` equal-length columns (an (N, dim) array's `.T`, or
the columns a solver keeps), bit-identical to it row by row.
`partial` is memoised the same way, per instance and coordinate, in the
`_partials` slot: the symbolic layers take the same partials of the
same polynomial many times.  No entry or kernel is built for a
polynomial of more than `budgets.MAX_KERNEL_TERMS` terms:
`KernelBudgetError`, a subclass of the degree-cap error, comes first.

Iterated symbolic work (nested brackets, Lie derivatives) can blow up.
Two caps turn runaway growth into an explicit error instead of a hang or
a memory blow-up, both raised before a product does any work: a fixed
total-degree cap, `MAX_TOTAL_DEGREE` = 24 (`DegreeOverflowError`), and a
budget of `MAX_PRODUCT_PAIRS` term pairs visited by one product, one
`sum_of_products` or one power (`ProductBudgetError`, a subclass, so
every handler of the degree cap covers it).
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Sequence

from . import budgets, codegen

Exponents = tuple[int, ...]
Rational = Fraction | int

MAX_TOTAL_DEGREE = 24
# Term pairs one product, sum of products or power may visit: far above the
# largest in the test suite and the benchmark (116), and about 0.4 s of work.
MAX_PRODUCT_PAIRS = 1_000_000
_SLOT = 6  # bits per exponent slot; see the width rule in the module docstring
_MASK = (1 << _SLOT) - 1


class DegreeOverflowError(ArithmeticError):
    """Raised when an operation would exceed the degree cap."""


class ProductBudgetError(DegreeOverflowError):
    """Raised when a product would visit more term pairs than `MAX_PRODUCT_PAIRS`."""


class KernelBudgetError(DegreeOverflowError):
    """Raised when a polynomial has more terms than a generated evaluator may
    hold, `budgets.MAX_KERNEL_TERMS`."""


def _pack(exps: Sequence[int]) -> int:
    """The key of exponent tuple `exps` (nonnegative, degree within the cap)."""
    key = sum(exps)
    for e in exps:
        key = key << _SLOT | e
    return key


def unit_key(dim: int, index: int) -> int:
    """The key of coordinate `index` to the first power: one in its slot
    and one in the degree."""
    return 1 << _SLOT * dim | 1 << _SLOT * (dim - 1 - index)


def _unpack(key: int, dim: int) -> Exponents:
    return tuple(key >> s & _MASK for s in range(_SLOT * (dim - 1), -1, -_SLOT))


def _check_product(dim: int, na: dict[int, int], nb: dict[int, int], pairs: int = 0) -> int:
    """Check the product of terms `na` and `nb` on `dim` coordinates before
    it is formed; return `pairs` plus the term pairs it visits.  Raise
    `ProductBudgetError` if that total passes `MAX_PRODUCT_PAIRS`, and the
    cap's `DegreeOverflowError` if the product has a term past the cap,
    naming the first such term in product order (`na` outer, `nb` inner).
    Term by term only when the two top degrees together pass the cap, so
    that such a term exists."""
    pairs += len(na) * len(nb)
    if pairs > MAX_PRODUCT_PAIRS:
        raise ProductBudgetError(f"exact products would visit {pairs} term pairs, past the "
                                 f"budget of {MAX_PRODUCT_PAIRS}")
    shift = _SLOT * dim
    if na and nb and (max(na) >> shift) + (max(nb) >> shift) > MAX_TOTAL_DEGREE:
        deg = next(d for ka in na for kb in nb if (d := (ka + kb) >> shift) > MAX_TOTAL_DEGREE)
        raise DegreeOverflowError(f"product term degree {deg} exceeds cap {MAX_TOTAL_DEGREE}")
    return pairs


class ParseError(ValueError):
    """Syntax or name error while parsing an expression.

    `offset` is the character offset into the input at which the problem
    was detected.
    """

    def __init__(self, message: str, offset: int) -> None:
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


class Poly:
    """Sparse exact polynomial: int numerators `_num` keyed by packed
    exponents over one int denominator `_den` > 0, in the canonical form
    the module describes.

    Instances are immutable by convention: no method mutates `_num`
    after construction, and callers must not either.  That is what lets
    `_entry` and `_kernel` cache the compiled evaluators, and `_partials`
    the partial derivatives, for the life of the instance.
    """

    __slots__ = ("dim", "_num", "_den", "_entry", "_kernel", "_partials")

    def __init__(self, dim: int, terms: Mapping[Exponents, Rational] | None = None):
        if dim < 0:
            raise ValueError("dim must be nonnegative")
        clean: dict[int, Fraction] = {}
        if terms:
            for exps, coeff in terms.items():
                if len(exps) != dim:
                    raise ValueError(
                        f"exponent tuple {exps} has length {len(exps)}, expected {dim}"
                    )
                if any(e < 0 for e in exps):
                    raise ValueError(f"negative exponent in {exps}")
                key = _pack([int(e) for e in exps])
                if key >> _SLOT * dim > MAX_TOTAL_DEGREE:
                    raise DegreeOverflowError(f"term degree {key >> _SLOT * dim} exceeds cap "
                                              f"{MAX_TOTAL_DEGREE}")
                c = Fraction(coeff)
                if c != 0:
                    acc = clean.get(key)
                    c = c if acc is None else acc + c
                    if c == 0:
                        clean.pop(key, None)
                    else:
                        clean[key] = c
        # each coefficient is in lowest terms, so the lcm of their
        # denominators shares no factor with all the scaled numerators
        den = math.lcm(*(c.denominator for c in clean.values()))
        self.dim = dim
        self._num = {k: c.numerator * (den // c.denominator) for k, c in clean.items()}
        self._den = den
        self._entry = self._kernel = None
        self._partials = None

    @classmethod
    def _of(cls, dim: int, num: dict[int, int], den: int) -> "Poly":
        """Wrap nonzero numerators over `den` > 0, dividing out their
        common factor with `den` (none to divide when `den` is 1)."""
        if den != 1:
            g = math.gcd(den, *num.values())
            if g != 1:
                num = {k: n // g for k, n in num.items()}
                den //= g
        return cls._wrap(dim, num, den)

    @classmethod
    def _wrap(cls, dim: int, num: dict[int, int], den: int) -> "Poly":
        """Wrap numerators over `den` that are already canonical."""
        result = cls.__new__(cls)
        result.dim = dim
        result._num = num
        result._den = den
        result._entry = result._kernel = None
        result._partials = None
        return result

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, dim: int) -> "Poly":
        return cls._wrap(dim, {}, 1)

    @classmethod
    def const(cls, dim: int, value: Rational) -> "Poly":
        c = Fraction(value)
        return cls._of(dim, {0: c.numerator} if c else {}, c.denominator)

    @classmethod
    def variable(cls, dim: int, index: int) -> "Poly":
        if not 0 <= index < dim:
            raise ValueError(f"variable index {index} out of range for dim {dim}")
        return cls._wrap(dim, {unit_key(dim, index): 1}, 1)

    @classmethod
    def monomial(cls, dim: int, exps: Sequence[int], coeff: Rational = 1) -> "Poly":
        return cls(dim, {tuple(exps): Fraction(coeff)})

    # -- predicates and views -----------------------------------------

    @property
    def terms(self) -> dict[Exponents, Fraction]:
        """The coefficients as Fractions, in a new dict on every read."""
        den, dim = self._den, self.dim
        return {_unpack(k, dim): Fraction(n, den) for k, n in self._num.items()}

    def float_coefficients(self) -> list[float]:
        """The coefficients as the kernel reads them (correctly rounded);
        OverflowError if one lies outside float range."""
        den = self._den
        return [n / den for n in self._num.values()]

    def is_zero(self) -> bool:
        return not self._num

    def is_constant(self) -> bool:
        return not self._num or (len(self._num) == 1 and 0 in self._num)

    def constant_value(self) -> Fraction:
        """The coefficient of the constant term (0 if absent)."""
        return Fraction(self._num.get(0, 0), self._den)

    def depends_on(self, index: int) -> bool:
        s = _SLOT * (self.dim - 1 - index)
        return any(k >> s & _MASK for k in self._num)

    def sorted_terms(self) -> list[tuple[Exponents, Fraction]]:
        """The terms in graded-lex order: descending keys."""
        den, dim = self._den, self.dim
        return [(_unpack(k, dim), Fraction(self._num[k], den))
                for k in sorted(self._num, reverse=True)]

    def __bool__(self) -> bool:
        return bool(self._num)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Poly):
            return self.dim == other.dim and self._den == other._den and self._num == other._num
        if isinstance(other, (int, Fraction)):
            return self == Poly.const(self.dim, other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.dim, self._den, frozenset(self._num.items())))

    # -- ring operations ----------------------------------------------

    def _coerce(self, other: "Poly | Rational") -> "Poly":
        if isinstance(other, Poly):
            if other.dim != self.dim:
                raise ValueError(f"dimension mismatch: {self.dim} vs {other.dim}")
            return other
        return Poly.const(self.dim, other)

    def __add__(self, other: "Poly | Rational") -> "Poly":
        return self._sum(self._coerce(other), 1)

    __radd__ = __add__

    def __sub__(self, other: "Poly | Rational") -> "Poly":
        return self._sum(self._coerce(other), -1)

    def __rsub__(self, other: Rational) -> "Poly":
        return self._coerce(other) - self

    def _sum(self, other: "Poly", sign: int) -> "Poly":
        """self + sign * other, for sign 1 or -1."""
        if not other._num:  # a new instance over the same canonical numerators
            return Poly._wrap(self.dim, self._num, self._den)
        if not self._num:
            return Poly._wrap(self.dim, other._num, other._den) if sign == 1 else -other
        da, db = self._den, other._den
        if da == db:
            out, den = dict(self._num), da
            items = other._num.items() if sign == 1 else [(k, -n) for k, n in other._num.items()]
        else:
            den = da // math.gcd(da, db) * db
            sa, sb = den // da, sign * (den // db)
            out = {k: n * sa for k, n in self._num.items()}
            items = [(k, n * sb) for k, n in other._num.items()]
        for k, n in items:
            acc = out.get(k)
            if acc is None:
                out[k] = n
            elif acc := acc + n:
                out[k] = acc
            else:
                del out[k]
        return Poly._of(self.dim, out, den)

    def __neg__(self) -> "Poly":
        # negated numerators over the same denominator stay canonical
        return Poly._wrap(self.dim, {k: -n for k, n in self._num.items()}, self._den)

    def __mul__(self, other: "Poly | Rational") -> "Poly":
        if not isinstance(other, Poly):
            c = Fraction(other)
            if c == 0:
                return Poly.zero(self.dim)
            m = c.numerator
            return Poly._of(self.dim, {k: n * m for k, n in self._num.items()},
                            self._den * c.denominator)
        other = self._coerce(other)
        if not (self._num and other._num):
            return Poly.zero(self.dim)
        _check_product(self.dim, self._num, other._num)
        return self._times(other)

    __rmul__ = __mul__

    def _times(self, other: "Poly") -> "Poly":
        """self * other, once `_check_product` has passed it."""
        out: dict[int, int] = {}
        nb_items = other._num.items()
        for ka, na in self._num.items():
            for kb, nb in nb_items:
                k = ka + kb
                acc = out.get(k)
                if acc is None:
                    out[k] = na * nb
                elif acc := acc + na * nb:
                    out[k] = acc
                else:
                    del out[k]
        return Poly._of(self.dim, out, self._den * other._den)

    @classmethod
    def sum_of_products(cls, dim: int,
                        terms: Iterable[tuple[int, "Poly", "Poly | None"]]) -> "Poly":
        """The sum of c * a * b over `(c, a, b)` terms, exactly: `c` an int,
        `a` and `b` polynomials on `dim` coordinates, `b` None for the
        term c * a.

        Equal to the fold `out = out + c * a * b` from zero, with one
        denominator and one gcd for the whole sum instead of one per step:
        every product goes straight into one numerator dict over the lcm
        of the products' denominators.  A product past the degree cap
        raises the error `a * b` raises, from the first such term; the
        products together answer to one pair budget, checked before any
        of them is formed.
        """
        prods = []
        den = 1
        pairs = 0
        for c, a, b in terms:
            if a.dim != dim or (b is not None and b.dim != dim):
                raise ValueError(f"dimension mismatch: a term is not on {dim} coordinates")
            if not c or not a._num:
                continue
            if b is None:
                d = a._den
            elif b._num:
                pairs = _check_product(dim, a._num, b._num, pairs)
                d = a._den * b._den
            else:
                continue
            prods.append((c, a._num, None if b is None else b._num, d))
            den = math.lcm(den, d)
        out: dict[int, int] = {}
        get = out.get
        for c, na, nb, d in prods:
            s = c * (den // d)
            if nb is None:
                for k, n in na.items():
                    out[k] = get(k, 0) + s * n
                continue
            nb_items = nb.items()
            for ka, x in na.items():
                x *= s
                for kb, y in nb_items:
                    k = ka + kb
                    out[k] = get(k, 0) + x * y
        return cls._of(dim, {k: n for k, n in out.items() if n}, den)

    def __truediv__(self, other: Rational) -> "Poly":
        if isinstance(other, Poly):
            raise TypeError("division by a polynomial is not defined; divide by a rational")
        c = Fraction(other)
        if c == 0:
            raise ZeroDivisionError("division of a polynomial by zero")
        return self * (Fraction(1) / c)

    def __pow__(self, exponent: int) -> "Poly":
        """Repeated squaring; its products answer to one pair budget."""
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("polynomial powers must be nonnegative integers")
        result = Poly.const(self.dim, 1)
        base = self
        k = exponent
        pairs = 0
        while k:
            if k & 1:
                pairs = _check_product(self.dim, result._num, base._num, pairs)
                result = result._times(base)
            if k > 1:
                pairs = _check_product(self.dim, base._num, base._num, pairs)
                base = base._times(base)
            k >>= 1
        return result

    # -- calculus ------------------------------------------------------

    def partial(self, index: int) -> "Poly":
        """Partial derivative with respect to coordinate `index`, taken once
        per instance and kept in `_partials`.  Lowering one exponent sends
        distinct terms to distinct terms, so nothing collects."""
        if not 0 <= index < self.dim:
            raise ValueError(f"coordinate index {index} out of range for dim {self.dim}")
        memo = self._partials
        if memo is None:
            memo = self._partials = [None] * self.dim
        result = memo[index]
        if result is None:
            s = _SLOT * (self.dim - 1 - index)
            unit = unit_key(self.dim, index)
            out: dict[int, int] = {}
            for k, n in self._num.items():
                e = k >> s & _MASK
                if e:
                    out[k - unit] = n * e
            result = memo[index] = Poly._of(self.dim, out, self._den)
        return result

    # -- numeric evaluation -------------------------------------------

    def eval(self, point: Sequence[float]) -> float:
        """Evaluate at a point of floats, by the checked scalar entry cached
        in `_entry` (see `_compile`): a point of the wrong length, or with a
        non-finite coordinate, raises ValueError."""
        return (self._entry or self._compile("entry"))(point)

    def eval_array(self, columns: Sequence[np.ndarray]) -> np.ndarray:
        """Vectorized evaluation at N points given as `dim` columns of
        length N, one per coordinate: an (N, dim) array `pts` is passed as
        `pts.T`.  Returns N values, bit-identical to `eval` row by row.
        numpy is imported here, so that the exact layers load without it."""
        import numpy as np

        cols = [np.asarray(c, dtype=float) for c in columns]
        shape = cols[0].shape if cols else (0,)
        if len(cols) != self.dim or len(shape) != 1 or any(c.shape != shape for c in cols):
            raise ValueError(f"points must have shape ({self.dim}, N): one column per coordinate")
        total = (self._kernel or self._compile("array"))(*cols)
        return total if isinstance(total, np.ndarray) else np.full(shape, total)

    def check_kernel_budget(self, name: str = "the polynomial") -> None:
        """KernelBudgetError, naming `name` and its term count, if the
        polynomial has more terms than `budgets.MAX_KERNEL_TERMS`."""
        if len(self._num) > budgets.MAX_KERNEL_TERMS:
            raise KernelBudgetError(f"{name} has {len(self._num)} terms, past the kernel "
                                    f"budget of {budgets.MAX_KERNEL_TERMS}")

    def _compile(self, kind: str):
        """Build, cache and return `codegen.evaluator`'s "entry" for `eval`
        (`_entry`) or "array" kernel for `eval_array` (`_kernel`).  A
        polynomial past the kernel budget raises KernelBudgetError before any
        source is emitted, and a coefficient past float range OverflowError in
        `codegen`; either way nothing is cached.  Racing threads build the
        same function."""
        self.check_kernel_budget()
        evaluate = codegen.evaluator(self.dim, self.sorted_terms(), kind)
        setattr(self, "_kernel" if kind == "array" else "_entry", evaluate)
        return evaluate

    # -- printing ------------------------------------------------------

    def to_text(self, names: Sequence[str]) -> str:
        """Canonical text form, parseable by `parse` with the same names."""
        if len(names) != self.dim:
            raise ValueError(f"got {len(names)} names for dim {self.dim}")
        if not self._num:
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
MAX_NESTING = 100  # parentheses a parsed expression may nest


def _scan(text: str) -> Iterator[tuple[str, str, int]]:
    """The tokens of `text` as (kind, value, offset), in one pass.

    kind is the character itself for an operator, else 'num', 'name' or
    'end', which comes last.  A character that starts no token comes last
    instead, as kind 'bad': the parser can never pass it, and raises its
    error only on reaching it, after any error before it.
    """
    n, i = len(text), 0
    while True:
        while i < n and text[i].isspace():
            i += 1
        if i >= n:
            yield ("end", "", i)
            return
        ch = text[i]
        j = i + 1
        if ch in _TOKEN_OPS:
            yield (ch, ch, i)
            i = j
            continue
        if ch.isdigit() or ch == ".":
            seen_dot = ch == "."
            while j < n and (text[j].isdigit() or text[j] == "." and not seen_dot):
                seen_dot = seen_dot or text[j] == "."
                j += 1
            kind = "num"
        elif ch.isalpha() or ch == "_":
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            kind = "name"
        else:
            yield ("bad", ch, i)
            return
        yield (kind, text[i:j], i)
        i = j


class _Parser:
    """Recursive descent over: expr := term (('+'|'-') term)*,
    term := factor (('*'|'/') factor)*, factor := sign* atom ('^' uint)?,
    atom := number | name | '(' expr ')'.

    Division is only defined when the divisor reduces to a numeric
    constant; decimal literals convert exactly to rationals.

    A term is carried as one monomial (num, den, key), the coefficient
    num/den unreduced, for as long as its factors are numbers,
    coordinates and their powers; a parenthesised factor, or a product
    or power past the degree cap, falls back to `Poly` arithmetic, which
    raises the cap's error.  Each finished term is one `Poly`, and an
    expr is one `Poly.sum_of_products` of its signed terms, taken as a
    partial sum every 256 terms.  Every step is the one the `Poly` fold
    would take, in the same order, so the result and the first error are
    that fold's.  The parser holds one token of lookahead, not a token
    list, so a long text costs no memory beyond its result and nesting.
    """

    def __init__(self, text: str, names: Sequence[str]):
        self.next_token = _scan(text).__next__
        self.tok = self.next_token()
        self.names = list(names)
        self.dim = len(self.names)
        self.units = {n: unit_key(self.dim, i) for i, n in enumerate(self.names)}
        self.shift = _SLOT * self.dim
        self.depth = 0

    def peek(self) -> tuple[str, str, int]:
        tok = self.tok
        if tok[0] == "bad":
            raise ParseError(f"unexpected character {tok[1]!r}", tok[2])
        return tok

    def take(self) -> tuple[str, str, int]:
        tok = self.peek()
        if tok[0] != "end":
            self.tok = self.next_token()
        return tok

    def poly(self, value) -> Poly:
        """The `Poly` of a monomial; a `Poly` as it is."""
        if type(value) is not tuple:
            return value
        num, den, key = value
        if not num:
            return Poly._wrap(self.dim, {}, 1)
        g = math.gcd(num, den) if den > 0 else -math.gcd(num, den)
        return Poly._wrap(self.dim, {key: num // g}, den // g)

    @staticmethod
    def constant(value):
        """A constant `Poly` as a monomial; anything else as it is."""
        if type(value) is not tuple and value.is_constant():
            c = value.constant_value()
            return (c.numerator, c.denominator, 0)
        return value

    def parse(self) -> Poly:
        value = self.expr()
        kind, tok, offset = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected trailing input {tok!r}", offset)
        return value

    def expr(self) -> Poly:
        terms = [(1, self.term(), None)]
        while (kind := self.peek()[0]) == "+" or kind == "-":
            self.tok = self.next_token()
            terms.append((1 if kind == "+" else -1, self.term(), None))
            if len(terms) == 256:
                terms = [(1, Poly.sum_of_products(self.dim, terms), None)]
        return terms[0][1] if len(terms) == 1 else Poly.sum_of_products(self.dim, terms)

    def term(self) -> Poly:
        value = self.factor()
        while True:
            kind = self.peek()[0]
            if kind == "*":
                self.tok = self.next_token()
                rhs = self.factor()
                if type(value) is tuple and type(rhs) is tuple:
                    if not (value[0] and rhs[0]):  # zero, with no degree check
                        value = (0, 1, 0)
                        continue
                    if (value[2] + rhs[2]) >> self.shift <= MAX_TOTAL_DEGREE:
                        value = (value[0] * rhs[0], value[1] * rhs[1], value[2] + rhs[2])
                        continue
                value = self.poly(value) * self.poly(rhs)
            elif kind == "/":
                self.tok = self.next_token()
                div_offset = self.peek()[2]
                divisor = self.constant(self.factor())
                if type(divisor) is not tuple or divisor[2]:
                    raise ParseError("division is only defined by numeric literals", div_offset)
                num, den, _ = divisor
                if not num:
                    raise ParseError("division by zero", div_offset)
                if type(value) is tuple:
                    value = (value[0] * den, value[1] * num, value[2])
                else:
                    value = value / Fraction(num, den)
            else:
                return self.poly(value)

    def factor(self):
        """A monomial (num, den, key), or a `Poly` for a parenthesised atom."""
        sign = 1
        while (kind := self.peek()[0]) == "+" or kind == "-":
            self.tok = self.next_token()
            if kind == "-":
                sign = -sign
        value = self.atom()
        if self.peek()[0] == "^":
            self.tok = self.next_token()
            ekind, etok, eoffset = self.take()
            if ekind != "num" or not etok.isdecimal():
                raise ParseError("exponent must be a nonnegative integer", eoffset)
            try:
                exponent = int(etok)
            except ValueError:  # past the interpreter's digit limit for int()
                raise ParseError(f"exponent of {len(etok)} digits is too long", eoffset) from None
            value = self.power(value, exponent, eoffset)
        if sign == 1:
            return value
        return (-value[0], value[1], value[2]) if type(value) is tuple else -value

    def power(self, value, exponent: int, offset: int):
        value = self.constant(value)
        if type(value) is not tuple:
            return value ** exponent
        num, den, key = value  # a literal, a coordinate or a constant: in lowest terms
        if not key:
            # Refuse before computing: the exact power of a constant
            # grows without bound in memory, long before any float use.
            bits = max(abs(num).bit_length(), den.bit_length()) - 1
            if bits * exponent >= sys.float_info.max_exp:
                raise ParseError("constant power lies outside float range", offset)
        elif (key >> self.shift) * exponent > MAX_TOTAL_DEGREE:
            return self.poly(value) ** exponent
        return (num ** exponent, den ** exponent, key * exponent)

    def atom(self):
        kind, tok, offset = self.take()
        if kind == "num":
            try:
                if tok.isdecimal():
                    return (int(tok), 1, 0)
                c = Fraction(tok)
            except (ValueError, ZeroDivisionError):
                raise ParseError(f"bad numeric literal {tok!r}", offset) from None
            return (c.numerator, c.denominator, 0)
        if kind == "name":
            key = self.units.get(tok)
            if key is None:
                known = ", ".join(self.names) if self.names else "none"
                raise ParseError(
                    f"unknown variable {tok!r}; chart coordinates are: {known}", offset
                )
            return (1, 1, key)
        if kind == "(":
            if self.depth == MAX_NESTING:
                raise ParseError(f"parentheses nested deeper than {MAX_NESTING} levels", offset)
            self.depth += 1
            value = self.expr()
            self.depth -= 1
            ckind, _, coffset = self.take()
            if ckind != ")":
                raise ParseError("expected ')'", coffset)
            return value
        if kind == "end":
            raise ParseError("unexpected end of input", offset)
        raise ParseError(f"unexpected token {tok!r}", offset)


def parse(text: str, names: Sequence[str]) -> Poly:
    """Parse an expression over the given coordinate names into a Poly.

    Supports + - * / ^ and parentheses, nested at most `MAX_NESTING`
    (100) deep; ^ takes nonnegative integer exponents in decimal digits
    (of any script, so q1^\u0663 is q1^3; \u00b2 is refused), / only numeric
    divisors.  Decimal literals are converted exactly (0.5 becomes 1/2).
    One pass scans the text into tokens, each read once; each term is
    built as one monomial while its factors allow, and each sum in one
    `Poly.sum_of_products`.  Raises ParseError with a character offset on
    any syntax or name problem, on parentheses nested too deep, and on a
    power of a constant whose numerator or denominator would lie outside
    float range.
    """
    return _Parser(text, names).parse()
