"""Parsing of polynomial expressions; :func:`~skewpoisson.poly.format_poly`
prints them back.

Grammar (whitespace insignificant)::

    expr   := ['+'|'-'] term (('+'|'-') term)*
    term   := factor (('*' factor) | factor-starting-with-a-name)*
    factor := atom ['^' INT]
    atom   := INT ['/' INT] | NAME | '(' expr ')'

Variable names are either ``x1 .. x<n>`` or a caller-supplied list (for
instance generator names like ``f1``/``h4``); unknown identifiers are
rejected.  A factor immediately followed by a name multiplies it, so the
compact forms ``1/2f1``, ``2h1h2`` and ``1/2f1^2f2`` all parse the way they
are meant; every other juxtaposition is a syntax error.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb
from typing import Optional, Sequence

from .poly import Polynomial, variable_name

__all__ = ["PolyParseError", "parse_poly", "DEGREE_CAP"]

DEGREE_CAP = 64
TERM_PRODUCT_BUDGET = 50_000  # (x1+x2+x3+x4)^16 takes 15504

_NUMBER = "number"
_NAME = "name"
_OP = "op"
_END = "end"
_OPS = "+-*/^()"
_DIGITS = "0123456789"  # INT is ASCII only; str.isdigit() also takes "²" and "٣"


class PolyParseError(ValueError):
    """Syntax error with a 1-based character position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"position {position}: {message}")
        self.position = position


def _tokenize(text: str, names: Sequence[str]):
    by_first: dict = {}
    for idx, name in enumerate(names):
        by_first.setdefault(name[0], []).append((name, idx))
    for bucket in by_first.values():
        bucket.sort(key=lambda pair: len(pair[0]), reverse=True)

    tokens = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _DIGITS:
            j = i
            while j < n and text[j] in _DIGITS:
                j += 1
            tokens.append((_NUMBER, int(text[i:j]), i + 1))
            i = j
            continue
        if ch in _OPS:
            tokens.append((_OP, ch, i + 1))
            i += 1
            continue
        matched = None
        for name, idx in by_first.get(ch, ()):
            if text.startswith(name, i):
                matched = (name, idx)
                break
        if matched is None:
            raise PolyParseError(f"unknown symbol {ch!r}", i + 1)
        tokens.append((_NAME, matched[1], i + 1))
        i += len(matched[0])
    tokens.append((_END, None, n + 1))
    return tokens


class _Parser:
    def __init__(self, tokens, nvars: int):
        self.tokens = tokens
        self.pos = 0
        self.nvars = nvars
        self.budget = ExpansionBudget()

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, op: str):
        kind, value, pos = self.peek()
        if kind != _OP or value != op:
            raise PolyParseError(f"expected {op!r}", pos)
        return self.advance()

    def parse_expr(self) -> Polynomial:
        terms = []
        while True:
            kind, value, _ = self.peek()
            sign = value if kind == _OP and value in "+-" else None
            if sign is None and terms:
                return Polynomial.sum(self.nvars, terms)
            if sign is not None:
                self.advance()
            term = self.parse_term()
            terms.append(-term if sign == "-" else term)

    def check_size(self, degree: int, work: int, pos: int):
        try:
            self.budget.charge(degree, work)
        except ValueError as exc:
            raise PolyParseError(str(exc), pos) from None

    def parse_term(self) -> Polynomial:
        product = self.parse_factor()
        while True:
            kind, value, pos = self.peek()
            if kind == _OP and value == "*":
                self.advance()
            elif kind != _NAME:
                # a factor followed by a name multiplies it (compact juxtaposition)
                break
            factor = self.parse_factor()
            self.check_size(product.total_degree() + factor.total_degree(),
                            len(product) * len(factor), pos)
            product = product * factor
        return product

    def parse_factor(self) -> Polynomial:
        base = self.parse_atom()
        kind, value, _ = self.peek()
        if kind == _OP and value == "^":
            self.advance()
            kind, value, pos = self.advance()
            if kind != _NUMBER:
                raise PolyParseError("expected an integer exponent after '^'", pos)
            if value > DEGREE_CAP:
                raise PolyParseError(
                    f"exponent {value} exceeds the degree cap {DEGREE_CAP}", pos
                )
            self.check_size(base.total_degree() * value, power_work(base, value), pos)
            return base ** value
        return base

    def parse_atom(self) -> Polynomial:
        kind, value, pos = self.advance()
        if kind == _NUMBER:
            scalar = Fraction(value)
            kind2, value2, _ = self.peek()
            if kind2 == _OP and value2 == "/":
                self.advance()
                kind3, value3, pos3 = self.advance()
                if kind3 != _NUMBER:
                    raise PolyParseError("expected an integer denominator", pos3)
                if value3 == 0:
                    raise PolyParseError("zero denominator", pos3)
                scalar = Fraction(value, value3)
            return Polynomial.constant(self.nvars, scalar)
        if kind == _NAME:
            return Polynomial.variable(self.nvars, value)
        if kind == _OP and value == "(":
            inner = self.parse_expr()
            self.expect_op(")")
            return inner
        raise PolyParseError("expected a number, a name or '('", pos)


class ExpansionBudget:
    """The budgets of one expression: each power or product it expands is
    held to :data:`DEGREE_CAP` on its own, and the term products of all of
    them together to :data:`TERM_PRODUCT_BUDGET`, so a long sum of powers
    that each fit is refused as a whole."""

    __slots__ = ("spent",)

    def __init__(self):
        self.spent = 0  # term products charged so far

    def charge(self, degree: int, work: int) -> None:
        """Charge a power or product of total degree ``degree`` whose
        expansion takes ``work`` term products; raises ``ValueError`` if the
        budgets then refuse it."""
        if degree > DEGREE_CAP:
            raise ValueError(f"degree {degree} exceeds the degree cap {DEGREE_CAP}")
        self.spent += work
        if self.spent > TERM_PRODUCT_BUDGET:
            raise ValueError(f"expanding needs up to {self.spent} term products, over "
                             f"the term-product budget {TERM_PRODUCT_BUDGET}")


def power_work(base: Polynomial, exponent: int) -> int:
    """An upper bound on the term products of ``base ** exponent``, which
    multiplies ``base`` into the power ``exponent`` times, from 1: ``base^j``
    has no more terms than there are multisets of ``j`` terms of ``base``,
    or monomials of degree at most ``j * deg(base)`` in its variables."""
    t, d = len(base), max(base.total_degree(), 0)
    v = sum(map(any, zip(*(e for e, _ in base.items()))))
    return t * (1 + sum(min(comb(t + j - 1, j), comb(j * d + v, v))
                        for j in range(1, exponent)))


def parse_poly(
    text: str,
    nvars: Optional[int] = None,
    names: Optional[Sequence[str]] = None,
) -> Polynomial:
    """Parse an expression into a canonical :class:`Polynomial`.

    Exactly one of ``nvars`` (variables ``x1 .. x<nvars>``) or ``names``
    (explicit variable names, defining ``nvars`` by their count) selects the
    variable alphabet.  An explicit name must not be empty or start with what
    the tokenizer reads as something else: an ASCII digit, whitespace, or one
    of ``+-*/^()−``.  The fixed :data:`DEGREE_CAP` bounds the total degree
    of every power and product, checked from the degrees of the operands
    before the power or product is expanded, so a nested power such as
    ``(x1^64)^64`` or a product such as ``x1^40*x1^40`` is rejected without
    being built, as is an expression whose powers and products together
    would take over :data:`TERM_PRODUCT_BUDGET` term-by-term products to
    expand, such as ``(x1+x2+x3+x4)^48`` or a sum of four copies of
    ``(x1+x2+x3+x4)^16`` (see :class:`ExpansionBudget`).  The degree of a
    sum is that of its highest term, so sums need no degree check.
    """
    if names is None:
        if nvars is None:
            raise ValueError("parse_poly needs nvars or an explicit name list")
        names = [variable_name(i) for i in range(nvars)]
    else:
        names = list(names)
        if nvars is not None and nvars != len(names):
            raise ValueError("nvars disagrees with the number of names")
        if len(names) == 0:
            raise ValueError("the variable name list must not be empty")
        if len(set(names)) != len(names):
            raise ValueError("variable names must be unique")
        for name in names:
            if not name or name[0] in _DIGITS or name[0].isspace() or name[0] in _OPS + "−":
                raise ValueError(f"variable name {name!r} cannot be read: it is empty "
                                 "or starts with a digit, whitespace or an operator")
    text = text.replace("−", "-")
    parser = _Parser(_tokenize(text, names), len(names))
    result = parser.parse_expr()
    kind, _, pos = parser.peek()
    if kind != _END:
        raise PolyParseError("unexpected trailing input", pos)
    return result
