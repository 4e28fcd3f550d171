"""A small expression language for generating functions.

Grammar (whitespace-insensitive, no implicit multiplication)::

    expr     := '-' expr | sum
    sum      := term (('+' | '-') term)*
    term     := factor (('*' | '/') factor)*
    factor   := atom ['^' exponent]
    exponent := '-' exponent | INT ['^' exponent]
    atom     := INT | 'x' | 'sqrt' '(' expr ')' | 'c' '(' expr ')' | '(' expr ')'

A leading minus therefore negates the whole expression, and exponents are
integer literals (folded right-associatively at parse time, each within 64
bits).  ``c(e)`` is the Catalan generating function composed with ``e``,
which must have zero constant term.  Rational constants are written as
quotients of integers, e.g. ``3/4``.

Division is valuation-aware: a common power of x is cancelled between
numerator and denominator first, so quotients like ``(1-sqrt(1-4*x))/(2*x)``
evaluate to honest power series.  Operands are re-evaluated with extra
working precision when that happens, so the result is still exact at the
requested order.
"""

from __future__ import annotations

import contextlib
import operator
from fractions import Fraction
from typing import Union

from .errors import ExpressionEvalError, ExpressionSyntaxError, Record, RiordanError
from .series import _MAX_LITERAL_BITS, _MAX_LITERAL_DIGITS, TruncatedSeries, catalan_gf


# ---------------------------------------------------------------------------
# syntax tree
# ---------------------------------------------------------------------------

class _Node(Record):
    """A syntax-tree node; its last field, ``pos``, is the source offset and
    takes no part in equality, hash or repr."""

    __slots__ = ()

    @property
    def _compared(self) -> tuple[str, ...]:
        return self.__slots__[:-1]


class Lit(_Node):
    __slots__ = ("value", "pos")

    def __init__(self, value: Fraction, pos: int = 0):
        super().__init__(value, pos)


class Var(_Node):
    __slots__ = ("pos",)

    def __init__(self, pos: int = 0):
        super().__init__(pos)


class Neg(_Node):
    __slots__ = ("arg", "pos")

    def __init__(self, arg: GfExpression, pos: int = 0):
        super().__init__(arg, pos)


class Pow(_Node):
    __slots__ = ("base", "exponent", "pos")

    def __init__(self, base: GfExpression, exponent: int, pos: int = 0):
        super().__init__(base, exponent, pos)


class BinOp(_Node):
    __slots__ = ("op", "left", "right", "pos")  # op is one of "+", "-", "*", "/"

    def __init__(self, op: str, left: GfExpression, right: GfExpression, pos: int = 0):
        super().__init__(op, left, right, pos)


class Call(_Node):
    __slots__ = ("name", "arg", "pos")  # name is "sqrt" or "c"

    def __init__(self, name: str, arg: GfExpression, pos: int = 0):
        super().__init__(name, arg, pos)


GfExpression = Union[Lit, Var, Neg, Pow, BinOp, Call]


# ---------------------------------------------------------------------------
# lexer / parser
# ---------------------------------------------------------------------------

_SYMBOLS = set("+-*/^()")
_DIGITS = set("0123456789")

# binding levels, loosest first: the parser's _binary and the printer's
# _render both read them, so to_text's output re-parses to the same tree
_LEVEL_NEG = 0
_LEVEL_SUM = 1
_LEVEL_TERM = 2
_LEVEL_POW = 3
_LEVEL_ATOM = 4
_BINARY_LEVEL = {"+": _LEVEL_SUM, "-": _LEVEL_SUM, "*": _LEVEL_TERM, "/": _LEVEL_TERM}

# folded exponents must fit in this many bits, so towers such as 2^2^2^2^2^2
# fail before their value is computed
_EXPONENT_BITS = 64


class _Token(Record):
    __slots__ = ("kind", "text", "pos")  # kind is "int", "ident", a symbol or "end"

    def __init__(self, kind: str, text: str, pos: int):
        super().__init__(kind, text, pos)


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _DIGITS:
            j = i
            while j < len(text) and text[j] in _DIGITS:
                j += 1
            tokens.append(_Token("int", text[i:j], i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(_Token("ident", text[i:j], i))
            i = j
            continue
        if ch in _SYMBOLS:
            tokens.append(_Token(ch, ch, i))
            i += 1
            continue
        raise ExpressionSyntaxError(f"unexpected character {ch!r}", i)
    tokens.append(_Token("end", "", len(text)))
    return tokens


def _int_literal(tok: _Token) -> int:
    if len(tok.text) > _MAX_LITERAL_DIGITS:
        raise ExpressionSyntaxError(
            f"integer literal has more than {_MAX_LITERAL_DIGITS} digits", tok.pos
        )
    return int(tok.text)


def _too_wide(tok: _Token) -> ExpressionSyntaxError:
    return ExpressionSyntaxError(
        f"exponent does not fit in {_EXPONENT_BITS} bits", tok.pos
    )


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self._tokens = tokens
        self._i = 0

    @property
    def _tok(self) -> _Token:
        return self._tokens[self._i]

    def _advance(self) -> _Token:
        tok = self._tokens[self._i]
        self._i += 1
        return tok

    def _expect(self, kind: str, what: str) -> _Token:
        if self._tok.kind != kind:
            raise ExpressionSyntaxError(f"expected {what}", self._tok.pos)
        return self._advance()

    def parse(self) -> GfExpression:
        try:
            node = self._expr()
        except RecursionError:
            raise ExpressionSyntaxError(
                "expression nests too deeply", self._tok.pos
            ) from None
        if self._tok.kind != "end":
            raise ExpressionSyntaxError("unexpected trailing input", self._tok.pos)
        return node

    def _expr(self) -> GfExpression:
        if self._tok.kind == "-":
            minus = self._advance()
            return Neg(self._expr(), pos=minus.pos)
        return self._binary(_LEVEL_SUM)

    def _binary(self, level: int) -> GfExpression:
        # operators of one level associate to the left; each operand binds
        # tighter, and at _LEVEL_TERM it is a factor
        node = self._factor() if level == _LEVEL_TERM else self._binary(level + 1)
        while _BINARY_LEVEL.get(self._tok.kind) == level:
            op = self._advance()
            right = self._factor() if level == _LEVEL_TERM else self._binary(level + 1)
            node = BinOp(op.kind, node, right, pos=op.pos)
        return node

    def _factor(self) -> GfExpression:
        node = self._atom()
        if self._tok.kind == "^":
            caret = self._advance()
            return Pow(node, self._exponent(), pos=caret.pos)
        return node

    def _exponent(self) -> int:
        if self._tok.kind == "-":
            self._advance()
            return -self._exponent()
        tok = self._expect("int", "an integer exponent")
        value = _int_literal(tok)
        if self._tok.kind == "^":
            self._advance()
            rest = self._exponent()
            if rest < 0:
                raise ExpressionSyntaxError(
                    "nested exponent must be non-negative", tok.pos
                )
            if value > 1 and rest > _EXPONENT_BITS:
                raise _too_wide(tok)  # value**rest >= 2**rest; never computed
            value = value**rest
        if value.bit_length() > _EXPONENT_BITS:
            raise _too_wide(tok)
        return value

    def _atom(self) -> GfExpression:
        tok = self._tok
        if tok.kind == "int":
            self._advance()
            return Lit(Fraction(_int_literal(tok)), pos=tok.pos)
        if tok.kind == "ident":
            self._advance()
            if tok.text == "x":
                return Var(pos=tok.pos)
            if tok.text in ("sqrt", "c"):
                self._expect("(", f"'(' after {tok.text}")
                arg = self._expr()
                self._expect(")", "')'")
                return Call(tok.text, arg, pos=tok.pos)
            raise ExpressionSyntaxError(f"unknown identifier '{tok.text}'", tok.pos)
        if tok.kind == "(":
            self._advance()
            node = self._expr()
            self._expect(")", "')'")
            return node
        if tok.kind == "end":
            raise ExpressionSyntaxError("unexpected end of input", tok.pos)
        raise ExpressionSyntaxError(f"unexpected {tok.text!r}", tok.pos)


def parse(text: str) -> GfExpression:
    """Parse expression text into a syntax tree."""
    return _Parser(_tokenize(text)).parse()


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def evaluate(expr: GfExpression, order: int) -> TruncatedSeries:
    """Evaluate a syntax tree to an exact series at the given order."""
    if order < 0:
        raise ValueError("order must be non-negative")
    try:
        return _eval(expr, order, {})
    except RecursionError:
        raise ExpressionEvalError("expression nests too deeply", expr.pos) from None


def evaluate_text(text: str, order: int) -> TruncatedSeries:
    return evaluate(parse(text), order)


_ARITHMETIC = {"+": operator.add, "-": operator.sub, "*": operator.mul}


# ``memo`` maps (id(node), order) to the node's value at that order for one
# evaluation, so a subtree that a shifted division re-evaluates at a higher
# order is still computed once per order rather than once per path to it
def _eval(node: GfExpression, order: int, memo: dict) -> TruncatedSeries:
    key = (id(node), order)
    if key in memo:
        return memo[key]
    if isinstance(node, Lit):
        result = TruncatedSeries.constant(node.value, order)
    elif isinstance(node, Var):
        result = TruncatedSeries.x(order)
    elif isinstance(node, Neg):
        result = -_eval(node.arg, order, memo)
    elif isinstance(node, Pow):
        base = _eval(node.base, order, memo)
        c = base.constant_term
        # c^e has a numerator or denominator of at least 2^((bits - 1) |e|);
        # for c other than 0 and +-1 that can outgrow memory before it is
        # computed
        bits = max(c.numerator.bit_length(), c.denominator.bit_length())
        if (bits - 1) * abs(node.exponent) > _MAX_LITERAL_BITS:
            raise ExpressionEvalError(
                f"constant term {c} to the power {node.exponent} has more "
                f"than {_MAX_LITERAL_DIGITS} digits",
                node.pos,
            )
        with _positioned(node.pos):
            result = base**node.exponent
    elif isinstance(node, BinOp):
        if node.op == "/":
            result = _eval_div(node, order, memo)
        else:
            result = _ARITHMETIC[node.op](
                _eval(node.left, order, memo), _eval(node.right, order, memo)
            )
    elif isinstance(node, Call):
        arg = _eval(node.arg, order, memo)
        with _positioned(node.pos):
            if node.name == "sqrt":
                result = arg.sqrt()
            else:
                result = catalan_gf(order).compose(arg)
    else:
        raise TypeError(f"not a GfExpression node: {node!r}")
    memo[key] = result
    return result


def _eval_div(node: BinOp, order: int, memo: dict) -> TruncatedSeries:
    den = _eval(node.right, order, memo)
    if den.is_zero():
        raise ExpressionEvalError(
            f"division by a series that is zero up to the working order x^{order}; "
            "its leading term, if any, lies beyond it",
            node.pos,
        )
    shift = den.valuation()
    # cancel x^shift from both sides at order + shift, so the result is exact
    # at the requested order; at shift 0 both operands come from the memo
    num = _eval(node.left, order + shift, memo)
    den = _eval(node.right, order + shift, memo)
    for i in range(shift):
        if num.coefficient(i):
            raise ExpressionEvalError(
                f"numerator must be divisible by x^{shift} to match the "
                "denominator's leading power of x",
                node.pos,
            )
    return num.shift_down(shift) / den.shift_down(shift)


@contextlib.contextmanager
def _positioned(pos: int):
    """Re-raise kernel series errors as expression errors with an offset."""
    try:
        yield
    except RiordanError as exc:
        raise ExpressionEvalError(str(exc), pos) from exc


# ---------------------------------------------------------------------------
# printing
# ---------------------------------------------------------------------------

def to_text(expr: GfExpression) -> str:
    """Render a tree back to source text; ``parse(to_text(e))`` is
    structurally equal to ``e`` for any parser-produced tree."""
    return _fmt(expr, _LEVEL_NEG)


def _fmt(node: GfExpression, min_level: int) -> str:
    text, level = _render(node)
    if level < min_level:
        return f"({text})"
    return text


def _render(node: GfExpression) -> tuple[str, int]:
    if isinstance(node, Lit):
        if node.value.denominator == 1 and node.value >= 0:
            return str(node.value.numerator), _LEVEL_ATOM
        return str(node.value), _LEVEL_NEG  # signed/fractional: always parenthesized
    if isinstance(node, Var):
        return "x", _LEVEL_ATOM
    if isinstance(node, Neg):
        return "-" + _fmt(node.arg, _LEVEL_NEG), _LEVEL_NEG
    if isinstance(node, Pow):
        return _fmt(node.base, _LEVEL_ATOM) + "^" + str(node.exponent), _LEVEL_POW
    if isinstance(node, BinOp):
        # operators of one level associate to the left, so a right operand
        # at that same level needs parentheses
        level = _BINARY_LEVEL[node.op]
        return _fmt(node.left, level) + node.op + _fmt(node.right, level + 1), level
    if isinstance(node, Call):
        return node.name + "(" + _fmt(node.arg, _LEVEL_NEG) + ")", _LEVEL_ATOM
    raise TypeError(f"not a GfExpression node: {node!r}")
