r"""A small expression language for generating functions.

Tokens are ASCII: at each offset the lexer matches whitespace (any that
``str.isspace`` accepts), an integer, an identifier or a symbol, as one pattern,
``(\s+)|([0-9]+)|([A-Za-z_][A-Za-z0-9_]*)|([-+*/^()])``; any other character
is an error at its own offset.

Grammar (whitespace-insensitive, no implicit multiplication)::

    expr     := '-' expr | sum
    sum      := term (('+' | '-') term)*
    term     := factor (('*' | '/') factor)*
    factor   := atom ['^' exponent]
    exponent := '-' exponent | INT ['^' exponent]
    atom     := INT | 'x' | 'sqrt' '(' expr ')' | 'c' '(' expr ')' | '(' expr ')'

A leading minus therefore negates the whole expression, and exponents are
integer literals, folded right-associatively at parse time; each step of a
tower is bounded, like every result, by the kernel's coefficient budget, and
one past it is refused at its own offset before it is computed.  ``c(e)`` is
the Catalan generating function composed with ``e``, which must have zero
constant term.  Rational constants are written as quotients of integers,
e.g. ``3/4``.

Division is valuation-aware: a common power of x is cancelled between
numerator and denominator first, so quotients like ``(1-sqrt(1-4*x))/(2*x)``
evaluate to honest power series.  Operands are re-evaluated with extra
working precision when that happens, so the result is still exact at the
requested order; a division that would raise the working order more than
``series._MAX_ORDER`` past the requested order is an error.
"""

from __future__ import annotations

import contextlib
import operator
import re
from fractions import Fraction

from .errors import ExpressionEvalError, ExpressionSyntaxError, Record, RiordanError, shown
from .series import _MAX_ORDER, TruncatedSeries, _checked_power, _read_integer, catalan_gf


# ---------------------------------------------------------------------------
# syntax tree
# ---------------------------------------------------------------------------

class _Node(Record):
    """A syntax-tree node; its last field, ``pos``, is the source offset,
    0 unless given, and takes no part in equality, hash or repr."""

    __slots__ = ()

    _defaults = {"pos": 0}

    @property
    def _compared(self) -> tuple[str, ...]:
        return self._fields[:-1]


class Lit(_Node):
    __slots__ = ("value", "pos")


class Var(_Node):
    __slots__ = ("pos",)


class Neg(_Node):
    __slots__ = ("arg", "pos")


class Pow(_Node):
    __slots__ = ("base", "exponent", "pos")


class BinOp(_Node):
    __slots__ = ("op", "left", "right", "pos")  # op is one of "+", "-", "*", "/"


class Call(_Node):
    __slots__ = ("name", "arg", "pos")  # name is "sqrt" or "c"


GfExpression = Lit | Var | Neg | Pow | BinOp | Call


# ---------------------------------------------------------------------------
# lexer / parser
# ---------------------------------------------------------------------------

# one token, or a run of whitespace, at each offset; a symbol's kind is its text
_TOKEN = re.compile(r"(\s+)|([0-9]+)|([A-Za-z_][A-Za-z0-9_]*)|([-+*/^()])")
_KINDS = {2: "int", 3: "ident"}


class _Token(Record):
    __slots__ = ("kind", "text", "pos")  # kind is "int", "ident", a symbol or "end"


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    i = 0
    while i < len(text):
        if (m := _TOKEN.match(text, i)) is None:
            raise ExpressionSyntaxError(f"unexpected character {text[i]!r}", i)
        if m.lastindex > 1:  # not whitespace
            tokens.append(_Token(_KINDS.get(m.lastindex, m[0]), m[0], i))
        i = m.end()
    tokens.append(_Token("end", "", len(text)))
    return tokens


def _int_literal(tok: _Token) -> int:
    try:
        return _read_integer(tok.text, "integer literal")
    except RiordanError as err:
        raise ExpressionSyntaxError(str(err), tok.pos) from err


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
        return self._sum()

    # the operators of a sum, and of a term, associate to the left
    def _sum(self) -> GfExpression:
        node = self._term()
        while self._tok.kind in ("+", "-"):
            op = self._advance()
            node = BinOp(op.kind, node, self._term(), pos=op.pos)
        return node

    def _term(self) -> GfExpression:
        node = self._factor()
        while self._tok.kind in ("*", "/"):
            op = self._advance()
            node = BinOp(op.kind, node, self._factor(), pos=op.pos)
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
        if self._tok.kind != "^":
            return value
        self._advance()
        rest = self._exponent()
        if rest < 0:
            raise ExpressionSyntaxError("nested exponent must be non-negative", tok.pos)
        try:  # a step past the coefficient budget is refused before it is computed
            return _checked_power(value, rest)
        except RiordanError as exc:
            raise ExpressionSyntaxError(str(exc), tok.pos) from exc

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
            raise ExpressionSyntaxError(f"unknown identifier {shown(tok.text, repr)}", tok.pos)
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
    try:
        return _eval(expr, order, {}, order + _MAX_ORDER)
    except RecursionError:
        raise ExpressionEvalError("expression nests too deeply", expr.pos) from None


def evaluate_text(text: str, order: int) -> TruncatedSeries:
    return evaluate(parse(text), order)


_ARITHMETIC = {"+": operator.add, "-": operator.sub, "*": operator.mul}


# ``memo`` maps (id(node), order) to the node's value at that order for one
# evaluation, so a subtree that a shifted division re-evaluates at a higher
# order is still computed once per order rather than once per path to it;
# ``ceiling`` is the highest working order a shifted division may ask for
def _eval(node: GfExpression, order: int, memo: dict, ceiling: int) -> TruncatedSeries:
    key = (id(node), order)
    if key in memo:
        return memo[key]
    if isinstance(node, Lit):
        result = TruncatedSeries([node.value], order)
    elif isinstance(node, Var):
        result = TruncatedSeries([0, 1], order)
    elif isinstance(node, Neg):
        result = -_eval(node.arg, order, memo, ceiling)
    elif isinstance(node, Pow):
        base = _eval(node.base, order, memo, ceiling)
        with _positioned(node.pos):  # the kernel refuses a power past its budget
            result = base**node.exponent
    elif isinstance(node, BinOp):
        if node.op == "/":
            result = _eval_div(node, order, memo, ceiling)
        else:
            result = _ARITHMETIC[node.op](
                _eval(node.left, order, memo, ceiling), _eval(node.right, order, memo, ceiling)
            )
    elif isinstance(node, Call):
        arg = _eval(node.arg, order, memo, ceiling)
        with _positioned(node.pos):
            if node.name == "sqrt":
                result = arg.sqrt()
            else:
                result = catalan_gf(order).compose(arg)
    else:
        raise TypeError(f"not a GfExpression node: {node!r}")
    memo[key] = result
    return result


def _eval_div(node: BinOp, order: int, memo: dict, ceiling: int) -> TruncatedSeries:
    den = _eval(node.right, order, memo, ceiling)
    if den.is_zero():
        raise ExpressionEvalError(
            f"division by a series that is zero up to the working order x^{order}; "
            "its leading term, if any, lies beyond it",
            node.pos,
        )
    shift = den.valuation()
    if order + shift > ceiling:  # each nested level could almost double it
        raise ExpressionEvalError(
            f"dividing by x^{shift} needs working order {order + shift}, more "
            f"than {_MAX_ORDER} past the order asked for",
            node.pos,
        )
    # cancel x^shift from both sides at order + shift, so the result is exact
    # at the requested order; at shift 0 both operands come from the memo
    num = _eval(node.left, order + shift, memo, ceiling)
    den = _eval(node.right, order + shift, memo, ceiling)
    with _positioned(node.pos):  # the numerator's low terms must vanish too
        num = num.shift_down(shift)
    return num / den.shift_down(shift)


@contextlib.contextmanager
def _positioned(pos: int):
    """Re-raise kernel series errors as expression errors with an offset."""
    try:
        yield
    except RiordanError as exc:
        raise ExpressionEvalError(str(exc), pos) from exc

