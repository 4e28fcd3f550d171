import math
import random
from fractions import Fraction as F

import pytest

from helpers import binomial_series, catalan_number, poly_mul
from riordan import (
    ExpressionEvalError,
    ExpressionSyntaxError,
    TruncatedSeries,
    catalan_gf,
    evaluate,
    evaluate_text,
    gfexpr,
    parse,
)
from riordan.gfexpr import BinOp, Call, Lit, Neg, Pow, Var


class TestParse:
    def test_geometric_structure(self):
        assert parse("1/(1-x)") == BinOp("/", Lit(F(1)), BinOp("-", Lit(F(1)), Var()))

    def test_a085478_f_structure(self):
        assert parse("x/(1-x)^2") == BinOp(
            "/", Var(), Pow(BinOp("-", Lit(F(1)), Var()), 2)
        )

    def test_rational_literal_is_division(self):
        assert parse("3/4") == BinOp("/", Lit(F(3)), Lit(F(4)))

    def test_functions_and_negation(self):
        assert parse("1-c(-x)") == BinOp("-", Lit(F(1)), Call("c", Neg(Var())))
        assert parse("sqrt(1+4*x)") == Call(
            "sqrt", BinOp("+", Lit(F(1)), BinOp("*", Lit(F(4)), Var()))
        )

    @pytest.mark.parametrize(
        "text, tree",
        [
            # operators of one level associate to the left
            ("1-x-x", BinOp("-", BinOp("-", Lit(F(1)), Var()), Var())),
            ("1/x/x", BinOp("/", BinOp("/", Lit(F(1)), Var()), Var())),
            # a product binds tighter than a sum, unless parenthesized
            ("1+x*x", BinOp("+", Lit(F(1)), BinOp("*", Var(), Var()))),
            ("(1+x)*x", BinOp("*", BinOp("+", Lit(F(1)), Var()), Var())),
            # a power binds tighter than a leading minus
            ("-x^2", Neg(Pow(Var(), 2))),
            ("(1-x)^-2", Pow(BinOp("-", Lit(F(1)), Var()), -2)),
        ],
    )
    def test_minimal_parentheses(self, text, tree):
        assert parse(text) == tree

    def test_leading_minus_negates_everything(self):
        assert parse("-x+1") == Neg(BinOp("+", Var(), Lit(F(1))))

    def test_power_right_associative_fold(self):
        assert parse("x^2^3") == Pow(Var(), 8)
        assert parse("x^-2") == Pow(Var(), -2)
        assert parse("x^2^63") == Pow(Var(), 2**63)
        assert parse("x^18446744073709551615") == Pow(Var(), 2**64 - 1)
        assert parse("x^1^100000") == Pow(Var(), 1)
        # a tower inside the coefficient budget folds, however wide
        assert parse("x^2^64") == Pow(Var(), 2**64)
        assert parse("x^2^57000") == Pow(Var(), 2**57000)

    def test_unbalanced_paren_position(self):
        with pytest.raises(ExpressionSyntaxError) as err:
            parse("1/(1-x")
        assert err.value.position == 6

    def test_implicit_multiplication_rejected(self):
        with pytest.raises(ExpressionSyntaxError) as err:
            parse("2x")
        assert err.value.position == 1

    def test_unknown_identifier(self):
        with pytest.raises(ExpressionSyntaxError) as err:
            parse("1 + y")
        assert err.value.position == 4

    @pytest.mark.parametrize(
        "text, tokens",
        [
            (
                "12*x_1+sqrt(c(x))^-3",
                [("int", "12", 0), ("*", "*", 2), ("ident", "x_1", 3), ("+", "+", 6),
                 ("ident", "sqrt", 7), ("(", "(", 11), ("ident", "c", 12), ("(", "(", 13),
                 ("ident", "x", 14), (")", ")", 15), (")", ")", 16), ("^", "^", 17),
                 ("-", "-", 18), ("int", "3", 19)],
            ),
            # a tab and a no-break space separate tokens as a space does
            ("\t2 /\u00a0_y9\u00a0", [("int", "2", 1), ("/", "/", 3), ("ident", "_y9", 5)]),
            ("", []),
        ],
    )
    def test_tokens(self, text, tokens):
        got = [(t.kind, t.text, t.pos) for t in gfexpr._tokenize(text)]
        assert got == [*tokens, ("end", "", len(text))]

    def test_unknown_character(self):
        with pytest.raises(ExpressionSyntaxError) as err:
            parse("1 ? 2")
        assert err.value.position == 2
        # a superscript two is a digit to str.isdigit, but not to int()
        with pytest.raises(ExpressionSyntaxError) as err:
            parse("1+\u00b2")
        assert err.value.position == 2

    def test_fractional_exponent_rejected(self):
        with pytest.raises(ExpressionSyntaxError):
            parse("x^x")

    def test_overlong_integer_literal_rejected_at_its_offset(self):
        big = "9" * 5000
        with pytest.raises(ExpressionSyntaxError) as err:
            parse(f"1+{big}*x")
        assert err.value.position == 2
        with pytest.raises(ExpressionSyntaxError) as err:
            parse(f"x^{big}")
        assert err.value.position == 2

    def test_exponent_tower_rejected_before_folding(self):
        # each step of a tower meets the kernel's coefficient budget, and one
        # past it is refused at its base's offset before it is computed:
        # 2^2^2^2^2^2 is 2^(2^65536), stopped at the second 2; 9^9^9 is
        # 9^387420489, stopped at the first 9
        budget = (
            "a coefficient needs more than 57140 bits (about 17200 digits), "
            "the most a result may hold"
        )
        for text, pos in (("x^2^2^2^2^2^2", 4), ("x^9^9^9", 2)):
            with pytest.raises(ExpressionSyntaxError) as err:
                parse(text)
            assert err.value.position == pos
            assert str(err.value) == f"{budget} (at offset {pos})"
        # a literal of any width the grammar reads is an exponent, and so is
        # a folded tower inside the budget
        assert parse("x^-18446744073709551616") == Pow(Var(), -(2**64))
        assert parse("x^-2^64") == Pow(Var(), -(2**64))


class TestEvaluate:
    def test_geometric(self):
        s = evaluate_text("1/(1-x)", 4)
        assert s.coefficients == (1, 1, 1, 1, 1)

    def test_catalan_call(self):
        s = evaluate_text("c(x)", 6)
        assert s.coefficients == (1, 1, 2, 5, 14, 42, 132)

    def test_one_plus_x_times_sqrt(self):
        # oracle: (1+x) * (1+4x)^(1/2) by the generalized binomial expansion
        got = evaluate_text("(1+x)*sqrt(1+4*x)", 6)
        expected = poly_mul([F(1), F(1)], binomial_series(F(1, 2), 4, 6), 6)
        assert list(got.coefficients) == expected
        assert got.coefficients[:4] == (1, 3, 0, 2)

    def test_rational_constant(self):
        assert evaluate_text("3/4", 2).coefficients == (F(3, 4), 0, 0)

    def test_x_valuation_cancellation(self):
        got = evaluate_text("(1-sqrt(1-4*x))/(2*x)", 10)
        assert got.order == 10
        assert got == catalan_gf(10)

    def test_power_valuation_cancellation(self):
        assert evaluate_text("x^2/x", 5).coefficients == (0, 1, 0, 0, 0, 0)

    def test_numerator_valuation_too_small(self):
        with pytest.raises(ExpressionEvalError):
            evaluate_text("1/x", 5)
        with pytest.raises(ExpressionEvalError):
            evaluate_text("x/x^2", 5)

    def test_shifted_numerator_that_does_not_vanish_is_refused_at_the_division(self):
        # the kernel's shift_down refuses it, with the division's offset
        for text, message in (
            ("(1-x^3)/x^2", "cannot divide by x^2: coefficient 0 is nonzero (at offset 7)"),
            ("x/x^2", "cannot divide by x^2: coefficient 1 is nonzero (at offset 1)"),
        ):
            with pytest.raises(ExpressionEvalError) as err:
                evaluate_text(text, 5)
            assert str(err.value) == message

    @pytest.mark.parametrize("text", ["1", "x", "c(x)", "sqrt(1+x)", "(1-x^3)/x^2", "-x^2"])
    def test_negative_order_is_refused_by_the_first_leaf(self, text):
        with pytest.raises(ValueError, match="^order must be non-negative$"):
            evaluate_text(text, -1)

    def test_division_by_zero_series(self):
        with pytest.raises(ExpressionEvalError):
            evaluate_text("1/(x-x)", 5)

    def test_catalan_call_needs_zero_constant(self):
        with pytest.raises(ExpressionEvalError) as err:
            evaluate_text("c(1+x)", 5)
        assert err.value.position == 0

    def test_sqrt_domain_error_carries_position(self):
        with pytest.raises(ExpressionEvalError) as err:
            evaluate_text("1+sqrt(x)", 5)
        assert err.value.position == 2

    def test_negative_power_of_nonunit(self):
        for text in ("(2*x)^-1", "x^-2^64"):
            with pytest.raises(ExpressionEvalError, match="negative power requires"):
                evaluate_text(text, 5)

    def test_nested_shifted_division_evaluates_each_order_once(self, monkeypatch):
        # every level of x/(x*(...)) re-evaluates its subtree one order
        # higher; evaluated once per (node, order), the division count grows
        # as levels^2 / 2 instead of 2^levels
        levels = 40
        text = "x/(x*(" * levels + "1" + "))" * levels
        divide = TruncatedSeries.__truediv__
        calls = 0

        def counted(a, b):
            nonlocal calls
            calls += 1
            if calls > levels**2:
                raise AssertionError(f"more than {levels**2} series divisions")
            return divide(a, b)

        monkeypatch.setattr(TruncatedSeries, "__truediv__", counted)
        assert evaluate_text(text, 3) == TruncatedSeries([1], 3)

    def test_shifted_division_may_raise_the_order_by_the_ceiling(self):
        # the working order may climb series._MAX_ORDER (1000) past the order
        # asked for and no further; the division that would pass it is at fault
        assert evaluate_text("x^1000/x^1000", 1000) == TruncatedSeries([1], 1000)
        assert evaluate_text("(1-sqrt(1-4*x))/(2*x)", 1000) == catalan_gf(1000)
        with pytest.raises(ExpressionEvalError) as err:
            evaluate_text("x^1001/x/x^1000", 1000)
        assert err.value.position == 6
        assert str(err.value) == (
            "dividing by x^1 needs working order 2001, more than 1000 past the "
            "order asked for (at offset 6)"
        )

    def test_constant_base_power_bounded_by_the_coefficient_budget(self):
        # a power is bounded like every result, by the kernel's 57140-bit
        # budget, and an over-wide constant term is refused before it is
        # computed: 2^57139 has 57140 bits and passes, 2^57140 does not
        assert evaluate_text("2^57139", 1).constant_term == 2**57139
        assert evaluate_text("1+(2+x)^14286", 1).constant_term == 1 + 2**14286
        budget = (
            "a coefficient needs more than 57140 bits (about 17200 digits), "
            "the most a result may hold"
        )
        for text, pos in (
            ("2^57140", 1),
            ("(1/2)^100000", 5),
            ("(3*x-7)^-4611686018427387904", 7),
            ("(10^4000*10^4000*10^4000)^2", 25),
            # C(2^57000, 2) has about 114000 bits
            ("(1+x)^2^57000", 5),
        ):
            with pytest.raises(ExpressionEvalError) as err:
                evaluate_text(text, 3)
            assert err.value.position == pos
            assert str(err.value) == f"{budget} (at offset {pos})"
        # a power of a constant is the product it abbreviates
        assert evaluate_text("(10^4000)^2", 3) == evaluate_text("10^4000*10^4000", 3)
        assert evaluate_text("(10^4000*10^4000)^2", 0).constant_term == 10**16000
        wide = 2**63 - 1
        got = evaluate_text(f"(1+x)^{wide}", 2)
        assert got.coefficients == (1, wide, wide * (wide - 1) // 2)
        for text in (f"(-1)^{wide}", f"x^{wide}", f"(1-x)^-{wide}"):
            evaluate_text(text, 4)
        # a folded tower is an exponent like any other
        wide = 2**100
        got = evaluate_text("(1+x)^2^100", 4)
        assert got.coefficients == tuple(math.comb(wide, k) for k in range(5))
        assert evaluate_text("1+x^2^57000", 4) == TruncatedSeries([1], 4)

    def test_catalan_of_negated_argument(self):
        got = evaluate_text("c(-x)", 8)
        for n in range(9):
            assert got.coefficient(n) == F((-1) ** n * catalan_number(n))


CORPUS = [
    "1/(1-x)",
    "x/(1-x)^2",
    "x/(1-x)",
    "(1-sqrt(1-4*x))/(2*x)",
    "1-c(-x)",
    "x*c(-x)^2",
    "(1+x)*sqrt(1+4*x)",
    "((1+x)*sqrt(1+4*x)-1-3*x)/(2*x^3)",
    "(1+4*x+2*x^2-(1+2*x)*sqrt(1+4*x))/(2*x^3)",
    "c(x)",
    "x*c(x)",
    "(1-x)^2",
    "x*(1-x)^2",
    "1/c(x)",
    "x/c(x)",
    "1/(1-2*x)",
    "1/(1+x)^8",
    "x/(1+x)^8",
    "c(2*x)^2",
    "-x+3/4",
]


def _fully_parenthesized(node):
    """Source text for a tree with every compound operand in parentheses, so
    that no precedence rule decides how it parses."""
    def operand(arg):
        text = _fully_parenthesized(arg)
        return text if isinstance(arg, (Lit, Var)) else f"({text})"

    if isinstance(node, Lit):
        return str(node.value)  # a non-negative integer
    if isinstance(node, Var):
        return "x"
    if isinstance(node, Neg):
        return "-" + operand(node.arg)
    if isinstance(node, Pow):
        return f"{operand(node.base)}^{node.exponent}"
    if isinstance(node, BinOp):
        return operand(node.left) + node.op + operand(node.right)
    return f"{node.name}({_fully_parenthesized(node.arg)})"


class TestPrinting:
    def test_random_tree_roundtrip(self):
        rng = random.Random(13)

        def tree(depth):
            if depth == 0:
                return rng.choice([Lit(F(rng.randint(0, 9))), Var()])
            kind = rng.randrange(8)
            if kind < 4:
                return BinOp("+-*/"[kind], tree(depth - 1), tree(depth - 1))
            if kind == 4:
                return Pow(tree(depth - 1), rng.randint(-3, 5))
            if kind < 7:
                return Call(("sqrt", "c")[kind - 5], tree(depth - 1))
            return Neg(tree(depth - 1))

        for _ in range(200):
            node = tree(rng.randint(1, 4))
            assert parse(_fully_parenthesized(node)) == node


class TestOrderConsistency:
    @pytest.mark.parametrize("text", CORPUS)
    def test_truncation_commutes(self, text):
        full = evaluate(parse(text), 9)
        small = evaluate(parse(text), 5)
        assert full.truncate(5).coefficients == small.coefficients
