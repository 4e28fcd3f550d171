"""Value semantics of the package's small immutable classes: the syntax-tree
nodes and tokens of ``gfexpr``, ``SequenceMatch``, ``PolynomialRow`` and
``VerificationReport``.  Reprs are recorded as literals."""

import copy
import pickle
from fractions import Fraction as F

import pytest

from riordan import (
    OeisIndex,
    PolynomialRow,
    SequenceMatch,
    VerificationReport,
    parse,
    pascal,
    verify_nth_conjecture,
)
from riordan.gfexpr import BinOp, Call, Lit, Neg, Pow, Var, _Token, _tokenize

NODES = [
    (Lit(F(3)), Lit(F(3), pos=7), Lit(F(4))),
    (Var(), Var(pos=2), Lit(F(0))),
    (Neg(Var()), Neg(Var(pos=1), pos=4), Neg(Lit(F(1)))),
    (Pow(Var(), 2), Pow(Var(), 2, pos=3), Pow(Var(), 3)),
    (
        BinOp("+", Var(), Lit(F(1))),
        BinOp("+", Var(1), Lit(F(1), 3), pos=2),
        BinOp("-", Var(), Lit(F(1))),
    ),
    (Call("sqrt", Var()), Call("sqrt", Var(), pos=9), Call("c", Var())),
]


class TestNodes:
    @pytest.mark.parametrize("node, moved, other", NODES)
    def test_equality_and_hash_ignore_pos(self, node, moved, other):
        assert node == moved and hash(node) == hash(moved)
        assert node != other
        assert len({node, moved, other}) == 2

    def test_parsed_trees_compare_by_structure(self):
        assert parse("(1+x)^2") == parse("( 1 + x ) ^ 2")
        assert parse("1-x") != parse("1+x")
        assert parse("x") != "x"

    @pytest.mark.parametrize("node", [row[1] for row in NODES])
    def test_fields_cannot_be_assigned(self, node):
        with pytest.raises(AttributeError):
            node.pos = 0
        with pytest.raises(AttributeError):
            del node.pos

    def test_positional_and_keyword_construction(self):
        node = BinOp(op="*", left=Var(), right=Lit(value=F(2)), pos=5)
        assert (node.op, node.left, node.right, node.pos) == ("*", Var(), Lit(F(2)), 5)
        assert Lit(F(2)).pos == 0 and Var().pos == 0
        with pytest.raises(TypeError):
            Pow(Var())

    def test_repr_leaves_out_pos(self):
        assert repr(parse("-(1+x)^2/sqrt(c(x)) - 3*x")) == (
            "Neg(arg=BinOp(op='-', left=BinOp(op='/', left=Pow(base=BinOp(op='+', "
            "left=Lit(value=Fraction(1, 1)), right=Var()), exponent=2), "
            "right=Call(name='sqrt', arg=Call(name='c', arg=Var()))), "
            "right=BinOp(op='*', left=Lit(value=Fraction(3, 1)), right=Var())))"
        )

    def test_copy_and_pickle_keep_the_tree(self):
        tree = parse("sqrt(1-4*x)/(2*x)^-1")
        assert copy.deepcopy(tree) == tree
        assert pickle.loads(pickle.dumps(tree)) == tree


class TestToken:
    def test_fields_repr_and_equality(self):
        tokens = _tokenize("x+1")
        assert repr(tokens) == (
            "[_Token(kind='ident', text='x', pos=0), _Token(kind='+', text='+', pos=1), "
            "_Token(kind='int', text='1', pos=2), _Token(kind='end', text='', pos=3)]"
        )
        # a token's position is one of its compared fields
        assert tokens[0] == _Token("ident", "x", 0) != _Token("ident", "x", 1)
        with pytest.raises(AttributeError):
            tokens[0].text = "y"


class TestSequenceMatch:
    def test_equality_hash_and_repr(self):
        match = SequenceMatch("A000108", 1)
        assert match == SequenceMatch(anumber="A000108", offset=1)
        assert match != SequenceMatch("A000108", 0)
        assert match != ("A000108", 1)
        assert len({match, SequenceMatch("A000108", 1)}) == 1
        assert repr(match) == "SequenceMatch(anumber='A000108', offset=1)"
        with pytest.raises(AttributeError):
            match.offset = 0

    def test_matches_sort_by_offset_then_anumber(self):
        index = OeisIndex(
            {
                "A000003": [9, 1, 1, 2, 5, 14, 42],
                "A000002": [1, 1, 2, 5, 14, 42],
                "A000001": [8, 1, 1, 2, 5, 14, 42],
                "A000004": [7, 7, 7, 1],
            }
        )
        assert index.identify_sequence([1, 1, 2, 5, 14, 42]) == [
            SequenceMatch("A000002", 0),
            SequenceMatch("A000001", 1),
            SequenceMatch("A000003", 1),
        ]


class TestPolynomialRow:
    def test_degree_equality_and_repr(self):
        row = PolynomialRow((F(1), F(-2), F(1)))
        assert row.degree == 2 and PolynomialRow((F(5),)).degree == 0
        assert row == PolynomialRow(coeffs=(F(1), F(-2), F(1)))
        assert hash(row) == hash(PolynomialRow((F(1), F(-2), F(1))))
        assert row != PolynomialRow((F(1), F(-2)))
        assert repr(row) == (
            "PolynomialRow(coeffs=(Fraction(1, 1), Fraction(-2, 1), Fraction(1, 1)))"
        )
        with pytest.raises(AttributeError):
            row.coeffs = ()


class TestVerificationReport:
    def test_compares_by_identity(self):
        first = verify_nth_conjecture(pascal(3), 2, 2)
        second = verify_nth_conjecture(pascal(3), 2, 2)
        assert first == first and first != second
        assert len({first, second}) == 2
        with pytest.raises(AttributeError):
            first.equal = False

    def test_fields_default_and_repr(self):
        report = verify_nth_conjecture(pascal(3), 2, 2)
        assert repr(report) == (
            "VerificationReport(element=RiordanElement(g=TruncatedSeries([1, 1, 1, 1], "
            "order=3), f=TruncatedSeries([0, 1, 1, 1], order=3)), n=2, size=2, "
            "produced=TriMatrix(size=2), closed_form=TriMatrix(size=2), equal=True, "
            "first_mismatch=None, scale=Fraction(1, 1))"
        )
        fields = dict(
            element=report.element,
            n=2,
            size=2,
            produced=report.produced,
            closed_form=report.closed_form,
            equal=True,
            first_mismatch=None,
        )
        assert VerificationReport(**fields).scale == 1
        assert VerificationReport(*fields.values(), F(1, 2)).scale == F(1, 2)
