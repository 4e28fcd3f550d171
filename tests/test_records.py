"""Value semantics of the package's immutable classes, every one a
``Record``: ``TruncatedSeries``, ``RiordanElement``, the exact matrices
``TriMatrix`` and ``ProductionMatrix``, the syntax-tree nodes and tokens of
``gfexpr``, ``SequenceMatch`` and ``VerificationReport``.  Reprs are recorded
as literals."""

import copy
import importlib
import pickle
import pkgutil
from fractions import Fraction as F

import pytest

import riordan
from riordan import (
    OeisIndex,
    RiordanElement,
    SequenceMatch,
    TruncatedSeries,
    VerificationReport,
    catalan_array,
    nth_az,
    parse,
    pascal,
    production_matrix,
    verify_nth_conjecture,
)
from riordan.errors import Record
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


REPORT = verify_nth_conjecture(pascal(3), 2, 2)
CATALAN = catalan_array(4)
# each record class with a value for every field, in field order, and the
# fields it may leave out with their defaults
RECORDS = [
    (Lit, dict(value=F(3), pos=7), dict(pos=0)),
    (Var, dict(pos=2), dict(pos=0)),
    (Neg, dict(arg=Var(), pos=4), dict(pos=0)),
    (Pow, dict(base=Var(), exponent=2, pos=3), dict(pos=0)),
    (BinOp, dict(op="*", left=Var(), right=Lit(F(2)), pos=5), dict(pos=0)),
    (Call, dict(name="sqrt", arg=Var(), pos=9), dict(pos=0)),
    (_Token, dict(kind="ident", text="x", pos=1), {}),
    (SequenceMatch, dict(anumber="A000108", offset=1), {}),
    (
        VerificationReport,
        dict(
            element=REPORT.element, n=2, size=2, produced=REPORT.produced,
            closed_form=REPORT.closed_form, equal=True, first_mismatch=None, scale=F(1, 2),
        ),
        dict(scale=1),
    ),
    (RiordanElement, dict(g=CATALAN.g, f=CATALAN.f), {}),
]


class TestRecord:
    @pytest.mark.parametrize(
        "cls, fields, defaults", RECORDS, ids=[cls.__name__ for cls, _, _ in RECORDS]
    )
    def test_positional_and_keyword_construction(self, cls, fields, defaults):
        # fields bind by name, positionally or by keyword, and only the
        # fields with a default may be left out
        names, values = list(fields), list(fields.values())
        rest = dict(zip(names[1:], values[1:]))
        for record in (cls(*values), cls(**fields), cls(values[0], **rest)):
            assert [getattr(record, name) for name in names] == values
        kept = {name: value for name, value in fields.items() if name not in defaults}
        record = cls(**kept)
        assert {name: getattr(record, name) for name in defaults} == defaults
        required = [name for name in names if name not in defaults]
        if required:
            # the first required field left out by keyword, the last by a
            # short positional call (for Pow, ``Pow(Var())``)
            with pytest.raises(TypeError):
                cls(**{name: value for name, value in fields.items() if name != required[0]})
            with pytest.raises(TypeError):
                cls(*values[: names.index(required[-1])])
        with pytest.raises(TypeError):
            cls(*values, None)
        with pytest.raises(TypeError):
            cls(values[0], **fields)
        with pytest.raises(TypeError):
            cls(**fields, unknown=None)


MATRICES = [catalan_array(5).matrix(5), production_matrix(catalan_array(6), 5)]


@pytest.mark.parametrize("matrix", MATRICES, ids=["TriMatrix", "ProductionMatrix"])
class TestMatrices:
    def test_copy_and_pickle_give_an_equal_matrix(self, matrix):
        for copied in (pickle.loads(pickle.dumps(matrix)), copy.deepcopy(matrix)):
            assert type(copied) is type(matrix) and copied == matrix
            assert hash(copied) == hash(matrix)
        assert hash(type(matrix)(matrix.rows)) == hash(matrix)

    def test_rows_cannot_be_assigned(self, matrix):
        with pytest.raises(AttributeError):
            matrix.rows = ()
        with pytest.raises(AttributeError):
            del matrix.rows


@pytest.mark.parametrize(
    "value, others",
    [
        (pascal(4).matrix(3), ["size", "foo"]),
        (Var(pos=2), ["foo"]),
        (CATALAN, ["order", "_g", "_f", "_frev", "_az", "foo"]),
        (TruncatedSeries([1, 2]), ["order", "_coeffs", "foo"]),
    ],
    ids=["TriMatrix", "Var", "RiordanElement", "TruncatedSeries"],
)
def test_no_attribute_can_be_assigned_or_deleted(value, others):
    for name in type(value)._fields:
        with pytest.raises(AttributeError, match=f"^cannot assign to field '{name}'$"):
            setattr(value, name, None)
        with pytest.raises(AttributeError, match=f"^cannot delete field '{name}'$"):
            delattr(value, name)
    # any other name, a property or a cache among them, is no field
    for name in others:
        text = f"^{type(value).__qualname__} has no field '{name}'$"
        with pytest.raises(AttributeError, match=text):
            setattr(value, name, None)
        with pytest.raises(AttributeError, match=text):
            delattr(value, name)


def test_every_slotted_class_is_a_record():
    # a value class that names its slots but skips the base would hand-write
    # its own construction, equality, copying and immutability
    modules = [
        importlib.import_module(f"riordan.{info.name}") for info in pkgutil.iter_modules(riordan.__path__)
    ]
    slotted = [
        cls
        for module in modules
        for cls in vars(module).values()
        if isinstance(cls, type) and cls.__module__ == module.__name__ and "__slots__" in vars(cls)
    ]
    assert {Record, TruncatedSeries, RiordanElement} <= set(slotted)
    assert [cls.__qualname__ for cls in slotted if not issubclass(cls, Record)] == []


SERIES = TruncatedSeries([1, F(1, 2), -3], 9)
VALUES = [SERIES, CATALAN]


class TestSeriesAndElement:
    @pytest.mark.parametrize(
        "build",
        [
            lambda: TruncatedSeries(),
            lambda: TruncatedSeries([1], 2, 3),
            lambda: TruncatedSeries([1], order=2, unknown=None),
            lambda: TruncatedSeries([0.5]),
        ],
    )
    def test_series_construction_errors_are_type_errors(self, build):
        # an element's are checked with every other record's, in TestRecord
        with pytest.raises(TypeError):
            build()

    def test_equality_up_to_the_smaller_order_and_no_hash(self):
        assert TruncatedSeries([1, 2, 3]) == TruncatedSeries([1, 2]) != TruncatedSeries([1, 5])
        assert SERIES != SERIES.coefficients
        assert catalan_array(8) == catalan_array(5) != pascal(5)
        assert CATALAN != (CATALAN.g, CATALAN.f)
        for value in VALUES:
            with pytest.raises(TypeError):
                hash(value)

    def test_repr(self):
        assert repr(SERIES) == "TruncatedSeries([1, 1/2, -3, 0, 0, 0, 0, 0, ...], order=9)"
        assert repr(CATALAN) == (
            "RiordanElement(g=TruncatedSeries([1, 1, 2, 5, 14], order=4), "
            "f=TruncatedSeries([0, 1, 1, 2, 5], order=4))"
        )
        # past the print limit a repr names the stand-in where str raises
        wide = TruncatedSeries([10**4400, 1])
        limit = "<a number of more than 4300 digits>"
        assert repr(wide) == f"TruncatedSeries([{limit}, 1], order=1)"
        assert repr(RiordanElement(TruncatedSeries([10**4400, 1], 2), wide.shift_up(1))) == (
            f"RiordanElement(g=TruncatedSeries([{limit}, 1, 0], order=2), "
            f"f=TruncatedSeries([0, {limit}, 1], order=2))"
        )

    @pytest.mark.parametrize("value", VALUES, ids=["TruncatedSeries", "RiordanElement"])
    def test_copy_and_pickle_go_through_the_constructor(self, value, monkeypatch):
        cls, built = type(value), []
        init = cls.__init__

        def counted(self, *args):
            built.append(args)
            init(self, *args)

        monkeypatch.setattr(cls, "__init__", counted)
        for copied in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value), copy.copy(value)):
            assert type(copied) is cls and copied == value
            assert repr(copied) == repr(value)
        assert built == [tuple(getattr(value, name) for name in cls._fields)] * 3

    def test_caches_read_none_until_filled_and_change_no_value(self):
        assert RiordanElement._fields == ("g", "f")
        assert RiordanElement._caches == ("_frev", "_az")
        element, fresh = catalan_array(6), catalan_array(6)
        assert element._frev is None and element._az is None
        reverted = element.reverted_f()
        nth_az(element, 1)
        assert element._frev is reverted and element.reverted_f() is reverted
        assert element._az is not None
        assert element == fresh and repr(element) == repr(fresh)
        assert pickle.dumps(element) == pickle.dumps(fresh)
        for copied in (pickle.loads(pickle.dumps(element)), copy.deepcopy(element)):
            assert copied._frev is None and copied._az is None


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
