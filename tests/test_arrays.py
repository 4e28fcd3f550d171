import math
import random
from fractions import Fraction as F

import pytest

import reference_data as ref
from helpers import (
    element_battery,
    frac_rows,
    from_az_by_inverse,
    gf_entry,
    lower_inverse_rows,
    mat_mul_rows,
    matrix_product,
    non_normalized_battery,
)
from riordan import (
    InvalidElementError,
    PrecisionError,
    ProductionMatrix,
    RiordanElement,
    ShapeError,
    SingularMatrixError,
    TriMatrix,
    TruncatedSeries,
    a085478_element,
    binomial_power,
    catalan_array,
    moment_element,
    nth_az,
    pascal,
)
from riordan.arrays import mat_mul


def element(g_coeffs, f_coeffs, order):
    return RiordanElement(
        TruncatedSeries(g_coeffs, order), TruncatedSeries(f_coeffs, order)
    )


class TestElementValidation:
    def test_pascal_is_valid(self):
        e = pascal(6)
        assert e.g.constant_term == 1 and e.f.coefficient(1) == 1

    def test_identity_is_valid(self):
        e = RiordanElement.identity(4)
        assert e.matrix(4) == TriMatrix([[1], [0, 1], [0, 0, 1], [0, 0, 0, 1]])

    def test_zero_constant_g_rejected(self):
        x = TruncatedSeries([0, 1], 4)
        with pytest.raises(InvalidElementError):
            RiordanElement(x, x)

    def test_nonzero_constant_f_rejected(self):
        with pytest.raises(InvalidElementError):
            element([1], [1, 1], 4)

    def test_zero_linear_f_rejected(self):
        with pytest.raises(InvalidElementError):
            element([1], [0, 0, 1], 4)

    def test_order_mismatch_rejected(self):
        with pytest.raises(PrecisionError):
            RiordanElement(TruncatedSeries([1], 4), TruncatedSeries([0, 1], 5))


class TestMatrix:
    def test_pascal_entries_are_binomials(self):
        m = pascal(6).matrix(6)
        for n in range(6):
            for k in range(6):
                assert m[n, k] == math.comb(n, k)

    def test_pascal_three_rows(self):
        assert pascal(4).matrix(3) == TriMatrix(ref.PASCAL_TRIANGLE_3)

    def test_a085478_block(self):
        m = a085478_element(8).matrix(7)
        assert m == TriMatrix(ref.A085478_TRIANGLE_7)
        assert m.rows[4] == frac_rows(ref.A085478_TRIANGLE_7)[4]

    def test_insufficient_precision_is_loud(self):
        with pytest.raises(PrecisionError):
            pascal(4).matrix(6)

    def test_non_normalized_element_against_naive_oracle(self):
        g = [2, 1, -1]
        f = [0, F(1, 2), 1, 3]
        m = element(g, f, 8).matrix(8)
        for n in range(8):
            for k in range(n + 1):
                assert m[n, k] == gf_entry(g, f, n, k)


class TestGroupOps:
    def test_mul_identity(self):
        e = a085478_element(8)
        assert e.mul(RiordanElement.identity(8)) == e
        assert RiordanElement.identity(8).mul(e) == e

    def test_second_produced_matrix_product(self):
        # ((1-x)^2, x(1-x)^2)^-1 . (1/(1-x), x/(1-x)^2)
        sq = TruncatedSeries([1, -1], 10) ** 2
        left = RiordanElement(sq, sq.shift_up(1).truncate(10))
        product = left.inverse().mul(a085478_element(10))
        assert product.matrix(6) == TriMatrix(ref.A085478_SECOND_PRODUCED_6)

    def test_pascal_squared(self):
        twice = pascal(8).mul(pascal(8))
        expected_g = 1 / TruncatedSeries([1, -2], 8)
        assert twice.g == expected_g
        assert twice.f == expected_g.shift_up(1).truncate(8)

    def test_homomorphism_battery(self):
        rng = random.Random(99)
        pairs = list(zip(element_battery(8, 12, seed=101), element_battery(8, 12, seed=202)))
        # non-normalized and rational factors, whose denominators meet in the
        # one chain of the powers of e1.f that carries both series of e2
        for order in (14, 17, 20):
            x = TruncatedSeries([0, 1], order)
            rational = non_normalized_battery(3, order, seed=order) + [
                moment_element(F(1, 3), order),
                binomial_power(F(2, 3), order),
                RiordanElement(
                    3 / TruncatedSeries([3, -1], order), 2 * x / TruncatedSeries([1, F(-1, 5)], order)
                ),
            ]
            pairs += [(e1, rng.choice(rational)) for e1 in rational]
        for e1, e2 in pairs:
            n = rng.randint(2, e1.order + 1)
            lhs = e1.mul(e2).matrix(n)
            rhs = matrix_product(e1.matrix(n), e2.matrix(n))
            assert lhs == rhs, (e1, e2, n)

    def test_inverse_of_identity(self):
        e = RiordanElement.identity(6)
        assert e.inverse() == e

    def test_catalan_array_inverse(self):
        # (c, xc)^-1 = (1-x, x(1-x))
        inv = catalan_array(9).inverse()
        assert inv.g == TruncatedSeries([1, -1], 9)
        assert inv.f == TruncatedSeries([0, 1, -1], 9)

    def test_pascal_as_inverse(self):
        # (1/(1+x), x/(1+x))^-1 is the binomial matrix
        g = 1 / TruncatedSeries([1, 1], 9)
        e = RiordanElement(g, g.shift_up(1).truncate(9))
        assert e.inverse() == pascal(9)

    def test_matrix_inverse_matches_group_inverse(self, battery):
        for e in battery[:10]:
            assert e.inverse().matrix(9) == e.matrix(9).inverse()


class TestFtra:
    def test_monomials_give_columns(self):
        e = a085478_element(9)
        m = e.matrix(7)
        for k in range(4):
            column_gf = e.g * TruncatedSeries([0] * k + [1], 9).compose(e.f)
            assert column_gf.coefficients[:7] == m.column(k)

    def test_pascal_row_sums(self):
        e = pascal(9)
        out = e.g * (1 / TruncatedSeries([1, -1], 9)).compose(e.f)
        assert out.coefficients == tuple(F(2) ** n for n in range(10))

    def test_identity_action(self):
        h = TruncatedSeries([3, 1, 4, 1, 5], 8)
        e = RiordanElement.identity(8)
        assert e.g * h.compose(e.f) == h


class TestAZSequences:
    def test_pascal_against_production_oracle(self):
        # oracle: P = inverse(M6) times rows 1..6 of M7, built naively
        m7 = [[F(math.comb(n, k)) for k in range(7)] for n in range(7)]
        inv6 = lower_inverse_rows([row[:6] for row in m7[:6]])
        p = mat_mul_rows(inv6, [row[:6] for row in m7[1:7]])
        a, z = nth_az(pascal(9), 1)
        for i in range(6):
            assert z.coefficient(i) == p[i][0]
        for i in range(5):
            assert a.coefficient(i) == p[i][1]
        assert a == TruncatedSeries([1, 1], 8)
        assert z == TruncatedSeries([1], 7)


class TestFromAZ:
    def test_trivial_identity(self):
        e = RiordanElement.from_az(TruncatedSeries([1], 6), TruncatedSeries([0], 6))
        assert e == RiordanElement.identity(6)

    def test_pascal_from_sequences(self):
        e = RiordanElement.from_az(
            TruncatedSeries([1, 1], 6), TruncatedSeries([1], 6)
        )
        assert e == pascal(7)
        assert e.matrix(6) == pascal(6).matrix(6)

    def test_a085478_from_displayed_columns(self):
        a = TruncatedSeries([1, 2, -1, 2, -5, 14, -42])
        z = TruncatedSeries([1, 0, 0, 0, 0, 0, 0])
        assert RiordanElement.from_az(a, z) == a085478_element(7)

    def test_zero_a_constant_rejected(self):
        with pytest.raises(InvalidElementError):
            RiordanElement.from_az(TruncatedSeries([0, 1], 5), TruncatedSeries([1], 5))

    def test_roundtrip_battery(self, battery):
        for e in battery[:12]:
            rebuilt = RiordanElement.from_az(*nth_az(e, 1))
            assert rebuilt == e

    @pytest.mark.parametrize("kind", ["normalized", "non_normalized"])
    def test_matches_inverse_oracle(self, battery, non_normalized, kind):
        # coefficient tuples, because series == ignores surplus order
        elements = battery[:12] if kind == "normalized" else non_normalized
        for e in elements:
            for n in range(1, 7):
                got = RiordanElement.from_az(*nth_az(e, n))
                want = from_az_by_inverse(*nth_az(e, n))
                assert got.order == want.order, (e, n)
                assert got.g.coefficients == want.g.coefficients, (e, n)
                assert got.f.coefficients == want.f.coefficients, (e, n)


class TestTriMatrix:
    def test_ragged_construction(self):
        # row i may stop anywhere up to the size; a short row is padded
        m = TriMatrix([[1], [2, 3], [4, 5, 6]])
        assert m.size == 3
        assert m[2, 1] == 5 and m[0, 2] == 0
        assert TriMatrix([[1], [2, 3]])[0, 1] == 0
        assert TriMatrix([[1], [1, 1]]).rows == ((1, 0), (1, 1))
        assert TriMatrix([[1], []]).rows == ((1, 0), (0, 0))
        assert TriMatrix([[1, 0], [0, 1]]) == TriMatrix([[1], [0, 1]])
        # a generator of generators, every entry stored as a Fraction
        g = TriMatrix((F(i + j) for j in range(i + 1)) for i in range(3))
        assert g.rows == ((0, 0, 0), (1, 2, 0), (2, 3, 4))
        assert all(type(c) is F for row in g.rows for c in row)
        # the class constructor is the one way to build a matrix
        assert not [name for name in dir(TriMatrix) if name.startswith("from_")]

    def test_empty_rejected(self):
        with pytest.raises(ShapeError, match="^matrix must have at least one row$"):
            TriMatrix([])

    def test_above_diagonal_rejected(self):
        with pytest.raises(
            ShapeError,
            match=r"^entry \(0, 1\) is 2, but a TriMatrix is zero more than 0 "
            r"places above the diagonal$",
        ):
            TriMatrix([[F(1), F(2)], [F(0), F(1)]])
        with pytest.raises(ShapeError, match=r"^entry \(1, 2\) is -1/3, but a TriMatrix"):
            TriMatrix([[1], [0, 1, F(-1, 3)], [0, 0, 1]])
        # an entry too wide for str() is named by the print limit
        with pytest.raises(ShapeError) as err:
            TriMatrix([[1, 10**4400], [1, 1]])
        assert str(err.value) == (
            "entry (0, 1) is <a number of more than 4300 digits>, but a TriMatrix "
            "is zero more than 0 places above the diagonal"
        )
        # one place above is the superdiagonal a ProductionMatrix may use
        assert ProductionMatrix([[1, 1], [0, 1]]).size == 2

    def test_never_equals_a_production_matrix(self):
        rows = [[1], [2, 3]]
        t = TriMatrix(rows)
        p = ProductionMatrix(rows)
        assert t.rows == p.rows
        assert t != p and p != t
        assert repr(t) == "TriMatrix(size=2)" and repr(p) == "ProductionMatrix(size=2)"

    def test_row_too_long_rejected(self):
        with pytest.raises(ShapeError, match="^row 0 is longer than the matrix size 1$"):
            TriMatrix([[1, 2]])
        with pytest.raises(ShapeError, match="^row 1 is longer than the matrix size 2$"):
            TriMatrix([[1], [0, 1, 0]])

    def test_inverse_roundtrip(self):
        m = pascal(8).matrix(8)
        identity = TriMatrix(
            [[0] * i + [1] for i in range(8)]
        )
        assert matrix_product(m, m.inverse()) == identity
        assert matrix_product(m.inverse(), m) == identity
        # a rational diagonal, against the inverse by row elimination
        r = TriMatrix([[F(2, 3)], [1, F(-5, 2)], [F(1, 7), 3, 4], [0, 1, F(1, 2), F(9, 5)]])
        assert r.inverse() == TriMatrix(lower_inverse_rows(r.rows))

    def test_singular_rejected(self):
        with pytest.raises(SingularMatrixError, match=r"^zero diagonal entry at \(1, 1\)$"):
            TriMatrix([[1], [1, 0]]).inverse()

    def test_inverse_is_the_one_operation(self):
        # the library's products and solves run on series' integer rows
        assert not {"mul", "solve", "__matmul__"} & set(dir(TriMatrix))

    def test_ragged_operands_rejected(self):
        # zip(*b) would cut a ragged operand short: a short row read as if
        # padded with zeros, one column for two, and a 1x1 product
        with pytest.raises(ShapeError, match="inner dimensions do not match"):
            mat_mul([[F(1), F(2)], [F(3)]], [[F(1)], [F(2)]])
        with pytest.raises(ShapeError, match="the right operand has ragged rows"):
            mat_mul([[F(1), F(2)]], [[F(1), F(2)], [F(3)]])
        assert mat_mul([[F(1), F(2)]], [[F(1), F(2)], [F(3), F(4)]]) == ((F(7), F(10)),)

    def test_text_rendering_integral(self):
        text = TriMatrix([[1], [-2, 1], [3, 10, 1]]).to_text()
        assert [line.split() for line in text.splitlines()] == [
            ["1", "0", "0"],
            ["-2", "1", "0"],
            ["3", "10", "1"],
        ]

    def test_text_rendering_mixed_uses_fractions_throughout(self):
        text = TriMatrix([[1], [F(1, 2), 1]]).to_text()
        assert [line.split() for line in text.splitlines()] == [
            ["1/1", "0/1"],
            ["1/2", "1/1"],
        ]

    def test_json_entries_roundtrip(self):
        m = TriMatrix([[F(1, 3)], [2, 1]])
        entries = m.to_json_entries()
        rebuilt = TriMatrix([[F(s) for s in row] for row in entries])
        assert rebuilt == m
