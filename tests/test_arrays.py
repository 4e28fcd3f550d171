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
    catalan_array,
    nth_az,
    pascal,
)


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
        assert e.matrix(4) == TriMatrix.from_rows([[1], [0, 1], [0, 0, 1], [0, 0, 0, 1]])

    def test_zero_constant_g_rejected(self):
        x = TruncatedSeries.x(4)
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
            RiordanElement(TruncatedSeries.one(4), TruncatedSeries.x(5))


class TestMatrix:
    def test_pascal_entries_are_binomials(self):
        m = pascal(6).matrix(6)
        for n in range(6):
            for k in range(6):
                assert m[n, k] == math.comb(n, k)

    def test_pascal_three_rows(self):
        assert pascal(4).matrix(3) == TriMatrix.from_rows(ref.PASCAL_TRIANGLE_3)

    def test_a085478_block(self):
        m = a085478_element(8).matrix(7)
        assert m == TriMatrix.from_rows(ref.A085478_TRIANGLE_7)
        assert m.row(4) == frac_rows(ref.A085478_TRIANGLE_7)[4]

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
        assert product.matrix(6) == TriMatrix.from_rows(ref.A085478_SECOND_PRODUCED_6)

    def test_pascal_squared(self):
        twice = pascal(8).mul(pascal(8))
        expected_g = 1 / TruncatedSeries([1, -2], 8)
        assert twice.g == expected_g
        assert twice.f == expected_g.shift_up(1).truncate(8)

    def test_homomorphism_battery(self):
        rng = random.Random(99)
        for e1, e2 in zip(
            element_battery(8, 12, seed=101), element_battery(8, 12, seed=202)
        ):
            n = rng.randint(2, 12)
            lhs = e1.mul(e2).matrix(n)
            rhs = e1.matrix(n).mul(e2.matrix(n))
            assert lhs == rhs

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
            column_gf = e.ftra_apply(TruncatedSeries([0] * k + [1], 9))
            assert column_gf.coefficients[:7] == m.column(k)

    def test_pascal_row_sums(self):
        out = pascal(9).ftra_apply(1 / TruncatedSeries([1, -1], 9))
        assert out.coefficients == tuple(F(2) ** n for n in range(10))

    def test_identity_action(self):
        h = TruncatedSeries([3, 1, 4, 1, 5], 8)
        assert RiordanElement.identity(8).ftra_apply(h) == h


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
        assert z == TruncatedSeries.one(7)


class TestFromAZ:
    def test_trivial_identity(self):
        e = RiordanElement.from_az(TruncatedSeries.one(6), TruncatedSeries.zero(6))
        assert e == RiordanElement.identity(6)

    def test_pascal_from_sequences(self):
        e = RiordanElement.from_az(
            TruncatedSeries([1, 1], 6), TruncatedSeries.one(6)
        )
        assert e == pascal(7)
        assert e.matrix(6) == pascal(6).matrix(6)

    def test_a085478_from_displayed_columns(self):
        a = TruncatedSeries([1, 2, -1, 2, -5, 14, -42])
        z = TruncatedSeries([1, 0, 0, 0, 0, 0, 0])
        assert RiordanElement.from_az(a, z) == a085478_element(7)

    def test_zero_a_constant_rejected(self):
        with pytest.raises(InvalidElementError):
            RiordanElement.from_az(TruncatedSeries.x(5), TruncatedSeries.one(5))

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
        m = TriMatrix.from_rows([[1], [2, 3], [4, 5, 6]])
        assert m.size == 3
        assert m[2, 1] == 5 and m[0, 2] == 0

    def test_above_diagonal_rejected(self):
        with pytest.raises(ShapeError):
            TriMatrix([[F(1), F(2)], [F(0), F(1)]])
        with pytest.raises(ShapeError):
            TriMatrix.from_rows([[1, 1], [0, 1]])
        # one place above is the superdiagonal a ProductionMatrix may use
        assert ProductionMatrix.from_rows([[1, 1], [0, 1]]).size == 2

    def test_never_equals_a_production_matrix(self):
        rows = [[1], [2, 3]]
        t = TriMatrix.from_rows(rows)
        p = ProductionMatrix.from_rows(rows)
        assert t.rows == p.rows
        assert t != p and p != t
        assert repr(t) == "TriMatrix(size=2)" and repr(p) == "ProductionMatrix(size=2)"

    def test_row_too_long_rejected(self):
        with pytest.raises(ShapeError):
            TriMatrix.from_rows([[1, 2]])

    def test_mul_size_mismatch(self):
        a = TriMatrix.from_rows([[1]])
        b = TriMatrix.from_rows([[1], [0, 1]])
        with pytest.raises(ShapeError):
            a.mul(b)

    def test_inverse_roundtrip(self):
        m = pascal(8).matrix(8)
        identity = TriMatrix.from_rows(
            [[0] * i + [1] for i in range(8)]
        )
        assert m.mul(m.inverse()) == identity
        assert m.inverse().mul(m) == identity

    def test_singular_rejected(self):
        with pytest.raises(SingularMatrixError):
            TriMatrix.from_rows([[1], [1, 0]]).inverse()

    def test_solve_matches_inverse_times_rhs(self):
        # rational diagonal; three right-hand rows with two columns against
        # a 4x4 matrix, so only its leading 3x3 block takes part
        m = TriMatrix.from_rows(
            [[F(2, 3)], [1, F(-5, 2)], [F(1, 7), 3, 4], [0, 1, F(1, 2), F(9, 5)]]
        )
        rhs = [[F(1), F(1, 2)], [F(0), F(3)], [F(-2, 3), F(1)]]
        lead = [list(row[:3]) for row in m.rows[:3]]
        expected = mat_mul_rows(lower_inverse_rows(lead), rhs)
        assert m.solve(rhs) == tuple(tuple(row) for row in expected)

    def test_solve_rejects_zero_diagonal_and_extra_rows(self):
        m = TriMatrix.from_rows([[1], [1, 0], [1, 1, 1]])
        assert m.solve([[F(2)]]) == ((F(2),),)  # row 1 is not read
        with pytest.raises(SingularMatrixError, match=r"zero diagonal entry at \(1, 1\)"):
            m.solve([[F(1)], [F(1)]])
        with pytest.raises(ShapeError):
            m.solve([[F(1)]] * 4)

    def test_solve_zero_width_rhs(self):
        # one empty row per right-hand row, and the diagonal is still checked
        assert TriMatrix.from_rows([[1], [0, 1]]).solve([[], []]) == ((), ())
        with pytest.raises(SingularMatrixError, match=r"zero diagonal entry at \(1, 1\)"):
            TriMatrix.from_rows([[1], [0, 0]]).solve([[], []])

    def test_text_rendering_integral(self):
        text = TriMatrix.from_rows([[1], [-2, 1], [3, 10, 1]]).to_text()
        assert [line.split() for line in text.splitlines()] == [
            ["1", "0", "0"],
            ["-2", "1", "0"],
            ["3", "10", "1"],
        ]

    def test_text_rendering_mixed_uses_fractions_throughout(self):
        text = TriMatrix.from_rows([[1], [F(1, 2), 1]]).to_text()
        assert [line.split() for line in text.splitlines()] == [
            ["1/1", "0/1"],
            ["1/2", "1/1"],
        ]

    def test_json_entries_roundtrip(self):
        m = TriMatrix.from_rows([[F(1, 3)], [2, 1]])
        entries = m.to_json_entries()
        rebuilt = TriMatrix([[F(s) for s in row] for row in entries])
        assert rebuilt == m

    def test_leading_and_block(self):
        m = pascal(6).matrix(6)
        block = m.block(1, 0, 2, 3)
        assert block == ((F(1), F(1), F(0)), (F(1), F(2), F(1)))
