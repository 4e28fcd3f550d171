import math
from fractions import Fraction as F

import pytest

import reference_data as ref
from helpers import (
    az_by_matrix_solve,
    az_by_reversion,
    block_by_matrix_solve,
    closed_form_by_group,
    closed_form_by_solve,
    element_battery,
    frac_rows,
    lower_inverse_rows,
    mat_mul_rows,
    non_normalized_battery,
    power_by_squaring,
    production_by_series,
    production_by_whole_matrix,
)
from riordan import (
    CoefficientSizeError,
    PrecisionError,
    ProductionMatrix,
    RiordanElement,
    ShapeError,
    TriMatrix,
    TruncatedSeries,
    VerificationReport,
    a085478_element,
    arrays,
    catalan_array,
    family_element,
    generate_from_production,
    iterate_second_production,
    nth_az,
    nth_production_matrix,
    pascal,
    produced_matrix_closed_form,
    production,
    production_block,
    production_matrix,
    series,
    verify_nth_conjecture,
)
from riordan.production import _nth_az


def a033184_entry(n, k):
    return F(k + 1, 2 * n - k + 1) * math.comb(2 * n - k + 1, n - k)


class TestProductionMatrixType:
    def test_hessenberg_validation(self):
        above = r"is zero more than 1 places above the diagonal$"
        with pytest.raises(ShapeError, match=r"^entry \(0, 2\) is 1, but a ProductionMatrix " + above):
            ProductionMatrix([[F(1), F(1), F(1)], [F(0), F(1), F(1)], [F(0), F(0), F(1)]])
        with pytest.raises(ShapeError, match=r"^entry \(0, 2\) is 5/2, but a ProductionMatrix " + above):
            ProductionMatrix([[1, 1, F(5, 2)], [0, 1], [0, 0, 1]])
        with pytest.raises(ShapeError, match="^matrix must have at least one row$"):
            ProductionMatrix(iter([]))
        with pytest.raises(ShapeError, match="^row 1 is longer than the matrix size 2$"):
            ProductionMatrix([[1, 1], [0, 1, 0]])
        assert ProductionMatrix([[1, 1], [0, 1, 1], [0, 0, 1]]).size == 3

    def test_ragged_construction(self):
        # row i may stop anywhere up to the size; a short row is padded
        assert ProductionMatrix([[1, 1], [2], [3, 4, 5]]).rows == ((1, 1, 0), (2, 0, 0), (3, 4, 5))
        p = ProductionMatrix((F(i + j) for j in range(min(i + 2, 3))) for i in range(3))
        assert p.rows == ((0, 1, 0), (1, 2, 3), (2, 3, 4))
        assert not [name for name in dir(ProductionMatrix) if name.startswith("from_")]

    def test_accessors(self):
        p = ProductionMatrix([[1, 1], [0, 2, 1], [0, -1, 2]])
        assert p.column(0) == (1, 0, 0)
        assert p.column(1) == (1, 2, -1)
        assert [p[i, i + 1] for i in range(2)] == [1, 1]
        assert p.rows[1] == (0, 2, 1)


class TestClassicalProduction:
    def test_a085478_display(self):
        p = production_matrix(a085478_element(8), 7)
        assert p == ProductionMatrix(ref.A085478_PRODUCTION_7)

    def test_identity_gives_superdiagonal_ones(self):
        p = production_matrix(RiordanElement.identity(6), 5)
        assert p.column(0) == (0, 0, 0, 0, 0)
        assert [p[i, i + 1] for i in range(4)] == [1, 1, 1, 1]
        assert all(p[i, j] == 0 for i in range(5) for j in range(min(i + 1, 5)))

    def test_catalan_all_ones_hessenberg(self):
        # independent oracle: invert the closed-form entry matrix naively
        m8 = [[a033184_entry(n, k) if k <= n else F(0) for k in range(8)] for n in range(8)]
        oracle = mat_mul_rows(
            lower_inverse_rows([row[:7] for row in m8[:7]]),
            [row[:7] for row in m8[1:8]],
        )
        p = production_matrix(catalan_array(8), 7)
        assert p.rows == tuple(tuple(row) for row in oracle)
        for i in range(7):
            for j in range(min(i + 2, 7)):
                assert p[i, j] == 1

    def test_columns_are_shifted_a_sequence(self, battery, non_normalized):
        # column 0 is the Z-sequence; column k holds the A-sequence pushed
        # down k-1 rows; so for every n-th production matrix (derivation
        # step 3)
        for e in [*battery[:4], *non_normalized[:4]]:
            for n in range(1, 7):
                p = nth_production_matrix(e, n, 8)
                a, z = nth_az(e, n)
                for i in range(8):
                    assert p[i, 0] == z.coefficient(i), (e, n)
                    for k in range(1, 8):
                        expected = a.coefficient(i - k + 1) if i + 1 >= k else 0
                        assert p[i, k] == expected, (e, n)

    def test_needs_one_row_of_headroom(self, non_normalized):
        with pytest.raises(PrecisionError):
            production_matrix(pascal(5), 6)
        # and no more: order size is enough
        for e in (catalan_array(12), a085478_element(12), non_normalized[0]):
            for size in range(1, 10):
                p = production_matrix(e.truncate(size), size)
                assert p == production_by_whole_matrix(e, 1, size), (e, size)


class TestProductionBlock:
    def test_two_rows_removed_display(self):
        block = production_block(a085478_element(10), 2, 7)
        assert block == frac_rows(ref.A085478_ROWS2_BLOCK_7)

    def test_three_rows_removed_display(self):
        block = production_block(a085478_element(11), 3, 7)
        assert block == frac_rows(ref.A085478_ROWS3_BLOCK_7)

    def test_matches_matrix_solve_oracle(self, battery, non_normalized):
        # the solve on the integer rows of series._powers against the solve
        # on the element's Fraction matrix at size + n
        for e in [*battery, *non_normalized]:
            for n in range(1, 7):
                for size in range(1, 9):
                    got = production_block(e, n, size)
                    assert got == block_by_matrix_solve(e, n, size), (e, n, size)

    def test_matches_matrix_solve_oracle_far_from_the_top(self):
        rational = RiordanElement(
            TruncatedSeries([F(2, 3), F(-1, 2), 1], 42),
            TruncatedSeries([0, F(3, 2), F(1, 4), -1], 42),
        )
        for e in (catalan_array(42), rational):
            assert production_block(e, 40, 3) == block_by_matrix_solve(e, 40, 3), e

    def test_builds_only_the_columns_it_reads(self, monkeypatch):
        # one series._powers call, to size + n rows but for the size columns
        # the block reads, not for the size + n of the element's whole matrix
        asked, powers = [], series._powers

        def recording_powers(g, b, count):
            asked.append((len(g), count))
            return powers(g, b, count)

        for module in (arrays, production):
            monkeypatch.setattr(module, "_powers", recording_powers)
        e = catalan_array(44)
        for n, size in ((1, 1), (1, 5), (2, 7), (40, 3)):
            asked.clear()
            production_block(e, n, size)
            assert asked == [(size + n, size)], (n, size)


class TestNthProduction:
    def test_a085478_second(self):
        p = nth_production_matrix(a085478_element(10), 2, 7)
        assert p == ProductionMatrix(ref.A085478_SECOND_PRODUCTION_7)

    def test_a085478_third(self):
        p = nth_production_matrix(a085478_element(12), 3, 8)
        assert p == ProductionMatrix(ref.A085478_THIRD_PRODUCTION_8)

    def test_catalan_second(self):
        p = nth_production_matrix(catalan_array(9), 2, 6)
        assert p == ProductionMatrix(ref.CATALAN_SECOND_PRODUCTION_6)

    def test_catalan_third(self):
        p = nth_production_matrix(catalan_array(10), 3, 7)
        assert p == ProductionMatrix(ref.CATALAN_THIRD_PRODUCTION_7)

    def test_catalan_fourth(self):
        p = nth_production_matrix(catalan_array(11), 4, 7)
        assert p == ProductionMatrix(ref.CATALAN_FOURTH_PRODUCTION_7)

    def test_n1_degrades_to_classical(self, battery):
        for e in battery[:6]:
            assert nth_production_matrix(e, 1, 8) == production_matrix(e, 8)

    def test_matrix_and_series_routes_agree(self, battery):
        rational = RiordanElement(
            TruncatedSeries([F(2, 3), F(-1, 2), 1], 14),
            TruncatedSeries([0, F(3, 2), F(1, 4), -1], 14),
        )
        for e in [*battery[:8], rational]:
            for n in (1, 2, 3, 5):
                assert nth_production_matrix(e, n, 7) == production_by_series(e, n, 7)

    def test_superdiagonal_is_a0_to_the_n(self, battery, non_normalized):
        # A_n(0) = A(0)^n with A(0) = f'(0) (derivation step 3): ones exactly
        # when the element is normalized
        for e in [*battery[:6], *non_normalized[:6]]:
            a0 = e.f.coefficient(1)
            for n in (1, 2, 4):
                p = nth_production_matrix(e, n, 6)
                assert [p[i, i + 1] for i in range(5)] == [a0**n] * 5

    @staticmethod
    def cut_element(name, order):
        if name == "non-normalized":  # g(0) = 2, f'(0) = 5/2
            g = 2 / TruncatedSeries([1, F(-1, 3)], order)
            return RiordanElement(g, TruncatedSeries([0, F(5, 2), F(1, 2), F(1, 7)], order))
        return family_element(name, order)

    @pytest.mark.parametrize(
        "name", ["pascal", "catalan", "a085478", "binomial:2", "moment:1/2", "non-normalized"]
    )
    def test_cut_matches_whole_matrix_route(self, name):
        # n = 1..40 at size 1..8, on both sides of n = size + 1
        e = self.cut_element(name, 48)
        for size in range(1, 9):
            for n in range(1, 41):
                expected = production_by_whole_matrix(e, n, size)
                assert nth_production_matrix(e, n, size) == expected, (n, size)

    @pytest.mark.parametrize("name", ["catalan", "non-normalized"])
    def test_n_past_1_needs_order_size_plus_1(self, name):
        # whatever n is; below n = size + 2 the definition reads order size + n - 1
        e = self.cut_element(name, 48)
        pairs = [(size, n) for size in (1, 3, 8) for n in range(2, size + 3)]
        for size, n in pairs + [(4, 40), (8, 11)]:
            low = e.truncate(size + 1)
            expected = production_by_whole_matrix(e, n, size)
            assert nth_production_matrix(low, n, size) == expected
            with pytest.raises(PrecisionError, match=f"order >= {size + 1},"):
                nth_production_matrix(e.truncate(size), n, size)

    def test_nth_is_first_times_toeplitz_of_a_power(self):
        # with A the A-series of P_1, A(f) = f/x, so (g, f) (A^(n-1), x) is
        # (g (f/x)^(n-1), f) = M_(n-1), whose rows 1..size are P_n's right-hand
        # side; dropping M's top row commutes with multiplying on the right
        elements = element_battery(6, 24, 3) + non_normalized_battery(6, 24, 4)
        names = ("catalan", "moment:1/2", "binomial:2/3", "a085478")
        elements += [family_element(name, 24) for name in names]
        cases = [(e, size, n) for e in elements for size in range(1, 10) for n in range(1, 9)]
        # large n at size 64, binary powering against the library's Miller power
        large = [family_element(name, 66) for name in ("catalan", "moment:1/2")]
        large.append(RiordanElement(  # g(0) = 2, f'(0) = -1
            2 / TruncatedSeries([1, F(-1, 3)], 66), TruncatedSeries([0, -1, F(1, 2), F(1, 7)], 66)
        ))
        cases += [(e, 64, n) for e in large for n in (10, 70, 1000, 10**6)]
        for e, size, n in cases:
            p1 = production_matrix(e, size + 1)
            s = power_by_squaring(TruncatedSeries(p1.column(1)), n - 1).coefficients
            # entry (i, j) of P_1 T(s), summed where P_1 (Hessenberg) and T are nonzero
            expected = ProductionMatrix(
                [sum((p1[i, k] * s[k - j] for k in range(j, min(i + 2, size + 1))), F(0))
                 for j in range(size)]
                for i in range(size)
            )
            assert nth_production_matrix(e, n, size) == expected, (e, n, size)

    def test_precision_error_reports_needed_order(self):
        with pytest.raises(PrecisionError) as err:
            nth_production_matrix(a085478_element(5), 2, 6)
        assert "order >= 7" in str(err.value)

    def test_bad_n_rejected(self):
        with pytest.raises(ValueError):
            nth_production_matrix(pascal(8), 0, 4)


class TestGenerate:
    def test_superdiagonal_ones_generate_identity(self):
        p = ProductionMatrix([[0, 1], [0, 0, 1], [0, 0, 0, 1], [0, 0, 0, 0]])
        m = generate_from_production(p, 4)
        assert m == TriMatrix([[1], [0, 1], [0, 0, 1], [0, 0, 0, 1]])

    def test_a085478_second_production_generates_displayed_matrix(self):
        p = nth_production_matrix(a085478_element(10), 2, 7)
        assert generate_from_production(p, 6) == TriMatrix(
            ref.A085478_SECOND_PRODUCED_6
        )

    def test_catalan_fourth_generates_displayed_matrix(self):
        p = nth_production_matrix(catalan_array(12), 4, 7)
        assert generate_from_production(p, 7) == TriMatrix(
            ref.CATALAN_FOURTH_PRODUCED_7
        )

    def test_roundtrip_with_extraction(self, battery):
        for e in battery[:6]:
            assert generate_from_production(
                production_matrix(e, 12), 12
            ) == e.matrix(12)

    def test_undersized_production_matrix_rejected(self):
        p = production_matrix(pascal(8), 4)
        with pytest.raises(PrecisionError):
            generate_from_production(p, 5)


class TestNthAZ:
    def test_pascal_classical(self):
        a, z = nth_az(pascal(9), 1)
        assert a == TruncatedSeries([1, 1], 8)
        assert z == TruncatedSeries([1], 7)

    def test_a085478_classical(self):
        a, z = nth_az(a085478_element(9), 1)
        assert z.coefficients[:7] == (1, 0, 0, 0, 0, 0, 0)
        assert a.coefficients[:7] == (1, 2, -1, 2, -5, 14, -42)

    def test_identity_classical(self):
        a, z = nth_az(RiordanElement.identity(6), 1)
        assert a == TruncatedSeries([1], 5)
        assert z == TruncatedSeries([0], 4)

    def test_a085478_second_columns(self):
        a, z = nth_az(a085478_element(10), 2)
        assert a.coefficients[:7] == (1, 4, 2, 0, -1, 4, -14)
        assert z.coefficients[:7] == (3, 3, -2, 4, -10, 28, -84)

    def test_catalan_third_z_column(self):
        _, z = nth_az(catalan_array(10), 3)
        assert z.coefficients[:6] == (3, 6, 10, 15, 21, 28)

    def test_columns_match_nth_production(self, battery):
        for e in battery[:5]:
            for n in (1, 2, 3, 4):
                p = nth_production_matrix(e, n, 6)
                a, z = nth_az(e, n)
                assert z.coefficients[:6] == p.column(0)
                assert a.coefficients[:6] == p.column(1)

    def test_matches_reversion_oracle(self, battery, non_normalized):
        rational = RiordanElement(
            TruncatedSeries([F(2, 3), F(-1, 2), 1], 12),
            TruncatedSeries([0, F(3, 2), F(1, 4), -1], 12),
        )
        for e in [*battery[:4], *non_normalized[:4], rational, RiordanElement.identity(2)]:
            for n in range(1, 7):
                a, z = nth_az(e, n)
                assert (a.order, z.order) == (e.order - 1, e.order - 2), (e, n)
                assert (a, z) == az_by_reversion(e, n), (e, n)

    def test_matches_matrix_solve_oracle(self, battery, non_normalized):
        # the solve on the integer rows of series._powers against the solve
        # on the element's Fraction matrix, from the lowest order it serves to
        # the highest; a fresh element per order, since the A- and Z-series
        # are kept on it
        for e in [*battery, *non_normalized]:
            for n in range(1, 7):
                for order in sorted({int(n > 1), 6, e.order - 1}):
                    got = _nth_az(RiordanElement(e.g, e.f), n, order)
                    assert got == az_by_matrix_solve(e, n, order), (e, n, order)
                    assert [s.order for s in got] == [order, order - (n > 1)], (e, n, order)

    def test_matches_matrix_solve_oracle_past_the_budget(self):
        # f^k outgrows the coefficient budget: both routes refuse it
        for g, f in (
            ([1], [0, 10**3000]),
            ([1, 2**20000], [0, 1, 2**20000]),
            ([F(1, 3)], [0, F(1, 7**2000), 1]),
        ):
            e = RiordanElement(TruncatedSeries(g, 12), TruncatedSeries(f, 12))
            for n in range(1, 7):
                for route in (_nth_az, az_by_matrix_solve):
                    with pytest.raises(CoefficientSizeError):
                        route(RiordanElement(e.g, e.f), n, 10)

    def test_reconstruction_matches_generated(self, battery):
        for e in battery[:5]:
            for n in range(1, 7):
                a, z = nth_az(e, n)
                rebuilt = RiordanElement.from_az(a, z)
                produced = generate_from_production(
                    nth_production_matrix(e, n, 7), 7
                )
                assert rebuilt.matrix(7) == produced


class TestClosedForm:
    def test_n1_is_the_element_itself(self):
        e = a085478_element(7)
        assert produced_matrix_closed_form(e, 1) == e

    def test_a085478_second(self):
        produced = produced_matrix_closed_form(a085478_element(8), 2)
        assert produced.matrix(6) == TriMatrix(ref.A085478_SECOND_PRODUCED_6)

    def test_a085478_third(self):
        produced = produced_matrix_closed_form(a085478_element(10), 3)
        assert produced.matrix(8) == TriMatrix(ref.A085478_THIRD_PRODUCED_8)

    def test_catalan_second_is_a092276(self):
        produced = produced_matrix_closed_form(catalan_array(8), 2)
        assert produced.matrix(6) == TriMatrix(ref.A092276_TRIANGLE_6)

    def test_catalan_third(self):
        produced = produced_matrix_closed_form(catalan_array(9), 3)
        assert produced.matrix(7) == TriMatrix(ref.CATALAN_THIRD_PRODUCED_7)

    def test_catalan_fourth(self):
        produced = produced_matrix_closed_form(catalan_array(9), 4)
        assert produced.matrix(7) == TriMatrix(ref.CATALAN_FOURTH_PRODUCED_7)

    @pytest.mark.parametrize("n", [2, 3])
    def test_reverted_f_formulation_agrees(self, battery, n):
        # alternative route: ((rev f)^(n-1) / (x^(n-1) g(rev f)),
        #                     (rev f)^n / x^(n-1))^-1
        for e in battery[:6]:
            frev = e.reverted_f()
            num = frev ** (n - 1)
            g_alt = num.shift_down(n - 1) / e.g.compose(frev).truncate(
                num.order - (n - 1)
            )
            f_alt = (frev**n).shift_down(n - 1)
            alt = RiordanElement(g_alt, f_alt).inverse()
            assert produced_matrix_closed_form(e, n) == alt

    @pytest.mark.parametrize("kind", ["normalized", "non_normalized"])
    def test_matches_solve_oracle(self, battery, non_normalized, kind):
        # coefficient tuples, because series == ignores surplus order
        elements = battery[:12] if kind == "normalized" else non_normalized
        for e in elements:
            assert produced_matrix_closed_form(e, 1) is e
            for n in range(2, 7):
                got = produced_matrix_closed_form(e, n)
                want = closed_form_by_solve(e, n)
                assert got.order == want.order == e.order - 1, (e, n)
                assert got.g.coefficients == want.g.coefficients, (e, n)
                assert got.f.coefficients == want.f.coefficients, (e, n)

    @pytest.mark.parametrize("kind", ["normalized", "non_normalized"])
    def test_matches_group_oracle(self, battery, non_normalized, kind):
        elements = battery[:12] if kind == "normalized" else non_normalized
        for e in elements:
            for n in range(1, 7):
                got = produced_matrix_closed_form(e, n)
                want = closed_form_by_group(e, n)
                assert got.order == want.order, (e, n)
                assert got.g.coefficients == want.g.coefficients, (e, n)
                assert got.f.coefficients == want.f.coefficients, (e, n)

    @pytest.mark.parametrize("kind", ["normalized", "non_normalized"])
    def test_equals_scaled_az_rebuild(self, battery, non_normalized, kind):
        # derivation steps 4-5: the element the A/Z pair generates is the
        # closed form divided by c = g(0) f'(0)^(n-1); for n = 1 this holds
        # only once e is truncated by one order, so n starts at 2
        elements = battery[:12] if kind == "normalized" else non_normalized
        for e in elements:
            for n in range(2, 7):
                closed = produced_matrix_closed_form(e, n)
                rebuilt = RiordanElement.from_az(*nth_az(e, n))
                c = e.g.constant_term * e.f.coefficient(1) ** (n - 1)
                assert closed.order == rebuilt.order, (e, n)
                assert closed.f.coefficients == rebuilt.f.coefficients, (e, n)
                assert closed.g.coefficients == tuple(
                    c * v for v in rebuilt.g.coefficients
                ), (e, n)

    def test_appell_elements_are_fixed_points(self):
        g = TruncatedSeries([1, 1, 1, 1], 10)
        e = RiordanElement(g, TruncatedSeries([0, 1], 10))
        for n in range(2, 7):
            assert produced_matrix_closed_form(e, n) == e

    def test_pascal_produced_matrices_are_lowered_binomial_products(self):
        # for the binomial matrix, x/f = 1-x, so the produced element is
        # ((1-x)^(n-1), x(1-x)^(n-1))^-1 times it; build that product from
        # explicit polynomials and compare
        b = pascal(12)
        for n in (2, 3, 4):
            poly = TruncatedSeries([1, -1], 12) ** (n - 1)
            left = RiordanElement(poly, poly.shift_up(1).truncate(12))
            assert produced_matrix_closed_form(b, n) == left.inverse().mul(b)



def generated(e, n):
    """The element that the n-th production matrix of ``e`` generates."""
    return RiordanElement.from_az(*nth_az(e, n))


def coefficients(e):
    return e.order, e.g.coefficients, e.f.coefficients


class TestClosedFormLaw:
    """``docs/derivation.md``, remark "closed forms compose": for m, n >= 1,
    Pi_m(Pi_n(e)) = Pi_(mn)(e) at their common order, for any element."""

    @staticmethod
    def law_elements(order):
        x = TruncatedSeries([0, 1], order)
        families = ["pascal", "catalan", "a085478", "binomial:2", "moment:1/2"]
        return [family_element(name, order) for name in families] + [
            RiordanElement(TruncatedSeries([2, 1], order), 3 * x / TruncatedSeries([1, -1], order)),
            RiordanElement(3 / TruncatedSeries([3, -1], order), 2 * x / TruncatedSeries([1, F(-1, 5)], order)),
        ]

    @pytest.mark.parametrize("m, n", [(2, 2), (2, 3), (3, 2), (3, 3), (2, 5)])
    def test_closed_forms_compose(self, m, n):
        for e in self.law_elements(14):
            twice = produced_matrix_closed_form(produced_matrix_closed_form(e, n), m)
            once = produced_matrix_closed_form(e, m * n)
            assert twice.order == e.order - 2
            assert coefficients(twice) == coefficients(once.truncate(twice.order)), (e, m, n)

    def test_second_of_second_is_not_third(self):
        # the law multiplies the orders; adding them would be a different law
        for e in self.law_elements(14):
            twice = produced_matrix_closed_form(produced_matrix_closed_form(e, 2), 2)
            third = produced_matrix_closed_form(e, 3)
            assert coefficients(twice) != coefficients(third.truncate(twice.order)), e

    @pytest.mark.parametrize("m, n", [(2, 2), (2, 3), (3, 2), (3, 3), (2, 5)])
    def test_generated_elements_compose(self, m, n):
        # the generated side (remark "generated elements compose"): the
        # element G_n(e) that P_n(e) generates has P_m(G_n(e)) = P_(mn)(e)
        for e in self.law_elements(20):
            twice = nth_az(generated(e, n), m)
            once = nth_az(e, m * n)
            assert [s.order for s in twice] == [e.order - 2, e.order - 3]
            assert twice == once, (e, m, n)

    def test_generated_second_of_second_is_not_third(self):
        for e in self.law_elements(20):
            assert nth_az(generated(e, 2), 2) != nth_az(e, 3), e

    def test_iterated_second_production_is_a_power_of_two(self):
        for e in self.law_elements(14):
            chain = iterate_second_production(e, 5)
            for j, step in enumerate(chain):
                want = produced_matrix_closed_form(e, 2**j).truncate(e.order - j)
                assert coefficients(step) == coefficients(want), (e, j)


class TestDerivationFacts:
    """Four facts the derivation reads (``docs/derivation.md``): dropping the
    top k rows of M is M P^k at finite size, column j >= k of P^k is
    x^(j-k) A^k, and A_n(f) and x Z_n(f) have closed forms."""

    @pytest.mark.parametrize("k", range(1, 7))
    def test_dropping_k_rows_is_m_times_p_to_the_k(self, k):
        size = 6
        x = TruncatedSeries([0, 1], 13)
        for e in (catalan_array(13), RiordanElement(2 + x, 3 * x / (1 - x))):
            m = frac_rows(e.matrix(size + k).rows)
            p = frac_rows(production_matrix(e, size + k).rows)
            product = m
            for _ in range(k):
                product = mat_mul_rows(product, p)
            assert [list(row[:size]) for row in product[:size]] == [
                list(row[:size]) for row in m[k : k + size]
            ], (e, k)

    @pytest.mark.parametrize("k", range(1, 5))
    def test_columns_of_p_to_the_k(self, k):
        # P is lower Hessenberg, so the leading size x size block of P^k is
        # read from the leading (size + k) x (size + k) block of P; the
        # control A^(k+1) in place of A^k fails on every element
        size = 6
        x = TruncatedSeries([0, 1], 13)
        elements = (
            catalan_array(13),
            RiordanElement(2 + x, 3 * x / (1 - x)),
            RiordanElement(3 / (3 - x), 2 * x / (1 - x / 5)),
        )
        for e in elements:
            p = frac_rows(production_matrix(e, size + k).rows)
            power = p
            for _ in range(k - 1):
                power = mat_mul_rows(power, p)
            a, _ = nth_az(e, 1)

            def columns(exponent):
                c = (a**exponent).coefficients
                return [
                    [c[i - j + k] if i >= j - k else 0 for i in range(size)]
                    for j in range(k, size)
                ]

            got = [[power[i][j] for i in range(size)] for j in range(k, size)]
            assert got == columns(k), (e, k)
            assert got != columns(k + 1), (e, k)

    @pytest.mark.parametrize("n", range(1, 8))
    def test_a_n_of_f(self, battery, non_normalized, n):
        # A_n(f) = (f/x)^n, to the order nth_az gives A_n; the control
        # (f/x)^(n+1) fails on every element but those with f = x, where
        # both powers are 1
        controls = 0
        for e in battery + non_normalized:
            a, _ = nth_az(e, n)
            left = a.compose(e.f).coefficients
            phi = e.f.shift_down(1)

            def right(power):
                return (phi**power).truncate(a.order).coefficients

            assert left == right(n), (e, n)
            if e.f != TruncatedSeries([0, 1], e.order):
                controls += 1
                assert left != right(n + 1), (e, n)
        assert controls > len(battery + non_normalized) * 0.9

    @pytest.mark.parametrize("n", range(1, 8))
    def test_z_n_of_f(self, battery, non_normalized, n):
        # x Z_n(f) = (f/x)^(n-1) - b0 g(0)/g with b0 = f'(0)^(n-1); the
        # control (f/x)^n in place of (f/x)^(n-1) fails on every element
        # but those with f = x, where both powers are 1
        controls = 0
        for e in battery + non_normalized:
            _, z = nth_az(e, n)
            left = z.compose(e.f).shift_up(1).coefficients
            phi = e.f.shift_down(1)
            tail = e.f.coefficient(1) ** (n - 1) * e.g.constant_term / e.g

            def right(power):
                return (phi**power - tail).truncate(len(left) - 1).coefficients

            assert left == right(n - 1), (e, n)
            if e.f != TruncatedSeries([0, 1], e.order):
                controls += 1
                assert left != right(n), (e, n)
        assert controls > len(battery + non_normalized) * 0.9


class TestVerification:
    def test_a085478_second_equal(self):
        report = verify_nth_conjecture(a085478_element(10), 2, 6)
        assert report.equal and report.first_mismatch is None
        assert report.produced == report.closed_form

    def test_catalan_fourth_equal(self):
        report = verify_nth_conjecture(catalan_array(12), 4, 7)
        assert report.equal
        assert report.produced == TriMatrix(ref.CATALAN_FOURTH_PRODUCED_7)

    def test_specific_random_element_n5(self):
        e = RiordanElement(
            TruncatedSeries([1, 1, 2], 14), TruncatedSeries([0, 1, 1, 3], 14)
        )
        report = verify_nth_conjecture(e, 5, 8)
        assert report.equal

    def test_non_normalized_battery_equal_up_to_scale(self, non_normalized):
        for e in non_normalized:
            g0, f1 = e.g.constant_term, e.f.coefficient(1)
            for n in range(1, 6):
                report = verify_nth_conjecture(e, n, 8)
                assert report.equal, (e, n, report.first_mismatch)
                assert report.scale == g0 * f1 ** (n - 1)
                assert report.closed_form.rows == tuple(
                    tuple(report.scale * c for c in row) for row in report.produced.rows
                )

    def test_closed_form_taken_only_to_the_compared_order(self, monkeypatch):
        # the closed form's reversion grows with the order it is taken at, so
        # verify takes it only as far as the size x size block reads
        orders = []

        def recording(e, n):
            orders.append(e.order)
            return produced_matrix_closed_form(e, n)

        monkeypatch.setattr("riordan.production.produced_matrix_closed_form", recording)
        size = 6
        report = verify_nth_conjecture(catalan_array(40), 3, size)
        assert report.equal
        assert orders and max(orders) <= size + 1

    def test_mismatch_beyond_scale_is_reported(self, monkeypatch):
        # doubling every row of P but the first changes the generated
        # triangle from row 2 on, and not by one common factor
        e = pascal(9)
        good = nth_production_matrix(e, 2, 5)
        bad = ProductionMatrix([good.rows[0]] + [[2 * c for c in row] for row in good.rows[1:]])
        monkeypatch.setattr(
            "riordan.production.nth_production_matrix", lambda *args: bad
        )
        report = verify_nth_conjecture(e, 2, 5)
        assert not report.equal and report.first_mismatch[0] == 2

    def test_json_document_shape(self):
        report = verify_nth_conjecture(pascal(9), 2, 5)
        doc = report.to_json_dict()
        assert report.scale == 1 and doc["scale"] == "1"
        assert doc["equal"] is True
        assert doc["first_mismatch"] is None
        assert doc["n"] == 2 and doc["size"] == 5
        assert doc["element"]["g"][0] == "1"
        assert len(doc["produced"]) == 5
        rebuilt = TriMatrix([[F(s) for s in row] for row in doc["closed_form"]])
        assert rebuilt == report.closed_form

    def test_json_document_reports_mismatch(self):
        a = TriMatrix([[1], [1, 1]])
        b = TriMatrix([[1], [2, 1]])
        report = VerificationReport(
            element=pascal(4), n=2, size=2, produced=a, closed_form=b,
            equal=False, first_mismatch=(1, 0),
        )
        doc = report.to_json_dict()
        assert doc["first_mismatch"] == {
            "row": 1, "col": 0, "produced": "1", "closed_form": "2",
        }
