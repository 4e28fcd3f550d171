import math
import operator
import random
import re
from fractions import Fraction as F

import pytest

import reference_data as ref
from helpers import (
    az_by_matrix_solve,
    az_by_reversion,
    block_by_matrix_solve,
    bell_entry,
    closed_form_by_group,
    closed_form_by_lagrange,
    closed_form_by_solve,
    element_battery,
    frac_rows,
    hankel_determinant,
    lower_inverse_rows,
    mat_mul_rows,
    non_normalized_battery,
    orthogonal_polys,
    orthogonal_rows_by_inverse_element,
    poly_mul,
    poly_power,
    power_by_squaring,
    production_by_series,
    production_by_whole_matrix,
    random_rationals,
    totally_positive,
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
    FAMILY_NAMES,
    a085478_element,
    a092276_entry,
    arrays,
    binomial_power,
    catalan_array,
    family_element,
    generate_from_production,
    iterate_second_production,
    moment_element,
    moment_entry,
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

        # riordan.arrays is the one module outside the kernel that builds rows
        assert not hasattr(production, "_powers")
        monkeypatch.setattr(arrays, "_powers", recording_powers)
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

        def times_toeplitz(p1, s, size):
            # the rows of P_1 T(s), one at a time, each entry (i, j) summed
            # where P_1 (Hessenberg) and T are nonzero
            s = s.coefficients
            return (
                tuple(sum((p1[i, k] * s[k - j] for k in range(j, min(i + 2, size + 1))), F(0))
                      for j in range(size))
                for i in range(size)
            )

        misses = 0
        for e, size, n in cases:
            p1 = production_matrix(e, size + 1)
            a = TruncatedSeries(p1.column(1))
            s = power_by_squaring(a, n - 1)
            got = nth_production_matrix(e, n, size)
            assert got == ProductionMatrix(times_toeplitz(p1, s, size)), (e, n, size)
            misses += any(map(operator.ne, got.rows, times_toeplitz(p1, s * a, size)))
        # control: T(A^n) in place of T(A^(n-1)) misses at least 90% of the cases
        assert misses >= 0.9 * len(cases), (misses, len(cases))

    def test_precision_error_reports_needed_order(self):
        with pytest.raises(PrecisionError) as err:
            nth_production_matrix(a085478_element(5), 2, 6)
        assert "order >= 7" in str(err.value)

    def test_bad_n_rejected(self):
        with pytest.raises(ValueError):
            nth_production_matrix(pascal(8), 0, 4)


class TestArgumentChecks:
    """Each production function, and ``RiordanElement.matrix``, checks n,
    then size, then the element's order; a case with n = 0 and size = 0 on
    an element too low for the call pins that order."""

    N = "n must be at least 1"
    SIZE = "size must be positive"

    @staticmethod
    def low(what, needed, order):
        return f"{what} needs the element at order >= {needed}, but it has order {order}"

    CASES = [
        ("production_block n", lambda: production_block(catalan_array(8), 0, 3), ValueError, N),
        ("production_block size", lambda: production_block(catalan_array(8), 2, 0), ValueError, SIZE),
        ("production_block both", lambda: production_block(catalan_array(1), 0, 0), ValueError, N),
        (
            "production_block order", lambda: production_block(catalan_array(3), 2, 3),
            PrecisionError, low("a size-3 block with 2 rows removed", 4, 3),
        ),
        ("nth_production_matrix n", lambda: nth_production_matrix(catalan_array(8), 0, 3), ValueError, N),
        ("nth_production_matrix size", lambda: nth_production_matrix(catalan_array(8), 2, 0), ValueError, SIZE),
        ("nth_production_matrix both", lambda: nth_production_matrix(catalan_array(1), 0, 0), ValueError, N),
        (
            "nth_production_matrix order n=1", lambda: nth_production_matrix(catalan_array(2), 1, 3),
            PrecisionError, low("the order-1 production matrix at size 3", 3, 2),
        ),
        (
            "nth_production_matrix order n=2", lambda: nth_production_matrix(catalan_array(3), 2, 3),
            PrecisionError, low("the order-2 production matrix at size 3", 4, 3),
        ),
        ("nth_az n", lambda: nth_az(catalan_array(8), 0), ValueError, N),
        ("nth_az both", lambda: nth_az(catalan_array(1), 0), ValueError, N),
        ("nth_az order", lambda: nth_az(catalan_array(1), 2), PrecisionError, low("A/Z extraction", 2, 1)),
        ("closed_form n", lambda: produced_matrix_closed_form(catalan_array(8), 0), ValueError, N),
        ("closed_form both", lambda: produced_matrix_closed_form(catalan_array(1), 0), ValueError, N),
        (
            "closed_form order", lambda: produced_matrix_closed_form(catalan_array(1), 2),
            PrecisionError, low("the produced-matrix closed form", 2, 1),
        ),
        ("matrix size", lambda: catalan_array(8).matrix(0), ValueError, SIZE),
        ("matrix order", lambda: catalan_array(3).matrix(5), PrecisionError, low("a 5x5 matrix", 4, 3)),
    ]

    @pytest.mark.parametrize("call, error, message", [c[1:] for c in CASES], ids=[c[0] for c in CASES])
    def test_message(self, call, error, message):
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            call()

    def test_closed_form_of_n_1_is_the_element_at_any_order(self):
        e = catalan_array(1)
        assert produced_matrix_closed_form(e, 1) is e


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

    @pytest.mark.parametrize("kind", ["normalized", "non_normalized"])
    def test_matches_lagrange_oracle(self, battery, non_normalized, kind):
        # derivation step 4, entry by entry: the oracle shares no step with
        # the library; n = 1..12 covers the primes 5, 7 and 11
        elements = battery[:12] if kind == "normalized" else non_normalized
        for e in elements:
            for n in range(1, 13):
                report = verify_nth_conjecture(e, n, 7)
                assert report.equal, (e, n, report.first_mismatch)
                assert report.closed_form.rows == closed_form_by_lagrange(e, n, 7), (e, n)

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


def bell_element(a, order):
    """(f/x, f) with f = x A(f), that is f = rev(x/A), at ``order``."""
    f = (1 / TruncatedSeries(a, order)).shift_up(1).revert()
    return RiordanElement(f.shift_down(1), f.truncate(order))


def bell_elements(order):
    """Two seeded rational Bell elements for each a0 in {1, 2, -1/3, 5/2}:
    (A, element) pairs, A a coefficient list of 2 to 5 terms."""
    rng = random.Random(20261020)
    out = []
    for a0 in (F(1), F(2), F(-1, 3), F(5, 2)):
        for _ in range(2):
            a = [a0, *random_rationals(rng, rng.randint(1, 4))]
            out.append((a, bell_element(a, order)))
    return out


class TestBellSubgroup:
    """``docs/derivation.md``, "The Bell subgroup": for e = (f/x, f) with
    f = x A(f), Pi_n(e) is the Bell element of A^n, with entries
    (k+1)/(m+1) [t^(m-k)] A^(n(m+1)) (``helpers.bell_entry``)."""

    SIZE = 7

    def bell_rows(self, a, n, size=SIZE):
        return frac_rows([[bell_entry(a, n, m, k) for k in range(m + 1)] for m in range(size)])

    def test_closed_form_and_generated_matrix_are_bell_entries(self):
        for a, e in bell_elements(self.SIZE + 2):
            for n in range(1, 13):
                # the report's closed form is produced_matrix_closed_form's matrix
                report = verify_nth_conjecture(e, n, self.SIZE)
                assert report.equal and report.scale == a[0] ** n, (a, n)
                assert report.closed_form.rows == self.bell_rows(a, n), (a, n)

    def test_exponent_one_higher_fails(self):
        # control: (k+1)/(m+1) [t^(m-k)] A^(n(m+1)+1) misses every element
        for a, e in bell_elements(self.SIZE + 2):
            for n in range(1, 5):
                closed = produced_matrix_closed_form(e, n).matrix(self.SIZE)
                assert any(
                    F(k + 1, m + 1) * poly_power(a, n * (m + 1) + 1, m - k)[m - k] != closed[m, k]
                    for m in range(self.SIZE)
                    for k in range(m + 1)
                ), (a, n)

    def test_catalan_is_fuss_catalan(self):
        # A = 1/(1-t): Pi_n(catalan) = (B_(n+1)^n, x B_(n+1)^n), whose entries
        # are n(k+1)/((n+1)m - k + n) C((n+1)m - k + n, m - k)
        ones = [F(1)] * 6
        for n in range(1, 51):
            for m in range(6):
                for k in range(m + 1):
                    top = (n + 1) * m - k + n
                    want = F(n * (k + 1), top) * math.comb(top, m - k)
                    assert bell_entry(ones, n, m, k) == want, (n, m, k)
                    if n == 2:
                        assert want == a092276_entry(m, k)
        assert produced_matrix_closed_form(catalan_array(8), 7).matrix(6).rows == self.bell_rows(ones, 7, 6)

    @pytest.mark.parametrize("r", [F(1), F(2), F(-1, 3)])
    def test_binomial_power_entries(self, r):
        # A = 1 + r t: n(k+1)/(n(m+1) - m + k) C(n(m+1) - 1, m - k) r^(m-k)
        for n in range(1, 51):
            for m in range(6):
                for k in range(m + 1):
                    want = (
                        F(n * (k + 1), n * (m + 1) - m + k)
                        * math.comb(n * (m + 1) - 1, m - k)
                        * r ** (m - k)
                    )
                    assert bell_entry([F(1), r], n, m, k) == want, (n, m, k)
        assert produced_matrix_closed_form(binomial_power(r, 8), 5).matrix(6).rows == self.bell_rows([1, r], 5, 6)

    @pytest.mark.parametrize("r", [F(1), F(1, 2), F(-3)])
    def test_moment_is_second_of_binomial(self, r):
        # moment:r = Pi_2(binomial:r), so Pi_n(moment:r) = Pi_2n(binomial:r)
        size = 8
        second = produced_matrix_closed_form(binomial_power(r, size + 1), 2)
        assert second.matrix(size) == moment_element(r, size).matrix(size)
        for m in range(size):
            for k in range(m + 1):
                assert bell_entry([1, r], 2, m, k) == moment_entry(r, m, k)
        for n in (1, 2, 3, 5):
            got = produced_matrix_closed_form(moment_element(r, size + 1), n).matrix(size)
            assert got.rows == self.bell_rows([1, r], 2 * n, size), n


def jacobi_matrix(b, lam, up):
    """The Jacobi matrix of size len(b) with P[k, k] = b[k], P[k, k-1] = lam[k]
    and P[k, k+1] = up[k] (lam[0] and the last up unread)."""
    size = len(b)
    return ProductionMatrix(
        [{k - 1: lam[k], k: b[k], k + 1: up[k]}.get(j, 0) for j in range(size)] for k in range(size)
    )


def jacobi_matrices(size):
    """Jacobi matrices off the Riordan shape, by name: Hermite (b_k = 0,
    lambda_k = k), Laguerre (b_k = 2k + 1, lambda_k = k^2), each with unit
    superdiagonal, and seeded ones with random nonzero rationals on all three
    diagonals."""
    ones = [F(1)] * size
    out = {
        "hermite": jacobi_matrix([F(0)] * size, list(map(F, range(size))), ones),
        "laguerre": jacobi_matrix([F(2 * k + 1) for k in range(size)], [F(k * k) for k in range(size)], ones),
    }
    rng = random.Random(1980)

    def nonzero():
        return [F(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 12)) for _ in range(size)]

    for seed in range(3):
        out[f"seeded-{seed}"] = jacobi_matrix(nonzero(), nonzero(), nonzero())
    return out


class TestJacobi:
    """``ProductionMatrix.orthogonal_rows``: the rows of M^-1 exactly when P
    is a Jacobi matrix at its size, by Favard's recurrence
    (``docs/derivation.md``, "The Bell subgroup")."""

    SIZE = 9
    JACOBI = jacobi_matrices(SIZE)

    @staticmethod
    def az_element(a, z, order):
        return RiordanElement.from_az(TruncatedSeries(a, order), TruncatedSeries(z, order))

    @staticmethod
    def assert_three_term(p, rows):
        # x p_k = P[k,k+1] p_(k+1) + P[k,k] p_k + P[k,k-1] p_(k-1), on rows
        # padded to ``size`` terms, for every k with p_(k+1) among the rows
        size = len(rows)
        pad = [list(row) + [F(0)] * (size - len(row)) for row in rows]
        for k in range(size - 1):
            below = pad[k - 1] if k else [F(0)] * size
            rhs = [
                p[k, k + 1] * up + p[k, k] * here + (p[k, k - 1] if k else 0) * down
                for up, here, down in zip(pad[k + 1], pad[k], below)
            ]
            assert [F(0)] + pad[k][:-1] == rhs, k

    @pytest.mark.parametrize("r", [F(-1), F(1, 3), F(1, 2), F(2), F(3)])
    def test_moment_rows_follow_the_recurrence(self, r):
        p = production_matrix(moment_element(r, self.SIZE), self.SIZE)
        rows = p.orthogonal_rows(1)
        self.assert_three_term(p, rows)
        # b_k = 2r and lambda_k = r^2, the moved oracle's recurrence
        assert {p[k, k] for k in range(self.SIZE)} == {2 * r}
        assert {p[k, k - 1] for k in range(1, self.SIZE)} == {r * r}
        assert list(rows) == orthogonal_polys(r, self.SIZE)

    def test_second_production_of_a_linear_pair(self):
        # A = 1 + 2t, Z = 3 + t/2: P_2 has A^2 and Z_2 = 5 + 9t/2, a Jacobi
        # matrix; its rows are the inverse of Pi_2(e)'s matrix (c = 1)
        e = self.az_element([1, 2], [3, F(1, 2)], self.SIZE + 1)
        p = nth_production_matrix(e, 2, self.SIZE)
        rows = p.orthogonal_rows(1)
        self.assert_three_term(p, rows)
        closed = produced_matrix_closed_form(e, 2).matrix(self.SIZE)
        assert TriMatrix(rows) == closed.inverse()

    def test_tridiagonal_with_a_zero_subdiagonal_has_no_rows(self):
        # P_1 of the same pair is tridiagonal, but its P[k, k-1] = A's t^2
        # term = 0 for k >= 2: at size 2 it is a Jacobi matrix, past it not;
        # the recurrence still holds for the rows of M^-1
        e = self.az_element([1, 2], [3, F(1, 2)], self.SIZE + 1)
        p = production_matrix(e, self.SIZE)
        assert p.orthogonal_rows(1) is None
        assert TriMatrix(production_matrix(e, 2).orthogonal_rows(1)) == e.matrix(2).inverse()
        inverse = e.matrix(self.SIZE).inverse().rows
        self.assert_three_term(p, [row[: i + 1] for i, row in enumerate(inverse)])

    def test_controls_return_none(self):
        e = self.az_element([1, 2], [3, F(1, 2)], self.SIZE + 1)
        assert nth_production_matrix(e, 3, self.SIZE).orthogonal_rows(1) is None
        for size in range(3, self.SIZE + 1):
            assert production_matrix(catalan_array(size), size).orthogonal_rows(1) is None

    @pytest.mark.parametrize("name", FAMILY_NAMES)
    def test_rows_are_the_inverse_where_the_rule_holds(self, name):
        # the rule's sizes on every family: moment:r at every size, catalan
        # at sizes 1 and 2, the others at size 1, where the one row is 1/g(0)
        spec = name.replace(":r", ":1/2")
        sizes = {"moment:1/2": range(1, 8), "catalan": (1, 2)}.get(spec, (1,))
        for size in range(1, 8):
            e = family_element(spec, size + 1)
            rows = production_matrix(e, size).orthogonal_rows(1)
            assert (rows is not None) == (size in sizes), size
            if rows is not None:
                assert TriMatrix(rows) == e.matrix(size).inverse()

    @pytest.mark.parametrize("g0", [F(2), F(-3, 4)])
    def test_rows_divide_by_g0(self, g0):
        m = moment_element(F(1, 2), self.SIZE)
        e = RiordanElement(g0 * m.g, m.f)
        p = production_matrix(e, self.SIZE)
        assert p == production_matrix(m, self.SIZE)
        assert TriMatrix(p.orthogonal_rows(g0)) == e.matrix(self.SIZE).inverse()

    @pytest.mark.parametrize("g0", [F(1), F(2), F(-3, 5)])
    @pytest.mark.parametrize("name", list(JACOBI))
    def test_rows_off_the_riordan_shape(self, name, g0):
        # columns past 0 are no shifts of column 1, so no A- and Z-series
        # describe P; the rows are still M^-1 for M = g0 T, T generated by P
        p = self.JACOBI[name]
        rows = p.orthogonal_rows(g0)
        self.assert_three_term(p, rows)
        inverse = generate_from_production(p, self.SIZE).inverse().rows
        assert rows == tuple(tuple(c / g0 for c in row[: k + 1]) for k, row in enumerate(inverse))
        want = {"hermite": (4, [3, 0, -6, 0, 1]), "laguerre": (3, [-6, 18, -9, 1])}
        if name in want and g0 == 1:
            k, row = want[name]
            assert list(rows[k]) == row

    def test_riordan_shape_matches_the_inverse_element(self):
        # A = a0 + a1 t + a2 t^2 and Z = z0 + z1 t with a0, a2, z1 nonzero:
        # P_1 is a Jacobi matrix at every size, of Riordan shape, where the
        # former route through the inverse element is right
        rng = random.Random(2011)

        def nonzero():
            return F(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 6))

        for _ in range(6):
            a = [nonzero(), *random_rationals(rng, 1), nonzero()]
            z = [*random_rationals(rng, 1), nonzero()]
            e = self.az_element(a, z, self.SIZE)
            for size in range(1, self.SIZE + 1):
                p = production_matrix(e, size)
                for g0 in (F(1), F(2), F(-3, 5)):
                    rows = p.orthogonal_rows(g0)
                    assert rows is not None, (a, z, size)
                    assert rows == orthogonal_rows_by_inverse_element(p, g0), (a, z, size, g0)

    def test_zero_superdiagonal_has_no_rows(self):
        # Favard divides by P[k, k+1]: a zero there, first or later, is no
        # Jacobi matrix; the block above the zero still is one
        b, lam = [F(1)] * 5, [F(2)] * 5
        for k in (0, 3):
            up = [F(1)] * 5
            up[k] = F(0)
            p = jacobi_matrix(b, lam, up)
            assert p.orthogonal_rows(1) is None, k
            assert jacobi_matrix(b[: k + 1], lam, up).orthogonal_rows(1) is not None, k

    def test_zero_g0_is_a_zero_division_error(self):
        with pytest.raises(ZeroDivisionError):
            self.JACOBI["hermite"].orthogonal_rows(0)

    @pytest.mark.parametrize("name", ["moment:1/2", "from_az", *JACOBI])
    def test_hankel_determinants_of_column_zero(self, name):
        # det(mu_(i+j)) for 0 <= i, j <= m is prod_k (P[k-1, k] P[k, k-1])^(m+1-k),
        # which is lambda_1^m lambda_2^(m-1)...lambda_m with lambda_k = P[k, k-1]
        # on a unit superdiagonal (Barry 2011); mu is column 0 of the triangle
        # P generates; the second element is from_az(1 + 2t - t^2/3, 3 + t/2)
        if name in self.JACOBI:
            p = self.JACOBI[name]
        else:
            order = self.SIZE + 1
            if name == "from_az":
                e = self.az_element([1, 2, F(-1, 3)], [3, F(1, 2)], order)
            else:
                e = family_element(name, order)
            p = production_matrix(e, self.SIZE)
        assert p.orthogonal_rows(1) is not None
        mu = generate_from_production(p, self.SIZE).column(0)
        for m in range(5):
            want = math.prod((p[k - 1, k] * p[k, k - 1]) ** (m + 1 - k) for k in range(1, m + 1))
            assert hankel_determinant(mu, m) == want, m


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


class TestFixedPoints:
    """Pi_n(e) = e exactly when h_n = (x/f)^(n-1) = 1: f = x at every n,
    f = -x at odd n, and every element at n = 1 (``docs/derivation.md``,
    "Fixed points of Pi_n")."""

    ORDER = 12

    @pytest.mark.parametrize(
        "g, f, fixed",
        [
            ([1] * 13, [0, 1], range(1, 7)),  # (1/(1-x), x)
            ([1, 0, 1], [0, -1], (1, 3, 5)),  # (1 + x^2, -x)
            ([2, 1], [0, -1], (1, 3, 5)),  # (2 + x, -x)
            ([1], [0] + [1] * 12, (1,)),  # (1, x/(1-x))
        ],
    )
    def test_fixed_exactly_where_h_n_is_one(self, g, f, fixed):
        e = RiordanElement(TruncatedSeries(g, self.ORDER), TruncatedSeries(f, self.ORDER))
        for n in range(1, 7):
            assert (produced_matrix_closed_form(e, n) == e) == (n in fixed), n

    def test_batteries(self, battery, non_normalized):
        fixed_past_1 = 0
        for e in battery + non_normalized:
            x = TruncatedSeries([0, 1], e.order)
            for n in range(1, 5):
                rule = n == 1 or e.f == x or (e.f == -x and n % 2 == 1)
                assert (produced_matrix_closed_form(e, n) == e) == rule, (e, n)
                fixed_past_1 += rule and n > 1
        assert fixed_past_1  # the batteries hold an element with f = x


def tridiagonal(p):
    """Zero below the subdiagonal (a Jacobi matrix may still have a zero on it)."""
    return not any(c for i in range(2, p.size) for c in p.rows[i][: i - 1])


def tridiagonal_by_rule(deg_a, deg_z, n):
    """The shape rule for polynomial A and Z of P_1 (``docs/derivation.md``,
    "When P_n is tridiagonal"); a zero polynomial has degree -1."""
    return deg_z <= 1 and deg_a <= {1: 2, 2: 1}.get(n, 0)


def degree(coefficients):
    return max((k for k, c in enumerate(coefficients) if c), default=-1)


class TestTridiagonalShape:
    """P_n is zero below its subdiagonal exactly when A_n = A^n has degree
    <= 2 and Z_n degree <= 1; for polynomial A that is n = 1 with deg A <= 2,
    n = 2 with deg A <= 1, or n >= 3 with A constant, each with deg Z <= 1."""

    SIZE = 8

    @pytest.mark.parametrize(
        "name, tridiagonal_at",
        [("pascal", {1, 2}), ("binomial:2", {1, 2}), ("moment:1/2", {1}), ("catalan", set())],
    )
    def test_families(self, name, tridiagonal_at):
        e = family_element(name, self.SIZE + 1)
        for n in (1, 2, 3, 4, 8):
            assert tridiagonal(nth_production_matrix(e, n, self.SIZE)) == (n in tridiagonal_at), n

    @staticmethod
    def tuned_z(a, z_n, n):
        """The Z for which P_n has the Z-series ``z_n``, for polynomial A:
        derivation step 3, Z_n = b0 Z + A (A^(n-1) - b0)/x, solved for Z."""
        top = (len(a) - 1) * n
        b = poly_power(a, n - 1, top)
        shifted = poly_mul(a, b[1:], top)  # A (A^(n-1) - b0)/x
        return [(F(want) - have) / b[0] for want, have in zip(z_n + [0] * top, shifted)]

    @pytest.mark.parametrize("tuned", [False, True])
    def test_seeded_az_elements_of_each_degree(self, tuned):
        # random nonzero coefficients, so no term cancels by chance; a tuned
        # Z makes Z_n linear, so that only A_n decides the shape
        rng = random.Random(2011)

        def poly(deg):
            return [F(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 4)) for _ in range(deg + 1)]

        order = self.SIZE + 1
        for deg_a in range(4):
            for deg_z in range(3):
                for n in range(1, 6):
                    a = poly(deg_a)
                    z = self.tuned_z(a, poly(deg_z % 2), n) if tuned else poly(deg_z)
                    e = RiordanElement.from_az(TruncatedSeries(a, order), TruncatedSeries(z, order))
                    p = nth_production_matrix(e, n, self.SIZE)
                    assert tridiagonal(p) == tridiagonal_by_rule(deg_a, degree(z), n), (a, z, n)
                    if n >= 3:  # a tridiagonal P_n has a constant A_n: no Jacobi matrix
                        assert p.orthogonal_rows(1) is None, (a, z, n)

    def test_a_need_not_be_a_polynomial_past_n_1(self):
        # A = sqrt(1 + 2x + 3x^2), Z = 1 + x/2 - A (A - 1)/x: A_2 = 1 + 2x + 3x^2
        # and Z_2 = 1 + x/2, so P_2 is a Jacobi matrix; P_1 and P_3 are not
        order = self.SIZE + 2
        a = TruncatedSeries([1, 2, 3], order).sqrt()
        z = (TruncatedSeries([1, F(1, 2)], order) - a * (a - 1).shift_down(1)).truncate(order - 1)
        e = RiordanElement.from_az(a.truncate(order - 1), z)
        p = nth_production_matrix(e, 2, self.SIZE)
        assert tridiagonal(p) and p.orthogonal_rows(1) is not None
        assert p.column(0) == (1, F(1, 2)) + (0,) * (self.SIZE - 2)
        assert p.column(1) == (1, 2, 3) + (0,) * (self.SIZE - 3)
        for n in (1, 3):
            assert not tridiagonal(nth_production_matrix(e, n, self.SIZE)), n


class TestTotalPositivity:
    """A totally positive P_1 makes every P_n and Pi_n(e) totally positive
    (``docs/derivation.md``, "Total positivity"): every minor of each
    leading 6 x 6 block is nonnegative.  The converse fails: (1, x(1+x)/(1-x))
    has no totally positive P_n but a totally positive Pi_n(e), so no test
    asserts it."""

    SIZE = 6

    def test_helper_reads_every_minor(self):
        # no negative entry or 2 x 2 minor, and a determinant of -1
        assert not totally_positive([[1, 1, 0], [1, 1, 1], [0, 1, 1]])
        assert totally_positive([[1, 0, 0], [1, 1, 0], [1, 2, 1]])

    @pytest.mark.parametrize("name", ["catalan", "moment:1/2", "pascal"])
    def test_families(self, name):
        e = family_element(name, self.SIZE + 1)
        for n in range(1, 5):
            assert totally_positive(nth_production_matrix(e, n, self.SIZE).rows), n
            assert totally_positive(produced_matrix_closed_form(e, n).matrix(self.SIZE).rows), n

    def test_control(self):
        # (1, x - x^2): A = (1 + sqrt(1 - 4x))/2 = 1 - x - x^2 - ..., so P_1
        # has negative entries; so do P_n and Pi_n(e) at every n tested
        order = self.SIZE + 1
        e = RiordanElement(TruncatedSeries([1], order), TruncatedSeries([0, 1, -1], order))
        for n in range(1, 5):
            assert not totally_positive(nth_production_matrix(e, n, self.SIZE).rows), n
            assert not totally_positive(produced_matrix_closed_form(e, n).matrix(self.SIZE).rows), n


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

    # the text of a report, as verify prints it
    MISMATCH_TEXT = (
        "n=2 size=2: MISMATCH at (1, 0): produced=1 closed_form=2\n"
        "produced:\n1  0\n1  1\nclosed form:\n1  0\n2  1"
    )
    SCALED_MISMATCH_TEXT = (
        "n=2 size=2: MISMATCH at (1, 0): produced=1 closed_form=3 scale=2\n"
        "produced:\n1  0\n1  1\nclosed form:\n2  0\n3  2"
    )

    def test_text_of_an_equal_report(self):
        assert verify_nth_conjecture(catalan_array(12), 4, 7).to_text() == "n=4 size=7: equal"

    def test_text_of_a_mismatch(self):
        report = VerificationReport(
            element=pascal(4), n=2, size=2, produced=TriMatrix([[1], [1, 1]]),
            closed_form=TriMatrix([[1], [2, 1]]), equal=False, first_mismatch=(1, 0),
        )
        assert report.to_text() == self.MISMATCH_TEXT

    def test_text_of_a_mismatch_names_a_scale_other_than_one(self):
        report = VerificationReport(
            element=pascal(4), n=2, size=2, produced=TriMatrix([[1], [1, 1]]),
            closed_form=TriMatrix([[2], [3, 2]]), equal=False, first_mismatch=(1, 0),
            scale=F(2),
        )
        assert report.to_text() == self.SCALED_MISMATCH_TEXT

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
