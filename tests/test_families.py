import math
from fractions import Fraction as F

import pytest

import reference_data as ref
from riordan import (
    PrecisionError,
    RiordanElement,
    TriMatrix,
    TruncatedSeries,
    UnknownFamilyError,
    a085478_element,
    a085478_second_entry,
    a092276_entry,
    binomial_power,
    catalan_array,
    family_element,
    iterate_second_production,
    moment_array,
    moment_element,
    moment_entry,
    orthogonal_polys,
    pascal,
    produced_matrix_closed_form,
    production_matrix,
)


def poly_recurrence_step(prev, prev2, r):
    # (x - 2r) * P_(n-1) - r^2 * P_(n-2), on ascending coefficient lists
    shifted = [F(0)] + prev
    scaled = [-2 * r * c for c in prev] + [F(0)]
    tail = [-r * r * c for c in prev2] + [F(0), F(0)]
    return [a + b + c for a, b, c in zip(shifted, scaled, tail)]


class TestBinomialPowers:
    def test_r1_is_pascal(self):
        assert binomial_power(1, 8) == pascal(8)

    def test_r0_is_identity(self):
        assert binomial_power(0, 6) == RiordanElement.identity(6)

    def test_r2_entries(self):
        m = binomial_power(2, 7).matrix(7)
        for n in range(7):
            for k in range(n + 1):
                assert m[n, k] == 2 ** (n - k) * math.comb(n, k)
        # and B^2 multiplies out as pascal . pascal
        assert m == pascal(7).matrix(7).mul(pascal(7).matrix(7))

    def test_rational_parameter(self):
        e = binomial_power(F(1, 2), 5)
        assert e.g.coefficients == tuple(F(1, 2**n) for n in range(6))


class TestCatalanArray:
    def test_displayed_block(self):
        assert catalan_array(8).matrix(7) == TriMatrix.from_rows(ref.A033184_TRIANGLE_7)

    def test_first_two_columns_shifted(self):
        m = catalan_array(9).matrix(8)
        for n in range(1, 8):
            assert m[n, 0] == m[n, 1]

    def test_specific_entry(self):
        assert catalan_array(8).matrix(7)[6, 2] == 90


class TestMomentArrays:
    def test_r1_first_rows(self):
        m = moment_array(1, 3)
        assert m == TriMatrix.from_rows([[1], [2, 1], [5, 4, 1]])

    def test_r0_is_identity(self):
        assert moment_array(0, 5) == TriMatrix.from_rows(
            [[0] * i + [1] for i in range(5)]
        )

    @pytest.mark.parametrize("r", [F(-2), F(-1), F(1, 2), F(2), F(3)])
    def test_series_route_matches_closed_form(self, r):
        # the series route of moment_array against the entry formula
        m = moment_array(r, 7)
        for n in range(7):
            for k in range(n + 1):
                assert m[n, k] == moment_entry(r, n, k)

    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_tridiagonal_production_matrix(self, r):
        p = production_matrix(moment_element(r, 8), 6)
        for i in range(6):
            for j in range(min(i + 2, 6)):
                expected = 0
                if j == i + 1:
                    expected = 1
                elif j == i:
                    expected = 2 * r
                elif j == i - 1:
                    expected = r * r
                assert p[i, j] == expected

    def test_produced_by_second_production_of_binomial_power(self):
        for r in (1, 2, -1):
            assert produced_matrix_closed_form(
                binomial_power(r, 9), 2
            ) == moment_element(r, 8)

    def test_entry_domain_error(self):
        with pytest.raises(ValueError):
            moment_entry(1, 2, 3)


class TestOrthogonalPolys:
    def test_first_two(self):
        rows = orthogonal_polys(F(5), 2)
        assert rows[0].coeffs == (1,)
        assert rows[1].coeffs == (-10, 1)

    def test_p2_at_r1(self):
        rows = orthogonal_polys(1, 3)
        assert rows[2].coeffs == (3, -4, 1)

    def test_coefficient_rows_r1(self):
        rows = orthogonal_polys(1, 3)
        assert [list(r.coeffs) for r in rows] == [[1], [-2, 1], [3, -4, 1]]

    @pytest.mark.parametrize("r", [F(-1), F(1), F(2)])
    def test_recurrence_holds_through_degree_12(self, r):
        rows = orthogonal_polys(r, 13)
        polys = [list(row.coeffs) for row in rows]
        for n in range(2, 13):
            expected = poly_recurrence_step(polys[n - 1], polys[n - 2], r)
            assert polys[n] == expected[: n + 1]

    @pytest.mark.parametrize("r", [F(-1), F(1), F(2), F(1, 3)])
    def test_rows_invert_the_moment_array(self, r):
        size = 9
        coeff_matrix = TriMatrix.from_rows(
            [list(row.coeffs) for row in orthogonal_polys(r, size)]
        )
        product = moment_array(r, size).mul(coeff_matrix)
        assert product == TriMatrix.from_rows([[0] * i + [1] for i in range(size)])

    def test_monic_of_exact_degree(self):
        for n, row in enumerate(orthogonal_polys(F(3, 2), 7)):
            assert row.degree == n
            assert row.coeffs[-1] == 1


class TestClosedFormEntries:
    def test_a085478_second_entry_values(self):
        assert a085478_second_entry(0, 0) == 1
        assert a085478_second_entry(2, 0) == 12
        assert a085478_second_entry(3, 1) == 42

    def test_a085478_second_entry_matches_matrix(self):
        produced = produced_matrix_closed_form(a085478_element(9), 2).matrix(8)
        for n in range(8):
            for k in range(n + 1):
                assert a085478_second_entry(n, k) == produced[n, k]

    def test_a092276_values(self):
        assert a092276_entry(0, 0) == 1
        assert a092276_entry(3, 0) == 30
        assert a092276_entry(5, 2) == 182

    def test_a092276_matches_matrix(self):
        produced = produced_matrix_closed_form(catalan_array(8), 2).matrix(6)
        for n in range(6):
            for k in range(n + 1):
                assert a092276_entry(n, k) == produced[n, k]

    @pytest.mark.parametrize("func", [a085478_second_entry, a092276_entry])
    def test_domain_errors(self, func):
        with pytest.raises(ValueError):
            func(1, 2)
        with pytest.raises(ValueError):
            func(2, -1)


class TestIteratedProcess:
    def test_pascal_chain_doubles_the_exponent(self):
        chain = iterate_second_production(pascal(12), 3)
        assert len(chain) == 4
        for j, stage in enumerate(chain):
            order = stage.order
            base = TruncatedSeries([1, 1], order) ** (2**j)
            g = 1 / base
            expected = RiordanElement(g, g.shift_up(1).truncate(order)).inverse()
            assert stage == expected

    def test_identity_fixed_point(self):
        chain = iterate_second_production(RiordanElement.identity(10), 5)
        for stage in chain:
            assert stage == RiordanElement.identity(10)

    def test_appell_invariance(self):
        g = TruncatedSeries([1, 1, 1], 9)
        e = RiordanElement(g, TruncatedSeries.x(9))
        chain = iterate_second_production(e, 2)
        assert chain[1] == e and chain[2] == e

    def test_precision_exhaustion_names_the_step(self):
        with pytest.raises(PrecisionError) as err:
            iterate_second_production(pascal(3), 3)
        assert "step 3" in str(err.value)

    def test_one_step_agrees_with_numeric_route(self):
        e = pascal(10)
        numeric = produced_matrix_closed_form(e, 2).matrix(6)
        assert iterate_second_production(e, 1)[1].matrix(6) == numeric


class TestFamilyRegistry:
    @pytest.mark.parametrize(
        "spec, expected",
        [
            ("pascal", pascal(6)),
            ("catalan", catalan_array(6)),
            ("a085478", a085478_element(6)),
            ("binomial:2", binomial_power(2, 6)),
            ("moment:1/2", moment_element(F(1, 2), 6)),
        ],
    )
    def test_known_families(self, spec, expected):
        assert family_element(spec, 6) == expected

    def test_unknown_family_lists_names(self):
        with pytest.raises(UnknownFamilyError) as err:
            family_element("nosuch", 6)
        assert "pascal" in str(err.value)

    def test_parameter_requirements(self):
        with pytest.raises(UnknownFamilyError):
            family_element("binomial", 6)
        with pytest.raises(UnknownFamilyError):
            family_element("pascal:3", 6)
        with pytest.raises(UnknownFamilyError):
            family_element("moment:abc", 6)

    def test_parameter_digits_bounded_before_computing(self):
        # like an integer literal, a parameter is refused past 4300 digits;
        # a wider decimal exponent is refused before Fraction computes 10**k,
        # which takes seconds at 1e3000000 and minutes at 1e30000000
        for spec, reason in (
            ("binomial:1e5000", "decimal exponent exceeds 4300"),
            ("binomial:1e30000000", "decimal exponent exceeds 4300"),
            ("moment:1e-3000000", "decimal exponent exceeds 4300"),
            ("binomial:1e4300", "more than 4300 digits"),
        ):
            with pytest.raises(UnknownFamilyError) as err:
                family_element(spec, 5)
            assert reason in str(err.value)
        assert family_element("binomial:1e4299", 1).g.coefficient(1) == 10**4299
        assert family_element("binomial:-1/2", 5) == binomial_power(F(-1, 2), 5)
        assert family_element("moment:0.5", 5) == moment_element(F(1, 2), 5)
