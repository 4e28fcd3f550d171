import math
import random
from fractions import Fraction as F

import pytest

from helpers import (
    binomial_series,
    catalan_number,
    random_series,
    revert_by_recurrence,
)
from riordan import (
    CompositionError,
    NonUnitError,
    PrecisionError,
    ReversionError,
    SqrtError,
    TriMatrix,
    TruncatedSeries,
    binomial_power,
    catalan_gf,
    moment_element,
    moment_entry,
    production_matrix,
)


def geometric(order):
    return 1 / TruncatedSeries([1, -1], order)


class TestCoefficientAccess:
    def test_geometric_coefficient(self):
        s = geometric(5)
        assert s.coefficient(3) == 1
        assert s.coefficients == (1, 1, 1, 1, 1, 1)

    def test_x_over_one_minus_x_squared(self):
        # [x^n] x/(1-x)^2 = n, by the binomial expansion of (1-x)^-2
        s = TruncatedSeries([0, 1], 6) * (TruncatedSeries([1, -1], 6) ** -2)
        for n in range(6):
            assert s.coefficient(n) == n

    def test_beyond_order_is_loud(self):
        s = geometric(5)
        with pytest.raises(PrecisionError):
            s.coefficient(6)
        with pytest.raises(PrecisionError):
            _ = s[17]

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            geometric(3).coefficient(-1)


class TestRingOps:
    def test_difference_of_squares(self):
        a = TruncatedSeries([1, 1], 5)
        b = TruncatedSeries([1, -1], 5)
        assert (a * b).coefficients == (1, 0, -1, 0, 0, 0)

    def test_mul_takes_min_order(self):
        a = TruncatedSeries([1, 1], 7)
        b = TruncatedSeries([1, -1], 4)
        assert (a * b).order == 4

    def test_geometric_squared(self):
        # 1/(1-x)^2 has coefficients n+1
        sq = geometric(8) * geometric(8)
        assert sq.coefficients == tuple(n + 1 for n in range(9))

    def test_add_zero_identity(self):
        s = random_series(random.Random(1), 9)
        assert s + TruncatedSeries([0], 9) == s

    def test_scalar_mixing(self):
        s = TruncatedSeries([1, 2, 3])
        assert (1 - s).coefficients == (0, -2, -3)
        assert (s * 2).coefficients == (2, 4, 6)
        assert (s / 2).coefficients == (F(1, 2), 1, F(3, 2))

    def test_commutative_associative_battery(self):
        rng = random.Random(42)
        for _ in range(25):
            a = random_series(rng, 16)
            b = random_series(rng, 16)
            c = random_series(rng, 16)
            assert a * b == b * a
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c


class TestDivision:
    def test_geometric_series(self):
        s = 1 / TruncatedSeries([1, -1], 6)
        assert s.coefficients == (1,) * 7

    def test_nonunit_divisor_rejected(self):
        x = TruncatedSeries([0, 1], 5)
        with pytest.raises(NonUnitError):
            x / x

    def test_inverse_square_alternating(self):
        # 1/(1+x)^2 has coefficients (-1)^n (n+1)
        s = 1 / (TruncatedSeries([1, 1], 7) ** 2)
        assert s.coefficients == tuple(F((-1) ** n * (n + 1)) for n in range(8))

    def test_div_mul_roundtrip_battery(self):
        rng = random.Random(7)
        for _ in range(25):
            a = random_series(rng, 12)
            b = random_series(rng, 12)
            if not b.constant_term:
                b = b + 1 if b.constant_term != -1 else b + 2
            assert (a / b) * b == a


class TestComposition:
    def test_identity_inner(self):
        s = TruncatedSeries([3, 1, 4, 1, 5], 8)
        assert s.compose(TruncatedSeries([0, 1], 8)) == s

    def test_geometric_at_geometric_times_x(self):
        # 1/(1-x) at x/(1-x) simplifies to (1-x)/(1-2x): 1, 1, 2, 4, 8, ...
        outer = geometric(9)
        inner = TruncatedSeries([0, 1], 9) * geometric(9)
        expected = (F(1),) + tuple(F(2) ** (n - 1) for n in range(1, 10))
        assert outer.compose(inner).coefficients == expected

    def test_nonzero_constant_rejected(self):
        with pytest.raises(CompositionError):
            geometric(4).compose(TruncatedSeries([1, 1], 4))

    def test_associativity_battery(self):
        rng = random.Random(11)
        for _ in range(15):
            a = random_series(rng, 10)
            b = TruncatedSeries([0] + [rng.randint(-3, 3) for _ in range(10)])
            c = TruncatedSeries([0] + [rng.randint(-3, 3) for _ in range(10)])
            assert a.compose(b).compose(c) == a.compose(b.compose(c))


class TestReversion:
    def test_identity(self):
        x = TruncatedSeries([0, 1], 6)
        assert x.revert() == x

    def test_x_over_one_minus_x(self):
        f = TruncatedSeries([0, 1], 7) * geometric(7)
        expected = tuple(
            F(0) if n == 0 else F((-1) ** (n - 1)) for n in range(8)
        )  # x/(1+x)
        assert f.revert().coefficients == expected

    def test_x_over_one_minus_x_squared(self):
        # reversion has coefficients (-1)^(n-1) * catalan(n)
        f = TruncatedSeries([0, 1], 9) * (TruncatedSeries([1, -1], 9) ** -2)
        rev = f.revert()
        assert rev.coefficients[:6] == (0, 1, -2, 5, -14, 42)
        for n in range(1, 10):
            assert rev.coefficient(n) == F((-1) ** (n - 1) * catalan_number(n))

    def test_roundtrip_battery(self):
        rng = random.Random(5)
        x = TruncatedSeries([0, 1], 12)
        for _ in range(20):
            f = TruncatedSeries(
                [0, rng.choice([1, -1, 2])]
                + [rng.randint(-3, 3) for _ in range(11)]
            )
            rev = f.revert()
            assert f.compose(rev) == x
            assert rev.compose(f) == x

    @pytest.mark.parametrize(
        "units, tail",
        [
            ([1], range(-3, 4)),  # normalized
            ([-3, -1, 2, 5], range(-3, 4)),  # non-normalized
            (
                [F(-2, 3), F(3, 4), F(5, 2)],
                [F(p, q) for p in (-2, 1, 3) for q in (1, 2, 5)],
            ),
        ],
        ids=["normalized", "non_normalized", "rational"],
    )
    def test_matches_order_by_order_recurrence(self, units, tail):
        rng = random.Random(30)
        tail = list(tail)
        for order in (1, 2, 3, 8, 30):
            coeffs = [0, rng.choice(units)] + [rng.choice(tail) for _ in range(order - 1)]
            rev = TruncatedSeries(coeffs).revert()
            assert list(rev.coefficients) == revert_by_recurrence(coeffs, order)

    @pytest.mark.parametrize(
        "coeffs", [[1, 1], [0, 0, 1], [0]]
    )
    def test_not_revertible(self, coeffs):
        with pytest.raises(ReversionError):
            TruncatedSeries(coeffs, 5).revert()


class TestSqrt:
    def test_sqrt_one(self):
        assert TruncatedSeries([1], 5).sqrt() == TruncatedSeries([1], 5)

    def test_sqrt_one_minus_4x(self):
        s = TruncatedSeries([1, -4], 8).sqrt()
        assert s.coefficients == tuple(binomial_series(F(1, 2), -4, 8))
        assert s.coefficients[:5] == (1, -2, -2, -4, -10)

    def test_square_roundtrip_battery(self):
        rng = random.Random(3)
        for _ in range(20):
            r = random_series(rng, 10)
            if not r.constant_term:
                r = r + 1
            s = r * r
            root = s.sqrt()
            assert root * root == s
            assert root.constant_term > 0

    @pytest.mark.parametrize("coeffs", [[0, 1], [2], [-1], [F(3, 5)]])
    def test_no_rational_root(self, coeffs):
        with pytest.raises(SqrtError) as err:
            TruncatedSeries(coeffs, 4).sqrt()
        assert str(err.value) == (
            f"constant term {F(coeffs[0])} has no nonzero rational square root"
        )

    def test_no_rational_root_past_the_print_limit(self):
        # str() of the constant term would raise ValueError; the message names
        # the print limit in its place
        with pytest.raises(SqrtError) as err:
            TruncatedSeries([10**4401, 1]).sqrt()
        assert str(err.value) == (
            "constant term <a number of more than 4300 digits> has no nonzero rational square root"
        )


class TestIntPow:
    def test_square(self):
        assert (TruncatedSeries([1, -1], 4) ** 2).coefficients == (1, -2, 1, 0, 0)

    def test_negative_power(self):
        s = TruncatedSeries([1, -1], 6) ** -2
        assert s.coefficients == tuple(n + 1 for n in range(7))

    def test_power_zero(self):
        assert TruncatedSeries([5, 1], 4) ** 0 == TruncatedSeries([1], 4)

    def test_negative_power_of_nonunit(self):
        for coeffs in ([0, 1], [0], [0, 0, 3]):
            with pytest.raises(NonUnitError) as err:
                TruncatedSeries(coeffs, 4) ** -1
            assert str(err.value) == (
                "negative power requires a series with nonzero constant term"
            )

    def test_powers_of_a_zero_constant_term(self):
        s = TruncatedSeries([0, 1, 1], 6)
        assert (s**2).coefficients == (0, 0, 1, 2, 1, 0, 0)
        assert (s**7).is_zero() and (s**7).order == 6
        assert (TruncatedSeries([0], 3) ** 0) == TruncatedSeries([1], 3)
        assert (TruncatedSeries([0], 3) ** 5).is_zero()

    def test_power_cost_does_not_grow_with_the_exponent(self):
        # coefficient k of (1 + x)^(10^12) is binomial(10^12, k)
        big = 10**12
        got = (TruncatedSeries([1, 1], 5) ** big).coefficients
        assert got == tuple(math.comb(big, k) for k in range(6))
        assert (TruncatedSeries([1, 1], 5) ** -big).coefficients[2] == math.comb(big + 1, 2)


class TestCatalan:
    def test_first_values(self):
        c = catalan_gf(6)
        assert c.coefficients == (1, 1, 2, 5, 14, 42, 132)

    def test_matches_binomial_formula(self):
        c = catalan_gf(12)
        for n in range(13):
            assert c.coefficient(n) == catalan_number(n)

    def test_functional_equation(self):
        # c = 1 + x c^2 exactly at every truncation
        for order in (0, 1, 5, 12):
            c = catalan_gf(order)
            rhs = 1 + (c * c).shift_up(1).truncate(order)
            assert rhs == c


class TestStructure:
    def test_equality_up_to_min_order(self):
        assert TruncatedSeries([1, 2, 3]) == TruncatedSeries([1, 2])
        assert TruncatedSeries([1, 2, 3]) != TruncatedSeries([1, 5])

    def test_unhashable(self):
        with pytest.raises(TypeError):
            hash(TruncatedSeries([1]))

    def test_truncate_never_pads(self):
        s = TruncatedSeries([1, 2, 3])
        assert s.truncate(1).coefficients == (1, 2)
        with pytest.raises(PrecisionError):
            s.truncate(5)

    def test_constructor_pads_and_truncates(self):
        assert TruncatedSeries([1, 2], 4).coefficients == (1, 2, 0, 0, 0)
        assert TruncatedSeries([1, 2, 3, 4], 1).coefficients == (1, 2)

    def test_shifts(self):
        s = TruncatedSeries([1, 2, 3])
        up = s.shift_up(2)
        assert up.order == 4 and up.coefficients == (0, 0, 1, 2, 3)
        assert up.shift_down(2) == s
        with pytest.raises(NonUnitError):
            s.shift_down(1)
        with pytest.raises(PrecisionError):
            TruncatedSeries([0, 0]).shift_down(3)

    def test_valuation(self):
        assert TruncatedSeries([0, 0, 7, 1]).valuation() == 2
        assert TruncatedSeries([0], 4).valuation() is None


class TestExactInputs:
    """Only ints and Fractions enter the exact types; a float would be taken
    at its binary value (0.1 as 3602879701896397/36028797018963968)."""

    @pytest.mark.parametrize(
        "build, value",
        [
            (lambda: TruncatedSeries([1, 0.1]), 0.1),
            (lambda: TriMatrix([[0.5]]), 0.5),
            (lambda: TriMatrix([[0.5]]), 0.5),
            (lambda: binomial_power(0.1, 4), 0.1),
            (lambda: moment_element(0.1, 4), 0.1),
            (lambda: moment_entry(0.1, 1, 0), 0.1),
            (lambda: production_matrix(moment_element(1, 3), 3).orthogonal_rows(0.1), 0.1),
            (lambda: TruncatedSeries([1, "1/2"]), "1/2"),
        ],
        ids=["series", "matrix", "matrix-from-rows", "binomial-power",
             "moment-element", "moment-entry", "orthogonal-polys", "string"],
    )
    def test_other_values_are_a_type_error_naming_them(self, build, value):
        with pytest.raises(TypeError) as err:
            build()
        assert repr(value) in str(err.value)
