"""The integer-numerator kernel against plain Fraction oracles.

Seeded inputs mix zeros, negative entries, small denominators and wide ones
(up to 4300 digits) at lengths 1..40.  Where a result's entries grow with the
length (quotients by a wide divisor, powers, square roots, generated rows),
the wide entries sit where they keep the result inside the coefficient
budget, so each case checks the arithmetic and not the budget; the budget has
its own tests at every kernel output below.
"""

import math
import random
import time
from fractions import Fraction as F

import pytest

from helpers import (
    lower_inverse_rows,
    mat_mul_rows,
    poly_compose,
    poly_mul,
    power_by_squaring,
    random_rationals,
    random_wide,
    revert_by_recurrence,
    sqrt_by_recurrence,
)
from riordan import (
    CoefficientSizeError,
    NonUnitError,
    ProductionMatrix,
    RiordanElement,
    TriMatrix,
    TruncatedSeries,
    generate_from_production,
    produced_matrix_closed_form,
)
from riordan import series
from riordan.arrays import mat_mul

CASES = 12
BIG = 2**40000  # inside the budget; its square is not
HALF = 2**20000  # inside the budget with its square; its cube is not


def assert_normalized(values):
    for c in values:
        assert type(c) is F
        assert c.denominator > 0 and math.gcd(c.numerator, c.denominator) == 1


def unit(rng):
    return F(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 4))


def lengths(rng):
    """Lengths 1..40, always including both ends."""
    return [1, 40] + [rng.randint(1, 40) for _ in range(CASES - 2)]


class TestSeriesKernel:
    def test_mul(self):
        rng = random.Random(101)
        for n in lengths(rng):
            a = random_rationals(rng, n, random_wide(rng, 4300))
            b = random_rationals(rng, rng.randint(1, 40), random_wide(rng, 4300))
            got = (TruncatedSeries(a) * TruncatedSeries(b)).coefficients
            assert list(got) == poly_mul(a, b, min(len(a), len(b)) - 1)
            assert_normalized(got)

    def test_div(self):
        # a wide dividend; the divisor's powers enter every coefficient
        rng = random.Random(102)
        for n in lengths(rng):
            a = random_rationals(rng, n, random_wide(rng, 4300))
            b = [unit(rng)] + random_rationals(rng, n - 1, random_wide(rng, 3))
            got = (TruncatedSeries(a) / TruncatedSeries(b)).coefficients
            assert poly_mul(got, b, n - 1) == a
            assert_normalized(got)

    def test_compose(self):
        rng = random.Random(103)
        for n in lengths(rng):
            a = random_rationals(rng, n, random_wide(rng, 4300))
            b = [F(0)] + random_rationals(rng, n - 1, random_wide(rng, 3))
            got = TruncatedSeries(a).compose(TruncatedSeries(b)).coefficients
            assert list(got) == poly_compose(a, b, n - 1)
            assert_normalized(got)

    def test_sqrt(self):
        rng = random.Random(104)
        for n in lengths(rng):
            c = [unit(rng) ** 2] + random_rationals(rng, n - 1, random_wide(rng, 120))
            got = TruncatedSeries(c).sqrt().coefficients
            assert got[0] > 0 and poly_mul(got, got, n - 1) == c
            assert_normalized(got)

    def test_pow(self):
        # exponents -40..40 against binary powering; a base with a zero
        # constant term has no negative powers on either route
        rng = random.Random(106)
        for n in [1, 2, 12] + [rng.randint(1, 12) for _ in range(5)]:
            head = rng.choice([[unit(rng)], [F(0)], [F(0), F(0)], [F(0), unit(rng)]])
            c = (head + random_rationals(rng, n, random_wide(rng, 3)))[:n]
            s = TruncatedSeries(c)
            for exponent in range(-40, 41):
                if exponent < 0 and not c[0]:
                    with pytest.raises(NonUnitError):
                        s**exponent
                    continue
                got = (s**exponent).coefficients
                assert got == power_by_squaring(s, exponent).coefficients, (c, exponent)
                assert_normalized(got)

    def test_sqrt_values(self):
        rng = random.Random(107)
        for n in lengths(rng):
            c = [unit(rng) ** 2] + random_rationals(rng, n - 1, random_wide(rng, 120))
            assert list(TruncatedSeries(c).sqrt().coefficients) == sqrt_by_recurrence(c)

    def test_revert(self):
        # f(rev f) = x with rev f(0) = 0 fixes rev f; the order-by-order
        # recurrence oracle checks the shorter cases as well
        rng = random.Random(105)
        for n in lengths(rng):
            f = [F(0), unit(rng)] + random_rationals(rng, n - 1, random_wide(rng, 30))
            got = TruncatedSeries(f).revert().coefficients
            assert got[0] == 0 and poly_compose(f, got, n) == [0, 1] + [0] * (n - 1)
            if n <= 12:
                assert list(got) == revert_by_recurrence(f, n)
            assert_normalized(got)


class TestMatrixKernel:
    def test_mat_mul(self):
        rng = random.Random(201)
        for n in lengths(rng):
            inner, cols = rng.randint(1, 12), rng.randint(1, 12)
            wide = random_wide(rng, 4300 if n * inner * cols < 2000 else 40)
            a = [random_rationals(rng, inner, wide) for _ in range(n)]
            b = [random_rationals(rng, cols, wide) for _ in range(inner)]
            got = mat_mul(a, b)
            assert [list(row) for row in got] == mat_mul_rows(a, b)
            assert_normalized(c for row in got for c in row)

    def test_solve(self):
        # a triangle with small entries against wide right-hand rows
        rng = random.Random(202)
        for n in lengths(rng):
            m = [
                random_rationals(rng, i, random_wide(rng, 2)) + [unit(rng)] + [F(0)] * (n - 1 - i)
                for i in range(n)
            ]
            width = rng.randint(1, 6)
            wide = random_wide(rng, 4300 if n < 12 else 200)
            rhs = [random_rationals(rng, width, wide) for _ in range(n)]
            got = TriMatrix(m).solve(rhs)
            assert [list(row) for row in got] == mat_mul_rows(lower_inverse_rows(m), rhs)
            assert_normalized(c for row in got for c in row)

    def test_generate_from_production(self):
        rng = random.Random(203)
        for n in lengths(rng):
            wide = random_wide(rng, 4300 if n < 4 else 60)
            p = [
                random_rationals(rng, min(i + 2, n), wide) + [F(0)] * (n - min(i + 2, n))
                for i in range(n)
            ]
            rows = [[F(1)] + [F(0)] * (n - 1)]
            while len(rows) < n:
                rows += mat_mul_rows(rows[-1:], p)
            got = generate_from_production(ProductionMatrix(p), n)
            assert [list(row) for row in got.rows] == rows
            assert_normalized(c for row in got.rows for c in row)


class TestCoefficientBudget:
    """Every kernel output refuses a coefficient past the budget."""

    @pytest.mark.parametrize(
        "compute",
        [
            lambda: TruncatedSeries([BIG, 1]) * TruncatedSeries([BIG, 1]),
            lambda: TruncatedSeries([BIG, 1]) * BIG,
            lambda: TruncatedSeries([1, 1]) / F(1, BIG * BIG),
            lambda: TruncatedSeries([F(1, BIG)]) + TruncatedSeries([F(1, 3**26000)]),
            lambda: TruncatedSeries([F(1, BIG)]) - TruncatedSeries([F(1, 3**26000)]),
            lambda: 1 / TruncatedSeries([1, -(10**4299)], 40),
            lambda: TruncatedSeries([1, BIG], 3).sqrt(),
            lambda: TruncatedSeries([1, BIG], 3) ** 2,
            lambda: TruncatedSeries([1, BIG], 3) ** -1,
            lambda: TruncatedSeries([BIG, 1]) ** 2,
            lambda: TruncatedSeries([F(1, BIG), 1]) ** -2,
            lambda: TruncatedSeries([0, BIG, 1], 4) ** 2,
            lambda: TruncatedSeries([0, BIG], 2).compose(TruncatedSeries([0, BIG], 2)),
            lambda: TruncatedSeries([0, 1, BIG], 4).revert(),
            lambda: mat_mul([[BIG]], [[BIG]]),
            lambda: TriMatrix([[F(1, BIG)]]).solve([[BIG]]),
            lambda: generate_from_production(
                ProductionMatrix([[BIG, 1, 0], [1, BIG, 1], [0, 1, BIG]]), 3
            ),
        ],
    )
    def test_refused(self, compute):
        with pytest.raises(CoefficientSizeError, match="a coefficient needs more than"):
            compute()

    # chains of products kept as integers: a power or column past the budget
    # is refused even where the result itself would fit
    @pytest.mark.parametrize(
        "compute",
        [
            # the third Lagrange power of x/f = HALF; rev f = HALF*x fits
            lambda: TruncatedSeries([0, F(1, HALF)], 3).revert(),
            # the power b^3 = HALF^3 x^3 of the inner series; the result HALF x^3 fits
            lambda: TruncatedSeries([0, 0, 0, F(1, HALF**2)]).compose(
                TruncatedSeries([0, HALF, 0, 0])
            ),
            # the powers of r = x/HALF; the closed form (1/HALF, x/HALF^2) fits
            lambda: produced_matrix_closed_form(
                RiordanElement(TruncatedSeries([1], 3), TruncatedSeries([0, F(1, HALF)], 3)), 2
            ),
            # the column f^3 = HALF^3 x^3 of a matrix
            lambda: RiordanElement(TruncatedSeries([1], 3), TruncatedSeries([0, HALF], 3)).matrix(4),
            # a constant term whose power is past the budget, refused before
            # it is computed
            lambda: TruncatedSeries([2, 1], 8) ** (10**4000),
            # (1 + x)^(10^4000): coefficient k has about 13300 k bits
            lambda: TruncatedSeries([1, 1], 8) ** (10**4000),
        ],
        ids=[
            "revert-power",
            "compose-power",
            "closed-form-power",
            "matrix-column",
            "pow-constant-term",
            "pow-huge-exponent",
        ],
    )
    def test_chain_refused_quickly(self, compute):
        start = time.perf_counter()
        with pytest.raises(CoefficientSizeError, match="a coefficient needs more than"):
            compute()
        # a wall-clock guard: a chain that outgrew the budget unchecked would hang
        assert time.perf_counter() - start < 2.0

    def test_values_inside_the_budget_pass(self):
        assert (TruncatedSeries([BIG, 1]) * 1).coefficients == (BIG, 1)
        assert mat_mul([[BIG]], [[1]]) == ((BIG,),)

    def test_chain_entries_inside_the_budget_pass(self):
        # (x/f)^2 = [1/P^2, 2/(P*Q)] keeps both entries inside the budget,
        # though their shared denominator P^2 * Q is past it
        p, q = 3**16000, 5**10000
        assert (p * p * q).bit_length() > series._MAX_COEFFICIENT_BITS
        f = TruncatedSeries([0, p, F(-p * p, q)])
        assert f.revert().coefficients == (0, F(1, p), F(1, p * q))
