"""Exact truncated formal power series over rational coefficients.

A :class:`TruncatedSeries` holds coefficients c0..cN of a power series known
modulo x^(N+1); N is the *order* of the truncation.  All arithmetic is exact:
coefficients are ``fractions.Fraction`` in lowest terms at the API, while the
kernel multiplies integer numerators over one common denominator (:func:`lift`)
and normalizes once per output coefficient; a chain of products stays integer,
reduced by one gcd per step.  Composing a with b multiplies a by the matrix of
(1, b), whose columns are the powers of b; reversion solves against it, since
(1, f)^-1 = (1, rev f); one builder makes the matrix of any element (g, f),
(1, b) among them (:func:`_powers`).  Quotients, powers and square roots
(Miller's recurrence), reversions and triangular solves are one forward
substitution over such integers (:func:`_forward`).
No operation ever fabricates a coefficient beyond the known order: binary
operations return results at the smaller operand order, and reading past the
order raises :class:`~riordan.errors.PrecisionError` rather than returning
zero.  No result may hold a numerator or denominator past a budget
(:class:`~riordan.errors.CoefficientSizeError`).

Values are immutable; every operation returns a new series.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Callable, Iterable, Sequence
from fractions import Fraction
from functools import partialmethod
from itertools import accumulate
from operator import add, mul, sub

from .errors import (
    CoefficientSizeError, CompositionError, NonUnitError, PrecisionError, Record, ReversionError,
    RiordanError, SingularMatrixError, SqrtError, shown,
)

Rational = Fraction | int

_ZERO = Fraction(0)

# CPython's default cap on int <-> str conversion; no integer a user types
# may be longer, on any interpreter (_read_integer)
_MAX_LITERAL_DIGITS = 4300
_MAX_LITERAL_BITS = (10**_MAX_LITERAL_DIGITS - 1).bit_length()
# the highest truncation order a command may ask for, and the most a shifted
# division in an expression may raise the working order past the order asked
# for; exact matrix work grows with the cube of the order (the tests hold a
# show at size 200 to 20 s, tests/test_cli.py::TestProcesses), and a larger
# order from a few typed digits would only allocate series until memory runs out
_MAX_ORDER = 1000
# the widest numerator or denominator a kernel result may hold: four literals
# wide, since the closed forms of printable results pass through wider terms
_MAX_COEFFICIENT_BITS = 4 * _MAX_LITERAL_BITS


def _read_integer(text: str, place: str) -> int:
    """``text`` as an int, by the one rule for every integer a user types:
    ASCII ``[+-]?[0-9]+`` of at most ``_MAX_LITERAL_DIGITS`` digits, or fewer under
    a lower int/str limit.  Other text raises ValueError naming it; a wider
    integer raises RiordanError naming ``place`` and the limit, not the digits."""
    digits = text[1:] if text[:1] in "+-" else text
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"{shown(text, repr)} is not an integer")
    limit = min(_MAX_LITERAL_DIGITS, sys.get_int_max_str_digits() or _MAX_LITERAL_DIGITS)
    if len(digits) > limit:
        raise RiordanError(f"{place} has more than {limit} digits")
    return int(text)


# ---------------------------------------------------------------------------
# list-level helpers: Fraction lists at a shared order, multiplied as integers
# ---------------------------------------------------------------------------

def lift(values: Sequence[Rational]) -> tuple[list[int], int]:
    """Integer numerators over one common denominator: ``(ints, d)`` with
    ``values[i] == ints[i] / d`` and ``d`` the lcm of the denominators."""
    d = math.lcm(*[v.denominator for v in values])
    if d == 1:
        return [v.numerator for v in values], 1
    return [v.numerator * (d // v.denominator) for v in values], d


def _checked(c: Rational, bits: int = 0) -> Rational:
    """``c`` itself, or CoefficientSizeError if it, or ``bits`` (a width known
    before a value is computed), is wider than the budget."""
    if max(bits, c.numerator.bit_length(), c.denominator.bit_length()) > _MAX_COEFFICIENT_BITS:
        raise CoefficientSizeError(
            f"a coefficient needs more than {_MAX_COEFFICIENT_BITS} bits (about "
            f"{4 * _MAX_LITERAL_DIGITS} digits), the most a result may hold"
        )
    return c


def _checked_power(c: Rational, e: int) -> Rational:
    """``c**e``, or CoefficientSizeError if it is wider than the budget; it has
    more than (bits - 1) |e| bits, so a wider one is refused before it is computed."""
    width = (max(c.numerator.bit_length(), c.denominator.bit_length()) - 1) * abs(e) + 1
    return _checked(c**e if width <= _MAX_COEFFICIENT_BITS else c, width)


def _ratio(num: int, den: int) -> Fraction:
    """num/den in lowest terms, within the coefficient budget; reducing only
    shrinks, so operands inside the budget need no check afterwards."""
    c = Fraction(num, den) if num else _ZERO
    wide = max(num.bit_length(), den.bit_length()) > _MAX_COEFFICIENT_BITS
    return _checked(c) if wide else c


def _extend(ints: list[int], d: int, c: Fraction) -> tuple[list[int], int]:
    """Append ``c`` to numerators over ``d``, widening ``d`` when needed."""
    m = c.denominator // math.gcd(d, c.denominator)
    if m != 1:
        ints, d = [v * m for v in ints], d * m
    ints.append(c.numerator * (d // c.denominator))
    return ints, d


def _convolve(a: list[int], b: list[int]) -> list[int]:
    """Truncated product of two equal-length integer lists; terms below each
    operand's first nonzero entry are skipped."""
    n = len(a)
    fa = next((i for i, v in enumerate(a) if v), n)
    fb = next((i for i, v in enumerate(b) if v), n)
    rb = b[::-1]
    return [0] * min(n, fa + fb) + [
        sum(map(mul, a[fa : k - fb + 1], rb[n - 1 - k + fa :])) for k in range(fa + fb, n)
    ]


def _reduced(ints: list[int], d: int) -> tuple[list[int], int]:
    """``ints`` over ``d`` with their common factor divided out (one gcd), or
    CoefficientSizeError if an entry, in lowest terms, is past the budget."""
    g = math.gcd(d, *ints)
    if g != 1:
        ints, d = [v // g for v in ints], d // g
    if max(d.bit_length(), *map(int.bit_length, ints)) > _MAX_COEFFICIENT_BITS:
        for v in ints:  # a shared denominator is wider than some entries need
            _ratio(v, d)
    return ints, d


def _forward(
    rows: Iterable[tuple[list[int], int]], rhs: Sequence[tuple[list[int], int]]
) -> list[tuple[Fraction, ...]]:
    """X with L X = B by forward substitution, returned by rows: L is given
    by its rows and B by its columns, each as integer numerators over one
    denominator.  Row i lists its entries up to its diagonal one, so a
    banded row may start past column 0.  Each solution column stays
    numerators over one denominator as it grows."""
    cols: list[tuple[list[int], int]] = [([], 1) for _ in rhs]
    out = []
    for i, (r, dr) in enumerate(rows):
        if not r[-1]:
            raise SingularMatrixError(f"zero diagonal entry at ({i}, {i})")
        start = i + 1 - len(r)
        # x_ij = (b_ij - row . x[:i, j]) / pivot as one num/den
        out.append(tuple(
            _ratio(b[i] * dr * dx - db * sum(map(mul, r, x[start:] if start else x)),
                   db * dx * r[-1])
            for (b, db), (x, dx) in zip(rhs, cols)
        ))
        cols = [_extend(x, dx, c) for (x, dx), c in zip(cols, out[-1])]
    return out


def _power_lists(c: Sequence[Fraction], alpha: Fraction, lead: Fraction) -> list[Fraction]:
    """``c^alpha`` with constant term ``lead = c[0]^alpha != 0``, by J. C. P.
    Miller's recurrence (Knuth, TAOCP Vol. 2, 4.7): with alpha = p/q, P_0 = lead
    and row k >= 1 is q k c0 P_k + sum over i = 1..k of (q k - (p + q) i)
    c_i P_(k-i) = 0, so the cost does not depend on alpha, and a base that is
    zero past its term ``top`` gives rows of at most top + 1 entries."""
    p, q = alpha.numerator, alpha.denominator
    ia, _ = lift(c)  # c_i / c0 = ia[i] / ia[0]
    top = max(i for i, v in enumerate(ia) if v)  # c is zero past it
    rows = (
        ([(q * k - (p + q) * i) * ia[i] for i in range(min(k, top), 0, -1)] + [q * k * ia[0]], 1)
        if k else ([1], 1)
        for k in range(len(c))
    )
    lifted = ([lead.numerator] + [0] * (len(c) - 1), lead.denominator)
    return [v for v, in _forward(rows, [lifted])]


def _powers(g: Sequence[Rational], b: Sequence[Fraction], count: int) -> list[tuple[list[int], int]]:
    """The matrix of (g, b) to size len(g), columns g b^k for k < ``count``,
    by rows over one denominator, each up to its diagonal (b[0] == 0); each
    column is the last times b, reduced once per step, never a Fraction."""
    n = len(g)
    ib, db = lift(b[:n])
    cols = [lift(g)]
    while len(cols) < count:
        ints, d = cols[-1]
        cols.append(_reduced(_convolve(ints, ib), d * db))
    d = math.lcm(*[dk for _, dk in cols])
    scaled = [(c, d // dk) for c, dk in cols]
    return [([c[i] * w for c, w in scaled[: i + 1]], d) for i in range(n)]


def _compose_lists(
    outers: Sequence[Sequence[Fraction]], b: Sequence[Fraction]
) -> list[list[Fraction]]:
    """Each series of ``outers`` with ``b`` substituted for x, all at the
    length of the shortest; requires b[0] == 0 (checked by callers).

    Substituting b multiplies each outer series by the matrix of (1, b)
    (:func:`_powers`), built up to the outers' last nonzero term only."""
    n = min(len(b), *map(len, outers))
    lifted = [lift(a[:n]) for a in outers]
    top = max((i for ia, _ in lifted for i in range(n) if ia[i]), default=0)
    rows = _powers([1] + [0] * (n - 1), b, top + 1)
    return [[_ratio(sum(map(mul, r, ia)), d * da) for r, d in rows] for ia, da in lifted]


def as_fraction(c: Rational) -> Fraction:
    """``c`` as a Fraction, or TypeError unless it is an int or a Fraction:
    a float would enter at its binary value (0.1 as 3602879701896397/2**55)."""
    if isinstance(c, Fraction):
        return c
    if isinstance(c, int):
        return Fraction(c)
    raise TypeError(f"exact values are int or Fraction, got {c!r}")


class TruncatedSeries(Record):
    """Power series truncated at a fixed order, with exact rational entries
    c0..cN in ``coefficients``; equal up to the smaller of two orders."""

    __slots__ = ("coefficients",)

    def __init__(self, coeffs: Iterable[Rational], order: int | None = None):
        """Build a series from its coefficients c0, c1, ...

        With ``order`` given, the coefficient list is padded with zeros (the
        caller asserts the remaining terms vanish, as for a polynomial) or
        truncated down to ``order + 1`` entries.
        """
        values = [c if isinstance(c, Fraction) else as_fraction(c) for c in coeffs]
        if order is not None:
            if order < 0:
                raise ValueError("order must be non-negative")
            if len(values) <= order:
                values += [_ZERO] * (order + 1 - len(values))
            else:
                values = values[: order + 1]
        if not values:
            raise ValueError("a series needs at least the constant coefficient")
        super().__init__(tuple(values))

    # -- basic access ----------------------------------------------------------

    @property
    def order(self) -> int:
        return len(self.coefficients) - 1

    @property
    def constant_term(self) -> Fraction:
        return self.coefficients[0]

    def coefficient(self, n: int) -> Fraction:
        """Coefficient of x^n; raises beyond the truncation order."""
        if n < 0:
            raise ValueError("coefficient index must be non-negative")
        if n > self.order:
            raise PrecisionError(
                f"coefficient {n} requested but series is only known to order {self.order}"
            )
        return self.coefficients[n]

    __getitem__ = coefficient

    def is_zero(self) -> bool:
        return not any(self.coefficients)

    def valuation(self) -> int | None:
        """Index of the first nonzero coefficient, or None if all are zero."""
        for i, c in enumerate(self.coefficients):
            if c:
                return i
        return None

    def truncate(self, order: int) -> "TruncatedSeries":
        """Drop precision down to the given order (never pads)."""
        if order > self.order:
            raise PrecisionError(
                f"cannot extend a series of order {self.order} to order {order}"
            )
        if order == self.order:
            return self
        return TruncatedSeries(self.coefficients[: order + 1])

    # -- ring operations -------------------------------------------------------

    def _coerce(self, other: "TruncatedSeries | Rational") -> "TruncatedSeries | None":
        if isinstance(other, TruncatedSeries):
            return other
        if isinstance(other, (int, Fraction)):
            return TruncatedSeries([other], self.order)
        return None

    def _termwise(
        self, op: Callable[[Fraction, Fraction], Fraction], other: "TruncatedSeries | Rational"
    ) -> "TruncatedSeries":
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return TruncatedSeries([_checked(op(a, b)) for a, b in zip(self.coefficients, rhs.coefficients)])

    __add__ = __radd__ = partialmethod(_termwise, add)
    __sub__ = partialmethod(_termwise, sub)

    def __rsub__(self, other: Rational) -> "TruncatedSeries":
        lhs = self._coerce(other)
        if lhs is None:
            return NotImplemented
        return lhs - self

    def __neg__(self) -> "TruncatedSeries":
        return TruncatedSeries([-c for c in self.coefficients])

    def __mul__(self, other: "TruncatedSeries | Rational") -> "TruncatedSeries":
        if isinstance(other, (int, Fraction)):
            return TruncatedSeries([_checked(c * other) for c in self.coefficients])
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        n = min(self.order, other.order) + 1
        (ia, da), (ib, db) = lift(self.coefficients[:n]), lift(other.coefficients[:n])
        d = da * db
        return TruncatedSeries([_ratio(v, d) for v in _convolve(ia, ib)])

    __rmul__ = __mul__

    def __truediv__(self, other: "TruncatedSeries | Rational") -> "TruncatedSeries":
        if isinstance(other, (int, Fraction)):
            if not other:
                raise ZeroDivisionError("division by zero scalar")
            return TruncatedSeries([_checked(c / other) for c in self.coefficients])
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        if not other.coefficients[0]:
            raise NonUnitError(
                "division requires a divisor with nonzero constant term"
            )
        # the divisor's Toeplitz rows, each cut past its last nonzero term
        n = min(self.order, other.order) + 1
        ib, db = lift(other.coefficients[:n])
        top = max(i for i, v in enumerate(ib) if v)
        rb = ib[top::-1]
        rows = ((rb[max(top - i, 0) :], db) for i in range(n))
        return TruncatedSeries([v for v, in _forward(rows, [lift(self.coefficients[:n])])])

    def __rtruediv__(self, other: Rational) -> "TruncatedSeries":
        lhs = self._coerce(other)
        if lhs is None:
            return NotImplemented
        return lhs / self

    def __pow__(self, exponent: int) -> "TruncatedSeries":
        """Integer power by Miller's recurrence (:func:`_power_lists`), at a cost
        independent of the exponent; negative exponents need a unit constant term."""
        if not isinstance(exponent, int):
            return NotImplemented
        if not exponent:
            return TruncatedSeries([1], self.order)
        v = self.valuation()
        if v != 0 and exponent < 0:
            raise NonUnitError("negative power requires a series with nonzero constant term")
        # self = x^v * u with u(0) != 0, so self^e = x^(v e) * u^e
        shift = self.order + 1 if v is None else v * exponent
        if shift > self.order:
            return TruncatedSeries([0], self.order)
        c = self.coefficients[v : self.order + 1 + v - shift]
        lead = _checked_power(c[0], exponent)
        return TruncatedSeries([_ZERO] * shift + _power_lists(c, Fraction(exponent), lead))

    # -- shifts ---------------------------------------------------------------

    def shift_up(self, k: int = 1) -> "TruncatedSeries":
        """Multiply by x^k; all knowledge is preserved, order grows by k."""
        if k < 0:
            raise ValueError("shift_up needs k >= 0")
        return TruncatedSeries((_ZERO,) * k + self.coefficients)

    def shift_down(self, k: int = 1) -> "TruncatedSeries":
        """Divide by x^k; the first k coefficients must vanish."""
        if k < 0:
            raise ValueError("shift_down needs k >= 0")
        if k == 0:
            return self
        if k > self.order:
            raise PrecisionError(
                f"cannot shift an order-{self.order} series down by {k}"
            )
        for i in range(k):
            if self.coefficients[i]:
                raise NonUnitError(
                    f"cannot divide by x^{k}: coefficient {i} is nonzero"
                )
        return TruncatedSeries(self.coefficients[k:])

    # -- composition, reversion, square root ----------------------------------

    def compose(self, inner: "TruncatedSeries") -> "TruncatedSeries":
        """Substitute ``inner`` (which must have zero constant term) for x."""
        if inner.coefficients[0]:
            raise CompositionError(
                "composition requires an inner series with zero constant term"
            )
        return TruncatedSeries(_compose_lists([self.coefficients], inner.coefficients)[0])

    def revert(self) -> "TruncatedSeries":
        """Compositional inverse: the series r with self(r(x)) = x.

        In the Riordan group (1, f)^-1 = (1, rev f), so rev f is column 1 of
        (1, f)^-1: X with M X = e_1, M the matrix of (1, f) (:func:`_powers`).
        """
        if self.coefficients[0]:
            raise ReversionError(
                "reversion requires a series with zero constant term"
            )
        if self.order < 1:
            raise ReversionError(
                "reversion needs the linear coefficient; order 0 is not enough"
            )
        if not self.coefficients[1]:
            raise ReversionError(
                "reversion requires a nonzero linear coefficient"
            )
        n = self.order + 1
        e1 = ([0, 1] + [0] * (n - 2), 1)
        rows = _powers([1] + [0] * (n - 1), self.coefficients, n)
        return TruncatedSeries([v for v, in _forward(rows, [e1])])

    def sqrt(self) -> "TruncatedSeries":
        """Square root with positive constant term, which must be the square
        of a nonzero rational: Miller's recurrence for the exponent 1/2."""
        c0 = self.coefficients[0]
        rn, rd = math.isqrt(max(c0.numerator, 0)), math.isqrt(c0.denominator)
        if not c0 or rn * rn != c0.numerator or rd * rd != c0.denominator:
            raise SqrtError(f"constant term {shown(c0)} has no nonzero rational square root")
        return TruncatedSeries(_power_lists(self.coefficients, Fraction(1, 2), Fraction(rn, rd)))

    # -- comparison and display -------------------------------------------------

    def __eq__(self, other: object) -> bool:
        """Equality up to the smaller of the two orders."""
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        n = min(self.order, other.order)
        return self.coefficients[: n + 1] == other.coefficients[: n + 1]

    __hash__ = None  # equality ignores surplus precision, so no stable hash

    def __repr__(self) -> str:
        terms = ", ".join(map(shown, self.coefficients[:8]))  # never raises, unlike __str__
        if self.order >= 8:
            terms += ", ..."
        return f"TruncatedSeries([{terms}], order={self.order})"

    def __str__(self) -> str:
        terms = []
        for i, c in enumerate(self.coefficients):
            if not c:
                continue
            if i == 0:
                terms.append(str(c))
                continue
            mag = abs(c)
            body = "x" if i == 1 else f"x^{i}"
            if mag != 1:
                body = f"{mag}*{body}"
            terms.append(f"- {body}" if c < 0 else f"+ {body}" if terms else body)
        if not terms:
            terms = ["0"]
        return " ".join(terms) + f" + O(x^{self.order + 1})"


def catalan_gf(order: int) -> TruncatedSeries:
    """Generating function of the Catalan numbers, (1 - sqrt(1-4x)) / (2x),
    from C_0 = 1 and C_(k+1) = C_k * 2(2k+1)/(k+2).

    Satisfies c = 1 + x*c^2 exactly up to the truncation order.
    """
    if order < 0:
        raise ValueError("order must be non-negative")
    return TruncatedSeries(accumulate(range(order), lambda c, k: c * (4 * k + 2) // (k + 2), initial=1))
