"""Exact truncated formal power series over rational coefficients.

A :class:`TruncatedSeries` holds coefficients c0..cN of a power series known
modulo x^(N+1); N is the *order* of the truncation.  All arithmetic is exact:
coefficients are ``fractions.Fraction`` in lowest terms at the API, while the
kernel multiplies integer numerators over one common denominator (:func:`lift`)
and normalizes once per output coefficient; a chain of products (the powers
in a reversion or a composition, the columns of a matrix) stays integer,
reduced by one gcd per step.  Quotients, powers and square roots (Miller's
recurrence) and triangular matrix solves are one forward substitution over
such integers (:func:`_forward`).  No operation ever fabricates a
coefficient beyond the known order: binary operations return results at the
smaller operand order, and reading past the order raises
:class:`~riordan.errors.PrecisionError` rather than returning zero.  No result
may hold a numerator or denominator past a budget
(:class:`~riordan.errors.CoefficientSizeError`).

Values are immutable; every operation returns a new series.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import partialmethod
from operator import add, mul, sub
from typing import Callable, Iterable, Iterator, Sequence, Union

from .errors import (
    CoefficientSizeError,
    CompositionError,
    NonUnitError,
    PrecisionError,
    ReversionError,
    SingularMatrixError,
    SqrtError,
)

Rational = Union[Fraction, int]

_ZERO = Fraction(0)

# CPython's default cap on int <-> str conversion; longer literals are a
# syntax error on every interpreter
_MAX_LITERAL_DIGITS = 4300
_MAX_LITERAL_BITS = (10**_MAX_LITERAL_DIGITS - 1).bit_length()
# the widest numerator or denominator a kernel result may hold: four literals
# wide, since the closed forms of printable results pass through wider terms
_MAX_COEFFICIENT_BITS = 4 * _MAX_LITERAL_BITS


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


def _checked(c: Fraction, bits: int = 0) -> Fraction:
    """``c`` itself, or CoefficientSizeError if it, or ``bits`` (a width known
    before a value is computed), is wider than the budget."""
    if max(bits, c.numerator.bit_length(), c.denominator.bit_length()) > _MAX_COEFFICIENT_BITS:
        raise CoefficientSizeError(
            f"a coefficient needs more than {_MAX_COEFFICIENT_BITS} bits (about "
            f"{4 * _MAX_LITERAL_DIGITS} digits), the most a result may hold"
        )
    return c


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


def _chain(
    start: tuple[list[int], int], factor: tuple[list[int], int], count: int
) -> Iterator[tuple[list[int], int]]:
    """``start * factor^k`` for k = 0..count-1, truncated to the length of
    ``start``: a chain of products kept as integer numerators over one
    denominator, reduced once per step, so no Fraction is built along it."""
    ints, d = start
    ib, db = factor
    for k in range(count):
        if k:
            ints, d = _reduced(_convolve(ints, ib), d * db)
        yield ints, d


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


def _compose_lists(
    outers: Sequence[Sequence[Fraction]], b: Sequence[Fraction]
) -> list[list[Fraction]]:
    """Each series of ``outers`` with ``b`` substituted for x, all at the
    length of the shortest; requires b[0] == 0 (checked by callers).

    One chain of the powers of b serves every outer series.  Each sum
    gathers as integers over ``da * e``, with ``da`` the outer series' own
    denominator and ``e`` the lcm of the power denominators so far, and
    becomes Fractions once, at the end."""
    n = min(len(b), *map(len, outers))
    lifted = [lift(a[:n]) for a in outers]
    top = max((i for ia, _ in lifted for i in range(n) if ia[i]), default=0)
    lb = lift(b[:n])
    sums = [[ia[0]] + [0] * (n - 1) for ia, _ in lifted]
    e = 1
    for k, (ip, dp) in enumerate(_chain(lb, lb, top), 1):
        grown = math.lcm(e, dp)
        if grown != e:
            sums = [[v * (grown // e) for v in s] for s in sums]
            e = grown
        w = e // dp
        for s, (ia, _) in zip(sums, lifted):
            c = ia[k] * w
            if c:
                s[k:] = [v + c * w for v, w in zip(s[k:], ip[k:])]
    return [[_ratio(v, da * e) for v in s] for s, (_, da) in zip(sums, lifted)]


def as_fraction(c: Rational) -> Fraction:
    """``c`` as a Fraction, or TypeError unless it is an int or a Fraction:
    a float would enter at its binary value (0.1 as 3602879701896397/2**55)."""
    if isinstance(c, Fraction):
        return c
    if isinstance(c, int):
        return Fraction(c)
    raise TypeError(f"exact values are int or Fraction, got {c!r}")


class TruncatedSeries:
    """Power series truncated at a fixed order, with exact rational entries."""

    __slots__ = ("_coeffs",)

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
        self._coeffs = tuple(values)

    # -- construction helpers ------------------------------------------------

    @classmethod
    def zero(cls, order: int) -> "TruncatedSeries":
        return cls([0], order)

    @classmethod
    def one(cls, order: int) -> "TruncatedSeries":
        return cls([1], order)

    @classmethod
    def x(cls, order: int) -> "TruncatedSeries":
        return cls([0, 1], order)

    @classmethod
    def constant(cls, value: Rational, order: int) -> "TruncatedSeries":
        return cls([value], order)

    # -- basic access ----------------------------------------------------------

    @property
    def order(self) -> int:
        return len(self._coeffs) - 1

    @property
    def coefficients(self) -> tuple[Fraction, ...]:
        return self._coeffs

    @property
    def constant_term(self) -> Fraction:
        return self._coeffs[0]

    def coefficient(self, n: int) -> Fraction:
        """Coefficient of x^n; raises beyond the truncation order."""
        if n < 0:
            raise ValueError("coefficient index must be non-negative")
        if n > self.order:
            raise PrecisionError(
                f"coefficient {n} requested but series is only known to order {self.order}"
            )
        return self._coeffs[n]

    def __getitem__(self, n: int) -> Fraction:
        return self.coefficient(n)

    def is_zero(self) -> bool:
        return not any(self._coeffs)

    def valuation(self) -> int | None:
        """Index of the first nonzero coefficient, or None if all are zero."""
        for i, c in enumerate(self._coeffs):
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
        return TruncatedSeries(self._coeffs[: order + 1])

    # -- ring operations -------------------------------------------------------

    def _coerce(self, other: "TruncatedSeries | Rational") -> "TruncatedSeries | None":
        if isinstance(other, TruncatedSeries):
            return other
        if isinstance(other, (int, Fraction)):
            return TruncatedSeries.constant(other, self.order)
        return None

    def _termwise(
        self, op: Callable[[Fraction, Fraction], Fraction], other: "TruncatedSeries | Rational"
    ) -> "TruncatedSeries":
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return TruncatedSeries([_checked(op(a, b)) for a, b in zip(self._coeffs, rhs._coeffs)])

    __add__ = __radd__ = partialmethod(_termwise, add)
    __sub__ = partialmethod(_termwise, sub)

    def __rsub__(self, other: Rational) -> "TruncatedSeries":
        lhs = self._coerce(other)
        if lhs is None:
            return NotImplemented
        return lhs - self

    def __neg__(self) -> "TruncatedSeries":
        return TruncatedSeries([-c for c in self._coeffs])

    def __mul__(self, other: "TruncatedSeries | Rational") -> "TruncatedSeries":
        if isinstance(other, (int, Fraction)):
            return TruncatedSeries([_checked(c * other) for c in self._coeffs])
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        n = min(self.order, other.order) + 1
        (ia, da), (ib, db) = lift(self._coeffs[:n]), lift(other._coeffs[:n])
        d = da * db
        return TruncatedSeries([_ratio(v, d) for v in _convolve(ia, ib)])

    __rmul__ = __mul__

    def __truediv__(self, other: "TruncatedSeries | Rational") -> "TruncatedSeries":
        if isinstance(other, (int, Fraction)):
            if not other:
                raise ZeroDivisionError("division by zero scalar")
            return TruncatedSeries([_checked(c / other) for c in self._coeffs])
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        if not other._coeffs[0]:
            raise NonUnitError(
                "division requires a divisor with nonzero constant term"
            )
        # the divisor's Toeplitz rows, each cut past its last nonzero term
        n = min(self.order, other.order) + 1
        ib, db = lift(other._coeffs[:n])
        top = max(i for i, v in enumerate(ib) if v)
        rb = ib[top::-1]
        rows = ((rb[max(top - i, 0) :], db) for i in range(n))
        return TruncatedSeries([v for v, in _forward(rows, [lift(self._coeffs[:n])])])

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
            return TruncatedSeries.one(self.order)
        v = self.valuation()
        if v != 0 and exponent < 0:
            raise NonUnitError("negative power requires a series with nonzero constant term")
        # self = x^v * u with u(0) != 0, so self^e = x^(v e) * u^e
        shift = self.order + 1 if v is None else v * exponent
        if shift > self.order:
            return TruncatedSeries.zero(self.order)
        c = self._coeffs[v : self.order + 1 + v - shift]
        # c0^e has more than (bits - 1) |e| bits: refused before it is computed
        bits = max(c[0].numerator.bit_length(), c[0].denominator.bit_length())
        width = (bits - 1) * abs(exponent) + 1
        lead = _checked(c[0] ** exponent if width <= _MAX_COEFFICIENT_BITS else c[0], width)
        return TruncatedSeries([_ZERO] * shift + _power_lists(c, Fraction(exponent), lead))

    # -- shifts ---------------------------------------------------------------

    def shift_up(self, k: int = 1) -> "TruncatedSeries":
        """Multiply by x^k; all knowledge is preserved, order grows by k."""
        if k < 0:
            raise ValueError("shift_up needs k >= 0")
        return TruncatedSeries((_ZERO,) * k + self._coeffs)

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
            if self._coeffs[i]:
                raise NonUnitError(
                    f"cannot divide by x^{k}: coefficient {i} is nonzero"
                )
        return TruncatedSeries(self._coeffs[k:])

    # -- composition, reversion, square root ----------------------------------

    def compose(self, inner: "TruncatedSeries") -> "TruncatedSeries":
        """Substitute ``inner`` (which must have zero constant term) for x."""
        if inner._coeffs[0]:
            raise CompositionError(
                "composition requires an inner series with zero constant term"
            )
        return TruncatedSeries(_compose_lists([self._coeffs], inner._coeffs)[0])

    def revert(self) -> "TruncatedSeries":
        """Compositional inverse: the series r with self(r(x)) = x.

        By Lagrange inversion, [x^n] r = (1/n) [x^(n-1)] (x/self)^n.
        """
        if self._coeffs[0]:
            raise ReversionError(
                "reversion requires a series with zero constant term"
            )
        if self.order < 1:
            raise ReversionError(
                "reversion needs the linear coefficient; order 0 is not enough"
            )
        if not self._coeffs[1]:
            raise ReversionError(
                "reversion requires a nonzero linear coefficient"
            )
        # the powers (x/self)^n as integers, one coefficient read from each
        u = (1 / self.shift_down(1)).coefficients  # x/self to order self.order - 1
        lu = lift(u)
        out = [_ZERO]
        for n, (power, d) in enumerate(_chain(lu, lu, self.order), 1):
            out.append(_ratio(power[n - 1], d * n))
        return TruncatedSeries(out)

    def sqrt(self) -> "TruncatedSeries":
        """Square root with positive constant term, which must be the square
        of a nonzero rational: Miller's recurrence for the exponent 1/2."""
        c0 = self._coeffs[0]
        rn, rd = math.isqrt(max(c0.numerator, 0)), math.isqrt(c0.denominator)
        if not c0 or rn * rn != c0.numerator or rd * rd != c0.denominator:
            raise SqrtError(f"constant term {c0} has no nonzero rational square root")
        return TruncatedSeries(_power_lists(self._coeffs, Fraction(1, 2), Fraction(rn, rd)))

    # -- comparison and display -------------------------------------------------

    def __eq__(self, other: object) -> bool:
        """Equality up to the smaller of the two orders."""
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        n = min(self.order, other.order)
        return self._coeffs[: n + 1] == other._coeffs[: n + 1]

    __hash__ = None  # equality ignores surplus precision, so no stable hash

    def __repr__(self) -> str:
        shown = ", ".join(str(c) for c in self._coeffs[:8])
        if self.order >= 8:
            shown += ", ..."
        return f"TruncatedSeries([{shown}], order={self.order})"

    def __str__(self) -> str:
        terms = []
        for i, c in enumerate(self._coeffs):
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
    """Generating function of the Catalan numbers, (1 - sqrt(1-4x)) / (2x).

    Satisfies c = 1 + x*c^2 exactly up to the truncation order.
    """
    if order < 0:
        raise ValueError("order must be non-negative")
    root = TruncatedSeries([1, -4], order + 1).sqrt()
    return (1 - root).shift_down(1) / 2
