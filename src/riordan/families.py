"""Named element families and their closed-form entry formulas.

Covers the binomial powers B^r = (1/(1-rx), x/(1-rx)), the Catalan array
(c, xc), the element behind the binomial-coefficient triangle A085478, the
one-parameter moment elements M(r) = (c(rx)^2, x c(rx)^2), whose matrices are
the moment arrays, and the iterated second-production process.  A moment
array's orthogonal polynomials come from its production matrix
(``ProductionMatrix.orthogonal_rows``).
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from itertools import accumulate, repeat
from operator import mul

from .arrays import RiordanElement
from .errors import PrecisionError, UnknownFamilyError, shown
from .production import produced_matrix_closed_form
from .series import (
    _MAX_LITERAL_DIGITS, Rational, TruncatedSeries, _checked, _read_integer, as_fraction, catalan_gf,
)


def binomial_power(r: Rational, order: int) -> RiordanElement:
    """The r-th power of the binomial matrix: (1/(1-rx), x/(1-rx))."""
    g = 1 / TruncatedSeries([1, -as_fraction(r)], order)
    return RiordanElement(g, g.shift_up(1).truncate(order))


def pascal(order: int) -> RiordanElement:
    return binomial_power(1, order)


def catalan_array(order: int) -> RiordanElement:
    """(c, xc) with c the Catalan generating function; triangle A033184."""
    c = catalan_gf(order)
    return RiordanElement(c, c.shift_up(1).truncate(order))


def a085478_element(order: int) -> RiordanElement:
    """(1/(1-x), x/(1-x)^2), whose matrix is the triangle A085478: g = 1, 1, ... and f = 0, 1, 2, ..."""
    return RiordanElement(TruncatedSeries([1] * (order + 1)), TruncatedSeries(range(order + 1)))


# ---------------------------------------------------------------------------
# the moment-array family M(r)
# ---------------------------------------------------------------------------

def moment_element(r: Rational, order: int) -> RiordanElement:
    """(c(rx)^2, x c(rx)^2), the element generated by the second production
    matrix of the binomial power B^r; c^2 = (c - 1)/x, so c(rx)^2 has the
    terms C_(k+1) r^k, each checked against the coefficient budget."""
    powers = accumulate(repeat(as_fraction(r)), mul, initial=1)
    g = TruncatedSeries([_checked(c * p) for c, p in zip(catalan_gf(order + 1).coefficients[1:], powers)])
    return RiordanElement(g, g.shift_up(1).truncate(order))


def moment_entry(r: Rational, n: int, k: int) -> Fraction:
    """Closed-form entry of M(r): 2(k+1)/(n+k+2) * C(2n+1, n-k) * r^(n-k)."""
    if not 0 <= k <= n:
        raise ValueError("need 0 <= k <= n")
    return Fraction(2 * (k + 1), n + k + 2) * math.comb(2 * n + 1, n - k) * as_fraction(r) ** (n - k)


# ---------------------------------------------------------------------------
# closed-form entries of the produced matrices
# ---------------------------------------------------------------------------

def a085478_second_entry(n: int, k: int) -> Fraction:
    """Entry (n, k) of the matrix generated by the second production matrix
    of the A085478 element, as the double-binomial sum
    sum_i (2i+2)/(3n+2-i) * C(3n+2-i, n-i) * C(i+k, 2k)."""
    if not 0 <= k <= n:
        raise ValueError("need 0 <= k <= n")
    return sum(
        Fraction(2 * i + 2, 3 * n + 2 - i) * math.comb(3 * n + 2 - i, n - i) * math.comb(i + k, 2 * k)
        for i in range(n + 1)
    )


def a092276_entry(n: int, k: int) -> Fraction:
    """Entry (n, k) of the triangle A092276: 2(k+1)/(3n-k+2) * C(3n-k+2, n-k);
    the matrix generated by the Catalan array's second production matrix."""
    if not 0 <= k <= n:
        raise ValueError("need 0 <= k <= n")
    return Fraction(2 * (k + 1), 3 * n - k + 2) * math.comb(3 * n - k + 2, n - k)


# ---------------------------------------------------------------------------
# iterated process
# ---------------------------------------------------------------------------

def iterate_second_production(
    e: RiordanElement, steps: int
) -> list[RiordanElement]:
    """Repeatedly replace the element by the one its second production matrix
    generates; returns [e0, e1, ..., e_steps].

    Uses the closed form, so each step costs one order of precision rather
    than a quadratic amount.
    """
    if steps < 0:
        raise ValueError("steps must be non-negative")
    chain = [e]
    for step in range(1, steps + 1):
        try:
            chain.append(produced_matrix_closed_form(chain[-1], 2))
        except PrecisionError as err:
            raise PrecisionError(
                f"precision exhausted at step {step} of {steps}: {err}"
            ) from err
    return chain


# ---------------------------------------------------------------------------
# name registry for the CLI
# ---------------------------------------------------------------------------

# each family by the name the CLI lists -> its builder; a name ending in ":r"
# takes a rational parameter r, passed before the order
_FAMILIES = {
    "pascal": pascal,
    "binomial:r": binomial_power,
    "catalan": catalan_array,
    "moment:r": moment_element,
    "a085478": a085478_element,
}
FAMILY_NAMES = tuple(_FAMILIES)

# group 1 is a decimal exponent; re.fullmatch compiles the pattern at first use
_PARAMETER = r"[-+]?(?:[0-9]+/[0-9]+|(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE]([-+]?[0-9]+))?)"


def family_parameter(name: str, param: str) -> Fraction:
    """The exact rational parameter of ``name:param``, e.g. ``moment:1/2``.

    ``param`` is ASCII with no ``_`` or spaces: an integer, ``p/q`` or a decimal
    with an optional exponent ``k``.  ``Fraction`` computes ``10**k``, so a ``k``
    wider than an integer literal is refused before that power is; each run of
    digits is an integer a user types (``series._read_integer``), and the
    family's builder bounds every coefficient it makes by the kernel's budget.
    """
    try:
        if not (form := re.fullmatch(_PARAMETER, param)):
            raise ValueError("it must be an ASCII integer, p/q or decimal, without '_' or spaces")
        if form[1] and abs(float(form[1])) > _MAX_LITERAL_DIGITS:  # float reads any width
            raise ValueError(f"its decimal exponent exceeds {_MAX_LITERAL_DIGITS}")
        for digits in re.findall("[0-9]+", param):
            _read_integer(digits, f"a run of digits in the parameter of family '{name}'")
        return Fraction(param)
    except (ValueError, ZeroDivisionError) as err:  # Fraction("1/0") says only "Fraction(1, 0)"
        why = "its denominator is zero" if isinstance(err, ZeroDivisionError) else err
        raise UnknownFamilyError(f"bad parameter {shown(param, repr)} for family '{name}': {why}") from err


def family_element(spec: str, order: int) -> RiordanElement:
    """Resolve a family identifier like ``pascal`` or ``moment:1/2``."""
    name, colon, param = spec.partition(":")
    key = f"{name}:r" if f"{name}:r" in _FAMILIES else name
    if key not in _FAMILIES:
        raise UnknownFamilyError(f"unknown family {shown(spec, repr)}; valid names: {', '.join(FAMILY_NAMES)}")
    # a parameter for exactly the NAME:r families; to the others a bare ':' is one
    given = param if key != name else colon
    if (key != name) != bool(given):
        why = "takes no parameter" if given else f"needs a rational parameter, e.g. {name}:2"
        raise UnknownFamilyError(f"family '{name}' {why}")
    params = (family_parameter(name, param),) if param else ()
    return _FAMILIES[key](*params, order)
