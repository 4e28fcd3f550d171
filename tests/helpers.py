"""Independent oracle helpers shared by the tests.

Everything here is deliberately written from scratch on plain lists so the
checks do not reuse the code paths they are meant to validate.
"""

from __future__ import annotations

import math
import random
import re
from fractions import Fraction

from riordan import ProductionMatrix, RiordanElement, SequenceMatch, TruncatedSeries


def frac_rows(rows):
    """Ragged integer rows -> full square tuple-of-tuples of Fractions."""
    size = len(rows)
    return tuple(
        tuple(Fraction(c) for c in row) + (Fraction(0),) * (size - len(row))
        for row in rows
    )


def poly_mul(a, b, degree):
    """Naive convolution of coefficient lists, truncated to ``degree``."""
    out = [Fraction(0)] * (degree + 1)
    for i, ai in enumerate(a[: degree + 1]):
        if ai:
            for j, bj in enumerate(b[: degree + 1 - i]):
                out[i + j] += Fraction(ai) * Fraction(bj)
    return out


def poly_compose(a, b, degree):
    """a(b) up to x^degree for b with zero constant term: the sum of
    a[k] * b^k, with the powers of b by naive convolution."""
    out = [Fraction(0)] * (degree + 1)
    power = [Fraction(1)] + [Fraction(0)] * degree
    for coeff in a[: degree + 1]:
        out = [o + coeff * p for o, p in zip(out, power)]
        power = poly_mul(power, b, degree)
    return out


def random_rationals(rng, length, wide=None):
    """``length`` seeded Fractions: zeros, small integers and fractions of
    either sign and, when ``wide`` is given, fractions whose numerator and
    denominator are as wide as ``wide`` (over ``wide`` times a small factor)."""
    out = []
    for _ in range(length):
        kind = rng.randrange(4 if wide else 3)
        if kind == 0:
            out.append(Fraction(0))
        elif kind == 1:
            out.append(Fraction(rng.randint(-9, 9)))
        elif kind == 2:
            out.append(Fraction(rng.randint(-9, 9), rng.randint(1, 12)))
        else:
            out.append(Fraction(rng.randint(-wide, wide), wide * rng.randint(1, 5)))
    return out


def random_wide(rng, max_digits):
    """A random integer of 1..max_digits decimal digits."""
    digits = rng.randint(1, max_digits)
    return rng.randrange(10 ** (digits - 1), 10**digits)


def revert_by_recurrence(f, order):
    """Compositional inverse of f (f0 = 0, f1 != 0) up to x^order, solved
    order by order: with r_n still 0, [x^n] f(r) + f1 * r_n must vanish."""
    f = [Fraction(c) for c in f[: order + 1]]
    r = [Fraction(0), 1 / f[1]]
    for n in range(2, order + 1):
        r.append(Fraction(0))
        rest, power = Fraction(0), [Fraction(1)]
        for k in range(1, min(n, len(f) - 1) + 1):
            power = poly_mul(power, r, n)
            rest += f[k] * power[n]
        r[n] = -rest / f[1]
    return r


def gf_entry(g, f, n, k):
    """[x^n] g * f^k computed by repeated naive convolution."""
    acc = [Fraction(c) for c in g[: n + 1]] + [Fraction(0)] * max(0, n + 1 - len(g))
    for _ in range(k):
        acc = poly_mul(acc, f, n)
    return acc[n]


def mat_mul_rows(a, b):
    """Naive product of row-major Fraction matrices (lists of lists)."""
    rows, inner, cols = len(a), len(b), len(b[0])
    out = [[Fraction(0)] * cols for _ in range(rows)]
    for i in range(rows):
        for k in range(inner):
            if a[i][k]:
                for j in range(cols):
                    out[i][j] += a[i][k] * b[k][j]
    return out


def lower_inverse_rows(m):
    """Inverse of a lower-triangular Fraction matrix by row elimination."""
    n = len(m)
    out = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    work = [list(row) for row in m]
    for i in range(n):
        pivot = work[i][i]
        for j in range(n):
            work[i][j] /= pivot
            out[i][j] /= pivot
        for r in range(i + 1, n):
            factor = work[r][i]
            if factor:
                for j in range(n):
                    work[r][j] -= factor * work[i][j]
                    out[r][j] -= factor * out[i][j]
    return out


def production_by_series(e, n, size):
    """The n-th production matrix of ``e`` by column generating functions,
    an oracle for the library's matrix route that never inverts a matrix.

    Column j has generating function (1/g(rev f)) * h_j(rev f), where h_j is
    g f^(j+n-1) with its terms below degree n dropped, divided by x^n.
    """
    inv = e.inverse()
    rows = [[Fraction(0)] * size for _ in range(size)]
    gfk = e.g * e.f ** (n - 1)
    for j in range(size):
        column = inv.ftra_apply(TruncatedSeries(gfk.coefficients[n:]))
        for i in range(size):
            rows[i][j] = column.coefficient(i)
        gfk = gfk * e.f
    return ProductionMatrix(rows)


def production_by_whole_matrix(e, n, size):
    """The n-th production matrix by its definition on the element's whole
    matrix at size + n: solve M * X = (M without its top n rows), then keep
    the size x size block from column n - 1.  A former route of the library,
    an oracle for the one it takes now, which reads every n-th production
    matrix from the A- and Z-series of the first."""
    m = e.matrix(size + n)
    x = m.solve(m.block(n, 0, size, size + n))
    return ProductionMatrix(row[n - 1 : n - 1 + size] for row in x)


def az_by_reversion(e, n):
    """A- and Z-series of the n-th production matrix from the reverted f,
    the library's former route, an oracle for ``nth_az``: with w = x/rev(f),
    A = w^n and Z = (w^(n-1) - g(0) f'(0)^(n-1) / g(rev f)) / rev(f), at
    orders e.order - 1 and e.order - 2 (derivation step 3)."""
    frev = e.f.revert()
    u = frev.shift_down(1)  # 1/w
    unit = e.g.constant_term * e.f.coefficient(1) ** (n - 1) / e.g.compose(frev)
    return u**-n, (u ** (1 - n) - unit).shift_down(1) / u


def power_by_squaring(s, exponent):
    """s ** exponent by binary powering on the library's product, with
    1/s raised to -exponent for a negative exponent: the library's former
    route, an oracle for its power kernel (Miller's recurrence)."""
    if exponent < 0:
        return power_by_squaring(1 / s, -exponent)
    result, base = TruncatedSeries.one(s.order), s
    while exponent:
        if exponent & 1:
            result = result * base
        exponent >>= 1
        if exponent:
            base = base * base
    return result


def sqrt_by_recurrence(c):
    """Square root of the coefficient list ``c`` (c[0] a positive rational
    square) in plain Fractions, solved order by order from
    (sum b_i x^i)^2 = c with b[0] the positive root of c[0]."""
    c = [Fraction(v) for v in c]
    b = [Fraction(math.isqrt(c[0].numerator), math.isqrt(c[0].denominator))]
    for n in range(1, len(c)):
        b.append((c[n] - sum(b[i] * b[n - i] for i in range(1, n))) / (2 * b[0]))
    return b


def closed_form_by_solve(e, n):
    """((x/f)^(n-1), x(x/f)^(n-1))^-1 * (g, f) for n >= 2 by one triangular
    solve of the left factor's matrix against the columns g and g*f, an
    oracle for the library's closed form, which takes r = rev(x(x/f)^(n-1))
    and returns (g(r) r/x, f(r)) (a reversion and two compositions)."""
    p = (1 / e.f.shift_down(1)) ** (n - 1)
    left = RiordanElement(p, p.shift_up(1).truncate(p.order)).matrix(p.order + 1)
    m = e.truncate(p.order)
    x = left.solve(tuple(zip(m.g.coefficients, (m.g * m.f).coefficients)))
    g = TruncatedSeries(row[0] for row in x)
    return RiordanElement(g, TruncatedSeries(row[1] for row in x) / g)


def closed_form_by_group(e, n):
    """((x/f)^(n-1), x(x/f)^(n-1))^-1 * (g, f) taken in the Riordan group: the
    left factor built as an element, inverted, and multiplied by ``e``; ``e``
    itself for n = 1.  An oracle for the library's closed form."""
    if n == 1:
        return e
    p = (1 / e.f.shift_down(1)) ** (n - 1)
    left = RiordanElement(p, p.shift_up(1).truncate(p.order))
    return left.inverse().mul(e.truncate(p.order))


def from_az_by_inverse(a, z):
    """The element with A-sequence ``a`` and Z-sequence ``z`` as the group
    inverse of (1 - x*Z/A, x/A), an oracle for ``RiordanElement.from_az``."""
    common = min(a.order, z.order)
    a, z = a.truncate(common), z.truncate(common)
    return RiordanElement(1 - (z / a).shift_up(1), (1 / a).shift_up(1)).inverse()


def catalan_number(n: int) -> int:
    return math.comb(2 * n, n) // (n + 1)


def general_binomial(alpha: Fraction, n: int) -> Fraction:
    """binomial(alpha, n) for rational alpha, by the product formula."""
    out = Fraction(1)
    for i in range(n):
        out *= (alpha - i) / (i + 1)
    return out


def binomial_series(alpha: Fraction, scale: int, order: int) -> list[Fraction]:
    """Coefficients of (1 + scale*x)^alpha."""
    return [general_binomial(alpha, n) * scale**n for n in range(order + 1)]


def random_series(rng: random.Random, order: int, low=-4, high=4) -> TruncatedSeries:
    return TruncatedSeries([rng.randint(low, high) for _ in range(order + 1)])


def random_normalized_element(rng: random.Random, order: int) -> RiordanElement:
    """Polynomial (g, f) with g(0) = f'(0) = 1 and coefficients in [-3, 3]."""
    g = [1] + [rng.randint(-3, 3) for _ in range(rng.randint(1, 4))]
    f = [0, 1] + [rng.randint(-3, 3) for _ in range(rng.randint(1, 4))]
    return RiordanElement(
        TruncatedSeries(g, order), TruncatedSeries(f, order)
    )


def random_non_normalized_element(rng: random.Random, order: int) -> RiordanElement:
    """Polynomial (g, f) with rational g(0), f'(0) other than 1 and the
    remaining coefficients in [-3, 3]."""
    units = [Fraction(p, q) for p in (-3, -2, -1, 1, 2, 3) for q in (1, 2, 3) if p != q]
    g = [rng.choice(units)] + [rng.randint(-3, 3) for _ in range(rng.randint(1, 4))]
    f = [0, rng.choice(units)] + [rng.randint(-3, 3) for _ in range(rng.randint(1, 4))]
    return RiordanElement(
        TruncatedSeries(g, order), TruncatedSeries(f, order)
    )


def element_battery(count: int, order: int, seed: int) -> list[RiordanElement]:
    rng = random.Random(seed)
    return [random_normalized_element(rng, order) for _ in range(count)]


def non_normalized_battery(count: int, order: int, seed: int) -> list[RiordanElement]:
    rng = random.Random(seed)
    return [random_non_normalized_element(rng, order) for _ in range(count)]


def stripped_by_int_tuples(text):
    """A stripped dump read the way the library once read it, every record
    parsed by ``int()`` into a tuple: ``(entries, skipped_lines)``.  It agrees
    with ``load_stripped`` on dumps whose integers are canonical."""
    entries, skipped = {}, 0
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        match = re.match(r"^(A\d+)\s+,(.*),$", line)
        try:
            entries[match[1]] = tuple(int(part) for part in match[2].split(","))
        except (TypeError, ValueError):  # no match, or a field int() refuses
            skipped += 1
    return entries, skipped


def identify_by_slices(entries, values, max_offset=2):
    """Entries holding ``values`` as a run at offset 0..max_offset, each at
    its smallest such offset, sorted by (offset, A-number): one tuple slice
    compared per entry and offset."""
    values = tuple(values)
    matches = []
    for anumber, stored in entries.items():
        for offset in range(max_offset + 1):
            if stored[offset : offset + len(values)] == values:
                matches.append(SequenceMatch(anumber, offset))
                break
    return sorted(matches, key=lambda m: (m.offset, m.anumber))


# The stripped-record grammar as first written, with backtracking quantifiers.
# riordan.oeis._RECORD must accept exactly the lines this accepts, with the
# same groups.
RECORD_ORACLE = re.compile(r"(A\d+)\s+(,(?:(?:0|-?[1-9][0-9]{0,4299}),)+)")
