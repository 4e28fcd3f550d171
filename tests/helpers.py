"""Independent oracle helpers shared by the tests.

Everything here is deliberately written from scratch on plain lists so the
checks do not reuse the code paths they are meant to validate.
"""

from __future__ import annotations

import itertools
import math
import random
import re
from fractions import Fraction

from riordan import ProductionMatrix, RiordanElement, SequenceMatch, TriMatrix, TruncatedSeries
from riordan.arrays import _inverse_pair
from riordan.series import as_fraction


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


def revert_by_lagrange(f):
    """Compositional inverse of the series f (f0 = 0, f1 != 0) at f's order
    by Lagrange inversion, the library's former route: [x^n] rev f is
    (1/n) [x^(n-1)] (x/f)^n, each power of x/f the product of the last."""
    u = 1 / f.shift_down(1)
    out, power = [Fraction(0)], u
    for n in range(1, f.order + 1):
        out.append(power.coefficient(n - 1) / n)
        power = power * u
    return out


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
    """Inverse of a lower-triangular Fraction matrix by row elimination;
    row i of the matrix and of the inverse is zero past column i, so only
    columns 0..i take part."""
    n = len(m)
    out = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    work = [list(row) for row in m]
    for i in range(n):
        pivot = work[i][i]
        for j in range(i + 1):
            work[i][j] /= pivot
            out[i][j] /= pivot
        for r in range(i + 1, n):
            factor = work[r][i]
            if factor:
                for j in range(i + 1):
                    work[r][j] -= factor * work[i][j]
                    out[r][j] -= factor * out[i][j]
    return out


def lower_solve_rows(m, rhs):
    """X with L X = rhs for L the leading len(rhs) x len(rhs) block of the
    lower-triangular Fraction rows ``m``: L's inverse by row elimination
    times ``rhs``, rows past len(rhs) unread."""
    k = len(rhs)
    return mat_mul_rows(lower_inverse_rows([row[:k] for row in m[:k]]), rhs)


def matrix_product(a, b):
    """The product of two ``TriMatrix`` values by the naive row product."""
    return TriMatrix(mat_mul_rows(a.rows, b.rows))


def inverse_by_reversion(e):
    """The group inverse (1/g(rev f), rev f) by reverting f and composing g
    with the result, at e.order: the library's former route, an oracle for
    ``RiordanElement.inverse``, which reads it off the A/Z solve."""
    frev = e.f.revert()
    return RiordanElement(1 / e.g.compose(frev), frev)


def from_az_by_reversion(a, z):
    """The element with A-sequence ``a``, Z-sequence ``z`` and g(0) = 1 as
    (1/(1 - x*Z(F)), F) with F = rev(x/A), the solution of F = x*A(F), at
    min(a.order, z.order) + 1: the library's former route, an oracle for
    ``RiordanElement.from_az``."""
    common = min(a.order, z.order)
    f = (1 / a.truncate(common)).shift_up(1).revert()
    return RiordanElement(1 / (1 - z.truncate(common).compose(f).shift_up(1)), f)


def production_by_series(e, n, size):
    """The n-th production matrix of ``e`` by column generating functions,
    an oracle for the library's matrix route that never inverts a matrix.

    Column j has generating function (1/g(rev f)) * h_j(rev f), where h_j is
    g f^(j+n-1) with its terms below degree n dropped, divided by x^n.
    """
    inv = inverse_by_reversion(e)
    rows = [[Fraction(0)] * size for _ in range(size)]
    gfk = e.g * e.f ** (n - 1)
    for j in range(size):
        column = inv.g * TruncatedSeries(gfk.coefficients[n:]).compose(inv.f)
        for i in range(size):
            rows[i][j] = column.coefficient(i)
        gfk = gfk * e.f
    return ProductionMatrix(rows)


def production_by_whole_matrix(e, n, size):
    """The n-th production matrix by its definition on the element's whole
    matrix at size + n: solve M * X = (M without its top n rows) in plain
    Fractions, then keep the size x size block from column n - 1.  A former
    route of the library, an oracle for the one it takes now, which reads
    every n-th production matrix from the A- and Z-series of the first."""
    m = e.matrix(size + n).rows
    x = lower_solve_rows(m, m[n:])
    return ProductionMatrix(row[n - 1 : n - 1 + size] for row in x)


def block_by_matrix_solve(e, n, size):
    """``production_block`` by the library's former route, an oracle for the
    solve on the integer rows of ``series._powers``: the element's matrix at
    size + n as Fractions, solved in plain Fractions against its rows
    n..n+size-1 cut to ``size`` columns (derivation step 1)."""
    m = e.matrix(size + n).rows
    return tuple(map(tuple, lower_solve_rows(m, [row[:size] for row in m[n:]])))


def az_by_reversion(e, n):
    """A- and Z-series of the n-th production matrix from the reverted f,
    the library's former route, an oracle for ``nth_az``: with w = x/rev(f),
    A = w^n and Z = (w^(n-1) - g(0) f'(0)^(n-1) / g(rev f)) / rev(f), at
    orders e.order - 1 and e.order - 2 (derivation step 3)."""
    frev = e.f.revert()
    u = frev.shift_down(1)  # 1/w
    unit = e.g.constant_term * e.f.coefficient(1) ** (n - 1) / e.g.compose(frev)
    return u**-n, (u ** (1 - n) - unit).shift_down(1) / u


def az_by_matrix_solve(e, n, order):
    """A_n to ``order`` and Z_n to order - 1 (to ``order`` for n = 1) by the
    library's former route, an oracle for ``production._nth_az``, which
    solves on the integer rows of ``series._powers``: the element's matrix at
    size order + 2 as Fractions, solved in plain Fractions against its rows
    1.. in columns 0 and 1 for P_1's Z and A, then P_n = P_1 T(B) with
    B = A^(n-1) (derivation step 3)."""
    m = e.matrix(order + 2).rows
    cols = lower_solve_rows(m, [row[:2] for row in m[1:]])
    a, z = TruncatedSeries(r[1] for r in cols), TruncatedSeries(r[0] for r in cols)
    if n == 1:
        return a, z
    b = a ** (n - 1)
    b0 = b.constant_term
    return a * b, b0 * z + a * (b - b0).shift_down(1)


def power_by_squaring(s, exponent):
    """s ** exponent by binary powering on the library's product, with
    1/s raised to -exponent for a negative exponent: the library's former
    route, an oracle for its power kernel (Miller's recurrence)."""
    if exponent < 0:
        return power_by_squaring(1 / s, -exponent)
    result, base = TruncatedSeries([1], s.order), s
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
    solve of the left factor's matrix against the columns g and g*f, in
    plain Fractions, an oracle for the library's closed form, which takes
    r = rev(x(x/f)^(n-1)) and returns the group product (r/x, r) * (g, f); it
    shares neither the reversion nor ``RiordanElement.mul`` with the library."""
    p = (1 / e.f.shift_down(1)) ** (n - 1)
    left = RiordanElement(p, p.shift_up(1).truncate(p.order)).matrix(p.order + 1)
    m = e.truncate(p.order)
    x = lower_solve_rows(left.rows, list(zip(m.g.coefficients, (m.g * m.f).coefficients)))
    g = TruncatedSeries(row[0] for row in x)
    return RiordanElement(g, TruncatedSeries(row[1] for row in x) / g)


def closed_form_by_group(e, n):
    """((x/f)^(n-1), x(x/f)^(n-1))^-1 * (g, f) taken in the Riordan group: the
    left factor built as an element, inverted, and multiplied by ``e``; ``e``
    itself for n = 1.  An oracle for the library's closed form, whose
    group product it shares (``RiordanElement.mul``) but whose inverse it
    takes by ``inverse_by_reversion``."""
    if n == 1:
        return e
    p = (1 / e.f.shift_down(1)) ** (n - 1)
    left = RiordanElement(p, p.shift_up(1).truncate(p.order))
    return inverse_by_reversion(left).mul(e.truncate(p.order))


def closed_form_by_lagrange(e, n, size):
    """The closed form ((x/f)^(n-1), x(x/f)^(n-1))^-1 * (g, f) at ``size``,
    entry by entry by Lagrange-Buermann (derivation step 4): with phi = f/x
    and E = k + (n-1)(m+1), entry (m, k) is
    [x^(m-k)] g * phi^E * (n - (n-1) x f'/f)
      = [x^(m-k)] g * (phi^E - (n-1) * x phi' * phi^(E-1)),
    since x f'/f = 1 + x phi'/phi.  Plain Fraction lists, each power of phi
    the product of the last: no reversion, group product or solve."""
    degree = size - 1
    g = [Fraction(c) for c in e.g.coefficients[:size]]
    phi = [Fraction(c) for c in e.f.coefficients[1 : size + 1]]
    g_x_dphi = poly_mul(g, [i * c for i, c in enumerate(phi)], degree)
    powers = [[Fraction(1)] + [Fraction(0)] * degree]
    while len(powers) <= degree + (n - 1) * size:
        powers.append(poly_mul(powers[-1], phi, degree))

    def entry(m, k):
        power, j = k + (n - 1) * (m + 1), m - k
        value = sum(g[i] * powers[power][j - i] for i in range(j + 1))
        if n > 1:
            value -= (n - 1) * sum(g_x_dphi[i] * powers[power - 1][j - i] for i in range(j + 1))
        return value

    return tuple(
        tuple(entry(m, k) if k <= m else Fraction(0) for k in range(size)) for m in range(size)
    )


def poly_power(a, exponent, degree):
    """a ** exponent up to x^degree, by binary powering on ``poly_mul``."""
    result, base = [Fraction(1)] + [Fraction(0)] * degree, list(a[: degree + 1])
    while exponent:
        if exponent & 1:
            result = poly_mul(result, base, degree)
        exponent >>= 1
        if exponent:
            base = poly_mul(base, base, degree)
    return result


def bell_entry(a, n, m, k):
    """Entry (m, k) of Pi_n(e) for the Bell element e = (f/x, f) with
    f = x A(f), A given by its coefficient list ``a``: Pi_n(e) is the Bell
    element of A^n, so by Lagrange inversion the entry is
    (k+1)/(m+1) [t^(m-k)] A(t)^(n(m+1)) (docs/derivation.md, "The Bell
    subgroup")."""
    if not 0 <= k <= m:
        return Fraction(0)
    return Fraction(k + 1, m + 1) * poly_power(a, n * (m + 1), m - k)[m - k]


def orthogonal_polys(r, count):
    """Rows of M(r)^-1 = (1/(1+rx)^2, x/(1+rx)^2), row n cut at its diagonal:
    the monic orthogonal polynomials of the moment array M(r), ascending in
    x, with P_n = (x - 2r) P_(n-1) - r^2 P_(n-2).  Entry (n, k) is
    [x^(n-k)] (1 + rx)^(-2(k+1)), a binomial series.  The library's former
    formula for ``family moment:r``, an oracle for
    ``ProductionMatrix.orthogonal_rows``."""
    return [
        tuple(general_binomial(Fraction(-2 * (k + 1)), n - k) * Fraction(r) ** (n - k) for k in range(n + 1))
        for n in range(count)
    ]


def orthogonal_rows_by_inverse_element(p, g0):
    """``ProductionMatrix.orthogonal_rows`` by the library's former route, an
    oracle for Favard's recurrence on production matrices of Riordan shape:
    the rows of the inverse element ((1 - x*Z/A)/g0, x/A), Z and A read off
    columns 0 and 1 of ``p``, which is right only when every column past 0
    is a shift of column 1."""
    rows, size = p.rows, p.size
    below = (c for i in range(2, size) for c in rows[i][: i - 1])
    if any(below) or not all(rows[k][k - 1] for k in range(1, size)):
        return None
    a = TruncatedSeries(p.column(1) if size > 1 else [1])  # no A at size 1
    inverse = RiordanElement(*_inverse_pair(a, TruncatedSeries(p.column(0)), as_fraction(g0)))
    return tuple(row[: k + 1] for k, row in enumerate(inverse.matrix(size).rows))


def hankel_determinant(values, m):
    """det(values[i + j]) for 0 <= i, j <= m by Gaussian elimination in
    plain Fractions."""
    rows = [[Fraction(values[i + j]) for j in range(m + 1)] for i in range(m + 1)]
    det = Fraction(1)
    for c in range(m + 1):
        pivot = next((r for r in range(c, m + 1) if rows[r][c]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != c:
            rows[c], rows[pivot] = rows[pivot], rows[c]
            det = -det
        det *= rows[c][c]
        for r in range(c + 1, m + 1):
            factor = rows[r][c] / rows[c][c]
            rows[r] = [x - factor * y for x, y in zip(rows[r], rows[c])]
    return det


def totally_positive(rows):
    """Whether every minor of the square matrix ``rows`` is nonnegative: each
    k x k minor expanded along its first row from the (k-1) x (k-1) minors,
    in plain Fractions (923 minors at size 6)."""
    size = len(rows)
    minors = {((), ()): 1}
    for k in range(1, size + 1):
        for r in itertools.combinations(range(size), k):
            for c in itertools.combinations(range(size), k):
                det = sum(
                    (-1) ** j * rows[r[0]][c[j]] * minors[r[1:], c[:j] + c[j + 1 :]] for j in range(k)
                )
                if det < 0:
                    return False
                minors[r, c] = det
    return True


def from_az_by_inverse(a, z):
    """The element with A-sequence ``a`` and Z-sequence ``z`` as the group
    inverse of (1 - x*Z/A, x/A), taken by ``inverse_by_reversion``, an oracle
    for ``RiordanElement.from_az``."""
    common = min(a.order, z.order)
    a, z = a.truncate(common), z.truncate(common)
    return inverse_by_reversion(RiordanElement(1 - (z / a).shift_up(1), (1 / a).shift_up(1)))


def catalan_number(n: int) -> int:
    return math.comb(2 * n, n) // (n + 1)


def catalan_by_sqrt(order: int) -> TruncatedSeries:
    """(1 - sqrt(1-4x)) / (2x) through the kernel's square root, shift and
    halving: a reference for ``catalan_gf``, which reads each term off the
    last."""
    root = TruncatedSeries([1, -4], order + 1).sqrt()
    return (1 - root).shift_down(1) / 2


def moment_by_square(r: Fraction, order: int) -> RiordanElement:
    """(c(rx)^2, x c(rx)^2), with c(rx) scaled term by term and squared by the
    kernel: a reference for ``moment_element``."""
    crx = TruncatedSeries([c * r**k for k, c in enumerate(catalan_by_sqrt(order).coefficients)])
    g = crx * crx
    return RiordanElement(g, g.shift_up(1).truncate(order))


def a085478_by_powers(order: int) -> RiordanElement:
    """(1/(1-x), x/(1-x)^2) through the kernel's negative powers: a reference
    for ``a085478_element``."""
    base = TruncatedSeries([1, -1], order)
    return RiordanElement(base**-1, (base**-2).shift_up(1).truncate(order))


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


def dump_lines(text):
    r"""The lines of a dump's text, split where the library splits them: at
    "\r\n", "\r" and "\n" only (``str.splitlines`` also splits at "\x0b",
    "\x0c", "\x1c"-"\x1e", "\x85", "\u2028" and "\u2029"); no empty last
    line after a final line end."""
    lines = re.split(r"\r\n|\r|\n", text)
    return lines[:-1] if lines[-1] == "" else lines


def stripped_by_int_tuples(text):
    """A stripped dump read the way the library once read it, every record
    parsed by ``int()`` into a tuple: ``(entries, skipped_lines)``.  It agrees
    with ``load_stripped`` on dumps whose integers are canonical."""
    entries, skipped = {}, 0
    for line in dump_lines(text):
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
