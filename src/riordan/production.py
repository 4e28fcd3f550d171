"""Production matrices of every order and their closed-form counterparts.

The production matrix of a lower-triangular invertible matrix M is
P = M^-1 * (M with its top row removed); row n+1 of M is row n times P.
The n-th production matrix generalizes this: remove the top n rows, multiply
by M^-1, then drop the first n-1 columns.  For a Riordan element the result
is lower Hessenberg, its column 0 is a Z-sequence and its later columns are
shifted copies of an A-sequence, so it generates another Riordan matrix.
This module computes these objects exactly, every n-th production matrix
from the A- and Z-series of the first (the tests check that route against
the definition and against column generating functions), together with the
closed-form element that the n-th production matrix generates, and a
verifier comparing the two.
"""

from __future__ import annotations

from operator import mul

from .arrays import _ONE, ExactMatrix, RiordanElement, Rows, TriMatrix, _block, _require
from .errors import PrecisionError, Record
from .series import Rational, TruncatedSeries, _ratio, as_fraction, lift


class ProductionMatrix(ExactMatrix):
    """Square lower-Hessenberg matrix with exact rational entries.

    For production matrices of Riordan elements, column 0 holds the
    Z-sequence and each column k >= 1 holds the A-sequence shifted down
    k - 1 places, so ``column(0)`` and ``column(1)`` read them off.
    """

    __slots__ = ()

    BAND = 1

    def orthogonal_rows(self, g0: Rational) -> Rows | None:
        """The rows of M^-1, each cut at its diagonal, for M = g0 T and T the
        triangle this matrix generates, when it is a Jacobi matrix at its size
        (zero below the subdiagonal, nonzero on it and on the superdiagonal);
        else None.  Row k is the k-th orthogonal polynomial of M's column 0,
        ascending in x, by Favard's recurrence on the three diagonals (x p = P p):
        p_0 = 1/g0, p_(k+1) = ((x - P[k,k]) p_k - P[k,k-1] p_(k-1)) / P[k,k+1]."""
        rows, size = self.rows, self.size
        below = (c for i in range(2, size) for c in rows[i][: i - 1])
        if any(below) or not all(rows[k][k - 1] and rows[k - 1][k] for k in range(1, size)):
            return None
        p = [(), (1 / as_fraction(g0),)]  # p_(-1) = 0 and p_0
        for k in range(size - 1):
            b, lam, up = rows[k][k], rows[k][k - 1] if k else 0, rows[k][k + 1]
            here, low = p[-1] + (0,), p[-2] + (0, 0)
            p.append(tuple((x - b * h - lam * l) / up for x, h, l in zip((0,) + p[-1], here, low)))
        return tuple(p[1:])


# ---------------------------------------------------------------------------
# extraction
# ---------------------------------------------------------------------------

def _nth_az(e: RiordanElement, n: int, order: int) -> tuple[TruncatedSeries, TruncatedSeries]:
    # A_n to ``order`` and Z_n to order - 1 (to ``order`` for n = 1), from P_1's
    # columns 1 and 0, A and Z, which the element solves once and keeps
    a, z = e._az_series(order)
    if n == 1:
        return a, z
    # P_n = P_1 T(B) with B = A^(n-1) (derivation step 3)
    b = a ** (n - 1)
    b0 = b.constant_term
    return a * b, b0 * z + a * (b - b0).shift_down(1)


def production_block(e: RiordanElement, n: int, size: int) -> Rows:
    """The size x size block of M^-1 times M with its top n rows removed.

    This is the raw object from which the n-th production matrix is cut; its
    first n-1 columns have not yet been removed, so it is generally not
    Hessenberg.
    """
    _require(e, size + n - 1, "a size-{size} block with {n} rows removed", n, size)
    return tuple(_block(e, n, size, size))


def production_matrix(e: RiordanElement, size: int) -> ProductionMatrix:
    """The classical production matrix P with M * P = M shifted up one row."""
    return nth_production_matrix(e, 1, size)


def nth_production_matrix(e: RiordanElement, n: int, size: int) -> ProductionMatrix:
    """The n-th production matrix: drop n top rows, multiply by the inverse,
    then drop the first n-1 columns (n=1 is the classical production matrix).
    Column 0 is Z_n and column j >= 1 is A_n shifted down j - 1 places.
    Needs e at order size, or size + 1 for n >= 2, whatever n is."""
    what = "the order-{n} production matrix at size {size}"
    _require(e, size + 1 if n > 1 else size, what, n, size)
    # at order size where e allows, so every n at this size shares one solve
    a, z = (s.coefficients for s in _nth_az(e, n, min(size, e.order - 1)))
    return ProductionMatrix([((z[i],) + a[i::-1])[:size] for i in range(size)])


def generate_from_production(p: ProductionMatrix, size: int) -> TriMatrix:
    """Unfold a production matrix into the triangle it generates.

    Row 0 is (1, 0, ...); each later row is the previous row times p.
    """
    if size < 1:
        raise ValueError("size must be positive")
    if p.size < size:
        raise PrecisionError(
            f"a size-{p.size} production matrix cannot generate {size} rows; "
            f"need size >= {size}"
        )
    lead = [lift(p.column(j)[:size]) for j in range(size)]
    # row i is zero past column i, and column j of p is zero above row j - 1
    starts = [0, *range(size - 1)]
    rows = [(_ONE,)]
    for i in range(size - 1):
        ints, d = lift(rows[i])
        band = [
            _ratio(sum(map(mul, ints[lo:], col[lo : i + 1])), d * dc)
            for (col, dc), lo in zip(lead[: i + 2], starts)
        ]
        rows.append(band)
    return TriMatrix(rows)


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------

def nth_az(e: RiordanElement, n: int) -> tuple[TruncatedSeries, TruncatedSeries]:
    """A- and Z-series of the n-th production matrix, from columns 1 and 0
    of the classical one (derivation step 3).

    For n=1 these are the classical A- and Z-sequences; the returned orders
    are e.order-1 and e.order-2.
    """
    _require(e, 2, "A/Z extraction", n)
    a, z = _nth_az(e, n, e.order - 1)
    return a, z.truncate(e.order - 2)


def produced_matrix_closed_form(e: RiordanElement, n: int) -> RiordanElement:
    """The element generated by the n-th production matrix of ``e``:

        ((x/f)^(n-1), x*(x/f)^(n-1))^-1 * (g, f)

    For n=1 this is ``e`` itself, at e.order; for n >= 2 the result is at
    order e.order - 1 (one order is consumed by the x/f cancellation).
    """
    _require(e, 2 if n > 1 else 0, "the produced-matrix closed form", n)
    if n == 1:
        return e
    # (h, x*h)^-1 = (r/x, r) with h = (x/f)^(n-1) and r = rev(x*h) (derivation
    # step 4); x/f is known to order e.order - 1, so x*h and r to order e.order
    r = (e.f.shift_down(1) ** (1 - n)).shift_up(1).revert()
    return RiordanElement(r.shift_down(1), r.truncate(e.order - 1)).mul(e.truncate(e.order - 1))


def _second_closed_form_inverse(inverse: RiordanElement) -> RiordanElement:
    """Pi_2(s)^-1, the inverse of ``produced_matrix_closed_form(s, 2)``, from
    ``inverse`` = s^-1 = (G, F), with no reversion: by the group law it is
    s^-1 * (x/f, x^2/f) = (G*u, F*u) with u = F/x, since f(F) = x."""
    u = inverse.f.shift_down(1)
    return RiordanElement(inverse.g * u, inverse.f * u)


# ---------------------------------------------------------------------------
# conjecture verification
# ---------------------------------------------------------------------------

class VerificationReport(Record):
    """Outcome of comparing the generated matrix against the closed form;
    reports compare by identity."""

    __slots__ = (
        "element", "n", "size", "produced", "closed_form", "equal", "first_mismatch", "scale"
    )
    _defaults = {"scale": _ONE}
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def to_json_dict(self) -> dict:
        doc: dict = {
            "n": self.n,
            "size": self.size,
            "element": {
                "g": [str(c) for c in self.element.g.coefficients],
                "f": [str(c) for c in self.element.f.coefficients],
            },
            "equal": self.equal,
            "scale": str(self.scale),
            "produced": self.produced.to_json_entries(),
            "closed_form": self.closed_form.to_json_entries(),
            "first_mismatch": None,
        }
        if self.first_mismatch is not None:
            i, j = self.first_mismatch
            doc["first_mismatch"] = {
                "row": i,
                "col": j,
                "produced": str(self.produced[i, j]),
                "closed_form": str(self.closed_form[i, j]),
            }
        return doc

    def to_text(self) -> str:
        """The verdict line; after a mismatch, both matrices too."""
        head = f"n={self.n} size={self.size}: "
        if self.equal:
            return head + "equal"
        i, j = self.first_mismatch
        scale = f" scale={self.scale}" if self.scale != 1 else ""
        return "\n".join([
            f"{head}MISMATCH at ({i}, {j}): produced={self.produced[i, j]} "
            f"closed_form={self.closed_form[i, j]}{scale}",
            "produced:", self.produced.to_text(),
            "closed form:", self.closed_form.to_text(),
        ])


def verify_nth_conjecture(
    e: RiordanElement, n: int, size: int
) -> VerificationReport:
    """Generate the matrix from the n-th production matrix and compare it,
    entry for entry, with the closed form.

    A production matrix fixes the triangle it generates only up to a scalar:
    the generated one starts at row (1, 0, ...), the closed form at
    g(0) f'(0)^(n-1).  So the check is closed = scale * produced with scale
    the closed form's (0, 0) entry, which is 1 for normalized elements.
    Disagreement is reported, not raised: the equality is proved for n = 2
    and 3, follows for n = 2^a 3^b from the composition remarks of
    docs/derivation.md, and is conjectural otherwise."""
    produced = generate_from_production(nth_production_matrix(e, n, size), size)
    low = e.truncate(min(e.order, max(2, size)))  # e to the order the block reads
    closed = produced_matrix_closed_form(low, n).matrix(size)
    scale = closed[0, 0]
    cells = ((i, j) for i in range(size) for j in range(i + 1))
    mismatch = None
    if scale != 1 or produced.rows != closed.rows:
        mismatch = next((c for c in cells if scale * produced[c] != closed[c]), None)
    return VerificationReport(
        element=e,
        n=n,
        size=size,
        produced=produced,
        closed_form=closed,
        equal=mismatch is None,
        first_mismatch=mismatch,
        scale=scale,
    )
