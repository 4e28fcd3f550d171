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

from fractions import Fraction

from .arrays import ExactMatrix, RiordanElement, Rows, TriMatrix, row_times
from .errors import PrecisionError, Record, ShapeError
from .series import TruncatedSeries, _compose_lists, lift

_ZERO = Fraction(0)
_ONE = Fraction(1)


class ProductionMatrix(ExactMatrix):
    """Square lower-Hessenberg matrix with exact rational entries.

    For production matrices of Riordan elements, column 0 holds the
    Z-sequence and each column k >= 1 holds the A-sequence shifted down
    k - 1 places.
    """

    __slots__ = ()

    BAND = 1

    def z_column(self) -> tuple[Fraction, ...]:
        return self.column(0)

    def a_column(self) -> tuple[Fraction, ...]:
        """Column 1, which reads off the A-sequence a0, a1, ..."""
        if self.size < 2:
            raise ShapeError("need size >= 2 to read the A-column")
        return self.column(1)

    def superdiagonal(self) -> tuple[Fraction, ...]:
        return tuple(self._rows[i][i + 1] for i in range(self.size - 1))


# ---------------------------------------------------------------------------
# extraction
# ---------------------------------------------------------------------------

def _require_order(e: RiordanElement, needed: int, what: str) -> None:
    if e.order < needed:
        raise PrecisionError(
            f"{what} needs the element at order >= {needed}, but it has "
            f"order {e.order}"
        )


def _nth_az(e: RiordanElement, n: int, order: int) -> tuple[TruncatedSeries, TruncatedSeries]:
    # A_n to ``order`` and Z_n to order - 1 (to ``order`` for n = 1), from P_1's
    # columns 1 and 0, A and Z: a two-column solve M X = (M without its top
    # row), kept on the element (elements are immutable) and solved again
    # only for a higher order
    az = e._az
    if az is None or az[0].order < order:
        m = e.matrix(order + 2)
        cols = m.solve(m.block(1, 0, order + 1, 2))
        az = e._az = TruncatedSeries(r[1] for r in cols), TruncatedSeries(r[0] for r in cols)
    a, z = (s.truncate(order) for s in az)
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
    if n < 1:
        raise ValueError("n must be at least 1")
    if size < 1:
        raise ValueError("size must be positive")
    _require_order(e, size + n - 1, f"a size-{size} block with {n} rows removed")
    m = e.matrix(size + n)  # the solve reads its leading size rows
    return m.solve(m.block(n, 0, size, size))


def production_matrix(e: RiordanElement, size: int) -> ProductionMatrix:
    """The classical production matrix P with M * P = M shifted up one row."""
    return nth_production_matrix(e, 1, size)


def nth_production_matrix(e: RiordanElement, n: int, size: int) -> ProductionMatrix:
    """The n-th production matrix: drop n top rows, multiply by the inverse,
    then drop the first n-1 columns (n=1 is the classical production matrix).
    Column 0 is Z_n and column j >= 1 is A_n shifted down j - 1 places.
    Needs e at order size, or size + 1 for n >= 2, whatever n is."""
    if n < 1:
        raise ValueError("n must be at least 1")
    if size < 1:
        raise ValueError("size must be positive")
    what = f"the order-{n} production matrix at size {size}"
    _require_order(e, size + 1 if n > 1 else size, what)
    # at order size where e allows, so every n at this size shares one solve
    a, z = (s.coefficients for s in _nth_az(e, n, min(size, e.order - 1)))
    return ProductionMatrix.from_rows([((z[i],) + a[i::-1])[:size] for i in range(size)])


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
    rows = [(_ONE,) + (_ZERO,) * (size - 1)]
    for _ in range(size - 1):
        rows.append(row_times(rows[-1], lead))
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
    if n < 1:
        raise ValueError("n must be at least 1")
    _require_order(e, 2, "A/Z extraction")
    a, z = _nth_az(e, n, e.order - 1)
    return a, z.truncate(e.order - 2)


def produced_matrix_closed_form(e: RiordanElement, n: int) -> RiordanElement:
    """The element generated by the n-th production matrix of ``e``:

        ((x/f)^(n-1), x*(x/f)^(n-1))^-1 * (g, f)

    For n=1 this is ``e`` itself.  The result is returned at order
    e.order - 1 (one order is consumed by the x/f cancellation).
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if n == 1:
        return e
    _require_order(e, 2, "the produced-matrix closed form")
    # with r = rev(x*(x/f)^(n-1)) the product is (g(r) * r/x, f(r)); x/f is
    # known to order e.order - 1, so x*(x/f)^(n-1) and r to order e.order
    r = (e.f.shift_down(1) ** (1 - n)).shift_up(1).revert()
    # g(r) * r/x is (x*g)(r) / x, so one chain of the powers of r serves both
    xg, f = _compose_lists([e.g.shift_up(1).coefficients, e.f.coefficients], r.coefficients)
    return RiordanElement(TruncatedSeries(xg[1:]), TruncatedSeries(f[:-1]))


# ---------------------------------------------------------------------------
# conjecture verification
# ---------------------------------------------------------------------------

class VerificationReport(Record):
    """Outcome of comparing the generated matrix against the closed form;
    reports compare by identity."""

    __slots__ = (
        "element", "n", "size", "produced", "closed_form", "equal", "first_mismatch", "scale"
    )
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(
        self, element: RiordanElement, n: int, size: int, produced: TriMatrix,
        closed_form: TriMatrix, equal: bool, first_mismatch: tuple[int, int] | None,
        scale: Fraction = _ONE,
    ):
        super().__init__(element, n, size, produced, closed_form, equal, first_mismatch, scale)

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


def verify_nth_conjecture(
    e: RiordanElement, n: int, size: int
) -> VerificationReport:
    """Generate the matrix from the n-th production matrix and compare it,
    entry for entry, with the closed form.

    A production matrix fixes the triangle it generates only up to a scalar:
    the generated one starts at row (1, 0, ...), the closed form at
    g(0) f'(0)^(n-1).  So the check is closed = scale * produced with scale
    the closed form's (0, 0) entry, which is 1 for normalized elements.
    Disagreement is reported, not raised: for n >= 4 the equality is not
    proved, so a counterexample is a legitimate result."""
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
