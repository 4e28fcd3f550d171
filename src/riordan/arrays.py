"""Riordan group elements and their exact matrix representations.

An element is a pair (g, f) of truncated series with g(0) != 0, f(0) = 0 and
f'(0) != 0.  Its matrix has entry (n, k) equal to the coefficient of x^n in
g * f^k, which makes the matrix lower triangular and invertible.  Group
multiplication is (g, f) * (u, v) = (g * u(f), v(f)); the inverse element is
(1 / g(rev f), rev f) with rev f the compositional inverse of f.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from fractions import Fraction
from operator import mul

from .errors import InvalidElementError, PrecisionError, Record, ShapeError
from .series import _ZERO, TruncatedSeries, _compose_lists, _forward, _powers, _ratio, as_fraction, lift

Rows = tuple[tuple[Fraction, ...], ...]

_ONE = Fraction(1)


# ---------------------------------------------------------------------------
# entry formatting for every ExactMatrix
# ---------------------------------------------------------------------------

def render_rows(rows: Sequence[Sequence[Fraction]]) -> str:
    """Aligned text table.

    Integer-valued matrices print without denominators; as soon as one entry
    is a proper fraction, every entry prints as num/den so the format never
    mixes within one matrix.
    """
    integral = all(c.denominator == 1 for row in rows for c in row)
    if integral:
        cells = [[str(c.numerator) for c in row] for row in rows]
    else:
        cells = [[f"{c.numerator}/{c.denominator}" for c in row] for row in rows]
    ncols = max(len(row) for row in cells)
    widths = [
        max(len(row[j]) for row in cells if j < len(row)) for j in range(ncols)
    ]
    lines = [
        "  ".join(cell.ljust(widths[j]) for j, cell in enumerate(row)).rstrip()
        for row in cells
    ]
    return "\n".join(lines)


def rows_to_strings(rows: Sequence[Sequence[Fraction]]) -> list[list[str]]:
    """Entries as exact strings ("7" or "7/2") for JSON output."""
    return [[str(c) for c in row] for row in rows]


# kept public: perfbench/tracer.py binds it until ROADMAP item 1b; item 9 removes it
def mat_mul(a: Sequence[Sequence[Fraction]], b: Sequence[Sequence[Fraction]]) -> Rows:
    """Dense product of two row-major rational matrices, lifting each row and
    each column once (``series.lift``)."""
    if not a or any(len(row) != len(b) for row in a):
        raise ShapeError("inner dimensions do not match")
    if any(len(row) != len(b[0]) for row in b):  # zip(*b) would cut b short
        raise ShapeError("the right operand has ragged rows")
    columns = [lift(col) for col in zip(*b)]
    return tuple(
        tuple(_ratio(sum(map(mul, ints, col)), d * dc) for col, dc in columns)
        for ints, d in map(lift, a)
    )


class ExactMatrix(Record):
    """Dense square matrix with exact rational entries that vanish more than
    ``BAND`` places above the diagonal; ``rows`` holds every row at full
    length.

    Storage, validation, access and rendering live here; equality, hash and
    immutability come from ``Record``, so matrices of different classes
    never compare equal, even with equal entries.  Each subclass fixes
    ``BAND`` and adds its own operations.
    """

    __slots__ = ("rows",)

    BAND = 0

    def __init__(self, rows: Iterable[Iterable[Fraction | int]]):
        """Row i lists entries 0, 1, ... and may stop anywhere up to the
        size; a short row is padded with zeros."""
        given = [tuple(c if isinstance(c, Fraction) else as_fraction(c) for c in row) for row in rows]
        size = len(given)
        if size == 0:
            raise ShapeError("matrix must have at least one row")
        for i, row in enumerate(given):
            if len(row) > size:
                raise ShapeError(f"row {i} is longer than the matrix size {size}")
            for j in range(i + self.BAND + 1, len(row)):
                if row[j]:
                    raise ShapeError(
                        f"entry ({i}, {j}) is {row[j]}, but a {type(self).__name__} "
                        f"is zero more than {self.BAND} places above the diagonal"
                    )
        super().__init__(tuple(row + (_ZERO,) * (size - len(row)) for row in given))

    @property
    def size(self) -> int:
        return len(self.rows)

    def __getitem__(self, index: tuple[int, int]) -> Fraction:
        n, k = index
        return self.rows[n][k]

    def column(self, k: int) -> tuple[Fraction, ...]:
        return tuple(row[k] for row in self.rows)

    def to_text(self) -> str:
        return render_rows(self.rows)

    def to_json_entries(self) -> list[list[str]]:
        return rows_to_strings(self.rows)

    def __repr__(self) -> str:
        return f"{type(self).__name__}(size={self.size})"


class TriMatrix(ExactMatrix):
    """Dense square lower-triangular matrix with exact rational entries."""

    __slots__ = ()

    # kept public: perfbench/tracer.py binds it until ROADMAP item 1b; item 9 removes it
    def inverse(self) -> "TriMatrix":
        """Exact inverse: one forward substitution (``series._forward``)
        against the identity's columns."""
        n = self.size
        rows = (lift(row[: i + 1]) for i, row in enumerate(self.rows))
        return TriMatrix(_forward(rows, [([int(i == j) for i in range(n)], 1) for j in range(n)]))


def _require(e: "RiordanElement", needed: int, what: str, n: int = 1, size: int = 1) -> None:
    """The argument checks that ``matrix`` and the production functions
    share, in this order: n >= 1, size >= 1, then ``e`` known to order
    ``needed``; ``what`` names the read, formatted with n and size only for
    its error."""
    if n < 1:
        raise ValueError("n must be at least 1")
    if size < 1:
        raise ValueError("size must be positive")
    if e.order < needed:
        raise PrecisionError(
            f"{what.format(n=n, size=size)} needs the element at order >= {needed}, "
            f"but it has order {e.order}"
        )


class RiordanElement:
    """A validated pair (g, f) representing a Riordan group element."""

    __slots__ = ("_g", "_f", "_frev", "_az")

    def __init__(self, g: TruncatedSeries, f: TruncatedSeries):
        if g.order != f.order:
            raise PrecisionError(
                f"g and f must share a truncation order (got {g.order} and "
                f"{f.order}); truncate explicitly"
            )
        if not g.constant_term:
            raise InvalidElementError("g must have nonzero constant term")
        if f.constant_term:
            raise InvalidElementError("f must have zero constant term")
        if f.order < 1 or not f.coefficient(1):
            raise InvalidElementError("f must have nonzero linear coefficient")
        self._g = g
        self._f = f
        self._frev: TruncatedSeries | None = None
        # A- and Z-series, kept by riordan.production
        self._az: tuple[TruncatedSeries, TruncatedSeries] | None = None

    @classmethod
    def identity(cls, order: int) -> "RiordanElement":
        return cls(TruncatedSeries([1], order), TruncatedSeries([0, 1], order))

    @property
    def g(self) -> TruncatedSeries:
        return self._g

    @property
    def f(self) -> TruncatedSeries:
        return self._f

    @property
    def order(self) -> int:
        return self._g.order

    def truncate(self, order: int) -> "RiordanElement":
        if order == self.order:
            return self
        return RiordanElement(self._g.truncate(order), self._f.truncate(order))

    # -- matrix representation -------------------------------------------------

    def matrix(self, size: int) -> TriMatrix:
        """Leading size x size block of the represented matrix."""
        _require(self, size - 1, "a {size}x{size} matrix", size=size)
        rows = _powers(self._g.coefficients[:size], self._f.coefficients, size)
        return TriMatrix([_ratio(v, d) for v in r] for r, d in rows)

    # -- group structure ---------------------------------------------------------

    def mul(self, other: "RiordanElement") -> "RiordanElement":
        """Group product; the matrix of the product is the matrix product."""
        if self.order != other.order:
            raise PrecisionError(
                "group multiplication needs equal orders; truncate explicitly"
            )
        # one chain of the powers of self.f serves both series of other
        u, v = _compose_lists([other._g.coefficients, other._f.coefficients], self._f.coefficients)
        return RiordanElement(self._g * TruncatedSeries(u), TruncatedSeries(v))

    __mul__ = mul

    def reverted_f(self) -> TruncatedSeries:
        """Compositional inverse of f (cached: elements are immutable)."""
        if self._frev is None:
            self._frev = self._f.revert()
        return self._frev

    def inverse(self) -> "RiordanElement":
        frev = self.reverted_f()
        return RiordanElement(1 / self._g.compose(frev), frev)

    # -- A- and Z-sequences -------------------------------------------------------

    @classmethod
    def from_az(
        cls, a: TruncatedSeries, z: TruncatedSeries
    ) -> "RiordanElement":
        """Rebuild the element whose production matrix has A-column ``a``
        and Z-column ``z``: (1/(1 - x*Z(F)), F) with F = rev(x/A), the
        solution of F = x*A(F); the result has order min(a.order, z.order) + 1."""
        if not a.constant_term:
            raise InvalidElementError(
                "invalid A-sequence: constant term must be nonzero"
            )
        common = min(a.order, z.order)
        f = (1 / a.truncate(common)).shift_up(1).revert()
        return cls(1 / (1 - z.truncate(common).compose(f).shift_up(1)), f)

    # -- comparison and display ----------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RiordanElement):
            return NotImplemented
        return self._g == other._g and self._f == other._f

    __hash__ = None  # series equality ignores surplus precision

    def __repr__(self) -> str:
        return f"RiordanElement(g={self._g!r}, f={self._f!r})"
