"""Riordan group elements and their exact matrix representations.

An element is a pair (g, f) of truncated series with g(0) != 0, f(0) = 0 and
f'(0) != 0.  Its matrix has entry (n, k) equal to the coefficient of x^n in
g * f^k, which makes the matrix lower triangular and invertible.  Group
multiplication is (g, f) * (u, v) = (g * u(f), v(f)); the inverse element is
(1 / g(rev f), rev f) with rev f the compositional inverse of f.
"""

from __future__ import annotations

from fractions import Fraction
from operator import mul
from typing import Iterable, Sequence, TypeVar

from .errors import InvalidElementError, PrecisionError, ShapeError
from .series import TruncatedSeries, _chain, _forward, _ratio, as_fraction, lift

Rows = tuple[tuple[Fraction, ...], ...]

_ZERO = Fraction(0)
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


def row_times(
    row: Sequence[Fraction], columns: list[tuple[list[int], int]]
) -> tuple[Fraction, ...]:
    """The row vector ``row`` times the matrix whose columns are given lifted,
    each as integer numerators over its own denominator (``series.lift``)."""
    ints, d = lift(row)
    return tuple(_ratio(sum(map(mul, ints, col)), d * dc) for col, dc in columns)


def mat_mul(a: Sequence[Sequence[Fraction]], b: Sequence[Sequence[Fraction]]) -> Rows:
    """Dense product of two row-major rational matrices, lifting each once."""
    if not a or len(a[0]) != len(b):
        raise ShapeError("inner dimensions do not match")
    columns = [lift(col) for col in zip(*b)]
    return tuple(row_times(row, columns) for row in a)


_M = TypeVar("_M", bound="ExactMatrix")


class ExactMatrix:
    """Dense square matrix with exact rational entries that vanish more than
    ``BAND`` places above the diagonal.

    Storage, validation, access, rendering and equality live here; each
    subclass fixes ``BAND`` and adds its own operations.  Matrices of
    different classes never compare equal, even with equal entries.
    """

    __slots__ = ("_rows",)

    BAND = 0

    def __init__(self, rows: Iterable[Iterable[Fraction]]):
        frozen = tuple(
            tuple(c if isinstance(c, Fraction) else as_fraction(c) for c in row)
            for row in rows
        )
        size = len(frozen)
        if size == 0:
            raise ShapeError("matrix must have at least one row")
        for i, row in enumerate(frozen):
            if len(row) != size:
                raise ShapeError(f"row {i} has {len(row)} entries, expected {size}")
            for j in range(i + self.BAND + 1, size):
                if row[j]:
                    raise ShapeError(
                        f"entry ({i}, {j}) is {row[j]}, but a {type(self).__name__} "
                        f"is zero more than {self.BAND} places above the diagonal"
                    )
        self._rows = frozen

    @classmethod
    def from_rows(cls: type[_M], rows: Sequence[Sequence[Fraction | int]]) -> _M:
        """Build from ragged rows (row i may list only entries 0..i+BAND)."""
        size = len(rows)
        full = []
        for i, row in enumerate(rows):
            if len(row) > size:
                raise ShapeError(f"row {i} is longer than the matrix size {size}")
            full.append([as_fraction(c) for c in row] + [_ZERO] * (size - len(row)))
        return cls(full)

    @property
    def size(self) -> int:
        return len(self._rows)

    @property
    def rows(self) -> Rows:
        return self._rows

    def __getitem__(self, index: tuple[int, int]) -> Fraction:
        n, k = index
        return self._rows[n][k]

    def row(self, n: int) -> tuple[Fraction, ...]:
        return self._rows[n]

    def column(self, k: int) -> tuple[Fraction, ...]:
        return tuple(row[k] for row in self._rows)

    def to_text(self) -> str:
        return render_rows(self._rows)

    def to_json_entries(self) -> list[list[str]]:
        return rows_to_strings(self._rows)

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._rows == other._rows

    def __hash__(self) -> int:
        return hash(self._rows)

    def __repr__(self) -> str:
        return f"{type(self).__name__}(size={self.size})"



class TriMatrix(ExactMatrix):
    """Dense square lower-triangular matrix with exact rational entries."""

    __slots__ = ()

    def block(self, row0: int, col0: int, nrows: int, ncols: int) -> Rows:
        """Raw rectangular block (not necessarily triangular)."""
        if row0 + nrows > self.size or col0 + ncols > self.size:
            raise ShapeError("block reaches outside the matrix")
        return tuple(
            self._rows[i][col0 : col0 + ncols] for i in range(row0, row0 + nrows)
        )

    def mul(self, other: "TriMatrix") -> "TriMatrix":
        if self.size != other.size:
            raise ShapeError("matrix sizes differ")
        return TriMatrix(mat_mul(self._rows, other._rows))

    __matmul__ = mul

    def solve(self, rhs: Sequence[Sequence[Fraction]]) -> Rows:
        """X with self * X = rhs, by forward substitution (``series._forward``);
        only the first len(rhs) rows of self are read."""
        if len(rhs) > self.size:
            raise ShapeError(f"{len(rhs)} right-hand rows for a size-{self.size} matrix")
        rows = (lift(self._rows[i][: i + 1]) for i in range(len(rhs)))
        return tuple(_forward(rows, [lift(col) for col in zip(*rhs)]))

    def inverse(self) -> "TriMatrix":
        """Exact inverse: a solve against the identity."""
        n = self.size
        identity = [[_ONE if i == j else _ZERO for j in range(n)] for i in range(n)]
        return TriMatrix(self.solve(identity))

    def lower_rows(self) -> list[list[Fraction]]:
        """Ragged rows of the lower triangle (row n has n+1 entries)."""
        return [list(row[: i + 1]) for i, row in enumerate(self._rows)]


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
        return cls(TruncatedSeries.one(order), TruncatedSeries.x(order))

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
        if size < 1:
            raise ValueError("size must be positive")
        if size > self.order + 1:
            raise PrecisionError(
                f"a {size}x{size} matrix needs the element at order >= {size - 1}, "
                f"but it has order {self.order}"
            )
        # column k is g * f^k, one integer chain
        rows = [[_ZERO] * size for _ in range(size)]
        g, f = lift(self._g.coefficients[:size]), lift(self._f.coefficients[:size])
        for k, (column, d) in enumerate(_chain(g, f, size)):
            for n in range(k, size):
                rows[n][k] = _ratio(column[n], d)
        return TriMatrix(rows)

    # -- group structure ---------------------------------------------------------

    def mul(self, other: "RiordanElement") -> "RiordanElement":
        """Group product; the matrix of the product is the matrix product."""
        if self.order != other.order:
            raise PrecisionError(
                "group multiplication needs equal orders; truncate explicitly"
            )
        return RiordanElement(
            self._g * other._g.compose(self._f),
            other._f.compose(self._f),
        )

    __mul__ = mul

    def reverted_f(self) -> TruncatedSeries:
        """Compositional inverse of f (cached: elements are immutable)."""
        if self._frev is None:
            self._frev = self._f.revert()
        return self._frev

    def inverse(self) -> "RiordanElement":
        frev = self.reverted_f()
        return RiordanElement(1 / self._g.compose(frev), frev)

    def ftra_apply(self, h: TruncatedSeries) -> TruncatedSeries:
        """Action on a single series: g * h(f).

        Column k of the matrix has generating function ftra_apply(x^k).
        """
        return self._g * h.compose(self._f)

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
