"""Riordan group elements and their exact matrix representations.

An element is a pair (g, f) of truncated series with g(0) != 0, f(0) = 0 and
f'(0) != 0.  Its matrix has entry (n, k) equal to the coefficient of x^n in
g * f^k, which makes the matrix lower triangular and invertible.  Group
multiplication is (g, f) * (u, v) = (g * u(f), v(f)); the inverse element,
(1 / g(rev f), rev f) with rev f the compositional inverse of f, is
((1 - x*Z/A)/g(0), x/A) in the A- and Z-series of the element's production
matrix, which the element solves for once and keeps.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from fractions import Fraction
from operator import mul

from .errors import InvalidElementError, PrecisionError, Record, ShapeError, shown
from .series import _ZERO, Rational, TruncatedSeries, _compose_lists, _forward, _powers, _ratio, as_fraction, lift

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


# kept public: perfbench/tracer.py binds it until the benchmark change of ROADMAP item 9 drops that
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
                        f"entry ({i}, {j}) is {shown(row[j])}, but a {type(self).__name__} "
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

    # kept public: perfbench/tracer.py binds it until the benchmark change of ROADMAP item 9 drops that
    def inverse(self) -> "TriMatrix":
        """Exact inverse: one forward substitution (``series._forward``)
        against the identity's columns."""
        n = self.size
        rows = (lift(row[: i + 1]) for i, row in enumerate(self.rows))
        return TriMatrix(_forward(rows, [([int(i == j) for i in range(n)], 1) for j in range(n)]))


def _block(e: "RiordanElement", n: int, size: int, cols: int) -> list[tuple[Fraction, ...]]:
    # columns 0..cols-1 of M^-1 (M without its top n rows) to ``size`` rows
    # (derivation step 1), solved on M's integer rows, whose rows n.. are the
    # right-hand sides, zero above the diagonal; builds only the columns read
    rows = _powers(e.g.coefficients[: size + n], e.f.coefficients, max(size, cols))
    rhs = [([r[j] if j < len(r) else 0 for r, _ in rows[n:]], rows[0][1]) for j in range(cols)]
    return _forward(rows[:size], rhs)


def _inverse_pair(a: TruncatedSeries, z: TruncatedSeries, g0: Rational) -> tuple[TruncatedSeries, TruncatedSeries]:
    """((1 - x*Z/A)/g0, x/A), one order above the common order of ``a`` and
    ``z``: the inverse of the element with A-series A, Z-series Z and
    g(0) = g0 (derivation step 1)."""
    common = min(a.order, z.order)
    u = 1 / a.truncate(common)
    return (1 - (z.truncate(common) * u).shift_up(1)) / g0, u.shift_up(1)


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


class RiordanElement(Record):
    """A validated pair (g, f) representing a Riordan group element; it
    caches the A- and Z-series of its production matrix (``_az``), from
    which its inverse and ``riordan.production`` read."""

    __slots__ = ("g", "f", "_az")

    __hash__ = None  # series equality ignores surplus precision

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
        super().__init__(g, f)

    @classmethod
    def identity(cls, order: int) -> "RiordanElement":
        return cls(TruncatedSeries([1], order), TruncatedSeries([0, 1], order))

    @property
    def order(self) -> int:
        return self.g.order

    def truncate(self, order: int) -> "RiordanElement":
        if order == self.order:
            return self
        return RiordanElement(self.g.truncate(order), self.f.truncate(order))

    # -- matrix representation -------------------------------------------------

    def matrix(self, size: int) -> TriMatrix:
        """Leading size x size block of the represented matrix."""
        _require(self, size - 1, "a {size}x{size} matrix", size=size)
        rows = _powers(self.g.coefficients[:size], self.f.coefficients, size)
        return TriMatrix([_ratio(v, d) for v in r] for r, d in rows)

    # -- group structure ---------------------------------------------------------

    def mul(self, other: "RiordanElement") -> "RiordanElement":
        """Group product; the matrix of the product is the matrix product."""
        if self.order != other.order:
            raise PrecisionError(
                "group multiplication needs equal orders; truncate explicitly"
            )
        # one chain of the powers of self.f serves both series of other
        u, v = _compose_lists([other.g.coefficients, other.f.coefficients], self.f.coefficients)
        return RiordanElement(self.g * TruncatedSeries(u), TruncatedSeries(v))

    __mul__ = mul

    # kept public: perfbench/tracer.py binds it until the benchmark change of ROADMAP item 9 drops that
    def reverted_f(self) -> TruncatedSeries:
        """Compositional inverse of f."""
        return self.inverse().f

    def inverse(self) -> "RiordanElement":
        """The group inverse at this order, read off the kept A- and Z-series
        (``_inverse_pair``) with no reversion and no composition."""
        return RiordanElement(*_inverse_pair(*self._az_series(self.order - 1), self.g.constant_term))

    # -- A- and Z-sequences -------------------------------------------------------

    def _az_series(self, order: int) -> tuple[TruncatedSeries, TruncatedSeries]:
        """A and Z to ``order`` < self.order, columns 1 and 0 of the
        production matrix, by one step-1 solve kept in ``_az`` (elements
        are immutable) and solved again only for a higher order."""
        az = self._az
        if az is None or az[0].order < order:
            cols = _block(self, 1, order + 1, 2)
            az = TruncatedSeries(r[1] for r in cols), TruncatedSeries(r[0] for r in cols)
            object.__setattr__(self, "_az", az)
        return az[0].truncate(order), az[1].truncate(order)

    @classmethod
    def from_az(
        cls, a: TruncatedSeries, z: TruncatedSeries
    ) -> "RiordanElement":
        """Rebuild the element with g(0) = 1 whose production matrix has
        A-column ``a`` and Z-column ``z``: the inverse of (1 - x*Z/A, x/A)
        (``_inverse_pair``); the result has order min(a.order, z.order) + 1."""
        if not a.constant_term:
            raise InvalidElementError(
                "invalid A-sequence: constant term must be nonzero"
            )
        return cls(*_inverse_pair(a, z, 1)).inverse()
