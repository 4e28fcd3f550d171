"""Exception hierarchy shared across the package, and its record base class.

Everything raised deliberately by this library derives from
:class:`RiordanError`, so callers (and the CLI) can distinguish domain
errors from genuine bugs.
"""

from __future__ import annotations


class Record:
    """Base of the package's small immutable value classes.

    A subclass names its fields in ``__slots__`` and passes their values, in
    that order, to ``Record.__init__``.  Equality (between instances of one
    class), hash and repr read the fields named by ``_compared``; assigning
    or deleting a field raises AttributeError.
    """

    __slots__ = ()

    def __init__(self, *values):
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    @property
    def _compared(self) -> tuple[str, ...]:
        return self.__slots__

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._compared)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._compared)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self.__slots__)


class RiordanError(Exception):
    """Base class for all structured errors raised by this package."""


class PrecisionError(RiordanError):
    """A computation asked for more coefficients than are known.

    Truncated series never fabricate coefficients beyond their order;
    requesting one is an error, not a zero.
    """


class NonUnitError(RiordanError):
    """Division (or a negative power) by a series with zero constant term."""


class CompositionError(RiordanError):
    """Composition with an inner series whose constant term is nonzero."""


class ReversionError(RiordanError):
    """The series has no compositional inverse (needs f(0)=0, f'(0)!=0)."""


class SqrtError(RiordanError):
    """The constant term is not the square of a rational number."""


class CoefficientSizeError(RiordanError):
    """A result would hold a numerator or denominator past the size budget."""


class InvalidElementError(RiordanError):
    """A (g, f) pair violates the Riordan group membership conditions."""


class SingularMatrixError(RiordanError):
    """A triangular matrix with a zero diagonal entry cannot be inverted."""


class ShapeError(RiordanError):
    """Matrix entries violate the required triangular/Hessenberg shape."""


class UnknownFamilyError(RiordanError):
    """A family identifier that the library does not know."""


class OeisFormatError(RiordanError):
    """The OEIS dump file is unreadable or contains no parseable lines."""


class OeisQueryError(RiordanError):
    """A lookup query is malformed (too short, or not made of integers)."""


class ExpressionError(RiordanError):
    """Problem with a generating-function expression; carries a 0-based
    character offset into the source text."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at offset {position})")
        self.position = position


class ExpressionSyntaxError(ExpressionError):
    """The expression text does not parse."""


class ExpressionEvalError(ExpressionError):
    """The expression parsed but cannot be evaluated as a power series."""
