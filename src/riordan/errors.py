"""Exception hierarchy shared across the package, and its record base class.

Domain errors derive from :class:`RiordanError`; argument checks raise plain
ValueError (a size, order, count, n or key out of range) or TypeError (a
value that is not an exact int or Fraction, or of the wrong type).
:class:`Record` is the base of the immutable value classes that name their
fields once, in ``__slots__``: the syntax-tree nodes and tokens of
``gfexpr``, ``SequenceMatch``, ``VerificationReport`` and the exact matrices.
"""

from __future__ import annotations


class Record:
    """Base of the package's immutable value classes: the syntax-tree nodes
    and tokens of ``gfexpr``, ``SequenceMatch``, ``VerificationReport`` and
    the exact matrices, ``TriMatrix`` and ``ProductionMatrix``.

    A class names its fields once, in ``__slots__``, and its fields are
    those of each class in its MRO, base first: a subclass with empty
    ``__slots__`` keeps its base's.  ``_defaults`` maps the fields that may
    be left out to their values.  The constructor binds values by position
    and by name, and raises TypeError for a missing field, a surplus
    positional value, a field given twice or an unknown keyword.  Equality
    (within one class), hash and repr read the fields named by
    ``_compared``; pickling and copying go through the constructor; any
    attribute assignment or deletion raises AttributeError.
    """

    __slots__ = ()

    _fields: tuple[str, ...] = ()
    _defaults: dict = {}

    def __init_subclass__(cls):
        slots = (c.__dict__.get("__slots__", ()) for c in reversed(cls.__mro__))
        cls._fields = tuple(name for names in slots for name in names)

    def __init__(self, *args, **kwargs):
        for name, value in zip(self._fields, self._bind(args, kwargs)):
            object.__setattr__(self, name, value)

    @classmethod
    def _bind(cls, args: tuple, kwargs: dict) -> tuple:
        """One value per field: ``args`` in field order, ``kwargs`` by name,
        then the class's defaults."""
        fields, what = cls._fields, cls.__qualname__
        if len(args) > len(fields):
            raise TypeError(f"{what} takes at most {len(fields)} positional values, got {len(args)}")
        for name in kwargs:
            if name not in fields:
                raise TypeError(f"{what} has no field {name!r}")
            if name in fields[: len(args)]:
                raise TypeError(f"{what} got field {name!r} twice")
        values = {**cls._defaults, **dict(zip(fields, args)), **kwargs}
        if missing := [name for name in fields if name not in values]:
            raise TypeError(f"{what} is missing field(s) {', '.join(missing)}")
        return tuple(values[name] for name in fields)

    @property
    def _compared(self) -> tuple[str, ...]:
        return self._fields

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
        return type(self), tuple(getattr(self, name) for name in self._fields)


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
    """A matrix or operand is ragged, of mismatched size, or nonzero off its band."""


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
