"""Exception hierarchy shared across the package, and its record base class.

Domain errors derive from :class:`RiordanError`; argument checks raise plain
ValueError (a size, order, count, n or key out of range) or TypeError (a
value that is not an exact int or Fraction, or of the wrong type).
:class:`Record` is the base of every immutable value class:
``TruncatedSeries``, ``RiordanElement``, the exact matrices, the syntax-tree
nodes and tokens of ``gfexpr``, ``SequenceMatch`` and ``VerificationReport``.
Each names its fields, and its caches (named with a leading ``_``), once, in
``__slots__``.  ``OeisIndex`` is no record: its state is dump text cut into
blocks, a representation rather than a value, which a record's repr would
print whole, and its constructor takes a mapping.
"""

from __future__ import annotations

import sys


SHOWN_WIDTH = 200  # the most characters of one text that an error message shows


def shown(value, form=str) -> str:
    """``form(value)``, as every error message shows a value or a typed text: a
    text (``value``, or ``form``'s text of any other value) of more than
    ``SHOWN_WIDTH`` characters as its first ``SHOWN_WIDTH`` and ``... (N characters)``,
    and an int past CPython's int/str limit as ``<a number of more than 4300 digits>``."""
    if not isinstance(value, str):
        try:
            value, form = form(value), str
        except ValueError:  # CPython's int-to-str digit limit
            return f"<a number of more than {sys.get_int_max_str_digits()} digits>"
    if len(value) <= SHOWN_WIDTH:
        return form(value)
    return f"{form(value[:SHOWN_WIDTH])}... ({len(value)} characters)"


class Record:
    """Base of the package's immutable value classes: ``TruncatedSeries``,
    ``RiordanElement``, the exact matrices ``TriMatrix`` and
    ``ProductionMatrix``, the syntax-tree nodes and tokens of ``gfexpr``,
    ``SequenceMatch`` and ``VerificationReport``.

    A class names its slots once, in ``__slots__``, and its slots are those
    of each class in its MRO, base first: a subclass with empty
    ``__slots__`` keeps its base's.  A slot whose name starts with ``_`` is
    a cache, the rest are fields.  ``_defaults`` maps the fields that may be
    left out to their values.  The constructor binds values by position and
    by name, and raises TypeError for a missing field, a surplus positional
    value, a field given twice or an unknown keyword; it sets every cache to
    None, and each cache is filled once, by ``object.__setattr__`` at its
    one fill site.  Equality (within one class), hash and repr read the
    fields named by ``_compared``; pickling and copying go through the
    constructor, so no cache is carried over; any attribute assignment or
    deletion raises AttributeError.
    """

    __slots__ = ()

    _fields: tuple[str, ...] = ()
    _caches: tuple[str, ...] = ()
    _defaults: dict = {}

    def __init_subclass__(cls):
        slots = [name for c in reversed(cls.__mro__) for name in c.__dict__.get("__slots__", ())]
        cls._fields = tuple(name for name in slots if not name.startswith("_"))
        cls._caches = tuple(name for name in slots if name.startswith("_"))

    def __init__(self, *args, **kwargs):
        for name, value in zip(self._fields, self._bind(args, kwargs)):
            object.__setattr__(self, name, value)
        for name in self._caches:
            object.__setattr__(self, name, None)

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

    def _refuse(self, verb: str, name: str) -> AttributeError:
        if name in self._fields:
            return AttributeError(f"cannot {verb} field {name!r}")
        return AttributeError(f"{type(self).__qualname__} has no field {name!r}")

    def __setattr__(self, name, value):
        raise self._refuse("assign to", name)

    def __delattr__(self, name):
        raise self._refuse("delete", name)

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
