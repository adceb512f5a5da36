"""Exception types and the report record shared by the validators."""

from __future__ import annotations


class _Record:
    """A frozen value record.  A subclass lists its attributes in
    ``__slots__``, sets them in ``__init__`` through ``_init``, and names in
    ``_fields`` those that its repr shows and that equality and hashing
    compare.  Assigning or deleting an attribute raises ``AttributeError``."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _init(self, **values) -> None:
        for name, value in values.items():
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _key(self) -> tuple:
        return tuple(getattr(self, f) for f in self._fields)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key() == other._key()
        return NotImplemented

    def __hash__(self):
        # a record holding a dict is unhashable, as the dict is
        return hash(self._key())

    def __repr__(self) -> str:
        shown = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({shown})"


class LieDiffError(Exception):
    """Base class for every error raised by this package."""


class ZeroDenominator(LieDiffError):
    """A fraction was built with a zero denominator."""


class DivisionByZero(LieDiffError):
    """Division by the zero field element."""


class UnknownVariable(LieDiffError):
    """An expression or value mentions a variable that is not declared."""


class IndexOutOfRange(LieDiffError):
    """A 1-based coordinate index is outside the declared variable range."""


class UnknownDerivation(LieDiffError):
    """A derivation index exceeds the number of derivations."""


class ArityMismatch(LieDiffError):
    """A vector, matrix or multi-index has the wrong number of entries."""


class InvalidMultiIndex(LieDiffError):
    """A multi-index has an entry that is not a nonnegative int, or a
    polynomial exponent one that is not an int."""


class NegativeExponent(LieDiffError):
    """A polynomial or normal polynomial was raised to a negative power, or
    a polynomial exponent is negative; only field elements have inverses."""


class DegreeOverflow(LieDiffError):
    """A polynomial's total degree would reach 2^31, the ceiling of the
    packed monomial layout."""


class IntegerTooLong(LieDiffError):
    """An integer has more decimal digits than the interpreter converts to
    text (``sys.get_int_max_str_digits()``), so it cannot be printed."""


class NotConstant(LieDiffError):
    """A constant value was read from a non-constant polynomial or field
    element."""


class InvariantBroken(LieDiffError):
    """An engine's internal invariant failed: a bug in the engine, not in the
    input."""


class NonConstantStructureConstants(LieDiffError):
    """The abstract Jacobi test only applies to constant structure constants."""


class TruncationExceeded(LieDiffError):
    """A truncated extension was asked to differentiate a top-order variable."""


class UnboundSlot(LieDiffError):
    """A placeholder slot was left unsubstituted where a field value is needed."""


class NotIndependent(LieDiffError):
    """The derivations of the presentation are linearly dependent."""


class _ReportError(LieDiffError):
    """An error carrying its report, ``violations``, which the message
    lists after the subclass's ``_prefix``."""

    def __init__(self, violations):
        self.violations = tuple(violations)
        super().__init__(self._prefix + "; ".join(str(v) for v in self.violations))


class CommutationFailure(_ReportError):
    """The constructed basis failed the commutation verification."""

    _prefix = "constructed basis does not commute: "


class ExprSyntaxError(LieDiffError):
    """Malformed expression text; ``pos`` is the 0-based offset of the problem."""

    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at offset {pos})")
        self.pos = pos


class IoError(LieDiffError):
    """An input file could not be read."""


class SchemaError(LieDiffError):
    """A JSON input file does not match its documented schema."""


class PresentationInvalid(_ReportError):
    """A loaded presentation fails validation."""

    _prefix = "presentation fails validation: "


class Violation(_Record):
    """One entry of a check report; an empty report means the check passed."""

    __slots__ = _fields = ("where", "residual")

    def __init__(self, where: str, residual: object | None = None):
        self._init(where=where, residual=residual)

    def __str__(self) -> str:
        if self.residual is None:
            return self.where
        return f"{self.where}: residual = {self.residual}"
