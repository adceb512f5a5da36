"""Exception types and the report record shared by the validators."""

from __future__ import annotations

from dataclasses import dataclass


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


class NegativeExponent(LieDiffError):
    """A polynomial, operator word or normal polynomial was raised to a
    negative power; only field elements have inverses."""


class NotConstant(LieDiffError):
    """A constant value was read from a non-constant polynomial or field
    element."""


class NonConstantStructureConstants(LieDiffError):
    """The abstract Jacobi test only applies to constant structure constants."""


class TruncationExceeded(LieDiffError):
    """A truncated extension was asked to differentiate a top-order variable."""


class UnboundSlot(LieDiffError):
    """A placeholder slot was left unsubstituted where a field value is needed."""


class NotIndependent(LieDiffError):
    """The derivations of the presentation are linearly dependent."""


class NoCoordinateSubset(LieDiffError):
    """No subset of declared variables gives an invertible evaluation matrix."""


class CommutationFailure(LieDiffError):
    """The constructed basis failed the commutation verification."""

    def __init__(self, violations):
        self.violations = tuple(violations)
        super().__init__(
            "constructed basis does not commute: "
            + "; ".join(str(v) for v in self.violations)
        )


class ExprSyntaxError(LieDiffError):
    """Malformed expression text; ``pos`` is the 0-based offset of the problem."""

    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at offset {pos})")
        self.pos = pos


class IoError(LieDiffError):
    """An input file could not be read."""


class SchemaError(LieDiffError):
    """A JSON input file does not match its documented schema."""


class PresentationInvalid(LieDiffError):
    """A loaded presentation fails validation."""

    def __init__(self, violations):
        self.violations = tuple(violations)
        super().__init__(
            "presentation fails validation: "
            + "; ".join(str(v) for v in self.violations)
        )


@dataclass(frozen=True)
class Violation:
    """One entry of a check report; an empty report means the check passed."""

    where: str
    residual: object | None = None

    def __str__(self) -> str:
        if self.residual is None:
            return self.where
        return f"{self.where}: residual = {self.residual}"
