"""Exception hierarchy shared across the package."""


class OreError(Exception):
    """Base class for all domain errors raised by this package."""


class ScalarError(OreError, ArithmeticError):
    """Arithmetic failure in a coefficient field."""


class ZeroInput(ScalarError):
    """An operation received a zero where a nonzero value is required."""


class DivisionByZero(ScalarError):
    """Division by the zero element of a field or by a singular matrix."""


class TowerMismatch(OreError):
    """Two polynomials (or a polynomial and a map) belong to different towers."""


class SupportTooHigh(OreError):
    """A polynomial involves variables at or above the level of the map applied to it."""


class NotDiagonal(OreError):
    """A swap was requested across a pair whose sigma action is not a*x with c = 0."""


class CompatibilityFailed(OreError):
    """Exchanging two adjacent levels leaves a level above them ill-formed."""


class UnsupportedErasure(OreError):
    """No erasure branch applies within the configured search bounds."""


class HypothesisViolation(OreError):
    """A structural precondition of a tower transformation does not hold."""


class VerificationFailed(OreError):
    """A computed result fails the re-verification of its defining relations."""


class ParseError(OreError):
    """Syntax error in a tower file or expression, annotated with a position."""

    def __init__(self, line, column, message):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column
        self.message = message


class UnknownVariableReference(ParseError):
    """An expression refers to a tower variable that is not yet in scope."""


class FieldMismatch(OreError):
    """A parsed value does not live in the field declared by the tower file."""
