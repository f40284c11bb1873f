"""Exception types shared across the package."""


class LenardError(Exception):
    """Base class for all engine errors."""


class ZeroDivisor(LenardError, ZeroDivisionError):
    """Division by an element that canonicalizes to zero."""


class Undecidable(LenardError):
    """The decision procedure cannot answer; the result is unknown, not false."""


class InsufficientTruncation(LenardError):
    """A requested Laurent floor is deeper than the inputs support."""


class NotDifferential(LenardError):
    """An operator with negative-degree terms was used where a differential one is required."""


class SingularLeadingSymbol(LenardError):
    """A pivot symbol vanished during operator inversion / row reduction."""


class AnsatzExhausted(LenardError):
    """No solution exists inside the configured ansatz space, nor inside it
    with every bound raised by the escalation (so in no space between)."""


class HelmholtzFailure(LenardError):
    """A candidate gradient is not self-adjoint, so no functional exists."""


class InvalidWitness(LenardError):
    """An association witness fails verification."""


class LengthMismatch(LenardError):
    """A witness list does not match the chain length."""


class ThresholdNotMet(LenardError):
    """The differential-order threshold never holds, so prediction is withheld."""


class InsufficientChain(LenardError):
    """The chain is too short for the requested higher-structure check."""


class ParamDegenerate(LenardError):
    """A required nonvanishing condition on the parameters fails."""


class Proportional(LenardError):
    """The two structures are linearly dependent."""


class UnknownPreset(LenardError):
    """No preset with the given id."""


class ValidationFailure(LenardError):
    """A preset failed one of its embedded self-checks."""


class NothingToExport(LenardError):
    """Export was requested on a session with no results."""


class ParseError(LenardError):
    """Expression or config syntax error, with position information."""

    def __init__(self, message, line=1, col=0):
        super().__init__(f"{message} (line {line}, col {col})")
        self.line = line
        self.col = col


class ExponentOverflow(LenardError, OverflowError):
    """A monomial's exponent would leave its packed field."""
