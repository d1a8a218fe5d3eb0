"""Exception types shared across the package."""


class EhlcpError(Exception):
    """Base class for all package-specific errors."""


class SingularM(EhlcpError):
    """Factorization of the leading block failed."""


class InfeasibleTuple(EhlcpError):
    """A solution tuple violates the box/complementarity constraints."""


class InvalidParams(EhlcpError, ValueError):
    """A parameter outside its admissible range: an iteration setting, a
    generator's size or shape parameter, a selection count, or block data
    that an exhaustive scan cannot certify (order 0 or a non-finite entry)."""


class BudgetExceeded(EhlcpError):
    """An enumeration would exceed the caller-supplied budget."""


class NormMismatch(EhlcpError):
    """Constants carry a norm tag different from the requested norm."""


class NonpositiveDiagonal(EhlcpError):
    """A diagonal-part split requires strictly positive diagonals."""


class SingularSelection(EhlcpError):
    """A sampled selection combination is numerically singular.

    Carries the offending selection as ``selection`` (a DiagonalSelection);
    this is a witness against the column W-property.
    """

    def __init__(self, message, selection=None):
        super().__init__(message)
        self.selection = selection


class NoRuleApplies(EhlcpError):
    """None of the parameter-selection heuristics matches the matrix."""
