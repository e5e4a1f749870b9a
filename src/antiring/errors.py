"""Exception types shared across the package."""


class AntiringError(Exception):
    """Base class for all domain errors raised by this package."""


class FormatError(AntiringError):
    """Malformed text input (semiring descriptor, table file, matrix file)."""


class DegenerateSemiringError(AntiringError):
    """The semiring has 0 = 1; matrix-level operations are undefined over it."""


class UnsupportedOperationError(AntiringError):
    """The operation needs a finite carrier (or other capability) the semiring lacks."""


class PreconditionError(AntiringError):
    """A mathematical precondition fails: non-antiring table, zero divisors where
    entireness is required, nonzero nilpotent elements, nonzero diagonal, ..."""


class NotInvertibleError(AntiringError):
    """The matrix is not invertible; `reason` names the first condition of the
    form D * sum_e(e * P_e) it breaks, and the row or column that breaks it."""

    def __init__(self, reason):
        super().__init__(f"matrix is not invertible: {reason}")
        self.reason = reason


class NotNilpotentError(AntiringError):
    """The matrix is not nilpotent."""


class CyclicDigraphError(AntiringError):
    """The digraph contains a directed cycle (a loop counts)."""


class BudgetExceededError(AntiringError):
    """An exhaustive search would exceed its state budget; nothing was computed."""

    def __init__(self, message, required=None):
        super().__init__(message)
        self.required = required
