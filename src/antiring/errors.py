"""Exception types, and the immutable record base, shared across the package."""


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


class Record:
    """An immutable value with the fields named in ``__slots__``.

    Equality and hash go by type and fields, ``repr`` is
    ``Name(field=value, ...)``, and assigning a field raises
    ``AttributeError``.  Every value type of the package is a Record whose
    slots are exactly its constructor's parameters, in order: copy and pickle
    rebuild it as ``cls(*fields)``, through its validation.  A subclass's
    ``__init__`` passes its field values, in slot order, to
    ``Record.__init__``, and validates them.

    The two carriers are the exception.  ``Matrix`` takes only this class's
    refusal of assignment; it keeps its own equality, hash and repr, and a
    lazy slot.  ``Semiring`` defines its own equality, hash and repr too,
    and still accepts assignment.
    """

    __slots__ = ()

    def __init__(self, *values):
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _values(self):
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash((self.__class__, self._values()))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of {self.__class__.__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of {self.__class__.__name__}")

    def __reduce__(self):
        return self.__class__, self._values()
