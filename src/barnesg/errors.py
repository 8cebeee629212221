"""Exception types shared across the package, and the integer check that
raises one."""

import operator


class DomainError(ValueError):
    """Argument outside the mathematical domain of an operation."""


class PoleError(DomainError):
    """Evaluation requested exactly at a pole."""


class LatticeZeroError(DomainError):
    """log G requested at a zero of G (z on the lattice -m*tau - n)."""


class ArgumentConditionError(DomainError):
    """The |arg w1 - arg w2| < pi condition of the symmetric form is violated."""


class SectorError(DomainError):
    """z lies outside the sector where the large-z expansion is valid."""


class PreconditionError(DomainError):
    """A stated precondition (truncation size, cut distance) is violated."""


class ConsistencyError(ArithmeticError):
    """An internal exactness invariant failed (nonzero polynomial remainder)."""


class ConvergenceError(RuntimeError):
    """An adaptive scheme hit its refinement cap without meeting the target."""


class CapacityError(RuntimeError):
    """A truncation parameter exceeded its hard cap."""


def check_index(value, what: str) -> int:
    """value as a Python int, or DomainError when it is no integer (a float
    included); Python and numpy integers pass, through operator.index."""
    try:
        return operator.index(value)
    except TypeError:
        raise DomainError(f"{what} must be an integer, got {value!r}") from None
