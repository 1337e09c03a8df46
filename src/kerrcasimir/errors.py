"""Exception hierarchy shared by all kerrcasimir modules, and their one integer check."""

import operator

__all__ = [
    "KerrCasimirError",
    "DomainError",
    "NakedSingularityError",
    "InsideHorizonError",
    "ForbiddenOrbitError",
    "TruncationError",
    "QuadratureError",
    "FDStepError",
]


class KerrCasimirError(Exception):
    """Base class for all package errors."""


class DomainError(KerrCasimirError):
    """An input lies outside the mathematical domain of a formula."""


def _checked_count(name: str, value, least: int = 1) -> int:
    """``value`` as an int (any type ``operator.index`` accepts), or a
    DomainError naming ``name`` when it is not an integer or is below ``least``."""
    try:
        value = operator.index(value)
    except TypeError:
        raise DomainError(f"{name} must be an integer, got {value!r}") from None
    if value < least:
        raise DomainError(f"{name} must be >= {least}, got {value}")
    return value


def _is_real(value) -> bool:
    """Whether value is a real number: a float or an int (a bool or a numpy
    real too), but not a Decimal, a complex number, a string or None."""
    if type(value) is float:
        return True
    import numbers  # here, so that importing the package does not load it

    return isinstance(value, numbers.Real)


class NakedSingularityError(DomainError):
    """|a| > M while the source is required to be a black hole."""


class InsideHorizonError(DomainError):
    """Requested radius has Delta(r) <= 0 (at or inside the outer horizon)."""


class ForbiddenOrbitError(DomainError):
    """Angular velocity outside the open interval where the observer is timelike."""


class TruncationError(KerrCasimirError):
    """A series failed to converge within the configured number of terms.

    Carries the partial sum and a tail estimate so callers can decide
    whether the partial result is still usable.
    """

    def __init__(self, message, partial_sum=None, tail_estimate=None, terms_used=None):
        super().__init__(message)
        self.partial_sum = partial_sum
        self.tail_estimate = tail_estimate
        self.terms_used = terms_used


class QuadratureError(KerrCasimirError):
    """A numerical integration did not reach the requested accuracy."""


class FDStepError(KerrCasimirError):
    """Finite-difference step underflowed (x*(1+h) == x)."""
