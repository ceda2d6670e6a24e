"""Exception types shared across the package, and the argument checkers."""

import math
import operator
from numbers import Real


class BohrccError(Exception):
    """Base class for all package-specific errors."""


class ParameterError(BohrccError, ValueError):
    """A user-supplied parameter is outside its admissible range."""


class DomainError(BohrccError, ValueError):
    """An evaluation point or operand violates a domain precondition."""


class PrecisionError(BohrccError, RuntimeError):
    """Requested accuracy cannot be certified (truncation tail too large)."""


class BudgetError(BohrccError, RuntimeError):
    """An adaptive routine exhausted its evaluation budget before reaching
    the requested tolerance.  Carries the best estimate found so far."""

    def __init__(self, message, best=None, error_estimate=None):
        super().__init__(message)
        self.best = best
        self.error_estimate = error_estimate


class NoRootError(BohrccError, RuntimeError):
    """A radius equation's lhs stays below its target on the whole interval
    the solver resolves ((0, 0.999] for ``solve_radius``, (0, 1 - 1e-12] for
    a corollary), so any root lies closer to 1.  Near-identity shape
    functions do this."""


class InconsistencyError(BohrccError, RuntimeError):
    """Two routes that must agree numerically disagreed; implementation bug."""


def as_int(value, what: str) -> int:
    """value as an int, or ParameterError(what): never a bool, a float or a string."""
    if isinstance(value, bool):
        raise ParameterError(what)
    try:
        return operator.index(value)
    except TypeError:
        raise ParameterError(what) from None


def as_real(value, what: str) -> float:
    """value as a float if a finite real that is not a bool, else ParameterError(what)."""
    try:
        x = float(value) if isinstance(value, (float, Real)) and not isinstance(value, bool) else math.nan
    except OverflowError:  # an int or Fraction past the float range
        x = math.inf
    if not math.isfinite(x):
        raise ParameterError(what)
    return x
