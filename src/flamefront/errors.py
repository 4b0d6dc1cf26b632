"""Exception types shared across the package, and the rule for numeric
arguments that every module applies."""

from __future__ import annotations

import math
import operator

__all__ = [
    "FlameFrontError",
    "InvalidGridError",
    "DegenerateFrontError",
    "ContractViolationError",
    "RootBracketError",
    "InternalConsistencyError",
    "ConvergenceError",
    "SingularSystemError",
    "BranchStartError",
    "UnsupportedModelError",
    "BlowUpError",
]


class FlameFrontError(Exception):
    """Base class for all package-specific failures."""


class InvalidGridError(FlameFrontError, ValueError):
    """Grid size is odd, too small, or otherwise unusable: a bad input, so a ValueError too."""


class DegenerateFrontError(FlameFrontError):
    """The length functional is undefined: integral of cos(theta) is not positive."""


class ContractViolationError(FlameFrontError, ValueError):
    """Caller passed data that violates a documented precondition: a ValueError too."""


class RootBracketError(FlameFrontError):
    """A bracketing interval does not enclose a sign change."""


class InternalConsistencyError(FlameFrontError):
    """Two independent evaluations of the same quantity disagree."""


class ConvergenceError(FlameFrontError):
    """Newton iteration stopped without meeting tolerance.

    reason is "unresolved" when the solved equations met the tolerance
    but the residual's unsolved Nyquist coefficient did not (it bounds the
    grid residual from below, |c_{nx/2}| <= max|r|, so the grid does not
    resolve the wave), "stalled" when the residual stopped decreasing
    before the budget ran out, "max-iters" when the budget was exhausted,
    or "non-finite" when an iterate's residual overflowed.  Carries the
    last iterate and the residual-norm history for diagnosis, with
    residual_floor the smallest residual after the guess's own, as the
    stall rule counts it: a converged wave reused as a guess has a
    residual of rounding size that says nothing of the solve.  The
    guess's residual is the floor only when it is the history's one
    entry.
    """

    def __init__(self, message, last_iterate=None, residual_history=None, reason="max-iters"):
        super().__init__(message)
        self.last_iterate = last_iterate
        self.residual_history = list(residual_history or [])
        self.reason = reason
        history = self.residual_history
        self.residual_floor = min(history[1:] or history) if history else None


class SingularSystemError(FlameFrontError):
    """LU factorization of the Newton system hit a negligible pivot."""


class BranchStartError(FlameFrontError):
    """The very first solve of a continuation run failed."""


class UnsupportedModelError(FlameFrontError):
    """The requested closure is not available for this operation."""


class BlowUpError(FlameFrontError):
    """Time integration left the trusted range of the formulation."""

    def __init__(self, message, time=None):
        super().__init__(message)
        self.time = time


def _finite_real(name, value, bound=None, error=ValueError):
    """value as a finite Python float, or error (a ValueError) naming name
    and value.

    bound "positive" also refuses value <= 0, "nonnegative" value < 0.  A
    bool, str or bytes is refused although float() takes it, and so is a
    numpy bool, scalar or 0-d array, told by its dtype kind "b"; an int
    beyond the float range counts as infinite.
    """
    boolean = getattr(getattr(value, "dtype", None), "kind", None) == "b"
    try:
        number = math.nan if boolean or isinstance(value, (bool, str, bytes)) else float(value)
    except OverflowError:
        # an int beyond the float range
        number = math.inf
    except (TypeError, ValueError):
        number = math.nan
    if (
        not math.isfinite(number)
        or (bound == "positive" and number <= 0.0)
        or (bound == "nonnegative" and number < 0.0)
    ):
        raise error(f"{name} must be {bound + ' and ' if bound else ''}finite, got {value!r}")
    return number


def _integer(name, value, minimum):
    """value as a Python int at least minimum, or ValueError naming name
    and value.  An int, numpy integer or integer 0-d array passes; a bool
    is refused although it is an int, and so is a float of integer value."""
    try:
        number = None if isinstance(value, bool) else operator.index(value)
    except TypeError:
        number = None
    if number is None or number < minimum:
        raise ValueError(f"{name} must be an integer >= {minimum}, got {value!r}")
    return number
