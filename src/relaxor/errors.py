"""Exception hierarchy shared across the package.

Errors derived from ``InvalidInputError`` indicate bad user input (CLI exit
code 2); everything else under ``RelaxorError`` is a numerical failure
(CLI exit code 1).
"""

import numbers
import sys

_MAX_DOUBLE = sys.float_info.max


class RelaxorError(Exception):
    """Base class for all package errors."""


class InvalidInputError(RelaxorError, ValueError):
    """Invalid argument or parameter outside its admissible domain."""


class ParameterDomainError(InvalidInputError):
    """Model parameters or state violate their invariants."""


def require_positive(what: str, values) -> None:
    """The one rule for densities, durations and scales: each of ``values`` is finite and > 0.

    ``values`` holds plain numbers, not arrays; NaN fails the rule, and so
    does an integer too large for a double.
    """
    for v in values:
        if not 0.0 < v <= _MAX_DOUBLE:
            raise ParameterDomainError(f"{what} must be finite and positive")


# the most samples one output array may hold, checked before any is
# allocated: 10^6 trajectory samples take about 0.6 GB at peak
MAX_SAMPLES = 1_000_000


def require_samples(what: str, n) -> None:
    """Refuse a sample count ``n`` that is not a Python or numpy integer in [2, MAX_SAMPLES]."""
    if not (isinstance(n, numbers.Integral) and 2 <= n <= MAX_SAMPLES):
        raise ParameterDomainError(
            f"need a whole number of at least two {what}, at most {MAX_SAMPLES:,}, got {n!r}")


class SingularScalingError(InvalidInputError):
    """Rescaling is undefined (e.g. zero prey-2 preference)."""


class BranchDomainError(InvalidInputError):
    """Lambert W argument outside the requested branch domain."""

    def __init__(self, branch, x, message=None):
        self.branch = branch
        self.x = x
        super().__init__(message or f"{branch} is undefined at x={x!r}")


class OffOrbitError(InvalidInputError):
    """Coordinate outside the extremal range of the conserved-level orbit."""


class DegenerateOrbitError(InvalidInputError):
    """Anchor sits at the center equilibrium; the level orbit is a point."""


class NoSolutionError(RelaxorError):
    """An elimination has no real solution for the requested data."""


class InconsistentEndpointsError(RelaxorError):
    """Segment endpoints do not lie on a common conserved level."""


class NonConvergenceError(RelaxorError):
    """Iterative solver failed to converge; carries last-iterate diagnostics.

    The diagnostics that are set, apart from the count of residual
    ``evaluations`` spent, are appended to the message.
    """

    def __init__(self, message, residual=None, iterations=None, x=None, evaluations=None):
        self.residual = residual
        self.iterations = iterations
        self.x = x
        self.evaluations = evaluations
        details = []
        if residual is not None:
            details.append(f"residual {residual:.3e}")
        if iterations is not None:
            details.append(f"iterations {iterations}")
        if x is not None:
            details.append(f"x {[float(v) for v in x]}")
        super().__init__(f"{message} ({', '.join(details)})" if details else message)


class InadmissibleOrbitError(RelaxorError):
    """Converged jump points violate the up/down jump admissibility rules."""


class InconsistentJumpPairError(RelaxorError):
    """Slow segments integrated from the jump points do not close up."""


class StiffnessError(RelaxorError):
    """Adaptive integrator underflowed its step size."""


class InsufficientDataError(RelaxorError):
    """Input series does not cover enough of a period for the analysis."""
