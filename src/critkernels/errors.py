"""Exception types shared across the library, and its finiteness check."""

import numpy as np


def _finite(**args) -> None:
    """Raise ValueError naming the first argument that is not finite."""
    for name, value in args.items():
        if not np.all(np.isfinite(value)):
            raise ValueError(f"{name} must be finite, got {value!r}")


class CritKernelsError(Exception):
    """Base class for all library errors."""


class NoRootOnBranch(CritKernelsError):
    """Continuation of the gamma root from (-1, 1) lost the root.

    Carries the last parameter point where the root was still found.
    """

    def __init__(self, alpha, tau, message=None):
        self.alpha = alpha
        self.tau = tau
        super().__init__(
            message
            or f"gamma branch continuation failed; last good point "
            f"(alpha, tau) = ({alpha}, {tau})"
        )


class DegenerateRoots(CritKernelsError):
    """Quartic roots degenerate at a branch point; use series expansions."""


class PathOnCut(CritKernelsError):
    """Requested lambda at a point on an axis (a cut of the surface)."""


class OutsideSupport(CritKernelsError):
    """Density requested outside the support of the measure."""


class QuadratureFailure(CritKernelsError):
    """An adaptive quadrature did not reach its target tolerance."""


class OutOfDomain(CritKernelsError):
    """Argument left the solved domain of the Hastings-McLeod solution."""


class IntegrationFailure(CritKernelsError):
    """The ODE integrator failed to converge."""


class DomainRestriction(CritKernelsError):
    """Kernel arguments outside the domain of definition."""
