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
    """A sum or factorization behind a density or K_n failed.

    Raised when a K_n moment series needs more than 4096 terms, when the
    bimoment LDU factorization loses positivity, and when a density has
    a spurious imaginary part.
    """


class OutOfDomain(CritKernelsError):
    """Argument left the solved domain of the Hastings-McLeod solution."""


class IntegrationFailure(CritKernelsError):
    """An iterative solve failed to converge.

    Raised by the Lax transport and the complex-nu Painleve II
    continuation, by the Hastings-McLeod Newton iteration, and when the
    double-scaling GMRES solve stagnates.
    """


class DomainRestriction(CritKernelsError):
    """Kernel arguments outside the domain of definition."""
