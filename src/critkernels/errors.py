"""Exception types shared across the library, and its finiteness check."""

import numpy as np


def _finite(**args) -> None:
    """Raise ValueError naming the first argument that is not finite."""
    for name, value in args.items():
        if not np.all(np.isfinite(value)):
            raise ValueError(f"{name} must be finite, got {value!r}")


class CritKernelsError(Exception):
    """Base class for all library errors."""


class DegenerateRoots(CritKernelsError):
    """Quartic roots degenerate at a branch point; use series expansions."""


class PathOnCut(CritKernelsError):
    """Requested lambda at a point on an axis (a cut of the surface)."""


class OutsideSupport(CritKernelsError):
    """Density requested outside the support of the measure."""


class QuadratureFailure(CritKernelsError):
    """A sum or factorization behind a density or K_n failed.

    Raised when a K_n moment series needs more than 4096 terms, when the
    bimoment elimination loses positivity, when the Newton polish
    of a zero of p_n does not settle or lands two eigenvalues on one
    zero, and when a density has a spurious imaginary part.
    """


class OutOfDomain(CritKernelsError):
    """Argument left the solved domain of the Hastings-McLeod solution."""


class IntegrationFailure(CritKernelsError):
    """An iterative solve failed to converge.

    Raised by the Lax transport, by the Hastings-McLeod Newton
    iteration, and when the double-scaling GMRES solve stagnates.
    """


class DomainRestriction(CritKernelsError):
    """Arguments outside the domain of definition, such as an (alpha, tau)
    where gamma's cubic has three positive roots (``surface.gamma_of``)."""
