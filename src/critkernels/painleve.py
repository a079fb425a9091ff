"""Hastings-McLeod solution of Painleve II and its Hamiltonian.

q'' = 2 q^3 + sigma q with q(sigma) ~ Ai(sigma) as sigma -> +infinity.
The solution is a polynomial on Chebyshev-Lobatto nodes of [-12, 12]
(Fornberg & Weideman, Found. Comput. Math. 14, 2014): collocation with
the Chebyshev differentiation matrix D, solved by Newton iteration, with
Ai(12) pinned at the right end and the plateau asymptote
sqrt(-sigma/2) (1 + 1/(8 sigma^3) - 73/(128 sigma^6)) at the left.  The
node values of q' are D q, and point evaluations use the barycentric
formula on the nodes.  The solution is unique: `default_solution` is the
one instance that every other module reads.
"""

from __future__ import annotations

import functools
import math

import mpmath
import numpy as np

from .errors import IntegrationFailure, OutOfDomain

__all__ = ["HmSolution", "solve_hastings_mcleod", "default_solution",
           "plateau_asymptote"]

_SIGMA_MIN, _SIGMA_MAX = -12.0, 12.0


def plateau_asymptote(sigma: float) -> float:
    """Left asymptote of the Hastings-McLeod solution for sigma << 0."""
    if sigma >= 0.0:
        raise ValueError("plateau asymptote requires sigma < 0")
    s3 = sigma**-3
    return math.sqrt(-sigma / 2.0) * (1.0 + 0.125 * s3 - (73.0 / 128.0) * s3 * s3)


class HmSolution:
    """Immutable Hastings-McLeod solution on the collocation interval."""

    def __init__(self, nodes: np.ndarray, weights: np.ndarray, values: np.ndarray):
        """Barycentric nodes and weights, and rows (q, q', q'') of node values."""
        self.nodes, self._weights, self._values = nodes, weights, values
        self.domain = (float(nodes.min()), float(nodes.max()))

    def _interpolate(self, sigma, rows: slice) -> np.ndarray:
        """Barycentric values of rows of (q, q', q''): shape (k,) + sigma.shape."""
        d = np.subtract.outer(sigma, self.nodes)
        # on a node, that node's weight swamps the others to roundoff
        d[d == 0.0] = 1e-300
        c = self._weights / d
        return (self._values[rows] @ c.T) / c.sum(axis=-1)

    def __call__(self, sigma: float) -> tuple[float, float, float]:
        """Return (q, q', u) at sigma, u = (q')^2 - sigma q^2 - q^4."""
        lo, hi = self.domain
        if not lo <= sigma <= hi:
            raise OutOfDomain(f"sigma = {sigma} outside [{lo}, {hi}]")
        q, qp = self._interpolate(sigma, slice(0, 2)).tolist()
        return q, qp, qp * qp - sigma * q * q - q**4

    def q(self, sigma: float) -> float:
        return self(sigma)[0]

    def u(self, sigma: float) -> float:
        return self(sigma)[2]

    def qsecond(self, sigma) -> np.ndarray:
        """q'' of the interpolant itself (not from the ODE) at scalar or array sigma."""
        lo, hi = self.domain
        if not (lo <= np.min(sigma) and np.max(sigma) <= hi):
            raise OutOfDomain(f"sigma outside [{lo}, {hi}]")
        return self._interpolate(sigma, slice(2, 3))[0]


def solve_hastings_mcleod(n_nodes: int = 160) -> HmSolution:
    """Chebyshev collocation of the Hastings-McLeod boundary-value problem."""
    x = np.cos(np.pi * np.arange(n_nodes + 1) / n_nodes)
    c = (-1.0) ** np.arange(n_nodes + 1)
    c[[0, -1]] *= 2.0
    D = np.outer(c, 1.0 / c) / (np.subtract.outer(x, x) + np.eye(n_nodes + 1))
    D = (D - np.diag(D.sum(axis=1))) * (2.0 / (_SIGMA_MAX - _SIGMA_MIN))
    sigma = 0.5 * (_SIGMA_MAX + _SIGMA_MIN) + 0.5 * (_SIGMA_MAX - _SIGMA_MIN) * x
    D2 = (D @ D)[1:-1]
    # sqrt(-sigma/2) on the left, decaying like e^{-sigma/2} on the right;
    # the end values stay pinned and Newton moves the interior nodes only
    q = np.sqrt(0.5 * np.log1p(np.exp(-sigma)))
    q[[0, -1]] = float(mpmath.airyai(_SIGMA_MAX)), plateau_asymptote(_SIGMA_MIN)
    for _ in range(30):
        qi, si = q[1:-1], sigma[1:-1]
        J = D2[:, 1:-1] - np.diag(6.0 * qi * qi + si)
        step = np.linalg.solve(J, 2.0 * qi**3 + si * qi - D2 @ q)
        q[1:-1] += step
        if np.max(np.abs(step)) < 1e-14:
            break
    else:
        raise IntegrationFailure("Hastings-McLeod Newton iteration did not converge")
    if np.any(q <= 0.0):
        raise IntegrationFailure("Hastings-McLeod solution lost positivity")
    # the barycentric weights of Chebyshev-Lobatto nodes are 1/c
    return HmSolution(sigma, 1.0 / c, np.stack([q, D @ q, D @ (D @ q)]))


@functools.cache
def default_solution() -> HmSolution:
    """The Hastings-McLeod solution, solved once per process."""
    return solve_hastings_mcleod()
