"""Hastings-McLeod solution of Painleve II and its Hamiltonian.

q'' = 2 q^3 + sigma q with q(sigma) ~ Ai(sigma) as sigma -> +infinity.
The solution is obtained by collocation on [sigma_min, sigma_max] with the
Airy value pinned at the right end and the plateau asymptote
sqrt(-sigma/2) (1 + 1/(8 sigma^3) - 73/(128 sigma^6)) pinned at the left
end; the right-end derivative is then verified against Ai' a posteriori.
A quintic Hermite interpolant built from (q, q', q''-from-the-ODE) serves
point evaluations.
"""

from __future__ import annotations

import functools
import math

import numpy as np
from scipy.integrate import solve_bvp
from scipy.interpolate import BPoly
from scipy.special import airy

from .errors import IntegrationFailure, OutOfDomain

__all__ = ["HmSolution", "solve_hastings_mcleod", "plateau_asymptote"]


def plateau_asymptote(sigma: float) -> float:
    """Left asymptote of the Hastings-McLeod solution for sigma << 0."""
    if sigma >= 0.0:
        raise ValueError("plateau asymptote requires sigma < 0")
    s3 = sigma**-3
    return math.sqrt(-sigma / 2.0) * (1.0 + 0.125 * s3 - (73.0 / 128.0) * s3 * s3)


class HmSolution:
    """Immutable interpolable Hastings-McLeod solution on [sigma_min, sigma_max]."""

    def __init__(self, grid: np.ndarray, q: np.ndarray, qprime: np.ndarray):
        self.grid = grid
        self.q_nodes = q
        self.qprime_nodes = qprime
        self.domain = (float(grid[0]), float(grid[-1]))
        qsecond = 2.0 * q**3 + grid * q
        values = np.column_stack([q, qprime, qsecond])
        self._interp = BPoly.from_derivatives(grid, values)
        self._interp_d = self._interp.derivative()

    def __call__(self, sigma: float) -> tuple[float, float, float]:
        """Return (q, q', u) at sigma, u = (q')^2 - sigma q^2 - q^4."""
        lo, hi = self.domain
        if not lo <= sigma <= hi:
            raise OutOfDomain(f"sigma = {sigma} outside [{lo}, {hi}]")
        q = float(self._interp(sigma))
        qp = float(self._interp_d(sigma))
        u = qp * qp - sigma * q * q - q**4
        return q, qp, u

    def q(self, sigma: float) -> float:
        return self(sigma)[0]

    def qprime(self, sigma: float) -> float:
        return self(sigma)[1]

    def u(self, sigma: float) -> float:
        return self(sigma)[2]


def _initial_guess(xs: np.ndarray) -> np.ndarray:
    q = np.empty_like(xs)
    qp = np.empty_like(xs)
    pos = xs >= 0.0
    ai, aip, _, _ = airy(xs[pos])
    q[pos], qp[pos] = ai, aip
    neg = ~pos
    q[neg] = np.sqrt(-xs[neg] / 2.0)
    qp[neg] = -0.5 / np.sqrt(-2.0 * xs[neg])
    return np.vstack([q, qp])


def solve_hastings_mcleod(sigma_min: float = -12.0, sigma_max: float = 12.0,
                          tol: float = 1e-11, n_grid: int = 1201) -> HmSolution:
    """Collocation solve of the Hastings-McLeod boundary-value problem."""
    ai_right = float(airy(sigma_max)[0])
    q_left = plateau_asymptote(sigma_min)

    def rhs(x, y):
        return np.vstack([y[1], 2.0 * y[0] ** 3 + x * y[0]])

    def bc(ya, yb):
        return np.array([ya[0] - q_left, yb[0] - ai_right])

    xs = np.linspace(sigma_min, sigma_max, 401)
    sol = solve_bvp(rhs, bc, xs, _initial_guess(xs), tol=tol, max_nodes=200000)
    if not sol.success:
        raise IntegrationFailure(f"Hastings-McLeod collocation failed: {sol.message}")
    grid = np.linspace(sigma_min, sigma_max, n_grid)
    q, qp = sol.sol(grid)
    if np.any(q <= 0.0):
        raise IntegrationFailure("Hastings-McLeod solution lost positivity")
    return HmSolution(grid, q, qp)


@functools.lru_cache(maxsize=4)
def default_solution(sigma_min: float = -12.0, sigma_max: float = 12.0) -> HmSolution:
    return solve_hastings_mcleod(sigma_min, sigma_max)

