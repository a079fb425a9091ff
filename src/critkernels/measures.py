"""Equilibrium-measure densities from jumps of xi and theta'.

The three measures live on [-c, c] (mu1), the imaginary axis (mu2), and the
real axis (mu3).  Their densities are obtained from the boundary jumps of
the sheet functions; boundary values are taken at a distance 1e-8 off
the axis.  Densities are reported with respect to arclength
along the carrier, oriented left-to-right on the real axis and upward on
the imaginary axis, so that the total masses come out as (1, 2/3, 1/3).

Each density takes a scalar and returns a float, or takes an array and
returns one of its shape, marched along one path per quadrant with all
paths in one march per polynomial; a point outside the support raises
``OutsideSupport`` for the whole request.
"""

from __future__ import annotations

import math

import numpy as np

from . import surface as sf
from .errors import OutsideSupport, QuadratureFailure, _finite

__all__ = [
    "density_mu1",
    "density_mu2",
    "density_mu3",
    "sigma2_density",
    "mass_mu1",
    "mass_mu2",
    "mass_mu3",
    "xi_integral_check",
]

_DELTA = 1e-8           # distance off the axis of the boundary values
_IM_TOL = 1e-7
_CUTOFF = 200.0         # |y| beyond which the mu2, mu3 masses count as tail


def _real_cast(values, where: str) -> np.ndarray:
    """Real part of densities whose imaginary part is below _IM_TOL relative."""
    values = np.asarray(values)
    bad = np.abs(values.imag) > _IM_TOL * np.maximum(1.0, np.abs(values.real))
    if bad.any():
        raise QuadratureFailure(
            f"{where}: density has spurious imaginary part {values.imag[bad][0]}")
    return values.real


def _jump_density(plus, minus, p: sf.SurfaceParams, sheet: int,
                  scale: complex) -> np.ndarray:
    """(xi_{k,+} - xi_{k,-} - tau (s_{k-1,+} - s_{k-1,-})) / scale, k = sheet + 1,
    at the points ``plus`` and their mirror images ``minus``."""
    both = np.concatenate([plus, minus])        # the two sides share one march
    xi_plus, xi_minus = np.split(sf.xi_sheet_on_path(both, p, sheet), 2)
    s_plus, s_minus = np.split(
        sf.cubic_sheet_on_path(both, p.alpha, p.tau, sheet - 1), 2)
    return ((xi_plus - xi_minus) - p.tau * (s_plus - s_minus)) / scale


def _like(values: np.ndarray, x):
    """``values`` shaped like the request ``x``: a float for a scalar."""
    values = np.reshape(values, np.shape(x))
    return float(values) if values.ndim == 0 else values


def density_mu1(x, p: sf.SurfaceParams):
    """d mu1/dx = (1/pi) Im xi_{1,+}(x) on (-c, c)."""
    xs = np.asarray(x, dtype=float)
    outside = np.abs(xs) >= p.c
    if outside.any():
        raise OutsideSupport(f"x = {xs[outside][0]} outside (-c, c) with c = {p.c}")
    xi1 = sf.xi_sheet_on_path(xs.ravel() + 1j * _DELTA, p, 0)
    return _like(xi1.imag / math.pi, x)


def density_mu2(y, p: sf.SurfaceParams):
    """Density of mu2 at the points iy, with respect to dy.

    (1/2 pi)[(xi_{2,+} - xi_{2,-}) - tau (s_{1,+} - s_{1,-})](iy); the + side
    of the upward-oriented imaginary axis is Re z < 0.  At y = 0 both sides
    lie on the real axis and are one-sided limits (see ``surface``).
    """
    iy = 1j * np.ravel(y).astype(float)
    rho = _jump_density(iy - _DELTA, iy + _DELTA, p, 1, 2.0 * math.pi)
    return _like(_real_cast(rho, "density_mu2"), y)


def density_mu3(x, p: sf.SurfaceParams):
    """Density of mu3 at x: (1/2 pi i)[(xi_{3,+} - xi_{3,-}) - tau (s_{2,+} - s_{2,-})](x)."""
    xs = np.ravel(x).astype(float)
    if np.any(xs == 0.0):
        raise OutsideSupport("mu3 density undefined at the origin")
    rho = _jump_density(xs + 1j * _DELTA, xs - 1j * _DELTA, p, 2, 2.0j * math.pi)
    return _like(_real_cast(rho, "density_mu3"), x)


def sigma2_density(y, alpha: float, tau: float):
    """Constraint density on the imaginary axis: (tau/pi) Re s(iy), s the
    cubic root of s^3 + alpha s = tau z with largest real part."""
    _finite(y=y, alpha=alpha, tau=tau)
    if tau <= 0.0:
        raise ValueError("tau must be positive")
    iy = 1j * np.ravel(y).astype(float)
    roots = sf._closed_form_roots(sf._cubic(alpha, tau)(iy))
    return _like((tau / math.pi) * roots.real.max(axis=1), y)


# ---------------------------------------------------------------------------
# Masses.  Every mass integral, and the mu1 CDF of ``finiten``, is one rule:
# 24-node Gauss-Legendre panels under a change of variable that makes the
# integrand analytic.  At a square-root end point x = end + h s^2; for
# |y| >= 1, u = |y|^{-2/3}, since the densities expand in powers of y^{-2/3}
# from y^{-5/3}, so that rho dy = 1.5 u^{-5/2} rho du is a power series in u.
# The nodes of a mass on each side of the carrier are marched along one path
# per quadrant (sequential branch continuation between neighboring nodes)
# instead of re-tracking each point separately, and all paths of the mass
# share one march per polynomial.


def _nodes(edges, x_of, dx_of) -> tuple[np.ndarray, np.ndarray]:
    """Nodes x(t) and weights w dx/dt for the panel nodes t, w between ``edges``."""
    t, w = sf._panel_nodes(edges)
    return x_of(t), w * dx_of(t)


def _from_ends(*pieces) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights on the pieces (end, other), each from a square-root
    point ``end``: x = end + (other - end) s^2 on one panel 0 <= s <= 1."""
    parts = [_nodes([0.0, 1.0], lambda s: end + (other - end) * s * s,
                    lambda s: 2.0 * abs(other - end) * s) for end, other in pieces]
    return tuple(np.concatenate(part) for part in zip(*parts))


def _mu1_nodes(p: sf.SurfaceParams) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights on [0, c], split at c/2 between its square-root ends."""
    return _from_ends((0.0, 0.5 * p.c), (p.c, 0.5 * p.c))


def mass_mu1(p: sf.SurfaceParams) -> float:
    """Total mass of mu1; contract: 1."""
    x, w = _mu1_nodes(p)
    # factor 2 from even symmetry of the density
    return 2.0 * float(w @ density_mu1(x, p))


def _mass_with_tail(near: tuple[np.ndarray, np.ndarray], density,
                    p: sf.SurfaceParams) -> tuple[float, float]:
    """Mass of ``density`` over both halves of the carrier, and its part
    beyond the cutoff.

    ``near`` holds the nodes and weights on [0, 1].  The far field y >= 1
    takes u = y^{-2/3} on the panels [0, cutoff^{-2/3}, 1], the first of
    which is the tail y > cutoff.  The density is evaluated at all nodes
    in one call, so they share one march.
    """
    far = _nodes([0.0, _CUTOFF ** (-2.0 / 3.0), 1.0],
                 lambda u: u ** -1.5, lambda u: 1.5 * u ** -2.5)
    t, w = (np.concatenate(part) for part in zip(near, far))
    mass = w * density(t, p)
    return 2.0 * float(mass.sum()), 2.0 * float(mass[t > _CUTOFF].sum())


def mass_mu2(p: sf.SurfaceParams) -> tuple[float, float]:
    """Total mass of mu2 and the part of it beyond |y| = 200.

    The density vanishes like a square root at y = 0 and decays like
    C |y|^{-5/3}.  Contract: mass = 2/3.
    """
    return _mass_with_tail(_from_ends((0.0, 1.0)), density_mu2, p)


def mass_mu3(p: sf.SurfaceParams) -> tuple[float, float]:
    """Total mass of mu3 and the part of it beyond |x| = 200; contract: 1/3.

    The square-root points are 0 and x*, so [0, x*] is split at x*/2.
    """
    xs = sf.x_star(p.alpha, p.tau)
    near = _from_ends((0.0, 0.5 * xs), (xs, 0.5 * xs), (xs, 1.0))
    return _mass_with_tail(near, density_mu3, p)


def xi_integral_check(p: sf.SurfaceParams) -> tuple[float, float]:
    """(Im int_{-c}^c xi_{1,+}, Im int_{-c}^c xi_{2,+}); contract (pi, -pi)."""
    x, w = _mu1_nodes(p)
    line = np.concatenate([-x[::-1], x]) + 1j * _DELTA
    w = np.concatenate([w[::-1], w])
    return tuple(float(w @ sf.xi_sheet_on_path(line, p, sheet).imag)
                 for sheet in (0, 1))
