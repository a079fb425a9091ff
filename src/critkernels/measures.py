"""Equilibrium-measure densities from jumps of xi and theta'.

The three measures live on [-c, c] (mu1), the imaginary axis (mu2), and the
real axis (mu3).  Their densities are obtained from the boundary jumps of
the sheet functions; boundary values are taken at a distance 1e-8 off
the axis.  Densities are reported with respect to arclength
along the carrier, oriented left-to-right on the real axis and upward on
the imaginary axis, so that the total masses come out as (1, 2/3, 1/3).

Each density takes a scalar and returns a float, or takes an array and
returns one of its shape, marched once per quadrant and sheet; a point
outside the support raises ``OutsideSupport`` for the whole request.
"""

from __future__ import annotations

import math

import numpy as np

from . import surface as sf
from .errors import OutsideSupport, QuadratureFailure

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
_CUTOFF = 200.0         # |y| beyond which the mu2, mu3 tails are fitted
_LEVELS = 18            # graded panel edges reach 2^{-(_LEVELS - 1)}


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
    xi_jump = (sf.xi_sheet_on_path(plus, p, sheet)
               - sf.xi_sheet_on_path(minus, p, sheet))
    s_jump = (sf.cubic_sheet_on_path(plus, p.alpha, p.tau, sheet - 1)
              - sf.cubic_sheet_on_path(minus, p.alpha, p.tau, sheet - 1))
    return (xi_jump - p.tau * s_jump) / scale


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
    iy = 1j * np.ravel(y).astype(float)
    roots = sf._closed_form_roots(sf._cubic(alpha, tau)(iy))
    return _like((tau / math.pi) * roots.real.max(axis=1), y)


# ---------------------------------------------------------------------------
# Masses.  The integrands are evaluated on fixed composite Gauss-Legendre
# grids, marched along the integration line (sequential branch continuation
# between neighboring nodes) instead of re-tracking each point separately.


def _graded_mesh(a: float, b: float, grade_a: bool, grade_b: bool) -> np.ndarray:
    """Panel edges on [a, b], geometrically refined toward graded ends."""
    ts = {0.0, 0.25, 0.5, 0.75, 1.0}
    for k in range(2, _LEVELS):
        if grade_a:
            ts.add(2.0 ** (-k))
        if grade_b:
            ts.add(1.0 - 2.0 ** (-k))
    mesh = np.array(sorted(ts))
    return a + (b - a) * mesh


def mass_mu1(p: sf.SurfaceParams) -> float:
    """Total mass of mu1; contract: 1."""
    x, w = sf._panel_nodes(_graded_mesh(0.0, p.c, grade_a=True, grade_b=True))
    # factor 2 from even symmetry of the density
    return 2.0 * float(w @ density_mu1(x, p))


def _far_mesh() -> np.ndarray:
    """Edges 1, 2, 4, ... out to the cutoff."""
    far = [1.0]
    while far[-1] < _CUTOFF:
        far.append(min(2.0 * far[-1], _CUTOFF))
    return np.array(far)


def _mass_with_tail(t: np.ndarray, w: np.ndarray, rho_of,
                    where: str) -> tuple[float, float]:
    """Mass over both halves of the carrier, and the tail part of it.

    ``rho_of`` evaluates the jump density at the quadrature nodes ``t``
    (weights ``w``) and 8 fit points on [cutoff/4, cutoff] in one call, so
    all are marched along one path.  The densities expand in powers of
    y^{-2/3} from y^{-5/3}; C1 y^{-5/3} + C2 y^{-7/3} is fitted at the fit
    points and integrated over (cutoff, infinity).
    """
    ys = np.geomspace(_CUTOFF / 4.0, _CUTOFF, 8)
    rho = rho_of(np.concatenate([t, ys]))
    nodes, fit = rho[:len(t)], rho[len(t):]
    if np.max(np.abs(nodes.imag)) > _IM_TOL:
        raise QuadratureFailure(f"{where}: density has spurious imaginary part")
    basis = np.column_stack([ys ** (-5.0 / 3.0), ys ** (-7.0 / 3.0)])
    (c1, c2), *_ = np.linalg.lstsq(basis, _real_cast(fit, where), rcond=None)
    tail = 1.5 * c1 * _CUTOFF ** (-2.0 / 3.0) + 0.75 * c2 * _CUTOFF ** (-4.0 / 3.0)
    return 2.0 * float(w @ nodes.real) + 2.0 * tail, 2.0 * tail


def mass_mu2(p: sf.SurfaceParams) -> tuple[float, float]:
    """Total mass of mu2 and the tail estimate added for |y| > 200.

    The jump density decays like C |y|^{-5/3}; C is fitted on
    [50, 200] and the tail integral (3/2) C 200^{-2/3} is added
    for each end of the axis.  Contract: mass = 2/3.
    """
    edges = np.concatenate([
        _graded_mesh(0.0, 1.0, grade_a=True, grade_b=False),
        _far_mesh()[1:],
    ])

    def rho(y):
        return _jump_density(-_DELTA + 1j * y, _DELTA + 1j * y, p, 1, 2.0 * math.pi)
    return _mass_with_tail(*sf._panel_nodes(edges), rho, "mass_mu2")


def mass_mu3(p: sf.SurfaceParams) -> tuple[float, float]:
    """Total mass of mu3 and the tail estimate; contract: 1/3."""
    xs = sf.x_star(p.alpha, p.tau)
    edges = np.concatenate([
        _graded_mesh(0.0, xs, grade_a=True, grade_b=True),
        _graded_mesh(xs, 1.0, grade_a=True, grade_b=False)[1:],
        _far_mesh()[1:],
    ])

    def rho(x):
        return _jump_density(x + 1j * _DELTA, x - 1j * _DELTA, p, 2, 2.0j * math.pi)
    return _mass_with_tail(*sf._panel_nodes(edges), rho, "mass_mu3")


def xi_integral_check(p: sf.SurfaceParams) -> tuple[float, float]:
    """(Im int_{-c}^c xi_{1,+}, Im int_{-c}^c xi_{2,+}); contract (pi, -pi)."""
    x, w = sf._panel_nodes(_graded_mesh(0.0, p.c, grade_a=True, grade_b=True))
    line = np.concatenate([-x[::-1], x]) + 1j * _DELTA
    w = np.concatenate([w[::-1], w])
    return tuple(float(w @ sf.xi_sheet_on_path(line, p, sheet).imag)
                 for sheet in (0, 1))
