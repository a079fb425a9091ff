"""Modified Riemann surface: gamma, the algebraic function w, xi, lambda, theta.

The four-sheeted genus-zero surface attached to the quartic/quadratic
two-matrix model near the multicritical point (alpha, tau) = (-1, 1).
Everything in this module is a pure function of immutable inputs.

Conventions
-----------
* Quadrants I..IV are the open quadrants of the z-plane.  Points that lie
  exactly on an axis are evaluated as one-sided limits: the real axis is
  approached from above (Im z > 0) and the imaginary axis from the left
  (Re z < 0).  Callers that need a specific side pass ``x +/- 1j*delta``.
* Branches are ordered by modulus descending, ``|w1| >= ... >= |w4|``,
  with ties resolved by continuity within the open quadrant.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace
from itertools import accumulate, permutations

import numpy as np

from .errors import DegenerateRoots, NoRootOnBranch, PathOnCut

__all__ = [
    "SurfaceParams",
    "SheetValues",
    "ThetaValues",
    "PhaseCase",
    "gamma_of",
    "scaled_params",
    "w_branches",
    "xi_branches",
    "lambda_branches",
    "theta_branches",
    "classify_phase",
]

_AXIS_NUDGE = 1e-12


# ---------------------------------------------------------------------------
# Parameter container and gamma


@dataclass(frozen=True)
class SurfaceParams:
    """The tuple (alpha, tau, gamma, c) pinning one modified Riemann surface."""

    alpha: float
    tau: float
    gamma: float
    c: float

    @classmethod
    def from_alpha_tau(cls, alpha: float, tau: float) -> "SurfaceParams":
        g = gamma_of(alpha, tau)
        return cls(alpha=alpha, tau=tau, gamma=g, c=(16.0 / (3.0 * math.sqrt(3.0))) * g**1.5)

    @classmethod
    def critical(cls) -> "SurfaceParams":
        return cls.from_alpha_tau(-1.0, 1.0)


def _gamma_residual(g: float, alpha: float, tau: float) -> float:
    return 3.0 / g - 9.0 * g * g + 5.0 * tau ** (4.0 / 3.0) * g - alpha * tau ** (2.0 / 3.0)


def _gamma_newton(g0: float, alpha: float, tau: float) -> float | None:
    """Newton iteration for the gamma equation; None on failure."""
    g = g0
    for _ in range(60):
        f = _gamma_residual(g, alpha, tau)
        fp = -3.0 / (g * g) - 18.0 * g + 5.0 * tau ** (4.0 / 3.0)
        step = f / fp
        g_new = g - step
        if g_new <= 0.0 or not math.isfinite(g_new):
            return None
        if abs(g_new - g) < 1e-15 * max(1.0, abs(g_new)):
            g = g_new
            break
        g = g_new
    if abs(_gamma_residual(g, alpha, tau)) < 1e-12:
        return g
    return None


def gamma_of(alpha: float, tau: float) -> float:
    """Root of alpha*tau^{2/3} = 3/gamma - 9 gamma^2 + 5 tau^{4/3} gamma.

    Returns the branch continuous to gamma = 1 at (alpha, tau) = (-1, 1),
    followed by straight-line homotopy in the (alpha, tau)-plane.
    """
    if tau <= 0.0:
        raise ValueError("tau must be positive")
    g = 1.0
    t = 0.0
    step = 1.0
    a_last, tau_last = -1.0, 1.0
    while t < 1.0:
        t_next = min(1.0, t + step)
        a_cur = -1.0 + t_next * (alpha + 1.0)
        tau_cur = 1.0 + t_next * (tau - 1.0)
        g_new = _gamma_newton(g, a_cur, tau_cur) if tau_cur > 0.0 else None
        if g_new is None:
            step *= 0.5
            if step < 1e-8:
                raise NoRootOnBranch(a_last, tau_last)
            continue
        g, t = g_new, t_next
        a_last, tau_last = a_cur, tau_cur
        step = min(1.0 - t, step * 2.0) if t < 1.0 else 0.0
        step = max(step, 1e-8) if t < 1.0 else 0.0
    return g


def scaled_params(a: float, b: float, n: int) -> tuple[float, float]:
    """(alpha, tau) = (-1, 1) + a n^{-1/3} (2, 1) + b n^{-2/3} (-1, 2)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    e1 = n ** (-1.0 / 3.0)
    e2 = n ** (-2.0 / 3.0)
    return (-1.0 + 2.0 * a * e1 - b * e2, 1.0 + a * e1 + 2.0 * b * e2)


# ---------------------------------------------------------------------------
# Quadrants and axis handling


def _nudge_off_axis(points) -> np.ndarray:
    """The points, flat, with axis points moved per the module docstring."""
    z = np.array(points, dtype=complex).ravel()
    scale = _AXIS_NUDGE * np.maximum(1.0, np.abs(z))
    z.imag = np.where(z.imag == 0.0, scale, z.imag)
    z.real = np.where(z.real == 0.0, -scale, z.real)
    return z


def _quadrant(z):
    """The quadrant label of z, "I" to "IV"; an array of labels for an array."""
    z = np.asarray(z)
    q = np.where(z.real > 0.0, np.where(z.imag > 0.0, "I", "IV"),
                 np.where(z.imag > 0.0, "II", "III"))
    return q.item() if q.ndim == 0 else q


_QUADRANT_ANGLE = {"I": 0.25 * math.pi, "II": 0.75 * math.pi,
                   "III": -0.75 * math.pi, "IV": -0.25 * math.pi}


# ---------------------------------------------------------------------------
# Root tracking.  One batched tracker serves the quartic (w) and cubic (s)
# sheets; it takes the polynomial's coefficient rows as a function of an
# array of z.

root_evaluations = 0    # points whose roots were solved, midpoints included

_BLOCK = 256            # path points solved per stacked eigvals call


def _companion_eigvals(coeffs: np.ndarray) -> np.ndarray:
    """Eigenvalues of the companion matrix of each row of ``coeffs``
    (leading coefficient first), the matrices ``np.roots`` builds, in one
    stacked call."""
    m, n = coeffs.shape[0], coeffs.shape[1] - 1
    comp = np.zeros((m, n, n), dtype=coeffs.dtype)
    comp[:, 0, :] = -coeffs[:, 1:] / coeffs[:, :1]
    comp[:, np.arange(1, n), np.arange(n - 1)] = 1.0
    return np.linalg.eigvals(comp)


def _horner(coeffs: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Each row of ``coeffs`` evaluated at the same row of ``x``."""
    y = np.zeros_like(x)
    for c in coeffs.T:
        y = y * x + c[:, None]
    return y


def _roots(coeffs: np.ndarray) -> np.ndarray:
    """Roots of each row of ``coeffs``, polished by two Newton steps."""
    global root_evaluations
    root_evaluations += len(coeffs)
    roots = _companion_eigvals(coeffs)
    deriv = coeffs[:, :-1] * np.arange(coeffs.shape[1] - 1, 0, -1)
    for _ in range(2):
        fp = _horner(deriv, roots)
        mask = np.abs(fp) > 0.0
        roots[mask] -= _horner(coeffs, roots)[mask] / fp[mask]
    return roots


def _composition(perms: list) -> list:
    """table[q][s]: the index in ``perms`` of s followed by q, (q[s[i]])_i."""
    index = {p: k for k, p in enumerate(perms)}
    return [[index[tuple(q[i] for i in s)] for s in perms] for q in perms]


_PERMS = {n: np.array(list(permutations(range(n)))) for n in (3, 4)}
_COMPOSE = {n: _composition(list(permutations(range(n)))) for n in (3, 4)}


def _match(za, zb, ra, rb) -> tuple[np.ndarray, np.ndarray]:
    """Match the roots ``rb`` at ``zb`` to ``ra`` at ``za``, one pair per row.

    Returns, per row, the index into ``_PERMS`` of the permutation q (root i
    of ``ra`` continues as root q[i] of ``rb``) whose largest movement is
    least, the first of equal candidates winning, and whether the step is
    accepted: every root moves at most 0.3 times its own nearest-neighbour
    distance at zb, or the step is below roundoff.
    """
    perms = _PERMS[ra.shape[1]]
    dist = np.abs(rb[:, None, :] - ra[:, :, None])           # dist[k, i, j]
    cost = dist[:, 0, perms[:, 0]]                            # cost[k, q]
    for i in range(1, ra.shape[1]):
        np.maximum(cost, dist[:, i, perms[:, i]], out=cost)
    best = np.argmin(cost, axis=1)
    k, q = np.arange(len(ra))[:, None], perms[best]
    near = np.sort(np.abs(rb[:, :, None] - rb[:, None, :]), axis=2)[:, :, 1]
    ok = (np.all(dist[k, np.arange(ra.shape[1]), q] <= 0.3 * near[k, q], axis=1)
          | (np.abs(zb - za) < 1e-14 * np.maximum(1.0, np.abs(zb))))
    return best, ok


def _march(roots: np.ndarray, z0: complex, points, coeffs) -> np.ndarray:
    """Continue ``roots``, labeled at z0, through ``points`` in order.

    Returns shape (len(points), number of roots).  The points are solved
    ``_BLOCK`` at a time.  Each step between consecutive points takes the
    permutation of ``_match``, relative to the previous point's roots as
    solved (so the first of equal candidates wins in that order).  Refused
    steps are bisected in rounds: each round tests the first ``_BLOCK``
    pending steps in path order together and solves their midpoints in one
    call.  Taking the leftmost steps first keeps the pending steps bounded
    however many the bisection makes, and a step refused at depth 61 raises
    ``DegenerateRoots`` as soon as the rounds reach it.  The accepted
    permutations compose into labels in one integer scan along the path.
    """
    points = np.asarray(points, dtype=complex)
    bad = ~np.isfinite(points)
    if bad.any():
        raise ValueError(f"non-finite point z = {points[bad][0]}")
    compose = _COMPOSE[len(roots)]
    out = np.empty((len(points), len(roots)), dtype=complex)
    label = 0                       # the identity: roots are in label order
    for lo in range(0, len(points), _BLOCK):
        zs = points[lo:lo + _BLOCK]
        raw = _roots(coeffs(zs))
        # the pending steps in path order; a refused step becomes its halves
        za, zb = np.concatenate([[z0], zs[:-1]]), zs
        ra, rb = np.concatenate([roots[None], raw[:-1]]), raw
        ends = np.ones(len(zs), dtype=bool)     # the step ends at a path point
        depth = np.zeros(len(zs), dtype=int)
        step = np.full(len(zs), -1)             # accepted permutation, or -1
        accepted, ended = [], []                # dropped steps, in path order
        while len(step):
            todo = np.flatnonzero(step[:_BLOCK] < 0)
            best, ok = _match(za[todo], zb[todo], ra[todo], rb[todo])
            step[todo[ok]] = best[ok]
            split = todo[~ok]
            if len(split):
                deep = split[depth[split] > 60]
                if len(deep):
                    raise DegenerateRoots("root continuation failed to separate "
                                          f"branches near z = {zb[deep[0]]}")
                mid = 0.5 * (za[split] + zb[split])
                rmid = _roots(coeffs(mid))
                depth[split] += 1
                twice = np.ones(len(step), dtype=int)
                twice[split] = 2
                first = (np.cumsum(twice) - 2)[split]
                za, zb, ra, rb, ends, depth, step = (
                    np.repeat(a, twice, axis=0)
                    for a in (za, zb, ra, rb, ends, depth, step))
                zb[first], rb[first], ends[first] = mid, rmid, False
                za[first + 1], ra[first + 1] = mid, rmid
            # set aside the accepted steps that lead the path
            done = np.flatnonzero(np.append(step, -1) < 0)[0]
            accepted.append(step[:done])
            ended.append(ends[:done])
            za, zb, ra, rb, ends, depth, step = (
                a[done:] for a in (za, zb, ra, rb, ends, depth, step))
        scan = accumulate(np.concatenate(accepted).tolist(),
                          lambda s, q: compose[q][s], initial=label)
        labels = np.fromiter(scan, dtype=int)[1:][np.concatenate(ended)]
        perm = _PERMS[len(roots)][labels]
        out[lo:lo + len(zs)] = np.take_along_axis(raw, perm, axis=1)
        z0, roots, label = zs[-1], raw[-1], int(labels[-1])
    return out


def _along(points, reference, coeffs) -> np.ndarray:
    """Roots of ``coeffs(z)`` at ``points``, one row per point in input order.

    Axis points are one-sided limits (module docstring).  Each quadrant's
    points are marched outward in |z| from ``reference(quadrant)``, an
    interior point of the quadrant and the labeled roots there.
    """
    z = _nudge_off_axis(points)
    quads = _quadrant(z)
    out = np.empty((len(z), coeffs(z[:0]).shape[1] - 1), dtype=complex)
    for quad in dict.fromkeys(quads):
        group = np.flatnonzero(quads == quad)
        group = group[np.argsort(np.abs(z[group]), kind="stable")]
        z0, roots = reference(quad)
        out[group] = _march(roots, z0, z[group], coeffs)
    return out


def _rows(*coeffs) -> np.ndarray:
    """Coefficient rows, one per point, from scalars and arrays of points."""
    return np.stack(np.broadcast_arrays(*coeffs), axis=-1)


def _quartic(p: SurfaceParams):
    """Rows of coefficients of (w^2 + gamma^3)^2 - z w^3 at an array of z."""
    g3 = p.gamma**3
    return lambda z: _rows(1.0, -z, 2.0 * g3, 0.0, g3 * g3)


def _reference_roots(quadrant: str, p: SurfaceParams) -> tuple[complex, np.ndarray]:
    """The quadrant's interior reference point and its modulus-ordered roots."""
    z_ref = 1.5 * p.c * cmath.exp(1j * _QUADRANT_ANGLE[quadrant])
    roots = _roots(_quartic(p)(np.array([z_ref])))[0]
    order = np.argsort(-np.abs(roots))
    roots = roots[order]
    mods = np.abs(roots)
    if np.min(mods[:-1] - mods[1:]) < 1e-9 * max(1.0, float(mods[0])):
        raise DegenerateRoots(
            f"ambiguous modulus ordering at reference point {z_ref}")
    return z_ref, roots


def _w_along(points, p: SurfaceParams) -> np.ndarray:
    """w_j at each of ``points`` (see ``_along``), shape (n, 4)."""
    if np.any(np.asarray(points) == 0.0):
        raise DegenerateRoots("z = 0 is a branch point")
    return _along(points, lambda quad: _reference_roots(quad, p), _quartic(p))


# ---------------------------------------------------------------------------
# Sheet values


@dataclass(frozen=True)
class SheetValues:
    """Ordered four-branch values at one complex point."""

    z: complex
    quadrant: str
    w: np.ndarray
    xi: np.ndarray | None = None
    lam: np.ndarray | None = None


def _xi_from_w(w: np.ndarray, p: SurfaceParams) -> np.ndarray:
    g3 = p.gamma**3
    num = w**4 + (3.0 * g3 - 1.0) * w**2 + p.tau ** (4.0 / 3.0) * p.gamma**5
    den = w * (w**2 + g3)
    return num / den


def w_branches(z: complex, p: SurfaceParams) -> SheetValues:
    """The four quartic roots w_j(z), modulus-ordered and quadrant-continuous."""
    z = complex(z)
    return SheetValues(z, _quadrant(_nudge_off_axis(z)[0]), _w_along([z], p)[0])


def xi_branches(z: complex, p: SurfaceParams) -> SheetValues:
    """The modified xi-functions on the four sheets at z."""
    sv = w_branches(z, p)
    return replace(sv, xi=_xi_from_w(sv.w, p))


# ---------------------------------------------------------------------------
# lambda-functions: antiderivatives of xi along the radial ray


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(24)


def _panel_nodes(edges) -> tuple[np.ndarray, np.ndarray]:
    """Composite 24-point Gauss-Legendre nodes and weights on the panels
    between consecutive ``edges``."""
    edges = np.asarray(edges, dtype=float)
    mid = 0.5 * (edges[:-1] + edges[1:])[:, None]
    half = 0.5 * (edges[1:] - edges[:-1])[:, None]
    return (mid + half * _GL_NODES).ravel(), (half * _GL_WEIGHTS).ravel()


def _lambda_integral(z: complex, p: SurfaceParams) -> np.ndarray:
    """int_0^z xi_j(s) ds for j = 1..4, along a path inside the quadrant.

    The path runs radially from 0 at the quadrant's center angle out to
    |z|, then along the circular arc to z.  The radial leg keeps maximal
    distance from the branch points +-c; on it, substituting s = u^2
    e^{i phi0} removes the s^{-1/2} singularity at the origin (the
    transformed integrand is analytic in u).  The arc leg approaches an
    axis only at its endpoint, at distance ~ ||z| - c| from the nearest
    branch point, so panels are refined geometrically toward that end.
    """
    phi = cmath.phase(z)
    phi0 = _QUADRANT_ANGLE[_quadrant(z)]
    radius = abs(z)
    # radial leg at angle phi0; the arc continues from its outermost node
    u, wq = _panel_nodes(np.linspace(0.0, math.sqrt(radius), 9))    # 8 panels
    ray = (u * u) * cmath.exp(1j * phi0)
    w_ray = _w_along(ray, p)
    xi_vals = _xi_from_w(w_ray, p)
    total = wq @ (2.0 * u[:, None] * cmath.exp(1j * phi0) * xi_vals)
    # arc leg from phi0 to phi
    if phi != phi0:
        span = phi - phi0
        edges = [phi0]
        frac = 1.0
        while frac > 1e-3:
            frac *= 0.5
            edges.append(phi - frac * span)
        edges.append(phi)
        th, wq = _panel_nodes(edges)
        pts = radius * np.exp(1j * th)
        xi_vals = _xi_from_w(_march(w_ray[-1], ray[-1], pts, _quartic(p)), p)
        total = total + wq @ (1j * pts[:, None] * xi_vals)
    return total


def lambda_branches(z: complex, p: SurfaceParams) -> SheetValues:
    """lambda_j(z) = int_0^z xi_j + {0 or i pi} per the quadrant/index rule."""
    z = complex(z)
    if z.real == 0.0 or z.imag == 0.0:
        raise PathOnCut(f"lambda requested on an axis: z = {z}")
    quad = _quadrant(z)
    lam = _lambda_integral(z, p)
    shift = 1j * math.pi
    if quad in ("I", "II"):
        lam[1] += shift
        lam[2] += shift
    else:
        lam[0] += shift
        lam[3] += shift
    return replace(xi_branches(z, p), lam=lam)


def xi_sheet_on_path(points: np.ndarray, p: SurfaceParams, sheet: int) -> np.ndarray:
    """xi_{sheet} at any finite ``points`` (z = 0 raises), in input order.

    Each quadrant's points are marched outward in |z| from its reference
    (see ``_along``), which is much cheaper than tracking each point.
    """
    return _xi_from_w(_w_along(points, p)[:, sheet], p)


def cubic_sheet_on_path(points: np.ndarray, alpha: float, tau: float,
                        sheet: int) -> np.ndarray:
    """s_{sheet} at each of any finite ``points``, marched as in ``xi_sheet_on_path``."""
    return _s_along(points, alpha, tau)[:, sheet]


# ---------------------------------------------------------------------------
# theta-functions (three-sheeted cubic surface)


@dataclass(frozen=True)
class ThetaValues:
    """Cubic roots s_j and theta_j = -W(s_j) + tau z s_j at one point."""

    z: complex
    s: np.ndarray
    theta: np.ndarray


def _w_potential(s: np.ndarray, alpha: float) -> np.ndarray:
    return 0.25 * s**4 + 0.5 * alpha * s**2


def x_star(alpha: float, tau: float) -> float:
    """Edge of the real three-root window: (2/tau) (-alpha/3)^{3/2}."""
    if alpha >= 0.0:
        raise ValueError("x_star requires alpha < 0")
    return (2.0 / tau) * (-alpha / 3.0) ** 1.5


def _cubic(alpha: float, tau: float):
    """Rows of coefficients of s^3 + alpha s - tau z at an array of z."""
    return lambda z: _rows(1.0, 0.0, alpha, -tau * z)


def _ordered_real_cubic(x: float, alpha: float, tau: float) -> np.ndarray:
    """Real roots on (-x*, x*), ordered by W(s) - tau x s ascending."""
    roots = np.real(_roots(_cubic(alpha, tau)(np.array([x])))[0])
    crit = _w_potential(roots, alpha) - tau * x * roots
    return roots[np.argsort(crit)].astype(complex)


def _s_along(points, alpha: float, tau: float) -> np.ndarray:
    """s_j at each of ``points`` (see ``_along``), shape (n, 3).

    Labels are fixed on the real window at x_ref = +-x*/20 (the quadrant's
    side); the path rises off the real axis to x_ref +- i x*/2 before
    heading into the quadrant, so it keeps clear of the branch points
    +-x* when a point sits just off the real axis beyond the window.
    """
    xs = x_star(alpha, tau)
    coeffs = _cubic(alpha, tau)

    def reference(quad: str) -> tuple[complex, np.ndarray]:
        side = cmath.exp(1j * _QUADRANT_ANGLE[quad])
        x_ref = math.copysign(0.05 * xs, side.real)
        lift = complex(x_ref, math.copysign(0.5 * xs, side.imag))
        return lift, _march(_ordered_real_cubic(x_ref, alpha, tau),
                            complex(x_ref), [lift], coeffs)[0]

    return _along(points, reference, coeffs)


def theta_branches(z: complex, alpha: float, tau: float) -> ThetaValues:
    """Cubic roots s_j of s^3 + alpha s = tau z and theta_j = -W(s_j) + tau z s_j.

    On the real window (-x*, x*) the three roots are real and ordered so
    that W(s_j) - tau x s_j is ascending; elsewhere the ordering is the
    continuous continuation of that one (axis points are one-sided limits,
    see the module docstring).
    """
    if tau <= 0.0 or alpha >= 0.0:
        raise ValueError("theta requires tau > 0 and alpha < 0")
    z = complex(z)
    if z.imag == 0.0 and abs(z.real) < x_star(alpha, tau):
        s = _ordered_real_cubic(z.real, alpha, tau)
    else:
        s = _s_along([z], alpha, tau)[0]
    theta = -_w_potential(s, alpha) + tau * z * s
    return ThetaValues(z=z, s=s, theta=theta)


# ---------------------------------------------------------------------------
# Phase classifier


_ON_CURVE = 1e-12        # a point this close to a phase curve lies on it


class PhaseCase:
    """Phase-diagram classification labels."""

    CaseI = "CaseI"
    CaseII = "CaseII"
    CaseIII = "CaseIII"
    CaseIV = "CaseIV"
    BoundaryI_II = "BoundaryI_II"
    BoundaryIII_IV = "BoundaryIII_IV"
    Multicritical = "Multicritical"
    UndeterminedII_III = "UndeterminedII_III"


def classify_phase(alpha: float, tau: float) -> str:
    """Classify (alpha, tau) by the curves tau = sqrt(alpha+2), tau = sqrt(-1/alpha)."""
    if tau <= 0.0:
        raise ValueError("tau must be positive")
    if abs(alpha + 1.0) <= _ON_CURVE and abs(tau - 1.0) <= _ON_CURVE:
        return PhaseCase.Multicritical
    parabola = math.sqrt(alpha + 2.0) if alpha >= -2.0 else None
    hyperbola = math.sqrt(-1.0 / alpha) if alpha < 0.0 else None
    if parabola is not None and abs(tau - parabola) <= _ON_CURVE:
        return PhaseCase.BoundaryI_II
    if alpha <= -1.0 and hyperbola is not None and abs(tau - hyperbola) <= _ON_CURVE:
        return PhaseCase.BoundaryIII_IV
    if alpha >= -1.0:
        if parabola is not None and tau < parabola:
            return PhaseCase.CaseI
        if alpha >= 0.0:
            return PhaseCase.CaseII
        return PhaseCase.UndeterminedII_III
    # alpha < -1 below here
    if hyperbola is not None and tau > hyperbola:
        return PhaseCase.CaseIII
    if alpha < -2.0:
        return PhaseCase.CaseIV
    # -2 <= alpha < -1 between the curves, or below the parabola
    if parabola is not None and tau < parabola:
        return PhaseCase.CaseI
    return PhaseCase.CaseIV
