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

from .errors import DegenerateRoots, DomainRestriction, PathOnCut, _finite

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

    def __post_init__(self):
        _finite(alpha=self.alpha, tau=self.tau, gamma=self.gamma, c=self.c)

    @classmethod
    def from_alpha_tau(cls, alpha: float, tau: float) -> "SurfaceParams":
        g = gamma_of(alpha, tau)
        return cls(alpha=alpha, tau=tau, gamma=g, c=(16.0 / (3.0 * math.sqrt(3.0))) * g**1.5)

    @classmethod
    def critical(cls) -> "SurfaceParams":
        return cls.from_alpha_tau(-1.0, 1.0)


def gamma_of(alpha: float, tau: float) -> float:
    """Root of alpha*tau^{2/3} = 3/gamma - 9 gamma^2 + 5 tau^{4/3} gamma.

    Times gamma/9 this is the cubic gamma^3 - (5/9) T^2 gamma^2 +
    (alpha T/9) gamma - 1/3 = 0, T = tau^{2/3}, and gamma is its unique
    positive root, with gamma(-1, 1) = 1.  For alpha <= 0 Descartes'
    rule gives exactly one positive root.  For alpha > 0 the cubic has no
    negative root, so where its discriminant is >= 0 it has three positive
    roots and none is singled out: there it raises DomainRestriction.
    Solved by Cardano after the shift gamma = s + 5 T^2/27.
    """
    _finite(alpha=alpha, tau=tau)
    if tau <= 0.0:
        raise ValueError("tau must be positive")
    t = tau ** (2.0 / 3.0)
    shift = 5.0 * t * t / 27.0
    b = alpha * t / 9.0
    p, q = b - 3.0 * shift**2, shift * (b - 2.0 * shift**2) - 1.0 / 3.0
    if alpha > 0.0 and 4.0 * p**3 + 27.0 * q * q <= 0.0:
        raise DomainRestriction(
            f"gamma's cubic has three positive roots at alpha = {alpha}, tau = {tau}")
    g = _cardano(np.array([p], dtype=complex), np.array([q], dtype=complex))[0] + shift
    # the positive root: alone with Re > 0 if alpha <= 0, the real one if not
    return g[np.argmin(np.where(g.real > 0.0, np.abs(g.imag), np.inf))].real


def scaled_params(a: float, b: float, n: int) -> tuple[float, float]:
    """(alpha, tau) = (-1, 1) + a n^{-1/3} (2, 1) + b n^{-2/3} (-1, 2)."""
    _finite(a=a, b=b)
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
march_rounds = 0        # bisection rounds, one _match call each, all paths at once

_BLOCK = 256            # points solved per call; a path's steps tested per round

_CUBE_ROOTS_OF_ONE = np.exp(2j * np.pi / 3 * np.arange(3))
_SIGNS = np.array([-1.0, 1.0])


def _cardano_cube(d0: np.ndarray, d1: np.ndarray) -> np.ndarray:
    """(d1 + sqrt(d1^2 - 4 d0^3))/2, with the sign of the square root that
    gives it the larger modulus: it is zero only where d0 = d1 = 0."""
    root = np.sqrt(d1 * d1 - 4.0 * d0**3)
    root *= np.copysign(1.0, (d1.conjugate() * root).real)
    return 0.5 * (d1 + root)


def _cardano(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Roots of s^3 + p s + q, a row of three per entry of ``p`` and ``q``:
    -(u + d0/u)/3 over the three cube roots u of ``_cardano_cube(d0, d1)``,
    d0 = -3p, d1 = 27q (where u = 0, d0 = 0 too and the roots are 0)."""
    d0 = -3.0 * p
    u = (_cardano_cube(d0, 27.0 * q) ** (1.0 / 3.0))[:, None] * _CUBE_ROOTS_OF_ONE
    return (u + d0[:, None] / (u + (u == 0.0))) * (-1.0 / 3.0)


def _trinomial_quartic(z: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Roots w of (w^2 + g)^2 - z w^3, r = 1/g > 0, a row of four per entry of z.

    w = t^2 with t^4 - sqrt(z) t^3 + g = 0 (the other square root gives -t
    and the same w), and v = 1/t solves v^4 + q v + r = 0 with q = -sqrt(z) r.
    This form is regular at z = 0, where t^4 = -g has four distinct roots;
    its only double roots are at the branch points +-c.  Ferrari: for a
    root m of the resolvent m^3 - r m - q^2/8 and s = sqrt(2m),
    v^4 + q v + r = (v^2 - s v + K1)(v^2 + s v + K2), K1,2 = m +- q/(2s),
    K1 K2 = r.  The root m of largest modulus comes from the Cardano cube
    root nearest the real axis (its d0 = 3r is positive); the sign of s
    makes K1 the larger, and K2 = r/K1.  Each quadratic's larger root comes
    from the formula and the other from Vieta.
    """
    q = np.sqrt(z) * -r
    d0 = 3.0 * r
    cube = _cardano_cube(d0, -3.375 * q * q)
    sign = np.copysign(1.0, cube.real)
    u = sign * (sign * cube) ** (1.0 / 3.0)
    m = (u + d0 / u) * (-1.0 / 3.0)
    s = np.sqrt(2.0 * m)
    h = 0.5 * q / s
    sign = np.copysign(1.0, (m.conjugate() * h).real)
    k1 = m + sign * h
    b = (sign * s)[:, None] * _SIGNS            # the quadratics v^2 + b v + K
    k = np.empty_like(b)
    k[:, 0], k[:, 1] = k1, r / k1
    root = np.sqrt(b * b - 4.0 * k)
    root *= np.copysign(1.0, (b.conjugate() * root).real)
    v = np.empty((len(z), 4), dtype=complex)
    v[:, :2] = -0.5 * (b + root)
    v[:, 2:] = k / v[:, :2]
    return 1.0 / (v * v)


def _closed_form_roots(coeffs: np.ndarray) -> np.ndarray:
    """Roots of each row of ``coeffs``, a row of the cubic family
    (1, 0, alpha, -tau z) or of the quartic family (1, -z, 2g, 0, g^2)."""
    coeffs = coeffs.astype(complex, copy=False)
    if coeffs.shape[1] == 4:
        return _cardano(coeffs[:, 2], coeffs[:, 3])
    return _trinomial_quartic(-coeffs[:, 1], 2.0 / coeffs[:, 2])


def _horner(coeffs: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Each row of ``coeffs`` evaluated at the same row of ``x``."""
    y = coeffs[:, :1]
    for c in coeffs.T[1:]:
        y = y * x + c[:, None]
    return y


def _roots(coeffs: np.ndarray) -> np.ndarray:
    """Roots of each row of ``coeffs`` in closed form, polished by one
    Newton step.  Each row's roots are elementwise in that row alone, so
    they do not depend on the other rows of the call."""
    global root_evaluations
    root_evaluations += len(coeffs)
    roots = _closed_form_roots(coeffs)
    deriv = coeffs[:, :-1] * np.arange(coeffs.shape[1] - 1, 0, -1)
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
    least (ties broken by the next-largest movements in turn, then by the
    first candidate), and whether the step is accepted: every root moves
    at most 0.3 times its own nearest-neighbour distance at zb, or the
    step is below roundoff.
    """
    perms = _PERMS[ra.shape[1]]
    # each root's nearest-neighbour distance at zb, taken before the arrays
    # below exist so that their peaks in memory do not add up
    near = np.abs(rb[:, :, None] - rb[:, None, :])
    near.sort(axis=2)
    near = near[:, :, 1].copy()
    dist = np.abs(rb[:, None, :] - ra[:, :, None])           # dist[k, i, j]
    cost = dist[:, 0, perms[:, 0]]                            # cost[k, q]
    for i in range(1, ra.shape[1]):
        np.maximum(cost, dist[:, i, perms[:, i]], out=cost)
    best = np.argmin(cost, axis=1)
    # far out, w1's move exceeds the others' spacing and ties the least maximum
    least = cost == cost.min(axis=1, keepdims=True)
    if np.count_nonzero(least) > len(cost):
        tied = np.flatnonzero(least.sum(axis=1) > 1)
        moves = np.sort(dist[tied][:, np.arange(ra.shape[1]), perms], axis=2)  # ascending
        best[tied] = np.lexsort(np.moveaxis(moves, 2, 0), axis=-1)[:, 0]
    k, q = np.arange(len(ra))[:, None], perms[best]
    ok = (np.all(dist[k, np.arange(ra.shape[1]), q] <= 0.3 * near[k, q], axis=1)
          | (np.abs(zb - za) < 1e-14 * np.maximum(1.0, np.abs(zb))))
    return best, ok


def _march(paths, coeffs) -> list[np.ndarray]:
    """Continue each path's ``roots``, labeled at its ``z0``, through its
    ``points`` in order, for ``paths`` a list of (roots, z0, points).

    Returns one array per path, shape (len(points), number of roots).  The
    points of all paths are solved ``_BLOCK`` at a time.  Each step between consecutive points
    takes the permutation of ``_match``, relative to the previous point's
    roots as solved (so the first of equal candidates wins in that order),
    so it does not depend on the labels.  Refused steps are bisected in
    rounds shared by every path: each round tests, per path, the first
    ``_BLOCK`` pending steps in path order, all paths in one ``_match``
    call, and solves all their refused midpoints in one call.  Taking each
    path's leftmost steps first keeps its pending steps bounded however many
    the bisection makes, and a step refused at depth 61 raises
    ``DegenerateRoots`` as soon as the rounds reach it; so does a path
    point whose roots overflow, before any step.  The accepted permutations
    compose into labels in one integer scan along each path.
    """
    global march_rounds
    sizes = [len(points) for _, _, points in paths]
    # path after path, its start (taken as an accepted identity step) and
    # its steps in path order, each from the end of the one before; a
    # refused step becomes its halves
    ends = np.ones(sum(sizes) + len(paths), dtype=bool)     # ends at a path point
    ends[np.cumsum([0] + sizes[:-1]) + np.arange(len(paths))] = False
    zb = np.empty(len(ends), dtype=complex)
    zb[~ends] = [z0 for _, z0, _ in paths]
    zb[ends] = np.concatenate([points for _, _, points in paths])
    bad = ~np.isfinite(zb)
    if bad.any():
        raise ValueError(f"non-finite point z = {zb[bad][0]}")
    rb = np.empty((len(ends), len(paths[0][0])), dtype=complex)
    rb[~ends] = [roots for roots, _, _ in paths]
    # far out (|w| ~ |z| beyond ~1e77, |tau z| beyond ~1e153) a row's roots
    # overflow to nan; a bisection midpoint is nearer the origin
    with np.errstate(over="ignore", invalid="ignore"):
        rb[ends] = np.concatenate([_roots(coeffs(z)) for z in np.split(
            zb[ends], range(_BLOCK, sum(sizes), _BLOCK))])
    lost = ~np.all(np.isfinite(rb), axis=1)
    if lost.any():
        raise DegenerateRoots(f"the roots overflow at z = {zb[lost][0]}")
    path = np.cumsum(~ends) - 1
    depth = np.zeros(len(ends), dtype=int)
    step = np.where(ends, -1, 0)                # accepted permutation, or -1
    while (pending := np.flatnonzero(step < 0)).size:
        march_rounds += 1
        # a path's window: _BLOCK steps from its first refused or untested one
        owner = path[pending]
        todo = pending[pending - pending[np.searchsorted(owner, owner)] < _BLOCK]
        best, ok = _match(zb[todo - 1], zb[todo], rb[todo - 1], rb[todo])
        step[todo[ok]] = best[ok]
        split = todo[~ok]
        if len(split):
            deep = split[depth[split] > 60]
            if len(deep):
                raise DegenerateRoots("root continuation failed to separate "
                                      f"branches near z = {zb[deep[0]]}")
            mid = 0.5 * (zb[split - 1] + zb[split])
            rmid = _roots(coeffs(mid))
            depth[split] += 1
            twice = np.ones(len(step), dtype=int)
            twice[split] = 2
            first = (np.cumsum(twice) - 2)[split]
            zb, rb, ends, depth, step, path = (
                np.repeat(a, twice, axis=0) for a in (zb, rb, ends, depth, step, path))
            zb[first], rb[first], ends[first] = mid, rmid, False
    compose, perms = _COMPOSE[rb.shape[1]], _PERMS[rb.shape[1]]
    labels = np.concatenate([       # from the identity at the path's start
        np.fromiter(accumulate(steps.tolist(), lambda s, q: compose[q][s]), dtype=int)
        for steps in np.split(step, np.searchsorted(path, range(1, len(paths))))])
    return np.split(np.take_along_axis(rb[ends], perms[labels[ends]], axis=1),
                    np.cumsum(sizes[:-1]))


def _along(points, reference, coeffs) -> np.ndarray:
    """Roots of ``coeffs(z)`` at ``points``, one row per point in input order.

    Axis points are one-sided limits (module docstring).  Each quadrant's
    points are marched outward in |z| from its reference, an interior point
    of the quadrant and the labeled roots there; ``reference`` maps the list
    of quadrants to the list of (z0, roots).  All quadrants share one march.
    """
    z = _nudge_off_axis(points)
    quads = _quadrant(z)
    out = np.empty((len(z), coeffs(z[:0]).shape[1] - 1), dtype=complex)
    order = list(dict.fromkeys(quads))
    if order:
        groups = [np.flatnonzero(quads == quad) for quad in order]
        groups = [g[np.argsort(np.abs(z[g]), kind="stable")] for g in groups]
        paths = [(roots, z0, z[g]) for (z0, roots), g in zip(reference(order), groups)]
        out[np.concatenate(groups)] = np.concatenate(_march(paths, coeffs))
    return out


def _rows(*coeffs) -> np.ndarray:
    """Coefficient rows, one per point, from scalars and arrays of points."""
    rows = np.empty(np.broadcast(*coeffs).shape + (len(coeffs),),
                    dtype=np.result_type(*coeffs))
    for k, c in enumerate(coeffs):
        rows[..., k] = c
    return rows


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
    return _along(points, lambda quads: [_reference_roots(q, p) for q in quads],
                  _quartic(p))


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
        xi_vals = _xi_from_w(_march([(w_ray[-1], ray[-1], pts)], _quartic(p))[0], p)
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
    _finite(alpha=alpha, tau=tau)
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
    _finite(alpha=alpha, tau=tau)
    if alpha >= 0.0:
        raise DomainRestriction(
            f"x_star requires alpha < 0, got alpha = {alpha}, tau = {tau}")
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

    def reference(quads: list) -> list:
        lifts, labeled = [], {}
        for quad in quads:
            side = cmath.exp(1j * _QUADRANT_ANGLE[quad])
            x_ref = math.copysign(0.05 * xs, side.real)
            if x_ref not in labeled:      # I and IV share it, as do II and III
                labeled[x_ref] = _ordered_real_cubic(x_ref, alpha, tau)
            lifts.append((labeled[x_ref], complex(x_ref),
                          [complex(x_ref, math.copysign(0.5 * xs, side.imag))]))
        rows = _march(lifts, coeffs)
        return [(lift[0], row[0]) for (_, _, lift), row in zip(lifts, rows)]

    return _along(points, reference, coeffs)


def theta_branches(z: complex, alpha: float, tau: float) -> ThetaValues:
    """Cubic roots s_j of s^3 + alpha s = tau z and theta_j = -W(s_j) + tau z s_j.

    On the real window (-x*, x*) the three roots are real and ordered so
    that W(s_j) - tau x s_j is ascending; elsewhere the ordering is the
    continuous continuation of that one (axis points are one-sided limits,
    see the module docstring).
    """
    _finite(alpha=alpha, tau=tau)
    if tau <= 0.0 or alpha >= 0.0:
        raise DomainRestriction("theta requires tau > 0 and alpha < 0, got "
                                f"alpha = {alpha}, tau = {tau}")
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
    _finite(alpha=alpha, tau=tau)
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
