"""The limiting kernels K_cr, K_tac and K_PII as one bilinear form.

Each kernel is the same form in a matrix solution M of a Lax equation
dM/dzeta = L M, evaluated along the line zeta = dz * x:

    K(a, b) = row M(dz a)^{-1} M(dz b) col^T / (2 pi i (a - b))

  K_cr(u, v)   = K(u, v), dz = i, row (-1,1,0,0), col (1,1,0,0), with M
                 the model 4x4 RH solution on the imaginary axis (sector 2
                 for u > 0, sector 7 for u < 0);
  K_tac(u, v)  = -K(v, u), dz = 1, row (-1,0,1,0), col (1,0,1,0), with M
                 the boundary value M_+ from above on the positive real
                 axis at t = 0.  The arguments are swapped: the inverse
                 sits at the second argument,
                 K_tac(u, v) = row M_+(v)^{-1} M_+(u) col^T / (2 pi i (u - v));
  K_PII(x, y)  = K(x, y), dz = 1, row (1,-1), col (1,1), with M the
                 Painleve II RH solution Psi on the real line (sector 3
                 for x >= 0, sector 1 for x < 0).
All three read M from the solver's `m_balanced` (recorded sweeps), so
an entry whose points the sweeps have passed takes no Taylor step.

Since row . col = 0, the diagonal is the derivative limit through the
Lax equation: K(a, a) = -row M^{-1} (dz L(dz a)) M col^T / (2 pi i).

Numerically the forms are assembled from the column-balanced
factorization M = Mhat diag(e^{l_j}) provided by the solver: the entries
of Mhat_a^{-1} Mhat_b that the row and column select are combined with
explicit exponent differences e^{l_j - l_i}, which keeps every
intermediate inside floating-point range and the matrix inverse
well-conditioned.

The kernels take broadcastable arrays of points, so a matrix is one call,
kernel_cr(x[:, None], x, s, t): M is balanced once for the distinct
points and `_form` treats all pairs in one batched solve.  An entry
equals its own 1x1 call; `kernel_*_diag(u)` is `kernel_*(u, u)`.

The module also provides the closed-form large-u diagonal comparators:

    K_cr(u, u)  ~ sqrt(u)/(sqrt(2) pi) + t/pi + s/(sqrt(2) pi sqrt(u))
    K_tac(u, u) ~ r sqrt(u)/pi - s/(pi sqrt(u)) - Re e^{2 psi2(u)}/(4 pi u)

with Re e^{2 psi2(u)} = cos(2((2/3) u^{3/2} - 2 s u^{1/2})) at r = 1 on
the +-side boundary of the positive real axis.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .dscale import double_scaling_gap
from .errors import DomainRestriction, _finite
from .piisolver import PiiSolver, get_pii_solver
from .rhsolver import RhSolver, get_solver

__all__ = [
    "get_solver",
    "get_pii_solver",
    "kernel_cr",
    "kernel_cr_diag",
    "kernel_tac",
    "kernel_tac_diag",
    "kernel_pii",
    "kernel_pii_diag",
    "cr_diag_asym",
    "tac_diag_asym",
    "double_scaling_gap",
]

_COINCIDE_EPS = 1e-6     # relative |u - v| treated as the diagonal


# -- pairs and the bilinear form --------------------------------------------


def _coincide(u, v, c: float):
    """(a, b, shape): u and v broadcast and flat, coincident pairs at (m, m).

    |c u - c v| <= _COINCIDE_EPS max(1, |c u|) makes a pair coincident;
    m = (u + v)/2, and equal arguments take the derivative limit.
    """
    u, v = np.broadcast_arrays(np.asarray(u, dtype=float),
                               np.asarray(v, dtype=float))
    same = np.abs(c * u - c * v) <= _COINCIDE_EPS * np.maximum(1.0, np.abs(c * u))
    m = 0.5 * (u + v)
    return np.where(same, m, u).ravel(), np.where(same, m, v).ravel(), u.shape


def _form(solver, balanced, a, b, dz: complex, row, col) -> np.ndarray:
    """row M(a)^{-1} M(b) col / (2 pi i (a - b)), M at dz*a, dz*b, per pair.

    a and b are 1-D arrays of pairs; balanced(points) gives the balanced
    factors (Mhat, logs) of M at sorted points, here the distinct ones of
    a and b.  Where a == b the value is the derivative limit
    -row M^{-1} (dz L(dz a)) M col / (2 pi i), from dM/dzeta = L M and
    row . col = 0.  Only the entries on the columns that row and col
    select are formed, so exponent differences of unused columns never
    enter.
    """
    points = np.sort(np.concatenate([a, b]))
    points = points[np.diff(points, prepend=-np.inf) > 0.0]      # drop repeats
    Mhat, logs = balanced(points)
    ia, ib = np.searchsorted(points, a), np.searchsorted(points, b)
    Ma, la, Mb, lb = Mhat[ia], logs[ia], Mhat[ib], logs[ib]
    same = a == b
    Z = np.empty_like(Ma)
    if not same.all():
        Z[~same] = np.linalg.solve(Ma[~same], Mb[~same])
    if same.any():
        Md = Ma[same]
        Z[same] = -np.linalg.solve(Md, dz * solver.lax(dz * a[same]) @ Md)
    i = np.flatnonzero((row != 0.0) | (col != 0.0))
    scale = np.exp(lb[:, None, i] - la[:, i, None])
    num = row[i] @ (Z[:, i[:, None], i] * scale) @ col[i]
    return num / np.where(same, 2.0j * math.pi, 2.0j * math.pi * (a - b))


# -- K_cr ------------------------------------------------------------------

_CR_ROW = np.array([-1.0, 1.0, 0.0, 0.0])
_CR_COL = np.array([1.0, 1.0, 0.0, 0.0])


def _stacked(solver, data: dict, points) -> tuple:
    """(Mhat, logs) arrays of `m_balanced` data at the points, in order."""
    d = solver.dim
    return (np.array([data[u][0] for u in points]).reshape(-1, d, d),
            np.array([data[u][1] for u in points]).reshape(-1, d))


def _signed_data(solver, axes: tuple, points) -> tuple:
    """Column-balanced M at sorted points x: (Mhat, logs).

    x >= 0 reads the first axis of `axes` at x, x < 0 the second at -x.
    """
    pos, neg = points[points >= 0], points[points < 0]
    out = {}
    if pos.size:
        out.update(solver.m_balanced(pos, axes[0]))
    if neg.size:
        out.update({-u: d for u, d in solver.m_balanced(-neg, axes[1]).items()})
    return _stacked(solver, out, points)


def kernel_cr(u, v, s: float, t: float, solver: RhSolver | None = None):
    """The critical kernel K_cr(u, v; s, t).

    u and v are scalars or broadcastable arrays; the result has their
    broadcast shape, a complex for scalars.  Coincident arguments take
    the derivative limit at their midpoint.  Every entry, u = 0
    included, is the one bilinear form `_form`.
    """
    _finite(u=u, v=v, s=s, t=t)
    if solver is None:
        solver = get_solver(s, t)
    a, b, shape = _coincide(u, v, 1.0)
    data = functools.partial(_signed_data, solver, ("imag+", "imag-"))
    K = _form(solver, data, a, b, 1j, _CR_ROW, _CR_COL)
    return complex(K[0]) if shape == () else K.reshape(shape)


def kernel_cr_diag(u, s: float, t: float, solver: RhSolver | None = None):
    """Diagonal K_cr(u, u; s, t); u may be a scalar or an array."""
    return kernel_cr(u, u, s, t, solver)


def cr_diag_asym(u, s: float, t: float):
    """Leading diagonal expansion sqrt(u)/(sqrt2 pi) + t/pi + s/(sqrt2 pi sqrt u)."""
    u = np.asarray(u, dtype=float)
    return (np.sqrt(u) / (math.sqrt(2.0) * math.pi) + t / math.pi
            + s / (math.sqrt(2.0) * math.pi * np.sqrt(u)))


# -- K_tac -----------------------------------------------------------------

_TAC_ROW = np.array([-1.0, 0.0, 1.0, 0.0])
_TAC_COL = np.array([1.0, 0.0, 1.0, 0.0])


def kernel_tac(u, v, r: float, s: float, solver: RhSolver | None = None):
    """The tacnode kernel K_tac(u, v; r, s) for u, v > 0 (t = 0).

    u and v are scalars or broadcastable arrays, as for `kernel_cr`.
    General r > 0 maps to the r = 1 solver by zeta -> r^{2/3} zeta:
    M_{r,s}(zeta) equals a constant left factor times M_{1, s r^{-1/3}}
    (r^{2/3} zeta), so K_tac(u, v; r, s) = r^{2/3} K_tac(r^{2/3}u,
    r^{2/3}v; 1, s r^{-1/3}).
    """
    _finite(u=u, v=v, r=r, s=s)
    if np.any(np.minimum(u, v) <= 0.0):
        raise DomainRestriction("kernel_tac requires u, v > 0")
    if r <= 0.0:
        raise DomainRestriction("tacnode parameter r must be positive")
    c = r ** (2.0 / 3.0)
    if solver is None:
        solver = get_solver(s * r ** (-1.0 / 3.0), 0.0)
    a, b, shape = _coincide(u, v, c)
    K = -c * _form(solver,
                   lambda p: _stacked(solver, solver.m_balanced(p, "real+"), p),
                   c * b, c * a, 1.0, _TAC_ROW, _TAC_COL)
    return complex(K[0]) if shape == () else K.reshape(shape)


def kernel_tac_diag(u, r: float, s: float, solver: RhSolver | None = None):
    """Diagonal K_tac(u, u; r, s) for u > 0; u scalar or array."""
    return kernel_tac(u, u, r, s, solver)


# -- K_PII -----------------------------------------------------------------

_PII_ROW = np.array([1.0, -1.0])
_PII_COL = np.array([1.0, 1.0])


def kernel_pii(x, y, nu, solver: PiiSolver | None = None):
    """The Painleve II kernel K_PII(x, y; nu) on the real line.

    x and y are scalars or broadcastable arrays, as for `kernel_cr`.
    The bilinear form (1,-1) Psi(x)^{-1} Psi(y) (1,1)^T / (2 pi i (x - y))
    carries the inverse at the first argument: the convention under which
    the diagonal is a nonnegative density and the double-scaling gap to
    K_cr closes.
    """
    _finite(x=x, y=y, nu=nu)
    if solver is None:
        solver = get_pii_solver(nu)
    a, b, shape = _coincide(x, y, 1.0)
    data = functools.partial(_signed_data, solver, ("real+", "real-"))
    K = _form(solver, data, a, b, 1.0, _PII_ROW, _PII_COL)
    return complex(K[0]) if shape == () else K.reshape(shape)


def kernel_pii_diag(x, nu, solver: PiiSolver | None = None):
    """Diagonal K_PII(x, x; nu) via the derivative limit."""
    return kernel_pii(x, x, nu, solver)


def tac_diag_asym(u, r: float, s: float, oscillation: bool = True):
    """Diagonal expansion r sqrt(u)/pi - s/(pi sqrt u) [- Re e^{2 psi2}/(4 pi u)].

    The oscillatory 1/u term uses the +-side boundary value psi2_+(u) =
    i((2/3) r u^{3/2} - 2 s u^{1/2}), so Re e^{2 psi2} =
    cos(2((2/3) r u^{3/2} - 2 s sqrt(u))).
    """
    u = np.asarray(u, dtype=float)
    base = r * np.sqrt(u) / math.pi - s / (math.pi * np.sqrt(u))
    if oscillation:
        phase = 2.0 * ((2.0 / 3.0) * r * u ** 1.5 - 2.0 * s * np.sqrt(u))
        base = base - np.cos(phase) / (4.0 * math.pi * u)
    return base

