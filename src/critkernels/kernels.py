"""The limiting kernels K_cr, K_tac and K_PII as one bilinear form.

Each kernel is the same form in a matrix solution M of a Lax equation
dM/dzeta = L M, evaluated along the line zeta = dz * x:

    K(a, b) = row M(dz a)^{-1} M(dz b) col^T / (2 pi i (a - b))

  K_cr(u, v)   = K(u, v), dz = i, row (-1,1,0,0), col (1,1,0,0), with M
                 the model 4x4 RH solution on the imaginary axis (sector 2
                 for u >= 0, its mirror in sector 7 for u < 0);
  K_tac(u, v)  = -K(v, u), dz = 1, row (-1,0,1,0), col (1,0,1,0), with M
                 the boundary value M_+ from above on the positive real
                 axis at t = 0.  The arguments are swapped: the inverse
                 sits at the second argument,
                 K_tac(u, v) = row M_+(v)^{-1} M_+(u) col^T / (2 pi i (u - v));
  K_PII(x, y)  = K(x, y), dz = 1, row (1,-1), col (1,1), with M the
                 Painleve II RH solution Psi on the real line (sector 3
                 for x >= 0, its mirror in sector 1 for x < 0).
All three are `sectoral.kernel_form`, whose diagonal is the derivative
limit through the Lax matrix, reading M from the solver's `m_balanced`
(recorded sweeps) on a line of its `_LINES`, so an entry whose points
the sweeps have passed takes no Taylor step.

Numerically the forms are assembled from the column-balanced
factorization M = Mhat diag(e^{l_j}) provided by the solver: the entries
of Mhat_a^{-1} Mhat_b that the row and column select are combined with
explicit exponent differences e^{l_j - l_i}, which keeps every
intermediate inside floating-point range and the matrix inverse
well-conditioned.

The kernels take broadcastable arrays of points, so a matrix is one call,
kernel_cr(x[:, None], x, s, t): M is balanced once for the distinct
points and `kernel_form` treats all pairs in one batched solve.  An entry
equals its own 1x1 call; `kernel_*_diag(u)` is `kernel_*(u, u)`.

The module also provides the closed-form large-u diagonal comparators:

    K_cr(u, u)  ~ sqrt(u)/(sqrt(2) pi) + t/pi + s/(sqrt(2) pi sqrt(u))
    K_tac(u, u) ~ r sqrt(u)/pi - s/(pi sqrt(u)) - Re e^{2 psi2(u)}/(4 pi u)

with Re e^{2 psi2(u)} = cos(2((2/3) u^{3/2} - 2 s u^{1/2})) at r = 1 on
the +-side boundary of the positive real axis.
"""

from __future__ import annotations

import math

import numpy as np

from .dscale import double_scaling_gap
from .errors import DomainRestriction, _finite
from .piisolver import PII_COL, PII_ROW, PiiSolver, get_pii_solver
from .rhsolver import CR_COL, CR_ROW, RhSolver, get_solver
from .sectoral import kernel_form

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


# -- K_cr ------------------------------------------------------------------


def kernel_cr(u, v, s: float, t: float, solver: RhSolver | None = None):
    """The critical kernel K_cr(u, v; s, t).

    u and v are scalars or broadcastable arrays; the result has their
    broadcast shape, a complex for scalars.  Coincident arguments take
    the derivative limit at their midpoint.  Every entry, u = 0
    included, is the one bilinear form `kernel_form`.
    """
    _finite(u=u, v=v, s=s, t=t)
    if solver is None:
        solver = get_solver(s, t)
    return kernel_form(solver, "imag", u, v, 1j, CR_ROW, CR_COL)


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
    return -c * kernel_form(solver, "real+", np.multiply(c, v), np.multiply(c, u),
                            1.0, _TAC_ROW, _TAC_COL)


def kernel_tac_diag(u, r: float, s: float, solver: RhSolver | None = None):
    """Diagonal K_tac(u, u; r, s) for u > 0; u scalar or array."""
    return kernel_tac(u, u, r, s, solver)


# -- K_PII -----------------------------------------------------------------

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
    return kernel_form(solver, "real", x, y, 1.0, PII_ROW, PII_COL)


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

