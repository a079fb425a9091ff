"""The limiting kernels K_cr and K_tac of the critical two-matrix model.

Both kernels are bilinear forms in boundary values of the model 4x4
Riemann-Hilbert solution M:

    K_cr(u, v)  = (1/(2 pi i (u-v))) (-1,1,0,0) M(iu)^{-1} M(iv) (1,1,0,0)^T
    K_tac(u, v) = (1/(2 pi i (u-v))) (-1,0,1,0) M_+(v)^{-1} M_+(u) (1,0,1,0)^T

with M evaluated on the imaginary axis (K_cr; sector 2 for u > 0, sector
7 for u < 0) or as the boundary value from above on the positive real
axis (K_tac, at t = 0).  Diagonal values use the derivative limit with
dM/dzeta = U M from the Lax equation.

Numerically the bilinear forms are assembled from the column-balanced
factorization M = Mhat diag(e^{l_j}) provided by the solver: the entries
of Mhat^{-1} X Mhat are combined with explicit exponent differences
e^{l_j - l_i}, which keeps every intermediate inside floating-point
range and the matrix inverse well-conditioned.

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

from . import laxpair, painleve
from .errors import DomainRestriction
from .piisolver import PiiSolver, get_pii_solver
from .rhsolver import RhSolver, balance_columns

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
]

_ORIGIN_EPS = 1e-3       # |u| below which the kernel is extrapolated
_COINCIDE_EPS = 1e-6     # relative |u - v| treated as the diagonal


@functools.lru_cache(maxsize=8)
def get_solver(s: float, t: float, r0: float = 14.0,
               order: int = 16) -> RhSolver:
    """Cached model-RH solver at deformation parameters (s, t)."""
    return RhSolver(s, t, r0=r0, series_order=order,
                    hm=painleve.default_solution())


# -- balanced evaluation helpers ------------------------------------------


def _signed_data(solver: RhSolver, values) -> dict:
    """Column-balanced M(iu) for signed nonzero u: u -> (Mhat, logs)."""
    pos = sorted({float(u) for u in values if u > 0})
    neg = sorted({-float(u) for u in values if u < 0})
    out = {}
    if pos:
        out.update(solver.m_balanced(pos, "imag+"))
    if neg:
        out.update({-u: d for u, d in solver.m_balanced(neg, "imag-").items()})
    return out


def _pair_form(data_u, data_v, row, col, rows, cols) -> complex:
    """sum_{ij} row_i [M_u^{-1} M_v]_{ij} col_j via balanced factors."""
    Mu, lu = data_u
    Mv, lv = data_v
    Z = np.linalg.solve(Mu, Mv)
    total = 0.0 + 0.0j
    for i in rows:
        for j in cols:
            total += row[i] * Z[i, j] * col[j] * math.exp(lv[j] - lu[i])
    return total


def _diag_form(data, U, row, col, rows, cols) -> complex:
    """sum_{ij} row_i [M^{-1} U M]_{ij} col_j via balanced factors."""
    Mh, lg = data
    Y = np.linalg.solve(Mh, U @ Mh)
    total = 0.0 + 0.0j
    for i in rows:
        for j in cols:
            total += row[i] * Y[i, j] * col[j] * math.exp(lg[j] - lg[i])
    return total


# -- K_cr ------------------------------------------------------------------

_CR_ROW = (-1.0, 1.0, 0.0, 0.0)
_CR_ROW_DIAG = (1.0, -1.0, 0.0, 0.0)
_CR_COL = (1.0, 1.0, 0.0, 0.0)
_CR_IDX = (0, 1)


def _cr_pair(solver: RhSolver, u: float, v: float, data: dict) -> complex:
    num = _pair_form(data[u], data[v], _CR_ROW, _CR_COL, _CR_IDX, _CR_IDX)
    return num / (2.0j * math.pi * (u - v))


def _cr_diag(solver: RhSolver, u: float, data: dict) -> complex:
    U, _ = laxpair.lax_matrices(1j * u, solver.co)
    val = _diag_form(data[u], U, _CR_ROW_DIAG, _CR_COL, _CR_IDX, _CR_IDX)
    return val / (2.0 * math.pi)


def _origin_nodes(x: float):
    """Sample abscissae for the quadratic extrapolation through 0."""
    h = _ORIGIN_EPS
    return [-3.0 * h, -2.0 * h, 2.0 * h, 3.0 * h]


def _quadratic_through(xs, ys, x: float) -> complex:
    V = np.array([[1.0, xx, xx * xx] for xx in xs])
    coef, *_ = np.linalg.lstsq(V, np.asarray(ys, dtype=complex), rcond=None)
    return complex(coef[0] + coef[1] * x + coef[2] * x * x)


def kernel_cr(u: float, v: float, s: float, t: float,
              solver: RhSolver | None = None) -> complex:
    """The critical kernel K_cr(u, v; s, t).

    Arguments within 1e-3 of the origin are handled by quadratic
    extrapolation from outside (the kernel is analytic at 0 but the RH
    evaluation degrades there); coincident arguments fall through to
    `kernel_cr_diag`.
    """
    u, v = float(u), float(v)
    if solver is None:
        solver = get_solver(s, t)
    if abs(u - v) <= _COINCIDE_EPS * max(1.0, abs(u)):
        return kernel_cr_diag(0.5 * (u + v), s, t, solver)
    if abs(u) < _ORIGIN_EPS:
        xs = _origin_nodes(u)
        ys = [kernel_cr(x, v, s, t, solver) for x in xs]
        return _quadratic_through(xs, ys, u)
    if abs(v) < _ORIGIN_EPS:
        xs = _origin_nodes(v)
        ys = [kernel_cr(u, x, s, t, solver) for x in xs]
        return _quadratic_through(xs, ys, v)
    data = _signed_data(solver, (u, v))
    return _cr_pair(solver, u, v, data)


def kernel_cr_diag(u, s: float, t: float,
                   solver: RhSolver | None = None):
    """Diagonal K_cr(u, u; s, t); u may be a scalar or an array."""
    if solver is None:
        solver = get_solver(s, t)
    us = np.atleast_1d(np.asarray(u, dtype=float))
    out = np.empty(us.shape, dtype=complex)
    small = np.abs(us) < _ORIGIN_EPS
    regular = sorted(set(us[~small]))
    data = _signed_data(solver, regular) if regular else {}
    for idx, uu in np.ndenumerate(us):
        if not small[idx]:
            out[idx] = _cr_diag(solver, float(uu), data)
    if np.any(small):
        xs = _origin_nodes(0.0)
        node_data = _signed_data(solver, xs)
        ys = [_cr_diag(solver, x, node_data) for x in xs]
        for idx, uu in np.ndenumerate(us):
            if small[idx]:
                out[idx] = _quadratic_through(xs, ys, float(uu))
    return complex(out[0]) if np.isscalar(u) or np.ndim(u) == 0 else out


def cr_diag_asym(u, s: float, t: float):
    """Leading diagonal expansion sqrt(u)/(sqrt2 pi) + t/pi + s/(sqrt2 pi sqrt u)."""
    u = np.asarray(u, dtype=float)
    return (np.sqrt(u) / (math.sqrt(2.0) * math.pi) + t / math.pi
            + s / (math.sqrt(2.0) * math.pi * np.sqrt(u)))


# -- K_tac -----------------------------------------------------------------

_TAC_ROW = (-1.0, 0.0, 1.0, 0.0)
_TAC_COL = (1.0, 0.0, 1.0, 0.0)
_TAC_IDX = (0, 2)

_REAL_SWITCH = 9.0


def _m_real(solver: RhSolver, us) -> dict:
    """Column-balanced M_+(u) on the positive real axis: u -> (Mhat, logs).

    On this axis two columns are neutral (unimodular exponents), one
    recessive and one dominant.  Neither a single outward integration
    (roundoff of the dominant mode swamps the neutral columns once
    e^{psi(u)} exceeds ~1e6) nor inward integration from large radius
    (the inward-growing recessive mode contaminates them) works for all
    u, so M is taken from the outward fundamental solution for
    u < 9 and directly from the asymptotic series beyond, where its
    truncation error is below the kernel tolerances.
    """
    us = sorted({float(u) for u in us})
    if us and us[0] <= 0.0:
        raise DomainRestriction("real-axis evaluation requires u > 0")
    out = {}
    small = [u for u in us if u < _REAL_SWITCH]
    if small:
        phis = solver._phi_along(1.0 + 0.0j, small)
        for u, (P, g) in zip(small, phis):
            out[u] = balance_columns(P @ solver.C[0], g)
    for u in us:
        if u >= _REAL_SWITCH:
            out[u] = balance_columns(*solver.fs["+"].frame_scaled(u + 0.0j))
    return out


def _tac_reduce(u, v, r: float):
    """Map general r > 0 to the r = 1 solver: zeta -> r^{2/3} zeta.

    M_{r,s}(zeta) equals a constant left factor times M_{1, s r^{-1/3}}
    (r^{2/3} zeta), so K_tac(u, v; r, s) = r^{2/3} K_tac(r^{2/3}u,
    r^{2/3}v; 1, s r^{-1/3}).
    """
    if r <= 0.0:
        raise DomainRestriction("tacnode parameter r must be positive")
    c = r ** (2.0 / 3.0)
    return c * u, c * v, c


def kernel_tac(u: float, v: float, r: float, s: float,
               solver: RhSolver | None = None) -> complex:
    """The tacnode kernel K_tac(u, v; r, s) for u, v > 0 (t = 0)."""
    u, v = float(u), float(v)
    if u <= 0.0 or v <= 0.0:
        raise DomainRestriction("kernel_tac requires u, v > 0")
    u1, v1, c = _tac_reduce(u, v, r)
    s1 = s * r ** (-1.0 / 3.0)
    if solver is None:
        solver = get_solver(s1, 0.0)
    if abs(u1 - v1) <= _COINCIDE_EPS * max(1.0, abs(u1)):
        return kernel_tac_diag(0.5 * (u + v), r, s, solver)
    data = _m_real(solver, [u1, v1])
    num = _pair_form(data[v1], data[u1], _TAC_ROW, _TAC_COL, _TAC_IDX, _TAC_IDX)
    return c * num / (2.0j * math.pi * (u1 - v1))


def kernel_tac_diag(u, r: float, s: float,
                    solver: RhSolver | None = None):
    """Diagonal K_tac(u, u; r, s) for u > 0; u scalar or array."""
    us = np.atleast_1d(np.asarray(u, dtype=float))
    if np.any(us <= 0.0):
        raise DomainRestriction("kernel_tac requires u > 0")
    u1, _, c = _tac_reduce(us, us, r)
    s1 = s * r ** (-1.0 / 3.0)
    if solver is None:
        solver = get_solver(s1, 0.0)
    data = _m_real(solver, u1.tolist())
    out = np.empty(us.shape, dtype=complex)
    for idx, uu in np.ndenumerate(u1):
        U, _ = laxpair.lax_matrices(complex(uu), solver.co)
        val = _diag_form(data[float(uu)], U, _TAC_ROW, _TAC_COL,
                         _TAC_IDX, _TAC_IDX)
        out[idx] = c * val / (2.0j * math.pi)
    return complex(out[0]) if np.isscalar(u) or np.ndim(u) == 0 else out


# -- K_PII -----------------------------------------------------------------

_PII_ROW = np.array([1.0, -1.0])
_PII_COL = np.array([1.0, 1.0])


def kernel_pii(x: float, y: float, nu,
               solver: PiiSolver | None = None) -> complex:
    """The Painleve II kernel K_PII(x, y; nu) on the real line.

    The bilinear form (1,-1) Psi(x)^{-1} Psi(y) (1,1)^T / (2 pi i (x - y))
    carries the inverse at the first argument: the convention under which
    the diagonal is a nonnegative density and the double-scaling gap to
    K_cr closes.
    """
    x, y = float(x), float(y)
    if solver is None:
        solver = get_pii_solver(complex(nu))
    if abs(x - y) <= _COINCIDE_EPS * max(1.0, abs(x)):
        return kernel_pii_diag(0.5 * (x + y), nu, solver)
    num = _PII_ROW @ np.linalg.solve(solver.psi(x), solver.psi(y)) @ _PII_COL
    return complex(num / (2.0j * math.pi * (x - y)))


def kernel_pii_diag(x: float, nu, solver: PiiSolver | None = None) -> complex:
    """Diagonal K_PII(x, x; nu) via the derivative limit."""
    x = float(x)
    if solver is None:
        solver = get_pii_solver(complex(nu))
    P = solver.psi(x)
    val = _PII_ROW @ np.linalg.solve(P, solver.lax(x) @ P) @ _PII_COL
    return complex(-val / (2.0j * math.pi))


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


from .dscale import double_scaling_gap  # noqa: E402  (re-export)

__all__.append("double_scaling_gap")
