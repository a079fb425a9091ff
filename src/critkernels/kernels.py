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
                 Painleve II RH solution Psi on the real line.

Since row . col = 0, the diagonal is the derivative limit through the
Lax equation: K(a, a) = -row M^{-1} (dz L(dz a)) M col^T / (2 pi i).

Numerically the forms are assembled from the column-balanced
factorization M = Mhat diag(e^{l_j}) provided by the solver: the entries
of Mhat_a^{-1} Mhat_b that the row and column select are combined with
explicit exponent differences e^{l_j - l_i}, which keeps every
intermediate inside floating-point range and the matrix inverse
well-conditioned.

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

from . import painleve
from .dscale import double_scaling_gap
from .errors import DomainRestriction
from .piisolver import PiiSolver, get_pii_solver
from .rhsolver import RhSolver
from .sectoral import balance_columns

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

_ORIGIN_EPS = 1e-3       # |u| below which the kernel is extrapolated
_COINCIDE_EPS = 1e-6     # relative |u - v| treated as the diagonal
# sample abscissae of the quadratic extrapolation through 0
_ORIGIN_NODES = tuple(k * _ORIGIN_EPS for k in (-3.0, -2.0, 2.0, 3.0))


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


def _finite(**args) -> None:
    """Raise ValueError naming the first argument that is not finite."""
    for name, value in args.items():
        if not np.all(np.isfinite(value)):
            raise ValueError(f"{name} must be finite, got {value!r}")


def _form(solver, data, a: float, b: float, dz: complex,
          row, col, idx) -> complex:
    """row M(a)^{-1} M(b) col / (2 pi i (a - b)) with M evaluated at dz*a, dz*b.

    data maps a point to the balanced factors (Mhat, logs) of M there.
    At a == b the value is the derivative limit
    -row M^{-1} (dz L(dz a)) M col / (2 pi i), from dM/dzeta = L M and
    row . col = 0.  Only the idx x idx entries are formed, so exponent
    differences of unused columns never enter.
    """
    Ma, la = data[a]
    Mb, lb = data[b]
    if a == b:
        Z = -np.linalg.solve(Ma, dz * solver.lax(dz * a) @ Ma)
        denom = 2.0j * math.pi
    else:
        Z = np.linalg.solve(Ma, Mb)
        denom = 2.0j * math.pi * (a - b)
    i = np.asarray(idx)
    scale = np.exp(lb[i][None, :] - la[i][:, None])
    return complex(row[i] @ (Z[np.ix_(i, i)] * scale) @ col[i] / denom)


# -- K_cr ------------------------------------------------------------------

_CR_ROW = np.array([-1.0, 1.0, 0.0, 0.0])
_CR_COL = np.array([1.0, 1.0, 0.0, 0.0])
_CR_IDX = (0, 1)


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
    _finite(u=u, v=v, s=s, t=t)
    u, v = float(u), float(v)
    if solver is None:
        solver = get_solver(s, t)
    if abs(u - v) <= _COINCIDE_EPS * max(1.0, abs(u)):
        return kernel_cr_diag(0.5 * (u + v), s, t, solver)
    if abs(u) < _ORIGIN_EPS:
        ys = [kernel_cr(x, v, s, t, solver) for x in _ORIGIN_NODES]
        return _quadratic_through(_ORIGIN_NODES, ys, u)
    if abs(v) < _ORIGIN_EPS:
        ys = [kernel_cr(u, x, s, t, solver) for x in _ORIGIN_NODES]
        return _quadratic_through(_ORIGIN_NODES, ys, v)
    data = _signed_data(solver, (u, v))
    return _form(solver, data, u, v, 1j, _CR_ROW, _CR_COL, _CR_IDX)


def kernel_cr_diag(u, s: float, t: float,
                   solver: RhSolver | None = None):
    """Diagonal K_cr(u, u; s, t); u may be a scalar or an array."""
    _finite(u=u, s=s, t=t)
    if solver is None:
        solver = get_solver(s, t)
    us = np.atleast_1d(np.asarray(u, dtype=float))
    small = np.abs(us) < _ORIGIN_EPS
    data = _signed_data(solver, us[~small])
    if small.any():
        node_data = _signed_data(solver, _ORIGIN_NODES)
        ys = [_form(solver, node_data, x, x, 1j, _CR_ROW, _CR_COL, _CR_IDX)
              for x in _ORIGIN_NODES]
    out = np.empty(us.shape, dtype=complex)
    for idx, uu in np.ndenumerate(us):
        uu = float(uu)
        out[idx] = (_quadratic_through(_ORIGIN_NODES, ys, uu) if small[idx] else
                    _form(solver, data, uu, uu, 1j, _CR_ROW, _CR_COL, _CR_IDX))
    return complex(out[0]) if np.isscalar(u) or np.ndim(u) == 0 else out


def cr_diag_asym(u, s: float, t: float):
    """Leading diagonal expansion sqrt(u)/(sqrt2 pi) + t/pi + s/(sqrt2 pi sqrt u)."""
    u = np.asarray(u, dtype=float)
    return (np.sqrt(u) / (math.sqrt(2.0) * math.pi) + t / math.pi
            + s / (math.sqrt(2.0) * math.pi * np.sqrt(u)))


# -- K_tac -----------------------------------------------------------------

_TAC_ROW = np.array([-1.0, 0.0, 1.0, 0.0])
_TAC_COL = np.array([1.0, 0.0, 1.0, 0.0])
_TAC_IDX = (0, 2)

# Where the real-axis M_+ switches from outward transport to the series
# frame.  At r = 1, s = 0.3 the two K_tac diagonals differ by 3.6e-7 here;
# each side's error is below 1e-6 (the series against an order-20
# series, the transport against the same), and the transport error then
# grows like e^{2 psi(u)}: 1.4e-6 at u = 7, 1.6e-3 at u = 9.
_REAL_SWITCH = 6.5


def _m_real(solver: RhSolver, us) -> dict:
    """Column-balanced M_+(u) on the positive real axis: u -> (Mhat, logs).

    On this axis two columns are neutral (unimodular exponents), one
    recessive and one dominant.  Neither a single outward integration
    (roundoff of the dominant mode swamps the neutral columns once
    e^{psi(u)} exceeds ~1e6) nor inward integration from large radius
    (the inward-growing recessive mode contaminates them) works for all
    u, so M is transported outward from M(0) = C_0 for u below
    `_REAL_SWITCH` and taken directly from the asymptotic series beyond,
    where its truncation error is below the kernel tolerances.
    """
    us = sorted({float(u) for u in us})
    if us and us[0] <= 0.0:
        raise DomainRestriction("real-axis evaluation requires u > 0")
    out = {}
    small = [u for u in us if u < _REAL_SWITCH]
    if small:
        P, logs = solver.sweep(1.0, 0, (0, 1, 2, 3), 0.0).at(small)
        out.update(zip(small, zip(P, logs)))
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
    _finite(u=u, v=v, r=r, s=s)
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
    return -c * _form(solver, data, v1, u1, 1.0, _TAC_ROW, _TAC_COL, _TAC_IDX)


def kernel_tac_diag(u, r: float, s: float,
                    solver: RhSolver | None = None):
    """Diagonal K_tac(u, u; r, s) for u > 0; u scalar or array."""
    _finite(u=u, r=r, s=s)
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
        out[idx] = -c * _form(solver, data, float(uu), float(uu), 1.0,
                              _TAC_ROW, _TAC_COL, _TAC_IDX)
    return complex(out[0]) if np.isscalar(u) or np.ndim(u) == 0 else out


# -- K_PII -----------------------------------------------------------------

_PII_ROW = np.array([1.0, -1.0])
_PII_COL = np.array([1.0, 1.0])
_PII_IDX = (0, 1)


def kernel_pii(x: float, y: float, nu,
               solver: PiiSolver | None = None) -> complex:
    """The Painleve II kernel K_PII(x, y; nu) on the real line.

    The bilinear form (1,-1) Psi(x)^{-1} Psi(y) (1,1)^T / (2 pi i (x - y))
    carries the inverse at the first argument: the convention under which
    the diagonal is a nonnegative density and the double-scaling gap to
    K_cr closes.
    """
    _finite(x=x, y=y, nu=nu)
    x, y = float(x), float(y)
    if solver is None:
        solver = get_pii_solver(complex(nu))
    if abs(x - y) <= _COINCIDE_EPS * max(1.0, abs(x)):
        return kernel_pii_diag(0.5 * (x + y), nu, solver)
    psi = solver.psi(np.array([x, y]))
    data = {x: (psi[0], np.zeros(2)), y: (psi[1], np.zeros(2))}
    return _form(solver, data, x, y, 1.0, _PII_ROW, _PII_COL, _PII_IDX)


def kernel_pii_diag(x: float, nu, solver: PiiSolver | None = None) -> complex:
    """Diagonal K_PII(x, x; nu) via the derivative limit."""
    _finite(x=x, nu=nu)
    x = float(x)
    if solver is None:
        solver = get_pii_solver(complex(nu))
    data = {x: (solver.psi(x), np.zeros(2))}
    return _form(solver, data, x, x, 1.0, _PII_ROW, _PII_COL, _PII_IDX)


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

