"""Numerical solution of the model 4x4 Riemann-Hilbert problem.

M(zeta) is analytic off ten rays from the origin (at angles 0, +-pi/6,
+-pi/3, +-2pi/3, +-5pi/6, pi), satisfies M_+ = M_- J_k across each ray
with the explicit unimodular jump matrices below, and behaves like
(I + O(1/zeta)) B(zeta) A E(zeta) at infinity.  The Lax matrix is
U = U0 + U1 zeta from `laxpair`, and the series frame F is the '+' one
of `series` in sectors 0-4 and its mirror D conj(F(conj zeta)) D
(`MIRROR`) in sectors 5-9.  The sector constants are found by the
shared engine of `sectoral`.

The engine's `m_balanced` reads column-balanced M along the `_LINES`
below: the imaginary line (K_cr, row `CR_ROW` and column `CR_COL`) and
the positive real axis (K_tac).  `hm_extract` recovers the
Hastings-McLeod value from the 1/zeta coefficient of M.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from . import laxpair, series
from .sectoral import SectoralSolver

__all__ = ["RAY_ANGLES", "JUMPS", "CR_ROW", "CR_COL", "RhSolver", "get_solver"]

_PHI1 = math.pi / 6.0
_PHI2 = math.pi / 3.0
# Where M_+ on the positive real axis switches from outward transport of
# all four columns (two are neutral there, one recessive, one dominant,
# so no inward leg is stable) to the series frame.  At r = 1, s = 0.3 the
# two K_tac diagonals differ by 3.6e-7 here; each side's error is below
# 1e-6 (the series against an order-20 series, the transport against the
# same), and the transport error then grows like e^{2 psi(u)}: 1.4e-6 at
# u = 7, 1.6e-3 at u = 9.
_REAL_SWITCH = 6.5

# rays oriented outward; listed counterclockwise starting at the positive
# real axis.  Ray k separates sector k-1 (minus side) from sector k (plus
# side); sector k spans (RAY_ANGLES[k], RAY_ANGLES[k+1]).
RAY_ANGLES = (
    0.0,
    _PHI1,
    _PHI2,
    math.pi - _PHI2,
    math.pi - _PHI1,
    math.pi,
    math.pi + _PHI1,
    math.pi + _PHI2,
    2.0 * math.pi - _PHI2,
    2.0 * math.pi - _PHI1,
)

_J = {}
_J[0] = [[0, 0, 1, 0], [0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 1]]
_J[1] = [[1, 0, 0, 0], [0, 1, 0, 0], [1, 0, 1, 0], [0, 0, 0, 1]]
_J[2] = [[1, 0, 0, 0], [-1, 1, 0, 0], [0, 0, 1, 1], [0, 0, 0, 1]]
_J[3] = [[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, -1, 1]]
_J[4] = [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, -1, 0, 1]]
_J[5] = [[1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0], [0, 1, 0, 0]]
_J[6] = _J[4]
_J[7] = [[1, -1, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 1, 1]]
_J[8] = [[1, 0, 0, 0], [1, 1, 0, 0], [0, 0, 1, -1], [0, 0, 0, 1]]
_J[9] = _J[1]

JUMPS = tuple(np.array(_J[k], dtype=complex) for k in range(10))

# K_cr(u, v) = CR_ROW M(iu)^{-1} M(iv) CR_COL^T / (2 pi i (u - v))
CR_ROW = np.array([-1.0, 1.0, 0.0, 0.0])
CR_COL = np.array([1.0, 1.0, 0.0, 0.0])


class RhSolver(SectoralSolver):
    """Solver for the model RH problem at deformation parameters (s, t)."""

    RAYS = RAY_ANGLES
    JUMPS = JUMPS
    INNER = 0.75
    LOW_SECTOR = 0          # arg 0 lies on ray 0; take its plus side
    MIRROR = (1.0, np.diag([1.0, 1.0, -1.0, -1.0]).astype(complex))   # sector k <-> 9 - k

    def __init__(self, s: float, t: float, r0: float = 14.0,
                 series_order: int = 16):
        self.s = float(s)
        self.t = float(t)
        self.co = laxpair.lax_coefficients(s, t)
        self.fs = series.build_series(s, t, "+", order=series_order)
        self.lax_coeffs = (laxpair.lax_matrices(0.0, self.co)[0], laxpair.U1)
        super().__init__(r0)

    def _series_frame(self, zeta: complex, sector: int) -> tuple[np.ndarray, np.ndarray]:
        if sector <= 4:
            return self.fs.frame_scaled(zeta)
        F, g = self.fs.frame_scaled(zeta.conjugate())
        return self.MIRROR[1] @ F.conj() @ self.MIRROR[1], g

    # -- evaluation --------------------------------------------------------

    M = SectoralSolver.sectional

    def det_m(self, zeta: complex) -> complex:
        return complex(np.linalg.det(self.M(zeta)))

    # line name -> leg (direction, sector, outward columns, switch) for
    # x >= 0; x < 0 on "imag" is its mirror in sector 7 (see
    # `SectoralSolver.m_balanced`), and "real+" has no x < 0
    _LINES = {
        "imag": (1j, 2, (0, 1), None),
        "real+": (1.0, 0, (0, 1, 2, 3), _REAL_SWITCH),
    }

    def hm_extract(self, u_points=None) -> complex:
        """Fitted (N1)_{14} from zeta (P - I)_{14} on the imaginary axis.

        Equals i 2^{-1/3} q(2^{2/3}(2s - t^2)) for the Hastings-McLeod
        solution.  P = M E^{-1} A^{-1} B^{-1} is evaluated through
        `m_balanced` so that the exponentially small (1,4) entry is not
        lost to contamination, and the limit is taken by fitting a
        six-term 1/zeta expansion over the sample window.  Points at or
        beyond r0 read the series frame itself (5 of the 21 default ones
        at r0 = 14); a window below r0 reads transported M only.
        """
        if u_points is None:
            u_points = np.arange(6.0, 16.01, 0.5)
        rows = []
        rhs = []
        for u, Mhat, logs in zip(u_points, *self.m_balanced(u_points, "imag")):
            zeta = 1j * float(u)
            fr0 = laxpair.asymptotic_frame(zeta, self.s, self.t, "+")
            M = Mhat * np.exp(logs)
            f = zeta * (M @ np.linalg.inv(fr0) - np.eye(4))[0, 3]
            rows.append([zeta ** (-k) for k in range(6)])
            rhs.append(f)
        coef, *_ = np.linalg.lstsq(np.array(rows, dtype=complex),
                                   np.array(rhs, dtype=complex), rcond=None)
        return complex(coef[0])


_solvers = functools.lru_cache(maxsize=8)(RhSolver)


def get_solver(s: float, t: float, r0: float = 14.0) -> RhSolver:
    """Cached model-RH solver at (s, t), one per value of (s, t, r0)."""
    return _solvers(float(s), float(t), float(r0))


get_solver.cache_info = _solvers.cache_info     # hits and misses, as for lru_cache
