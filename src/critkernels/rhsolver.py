"""Numerical solution of the model 4x4 Riemann-Hilbert problem.

M(zeta) is analytic off ten rays from the origin (at angles 0, +-pi/6,
+-pi/3, +-2pi/3, +-5pi/6, pi), satisfies M_+ = M_- J_k across each ray
with the explicit unimodular jump matrices below, and behaves like
(I + O(1/zeta)) B(zeta) A E(zeta) at infinity.  The Lax matrix is
U = U0 + U1 zeta from `laxpair`, and the series frame of `series` uses
its '+' branch in sectors 0-4 and its '-' branch in sectors 5-9.  The
sector constants are found by the shared engine of `sectoral`.

On top of the engine, `m_balanced` gives M along an axis in
column-balanced form, transporting the recessive columns inward from
the series, and `hm_extract` recovers the Hastings-McLeod value from
the 1/zeta coefficient of M.
"""

from __future__ import annotations

import math

import numpy as np

from . import laxpair, series
from .sectoral import SectoralSolver

__all__ = ["RAY_ANGLES", "JUMPS", "RhSolver"]

_PHI1 = math.pi / 6.0
_PHI2 = math.pi / 3.0
_MARGIN = 1.5            # least distance from a point to its inward start R
_R_GRID = 2.0            # spacing of the inward starts beyond r0

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


class RhSolver(SectoralSolver):
    """Solver for the model RH problem at deformation parameters (s, t)."""

    RAYS = RAY_ANGLES
    JUMPS = JUMPS
    INNER = 0.75
    LOW_SECTOR = 0          # arg 0 lies on ray 0; take its plus side

    def __init__(self, s: float, t: float, r0: float = 12.0,
                 series_order: int = 14, hm=None):
        self.s = float(s)
        self.t = float(t)
        self.co = laxpair.lax_coefficients(s, t, hm)
        self.fs = {
            "+": series.build_series(s, t, "+", order=series_order, hm=hm),
            "-": series.build_series(s, t, "-", order=series_order, hm=hm),
        }
        self.lax_coeffs = (laxpair.lax_matrices(0.0, self.co)[0], laxpair.U1)
        super().__init__(r0)

    @staticmethod
    def variant_of(k: int) -> str:
        return "+" if k <= 4 else "-"

    def _series_frame(self, zeta: complex, sector: int) -> tuple[np.ndarray, np.ndarray]:
        return self.fs[self.variant_of(sector)].frame_scaled(zeta)

    # -- evaluation --------------------------------------------------------

    M = SectoralSolver.sectional

    def det_m(self, zeta: complex, sector: int | None = None) -> complex:
        return complex(np.linalg.det(self.M(zeta, sector)))

    # axis name -> (direction, sector, columns transported outward from
    # M(0) = C_sector; the remaining columns are exponentially recessive
    # or neutral along the axis and are transported inward from the
    # asymptotic series)
    _AXES = {
        "imag+": (1j, 2, (0, 1)),
        "imag-": (-1j, 7, (0, 1)),
    }

    def _inward_start(self, u: float) -> float:
        """R of the inward leg at u: r0, or r0 + k _R_GRID >= u + _MARGIN."""
        k = max(0, math.ceil((u + _MARGIN - self.r0) / _R_GRID))
        return self.r0 + k * _R_GRID

    def m_balanced(self, u_values, axis: str = "imag+") -> dict:
        """Column-balanced M along an axis: u -> (Mhat, logs).

        M(u * direction) = Mhat diag(e^{logs_j}) with every column of
        Mhat normalized to unit max entry.  Dominant columns are
        transported outward from M(0) = C_k; the other columns (recessive
        or neutral along the axis, hence swamped there by the roundoff
        of the dominant ones) are transported *inward* from the
        asymptotic series at R, the stable direction for them.  R is r0
        for u <= r0 - 1.5 and beyond that the first point of the grid
        r0 + 2k with R >= u + 1.5, so it depends on u alone.  Both legs
        read the solver's recorded sweeps (`SectoralSolver.sweep`): a
        value does not depend on the rest of the request or on what was
        asked before.  The per-column normalization keeps all scales
        explicit, so kernel bilinear forms can be assembled without
        overflow and with a well-conditioned inverse.
        """
        direction, sector, outward_cols = self._AXES[axis]
        inward_cols = tuple(j for j in range(4) if j not in outward_cols)
        us = sorted(float(u) for u in u_values)
        if us[0] <= 0.0:
            raise ValueError("u values must be positive")
        A, la = self.sweep(direction, sector, outward_cols, 0.0).at(us)
        # R grows with u, so the groups come out in the order of us
        starts = [self._inward_start(u) for u in us]
        parts = [self.sweep(direction, sector, inward_cols, R).at(
                     [u for u, Ru in zip(us, starts) if Ru == R])
                 for R in sorted(set(starts))]
        B, lb = (np.concatenate(x) for x in zip(*parts))
        perm = np.argsort(outward_cols + inward_cols)
        Mhat = np.concatenate([A, B], axis=-1)[..., perm]
        logs = np.concatenate([la, lb], axis=-1)[..., perm]
        return dict(zip(us, zip(Mhat, logs)))

    def hm_extract(self, u_points=None) -> complex:
        """Fitted (N1)_{14} from zeta (P - I)_{14} on the imaginary axis.

        Equals i 2^{-1/3} q(2^{2/3}(2s - t^2)) for the Hastings-McLeod
        solution.  P = M E^{-1} A^{-1} B^{-1} is evaluated through
        `m_balanced` so that the exponentially small (1,4) entry is not
        lost to contamination, and the limit is taken by fitting a
        six-term 1/zeta expansion over the sample window.
        """
        if u_points is None:
            u_points = np.arange(6.0, 16.01, 0.5)
        rows = []
        rhs = []
        for u, (Mhat, logs) in self.m_balanced(u_points, "imag+").items():
            zeta = 1j * u
            fr0 = laxpair.asymptotic_frame(zeta, self.s, self.t, "+")
            M = Mhat * np.exp(logs)
            f = zeta * (M @ np.linalg.inv(fr0) - np.eye(4))[0, 3]
            rows.append([zeta ** (-k) for k in range(6)])
            rhs.append(f)
        coef, *_ = np.linalg.lstsq(np.array(rows, dtype=complex),
                                   np.array(rhs, dtype=complex), rcond=None)
        return complex(coef[0])
