"""The sectoral Riemann-Hilbert engine shared by the model RH solvers.

Both model problems of the library (the 4x4 problem on ten rays and the
2x2 Painleve II problem on four) have the same shape: Y(zeta) is
analytic off rays from the origin, satisfies Y_+ = Y_- J_k across ray k
with constant unimodular jumps, and has a known asymptotic series at
infinity.  All sectional solutions satisfy the entire linear ODE
dY/dzeta = L(zeta) Y of a Lax pair, so each extends to an entire
function: Y_k = Phi C_k, where Phi is the fundamental solution with
Phi(0) = I and the constants satisfy C_k = C_{k-1} J_k across ray k.

Marching a single sector's solution inward from its own asymptotics is
exponentially unstable (components recessive throughout a narrow sector
are invisible there), so the engine works globally: Phi is integrated
*outward* from the origin, which is stable, and the constants are found
from one weighted least-squares fit matching Phi C_k to the asymptotic
series at anchors in all sectors simultaneously (three angles per
sector, two radii).  One `transport` serves every integration of the
Lax equation: outward from the origin (Phi, and columns of M = Phi C_k)
or inward from the asymptotic series, on any block of columns.  It is
cut into segments of bounded dominant growth and rebalances the columns
at the cuts, so each column is carried as (unit-max column, log scale)
and never overflows.

The jump relations tie the C_k together; `split_solve` deliberately
omits the links across one opposite pair of rays so that those two
jumps become genuinely *measured* quantities for the test-suite.
"""

from __future__ import annotations

import cmath
import math

import numpy as np
from scipy.integrate import solve_ivp
from scipy.optimize import brentq

from .errors import IntegrationFailure

__all__ = ["RTOL", "ATOL", "SectoralSolver", "balance_columns"]

RTOL = 1e-12             # tolerances of the fundamental-solution transport
ATOL = 1e-30
_EDGE = 0.02             # anchor angle offset inside a sector's bounding rays
_PER_SEGMENT = 400.0     # dominant growth (e-folds) per transport segment


def balance_columns(M: np.ndarray, logs) -> tuple[np.ndarray, np.ndarray]:
    """(Mhat, logs + log m) with M = Mhat diag(m), each column of Mhat at unit max."""
    m = np.max(np.abs(M), axis=0)
    return M / m, logs + np.log(m)


class SectoralSolver:
    """Sector constants C_k of Y = Phi C_k, fitted at anchors in all sectors.

    A concrete solver sets the class data below, implements `lax`,
    `_series_frame` and `_growth`, and stores its own data in `__init__`
    before calling `super().__init__(r0)`, which fits the constants.
    """

    # ray angles, listed counterclockwise and oriented outward.  Ray k
    # separates sector k-1 (minus side) from sector k (plus side).
    RAYS: tuple[float, ...]
    JUMPS: tuple[np.ndarray, ...]
    INNER: float            # inner anchor radius as a fraction of r0
    LOW_SECTOR: int         # sector of the arguments in [0, RAYS[0]]

    def __init__(self, r0: float):
        self.r0 = float(r0)
        self.dim = len(self.JUMPS[0])
        n = len(self.RAYS)
        radii = (self.r0, self.INNER * self.r0)
        # anchor data: Phi and the series frame at two radii along three
        # angles per sector.  The near-edge angles matter for the split
        # solves: a mode that is recessive throughout a partial chain's
        # sectors is exactly tied for dominance *on* the chain's boundary
        # ray, so an anchor just inside the edge still pins it.
        self._anchors = []
        for k in range(n):
            lo = self.RAYS[k]
            hi = self.RAYS[(k + 1) % n] + (2.0 * math.pi if k == n - 1 else 0.0)
            anchors = []
            for ang in (lo + _EDGE, 0.5 * (lo + hi), hi - _EDGE):
                direction = cmath.exp(1j * ang)
                phis = self.transport(direction, np.eye(self.dim),
                                      np.zeros(self.dim), 0.0, radii)
                for r, (P, logs) in zip(radii, phis):
                    # Phi = P_scaled e^g with one scale g for all columns
                    g = float(np.max(logs))
                    anchors.append((P * np.exp(logs - g), g,
                                    *self._series_frame(r * direction, k)))
            self._anchors.append(anchors)
        self.C = self._solve_chain(break_rays=())
        self._split_cache: dict = {}

    # -- problem data (supplied by the concrete solver) --------------------

    def lax(self, zeta: complex) -> np.ndarray:
        """The Lax matrix L(zeta) of dPhi/dzeta = L Phi."""
        raise NotImplementedError

    def _series_frame(self, zeta: complex, sector: int) -> tuple[np.ndarray, float]:
        """(F, g) with the sector's asymptotic series frame equal to F e^g."""
        raise NotImplementedError

    def _growth(self, r: float) -> float:
        """Upper envelope of the dominant exponent along any direction."""
        raise NotImplementedError

    # -- geometry ----------------------------------------------------------

    @classmethod
    def sector_of(cls, zeta: complex) -> int:
        """Index k of the sector (RAYS[k], RAYS[k+1]) containing zeta."""
        ang = cmath.phase(zeta) % (2.0 * math.pi)
        for k in range(len(cls.RAYS) - 1, -1, -1):
            if ang > cls.RAYS[k]:
                return k
        return cls.LOW_SECTOR

    # -- fundamental solution ----------------------------------------------

    def _segments(self, rmax: float) -> list[tuple[float, float]]:
        """Partition [0, rmax] so the dominant growth per piece is bounded.

        Renormalizing the integrated solution at the segment boundaries
        keeps every intermediate value inside floating-point range no
        matter how large the anchor radius or the problem parameters.
        """
        total = self._growth(rmax)
        cuts = [0.0]
        n = 1
        while n * _PER_SEGMENT < total:
            cuts.append(brentq(lambda r: self._growth(r) - n * _PER_SEGMENT,
                               cuts[-1], rmax))
            n += 1
        cuts.append(rmax)
        return [(cuts[i], cuts[i + 1]) for i in range(len(cuts) - 1)]

    def transport(self, direction: complex, Y: np.ndarray, logs, r_from: float,
                  radii) -> list[tuple[np.ndarray, np.ndarray]]:
        """(Yhat, logs) at each radius for dY/dzeta = L Y on the ray.

        Y diag(e^{logs}) is a d x k block of solutions at r_from*direction;
        the radii may lie on either side of r_from.  The integration is
        cut at the segment boundaries of `_segments` and the columns are
        rebalanced there, so no column overflows or is swamped by the
        scale of another; every returned Yhat has unit max per column.
        """
        radii = [float(r) for r in radii]
        d, k = Y.shape
        start = balance_columns(np.asarray(Y, dtype=complex), logs)
        cuts = {c for seg in self._segments(max(radii + [r_from])) for c in seg}

        def rhs(r, y):
            L = self.lax(r * direction)
            return (direction * (L @ y.reshape(d, k))).reshape(d * k)

        out = {r: start for r in radii if r == r_from}
        for targets in ([r for r in radii if r > r_from],
                        [r for r in radii if r < r_from]):
            if not targets:
                continue
            outward = targets[0] > r_from
            end = max(targets) if outward else min(targets)
            lo, hi = sorted((r_from, end))
            inner = sorted((c for c in cuts if lo < c < hi), reverse=not outward)
            knots = [r_from, *inner, end]
            y, lg = start
            for ra, rb in zip(knots, knots[1:]):
                sol = solve_ivp(rhs, (ra, rb), y.reshape(d * k), method="DOP853",
                                rtol=RTOL, atol=ATOL, dense_output=True)
                if not sol.success:
                    raise IntegrationFailure(f"Lax transport: {sol.message}")
                for r in targets:
                    if r not in out and min(ra, rb) - 1e-12 <= r <= max(ra, rb) + 1e-12:
                        out[r] = balance_columns(sol.sol(r).reshape(d, k), lg)
                y, lg = balance_columns(sol.y[:, -1].reshape(d, k), lg)
        return [out[r] for r in radii]

    def phi(self, zeta: complex) -> np.ndarray:
        """The fundamental solution Phi(zeta), with Phi(0) = I."""
        r = abs(zeta)
        if r < 1e-14:
            return np.eye(self.dim, dtype=complex)
        (P, logs), = self.transport(zeta / r, np.eye(self.dim),
                                    np.zeros(self.dim), 0.0, [r])
        return P * np.exp(logs)

    # -- chain solve -------------------------------------------------------

    def _chain_groups(self, break_rays: tuple) -> list[tuple[int, np.ndarray]]:
        """(representative index, product W with C_k = C_rep W) per sector.

        The chain C_k = C_{k-1} J_k is followed except across break_rays.
        """
        n = len(self.RAYS)
        reps = [r % n for r in sorted(break_rays)] or [0]
        out: list[tuple[int, np.ndarray] | None] = [None] * n
        for rep in reps:
            W = np.eye(self.dim, dtype=complex)
            out[rep] = (rep, W)
            k = rep
            while True:
                nxt = (k + 1) % n
                if nxt in reps or out[nxt] is not None:
                    break
                W = W @ self.JUMPS[nxt]
                out[nxt] = (rep, W.copy())
                k = nxt
        if any(v is None for v in out):
            raise AssertionError("chain construction incomplete")
        return out  # type: ignore[return-value]

    def _solve_chain(self, break_rays: tuple) -> list[np.ndarray]:
        """Least-squares fit of the sector constants to the anchor data."""
        d2 = self.dim * self.dim
        groups = self._chain_groups(break_rays)
        reps = sorted({g for g, _ in groups})
        col_of = {g: i for i, g in enumerate(reps)}
        rows = []
        rhs = []
        for k, (g, W) in enumerate(groups):
            ofs = d2 * col_of[g]
            for Phi, gphi, Fr, gf in self._anchors[k]:
                # Phi e^{gphi} C W = Fr e^{gf}.  The two logs track the
                # same dominant growth, so their difference is moderate.
                # All equations of one anchor are normalized by the same
                # dominant scale: columns that are exponentially recessive
                # at this anchor then carry negligible weight (a
                # floating-point Phi cannot resolve them there anyway);
                # every mode is dominant at some anchor on the circle,
                # which pins down all of C.
                Aframe = Fr * math.exp(gf - gphi)
                scale = float(np.max(np.abs(Aframe)))
                # kron(Phi, W^T) acts on the row-major vec(C)
                block = np.zeros((d2, d2 * len(reps)), complex)
                block[:, ofs:ofs + d2] = np.kron(Phi, W.T) / scale
                rows.append(block)
                rhs.append(Aframe.reshape(d2) / scale)
        sol, *_ = np.linalg.lstsq(np.vstack(rows), np.concatenate(rhs),
                                  rcond=None)
        cs = {g: sol[d2 * i:d2 * (i + 1)].reshape(self.dim, self.dim)
              for g, i in col_of.items()}
        return [cs[g] @ W for g, W in groups]

    def split_solve(self, ray: int) -> list[np.ndarray]:
        """Sector constants with the chain cut at `ray` and the opposite ray."""
        half = len(self.RAYS) // 2
        key = ray % half
        if key not in self._split_cache:
            self._split_cache[key] = self._solve_chain((key, key + half))
        return self._split_cache[key]

    # -- evaluation and checks --------------------------------------------

    def sectional(self, zeta: complex, sector: int | None = None,
                  constants: list[np.ndarray] | None = None) -> np.ndarray:
        """The RH solution at zeta (sectional boundary values on rays)."""
        if sector is None:
            sector = self.sector_of(zeta)
        return self.phi(zeta) @ (constants or self.C)[sector]

    def matching_residual(self, k: int) -> float:
        """Normalized residual of the asymptotic match in sector k."""
        res = 0.0
        for Phi, gphi, Fr, gf in self._anchors[k]:
            Aframe = Fr * math.exp(gf - gphi)
            scale = float(np.max(np.abs(Aframe)))
            diff = (Phi @ self.C[k] - Aframe) / scale
            res = max(res, float(np.max(np.abs(diff))))
        return res

    def _sides(self, ray: int, radius: float) -> tuple[np.ndarray, np.ndarray]:
        """(Y_+, Y_-) on the ray at the radius, with the chain cut there."""
        n = len(self.RAYS)
        constants = self.split_solve(ray)
        Phi = self.phi(radius * cmath.exp(1j * self.RAYS[ray]))
        return Phi @ constants[ray % n], Phi @ constants[(ray - 1) % n]

    def measured_jump(self, ray: int, radius: float) -> np.ndarray:
        """Y_-^{-1} Y_+ on the ray, with the chain cut there (honest)."""
        plus, minus = self._sides(ray, radius)
        return np.linalg.solve(minus, plus)

    def jump_residual(self, ray: int, radius: float) -> float:
        """max |Y_+ - Y_- J_ray| at the given radius, chain cut at the ray."""
        plus, minus = self._sides(ray, radius)
        return float(np.max(np.abs(plus - minus @ self.JUMPS[ray])))
