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
sector, two radii).

One stepper, `_march`, serves every integration of the Lax equation:
outward from the origin (Phi, and columns of M = Phi C_k) or inward from
the asymptotic series, on any block of columns, for a batch of rays at
once.  It is the high-order Taylor method (Jorba & Zou, Exp. Math. 14
(2005)): L(zeta) = sum_j L_j zeta^j is a polynomial, so about a step start
zeta = d r the Taylor coefficients of Y(d (r + s)) obey the exact
recurrence (n+1) Y_{n+1} = sum_j B_j Y_{n-j}, with B_j the s^j
coefficient of d L(d (r + s)).  Each step sums `_ORDER` terms over the
length h(r) = `_STEP` / max(`_STEP`, sum_j ||L_j||_inf (|r| + 1)^j).
As h <= 1, ||L|| h <= `_STEP` on the whole disk |s| <= h, so the
omitted terms are below _STEP^_ORDER / _ORDER! (about 4e-24) of the
step's start value.  The step rule depends on r and the coefficients
only, never on the direction or on the radii requested, so every ray of
a batch steps on the same r-grid; a requested radius is reached by
evaluating the Taylor polynomial of the step that contains it, never by
shortening a step.  A value therefore does not depend on which other
rays share the batch or on which other radii were requested.  After
every step the columns are rebalanced, so each column is carried as
(unit-max column, log scale) and never overflows.  The solver counts
its steps in `taylor_steps`.

The stepper yields every step's start, end, Taylor coefficients and
logs, and two readers consume them.  `transport` runs outward from
Phi(0) = I on a batch of rays and evaluates its radii as the steps go
by, keeping none of them.  A recorded `Sweep` (dense Taylor output)
keeps them all: `SectoralSolver.sweep` builds one per ray, block of
columns and start on first use, and stores it, and `Sweep.at` evaluates
any radius by the Horner sum of its step, taking more steps only when a
radius lies beyond the recorded ones.  Every inward leg is a sweep.
Since the grid depends on r and the start only, an extended sweep takes
the same steps as a fresh one: a recorded value equals that of a fresh
sweep bit for bit, whatever was asked of the sweep before.

The jump relations tie the C_k together; `split_solve` deliberately
omits the links across one opposite pair of rays so that those two
jumps become genuinely *measured* quantities for the test-suite.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .errors import IntegrationFailure

__all__ = ["SectoralSolver", "Sweep", "balance_columns"]

_ORDER = 30              # Taylor terms per transport step
_STEP = 2.0              # transport step bound: h * sum_j ||L_j|| (|r|+1)^j
_EDGE = 0.02             # anchor angle offset inside a sector's bounding rays


def balance_columns(M: np.ndarray, logs) -> tuple[np.ndarray, np.ndarray]:
    """(Mhat, logs + log m) with M = Mhat diag(m), each column of Mhat at unit max.

    M may carry leading batch axes; the columns are its last axis.
    """
    m = np.max(np.abs(M), axis=-2)
    return M / m[..., None, :], logs + np.log(m)


def _taylor_sum(coeffs: np.ndarray, s) -> np.ndarray:
    """sum_n coeffs[:, n] s^n by Horner's rule; s is a scalar or one per row."""
    s = np.reshape(s, (-1, 1, 1))
    acc = coeffs[:, -1]
    for n in range(coeffs.shape[1] - 2, -1, -1):
        acc = acc * s + coeffs[:, n]
    return acc


class Sweep:
    """A recorded march along one ray, extended on demand.

    `steps` is a `SectoralSolver._march` over a batch of one ray in the
    given direction (sign +1 outward, -1 inward).  Every step taken is
    kept, so a radius already passed costs one Horner sum.
    """

    def __init__(self, steps, sign: float):
        self._steps = steps
        self._sign = sign
        self._ends: list[float] = []
        self._records: list[tuple] = []      # (start, coefficients, logs)

    def at(self, radii) -> tuple[np.ndarray, np.ndarray]:
        """(Yhat, logs) at radii past the start: shapes (m, d, k), (m, k)."""
        radii = np.asarray(radii, dtype=float)
        ahead = self._sign * radii
        while not self._ends or ahead.max() > self._sign * self._ends[-1]:
            r, r_next, T, logs = next(self._steps)
            self._ends.append(r_next)
            self._records.append((r, T[0], logs[0]))
        # the step containing a radius is the first whose end reaches it
        i = np.searchsorted(self._sign * np.asarray(self._ends), ahead)
        r, T, logs = (np.array(x) for x in zip(*(self._records[j] for j in i)))
        Y, logs = balance_columns(_taylor_sum(T, radii - r), logs)
        if not np.all(np.isfinite(Y)):
            raise IntegrationFailure("Lax transport produced non-finite values")
        return Y, logs


class SectoralSolver:
    """Sector constants C_k of Y = Phi C_k, fitted at anchors in all sectors.

    A concrete solver sets the class data below, implements
    `_series_frame`, and in `__init__` stores its own data and the
    coefficients `lax_coeffs` = (L_0, L_1, ...) of its Lax matrix
    L(zeta) = sum_j L_j zeta^j before calling `super().__init__(r0)`,
    which fits the constants.
    """

    # ray angles, listed counterclockwise and oriented outward.  Ray k
    # separates sector k-1 (minus side) from sector k (plus side).
    RAYS: tuple[float, ...]
    JUMPS: tuple[np.ndarray, ...]
    INNER: float            # inner anchor radius as a fraction of r0
    LOW_SECTOR: int         # sector of the arguments in [0, RAYS[0]]
    lax_coeffs: tuple[np.ndarray, ...]

    def __init__(self, r0: float):
        self.r0 = float(r0)
        self.taylor_steps = 0    # steps taken; one step serves a whole batch
        self._sweeps: dict = {}
        self.dim = len(self.JUMPS[0])
        self._lax_norms = [float(np.max(np.sum(np.abs(L), axis=1)))
                           for L in self.lax_coeffs]
        n = len(self.RAYS)
        radii = (self.r0, self.INNER * self.r0)
        # anchor data: Phi and the series frame at two radii along three
        # angles per sector.  The near-edge angles matter for the split
        # solves: a mode that is recessive throughout a partial chain's
        # sectors is exactly tied for dominance *on* the chain's boundary
        # ray, so an anchor just inside the edge still pins it.
        angles = []
        for k in range(n):
            lo = self.RAYS[k]
            hi = self.RAYS[(k + 1) % n] + (2.0 * math.pi if k == n - 1 else 0.0)
            angles += [lo + _EDGE, 0.5 * (lo + hi), hi - _EDGE]
        directions = [cmath.exp(1j * ang) for ang in angles]
        P, logs = self.transport(directions, radii)
        self._anchors = [[] for _ in range(n)]
        for i, direction in enumerate(directions):
            for r, Pr, lr in zip(radii, P[i], logs[i]):
                # Phi = P_scaled e^g with one scale g for all columns
                g = float(np.max(lr))
                self._anchors[i // 3].append(
                    (Pr * np.exp(lr - g), g,
                     *self._series_frame(r * direction, i // 3)))
        self.C = self._solve_chain(break_rays=())
        self._split_cache: dict = {}

    # -- problem data ------------------------------------------------------

    def lax(self, zeta) -> np.ndarray:
        """The Lax matrix L(zeta) of dPhi/dzeta = L Phi.

        zeta may be a scalar or an array; shape S gives shape S + (d, d).
        """
        zeta = np.asarray(zeta)[..., None, None]
        out = self.lax_coeffs[-1]
        for L in self.lax_coeffs[-2::-1]:
            out = out * zeta + L
        return out

    def _series_frame(self, zeta: complex, sector: int) -> tuple[np.ndarray, np.ndarray]:
        """(F, g) with the sector's asymptotic series frame F diag(e^{g_j}).

        g is one log per column, or one scalar for all of them.
        """
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

    def transport(self, directions, radii) -> tuple[np.ndarray, np.ndarray]:
        """(Phihat, logs) of Phi, Phi(0) = I, at the radii on a batch of rays.

        Ray b runs outward along directions[b] (unit modulus); radii >= 0
        has shape (m,), shared, or (b, m).  Phi(r directions[b]) is Phihat
        diag(e^{logs}), Phihat of shape (b, m, d, d) with unit-max columns
        and logs of shape (b, m, d).  Inward legs are sweeps (`sweep`).
        """
        dirs = np.atleast_1d(np.asarray(directions, dtype=complex))
        radii = np.asarray(radii, dtype=float)
        radii = np.broadcast_to(radii, (len(dirs),) + radii.shape[-1:])
        b, d = len(dirs), self.dim
        out = (np.empty(radii.shape + (d, d), dtype=complex),
               np.empty(radii.shape + (d,)))
        pending = np.ones(radii.shape, dtype=bool)
        eye = np.broadcast_to(np.eye(d, dtype=complex), (b, d, d))
        steps = self._march(dirs, eye, np.zeros((b, d)), 0.0, 1.0)
        while pending.any():
            r, r_next, T, logs = next(steps)
            bi, mi = np.nonzero(pending & (radii <= r_next))
            out[0][bi, mi], out[1][bi, mi] = balance_columns(
                _taylor_sum(T[bi], radii[bi, mi] - r), logs[bi])
            pending[bi, mi] = False
        if not np.all(np.isfinite(out[0])):
            raise IntegrationFailure("Lax transport produced non-finite values")
        return out

    def _march(self, dirs, Y, logs, r: float, sign: float):
        """Taylor steps from r toward sign * infinity, without end.

        Y diag(e^{logs}) is the batch of solutions at r * dirs[b], Y of
        shape (b, d, k) with unit-max columns.  Yields (r, r_next, T,
        logs) per step: the solution at (r + s) * dirs[b], for s between
        0 and r_next - r, is sum_n T[b, n] s^n times diag(e^{logs[b]}).
        """
        p = len(self.lax_coeffs) - 1
        b, d, k = Y.shape
        while True:
            h = _STEP / max(_STEP, sum(n * (abs(r) + 1.0) ** j
                                       for j, n in enumerate(self._lax_norms)))
            # dY/ds = d L(d (r + s)) Y = sum_j B_j s^j Y
            B = [sum(math.comb(m, j) * r ** (m - j) * dirs[:, None, None] ** (m + 1) * L
                     for m, L in enumerate(self.lax_coeffs) if m >= j)
                 for j in range(p + 1)]
            Bcat = np.concatenate(B[::-1], axis=-1)
            # T[:, p + n] holds the n-th Taylor coefficient; the p leading
            # zeros let one window [Y_{n-p}, ..., Y_n] serve every order n
            T = np.zeros((b, p + _ORDER + 1, d, k), dtype=complex)
            T[:, p] = Y
            for n in range(_ORDER):
                window = T[:, n:n + p + 1].reshape(b, (p + 1) * d, k)
                T[:, p + n + 1] = (Bcat @ window) / (n + 1.0)
            self.taylor_steps += 1
            r_next = r + sign * h
            yield r, r_next, T[:, p:], logs
            Y, logs = balance_columns(_taylor_sum(T[:, p:], sign * h), logs)
            r = r_next

    def sweep(self, direction: complex, sector: int, cols: tuple,
              r_from: float) -> Sweep:
        """The recorded sweep of the columns `cols` of a sector's solution.

        It runs along the ray of the given direction: outward from
        Y(0) = C_sector when r_from is 0, inward from the series frame at
        r_from otherwise.  Built on first use and kept, so what a solver
        keeps is bounded by what its callers ask for: `RhSolver.m_balanced`
        asks for at most five sweeps, each between 0 and its axis's
        switch to the series frame.
        """
        key = (direction, sector, cols, r_from)
        if key not in self._sweeps:
            if r_from == 0.0:
                Y, logs = self.C[sector], np.zeros(self.dim)
            else:
                Y, logs = self._series_frame(r_from * direction, sector)
            cols = list(cols)
            Y, logs = balance_columns(
                Y[None][..., cols], np.broadcast_to(logs, (1, self.dim))[:, cols])
            sign = 1.0 if r_from == 0.0 else -1.0
            steps = self._march(np.array([direction], dtype=complex),
                                Y, logs, r_from, sign)
            self._sweeps[key] = Sweep(steps, sign)
        return self._sweeps[key]

    def phi(self, zeta) -> np.ndarray:
        """The fundamental solution Phi(zeta), with Phi(0) = I.

        zeta may be a scalar or an array; an array of shape S gives an
        array of shape S + (d, d) from one batched transport.
        """
        z = np.asarray(zeta, dtype=complex)
        flat = z.reshape(-1)
        r = np.abs(flat)
        out = np.tile(np.eye(self.dim, dtype=complex), (len(flat), 1, 1))
        far = r >= 1e-14
        if far.any():
            P, logs = self.transport(flat[far] / r[far], r[far, None])
            out[far] = P[:, 0] * np.exp(logs[:, 0, None, :])
        return out.reshape(z.shape + (self.dim, self.dim))

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
                # Phi e^{gphi} C W = Fr diag(e^{gf}).  gphi and max(gf) track
                # the same dominant growth, so their difference is moderate.
                # All equations of one anchor are normalized by the same
                # dominant scale: columns that are exponentially recessive
                # at this anchor then carry negligible weight (a
                # floating-point Phi cannot resolve them there anyway);
                # every mode is dominant at some anchor on the circle,
                # which pins down all of C.
                Aframe = Fr * np.exp(gf - gphi)
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

    def sectional(self, zeta) -> np.ndarray:
        """The RH solution at zeta (sectional boundary values on rays).

        zeta may be a scalar or an array, as for `phi`; each point takes
        the constants of its own sector.
        """
        z = np.asarray(zeta, dtype=complex)
        sector = np.array([self.sector_of(w) for w in z.reshape(-1)],
                          dtype=int).reshape(z.shape)
        return self.phi(z) @ np.asarray(self.C)[sector]

    def matching_residual(self, k: int) -> float:
        """Normalized residual of the asymptotic match in sector k."""
        res = 0.0
        for Phi, gphi, Fr, gf in self._anchors[k]:
            Aframe = Fr * np.exp(gf - gphi)
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
