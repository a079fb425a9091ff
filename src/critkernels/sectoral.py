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
sector, two radii).  Real parameters make each problem its own mirror
image, Y(sign conj(zeta)) = D conj(Y(zeta)) D for a solver's `MIRROR` =
(sign, D), and the engine keeps that bit for bit: only the anchors on
one side of the mirror line or on it are transported, and each other one
takes its partner's exact mirror direction and D conj(Phi) D as Phi;
a line of `m_balanced` that is its own mirror image has one leg, x >= 0,
and reads each x < 0 as the mirror of |x|.

One stepper, `_chunk`, serves every integration of the Lax equation:
outward from the origin (Phi, and columns of M = Phi C_k) or inward from
the asymptotic series, on any block of columns, for a batch of rays at
once.  It is the high-order Taylor method (Jorba & Zou, Exp. Math. 14
(2005)).  L(zeta) = sum_q L_q zeta^q is a polynomial, so on a step from
zeta0 = d r along the ray of direction d the step's propagator, Y(zeta0
+ t) = U(t) Y(zeta0) with t = d s, has Taylor coefficients U_0 = I and
(n+1) U_{n+1} = sum_q L_q (P_q)_n, where P_q = zeta^q U has (P_0)_n =
U_n and (P_q)_n = zeta0 (P_{q-1})_n + (P_{q-1})_{n-1}.  Each step sums
`_ORDER` terms over h(r) = `_STEP` / max(`_STEP`, sum_q ||L_q||_inf (|r|
+ 1)^q).  As h <= 1, ||L|| h <= `_STEP` on the whole disk |s| <= h, so
the omitted terms are below _STEP^_ORDER / _ORDER! (about 4e-24) of the
step's start value.  The rule depends on r and the coefficients only, so
all rays of a batch share one r-grid (`_grid`), and a radius is read
from the Taylor polynomial of the step that contains it.  The grid is
taken in chunks of at most `_CHUNK` matrix entries, ray-steps * d^2 (a
memory bound, like `surface._BLOCK`), a chunk ending early at the first
step that reaches the farthest radius asked for.  Each (step, ray) pair
of a chunk is a block of d columns of one recurrence: an order is one
gemm of [L_0 ... L_p] / (n+1) against the stacked (P_q)_n of all pairs,
plus elementwise multiply-adds by each column's zeta0.  The step sums
sum_n U_n (d h)^n are added up term by term as the orders come, so a
chunk stores the coefficients of only the pairs its caller keeps; then
Y_{i+1} = (sum_n U_n (d h_i)^n) Y_i, rebalanced so that each column is
carried as (unit-max column, log scale).  A value depends on neither the
other rays of a batch, the other radii asked for nor where chunks end.
`taylor_steps` counts steps, `taylor_passes` chunks.

A read at a radius is one matmul of the powers of t (`_taylor_sum`).
`transport` runs outward from Phi(0) = I on a batch of rays, keeps the
pairs that hold one of its radii, reads a radius as (sum_n U_n t^n) Y_i,
and keeps no step.  A recorded `Sweep` keeps every step's T_i = U_i Y_i,
one matmul per chunk, and sums that:
`SectoralSolver.sweep` builds one per ray, block of columns and start on
first use and stores it, and `Sweep.at` steps on only past the recorded
radii, so a recorded value equals that of a fresh sweep bit for bit.
`m_balanced` reads M at signed points of a line of a solver's `_LINES`
from sweeps alone, and `kernel_form`, the bilinear form of K_cr, K_tac
and K_PII (see `kernels`) with its rule for coincident pairs, reads it.

The fit is one array program on the anchor data, stacked [direction,
radius]; `_equations` normalizes each anchor's equations once, for the
fit and `matching_residual`.  A group of sectors shares one unknown,
C_k = C_rep W_k with W_k = J_{rep+1} ... J_k the running product of the
jumps, so kron(Phi, W_k^T) vec(C_rep) = vec(A) at all anchors is one
einsum and one `lstsq` (condition number `fit_condition`).  The full
chain is one group; `split_solve` cuts it at an opposite pair of rays,
so that those two jumps become genuinely *measured* quantities.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .errors import IntegrationFailure, _finite

__all__ = ["SectoralSolver", "Sweep", "balance_columns", "kernel_form"]

_ORDER = 30              # Taylor terms per transport step
_STEP = 2.0              # transport step bound: h * sum_j ||L_j|| (|r|+1)^j
_CHUNK = 256 * 16        # matrix entries, ray-steps * d^2, per batched recurrence
_EDGE = 0.02             # anchor angle offset inside a sector's bounding rays
_COINCIDE_EPS = 1e-6     # relative |a - b| treated as the diagonal


def balance_columns(M: np.ndarray, logs) -> tuple[np.ndarray, np.ndarray]:
    """(Mhat, logs + log m) with M = Mhat diag(m), each column of Mhat at unit max.

    M may carry leading batch axes; the columns are its last axis.
    """
    m = np.max(np.abs(M), axis=-2)
    return M / m[..., None, :], logs + np.log(m)


def _taylor_sum(coeffs: np.ndarray, s) -> np.ndarray:
    """sum_n coeffs[:, n] s^n as one matmul of the powers of s against coeffs.

    s is a scalar or one per row; coeffs has shape (b, n) + block.
    """
    b, n, *block = coeffs.shape
    powers = np.vander(np.reshape(s, -1), n, increasing=True)[:, None]
    return (powers @ coeffs.reshape(b, n, math.prod(block))).reshape([b] + block)


class Sweep:
    """A recorded march along one ray, extended on demand.

    It grows by `SectoralSolver._chunk` calls on one ray (sign +1
    outward, -1 inward) from state = (Y, logs, r).  Every step taken is
    kept, so a radius already passed costs one Taylor sum.
    """

    def __init__(self, solver, direction: complex, state: tuple, sign: float):
        self._solver = solver
        self._direction = direction
        self._state = state
        self._sign = sign
        self._ends: list[float] = []
        self._records: list[tuple] = []      # (start, coefficients, logs)

    def at(self, radii) -> tuple[np.ndarray, np.ndarray]:
        """(Yhat, logs) at radii past the start: shapes (m, d, k), (m, k)."""
        radii = np.asarray(radii, dtype=float)
        ahead = self._sign * radii
        while not self._ends or ahead.max() > self._sign * self._ends[-1]:
            Y, logs, r = self._state
            grid = self._solver._grid(r, self._sign, self._sign * ahead.max(), 1)
            U, Ys, logs, self._state = self._solver._chunk(
                np.array([self._direction], dtype=complex), Y, logs, grid)
            m, n, d, _ = U.shape
            T = U.reshape(m, n * d, d) @ Ys[:, 0]      # T_i = U_i Y_i, one matmul
            self._ends += grid[1:]
            self._records += zip(grid, T.reshape(m, n, d, -1), logs[:, 0])
        # the step containing a radius is the first whose end reaches it
        i = np.searchsorted(self._sign * np.asarray(self._ends), ahead)
        r, T, logs = (np.array(x) for x in zip(*(self._records[j] for j in i)))
        Y, logs = balance_columns(_taylor_sum(T, (radii - r) * self._direction), logs)
        if not np.all(np.isfinite(Y)):
            raise IntegrationFailure("Lax transport produced non-finite values")
        return Y, logs


class SectoralSolver:
    """Sector constants C_k of Y = Phi C_k, fitted at anchors in all sectors.

    A concrete solver sets the class data below, implements
    `_series_frame`, and in `__init__` stores its own data and the
    coefficients `lax_coeffs` = (L_0, L_1, ...) of its Lax matrix
    L(zeta) = sum_j L_j zeta^j before calling `super().__init__(r0)`,
    which fits C to `_anchors` = (Phi, g, F, gf): Phi e^g and the series
    frame F diag(e^{gf}), each stacked [direction, radius].
    """

    # ray angles, listed counterclockwise and oriented outward.  Ray k
    # separates sector k-1 (minus side) from sector k (plus side).
    RAYS: tuple[float, ...]
    JUMPS: tuple[np.ndarray, ...]
    INNER: float            # inner anchor radius as a fraction of r0
    LOW_SECTOR: int         # sector of the arguments in [0, RAYS[0]]
    MIRROR: tuple           # (sign, D): Y(sign conj(zeta)) = D conj(Y(zeta)) D
    _LINES: dict            # line name -> its x >= 0 leg for `m_balanced`
    lax_coeffs: tuple[np.ndarray, ...]

    def __init__(self, r0: float):
        _finite(r0=r0)
        if r0 <= 0.0:
            raise ValueError(f"r0 must be positive, got {r0!r}")
        self.r0 = float(r0)
        self.taylor_steps = 0    # steps taken; one step serves a whole batch
        self.taylor_passes = 0   # batched recurrences, one per chunk of steps
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
        # Phi at the first anchor of each mirror pair; the series frame at all
        sign, D = self.MIRROR
        first = [min(i, int(np.argmin(np.abs(np.subtract(directions, sign * w.conjugate())))))
                 for i, w in enumerate(directions)]
        far = [i for i, j in enumerate(first) if j < i]
        for i in far:
            directions[i] = sign * directions[first[i]].conjugate()
        near, row = np.unique(first, return_inverse=True)
        P, logs = self.transport(np.take(directions, near), radii)
        P, logs = P[row], logs[row]
        P[far] = D @ P[far].conj() @ D
        self._directions = directions
        self._sector = np.arange(len(directions)) // 3
        g = np.max(logs, axis=-1)         # one scale for all columns of Phi
        F, gf = zip(*(self._series_frame(r * w, k)
                      for w, k in zip(directions, self._sector) for r in radii))
        self._anchors = (P * np.exp(logs - g[..., None])[..., None, :], g, np.reshape(F, P.shape),
                         np.reshape([np.broadcast_to(x, self.dim) for x in gf], logs.shape))
        self.C, self.fit_condition = self._solve_chain(break_rays=())
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
        state = (np.broadcast_to(np.eye(d, dtype=complex), (b, d, d)), np.zeros((b, d)), 0.0)
        pending = np.ones(radii.shape, dtype=bool)
        while pending.any():
            grid = self._grid(state[2], 1.0, radii.max(), b)
            bi, mi = np.nonzero(pending & (radii <= grid[-1]))
            i = np.searchsorted(grid[1:], radii[bi, mi])     # first step to reach it
            U, Ys, logs, state = self._chunk(dirs, *state[:2], grid, i * b + bi)
            P = _taylor_sum(U, (radii[bi, mi] - np.take(grid, i)) * dirs[bi])
            out[0][bi, mi], out[1][bi, mi] = balance_columns(P @ Ys[i, bi], logs[i, bi])
            pending[bi, mi] = False
        if not np.all(np.isfinite(out[0])):
            raise IntegrationFailure("Lax transport produced non-finite values")
        return out

    def _grid(self, r: float, sign: float, until: float, rays: int) -> list[float]:
        """One chunk's step grid from r toward sign * infinity.

        It ends at the first step that reaches `until`, or before the
        chunk would hold more than _CHUNK matrix entries, steps * rays *
        d^2; it takes at least one step.
        """
        grid = [r]
        while len(grid) < 2 or (sign * r < sign * until
                                and len(grid) * rays * self.dim ** 2 <= _CHUNK):
            r += sign * _STEP / max(_STEP, sum(n * (abs(r) + 1.0) ** j
                                               for j, n in enumerate(self._lax_norms)))
            grid.append(r)
        return grid

    def _chunk(self, dirs, Y, logs, grid: list[float], keep=None):
        """The Taylor steps of `grid` on a batch of rays, by one recurrence.

        Y diag(e^{logs}) is the batch of solutions at grid[0] * dirs[j], Y
        of shape (b, d, k) with unit-max columns.  Returns (U, Ys, logs,
        state).  Step i of ray j is pair i * b + j; U holds the Taylor
        coefficients of the pairs listed in `keep`, in its order, or of
        all pairs if keep is None, shape (pairs, _ORDER + 1, d, d).  The
        solution at (grid[i] + s) dirs[j], s up to grid[i + 1] - grid[i],
        is (sum_n U[pair, n] (dirs[j] s)^n) Ys[i, j] diag(e^{logs[i, j]}),
        and state is (Y, logs, grid[-1]).
        """
        p = len(self.lax_coeffs) - 1
        b, d, k = Y.shape
        m = len(grid) - 1
        # pair i * b + j is the block of d columns from (i * b + j) * d on;
        # z0 = dirs[j] grid[i] and h = dirs[j] (grid[i + 1] - grid[i]),
        # one per column
        z0 = np.repeat(np.multiply.outer(grid[:-1], dirs).reshape(-1), d)
        h = np.repeat((np.diff(grid)[:, None] * dirs).reshape(-1), d)
        keep = np.arange(m * b) if keep is None else np.asarray(keep)
        cols = (keep[:, None] * d + np.arange(d)).reshape(-1)
        # P[q] holds the n-th coefficients of zeta^q U, prev the (n-1)-th;
        # (n+1) U_{n+1} = sum_q L_q P[q] is one gemm for every pair
        P, prev = np.zeros((2, p + 1, d, m * b * d), dtype=complex)
        P[0] = np.tile(np.eye(d), m * b)
        L = np.concatenate(self.lax_coeffs, axis=1) / np.arange(1.0, _ORDER + 1)[:, None, None]
        U = np.empty((_ORDER + 1, d, len(cols)), dtype=complex)
        S, power, term = P[0].copy(), np.ones_like(h), np.empty_like(P[0])
        for n in range(_ORDER):
            np.take(P[0], cols, axis=1, out=U[n], mode="clip")   # unbuffered
            for q in range(1, p + 1):
                np.multiply(z0, P[q - 1], out=P[q])
                P[q] += prev[q - 1]
            np.matmul(L[n], P.reshape((p + 1) * d, -1), out=prev[0])
            P, prev = prev, P
            # the step propagators S = sum_n U_n h^n, term by term
            power *= h
            np.multiply(P[0], power, out=term)
            S += term
        np.take(P[0], cols, axis=1, out=U[_ORDER], mode="clip")
        Ys, ls = np.empty((m, b, d, k), dtype=complex), np.empty((m, b, k))
        for i, step in enumerate(S.T.reshape(m, b, d, d).swapaxes(-1, -2)):
            Ys[i], ls[i] = Y, logs
            Y, logs = balance_columns(step @ Y, logs)
        self.taylor_steps += m
        self.taylor_passes += 1
        U = U.reshape(_ORDER + 1, d, -1, d).transpose(2, 0, 1, 3)
        return U, Ys, ls, (Y, logs, grid[-1])

    def sweep(self, direction: complex, sector: int, cols: tuple,
              r_from: float) -> Sweep:
        """The recorded sweep of the columns `cols` of a sector's solution.

        It runs along the ray of the given direction: outward from
        Y(0) = C_sector when r_from is 0, inward from the series frame at
        r_from otherwise.  Built on first use and kept, so what a solver
        keeps is bounded by what its callers ask for: `m_balanced` asks
        for at most two sweeps per line, each between 0 and the line's
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
            self._sweeps[key] = Sweep(self, direction, (Y, logs, r_from),
                                      1.0 if r_from == 0.0 else -1.0)
        return self._sweeps[key]

    def m_balanced(self, points, line: str) -> tuple[np.ndarray, np.ndarray]:
        """(Mhat, logs): column-balanced M at signed points x of a line.

        A line of `_LINES` is one leg (direction, sector, outward columns,
        switch) for x >= 0; a switch None stands for r0.  M(x direction)
        = Mhat diag(e^{logs_j}), each column of Mhat at unit max, so
        kernel forms never overflow; the rows follow the points.  At or
        beyond the switch M is the series frame.  Below it the outward
        (dominant) columns come from one sweep outward from M(0) =
        C_sector, the others (swamped there by the dominant ones'
        roundoff) from one sweep inward from the series frame at r0, so a
        value depends on x alone, not on the request or on what was asked
        before.  A point x < 0 is the mirror of |x| (`MIRROR`): its row is
        D conj(Mhat(|x|)) D with the same logs, which needs the line to
        be its own mirror image, sign conj(direction) = -direction.  A
        non-finite point raises ValueError.
        """
        _finite(points=points)
        x = np.asarray(points, dtype=float).reshape(-1)
        direction, sector, outward_cols, switch = self._LINES[line]
        sign, D = self.MIRROR
        neg = x < 0.0
        if neg.any() and sign * complex(direction).conjugate() != -direction:
            raise ValueError(f"line {line!r} has no points x < 0")
        r = np.abs(x)
        Mhat = np.empty((len(x), self.dim, self.dim), dtype=complex)
        logs = np.empty((len(x), self.dim))
        near = r < (self.r0 if switch is None else switch)
        if near.any():
            idx, rn = np.flatnonzero(near)[:, None], r[near]
            inward_cols = tuple(j for j in range(self.dim) if j not in outward_cols)
            for cols, r_from in ((outward_cols, 0.0), (inward_cols, self.r0)):
                if cols:
                    Y, lY = self.sweep(direction, sector, cols, r_from).at(rn)
                    Mhat[idx, :, cols], logs[idx, cols] = Y.transpose(0, 2, 1), lY
        for i, u in zip(np.flatnonzero(~near), r[~near].tolist()):
            Mhat[i], logs[i] = balance_columns(*self._series_frame(u * direction, sector))
        Mhat[neg] = D @ Mhat[neg].conj() @ D
        return Mhat, logs

    def phi(self, zeta) -> np.ndarray:
        """The fundamental solution Phi(zeta), with Phi(0) = I.

        zeta may be a scalar or an array; an array of shape S gives an
        array of shape S + (d, d) from one batched transport.  A non-finite
        zeta raises ValueError, and where Phi exceeds the double range it
        raises IntegrationFailure, each naming zeta.
        """
        _finite(zeta=zeta)
        z = np.asarray(zeta, dtype=complex)
        flat = z.reshape(-1)
        r = np.abs(flat)
        out = np.tile(np.eye(self.dim, dtype=complex), (len(flat), 1, 1))
        far = r >= 1e-14
        if far.any():
            P, logs = self.transport(flat[far] / r[far], r[far, None])
            with np.errstate(over="ignore", invalid="ignore"):
                out[far] = P[:, 0] * np.exp(logs[:, 0, None, :])
        bad = flat[~np.isfinite(out).all(axis=(1, 2))]
        if bad.size:
            raise IntegrationFailure(
                f"Phi exceeds the double range at zeta = {complex(bad[0])}")
        return out.reshape(z.shape + (self.dim, self.dim))

    # -- chain solve -------------------------------------------------------

    def _equations(self) -> tuple[np.ndarray, np.ndarray]:
        """(A, scale) per anchor [direction, radius]: its equations Phi C_sector = A.

        They are Phi e^g C = F diag(e^{gf}) over e^g; gf and g track the
        same dominant growth.  All d^2 equations of an anchor are divided
        by one scale, its largest |A|, so columns exponentially recessive
        there (which a floating-point Phi cannot resolve) carry negligible
        weight; every mode is dominant at some anchor on the circle.
        """
        _, g, F, gf = self._anchors
        A = F * np.exp(gf - g[..., None])[..., None, :]
        return A, np.max(np.abs(A), axis=(-2, -1))

    def _solve_chain(self, break_rays: tuple) -> tuple[list[np.ndarray], float]:
        """(C, condition number) of the fit with the chain cut at break_rays.

        Sector k's group starts at the last cut rep <= k, cyclically.
        """
        n, d = len(self.RAYS), self.dim
        cuts = sorted(r % n for r in break_rays) or [0]
        W = np.empty((n, d, d), dtype=complex)
        for k in np.arange(cuts[0], cuts[0] + n) % n:
            W[k] = np.eye(d) if k in cuts else W[k - 1] @ self.JUMPS[k]
        group = (np.searchsorted(cuts, np.arange(n), side="right") - 1) % len(cuts)
        A, scale = self._equations()
        # every anchor's kron(Phi, W^T), acting on the row-major vec(C), in its group's columns
        kron = np.einsum("imab,iec->imacbe", self._anchors[0], W[self._sector])
        kron /= scale[..., None, None, None, None]
        system = np.zeros(scale.shape + (d, d, len(cuts), d, d), dtype=complex)
        system[np.arange(len(kron)), :, :, :, group[self._sector]] = kron
        sol, _, _, sv = np.linalg.lstsq(system.reshape(-1, len(cuts) * d * d),
                                        (A / scale[..., None, None]).reshape(-1), rcond=None)
        X = sol.reshape(len(cuts), d, d)
        return [X[group[k]] @ W[k] for k in range(n)], float(sv[0] / sv[-1])

    def split_solve(self, ray: int) -> list[np.ndarray]:
        """Sector constants with the chain cut at `ray` and the opposite ray."""
        half = len(self.RAYS) // 2
        key = ray % half
        if key not in self._split_cache:
            self._split_cache[key] = self._solve_chain((key, key + half))[0]
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
        return self.phi(zeta) @ np.asarray(self.C)[sector]

    def matching_residual(self, k: int) -> float:
        """Normalized residual of the asymptotic match in sector k."""
        A, scale = self._equations()
        mine = self._sector == k
        diff = (self._anchors[0][mine] @ self.C[k] - A[mine]) / scale[mine][..., None, None]
        return float(np.max(np.abs(diff)))

    def _sides(self, ray: int, radius: float) -> tuple[np.ndarray, np.ndarray]:
        """(Y_+, Y_-) on the ray at the radius, with the chain cut there."""
        constants = self.split_solve(ray)
        Phi = self.phi(radius * cmath.exp(1j * self.RAYS[ray]))
        return Phi @ constants[ray], Phi @ constants[ray - 1]

    def measured_jump(self, ray: int, radius: float) -> np.ndarray:
        """Y_-^{-1} Y_+ on the ray, with the chain cut there (honest)."""
        plus, minus = self._sides(ray, radius)
        return np.linalg.solve(minus, plus)

    def jump_residual(self, ray: int, radius: float) -> float:
        """max |Y_+ - Y_- J_ray| at the given radius, chain cut at the ray."""
        plus, minus = self._sides(ray, radius)
        return float(np.max(np.abs(plus - minus @ self.JUMPS[ray])))


# -- the kernel form ---------------------------------------------------------


def _coincident(u, v) -> np.ndarray:
    """|u - v| <= _COINCIDE_EPS max(1, |u|): the pairs read as the diagonal."""
    return np.abs(u - v) <= _COINCIDE_EPS * np.maximum(1.0, np.abs(u))


def kernel_form(solver, line: str, u, v, dz: complex, row, col):
    """row M(dz u)^{-1} M(dz v) col / (2 pi i (u - v)) per pair of u and v.

    u and v broadcast; the result has their shape, a complex for
    scalars.  `solver.m_balanced(points, line)` gives the balanced
    factors (Mhat, logs) of M at the distinct points of the pairs.  A
    coincident pair (`_coincident`) is read at its midpoint a, where the
    value is the derivative limit -row M^{-1} (dz L(dz a)) M col /
    (2 pi i), from dM/dzeta = L M with L = `solver.lax`, and row . col
    = 0.  Only the entries on the columns that row and col select are
    formed, so exponent differences of unused columns never enter.
    """
    u, v = np.broadcast_arrays(np.asarray(u, dtype=float), np.asarray(v, dtype=float))
    same, m = _coincident(u, v).ravel(), 0.5 * (u + v).ravel()
    a, b = np.where(same, m, u.ravel()), np.where(same, m, v.ravel())
    points = np.sort(np.concatenate([a, b]))
    points = points[np.diff(points, prepend=-np.inf) > 0.0]      # drop repeats
    Mhat, logs = solver.m_balanced(points, line)
    ia, ib = np.searchsorted(points, a), np.searchsorted(points, b)
    Ma, la, Mb, lb = Mhat[ia], logs[ia], Mhat[ib], logs[ib]
    Z = np.empty_like(Ma)
    if not same.all():
        Z[~same] = np.linalg.solve(Ma[~same], Mb[~same])
    if same.any():
        Md = Ma[same]
        Z[same] = -np.linalg.solve(Md, dz * solver.lax(dz * a[same]) @ Md)
    i = np.flatnonzero((row != 0.0) | (col != 0.0))
    scale = np.exp(lb[:, None, i] - la[:, i, None])
    num = row[i] @ (Z[:, i[:, None], i] * scale) @ col[i]
    K = num / np.where(same, 2.0j * math.pi, 2.0j * math.pi * (a - b))
    return complex(K[0]) if u.shape == () else K.reshape(u.shape)
