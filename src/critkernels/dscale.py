"""Double-scaling evaluation of K_cr deep in the Painleve II regime.

At (s, t) = (a^2/2, -a(1 - sigma/a^2)) with a large, the deformation
parameters leave the directly solvable range: the fundamental solution
of the Lax system spans hundreds of e-folds and the model RH problem
cannot be solved in double precision.  This module evaluates the kernel
there through the steepest-descent chain instead of the raw problem:

  M1(z) = D_a M(a^2 z)         (rescaling; jumps now accumulate at 0, +-1)
  M2    = lens opening          (rays re-rooted at +-1)
  M3    = E0 M2 diag(e^{-a^3 g_j})   (g-function normalization)
  M4    = M3 P^{-1}             (local/global parametrices stripped)

with the g-functions

  g1 = -(2/3)(1-z)^{3/2} - p z,   g2 = -(2/3)(1+z)^{3/2} + p z,
  g3 = +(2/3)(1-z)^{3/2} - p z,   g4 = +(2/3)(1+z)^{3/2} + p z,
  p  = 1 - sigma/a^2,

the outer parametrix P_inf(z) = diag((1-z)^{-1/4}, (1+z)^{-1/4},
(1-z)^{1/4}, (1+z)^{1/4}) A, a Painleve II parametrix on a disk U0
around the origin built from Psi(i a f1(z); nu(z)) with the conformal
map f1 = ((1/4)((1-z)^{3/2} - (1+z)^{3/2}) + (3/4)z)^{1/3} and local
parameter nu(z) = sigma z / f1(z), and Airy parametrices on disks
around +-1 in the exact local variable xi = a^2 (1 -+ z).  Each local
parametrix is P_inf B with a bracket B (`u0_bracket`, `airy_bracket`)
that tends to I on its circle, so the residual problem for M4 has two
kinds of jump, one formula each on arrays of nodes:

  circles:  J = P_inf B^{-1} P_inf^{-1}, close to I;
  segments: J = W (I + c e^{a^3 (g_i - g_j)} E_ij) W^{-1}, W = P_inf
            (P_inf B_U0 inside U0), the exponentially small remnants
            of the lens rays and of the real axis.

It is solved as R_- = I + C_-[R_-(J - I)] by restarted GMRES (`_gmres`,
Arnoldi with Givens rotations) with Laurent-mode Cauchy projections on the
circles and Legendre expansions with exact principal-value weights on the
segments (Olver, Numer. Math. 122 (2012)).  The contour is a half H and
its exact negation -H, node for node, so C_- = [[A, B], [B, A]] with
A = C_HH and B = C_H,-H: the build stores A + B and A - B only, and each
apply is two half-size products (`_mirror_apply`).  The jumps have no
such symmetry and are computed on every node.

The kernel is then the K_cr form `sectoral.kernel_form` in M3 = R P; the
overall conjugation by e^{a^3 (g1+g2)/2} (which cancels in the diagonal
and in 2x2 determinants) is stripped, so off-diagonal values are
reported up to that conjugation.

The Airy model parametrix is exact: with omega = e^{2 pi i/3},
vA = (Ai(xi), Ai'(xi)), vB = (Ai(omega^2 xi), omega^2 Ai'(omega^2 xi)),
vC = (Ai(omega xi), omega Ai'(omega xi)) and constants
c1 = sqrt(2 pi) e^{-i pi/4}, c2 = sqrt(2 pi) e^{i pi/12},
c3 = sqrt(2 pi) e^{5 i pi/12}, the sector solutions are
[c1 vA, c2 vB] on (0, 2pi/3), [c1 vA - c2 vB, c2 vB] on (2pi/3, pi),
[c2 vB, c3 vC] on (-pi, -2pi/3) and [c1 vA, c3 vC] on (-2pi/3, 0);
the connection formula makes every column numerically stable in its
sector and gives the Stokes jumps exactly.  Ai and Ai' come from exact
Taylor steps of y'' = xi y (`_airy`): outward from Ai(0) where Ai is
dominant or oscillatory, inward from its asymptotic series where it is
recessive.
"""

from __future__ import annotations

import cmath
import functools
import math
from typing import NamedTuple

import numpy as np
from numpy.polynomial import legendre
from numpy.polynomial.polynomial import polyval

from . import laxpair
from .errors import DomainRestriction, IntegrationFailure, _finite
from .piisolver import PII_COL, PII_ROW, get_pii_solver
from .rhsolver import CR_COL, CR_ROW
from .sectoral import _coincident, kernel_form

__all__ = ["DoubleScaling", "double_scaling_gap"]

_A4 = laxpair._A
_OMEGA = cmath.exp(2j * cmath.pi / 3.0)
_SQ2PI = math.sqrt(2.0 * math.pi)
_C1 = _SQ2PI * cmath.exp(-1j * cmath.pi / 4.0)
_C2 = _SQ2PI * cmath.exp(1j * cmath.pi / 12.0)
_C3 = _SQ2PI * cmath.exp(5j * cmath.pi / 12.0)
# N of Phi_A ~ xi^{-s3/4} N e^{-(2/3)xi^{3/2} s3}: column 1 from
# Ai(xi) ~ xi^{-1/4} e^{-(2/3)xi^{3/2}} / (2 sqrt(pi)) and Ai' ~ -xi^{1/2} Ai,
# column 2 from the same at omega^2 xi, where (omega^2 xi)^{3/2} = -xi^{3/2}
_N2_INV = np.linalg.inv(cmath.exp(-1j * cmath.pi / 4.0) / math.sqrt(2.0)
                        * np.array([[1.0, 1j], [-1.0, 1j]]))
_S1 = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
_S3 = np.diag([1.0, -1.0]).astype(complex)
_N_CIRCLE = 160          # nodes on the circle about 0; the circles about +-1 get half
_N_SEG = 24              # Gauss-Legendre nodes per straight contour piece
_GMRES_RTOL, _GMRES_RESTART, _GMRES_MAXITER = 1e-11, 80, 400
_R_SERIES = 9.5          # |w| from which 30 terms of the Ai series are at roundoff
_N_TAYLOR = 36           # Taylor terms per step of y'' = w y
# u_k, v_k of Ai ~ e^{-zeta} sum u_k (-zeta)^{-k} / (2 sqrt(pi) w^{1/4}) and Ai' ~
# -w^{1/4} e^{-zeta} sum v_k (-zeta)^{-k} / (2 sqrt(pi)), zeta = (2/3) w^{3/2} (DLMF 9.7)
_U = np.cumprod([1.0] + [(6 * k - 5) * (6 * k - 3) * (6 * k - 1) / (216.0 * k * (2 * k - 1))
                         for k in range(1, 30)])
_V = _U * np.array([1.0] + [-(6 * k + 1) / (6 * k - 1) for k in range(1, 30)])


def _airy(w) -> tuple[np.ndarray, np.ndarray]:
    """(Ai(w), Ai'(w)) at an array of w, each marched along its ray the way Ai grows.

    Recessive points (|arg w| < pi/3) start from the series at |w| = _R_SERIES,
    or at w if farther out, the others from Ai(0).  All take the same number
    of exact Taylor steps of y'' = w y, h <= 1 with h sqrt|w| <= 4, so the
    omitted terms are below 4^36/36! (about 5e-19) of the step's start.
    """
    w = np.asarray(w, dtype=complex)
    flat, ang = w.ravel(), np.angle(w.ravel())
    rec = np.abs(ang) < math.pi / 3.0
    start = np.where(rec, np.where(np.abs(flat) < _R_SERIES, _R_SERIES * np.exp(1j * ang),
                                   flat), 0.0)
    y = np.full(flat.shape, 3.0 ** (-2.0 / 3.0) / math.gamma(2.0 / 3.0), dtype=complex)
    yp = np.full(flat.shape, -(3.0 ** (-1.0 / 3.0)) / math.gamma(1.0 / 3.0), dtype=complex)
    zeta = (2.0 / 3.0) * start[rec] ** 1.5
    q, e = start[rec] ** 0.25, np.exp(-zeta) / (2.0 * math.sqrt(math.pi))
    y[rec], yp[rec] = e / q * polyval(-1.0 / zeta, _U), -q * e * polyval(-1.0 / zeta, _V)
    go = np.flatnonzero(flat != start)
    z, end = start[go], flat[go]
    n = math.ceil(np.max(np.abs(end - z) * np.maximum(1.0, np.abs(end) ** 0.5 / 4), initial=0))
    dz = (end - z) / n
    dz3 = dz ** 3
    # c_m = a_m dz^m for y(z + s) = sum a_m s^m: (m+2)(m+1) a_{m+2} = z a_m + a_{m-1}
    c = np.empty((_N_TAYLOR, go.size), dtype=complex)
    c[0], c[1] = y[go], yp[go] * dz
    for _ in range(n):
        p = z * dz * dz
        c[2] = 0.5 * p * c[0]
        for m in range(3, _N_TAYLOR):
            c[m] = (p * c[m - 2] + dz3 * c[m - 3]) / (m * (m - 1))
        c[0], c[1] = c.sum(axis=0), np.arange(_N_TAYLOR) @ c
        z = z + dz
    y[go], yp[go] = c[0], c[1] / dz
    return y.reshape(w.shape), yp.reshape(w.shape)


def airy_model(xi) -> np.ndarray:
    """Exact Airy model parametrix, Phi ~ xi^{-s3/4} N e^{-(2/3)xi^{3/2} s3}.

    xi is a scalar or an array; the result has shape xi.shape + (2, 2).
    """
    xi = np.asarray(xi, dtype=complex)
    ang = np.angle(xi)[..., None]
    ai, aip = _airy(np.stack([xi, _OMEGA ** 2 * xi, _OMEGA * xi]))
    vA, vB, vC = (c * np.stack([ai[k], w * aip[k]], axis=-1)
                  for k, (c, w) in enumerate(((_C1, 1.0), (_C2, _OMEGA ** 2), (_C3, _OMEGA))))
    first = np.where(ang > 2.0 * math.pi / 3.0, vA - vB,
                     np.where(ang < -2.0 * math.pi / 3.0, vB, vA))
    return np.stack([first, np.where(ang >= 0.0, vB, vC)], axis=-1)


@functools.cache
def _circle_cauchy_minus(n: int) -> np.ndarray:
    """C_- on n equispaced nodes of a ccw circle, any centre and radius.

    The minus side is the exterior: C_- keeps the negative Laurent modes
    with a minus sign, which on equispaced nodes is the circulant
    M[i, j] = m[i - j], m_j = -(1/n) sum_{k >= (n+1)//2} e^{2 pi i jk/n}.
    """
    j, k = np.arange(n)[:, None], np.arange((n + 1) // 2, n)
    m = -np.exp((2j * np.pi / n) * (j * k % n)).sum(axis=1) / n
    out = m[np.subtract.outer(np.arange(n), np.arange(n)) % n]
    out.setflags(write=False)
    return out


_gauss_legendre = functools.cache(legendre.leggauss)     # shared arrays: never written


@functools.cache
def _segment_cauchy_minus(n: int) -> np.ndarray:
    """C_- on the n Gauss-Legendre nodes of a straight segment, any end points.

    The density is expanded in Legendre polynomials P_k; the principal
    values of P_k are -Q_k, with the Legendre functions of the second
    kind from their three-term recurrence.
    """
    t, wq = _gauss_legendre(n)
    L = ((2.0 * np.arange(n) + 1.0) / 2.0)[:, None] * legendre.legvander(t, n - 1).T * wq
    Q = np.zeros((n, n))
    Q[:, 0] = np.log((1.0 - t) / (1.0 + t))
    Q[:, 1] = 2.0 + t * Q[:, 0]
    for k in range(1, n - 1):
        Q[:, k + 1] = ((2 * k + 1.0) * t * Q[:, k] - k * Q[:, k - 1]) / (k + 1.0)
    out = (Q @ L) / (2j * np.pi) - 0.5 * np.eye(n)
    out.setflags(write=False)
    return out


class _Piece(NamedTuple):
    """A discretized contour piece: nodes, complex weights, C_- on its nodes."""

    nodes: np.ndarray
    weights: np.ndarray
    cminus: np.ndarray


def _circle(c: float, rho: float, n: int) -> _Piece:
    e = np.exp(1j * (2.0 * np.pi * np.arange(n) / n))
    return _Piece(c + rho * e, 1j * rho * e * (2.0 * np.pi / n), _circle_cauchy_minus(n))


def _segment(A: complex, B: complex) -> _Piece:
    t, wq = _gauss_legendre(_N_SEG)
    mid, half = 0.5 * (A + B), 0.5 * (B - A)
    return _Piece(mid + half * t, half * wq, _segment_cauchy_minus(_N_SEG))


def _gmres(apply, b: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
    """(x, b - apply(x), Arnoldi steps) with |b - apply(x)| <= _GMRES_RTOL |b|.

    Restarted GMRES from x = 0; Givens rotations make |g[j+1]| the residual
    after step j.  Raises IntegrationFailure after _GMRES_MAXITER cycles, or
    once a cycle leaves the residual as it was, since the next repeats it.
    """
    tol = _GMRES_RTOL * np.linalg.norm(b)
    x, r, steps, last = np.zeros_like(b), b, 0, math.inf
    for _ in range(_GMRES_MAXITER):
        beta = np.linalg.norm(r)
        if beta <= tol:
            return x, r, steps
        if beta >= last:
            break
        last = beta
        V = np.empty((_GMRES_RESTART + 1, b.size), dtype=complex)
        H = np.zeros((_GMRES_RESTART + 1, _GMRES_RESTART), dtype=complex)
        G = np.empty((_GMRES_RESTART, 2, 2), dtype=complex)
        g = np.zeros(_GMRES_RESTART + 1, dtype=complex)
        V[0], g[0] = r / beta, beta
        for j in range(_GMRES_RESTART):
            v = apply(V[j])
            for _ in range(2):
                c = (V[:j + 1] @ v.conj()).conj()
                v -= c @ V[:j + 1]
                H[:j + 1, j] += c
            norm = np.linalg.norm(v)
            for i in range(j):
                H[i:i + 2, j] = G[i] @ H[i:i + 2, j]
            rho = math.hypot(abs(H[j, j]), norm)
            G[j] = np.array([[H[j, j].conjugate(), norm], [-norm, H[j, j]]]) / rho
            H[j, j], g[j:j + 2] = rho, G[j] @ g[j:j + 2]
            if abs(g[j + 1]) <= tol:
                break
            V[j + 1] = v / norm
        steps += j + 1
        x = x + np.linalg.solve(H[:j + 1, :j + 1], g[:j + 1]) @ V[:j + 1]
        r = b - apply(x)
    raise IntegrationFailure(f"GMRES stopped at residual {np.linalg.norm(r):.3g} (tolerance "
                             f"{tol:.3g}) after {steps} steps")


def _mirror_apply(Cp: np.ndarray, Cm: np.ndarray, F: np.ndarray) -> np.ndarray:
    """C F for C = [[A, B], [B, A]] from Cp = A + B and Cm = A - B, F of 2m rows.

    With U = Cp (F_top + F_bottom) and V = Cm (F_top - F_bottom), C F is
    (1/2) [U + V; U - V]: two m x m products in place of one 2m x 2m.
    """
    top, bottom = F[:len(Cp)], F[len(Cp):]
    U, V = Cp @ (top + bottom), Cm @ (top - bottom)
    return 0.5 * np.concatenate([U + V, U - V])


class DoubleScaling:
    """Kernel evaluator at (s, t) = (a^2/2, -a(1 - sigma/a^2)), a >= 2; U0 radius eps."""

    def __init__(self, a: float, sigma: float, eps: float = 0.64):
        _finite(a=a, sigma=sigma, eps=eps)
        self.a = float(a)
        self.sigma = float(sigma)
        self.p = 1.0 - sigma / a ** 2
        self.nu0 = 2.0 ** (5.0 / 3.0) * sigma
        self.pii = get_pii_solver(self.nu0)
        self.q_nu = self.pii.qp
        self.eps = float(eps)
        self.delta = min(0.97 - self.eps, 0.32)
        self._build_contour()
        self._solve()

    # -- geometry; z is a scalar or an array throughout --------------------

    def gs(self, z) -> np.ndarray:
        """(g1, g2, g3, g4) at z, stacked on a leading axis."""
        z = np.asarray(z, dtype=complex)
        r1 = (2.0 / 3.0) * (1.0 - z) ** 1.5
        r2 = (2.0 / 3.0) * (1.0 + z) ** 1.5
        pz = self.p * z
        return np.stack([-r1 - pz, -r2 + pz, r1 - pz, r2 + pz])

    def g(self, z, j: int):
        return self.gs(z)[j - 1]

    @staticmethod
    def _h(z):
        """h = ((1/4)((1-z)^{3/2}-(1+z)^{3/2}) + (3/4)z)/z^3, so f1 = z h^{1/3}."""
        small = np.abs(z) < 0.02
        zb = np.where(small, 1.0, z)      # keeps the discarded branch finite
        # near 0, its series 1/32 - (3/512) z^2
        return np.where(small, 1.0 / 32.0 - (3.0 / 512.0) * z * z,
                        (0.25 * ((1.0 - zb) ** 1.5 - (1.0 + zb) ** 1.5) + 0.75 * zb) / zb ** 3)

    def f1(self, z):
        z = np.asarray(z, dtype=complex)
        return z * self._h(z) ** (1.0 / 3.0)

    def nu_of(self, z):
        """nu = sigma z / f1(z) = sigma / h^{1/3}, finite at z = 0: nu(0) = nu0."""
        return self.sigma / self._h(np.asarray(z, dtype=complex)) ** (1.0 / 3.0)

    def p_inf(self, z) -> np.ndarray:
        z = np.asarray(z, dtype=complex)
        d = np.stack([(1.0 - z) ** -0.25, (1.0 + z) ** -0.25,
                      (1.0 - z) ** 0.25, (1.0 + z) ** 0.25], axis=-1)
        return d[..., None] * _A4

    # -- local parametrix brackets -----------------------------------------

    def psi_local(self, z) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(w, nu, Psi(w; nu)) with w = i a f1(z) and nu = nu(z) at every z.

        Psi comes from one batched `psi` call at nu0 and a second-order
        Taylor expansion in nu around it.
        """
        w = 1j * self.a * self.f1(z)
        nu = self.nu_of(z)
        d = (nu - self.nu0)[..., None, None]
        B = -1j * w[..., None, None] * _S3 + self.pii.q * _S1
        corr = np.eye(2, dtype=complex) + d * B + 0.5 * d * d * (self.q_nu * _S1 + B @ B)
        return w, nu, corr @ self.pii.psi(w)

    def u0_bracket(self, z) -> np.ndarray:
        """B_U0 = P_inf^{-1} P0 = blockdiag(Psi e^{theta s3}, Theta e^{zeta2 s3}).

        Both blocks are bounded: Psi(a f1; nu) e^{theta s3} with
        theta = i((4/3) w^3 + nu w), and the closed form of
        Theta(zeta2) diag(e^{zeta2}, e^{-zeta2}), zeta2 = a^3 (g4 - g3)/2,
        whose only off-diagonal entry is exponentially small.
        """
        w, nu, psi = self.psi_local(z)
        th = 1j * ((4.0 / 3.0) * w ** 3 + nu * w)
        out = np.zeros(w.shape + (4, 4), dtype=complex)
        out[..., :2, :2] = psi * np.stack([np.exp(th), np.exp(-th)], axis=-1)[..., None, :]
        G = self.gs(z)
        z2 = self.a ** 3 * (0.5 * (G[3] - G[2]))
        ang = np.abs(np.angle(z2))
        small = -np.exp(-2.0 * np.sign(z2.real) * z2)
        out[..., 2, 2] = out[..., 3, 3] = 1.0
        out[..., 2, 3] = np.where(ang < math.pi / 3.0, small, 0.0)
        out[..., 3, 2] = np.where(ang > 2.0 * math.pi / 3.0, small, 0.0)
        return out

    def airy_bracket(self, z) -> np.ndarray:
        """N^{-1} xi^{s3/4} Phi_A e^{(2/3)xi^{3/2} s3} at +1, embedded in I_4.

        xi = a^2 (1 - z); it fills rows and columns (1, 3).  The bracket
        at -1, in xi = a^2 (1 + z), is the same in rows and columns (2, 4).
        """
        z = np.asarray(z, dtype=complex)
        xi = self.a ** 2 * (1.0 - z)
        r34 = (2.0 / 3.0) * xi * np.sqrt(xi)
        pref = np.stack([xi ** 0.25, xi ** -0.25], axis=-1)[..., None]
        expf = np.stack([np.exp(r34), np.exp(-r34)], axis=-1)[..., None, :]
        out = np.broadcast_to(np.eye(4, dtype=complex), z.shape + (4, 4)).copy()
        out[..., [[0], [2]], [0, 2]] = _N2_INV @ (pref * airy_model(xi) * expf)
        return out

    # -- contour and jumps -------------------------------------------------

    def _ray_exit_angle(self, base: float) -> float:
        """Angle theta with arg f1(eps e^{i theta}) = base (lens exit point)."""
        th = base
        for _ in range(40):
            step = base - cmath.phase(self.f1(self.eps * cmath.exp(1j * th)))
            th += step
            if abs(step) < 1e-13:
                break
        return th

    def _build_contour(self):
        """Nodes, weights and jumps: a half H of m nodes, then -H in the same order.

        H is the origin circle's nodes at angles in [0, pi), the +1 circle
        and the straight pieces on the right: the origin-lens rays at the
        exit angles of +-pi/3, the +1 Airy-lens rays and the real axis
        x > 0.  Negation keeps every piece's orientation, and the mirror of
        piece (i, j, c) carries (swap[i], swap[j], c), swap = [1, 0, 3, 2].
        Every jump on -H is evaluated at its own node, not mirrored from H
        (the -1 Airy bracket reuses the +1 one, whose xi is the same).
        `circles` names the node indices of the circles about 0 (in angle
        order), +1 and -1; `straight` holds those of the straight pieces,
        _N_SEG per piece, and `straight_ij` the (i, j) of E_ij on each.
        """
        eps, delta, h = self.eps, self.delta, _N_CIRCLE // 2
        origin, plus = _circle(0.0, eps, _N_CIRCLE), _circle(1.0, delta, h)
        # straight pieces (piece, i, j, c, inside U0), with G = gs(z): the jump
        # W (I + c e^{a^3 (G_i - G_j)} E_ij) W^{-1} = I + c e^.. W[:, i] W^{-1}[j, :]
        straight = []
        r_out = max(2.2, (25.0 * 12.0 / self.a ** 3) ** (1.0 / 3.0))
        mid = min(1.15, 0.5 * (eps + r_out))
        # origin-lens remnants (straight rays from the exit points)
        for base, c in ((math.pi / 3.0, -1.0), (-math.pi / 3.0, 1.0)):
            d = cmath.exp(1j * self._ray_exit_angle(base))
            straight += [(_segment(eps * d, mid * d), 1, 0, c, False),
                         (_segment(mid * d, r_out * d), 1, 0, c, False)]
        # Airy-lens remnants from the junctions on the +1 circle
        for base in (math.pi / 3.0, -math.pi / 3.0):
            d = cmath.exp(1j * base)
            straight.append((_segment(1.0 + delta * d, 1.0 + d), 2, 0, 1.0, False))
        # real-axis remnants, split at the U0 boundary
        xin = 1.0 - (25.0 * 3.0 / (4.0 * self.a ** 3)) ** (2.0 / 3.0)
        xin = min(max(xin, 0.05), eps - 0.02)
        straight += [(_segment(xin, eps), 0, 2, 1.0, True),
                     (_segment(eps, 1.0 - delta), 0, 2, 1.0, False)]

        segs, ii, jj, cc, inside = zip(*straight)
        zH = np.concatenate([origin.nodes[:h], plus.nodes] + [pc.nodes for pc in segs])
        wH = np.concatenate([origin.weights[:h], plus.weights] + [pc.weights for pc in segs])
        m, swap = len(zH), np.array([1, 0, 3, 2])
        self.nodes, self.weights = np.concatenate([zH, -zH]), np.concatenate([wH, -wH])
        self.ntot = 2 * m
        self.circles = {"origin": np.r_[:h, m:m + h], "+1": np.arange(h, 2 * h),
                        "-1": np.arange(m + h, m + 2 * h)}
        # C_- on H's own pieces, (row, column, block) in the top m rows of C:
        # the origin circle's circulant meets both halves
        ofs = np.cumsum([2 * h] + [len(pc.nodes) for pc in segs])
        self._self_blocks = ([(0, 0, origin.cminus[:h, :h]), (0, m, origin.cminus[:h, h:]),
                              (h, h, plus.cminus)]
                             + [(o, o, pc.cminus) for o, pc in zip(ofs, segs)])

        # straight nodes of H then of -H, with their (i, j, c, inside U0)
        ii, jj, cc, inside = (np.repeat(v, _N_SEG) for v in (ii, jj, cc, inside))
        ii, jj = np.concatenate([ii, swap[ii]]), np.concatenate([jj, swap[jj]])
        cc, inside = np.tile(cc, 2), np.tile(inside, 2)
        self.straight, self.straight_ij = np.r_[2 * h:m, m + 2 * h:2 * m], np.stack([ii, jj], -1)
        z2 = self.nodes.reshape(2, m)
        zc, zs = z2[:, :2 * h].ravel(), z2[:, 2 * h:].ravel()
        # the U0 bracket of every node that needs it, from one psi call
        z0 = z2[:, :h].ravel()
        B0 = self.u0_bracket(np.concatenate([z0, zs[inside]]))
        # xi = a^2 (1 + z) on the -1 circle is xi = a^2 (1 - z) on the +1
        # circle at the mirror node: the bracket of +1, moved to rows/columns (2, 4)
        Bp = self.airy_bracket(plus.nodes)
        Bm = Bp[:, swap][:, :, swap]
        B = np.concatenate([B0[:h], Bp, B0[h:2 * h], Bm])
        P = self.p_inf(zc)
        J_circles = P @ np.linalg.inv(B) @ np.linalg.inv(P)
        W = self.p_inf(zs)
        W[inside] = W[inside] @ B0[2 * h:]
        k = np.arange(len(zs))
        G = self.gs(zs)
        e = cc * np.exp(self.a ** 3 * (G[ii, k] - G[jj, k]))
        J_straight = np.eye(4) + (e[:, None, None] * W[k, :, ii][:, :, None]
                                  * np.linalg.inv(W)[k, jj][:, None, :])
        self.jumps = np.concatenate([J_circles.reshape(2, 2 * h, 4, 4),
                                     J_straight.reshape(2, -1, 4, 4)], axis=1).reshape(-1, 4, 4)

    # -- singular-integral solve ------------------------------------------

    def _cauchy_matrix(self) -> tuple[np.ndarray, np.ndarray]:
        """(Cp, Cm) = C_HH +- C_H,-H, from the top m = ntot/2 rows of C_-.

        Off the self blocks C[i, k] = w_k / (2 pi i (z_k - z_i)).  Negating
        nodes and weights leaves that unchanged, and the self blocks of -H
        are those of H, so C = [[C_HH, C_H,-H], [C_H,-H, C_HH]].
        """
        m = self.ntot // 2
        # zeroed pages, not a malloc'd temporary: lower peak RSS over rebuilds
        C = np.zeros((m, self.ntot), dtype=complex)
        np.subtract(self.nodes, self.nodes[:m, None], out=C)
        C[np.diag_indices(m)] = 1.0      # inside the self blocks
        np.divide(self.weights / (2j * np.pi), C, out=C)
        for i0, j0, block in self._self_blocks:
            C[i0:i0 + block.shape[0], j0:j0 + block.shape[1]] = block
        Cp, Cm = C[:, :m], C[:, m:]
        Cp += Cm              # A + B
        Cm *= -2.0
        Cm += Cp              # (A + B) - 2B = A - B, with no second m x m buffer
        return Cp, Cm

    def _solve(self):
        Cp, Cm = self._cauchy_matrix()
        JmI = self.jumps - np.eye(4)[None, :, :]
        n = self.ntot

        def cauchy(F):
            return _mirror_apply(Cp, Cm, F.reshape(n, 16)).reshape(n, 4, 4)

        def apply(vec):
            X = vec.reshape(n, 4, 4)
            return (X - cauchy(X @ JmI)).reshape(-1)

        rhs = cauchy(JmI).reshape(-1)
        sol, resid, self.gmres_iterations = _gmres(apply, rhs)
        self.X = sol.reshape(n, 4, 4)          # R_- - I on the contour
        self.F = (np.eye(4) + self.X) @ JmI
        self.resid_norm = float(np.max(np.abs(resid)))

    def r_eval(self, z) -> np.ndarray:
        """R(z) off the contour at a scalar or an array of z, summed in node order."""
        z = np.asarray(z, dtype=complex)[..., None]
        ker = (self.weights / (self.nodes - z))[..., None, None] / (2j * np.pi)
        return np.eye(4, dtype=complex) + np.sum(ker * self.F, axis=-3)

    # -- kernel assembly ---------------------------------------------------

    def m_balanced(self, xs, line: str) -> tuple[np.ndarray, np.ndarray]:
        """(M3, zero logs) with M3(iu) = R(iu) P_inf(iu) Lambda(u), u = 2^{5/3} x/a.

        The line is "imag", the only one M3 is read on.  Lambda is
        blockdiag(Psi(w; nu), I) inside U0, from one `psi_local` call, and
        diag(e^d, e^{-d}, 1, 1), d = a^3 (g1 - g2)/2, outside.
        """
        us = 2.0 ** (5.0 / 3.0) / self.a * np.asarray(xs, dtype=float)
        z = 1j * us
        inside = np.abs(us) < self.eps
        lam = np.broadcast_to(np.eye(4, dtype=complex), z.shape + (4, 4)).copy()
        if inside.any():
            lam[inside, :2, :2] = self.psi_local(z[inside])[2]
        G = self.gs(z[~inside])
        d = 0.5 * self.a ** 3 * (G[0] - G[1])
        lam[~inside, 0, 0], lam[~inside, 1, 1] = np.exp(d), np.exp(-d)
        return self.r_eval(z) @ self.p_inf(z) @ lam, np.zeros(z.shape + (4,))

    def kernel(self, x, y):
        """Scaled kernel 2^{5/3} a K_cr(2^{5/3}a x, 2^{5/3}a y) (reduced).

        x and y are scalars or broadcastable arrays, as for `kernel_cr`,
        and the value is the K_cr form `sectoral.kernel_form` in M3, read
        by `m_balanced` in x.  M3 has no Lax matrix, so a pair that the
        form calls coincident is the mean over (m, m +- 1e-3) at its
        midpoint m.  Off-diagonal values carry the conjugation
        e^{a^3(h(x)-h(y))/2}, h = g1 + g2, which cancels in the diagonal,
        in products K(x,y)K(y,x), and in determinants.
        """
        x, y = np.broadcast_arrays(np.asarray(x, float), np.asarray(y, float))
        same, m = _coincident(x, y), 0.5 * (x + y)
        x, y, h = np.where(same, m, x), np.where(same, m, y), np.where(same, 1e-3, 0.0)
        K = kernel_form(self, "imag", x, np.stack([y + h, y - h]), 1.0, CR_ROW, CR_COL)
        K = 0.5 * (K[0] + K[1])
        return complex(K) if x.shape == () else K


def _choose_eps(us) -> float:
    # keep the Airy disks at radius >= 0.25 (so a^2 delta is large
    # enough for the local variable) while staying away from the
    # evaluation points iu on the imaginary axis
    cands = np.arange(0.50, 0.721, 0.02)
    us = np.abs(np.asarray(us, dtype=float))
    return float(max(cands, key=lambda e: min(abs(us - e).min(), 0.10) + 0.001 * e))


_cached_ds = functools.lru_cache(maxsize=8)(DoubleScaling)


def _ds_for(a: float, sigma: float, xs) -> DoubleScaling:
    c = 2.0 ** (5.0 / 3.0) / a
    return _cached_ds(float(a), float(sigma), _choose_eps(c * np.asarray(xs)))


def double_scaling_gap(a: float, sigma: float, x: float, y: float) -> float:
    """|det2 of the scaled K_cr minus det2 of K_PII(.,.; 2^{5/3} sigma)|.

    For x == y the 1x1 determinant (the diagonal value itself) is
    compared.  The scaled kernel is 2^{5/3} a K_cr(2^{5/3} a x,
    2^{5/3} a y; a^2/2, -a(1 - sigma/a^2)), evaluated through the
    steepest-descent representation (the direct evaluation is not
    numerically meaningful at these parameters).
    """
    _finite(a=a, sigma=sigma, x=x, y=y)
    if a < 2.0:
        raise DomainRestriction(
            "double_scaling_gap requires a >= 2 (below that the direct "
            "kernel_cr evaluation is the appropriate tool)")
    ds = _ds_for(a, sigma, (x, y))
    pts = np.array([x] if x == y else [x, y], dtype=float)
    k_s = ds.kernel(pts[:, None], pts)
    k_p = kernel_form(ds.pii, "real", pts[:, None], pts, 1.0, PII_ROW, PII_COL)

    def det(K):
        # the real diagonal and K01 K10 are free of the conjugation
        off = (K[0, 1] * K[1, 0]).real if len(K) > 1 else 0.0
        return K.diagonal().real.prod() - off

    return abs(det(k_s) - det(k_p))
