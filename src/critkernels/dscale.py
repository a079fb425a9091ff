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
around +-1 in the exact local variable xi = a^2 (1 -+ z).  The residual
problem for M4 has jumps close to the identity on the three circles plus
exponentially small ray remnants; it is solved as a singular integral
equation R_- = I + C_-[R_-(J - I)] by GMRES on a composite contour
(FFT Cauchy projections on the circles, Legendre expansions with
exact principal-value weights on the straight pieces).

The kernel is then assembled from M3 = R P with the balanced bilinear
form; the overall conjugation by e^{a^3 (g1+g2)/2} (which cancels in
the diagonal and in 2x2 determinants) is stripped, so off-diagonal
values are reported up to that conjugation.

The Airy model parametrix is exact: with omega = e^{2 pi i/3},
vA = (Ai(xi), Ai'(xi)), vB = (Ai(omega^2 xi), omega^2 Ai'(omega^2 xi)),
vC = (Ai(omega xi), omega Ai'(omega xi)) and constants
c1 = sqrt(2 pi) e^{-i pi/4}, c2 = sqrt(2 pi) e^{i pi/12},
c3 = sqrt(2 pi) e^{5 i pi/12}, the sector solutions are
[c1 vA, c2 vB] on (0, 2pi/3), [c1 vA - c2 vB, c2 vB] on (2pi/3, pi),
[c2 vB, c3 vC] on (-pi, -2pi/3) and [c1 vA, c3 vC] on (-2pi/3, 0);
the connection formula makes every column numerically stable in its
sector and gives the Stokes jumps exactly.
"""

from __future__ import annotations

import cmath
import functools
import math

import numpy as np
from numpy.polynomial import legendre
from scipy.special import airy
from scipy.sparse.linalg import LinearOperator, gmres

from . import laxpair, painleve
from .errors import DomainRestriction, IntegrationFailure
from .piisolver import get_pii_solver

__all__ = ["DoubleScaling", "double_scaling_gap"]

_A4 = laxpair._A
_A4_INV = np.linalg.inv(_A4)
_OMEGA = cmath.exp(2j * cmath.pi / 3.0)
_SQ2PI = math.sqrt(2.0 * math.pi)
_C1 = _SQ2PI * cmath.exp(-1j * cmath.pi / 4.0)
_C2 = _SQ2PI * cmath.exp(1j * cmath.pi / 12.0)
_C3 = _SQ2PI * cmath.exp(5j * cmath.pi / 12.0)
_N2 = np.array([[cmath.exp(-1j * cmath.pi / 4.0), cmath.exp(1j * cmath.pi / 4.0)],
                [cmath.exp(1j * cmath.pi / 4.0), cmath.exp(-1j * cmath.pi / 4.0)]],
               dtype=complex) / math.sqrt(2.0)
_N2_INV = np.linalg.inv(_N2)
_S1 = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
_S3 = np.diag([1.0, -1.0]).astype(complex)
_N_CIRCLE = 160          # nodes on the circle about 0; the circles about +-1 get half
_N_SEG = 24              # Gauss-Legendre nodes per straight contour piece


def airy_model(xi: complex) -> np.ndarray:
    """Exact Airy model parametrix, Phi ~ xi^{-s3/4} N e^{-(2/3)xi^{3/2} s3}."""
    ang = cmath.phase(xi)
    ai, aip, _, _ = airy(xi)
    vA = np.array([ai, aip], dtype=complex)
    if ang >= 0.0:
        ai2, aip2, _, _ = airy(_OMEGA ** 2 * xi)
        vB = np.array([ai2, _OMEGA ** 2 * aip2], dtype=complex)
        if ang <= 2.0 * math.pi / 3.0:
            return np.column_stack([_C1 * vA, _C2 * vB])
        return np.column_stack([_C1 * vA - _C2 * vB, _C2 * vB])
    ai1, aip1, _, _ = airy(_OMEGA * xi)
    vC = np.array([ai1, _OMEGA * aip1], dtype=complex)
    if ang >= -2.0 * math.pi / 3.0:
        return np.column_stack([_C1 * vA, _C3 * vC])
    ai2, aip2, _, _ = airy(_OMEGA ** 2 * xi)
    vB = np.array([ai2, _OMEGA ** 2 * aip2], dtype=complex)
    return np.column_stack([_C2 * vB, _C3 * vC])


class _Piece:
    """A discretized contour piece: nodes, complex weights, jump matrices."""

    def __init__(self, nodes, weights, kind, extra=None):
        self.nodes = np.asarray(nodes, dtype=complex)
        self.weights = np.asarray(weights, dtype=complex)
        self.kind = kind          # "circle" or "segment"
        self.extra = extra or {}
        self.jumps = None         # (n, 4, 4), filled by the owner

    def self_cauchy_minus(self) -> np.ndarray:
        """Dense matrix of the boundary value C_- on this piece's nodes."""
        n = len(self.nodes)
        if self.kind == "circle":
            # ccw circle: minus side is the exterior; C_- keeps the
            # negative Laurent modes with a minus sign.  On equispaced
            # nodes that projection is the circulant M[i, j] = m[i - j].
            m = -np.fft.ifft(np.arange(n) >= (n + 1) // 2)
            return m[np.subtract.outer(np.arange(n), np.arange(n)) % n]
        # straight segment: Legendre expansion + exact PV weights
        t = self.extra["t"]       # Gauss-Legendre nodes in [-1, 1]
        wq = self.extra["wq"]
        P = np.array([legendre.legval(t, [0.0] * k + [1.0]) for k in range(n)])
        L = ((2.0 * np.arange(n) + 1.0) / 2.0)[:, None] * P * wq[None, :]
        Q = np.zeros((n, n))
        q0 = np.log((1.0 - t) / (1.0 + t))
        Q[:, 0] = q0
        if n > 1:
            Q[:, 1] = 2.0 + t * q0
        for k in range(1, n - 1):
            Q[:, k + 1] = ((2 * k + 1.0) * t * Q[:, k] - k * Q[:, k - 1]) / (k + 1.0)
        return (Q @ L) / (2j * np.pi) - 0.5 * np.eye(n)


def _gauss_piece(A: complex, B: complex, n: int, kind="segment") -> _Piece:
    t, wq = np.polynomial.legendre.leggauss(n)
    mid, half = 0.5 * (A + B), 0.5 * (B - A)
    return _Piece(mid + half * t, half * wq, kind, {"t": t, "wq": wq})


class DoubleScaling:
    """Kernel evaluator at (s, t) = (a^2/2, -a(1 - sigma/a^2)), a >= 2."""

    def __init__(self, a: float, sigma: float, u_points=()):
        self.a = float(a)
        self.sigma = float(sigma)
        self.p = 1.0 - sigma / a ** 2
        self.nu0 = 2.0 ** (5.0 / 3.0) * sigma
        self.pii = get_pii_solver(complex(self.nu0))
        self.q_nu = complex(painleve.default_solution()(self.nu0)[1])
        self.eps = self._choose_eps(u_points)
        self.delta = min(0.97 - self.eps, 0.32)
        self._build_contour()
        self._solve()

    # -- scalar geometry ---------------------------------------------------

    def _choose_eps(self, u_points) -> float:
        # keep the Airy disks at radius >= 0.25 (so a^2 delta is large
        # enough for the local variable) while staying away from the
        # evaluation points on the imaginary axis
        cands = np.arange(0.50, 0.721, 0.02)
        if not len(u_points):
            return 0.64
        us = np.abs(np.asarray(u_points, dtype=float))
        best = max(cands, key=lambda e: min(abs(us - e).min(), 0.10) + 0.001 * e)
        return float(best)

    def g(self, z: complex, j: int) -> complex:
        z = complex(z)
        if j == 1:
            return -(2.0 / 3.0) * (1.0 - z) ** 1.5 - self.p * z
        if j == 2:
            return -(2.0 / 3.0) * (1.0 + z) ** 1.5 + self.p * z
        if j == 3:
            return (2.0 / 3.0) * (1.0 - z) ** 1.5 - self.p * z
        return (2.0 / 3.0) * (1.0 + z) ** 1.5 + self.p * z

    def f1(self, z: complex) -> complex:
        z = complex(z)
        if abs(z) < 0.02:
            # series of ((1/4)((1-z)^{3/2}-(1+z)^{3/2}) + (3/4)z)/z^3
            h = 1.0 / 32.0 - (3.0 / 512.0) * z * z
        else:
            h = (0.25 * ((1.0 - z) ** 1.5 - (1.0 + z) ** 1.5) + 0.75 * z) / z ** 3
        return z * h ** (1.0 / 3.0)

    def nu_of(self, z: complex) -> complex:
        return self.sigma * z / self.f1(z)

    def f2(self, z: complex) -> complex:
        return 0.5 * (self.g(z, 4) - self.g(z, 3))

    def p_inf(self, z: complex) -> np.ndarray:
        z = complex(z)
        d = np.diag([(1.0 - z) ** -0.25, (1.0 + z) ** -0.25,
                     (1.0 - z) ** 0.25, (1.0 + z) ** 0.25])
        return d @ _A4

    # -- local parametrix blocks ------------------------------------------

    def psi_local(self, z) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(w, nu, Psi(w; nu)) with w = i a f1(z) and nu = nu(z) at every z.

        z is a scalar or an array; Psi comes from one batched `psi` call
        at nu0 and a second-order Taylor expansion in nu around it.
        """
        z = np.asarray(z, dtype=complex)
        w = 1j * self.a * np.vectorize(self.f1, otypes=[complex])(z)
        nu = np.vectorize(self.nu_of, otypes=[complex])(z)
        d = (nu - self.nu0)[..., None, None]
        B = -1j * w[..., None, None] * _S3 + self.pii.q * _S1
        corr = np.eye(2, dtype=complex) + d * B + 0.5 * d * d * (self.q_nu * _S1 + B @ B)
        return w, nu, corr @ self.pii.psi(w)

    def psi_block(self, z) -> np.ndarray:
        """Psi-tilde(a f1; nu) E^{-1}: the bounded (1,2)-block of P0 P_inf^{-1}.

        z is an array; the result has shape z.shape + (2, 2).
        """
        w, nu, psi = self.psi_local(z)
        th = 1j * ((4.0 / 3.0) * w ** 3 + nu * w)
        return psi * np.stack([np.exp(th), np.exp(-th)], axis=-1)[..., None, :]

    def theta_block(self, z: complex) -> np.ndarray:
        """Theta(zeta2) diag(e^{zeta2}, e^{-zeta2}): bounded closed form."""
        z2 = self.a ** 3 * self.f2(z)
        ang = abs(cmath.phase(z2))
        if ang < math.pi / 3.0:
            return np.array([[1.0, -cmath.exp(-2.0 * z2)], [0.0, 1.0]], complex)
        if ang <= 2.0 * math.pi / 3.0:
            return np.eye(2, dtype=complex)
        return np.array([[1.0, 0.0], [-cmath.exp(2.0 * z2), 1.0]], complex)

    def p0_bracket(self, z: complex, psi_block: np.ndarray) -> np.ndarray:
        """blockdiag(psi_block, theta_block): P0 = P_inf * bracket."""
        out = np.zeros((4, 4), dtype=complex)
        out[:2, :2] = psi_block
        out[2:, 2:] = self.theta_block(z)
        return out

    def airy_bracket(self, z: complex, side: int) -> np.ndarray:
        """2x2 bracket N^{-1} xi^{s3/4} Phi_A e^{(2/3)xi^{3/2} s3} at +-1."""
        xi = self.a ** 2 * (1.0 - z) if side > 0 else self.a ** 2 * (1.0 + z)
        r34 = (2.0 / 3.0) * xi * cmath.sqrt(xi)
        pref = np.diag([xi ** 0.25, xi ** -0.25])
        expf = np.diag([cmath.exp(r34), cmath.exp(-r34)])
        return _N2_INV @ pref @ airy_model(xi) @ expf

    def airy_bracket4(self, z: complex, side: int) -> np.ndarray:
        idx = (0, 2) if side > 0 else (1, 3)
        out = np.eye(4, dtype=complex)
        b = self.airy_bracket(z, side)
        for i in range(2):
            for j in range(2):
                out[idx[i], idx[j]] = b[i, j]
        return out

    # -- contour and jumps -------------------------------------------------

    def _ray_exit_angle(self, base: float) -> float:
        """Angle theta with arg f1(eps e^{i theta}) = base (lens exit point)."""
        th = base
        for _ in range(40):
            z = self.eps * cmath.exp(1j * th)
            th_new = th + (base - cmath.phase(self.f1(z)))
            if abs(th_new - th) < 1e-13:
                th = th_new
                break
            th = th_new
        return th

    def _conj(self, W: np.ndarray, J: np.ndarray) -> np.ndarray:
        return W @ J @ np.linalg.inv(W)

    def _e(self, i: int, j: int, val: complex) -> np.ndarray:
        out = np.eye(4, dtype=complex)
        out[i, j] += val
        return out

    def _build_contour(self):
        a3 = self.a ** 3
        pieces: list[_Piece] = []

        # circles (ccw)
        for c, rho, n, tag in ((0.0, self.eps, _N_CIRCLE, "u0"),
                               (1.0, self.delta, _N_CIRCLE // 2, "u+"),
                               (-1.0, self.delta, _N_CIRCLE // 2, "u-")):
            th = 2.0 * np.pi * np.arange(n) / n
            nodes = c + rho * np.exp(1j * th)
            weights = 1j * rho * np.exp(1j * th) * (2.0 * np.pi / n)
            pieces.append(_Piece(nodes, weights, "circle", {"tag": tag}))

        r_out = max(2.2, (25.0 * 12.0 / self.a ** 3) ** (1.0 / 3.0))
        lens_out = 1.0

        # origin-lens remnants (straight rays from the exit points)
        for base, sgn, ij in ((math.pi / 3.0, -1.0, (1, 0)),
                              (-math.pi / 3.0, 1.0, (1, 0)),
                              (2.0 * math.pi / 3.0, 1.0, (0, 1)),
                              (-2.0 * math.pi / 3.0, -1.0, (0, 1))):
            th = self._ray_exit_angle(base)
            d = cmath.exp(1j * th)
            mid = min(1.15, 0.5 * (self.eps + r_out))
            for (ra, rb, n) in ((self.eps, mid, _N_SEG),
                                (mid, r_out, _N_SEG)):
                pc = _gauss_piece(ra * d, rb * d, n)
                pc.extra["jump"] = ("oray", sgn, ij)
                pieces.append(pc)

        # Airy-lens remnants from the junctions on the +-1 circles
        for side, base in ((1, math.pi / 3.0), (1, -math.pi / 3.0),
                           (-1, 2.0 * math.pi / 3.0), (-1, -2.0 * math.pi / 3.0)):
            c = 1.0 if side > 0 else -1.0
            d = cmath.exp(1j * base)
            pc = _gauss_piece(c + self.delta * d, c + lens_out * d, _N_SEG)
            pc.extra["jump"] = ("alens", side)
            pieces.append(pc)

        # real-axis remnants, split at the U0 boundary
        xin = 1.0 - (25.0 * 3.0 / (4.0 * a3)) ** (2.0 / 3.0)
        xin = min(max(xin, 0.05), self.eps - 0.02)
        for s in (1.0, -1.0):
            pc = _gauss_piece(s * xin, s * self.eps, _N_SEG)
            pc.extra["jump"] = ("seg_in", s)
            pieces.append(pc)
            pc = _gauss_piece(s * self.eps, s * (1.0 - self.delta), _N_SEG)
            pc.extra["jump"] = ("seg_out", s)
            pieces.append(pc)

        # the PII blocks of every node that needs P0, from one psi call
        local = [pc for pc in pieces if pc.extra.get("tag") == "u0"
                 or pc.extra.get("jump", ("",))[0] == "seg_in"]
        blocks = self.psi_block(np.concatenate([pc.nodes for pc in local]))
        ends = np.cumsum([len(pc.nodes) for pc in local])
        for pc, blk in zip(local, np.split(blocks, ends[:-1])):
            pc.extra["psi"] = blk

        # jump matrices
        for pc in pieces:
            n = len(pc.nodes)
            J = np.empty((n, 4, 4), dtype=complex)
            tag = pc.extra.get("tag")
            for k, z in enumerate(pc.nodes):
                W = self.p_inf(z)
                if tag == "u0":
                    J[k] = self._conj(W, np.linalg.inv(
                        self.p0_bracket(z, pc.extra["psi"][k])))
                elif tag in ("u+", "u-"):
                    side = 1 if tag == "u+" else -1
                    J[k] = self._conj(W, np.linalg.inv(self.airy_bracket4(z, side)))
                else:
                    kind = pc.extra["jump"]
                    if kind[0] == "oray":
                        _, sgn, (i, j) = kind
                        expo = (self.g(z, 2) - self.g(z, 1)) if (i, j) == (1, 0) \
                            else (self.g(z, 1) - self.g(z, 2))
                        J[k] = self._conj(W, self._e(i, j, sgn * cmath.exp(a3 * expo)))
                    elif kind[0] == "alens":
                        side = kind[1]
                        if side > 0:
                            J3 = self._e(2, 0, cmath.exp(a3 * (self.g(z, 3) - self.g(z, 1))))
                        else:
                            J3 = self._e(3, 1, cmath.exp(a3 * (self.g(z, 4) - self.g(z, 2))))
                        J[k] = self._conj(W, J3)
                    else:
                        _, s = kind
                        if s > 0:
                            J3 = self._e(0, 2, cmath.exp(a3 * (self.g(z, 1) - self.g(z, 3))))
                        else:
                            J3 = self._e(1, 3, cmath.exp(a3 * (self.g(z, 2) - self.g(z, 4))))
                        Wl = self.p_inf(z) if kind[0] == "seg_out" else \
                            self.p_inf(z) @ self.p0_bracket(z, pc.extra["psi"][k])
                        J[k] = self._conj(Wl, J3)
            pc.jumps = J
        self.pieces = pieces
        self.nodes = np.concatenate([pc.nodes for pc in pieces])
        self.weights = np.concatenate([pc.weights for pc in pieces])
        self.jumps = np.concatenate([pc.jumps for pc in pieces])
        self.ntot = len(self.nodes)

    # -- singular-integral solve ------------------------------------------

    def _cauchy_matrix(self) -> np.ndarray:
        n = self.ntot
        C = np.zeros((n, n), dtype=complex)
        ofs = 0
        bounds = []
        for pc in self.pieces:
            bounds.append((ofs, ofs + len(pc.nodes)))
            ofs += len(pc.nodes)
        for (i0, i1), pc in zip(bounds, self.pieces):
            C[i0:i1, i0:i1] = pc.self_cauchy_minus()
        for (i0, i1), pc in zip(bounds, self.pieces):
            tgt = np.concatenate([self.nodes[:i0], self.nodes[i1:]])
            block = (self.weights[i0:i1][None, :]
                     / (self.nodes[i0:i1][None, :] - tgt[:, None])) / (2j * np.pi)
            C[:i0, i0:i1] = block[:i0, :]
            C[i1:, i0:i1] = block[i0:, :]
        return C

    def _solve(self):
        C = self._cauchy_matrix()
        JmI = self.jumps - np.eye(4)[None, :, :]
        n = self.ntot

        def cauchy(F):
            return (C @ F.reshape(n, 16)).reshape(n, 4, 4)

        def apply(vec):
            X = vec.reshape(n, 4, 4)
            return (X - cauchy(X @ JmI)).reshape(-1)

        rhs = cauchy(JmI).reshape(-1)
        op = LinearOperator((16 * n, 16 * n), matvec=apply, dtype=complex)
        sol, info = gmres(op, rhs, rtol=1e-11, atol=0.0, maxiter=400,
                          restart=80)
        if info != 0:
            raise IntegrationFailure(f"GMRES failed to converge (info={info})")
        self.X = sol.reshape(n, 4, 4)          # R_- - I on the contour
        self.F = (np.eye(4) + self.X) @ JmI
        self.resid_norm = float(np.max(np.abs(apply(sol) - rhs)))

    def r_eval(self, z: complex) -> np.ndarray:
        """R(z) off the contour."""
        ker = (self.weights / (self.nodes - z))[:, None, None] / (2j * np.pi)
        return np.eye(4, dtype=complex) + np.sum(ker * self.F, axis=0)

    # -- kernel assembly ---------------------------------------------------

    def _col(self, v: float) -> np.ndarray:
        z = 1j * v
        if abs(v) < self.eps:
            psi = self.psi_local(z)[2]
            vec = np.zeros(4, dtype=complex)
            vec[:2] = psi @ np.array([1.0, 1.0])
        else:
            d = 0.5 * self.a ** 3 * (self.g(z, 1) - self.g(z, 2))
            vec = np.array([cmath.exp(d), cmath.exp(-d), 0.0, 0.0])
        return self.r_eval(z) @ (self.p_inf(z) @ vec)

    def _row(self, u: float) -> np.ndarray:
        z = 1j * u
        if abs(u) < self.eps:
            psi = self.psi_local(z)[2]
            vec = np.zeros(4, dtype=complex)
            vec[:2] = np.linalg.solve(psi.T, np.array([-1.0, 1.0]))
        else:
            d = 0.5 * self.a ** 3 * (self.g(z, 1) - self.g(z, 2))
            vec = np.array([-cmath.exp(-d), cmath.exp(d), 0.0, 0.0])
        M = self.r_eval(z) @ self.p_inf(z)
        return np.linalg.solve(M.T, vec)

    def kernel(self, x: float, y: float) -> complex:
        """Scaled kernel 2^{5/3} a K_cr(2^{5/3}a x, 2^{5/3}a y) (reduced).

        Off-diagonal values carry the conjugation e^{a^3(h(x)-h(y))/2},
        h = g1 + g2, which cancels in the diagonal, in products
        K(x,y)K(y,x), and in determinants.
        """
        c = 2.0 ** (5.0 / 3.0) / self.a
        u, v = c * x, c * y
        if x == y:
            h = 1e-3
            return 0.5 * (self.kernel(x, y + h) + self.kernel(x, y - h))
        num = self._row(u) @ self._col(v)
        return complex(num / (2j * math.pi * (x - y)))


@functools.lru_cache(maxsize=8)
def _cached_ds(a: float, sigma: float, ukey: tuple) -> DoubleScaling:
    return DoubleScaling(a, sigma, u_points=ukey)


def _ds_for(a: float, sigma: float, xs) -> DoubleScaling:
    c = 2.0 ** (5.0 / 3.0) / a
    ukey = tuple(sorted({round(c * abs(x), 6) for x in xs}))
    return _cached_ds(float(a), float(sigma), ukey)


def double_scaling_gap(a: float, sigma: float, x: float, y: float) -> float:
    """|det2 of the scaled K_cr minus det2 of K_PII(.,.; 2^{5/3} sigma)|.

    For x == y the 1x1 determinant (the diagonal value itself) is
    compared.  The scaled kernel is 2^{5/3} a K_cr(2^{5/3} a x,
    2^{5/3} a y; a^2/2, -a(1 - sigma/a^2)), evaluated through the
    steepest-descent representation (the direct evaluation is not
    numerically meaningful at these parameters).
    """
    from . import kernels

    if a < 2.0:
        raise DomainRestriction(
            "double_scaling_gap requires a >= 2 (below that the direct "
            "kernel_cr evaluation is the appropriate tool)")
    ds = _ds_for(a, sigma, (x, y))
    nu = 2.0 ** (5.0 / 3.0) * sigma
    psolver = ds.pii
    if x == y:
        ks = ds.kernel(x, x).real
        kp = kernels.kernel_pii_diag(x, nu, solver=psolver).real
        return abs(ks - kp)
    sxx = ds.kernel(x, x).real
    syy = ds.kernel(y, y).real
    sxy = ds.kernel(x, y)
    syx = ds.kernel(y, x)
    det_s = sxx * syy - (sxy * syx).real
    pxx = kernels.kernel_pii_diag(x, nu, solver=psolver).real
    pyy = kernels.kernel_pii_diag(y, nu, solver=psolver).real
    pxy = kernels.kernel_pii(x, y, nu, solver=psolver)
    pyx = kernels.kernel_pii(y, x, nu, solver=psolver)
    det_p = pxx * pyy - (pxy * pyx).real
    return abs(det_s - det_p)
