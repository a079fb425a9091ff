"""Asymptotic expansion of the Lax/RH solution at zeta -> infinity.

Writes the solution of dM/dzeta = U M as M = P(zeta) B(zeta) A E(zeta)
with P(zeta) = I + sum_{k>=1} P_k zeta^{-k/2} and solves for the
coefficient matrices P_k order by order.  Substituting into the ODE and
using the exact logarithmic derivative of the frame,

    G(zeta) = B'B^{-1} + B (A E'E^{-1} A^{-1}) B^{-1}
            = sum_{p=-2}^{2} G_p zeta^{p/2},

the coefficient of zeta^{m/2} gives the linear relations

    ((m+2)/2) P_{-m-2} = U1 P_{2-m} + U0 P_{-m} - sum_p P_{p-m} G_p,

with U = U1 zeta + U0 and P_0 = I.  The relations for m = 2 and m = 1
are the consistency conditions G_2 = U1 and G_1 = 0; the rest are stacked
into one dense least-squares system for P_1..P_K.  Two branch variants of
the frame (omega = -i and omega = +i) give independent expansions whose
integer-order coefficients must agree.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from . import laxpair

__all__ = ["FrameSeries", "build_series", "frame_log_derivative_parts"]

_A = laxpair._A
_CHECK_TOL = 1e-10       # consistency conditions G_2 = U1, G_1 = 0


def _frame_constants(variant: str) -> complex:
    """omega_q with (-zeta)^{1/4} = omega_q zeta^{1/4} for the variant."""
    if variant == "+":
        return cmath.exp(-1j * math.pi / 4.0)
    if variant == "-":
        return cmath.exp(1j * math.pi / 4.0)
    raise ValueError("variant must be '+' or '-'")


def frame_log_derivative_parts(s: float, t: float,
                               variant: str = "+") -> dict[int, np.ndarray]:
    """G_p for p in {-2,...,2}, G(zeta) = sum_p G_p zeta^{p/2}."""
    omega_q = _frame_constants(variant)
    omega = omega_q * omega_q  # (-zeta)^{1/2} = omega zeta^{1/2}
    # E'E^{-1} = diag(-dpsi_m + t, -dpsi_p - t, dpsi_m + t, dpsi_p - t)
    # dpsi_p = zeta^{1/2} + s zeta^{-1/2};  dpsi_m = -omega zeta^{1/2}
    # + s omega zeta^{-1/2}  (using 1/omega = -omega)
    e_half = np.diag([omega, -1.0, -omega, 1.0]).astype(complex)
    e_zero = np.diag([t, -t, t, -t]).astype(complex)
    e_mhalf = np.diag([-s * omega, -s, s * omega, s]).astype(complex)
    Ainv = np.linalg.inv(_A)
    c_half = _A @ e_half @ Ainv
    c_zero = _A @ e_zero @ Ainv
    c_mhalf = _A @ e_mhalf @ Ainv
    # conjugation by B = diag(c_i zeta^{b_i}), b = (-1/4,-1/4,1/4,1/4),
    # c = (1/omega_q, 1, omega_q, 1): entry (i,j) scales by
    # (c_i/c_j) zeta^{b_i - b_j}, shifting the half-power by 4(b_i - b_j)/2
    b_exp = np.array([-0.25, -0.25, 0.25, 0.25])
    c_fac = np.array([1.0 / omega_q, 1.0, omega_q, 1.0], dtype=complex)
    parts: dict[int, np.ndarray] = {p: np.zeros((4, 4), complex) for p in range(-2, 3)}
    for mat, p0 in ((c_half, 1), (c_zero, 0), (c_mhalf, -1)):
        for i in range(4):
            for j in range(4):
                shift = int(round(2.0 * (b_exp[i] - b_exp[j])))  # in half-powers
                parts[p0 + shift][i, j] += (c_fac[i] / c_fac[j]) * mat[i, j]
    # B'B^{-1} = diag(-1,-1,1,1)/(4 zeta)
    parts[-2] += np.diag([-1.0, -1.0, 1.0, 1.0]).astype(complex) / 4.0
    return parts


@dataclass(frozen=True)
class FrameSeries:
    """Coefficients P_k of P(zeta) = I + sum P_k zeta^{-k/2}."""

    s: float
    t: float
    variant: str
    coeffs: tuple  # (P_1, P_2, ..., P_K)

    @property
    def n1(self) -> np.ndarray:
        """N1 = P_2, the coefficient of zeta^{-1}."""
        return self.coeffs[1]

    def prefactor(self, zeta: complex, order: int | None = None) -> np.ndarray:
        """P(zeta) truncated after P_order (default: all coefficients)."""
        if order is None:
            order = len(self.coeffs)
        # zeta^{-1/2} consistent with the variant's branch of zeta^{1/2}
        x = 1.0 / _branch_sqrt(zeta, self.variant)
        P = np.eye(4, dtype=complex)
        xp = 1.0
        for k in range(order):
            xp *= x
            P = P + self.coeffs[k] * xp
        return P

    def frame(self, zeta: complex, order: int | None = None) -> np.ndarray:
        """P(zeta) B(zeta) A E(zeta), the series approximation to M."""
        base = laxpair.asymptotic_frame(zeta, self.s, self.t, self.variant)
        return self.prefactor(zeta, order) @ base

    def frame_scaled(self, zeta: complex,
                     order: int | None = None) -> tuple[np.ndarray, float]:
        """(F, g) with the series frame equal to F e^g; safe at any scale."""
        base, g = laxpair.frame_base_scaled(zeta, self.s, self.t, self.variant)
        return self.prefactor(zeta, order) @ base, g


def _branch_sqrt(zeta: complex, variant: str) -> complex:
    r = abs(zeta)
    theta = cmath.phase(zeta)
    if variant == "+" and theta <= -math.pi / 2.0:
        theta += 2.0 * math.pi
    elif variant == "-" and theta >= math.pi / 2.0:
        theta -= 2.0 * math.pi
    return math.sqrt(r) * cmath.exp(1j * theta / 2.0)


def build_series(s: float, t: float, variant: str = "+", order: int = 10,
                 hm=None) -> FrameSeries:
    """Solve the order-by-order relations for P_1..P_order.

    The stacked relations for half-powers m = 2-order-2 .. 0 are solved in
    one dense least-squares system; coefficients beyond ~order-4 are
    underdetermined by the truncation, so callers should request a few
    orders more than they use.  Raises AssertionError if the consistency
    conditions G_2 = U1, G_1 = 0 fail.

    The coefficients grow geometrically with rate ~ |c|^{1/2} per
    half-power (c ~ s^2 is the largest Lax coefficient scale), which
    destroys the conditioning of the raw least-squares system for large
    deformation parameters.  The solve is therefore preconditioned by the
    substitution P_k = beta^k Q_k with beta = max(1, |c|)^{1/2}
    together with a per-relation row normalization; for small (s, t) this
    is the identity scaling.
    """
    co = laxpair.lax_coefficients(s, t, hm)
    U, _ = laxpair.lax_matrices(0.0, co)
    U1 = np.zeros((4, 4), complex)
    U1[2, 0] = 1.0j
    U1[3, 1] = -1.0j
    U0 = U  # U(zeta) = U1 zeta + U0
    G = frame_log_derivative_parts(s, t, variant)
    if np.max(np.abs(G[2] - U1)) > _CHECK_TOL:
        raise AssertionError("frame inconsistency: G_2 != U1")
    if np.max(np.abs(G[1])) > _CHECK_TOL:
        raise AssertionError("frame inconsistency: G_1 != 0")
    beta = max(1.0, abs(co.c)) ** 0.5

    K = order
    nunk = 16 * K  # vec(Q_1), ..., vec(Q_K) with P_k = beta^k Q_k
    rows = []
    rhs = []

    def add_term(row_block, k, left, right):
        """Accumulate left @ P_k @ right into the 16x(16K) coefficient block."""
        if k < 0 or k > K:
            return False
        if k == 0:
            row_block[1] += left @ right
            return True
        # coefficient of vec(Q_k): (left kron right^T) acting on row-major vec
        row_block[0][:, 16 * (k - 1):16 * k] += beta**k * np.kron(left, right.T)
        return True

    eye = np.eye(4, dtype=complex)
    for m in range(1, -(K - 1), -1):
        # ((m+2)/2) P_{-m-2} = U1 P_{2-m} + U0 P_{-m} - sum_p P_{p-m} G_p
        block = np.zeros((16, nunk), complex)
        const = np.zeros((4, 4), complex)
        acc = [block, const]
        add_term(acc, -m - 2, -((m + 2) / 2.0) * eye, eye)
        add_term(acc, 2 - m, U1, eye)
        add_term(acc, -m, U0, eye)
        for p in range(-2, 3):
            add_term(acc, p - m, eye, -G[p])
        scale = max(float(np.max(np.abs(acc[0]))), float(np.max(np.abs(acc[1]))),
                    1e-300)
        rows.append(acc[0] / scale)
        rhs.append(-acc[1].reshape(16) / scale)
    Asys = np.vstack(rows)
    bsys = np.concatenate(rhs)
    sol, *_ = np.linalg.lstsq(Asys, bsys, rcond=None)
    coeffs = tuple(beta ** (k + 1) * sol[16 * k:16 * (k + 1)].reshape(4, 4)
                   for k in range(K))
    return FrameSeries(s=s, t=t, variant=variant, coeffs=coeffs)
