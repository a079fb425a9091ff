"""Formal series of the model RH solutions at zeta -> infinity.

Both model problems are anchored at infinity by a formal solution
P(zeta) F(zeta) of dY/dzeta = L(zeta) Y, with L = sum_j L_j zeta^j a
polynomial, F an explicit frame, and P(zeta) = I + sum_{k>=1} P_k
zeta^{-k/q}.  Substituting into the ODE and writing the exact logarithmic
derivative of the frame as G = F'F^{-1} = sum_p G_p zeta^{p/q}, the
prefactor solves P' = L P - P G, and the coefficient of zeta^{m/q} gives
the linear relations

    ((m+q)/q) P_{-m-q} = sum_j L_j P_{qj-m} - sum_p P_{p-m} G_p,

with P_0 = I and P_k = 0 for k < 0.  Every power that enters (q j, p
and the shift q of the derivative) is a multiple of g = gcd(q, every p
with G_p != 0), so the relation at m couples only the P_k with
k = -m mod g, and only the class of P_0 has a right-hand side.
`formal_series` stacks the relations of that class into one dense
least-squares system and returns the other P_k as exact zeros; it
serves the 4x4 problem (q = 2 and g = 2, here: half the unknowns), and
the 2x2 Painleve II frame (q = g = 1, one class) of a fitted reference.

For the 4x4 problem L = U = U0 + U1 zeta and F = B(zeta) A E(zeta), with

    G(zeta) = B'B^{-1} + B (A E'E^{-1} A^{-1}) B^{-1}
            = sum_{p=-2}^{2} G_p zeta^{p/2}.

The relation for m = 2 is the consistency condition G_2 = U1, and with
P_1 = 0 (the expansion is in 1/zeta) the one for m = 1 is G_1 = 0;
`build_series` checks both.  G_1 and G_{-1} are exactly 0, so g = 2:
P_1, P_3, ... are 0, and the even P_k solve a system of 8 order
unknowns instead of 16 order.  Two branch variants of the frame
(omega = -i and omega = +i) give independent expansions whose
integer-order coefficients must agree.  `rhsolver` reads '-' as the
mirror of '+'; '-' stays as the reference the tests compare that
mirror against.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from . import laxpair

__all__ = ["FrameSeries", "build_series", "formal_series",
           "frame_log_derivative_parts", "prefactor_sum"]

_A = laxpair._A
_CHECK_TOL = 1e-10       # consistency conditions G_2 = U1, G_1 = 0


def formal_series(lax_coeffs, G: dict, q: int, order: int, beta: float) -> tuple:
    """Solve the relations at zeta^{m/q} for P_1..P_order.

    lax_coeffs = (L_0, L_1, ...) and G = {p: G_p} as in the module
    docstring.  The relation at the top power m = q deg L is the
    consistency condition, left to the caller.  Of the next `order`
    relations (m = q deg L - 1 down to 2 - order), those of P_0's residue
    class, m = 0 mod g, are stacked into one dense least-squares system
    for P_g, P_2g, ...; the other P_k are exactly 0.  Each relation's
    row block is placed from one Kronecker block per term kind.
    Coefficients beyond ~order-4 are underdetermined by the truncation,
    so callers should request a few orders more than they use.  The
    solve is preconditioned by the substitution P_k = beta^k Q_k
    together with a per-relation row normalization.
    """
    d = len(lax_coeffs[0])
    d2 = d * d
    G = {p: Gp for p, Gp in G.items() if np.any(Gp)}
    g = math.gcd(q, *G)
    m = np.arange(q * (len(lax_coeffs) - 1) - 1, 1 - order, -1)
    m = m[m % g == 0]
    bk = np.array([beta ** k for k in range(order + 1)])
    eye = np.eye(d, dtype=complex)
    # each term P_{o-m} X of a relation as (offset o, coefficient of X per
    # relation, X for a known P_0, block of vec(Q_{o-m})), in the order the
    # terms are summed: -((m+q)/q) P_{-m-q}, L_j P_{qj-m}, -P_{p-m} G_p
    terms = [(-q, -(m + q) / q, eye, np.eye(d2, dtype=complex))]
    terms += [(q * j, np.ones(len(m)), L, np.kron(L, eye))
              for j, L in reversed(list(enumerate(lax_coeffs)))]
    terms += [(p, np.ones(len(m)), -Gp, np.kron(eye, -Gp.T)) for p, Gp in G.items()]
    rows = np.zeros((len(m), order // g, d2, d2), complex)
    known = np.zeros((len(m), d, d), complex)
    for o, c, X, block in terms:
        k = o - m
        hit = (k > 0) & (k <= order)
        rows[hit, k[hit] // g - 1] += (c[hit] * bk[k[hit]])[:, None, None] * block
        known[k == 0] += c[k == 0, None, None] * X
    scale = np.maximum(np.maximum(np.abs(rows).max(axis=(1, 2, 3)),
                                  np.abs(known).max(axis=(1, 2))), 1e-300)
    A = (rows / scale[:, None, None, None]).transpose(0, 2, 1, 3).reshape(len(m) * d2, -1)
    b = (-known / scale[:, None, None]).reshape(-1)
    sol, *_ = np.linalg.lstsq(A, b, rcond=None)
    sol = sol.reshape(-1, d, d)
    return tuple(bk[k] * sol[k // g - 1] if k % g == 0 else np.zeros((d, d), complex)
                 for k in range(1, order + 1))


def prefactor_sum(coeffs, x: complex) -> np.ndarray:
    """I + sum_k coeffs[k-1] x^k, summed in ascending powers of x."""
    P = np.eye(len(coeffs[0]), dtype=complex)
    xp = 1.0
    for Pk in coeffs:
        xp *= x
        P = P + Pk * xp
    return P


def frame_log_derivative_parts(s: float, t: float,
                               variant: str = "+") -> dict[int, np.ndarray]:
    """G_p for p in {-2,...,2}, G(zeta) = sum_p G_p zeta^{p/2}."""
    omega_q = laxpair._omega_q(variant)
    omega = omega_q * omega_q  # (-zeta)^{1/2} = omega zeta^{1/2}
    # E'E^{-1} = diag(-dpsi_m + t, -dpsi_p - t, dpsi_m + t, dpsi_p - t)
    # dpsi_p = zeta^{1/2} + s zeta^{-1/2};  dpsi_m = -omega zeta^{1/2}
    # + s omega zeta^{-1/2}  (using 1/omega = -omega)
    e_half = np.diag([omega, -1.0, -omega, 1.0]).astype(complex)
    e_zero = np.diag([t, -t, t, -t]).astype(complex)
    e_mhalf = np.diag([-s * omega, -s, s * omega, s]).astype(complex)
    Ainv = np.linalg.inv(_A)
    # conjugation by B = diag(c_i zeta^{b_i}), b = (-1/4,-1/4,1/4,1/4),
    # c = (1/omega_q, 1, omega_q, 1): entry (i,j) scales by
    # (c_i/c_j) zeta^{b_i - b_j}, shifting the half-power by 4(b_i - b_j)/2
    b_exp = np.array([-0.25, -0.25, 0.25, 0.25])
    c_fac = np.array([1.0 / omega_q, 1.0, omega_q, 1.0], dtype=complex)
    parts: dict[int, np.ndarray] = {p: np.zeros((4, 4), complex) for p in range(-2, 3)}
    for e_part, p0 in ((e_half, 1), (e_zero, 0), (e_mhalf, -1)):
        mat = _A @ e_part @ Ainv
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
        """N1 = P_2, the coefficient of zeta^{-1} in M = (I + N1/zeta + ...) B A E.

        Closed forms: (1,2) = b, (3,2) = (4,1) = i f, (1,4) = (2,3) = i d,
        (1,3) = (2,4) = i c, (3,4) = h, N1_33 - N1_11 = N1_22 - N1_44 = k;
        (N1)_{14} = i 2^{-1/3} q(2^{2/3}(2s - t^2)) underlies `hm_extract`.
        """
        return self.coeffs[1]

    def prefactor(self, zeta: complex, order: int | None = None) -> np.ndarray:
        """P(zeta) truncated after P_order (default: all coefficients)."""
        # zeta^{-1/2} consistent with the variant's branch of zeta^{1/2}
        theta = laxpair._branch_arg(zeta, self.variant)
        x = 1.0 / (math.sqrt(abs(zeta)) * cmath.exp(1j * theta / 2.0))
        return prefactor_sum(self.coeffs[:order], x)

    def frame(self, zeta: complex, order: int | None = None) -> np.ndarray:
        """P(zeta) B(zeta) A E(zeta), the series approximation to M."""
        base = laxpair.asymptotic_frame(zeta, self.s, self.t, self.variant)
        return self.prefactor(zeta, order) @ base

    def frame_scaled(self, zeta: complex) -> tuple[np.ndarray, np.ndarray]:
        """(F, g) with the series frame F diag(e^{g_j}); safe at any scale."""
        base, g = laxpair.frame_base_scaled(zeta, self.s, self.t, self.variant)
        return self.prefactor(zeta) @ base, g


def build_series(s: float, t: float, variant: str = "+",
                 order: int = 10) -> FrameSeries:
    """The variant's 4x4 series: `formal_series` with q = 2 and L = U.

    Raises AssertionError if the consistency conditions G_2 = U1,
    G_1 = 0 fail.  As G_{+-1} = 0, only the relations at even m are
    stacked, for P_2, P_4, ...; the odd P_k are exact zeros.
    Coefficients beyond ~order-4 are underdetermined by the truncation,
    so callers should request a few orders more than they use.

    The coefficients grow geometrically with rate ~ |c|^{1/2} per
    half-power (c ~ s^2 is the largest Lax coefficient scale), which
    destroys the conditioning of the raw least-squares system for large
    deformation parameters.  The solve is therefore preconditioned with
    beta = max(1, |c|)^{1/2}; for small (s, t) this is the identity
    scaling.
    """
    co = laxpair.lax_coefficients(s, t)
    U0, _ = laxpair.lax_matrices(0.0, co)
    G = frame_log_derivative_parts(s, t, variant)
    if np.max(np.abs(G[2] - laxpair.U1)) > _CHECK_TOL:
        raise AssertionError("frame inconsistency: G_2 != U1")
    if np.max(np.abs(G[1])) > _CHECK_TOL:
        raise AssertionError("frame inconsistency: G_1 != 0")
    beta = max(1.0, abs(co.c)) ** 0.5
    coeffs = formal_series((U0, laxpair.U1), G, 2, order, beta)
    return FrameSeries(s=s, t=t, variant=variant, coeffs=coeffs)
