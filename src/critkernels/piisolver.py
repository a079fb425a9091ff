"""Numerical solution of the 2x2 Painleve II model Riemann-Hilbert problem.

Psi(zeta) is analytic off four rays from the origin (at angles pi/6,
5pi/6, 7pi/6, 11pi/6, oriented outward), satisfies Psi_+ = Psi_- J_k
across each ray with the unimodular Stokes matrices below, behaves like
(I + O(1/zeta)) diag(e^{-theta}, e^{theta}) with theta = i((4/3) zeta^3
+ nu zeta) at infinity, and is bounded at 0.  The sector constants are
found by the shared engine of `sectoral`, with the Lax matrix of the
standard Flaschka-Newell linear system

    dPsi/dzeta = A(zeta) Psi,
    A = [[-i(4 zeta^2 + nu + 2 q^2),  4 zeta q + 2 i q'],
         [ 4 zeta q - 2 i q'       ,  i(4 zeta^2 + nu + 2 q^2)]],

whose compatibility encodes Painleve II q'' = nu q + 2 q^3, with q the
Hastings-McLeod solution, and with the series frame built from the same
system by the shared formal-series builder `series.formal_series`
(integer powers of 1/zeta, q = 1).

A subtlety worth recording: the actual residue of this RH problem is
lim zeta (Psi E^{-1} - I)_{12} = -(i/2) q(nu), not q(nu) itself.  This
follows from the order-by-order consistency of the linear system (the
ray data force (A)_{zeta-coefficient} = 8i (P_1)_{12} sigma_1, so a real
Hastings-McLeod q corresponds to (P_1)_{12} = -(i/2) q) and is confirmed
by the linearized large-nu computation, where the Cauchy transform of
the ray data reduces to the Airy contour integral with the same
prefactor.  `q_extract` therefore returns 2i times the fitted residue,
which recovers q(nu).
"""

from __future__ import annotations

import cmath
import functools
import math

import numpy as np

from . import painleve, series
from .errors import IntegrationFailure
from .sectoral import SectoralSolver

__all__ = ["PII_RAY_ANGLES", "PII_JUMPS", "PiiSolver", "get_pii_solver", "hm_at"]

PII_RAY_ANGLES = (
    math.pi / 6.0,
    5.0 * math.pi / 6.0,
    7.0 * math.pi / 6.0,
    11.0 * math.pi / 6.0,
)

PII_JUMPS = (
    np.array([[1.0, 0.0], [1.0, 1.0]], dtype=complex),
    np.array([[1.0, 0.0], [-1.0, 1.0]], dtype=complex),
    np.array([[1.0, 1.0], [0.0, 1.0]], dtype=complex),
    np.array([[1.0, -1.0], [0.0, 1.0]], dtype=complex),
)

_SIGMA3 = np.diag([1.0, -1.0]).astype(complex)
_R0 = 4.2                # outer anchor radius of the sector-constant fit
_SERIES_ORDER = 12       # coefficients P_1.._SERIES_ORDER of the series frame


def hm_at(nu):
    """(q, q') of the Hastings-McLeod solution at real or complex nu.

    Complex arguments are reached by integrating Painleve II
    q'' = nu q + 2 q^3 from Re(nu) along the imaginary direction.
    """
    nu = complex(nu)
    q0, qp0, _ = painleve.default_solution()(nu.real)
    if nu.imag == 0.0:
        return complex(q0), complex(qp0)
    from scipy.integrate import solve_ivp

    def rhs(s, y):
        # y = (q, q') along nu = Re(nu) + i s
        z = complex(nu.real, s)
        return np.array([y[1], z * y[0] + 2.0 * y[0] ** 3], dtype=complex) * 1j

    sol = solve_ivp(rhs, (0.0, nu.imag), np.array([q0, qp0], dtype=complex),
                    method="DOP853", rtol=1e-12, atol=1e-14)
    if not sol.success:
        raise IntegrationFailure(f"PII continuation: {sol.message}")
    return complex(sol.y[0, -1]), complex(sol.y[1, -1])


def _fn_matrix(zeta: complex, nu: complex, q: complex, qp: complex) -> np.ndarray:
    d = 1j * (4.0 * zeta * zeta + nu + 2.0 * q * q)
    off = 4.0 * zeta * q
    return np.array([[-d, off + 2j * qp], [off - 2j * qp, d]], dtype=complex)


def _lax_coeffs(nu: complex, q: complex, qp: complex) -> tuple:
    """(A0, A1, A2) with the Flaschka-Newell matrix A = A0 + A1 zeta + A2 zeta^2."""
    A0 = np.array([[-1j * (nu + 2.0 * q * q), 2j * qp],
                   [-2j * qp, 1j * (nu + 2.0 * q * q)]], dtype=complex)
    A1 = np.array([[0.0, 4.0 * q], [4.0 * q, 0.0]], dtype=complex)
    return A0, A1, -4j * _SIGMA3


class PiiSolver(SectoralSolver):
    """Solver for the Painleve II model RH problem at parameter nu."""

    RAYS = PII_RAY_ANGLES
    JUMPS = PII_JUMPS
    INNER = 0.8
    LOW_SECTOR = 3          # arg in [0, pi/6]: the wrap-around sector

    def __init__(self, nu):
        self.nu = complex(nu)
        self.q, self.qp = hm_at(self.nu)
        self.lax_coeffs = _lax_coeffs(self.nu, self.q, self.qp)
        # Psi = (I + sum_k P_k zeta^{-k}) E with E'E^{-1} = -theta' sigma3
        G = {0: -1j * self.nu * _SIGMA3, 2: -4j * _SIGMA3}
        self.coeffs = series.formal_series(self.lax_coeffs, G, 1, _SERIES_ORDER, 1.0)
        super().__init__(_R0)

    def theta(self, zeta: complex) -> complex:
        return 1j * ((4.0 / 3.0) * zeta ** 3 + self.nu * zeta)

    def _series_frame(self, zeta: complex, sector: int) -> tuple[np.ndarray, float]:
        th = self.theta(zeta)
        E = np.diag([cmath.exp(-th), cmath.exp(th)])
        return series.prefactor_sum(self.coeffs, 1.0 / zeta) @ E, 0.0

    # -- evaluation and checks --------------------------------------------

    psi = SectoralSolver.sectional

    def det_psi(self, zeta: complex) -> complex:
        return complex(np.linalg.det(self.psi(zeta)))

    def q_extract(self) -> complex:
        """2i times the fitted residue lim zeta (Psi E^{-1} - I)_{12}.

        Recovers q(nu): the raw residue equals -(i/2) q(nu) (see module
        docstring).  Sampled on the upper imaginary axis from 2.6 to r0,
        where column 2 of Psi is dominant and therefore relatively accurate.
        """
        rows, rhs = [], []
        for r in np.arange(2.6, self.r0 + 1e-9, 0.2):
            zeta = 1j * float(r)
            Psi = self.psi(zeta)
            p12 = Psi[0, 1] * cmath.exp(-self.theta(zeta))
            rows.append([zeta ** (-k) for k in range(5)])
            rhs.append(zeta * p12)
        coef, *_ = np.linalg.lstsq(np.array(rows, dtype=complex),
                                   np.array(rhs, dtype=complex), rcond=None)
        return 2j * complex(coef[0])

    def symmetry_residual(self, zeta: complex) -> float:
        """max |sigma1 Psi(-zeta) sigma1 - Psi(zeta)|."""
        s1 = np.array([[0.0, 1.0], [1.0, 0.0]])
        return float(np.max(np.abs(s1 @ self.psi(-zeta) @ s1 - self.psi(zeta))))


@functools.lru_cache(maxsize=16)
def get_pii_solver(nu: complex) -> PiiSolver:
    """Cached Painleve II model-RH solver at parameter nu."""
    return PiiSolver(nu)
