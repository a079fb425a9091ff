"""The 2x2 Painleve II model Riemann-Hilbert problem, in closed form.

Psi(zeta) is analytic off four rays from the origin (at angles pi/6,
5pi/6, 7pi/6, 11pi/6, oriented outward), satisfies Psi_+ = Psi_- J_k
across each ray with the unimodular Stokes matrices below, behaves like
(I + O(1/zeta)) diag(e^{-theta}, e^{theta}) with theta = i((4/3) zeta^3
+ nu zeta) at infinity, and is bounded at 0.  So Psi = Phi C_k in sector
k, with Phi (Phi(0) = I) transported by the engine of `sectoral` along
the standard Flaschka-Newell linear system

    dPsi/dzeta = A(zeta) Psi,
    A = [[-i(4 zeta^2 + nu + 2 q^2),  4 zeta q + 2 i q'],
         [ 4 zeta q - 2 i q'       ,  i(4 zeta^2 + nu + 2 q^2)]],

whose compatibility encodes Painleve II q'' = nu q + 2 q^3, with q the
Hastings-McLeod solution.  Its nu-equation dPsi/dnu = (-i zeta sigma3 +
q sigma1) Psi (Flaschka & Newell, Comm. Math. Phys. 76 (1980)) reads
dC_k/dnu = q sigma1 C_k at zeta = 0, and C_k -> S_k as nu -> +infinity,
where q decays like Ai(nu).  So, with no fit,

    C_k(nu) = exp(-sigma1 Q) S_k = (cosh Q I - sinh Q sigma1) S_k,
    Q(nu) = int_nu^infinity q   (`painleve.HmSolution.tail_integral`),

S_0 = [[1, 0], [1, 1]], S_1 = I, S_2 = [[1, 1], [0, 1]] and S_3 = I.  The
domain is that of the Hastings-McLeod solution: nu real in [-12, 12].

A subtlety worth recording: the actual residue of this RH problem is
lim zeta (Psi E^{-1} - I)_{12} = -(i/2) q(nu), not q(nu) itself.  This
follows from the order-by-order consistency of the linear system (the
ray data force (A)_{zeta-coefficient} = 8i (P_1)_{12} sigma_1, so a real
Hastings-McLeod q corresponds to (P_1)_{12} = -(i/2) q) and is confirmed
by the linearized large-nu computation, where the Cauchy transform of
the ray data reduces to the Airy contour integral with the same
prefactor.  `q_extract` therefore returns 2i times the measured residue,
which recovers q(nu).
"""

from __future__ import annotations

import functools
import math

import numpy as np

from . import painleve
from .errors import DomainRestriction, _finite
from .sectoral import SectoralSolver

__all__ = ["PII_RAY_ANGLES", "PII_JUMPS", "PII_ROW", "PII_COL", "PiiSolver",
           "get_pii_solver", "hm_at"]

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

# K_PII(x, y) = PII_ROW Psi(x)^{-1} Psi(y) PII_COL^T / (2 pi i (x - y))
PII_ROW = np.array([1.0, -1.0])
PII_COL = np.array([1.0, 1.0])

_SIGMA1 = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
_SIGMA3 = np.diag([1.0, -1.0]).astype(complex)
# S_k, the sector constants as nu -> +infinity: C_3 = I and C_k = C_{k-1} J_k
_STOKES = (PII_JUMPS[0], np.eye(2, dtype=complex), PII_JUMPS[2], np.eye(2, dtype=complex))


def hm_at(nu) -> tuple[complex, complex]:
    """(q, q') of the Hastings-McLeod solution at real nu in [-12, 12]."""
    _finite(nu=nu)
    nu = complex(nu)
    if nu.imag != 0.0:
        raise DomainRestriction(f"Painleve II parameter nu must be real, got {nu!r}")
    hm = painleve.default_solution()
    hm.check_domain("nu", nu.real)
    q, qp, _ = hm(nu.real)
    return complex(q), complex(qp)


def _lax_coeffs(nu: float, q: complex, qp: complex) -> tuple:
    """(A0, A1, A2) with the Flaschka-Newell matrix A = A0 + A1 zeta + A2 zeta^2."""
    A0 = np.array([[-1j * (nu + 2.0 * q * q), 2j * qp],
                   [-2j * qp, 1j * (nu + 2.0 * q * q)]], dtype=complex)
    A1 = np.array([[0.0, 4.0 * q], [4.0 * q, 0.0]], dtype=complex)
    return A0, A1, -4j * _SIGMA3


class PiiSolver(SectoralSolver):
    """Solver for the Painleve II model RH problem at real nu in [-12, 12]."""

    RAYS = PII_RAY_ANGLES
    JUMPS = PII_JUMPS
    LOW_SECTOR = 3          # arg in [0, pi/6]: the wrap-around sector
    MIRROR = (-1.0, np.eye(2, dtype=complex))   # sectors 0, 2 to themselves, 1 <-> 3
    # the real line for `m_balanced`, x < 0 its mirror in sector 1: both
    # columns of Psi oscillate, so both go outward from Psi(0) = C_sector
    _LINES = {"real": (1.0, LOW_SECTOR, (0, 1), math.inf)}

    def __init__(self, nu):
        self.q, self.qp = hm_at(nu)
        self.nu = complex(nu).real
        self.lax_coeffs = _lax_coeffs(self.nu, self.q, self.qp)
        super().__init__()
        Q = painleve.default_solution().tail_integral(self.nu)
        E = math.cosh(Q) * np.eye(2) - math.sinh(Q) * _SIGMA1
        self.C = [E @ S for S in _STOKES]

    def theta(self, zeta: complex) -> complex:
        return 1j * ((4.0 / 3.0) * zeta ** 3 + self.nu * zeta)

    def split_solve(self, ray: int) -> list[np.ndarray]:
        return self.C           # the chain C_k = C_{k-1} J_k is exact: no cut

    # -- evaluation and checks --------------------------------------------

    psi = SectoralSolver.sectional

    def det_psi(self, zeta: complex) -> complex:
        return complex(np.linalg.det(self.psi(zeta)))

    def q_extract(self) -> complex:
        """2i times the residue lim zeta (Psi E^{-1} - I)_{12}, fitted in 1/zeta.

        Recovers q(nu): the raw residue equals -(i/2) q(nu) (see module
        docstring).  Sampled on the upper imaginary axis from 2.6 to 4.2,
        where column 2 of Psi is dominant and therefore relatively accurate.
        """
        zeta = 1j * np.arange(2.6, 4.2 + 1e-9, 0.2)
        p12 = self.psi(zeta)[:, 0, 1] * np.exp(-self.theta(zeta))
        coef, *_ = np.linalg.lstsq(np.vander(1.0 / zeta, 5, increasing=True), zeta * p12,
                                   rcond=None)
        return 2j * complex(coef[0])

    def symmetry_residual(self, zeta: complex) -> float:
        """max |sigma1 Psi(-zeta) sigma1 - Psi(zeta)|."""
        return float(np.max(np.abs(_SIGMA1 @ self.psi(-zeta) @ _SIGMA1 - self.psi(zeta))))


@functools.lru_cache(maxsize=16)
def get_pii_solver(nu: float) -> PiiSolver:
    """Cached Painleve II model-RH solver at parameter nu."""
    return PiiSolver(nu)
