"""The 4x4 Lax pair underlying the critical kernel.

The matrices U (in the spectral variable zeta) and W (in the deformation
parameter t) are polynomial in zeta with coefficients built from the
Hastings-McLeod Painleve II transcendent q and its Hamiltonian u evaluated
at 2^{2/3}(2s - t^2).  Compatibility of the overdetermined system

    dM/dzeta = U M,    dM/dt = W M

is equivalent to q solving Painleve II, and yields six scalar first-order
identities among the coefficient functions which the test-suite verifies.
The module also provides the explicit leading-order asymptotic frame
B(zeta) A E(zeta) of the solution at zeta -> infinity; its corrections
are the series of `series`.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from . import painleve
from .errors import _finite

__all__ = [
    "U1",
    "LaxCoefficients",
    "lax_coefficients",
    "lax_matrices",
    "compatibility_residual",
    "identity_residuals",
    "asymptotic_frame",
    "frame_exponents",
    "frame_base_scaled",
]

_CBRT2 = 2.0 ** (1.0 / 3.0)
_DT_STEP = 1e-4          # t-step of the Richardson derivative in the checks

# constant unitary factor of the asymptotic frame
_A = np.array(
    [
        [1.0, 0.0, -1.0j, 0.0],
        [0.0, 1.0, 0.0, 1.0j],
        [-1.0j, 0.0, 1.0, 0.0],
        [0.0, 1.0j, 0.0, 1.0],
    ],
    dtype=complex,
) / math.sqrt(2.0)

# U(zeta) = U0 + U1 zeta: the zeta-coefficient of U is this constant
U1 = np.zeros((4, 4), dtype=complex)
U1[2, 0] = 1.0j
U1[3, 1] = -1.0j

# (-zeta)^{1/4} = omega_q zeta^{1/4} on each variant's branch
_OMEGA_Q = {"+": cmath.exp(-1j * math.pi / 4.0), "-": cmath.exp(1j * math.pi / 4.0)}


@dataclass(frozen=True)
class LaxCoefficients:
    """Scalar coefficient functions of the Lax pair at fixed (s, t)."""

    s: float
    t: float
    q: float
    qprime: float
    u: float
    b: float
    c: float
    d: float
    f: float
    h: float
    k: float


def lax_coefficients(s: float, t: float) -> LaxCoefficients:
    """Coefficients (b, c, d, f, h, k) of the Lax pair at (s, t)."""
    _finite(s=s, t=t)
    arg = 2.0 ** (2.0 / 3.0) * (2.0 * s - t * t)
    q, qp, u = painleve.default_solution()(arg)
    d = q / _CBRT2
    c = -u / _CBRT2 + s * s
    # dd/dt = -2^{4/3} t q'(arg), so (1/(4t)) dd/dt = -2^{-2/3} q'(arg) for every t
    quarter = -(2.0 ** (-2.0 / 3.0)) * qp
    b = quarter + d * c + t * d
    h = quarter + d * c - t * d
    f = 2.0 * d * t * t - c * (2.0 * quarter) - d * c * c - d**3 - 2.0 * d * s
    k = c * c - d * d - s
    return LaxCoefficients(s=s, t=t, q=q, qprime=qp, u=u,
                           b=b, c=c, d=d, f=f, h=h, k=k)


def lax_matrices(zeta: complex, co: LaxCoefficients) -> tuple[np.ndarray, np.ndarray]:
    """(U, W) of the Lax pair at spectral point zeta."""
    s, t = co.s, co.t
    b, c, d, f, h, k = co.b, co.c, co.d, co.f, co.h, co.k
    i = 1.0j
    U = np.array(
        [
            [t - c, d, i, 0.0],
            [-d, c - t, 0.0, i],
            [i * (zeta - s) + i * k, -i * (h + b), t + c, d],
            [-i * (h + b), -i * (zeta + s) + i * k, -d, -(t + c)],
        ],
        dtype=complex,
    )
    W = np.array(
        [
            [zeta, -2.0 * b, 0.0, -2.0 * i * d],
            [-2.0 * b, -zeta, 2.0 * i * d, 0.0],
            [0.0, -2.0 * i * f, zeta, -2.0 * h],
            [2.0 * i * f, 0.0, -2.0 * h, -zeta],
        ],
        dtype=complex,
    )
    return U, W


def _richardson_dt(fn, t: float):
    """Richardson-extrapolated centered first derivative in t."""
    d1 = (fn(t + _DT_STEP) - fn(t - _DT_STEP)) / (2.0 * _DT_STEP)
    d2 = (fn(t + _DT_STEP / 2.0) - fn(t - _DT_STEP / 2.0)) / _DT_STEP
    return (4.0 * d2 - d1) / 3.0


def compatibility_residual(zeta: complex, s: float, t: float) -> float:
    """Max-norm of dW/dzeta - dU/dt - [U, W] at (zeta, s, t).

    dW/dzeta = diag(1, -1, 1, -1) exactly; dU/dt is taken by a
    Richardson-extrapolated centered difference.
    """
    co = lax_coefficients(s, t)
    U, W = lax_matrices(zeta, co)
    dU = _richardson_dt(lambda tt: lax_matrices(zeta, lax_coefficients(s, tt))[0], t)
    lhs = np.diag([1.0, -1.0, 1.0, -1.0]).astype(complex)
    res = lhs - dU - (U @ W - W @ U)
    return float(np.max(np.abs(res)))


def identity_residuals(s: float, t: float) -> dict[str, float]:
    """Residuals of the six scalar compatibility identities (primes = d/dt)."""
    co = lax_coefficients(s, t)

    def coeff_vec(tt: float) -> np.ndarray:
        c2 = lax_coefficients(s, tt)
        return np.array([c2.b, c2.c, c2.d, c2.f, c2.h, c2.k])

    bp, cp, dp, fp, hp, kp = _richardson_dt(coeff_vec, t)
    b, c, d, f, h, k = co.b, co.c, co.d, co.f, co.h, co.k
    return {
        "c_prime": abs(cp - 2.0 * (h - b) * d),
        "d_prime_b": abs(dp - (4.0 * b * (t - c) - 2.0 * d * s + 2.0 * d * k - 2.0 * f)),
        "d_prime_h": abs(dp - (4.0 * h * (t + c) + 2.0 * d * s - 2.0 * d * k + 2.0 * f)),
        "b_minus_h": abs((b - h) - 2.0 * d * t),
        "k_prime": abs(kp - 2.0 * (h * h - b * b)),
        "hb_prime": abs((hp + bp) - (-4.0 * f * t + 2.0 * (h - b) * (k - s))),
    }


def _omega_q(variant: str) -> complex:
    """omega_q of the variant; rejects any variant other than '+' and '-'."""
    if variant not in _OMEGA_Q:
        raise ValueError(f"variant must be '+' or '-', not {variant!r}")
    return _OMEGA_Q[variant]


def _branch_arg(zeta: complex, variant: str) -> float:
    """arg zeta on the variant's branch of the fractional powers.

    The fractional powers of zeta are continued from the positive real axis
    with arg zeta in (-pi/2, 3pi/2] for variant '+' (valid in the upper
    sectors) and arg zeta in [-3pi/2, pi/2) for variant '-' (the tests'
    reference for the solver's mirror of '+').
    """
    theta = cmath.phase(zeta)
    if variant == "+" and theta <= -math.pi / 2.0:
        theta += 2.0 * math.pi
    elif variant == "-" and theta >= math.pi / 2.0:
        theta -= 2.0 * math.pi
    return theta


def _branch_data(zeta: complex, variant: str) -> tuple[complex, complex]:
    """(zeta^{1/4}, omega_q) for the variant's branch of fractional powers."""
    theta = _branch_arg(zeta, variant)
    return abs(zeta)**0.25 * cmath.exp(1j * theta / 4.0), _omega_q(variant)


def frame_exponents(zeta: complex, s: float, t: float,
                    variant: str = "+") -> np.ndarray:
    """The four exponents E_j of E(zeta) = diag(e^{E_1}, ..., e^{E_4}).

    E = (-psi(-zeta)+t zeta, -psi(zeta)-t zeta, psi(-zeta)+t zeta,
    psi(zeta)-t zeta) with psi(zeta) = (2/3) zeta^{3/2} + 2 s zeta^{1/2}
    on the variant's branch.
    """
    z14, omega_q = _branch_data(zeta, variant)
    z12 = z14 * z14
    m12 = omega_q**2 * z12         # (-zeta)^{1/2}
    psi_p = (2.0 / 3.0) * z12**3 + 2.0 * s * z12   # psi(zeta)
    psi_m = (2.0 / 3.0) * m12**3 + 2.0 * s * m12   # psi(-zeta)
    return np.array([
        -psi_m + t * zeta,
        -psi_p - t * zeta,
        psi_m + t * zeta,
        psi_p - t * zeta,
    ])


def frame_base_scaled(zeta: complex, s: float, t: float,
                      variant: str = "+") -> tuple[np.ndarray, np.ndarray]:
    """(B A diag(e^{i Im E_j}), g) with g_j = Re E_j: one log scale per column.

    The frame is the base times diag(e^{g_j}).  The base stays within
    floating-point range for arbitrarily large |zeta| and deformation
    parameters, and a column recessive by any number of e-folds keeps
    its full relative precision.
    """
    z14, omega_q = _branch_data(zeta, variant)
    m14 = omega_q * z14            # (-zeta)^{1/4}
    exps = frame_exponents(zeta, s, t, variant)
    B = np.diag([1.0 / m14, 1.0 / z14, m14, z14]).astype(complex)
    return B @ _A @ np.diag(np.exp(1j * exps.imag)), exps.real


def asymptotic_frame(zeta: complex, s: float, t: float,
                     variant: str = "+") -> np.ndarray:
    """Leading-order asymptotic frame B(zeta) A E(zeta).

    See `frame_base_scaled` for the branch conventions; this plain version
    overflows once the dominant exponent exceeds ~700.
    """
    base, g = frame_base_scaled(zeta, s, t, variant)
    return base * np.exp(g)
