"""Tests for the 2x2 Painleve II RH solver and the kernel K_PII."""

import cmath
import math

import numpy as np
import pytest

from critkernels import kernels, painleve, series
from critkernels.piisolver import PII_JUMPS, PII_RAY_ANGLES, PiiSolver, hm_at

HM = painleve.default_solution()


@pytest.fixture(scope="module")
def solver():
    return PiiSolver(0.0)


def test_cyclic_jump_product():
    # [PAPER] the four Stokes matrices compose to the identity
    P = np.eye(2, dtype=complex)
    for J in PII_JUMPS:
        P = P @ J
    assert np.max(np.abs(P - np.eye(2))) < 1e-14


def test_sector_of():
    # [TRIVIAL] sector lookup against the ray angles; arguments in
    # [0, pi/6], the first ray included, lie in the wrap-around sector 3
    assert PiiSolver.sector_of(1.0) == 3
    assert PiiSolver.sector_of(1j) == 0
    assert PiiSolver.sector_of(-1.0) == 1
    assert PiiSolver.sector_of(-1j) == 2
    assert PiiSolver.sector_of(cmath.exp(1j * PII_RAY_ANGLES[0])) == 3


def test_jump_residuals_all_rays(solver):
    # [PAPER] Psi_+ = Psi_- J_k on all four rays, with the chain of
    # sector constants cut at the ray under test
    for ray in range(4):
        for radius in (0.5, 1.5):
            assert solver.jump_residual(ray, radius) < 1e-4, (ray, radius)


def test_measured_jump_entries(solver):
    # [PAPER] the measured connection matrix reproduces the unit Stokes
    # entries
    for ray in range(4):
        G = solver.measured_jump(ray, 1.0)
        assert np.max(np.abs(G - PII_JUMPS[ray])) < 1e-4, ray


def test_q_recovery(solver):
    # [PAPER] the residue of Psi recovers the Hastings-McLeod value at
    # nu = 0 (after the 2i normalization of the raw residue)
    q = solver.q_extract()
    assert abs(q - HM(0.0)[0]) < 1e-3
    assert abs(q.imag) < 1e-6


def test_q_recovery_other_nu():
    # [PAPER] same recovery away from nu = 0
    sv = PiiSolver(1.0)
    assert abs(sv.q_extract() - HM(1.0)[0]) < 1e-3


def test_sigma1_symmetry(solver):
    # [PAPER] sigma1 Psi(-zeta) sigma1 = Psi(zeta)
    for zeta in (0.7 + 0.4j, 1.5, -0.3 + 1.1j):
        assert solver.symmetry_residual(zeta) < 1e-6, zeta


def test_det_psi_is_one(solver):
    # [DERIVED] unimodular jumps and frame force det Psi = 1
    for zeta in (0.5 + 0.5j, 2j, 1.2 - 0.8j):
        assert abs(solver.det_psi(zeta) - 1.0) < 1e-6


def test_ode_residual(solver):
    # [DERIVED] Psi solves the Flaschka-Newell system
    from critkernels.piisolver import _fn_matrix
    zeta = 0.6 + 0.9j
    h = 1e-5
    dP = (solver.psi(zeta + h) - solver.psi(zeta - h)) / (2.0 * h)
    A = _fn_matrix(zeta, solver.nu, solver.q, solver.qp)
    assert np.max(np.abs(dP - A @ solver.psi(zeta))) < 1e-6


def test_psi_array_matches_scalar(solver):
    # [TRIVIAL] one batched psi call gives the scalar calls' values
    zs = np.array([[0.3 + 0.2j, -1.1j, 2.0], [-0.8 + 0.1j, 0.0, 1.5 + 1.5j]])
    batch = solver.psi(zs)
    assert batch.shape == (2, 3, 2, 2)
    for idx, z in np.ndenumerate(zs):
        one = solver.psi(z)
        assert np.max(np.abs(batch[idx] - one)) <= 1e-14 * np.max(np.abs(one))


def test_hm_complex_continuation():
    # [DERIVED] complex-nu continuation reduces to the real solution on
    # the real axis and satisfies Painleve II off it
    q, qp = hm_at(0.5)
    assert abs(q - HM(0.5)[0]) < 1e-12
    nu = 0.5 + 0.3j
    h = 1e-4
    qs = [hm_at(complex(nu.real, nu.imag + d))[0] for d in (-h, 0.0, h)]
    qpp = (qs[0] - 2.0 * qs[1] + qs[2]) / (1j * h) ** 2
    assert abs(qpp - (nu * qs[1] + 2.0 * qs[1] ** 3)) < 1e-5


def test_kernel_pii_reality():
    # [DERIVED] K_PII is real on the real line
    K = kernels.kernel_pii(0.3, -0.6, 1.0)
    assert abs(K.imag) < 1e-8
    assert K.real != 0.0


def test_kernel_pii_diag_nonnegative():
    # [DERIVED] the default argument order gives a nonnegative diagonal
    for x in np.linspace(-2.5, 2.5, 11):
        d = kernels.kernel_pii_diag(x, 0.0)
        assert d.real > -1e-8
        assert abs(d.imag) < 1e-8


def test_kernel_pii_coincidence():
    # [TRIVIAL] divided difference tends to the derivative construction
    d = kernels.kernel_pii_diag(0.4, 0.0)
    p = kernels.kernel_pii(0.4, 0.4 + 1e-5, 0.0)
    assert abs(d - p) < 1e-4


def test_kernel_pii_reflection():
    # [DERIVED] sigma1 symmetry of Psi makes K_PII(-x, -y) = K_PII(x, y)
    a = kernels.kernel_pii(0.3, -0.6, 1.0)
    b = kernels.kernel_pii(-0.3, 0.6, 1.0)
    assert abs(a - b) < 1e-10


@pytest.mark.parametrize("nu", [0.0, 1.0, 0.3 + 0.2j])
def test_series_residue_is_q(nu):
    # [DERIVED] the zeta^1 relation forces (P_1)_12 = -(i/2) q(nu)
    sv = PiiSolver(nu)
    q = hm_at(nu)[0]
    assert abs(sv.coeffs[0][0, 1] + 0.5j * q) < 1e-12


@pytest.mark.parametrize("nu", [0.0, 1.0, 0.3 + 0.2j])
def test_series_residual_decays_with_order(nu):
    # [DERIVED] the truncated prefactor solves P' = A P - P E'E^{-1} to
    # increasing order
    sv = PiiSolver(nu)
    zeta = 6.0 + 2.0j
    h = 1e-5 * abs(zeta)
    G = -1j * (4.0 * zeta ** 2 + sv.nu) * np.diag([1.0, -1.0])

    def residual(order):
        P = lambda z: series.prefactor_sum(sv.coeffs[:order], 1.0 / z)
        dP = (P(zeta + h) - P(zeta - h)) / (2.0 * h)
        return np.max(np.abs(dP - sv.lax(zeta) @ P(zeta) + P(zeta) @ G))

    r2, r5, r8 = residual(2), residual(5), residual(8)
    assert r5 < 0.1 * r2
    assert r8 < 0.1 * r5
    assert r8 < 1e-6
