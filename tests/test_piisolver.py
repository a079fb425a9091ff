"""Tests for the 2x2 Painleve II RH solver and the kernel K_PII."""

import cmath
import math

import numpy as np
import pytest

from critkernels import kernels, painleve, series
from critkernels.errors import DomainRestriction, IntegrationFailure
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


def test_psi_mirror_symmetry(solver):
    # [PAPER] real nu makes Psi(-conj z) = conj(Psi(z)), with sectors 0
    # and 2 mirrored onto themselves and sector 1 onto sector 3
    for zeta in (0.7 + 0.4j, 1.5 + 0.3j, -0.3 + 1.1j, -2.0 + 0.5j, 0.2 - 1.5j, 1.8j):
        Psi = solver.psi(zeta)
        err = np.max(np.abs(solver.psi(-zeta.conjugate()) - Psi.conj()))
        assert err <= 1e-13 * np.max(np.abs(Psi)), zeta


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


def test_psi_overflow_raises_by_name():
    # [TRIVIAL] where Phi exceeds the double range, psi raises
    # IntegrationFailure naming zeta, with no RuntimeWarning on the way
    # (it used to return a nan matrix after "overflow encountered in exp")
    with pytest.raises(IntegrationFailure, match=r"at zeta = \(0\.2\+9j\)"):
        PiiSolver(1.0).psi(0.2 + 9j)


def test_m_balanced_matches_psi(solver):
    # [DERIVED] the recorded real-axis sweeps of m_balanced reproduce
    # Psi(x) = Phi(x) C_k (sector 3 for x >= 0, sector 1 for x < 0),
    # and x = 0 reads C_3 itself
    for sign in (1.0, -1.0):
        xs = [0.0, 0.4, 1.7, 3.0]
        for x, Mhat, logs in zip(xs, *solver.m_balanced(sign * np.array(xs), "real")):
            Psi = solver.psi(sign * x) if x else solver.C[3]
            assert np.max(np.abs(Mhat * np.exp(logs) - Psi)) <= 1e-13 * np.max(np.abs(Psi))


def test_hm_at_is_the_real_solution():
    # [TRIVIAL] hm_at reads the one Hastings-McLeod solution, and a
    # complex nu with zero imaginary part is the same real nu
    q, qp, _ = HM(0.5)
    assert hm_at(0.5) == hm_at(complex(0.5)) == (q, qp)
    nu = PiiSolver(complex(0.5)).nu
    assert isinstance(nu, float) and nu == 0.5


@pytest.mark.parametrize("build", [
    hm_at, PiiSolver, kernels.get_pii_solver,
    lambda nu: kernels.kernel_pii(0.3, -0.6, nu),
], ids=["hm_at", "PiiSolver", "get_pii_solver", "kernel_pii"])
def test_nu_must_be_real_and_finite(build):
    # [TRIVIAL] Painleve II is solved for real nu only: a non-real nu
    # raises DomainRestriction naming it, a non-finite one ValueError
    with pytest.raises(DomainRestriction, match="nu must be real"):
        build(0.3 + 0.2j)
    with pytest.raises(ValueError, match="^nu must be finite"):
        build(math.nan)


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


@pytest.mark.parametrize("nu", [0.0, 1.0])
def test_series_residue_is_q(nu):
    # [DERIVED] the zeta^1 relation forces (P_1)_12 = -(i/2) q(nu)
    sv = PiiSolver(nu)
    q = hm_at(nu)[0]
    assert abs(sv.coeffs[0][0, 1] + 0.5j * q) < 1e-12


@pytest.mark.parametrize("nu", [0.0, 1.0])
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
