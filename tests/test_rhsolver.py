"""Tests for the global Riemann-Hilbert solver."""

import cmath
import functools

import numpy as np
import pytest

from critkernels.painleve import default_solution
from critkernels.rhsolver import JUMPS, RAY_ANGLES, RhSolver, get_solver

HM = default_solution()


@functools.lru_cache(maxsize=None)
def solver(s, t, r0=12.0, order=14):
    return RhSolver(s, t, r0=r0, series_order=order)


def test_cyclic_jump_product():
    # [PAPER] the ten jump matrices compose to the identity around zero
    P = np.eye(4, dtype=complex)
    for k in list(range(1, 10)) + [0]:
        P = P @ JUMPS[k]
    assert np.max(np.abs(P - np.eye(4))) < 1e-14


def test_jumps_unimodular():
    # [TRIVIAL] every jump matrix has determinant one
    for J in JUMPS:
        assert abs(np.linalg.det(J) - 1.0) < 1e-14


def test_sector_of():
    # [TRIVIAL] sector lookup against the ray angles
    assert RhSolver.sector_of(1.0 + 0.1j) == 0
    assert RhSolver.sector_of(1j) == 2
    assert RhSolver.sector_of(-1.0 - 0.1j) == 5
    assert RhSolver.sector_of(1.0 - 0.1j) == 9


def test_matching_residuals():
    # [DERIVED] the solved constants reproduce the asymptotic series at
    # the anchors in every sector
    S = solver(0.0, 0.0)
    assert max(S.matching_residual(k) for k in range(10)) < 1e-5


@pytest.mark.parametrize("s,t,r0,order", [(0.0, 0.0, 10.0, 14),
                                          (1.0, -1.0, 18.0, 18)])
def test_jump_residuals_all_rays(s, t, r0, order):
    # [PAPER] M_+ = M_- J_k on all ten rays, measured at two radii with
    # the chain of constants cut at the ray under test (the jump being
    # checked never enters the solve)
    S = solver(s, t, r0, order)
    for ray in range(10):
        for radius in (0.5, 2.0):
            assert S.jump_residual(ray, radius) < 1e-4, (ray, radius)


def test_measured_jump_entries():
    # [PAPER] the measured connection matrix on ray 1 reproduces the
    # unit (3,1) Stokes entry
    S = solver(0.0, 0.0, 10.0)
    G = S.measured_jump(1, 1.0)
    assert np.max(np.abs(G - JUMPS[1])) < 1e-4


def test_det_m_is_one():
    # [DERIVED] unimodular jumps and frame make det M identically 1
    S = solver(0.0, 0.0, 10.0)
    for zeta in (2j, 5j, 1 + 1j):
        assert abs(S.det_m(zeta) - 1.0) < 1e-6


def test_two_radius_agreement():
    # [DERIVED] solves anchored at r0 = 10 and r0 = 14 agree entrywise;
    # the primary self-certification of the solver's accuracy
    A = solver(0.0, 0.0, 10.0)
    B = solver(0.0, 0.0, 14.0)
    pts = [2j, 5j, 1 + 1j, -1.5 + 0.5j, 0.3 - 2j,
           2.0 * cmath.exp(0.8j)]
    for z in pts:
        Ma, Mb = A.M(z), B.M(z)
        scale = max(1.0, float(np.max(np.abs(Ma))))
        assert np.max(np.abs(Ma - Mb)) / scale < 1e-5


def test_jump_data_t_independent():
    # [PAPER] the Stokes data of the problem do not depend on t
    A = solver(0.5, 0.0, 14.0)
    B = solver(0.5, 0.8, 14.0)
    for ray in range(10):
        d = np.max(np.abs(A.measured_jump(ray, 1.5) - B.measured_jump(ray, 1.5)))
        assert d < 1e-4, ray


def test_ode_residual_of_m():
    # [DERIVED] the returned M satisfies dM/dzeta = U M
    from critkernels import laxpair
    S = solver(0.0, 0.0, 10.0)
    zeta = 1.0 + 2.0j
    h = 1e-5
    dM = (S.M(zeta + h) - S.M(zeta - h)) / (2.0 * h)
    U, _ = laxpair.lax_matrices(zeta, S.co)
    M0 = S.M(zeta)
    rel = np.max(np.abs(dM - U @ M0)) / np.max(np.abs(M0))
    assert rel < 1e-7


@pytest.mark.parametrize("axis,sign", [("imag+", 1.0), ("imag-", -1.0)])
def test_m_balanced_matches_m(axis, sign):
    # [DERIVED] both transport legs of m_balanced -- the dominant columns
    # outward from M(0), the others inward from the series -- reproduce
    # the engine's M(+-iu) (sectors 2 and 7), column by column
    S = solver(0.0, 0.0, 14.0, 16)
    for u, (Mhat, logs) in S.m_balanced([0.5, 1.0, 2.0], axis).items():
        M = S.M(sign * 1j * u)
        diff = np.max(np.abs(Mhat * np.exp(logs) - M), axis=0)
        assert np.max(diff / np.max(np.abs(M), axis=0)) < 1e-6, u


def test_m_balanced_request_independent():
    # [DERIVED] a point's balanced M does not depend on the other points
    # of the same request
    S = solver(0.0, 0.0, 14.0, 16)
    Ma, la = S.m_balanced([0.5])[0.5]
    Mb, lb = S.m_balanced([0.5, 3.3])[0.5]
    A, B = Ma * np.exp(la), Mb * np.exp(lb)
    assert np.max(np.abs(A - B)) <= 1e-15 * np.max(np.abs(A))


def _column_gap(a, b):
    """Largest column-relative difference of two balanced M's."""
    A, B = a[0] * np.exp(a[1]), b[0] * np.exp(b[1])
    gap = np.max(np.abs(A - B), axis=0) / np.max(np.abs(A), axis=0)
    return float(np.max(gap))


def test_m_balanced_request_independent_beyond_r0():
    # [DERIVED] a point beyond r0 in the same request does not move the
    # inward start of the others
    S = solver(0.0, 0.0, 14.0, 16)
    assert _column_gap(S.m_balanced([5.0])[5.0],
                       S.m_balanced([5.0, 20.0])[5.0]) <= 1e-15


def test_default_solver_is_the_cached_one():
    # [TRIVIAL] RhSolver's defaults are the r0 and series order that
    # get_solver builds with, so both give the same sector constants
    fresh, cached = RhSolver(0.3, -0.2), get_solver(0.3, -0.2)
    assert fresh.r0 == cached.r0
    assert len(fresh.fs["+"].coeffs) == len(cached.fs["+"].coeffs)
    assert np.array_equal(fresh.C, cached.C)


def test_m_balanced_cache_state_independent():
    # [DERIVED] a solver that has evaluated other points before gives the
    # same values, bit for bit, as a fresh one
    points = [0.5, 3.3, 12.0]
    cold = RhSolver(0.0, 0.0, r0=14.0, series_order=16)
    warm = RhSolver(0.0, 0.0, r0=14.0, series_order=16)
    for axis in ("imag+", "imag-"):
        warm.m_balanced([0.25, 7.0, 20.0], axis)
        a, b = cold.m_balanced(points, axis), warm.m_balanced(points, axis)
        for u in points:
            assert np.array_equal(a[u][0], b[u][0]), (axis, u)
            assert np.array_equal(a[u][1], b[u][1]), (axis, u)


@pytest.mark.parametrize("s,t", [(0.0, 0.0), (0.5, -1.0), (1.0, 0.0)])
def test_hm_extraction(s, t):
    # [PAPER] the 1/zeta coefficient of the (1,4) entry of M times the
    # inverse frame recovers i 2^{-1/3} q(2^{2/3}(2s - t^2)), from the
    # default window and from one that lies wholly below r0, where every
    # point reads transported M
    S = solver(s, t, 14.0, 16)
    target = 1j * 2.0 ** (-1.0 / 3.0) * HM.q(2.0 ** (2.0 / 3.0) * (2 * s - t * t))
    for window in (None, np.arange(6.0, 13.51, 0.5)):
        assert abs(S.hm_extract(window) - target) < 1e-3, window


def test_hm_extraction_st_coincidence():
    # [TRIVIAL] (s,t) = (0.5,-1) has 2s - t^2 = 0, the same target as (0,0)
    A = solver(0.0, 0.0, 14.0, 16)
    B = solver(0.5, -1.0, 14.0, 16)
    assert abs(A.hm_extract() - B.hm_extract()) < 2e-3
