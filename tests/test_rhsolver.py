"""Tests for the global Riemann-Hilbert solver."""

import cmath
import functools
import math

import numpy as np
import pytest

from critkernels import series
from critkernels.painleve import default_solution
from critkernels.piisolver import PiiSolver, get_pii_solver
from critkernels.rhsolver import JUMPS, RAY_ANGLES, RhSolver, get_solver

from oracles import chain_fit_kron

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


@pytest.mark.parametrize("half,sign", [("imag+", 1.0), ("imag-", -1.0)])
def test_m_balanced_matches_m(half, sign):
    # [DERIVED] both transport legs of m_balanced -- the dominant columns
    # outward from M(0), the others inward from the series -- reproduce
    # the engine's M(+-iu) (sectors 2 and 7) on each half of the imaginary
    # line, column by column
    S = solver(0.0, 0.0, 14.0, 16)
    us = [0.5, 1.0, 2.0]
    for u, Mhat, logs in zip(us, *S.m_balanced(sign * np.array(us), "imag")):
        M = S.M(sign * 1j * u)
        diff = np.max(np.abs(Mhat * np.exp(logs) - M), axis=0)
        assert np.max(diff / np.max(np.abs(M), axis=0)) < 1e-6, u


def test_m_balanced_request_independent():
    # [DERIVED] a point's balanced M does not depend on the other points
    # of the same request
    S = solver(0.0, 0.0, 14.0, 16)
    Ma, la = (x[0] for x in S.m_balanced([0.5], "imag"))
    Mb, lb = (x[0] for x in S.m_balanced([0.5, 3.3], "imag"))
    A, B = Ma * np.exp(la), Mb * np.exp(lb)
    assert np.max(np.abs(A - B)) <= 1e-15 * np.max(np.abs(A))
    # a mixed-sign request gives the 0.5 row bit for bit
    Mc, lc = (x[1] for x in S.m_balanced([-0.7, 0.5, 3.3], "imag"))
    assert np.array_equal(Mc, Ma) and np.array_equal(lc, la)


def _column_gap(a, b):
    """Largest column-relative difference of two balanced M's."""
    A, B = a[0] * np.exp(a[1]), b[0] * np.exp(b[1])
    gap = np.max(np.abs(A - B), axis=0) / np.max(np.abs(A), axis=0)
    return float(np.max(gap))


def test_m_balanced_request_independent_beyond_r0():
    # [DERIVED] a point beyond r0 in the same request does not move the
    # inward start of the others
    S = solver(0.0, 0.0, 14.0, 16)
    assert _column_gap([x[0] for x in S.m_balanced([5.0], "imag")],
                       [x[0] for x in S.m_balanced([5.0, 20.0], "imag")]) <= 1e-15


def test_default_solver_is_the_cached_one():
    # [TRIVIAL] RhSolver's defaults are the r0 and series order that
    # get_solver builds with, so both give the same sector constants
    fresh, cached = RhSolver(0.3, -0.2), get_solver(0.3, -0.2)
    assert fresh.r0 == cached.r0
    assert len(fresh.fs.coeffs) == len(cached.fs.coeffs)
    assert np.array_equal(fresh.C, cached.C)


@pytest.mark.parametrize("r0", [math.nan, math.inf, 0.0, -3.0], ids=["nan", "inf", "0", "-3"])
def test_bad_r0_rejected_by_name(r0):
    # [TRIVIAL] a non-finite or non-positive r0 raises ValueError naming
    # it before any transport (nan and inf used to step without end, 0
    # to divide by zero, -3 to fit with a matching residual of 1.07)
    for build in (RhSolver, get_solver):
        with pytest.raises(ValueError, match="^r0 must be"):
            build(0.0, 0.0, r0=r0)


@pytest.mark.parametrize("s,t", [(0.3, -0.2), (3.0, 0.0), (-2.0, 1.0), (5.0, -4.0)])
def test_lower_frames_are_the_mirror_of_plus(s, t):
    # [DERIVED] a solver holds the '+' series only and reads sectors 5-9
    # as its mirror D conj(F(conj zeta)) D; that equals the frame of the
    # '-' solve of build_series bit for bit, at the anchors and at -iu
    solver = RhSolver(s, t)
    minus = series.build_series(s, t, "-", order=len(solver.fs.coeffs))
    radii = (solver.r0, solver.INNER * solver.r0)
    *_, F, g = solver._anchors
    for i in range(15, 30):
        for m, r in enumerate(radii):
            Fm, gm = minus.frame_scaled(r * solver._directions[i])
            assert np.array_equal(F[i, m], Fm) and np.array_equal(g[i, m], gm), (i, r)
    for u in (solver.r0, 20.0):
        F, g = solver._series_frame(-1j * u, 7)
        Fm, gm = minus.frame_scaled(-1j * u)
        assert np.array_equal(F, Fm) and np.array_equal(g, gm), u


def test_real_line_has_no_negative_points():
    # [TRIVIAL] the positive real axis is not its own mirror image, so a
    # point x < 0 on "real+" is rejected by name
    with pytest.raises(ValueError, match="line 'real\\+' has no points x < 0"):
        solver(0.0, 0.0, 14.0, 16).m_balanced([-1.0], "real+")


def test_m_mirror_symmetry():
    # [PAPER] real (s, t) make M(conj z) = D conj(M(z)) D, D = diag(1, 1, -1, -1),
    # with z and conj z in mirrored sectors k and 9 - k
    S = solver(0.3, -0.2, 14.0, 16)
    D = np.diag([1.0, 1.0, -1.0, -1.0])
    for z in (0.7 + 0.4j, 1.5 + 3.0j, -0.3 + 1.1j, -2.0 + 0.5j, 4.0 + 0.2j, -5.0 + 6.0j):
        M = S.M(z)
        err = np.max(np.abs(S.M(z.conjugate()) - D @ M.conj() @ D))
        assert err <= 1e-13 * np.max(np.abs(M)), z


def test_get_solver_caches_by_value():
    # [TRIVIAL] the keyword and the default r0 name one solver
    assert get_solver(0, 0, r0=14.0) is get_solver(0, 0)
    assert get_solver(0.3, -0.2, 14) is get_solver(0.3, -0.2)


def test_m_balanced_cache_state_independent():
    # [DERIVED] a solver that has evaluated other points before gives the
    # same values, bit for bit, as a fresh one
    points = [0.5, 3.3, 12.0]
    cold = RhSolver(0.0, 0.0, r0=14.0, series_order=16)
    warm = RhSolver(0.0, 0.0, r0=14.0, series_order=16)
    for sign in (1.0, -1.0):
        warm.m_balanced(sign * np.array([0.25, 7.0, 20.0]), "imag")
        x = sign * np.array(points)
        a, b = cold.m_balanced(x, "imag"), warm.m_balanced(x, "imag")
        for i, u in enumerate(x):
            assert np.array_equal(a[0][i], b[0][i]), u
            assert np.array_equal(a[1][i], b[1][i]), u


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


@pytest.mark.parametrize("build", [
    lambda: RhSolver(0.0, 0.0), lambda: RhSolver(0.3, -0.2), lambda: RhSolver(-2.0, 1.0),
    lambda: RhSolver(3.0, 0.0), lambda: PiiSolver(-2.0), lambda: PiiSolver(2.0 ** (5.0 / 3.0) * 0.5),
], ids=["rh-0-0", "rh-0.3--0.2", "rh--2-1", "rh-3-0", "pii--2", "pii-1.587"])
def test_chain_fit_equals_the_kron_oracle(build):
    # [DERIVED] the stacked assembly (one einsum, jump products as running
    # products) gives the full-chain C and every split solve bit for bit
    # as the anchor-by-anchor kron assembly with its chain walk
    solver = build()
    half = len(solver.RAYS) // 2
    assert np.array_equal(solver.C, chain_fit_kron(solver))
    for ray in range(half):
        assert np.array_equal(solver.split_solve(ray), chain_fit_kron(solver, (ray, ray + half))), ray


@pytest.mark.parametrize("z", [math.nan, complex(1.0, math.nan), math.inf],
                         ids=["nan", "1+nan*j", "inf"])
def test_non_finite_point_rejected_by_name(z):
    # [TRIVIAL] a non-finite zeta raises ValueError naming it, in phi and
    # so in M, det_m and psi, and a non-finite point of a line in
    # m_balanced: nan used to read as the origin (phi = I, M = C_0,
    # det_m = 1) and inf to step without end
    S = get_solver(0.3, -0.2)
    for f in (S.phi, S.M, S.det_m, get_pii_solver(1.0).psi):
        with pytest.raises(ValueError, match="^zeta must be finite"):
            f(z)
        with pytest.raises(ValueError, match="^zeta must be finite"):
            f(np.array([0.5j, z]))
    with pytest.raises(ValueError, match="^points must be finite"):
        S.m_balanced([1.0, abs(z)], "imag")
