"""Acceptance suite: the eleven quantitative criteria, one section each.

Each criterion is pinned to the tolerances recorded in the test bodies;
the module tests elsewhere in the suite explore the same machinery more
broadly.  Everything here runs from the public APIs.
"""

import cmath
import functools
import math

import numpy as np
import pytest

from critkernels import (dscale, finiten, kernels, laxpair, measures,
                         painleve, surface)
from critkernels.rhsolver import RhSolver

HM = painleve.default_solution()
CRIT = surface.SurfaceParams.critical()


@functools.lru_cache(maxsize=None)
def _solver(s, t, r0, order):
    return RhSolver(s, t, r0=r0, series_order=order)


# -- 1. spectral-curve closure ------------------------------------------


def test_criterion_1_spectral_curve():
    rng = np.random.default_rng(7)
    pts = rng.uniform(-4, 4, size=(200, 2))
    worst = 0.0
    for re, im in pts:
        z = complex(re, im)
        if abs(z) < 0.05 or abs(z.real) < 1e-3 or abs(z.imag) < 1e-3:
            continue
        xi = surface.xi_branches(z, CRIT).xi
        for x in xi:
            worst = max(worst, abs(x ** 4 - z * x ** 3 + z ** 2))
    assert worst < 1e-10
    # discriminant roots of z^6 (256 - 27 z^2): +-16/(3 sqrt 3)
    assert abs(CRIT.c - 16.0 / (3.0 * math.sqrt(3.0))) < 1e-10


# -- 2. measure masses ---------------------------------------------------


def _mass_triple(p):
    m1 = measures.mass_mu1(p)
    m2, _ = measures.mass_mu2(p)
    m3, _ = measures.mass_mu3(p)
    return m1, m2, m3


def test_criterion_2_masses():
    points = [CRIT]
    for (a, b) in ((1.0, 0.0), (0.5, 1.0)):
        alpha, tau = surface.scaled_params(a, b, 10 ** 6)
        points.append(surface.SurfaceParams.from_alpha_tau(alpha, tau))
    for p in points:
        m1, m2, m3 = _mass_triple(p)
        assert abs(m1 - 1.0) < 1e-6
        assert abs(m2 - 2.0 / 3.0) < 1e-4
        assert abs(m3 - 1.0 / 3.0) < 1e-4
    v1, _ = measures.xi_integral_check(CRIT)
    assert abs(v1 - math.pi) < 1e-6


# -- 3. square-root vanishing -------------------------------------------


def test_criterion_3_sqrt_exponent():
    xs = np.geomspace(1e-4, 1e-2, 12)
    vals = np.array([measures.density_mu1(float(x), CRIT) for x in xs])
    slope, _ = np.polyfit(np.log(xs), np.log(vals), 1)
    assert abs(slope - 0.5) < 0.005


# -- 4. Painleve II ------------------------------------------------------


def test_criterion_4_painleve():
    from scipy.special import airy

    xs = np.linspace(-8.0, 8.0, 801)
    qs = np.array([HM.q(x) for x in xs])
    qpp = HM.qsecond(xs)
    assert np.max(np.abs(qpp - 2.0 * qs ** 3 - xs * qs)) < 1e-8
    assert abs(HM.q(8.0) / airy(8.0)[0] - 1.0) < 1e-4
    up = HM._uinterp.derivative(1)(xs) if hasattr(HM, "_uinterp") else None
    if up is None:
        h = 1e-5
        resid = max(abs((HM.u(x + h) - HM.u(x - h)) / (2 * h) + HM.q(x) ** 2)
                    for x in np.linspace(-7.9, 7.9, 41))
    else:
        resid = float(np.max(np.abs(up + qs ** 2)))
    assert resid < 1e-8


# -- 5. Lax compatibility ------------------------------------------------


def test_criterion_5_lax():
    zetas = (0.8 + 0.3j, -1.2 + 0.7j, 1.6j)
    ss = (0.0, 0.4, 1.0)
    ts = (-0.8, 0.0, 0.5)
    worst = max(laxpair.compatibility_residual(z, s, t)
                for z in zetas for s in ss for t in ts)
    assert worst < 1e-6
    for s, t in ((0.0, 0.0), (0.4, -0.8)):
        idents = laxpair.identity_residuals(s, t)
        assert max(idents.values()) < 1e-6, (s, t)


# -- 6. RH solution validity --------------------------------------------


def test_criterion_6_rh_jumps_and_det():
    for (s, t, r0, order) in ((0.0, 0.0, 10.0, 14), (1.0, -1.0, 18.0, 18)):
        S = _solver(s, t, r0, order)
        for ray in range(10):
            for radius in (0.5, 2.0):
                assert S.jump_residual(ray, radius) < 1e-4, (s, t, ray)
    S = _solver(0.0, 0.0, 10.0, 14)
    for zeta in (2j, 5j, 1 + 1j):
        assert abs(S.det_m(zeta) - 1.0) < 1e-6


def test_criterion_6_two_radius_and_t_independence():
    A = _solver(0.0, 0.0, 10.0, 14)
    B = _solver(0.0, 0.0, 14.0, 14)
    for z in (2j, 5j, 1 + 1j, -1.5 + 0.5j, 2.0 * cmath.exp(0.8j)):
        Ma, Mb = A.M(z), B.M(z)
        scale = max(1.0, float(np.max(np.abs(Ma))))
        assert np.max(np.abs(Ma - Mb)) / scale < 1e-5
    A = _solver(0.5, 0.0, 14.0, 14)
    B = _solver(0.5, 0.8, 14.0, 14)
    for ray in range(10):
        d = np.max(np.abs(A.measured_jump(ray, 1.5)
                          - B.measured_jump(ray, 1.5)))
        assert d < 1e-4, ray


# -- 7. Hastings-McLeod extraction --------------------------------------


@pytest.mark.parametrize("s,t", [(0.0, 0.0), (0.5, -1.0), (1.0, 0.0)])
def test_criterion_7_hm_extraction(s, t):
    S = _solver(s, t, 14.0, 16)
    target = 1j * 2.0 ** (-1.0 / 3.0) * HM.q(2.0 ** (2.0 / 3.0) * (2 * s - t * t))
    assert abs(S.hm_extract() - target) < 1e-3


# -- 8. Appendix-A asymptotics ------------------------------------------


def test_criterion_8_cr_expansion():
    s, t = 0.3, -0.2
    u = np.linspace(15.0, 30.0, 31)
    d = kernels.kernel_cr_diag(u, s, t).real
    r = (d - kernels.cr_diag_asym(u, s, t)) * u ** 1.5
    assert np.max(np.abs(r)) < 0.5
    lo = np.max(np.abs(r[: len(r) // 2]))
    hi = np.max(np.abs(r[len(r) // 2:]))
    assert hi < 2.0 * max(lo, 0.01)           # no growth trend


def test_criterion_8_tac_expansion_and_contrast():
    r_, s = 1.0, 0.3
    u = np.linspace(15.0, 30.0, 61)
    d = kernels.kernel_tac_diag(u, r_, s).real
    res = (d - kernels.tac_diag_asym(u, r_, s)) * u ** 1.5
    assert np.max(np.abs(res)) < 0.5
    env = 1.0 / (4.0 * math.pi * u)
    osc = d - kernels.tac_diag_asym(u, r_, s, oscillation=False)
    ratio = np.max(np.abs(osc / env))
    assert 0.8 <= ratio <= 1.2
    cr = kernels.kernel_cr_diag(u, s, 0.0).real
    cr_osc = np.max(np.abs((cr - kernels.cr_diag_asym(u, s, 0.0)) / env))
    assert cr_osc < 0.2


# -- 9. K_PII ------------------------------------------------------------


def test_criterion_9_kpii():
    solver = kernels.get_pii_solver(0.0 + 0.0j)
    for ray in range(4):
        for radius in (0.5, 1.5):
            assert solver.jump_residual(ray, radius) < 1e-4
    assert abs(solver.q_extract() - HM.q(0.0)) < 1e-3
    for zeta in (0.7 + 0.4j, 1.5):
        assert solver.symmetry_residual(zeta) < 1e-6
    val = kernels.kernel_pii(0.3, -0.6, 1.0)
    assert abs(val.imag) < 1e-8


# -- 10. double scaling --------------------------------------------------


def test_criterion_10_double_scaling():
    gaps = [dscale.double_scaling_gap(a, 0.5, -0.5, 0.7)
            for a in (3.0, 4.0, 5.0)]
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[2] <= 0.6 * gaps[0]


# -- 11. finite n --------------------------------------------------------


def test_criterion_11_finite_n():
    fams = {n: finiten.biorthogonal(finiten.bimoment_matrix(n, -1.0, 1.0))
            for n in (6, 12, 18)}
    z12 = finiten.polynomial_zeros(fams[12])
    assert np.max(np.abs(z12.imag)) < 1e-10
    assert np.min(np.diff(z12.real)) > 1e-8
    d = {n: finiten.zero_counting_kolmogorov(f) for n, f in fams.items()}
    assert d[12] <= 0.15
    assert d[6] > d[12] > d[18]
