"""Tests for the equilibrium-measure densities and masses."""

import math

import numpy as np
import pytest

from critkernels import measures as ms
from critkernels import surface as sf
from critkernels.errors import DomainRestriction, OutsideSupport

CRIT = sf.SurfaceParams.critical()


# ---------------------------------------------------------------------------
# sigma2


def test_sigma2_at_zero():
    # [PAPER] roots {0, +-1}, largest real part 1, density 1/pi
    assert ms.sigma2_density(0.0, -1.0, 1.0) == pytest.approx(1.0 / math.pi, abs=1e-12)


def test_sigma2_at_a_triple_root():
    # [TRIVIAL] at alpha = 0, y = 0 the cubic s^3 = 0 has the triple root 0
    # (Cardano's cube root vanishes there) and the density is 0; at y = 1
    # the root of largest real part is e^{i pi/6}
    assert ms.sigma2_density(0.0, 0.0, 1.0) == 0.0
    assert ms.sigma2_density(1.0, 0.0, 1.0) == pytest.approx(
        math.cos(math.pi / 6.0) / math.pi, abs=1e-15)


def test_sigma2_large_y():
    # [DERIVED] density ~ (tau/pi) cos(pi/6) (tau |y|)^{1/3}
    y = 1e4
    expected = (1.0 / math.pi) * math.cos(math.pi / 6.0) * y ** (1.0 / 3.0)
    assert ms.sigma2_density(y, -1.0, 1.0) == pytest.approx(expected, rel=1e-3)


def test_sigma2_symmetry():
    # [TRIVIAL] density(y) = density(-y)
    for y in [0.3, 1.7, 12.0]:
        assert ms.sigma2_density(y, -1.2, 0.9) == pytest.approx(
            ms.sigma2_density(-y, -1.2, 0.9), abs=1e-12)


# ---------------------------------------------------------------------------
# densities


def test_mu1_outside_support_raises():
    with pytest.raises(OutsideSupport):
        ms.density_mu1(CRIT.c + 0.1, CRIT)


def test_mu1_symmetric_and_vanishing_at_zero():
    # [PAPER] density vanishes at the origin like a square root
    assert ms.density_mu1(1e-6, CRIT) < 1e-2
    for x in [0.3, 1.0, 2.5]:
        assert ms.density_mu1(x, CRIT) == pytest.approx(
            ms.density_mu1(-x, CRIT), abs=1e-8)
        assert ms.density_mu1(x, CRIT) > 0


def test_mu1_sqrt_exponent():
    # [DERIVED] fitted local model rho1 = K |x|^p on [1e-4, 1e-2] gives p = 1/2
    xs = np.geomspace(1e-4, 1e-2, 12)
    vals = np.array([ms.density_mu1(x, CRIT) for x in xs])
    slope, intercept = np.polyfit(np.log(xs), np.log(vals), 1)
    assert slope == pytest.approx(0.5, abs=0.005)
    # cross-check the prefactor against the near-zero series coefficient:
    # xi1 ~ e^{i pi/4} sqrt(z) at criticality, so K = sin(pi/4)/pi
    k_expected = math.sin(math.pi / 4.0) / math.pi
    assert math.exp(intercept) == pytest.approx(k_expected, rel=5e-3)


def test_mu2_at_zero_meets_constraint():
    # [PAPER] at criticality the mu2 density touches sigma2 at the origin (1/pi)
    assert ms.density_mu2(1e-6, CRIT) == pytest.approx(1.0 / math.pi, abs=1e-3)


def test_mu2_constraint_pointwise():
    # [PAPER] nu2 <= sigma2 on a sampled grid at criticality
    for y in [0.1, 0.5, 1.0, 3.0, 10.0]:
        assert ms.density_mu2(y, CRIT) <= ms.sigma2_density(y, -1.0, 1.0) + 1e-10


def test_mu3_positive_no_gap_at_criticality():
    # [DERIVED] at the multicritical point all three support gaps close,
    # so the mu3 density is positive on both sides of x* (x* is only a
    # kink of the density, not a support edge)
    xs = sf.x_star(-1.0, 1.0)
    for x in [0.05, 0.2, xs - 0.02, xs + 0.02, 1.0, 3.0]:
        assert ms.density_mu3(x, CRIT) > 0
    # continuity across the kink
    left = ms.density_mu3(xs - 1e-4, CRIT)
    right = ms.density_mu3(xs + 1e-4, CRIT)
    assert left == pytest.approx(right, abs=5e-2)


def test_densities_real_cast():
    # [TRIVIAL] the imaginary parts discarded are below 1e-10 (guarded
    # internally; these calls would raise otherwise)
    ms.density_mu2(0.7, CRIT)
    ms.density_mu3(0.7, CRIT)


# one grid spanning both half-lines, shuffled, with the origin in it
_GRID = np.random.default_rng(13).permutation(
    np.concatenate([np.linspace(-2.9, 2.9, 23), [0.0, 1e-6, -1e-6]]))


@pytest.mark.parametrize("density,grid", [
    (lambda x: ms.density_mu1(x, CRIT), _GRID),
    (lambda y: ms.density_mu2(y, CRIT), _GRID),
    (lambda x: ms.density_mu3(x, CRIT), _GRID[_GRID != 0.0]),
    (lambda y: ms.sigma2_density(y, -1.2, 0.9), _GRID),
], ids=["mu1", "mu2", "mu3", "sigma2"])
def test_array_call_equals_scalar_calls(density, grid):
    # [TRIVIAL] one array call returns, in input order, exactly what the
    # scalar calls return; a scalar still gives a float, an empty array
    # an empty array
    per_point = [density(float(x)) for x in grid]
    assert all(type(v) is float for v in per_point)
    assert np.array_equal(density(grid), per_point)
    assert np.array_equal(density(grid.reshape(-1, 1)).ravel(), per_point)
    empty = density(np.array([]))
    assert isinstance(empty, np.ndarray) and empty.shape == (0,)


@pytest.mark.parametrize("density,grid,bad", [
    (ms.density_mu1, np.array([0.5, CRIT.c + 0.25, -1.0]), f"x = {CRIT.c + 0.25}"),
    (ms.density_mu3, np.array([0.5, 0.0, -1.0]), "origin"),
], ids=["mu1", "mu3"])
def test_array_outside_support_raises(density, grid, bad):
    # [TRIVIAL] one point outside the support fails the whole call, by name
    with pytest.raises(OutsideSupport, match=bad):
        density(grid, CRIT)


@pytest.mark.parametrize("call", [
    lambda: sf.xi_branches(math.nan, CRIT),
    lambda: sf.theta_branches(math.nan, -1.0, 1.0),
    lambda: ms.density_mu1(math.nan, CRIT),
    lambda: ms.density_mu3(math.inf, CRIT),
], ids=["xi_branches", "theta_branches", "density_mu1", "density_mu3"])
def test_non_finite_point_rejected(call):
    # [TRIVIAL] a NaN or inf point is rejected by name at the root tracker
    with pytest.raises(ValueError, match="non-finite point"):
        call()


@pytest.mark.parametrize("call", [
    lambda: ms.mass_mu2(sf.SurfaceParams.from_alpha_tau(1.0, 1.0)),
    lambda: sf.x_star(1.0, 1.0),
    lambda: sf.theta_branches(0.5, 1.0, 1.0),
], ids=["mass_mu2", "x_star", "theta_branches"])
def test_positive_alpha_is_a_named_domain_error(call):
    # [TRIVIAL] the cubic's real window needs alpha < 0; outside it the
    # error is a DomainRestriction naming alpha and tau, not a ValueError
    with pytest.raises(DomainRestriction, match=r"alpha = 1\.0, tau = 1\.0"):
        call()


# ---------------------------------------------------------------------------
# masses and integrals


def test_mass_mu1():
    # [PAPER] mu1([-c, c]) = 1
    assert ms.mass_mu1(CRIT) == pytest.approx(1.0, abs=1e-6)


def test_mass_mu2():
    # [PAPER] mu2(iR) = 2/3
    total, tail = ms.mass_mu2(CRIT)
    assert total == pytest.approx(2.0 / 3.0, abs=1e-4)
    assert 0 < tail < 0.05


def test_mass_mu3():
    # [PAPER] mu3(R) = 1/3
    total, tail = ms.mass_mu3(CRIT)
    assert total == pytest.approx(1.0 / 3.0, abs=1e-4)
    assert 0 < tail < 0.05


def test_mass_mu1_perturbed():
    # [PAPER] masses are parameter-independent near criticality
    alpha, tau = sf.scaled_params(1.0, 0.0, 10**6)
    p = sf.SurfaceParams.from_alpha_tau(alpha, tau)
    assert ms.mass_mu1(p) == pytest.approx(1.0, abs=1e-6)


def test_xi_integral_check():
    # [PAPER] (Im int xi_{1,+}, Im int xi_{2,+}) = (pi, -pi)
    v1, v2 = ms.xi_integral_check(CRIT)
    assert v1 == pytest.approx(math.pi, abs=1e-6)
    assert v2 == pytest.approx(-math.pi, abs=1e-6)


def test_xi_integral_check_perturbed():
    # [PAPER] holds for all admissible parameters
    alpha, tau = sf.scaled_params(1.0, 0.0, 10**6)
    p = sf.SurfaceParams.from_alpha_tau(alpha, tau)
    v1, v2 = ms.xi_integral_check(p)
    assert v1 == pytest.approx(math.pi, abs=1e-6)
    assert v2 == pytest.approx(-math.pi, abs=1e-6)


def test_xi_integral_consistency_with_mass():
    # [TRIVIAL] Im int xi_{1,+} = pi * mass(mu1)
    v1, _ = ms.xi_integral_check(CRIT)
    assert v1 == pytest.approx(math.pi * ms.mass_mu1(CRIT), abs=1e-9)
