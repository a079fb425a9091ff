"""Tests for the modified Riemann surface module.

Each test is tagged with the provenance of its expected value:
[TRIVIAL] direct consequence of the definition, [PAPER] value stated in the
source material, [DERIVED] value computed by an independent oracle and frozen.
"""

import cmath
import math
import re
import warnings

import numpy as np
import pytest
from oracles import march_roots

from critkernels import measures as ms
from critkernels import surface as sf
from critkernels.errors import DegenerateRoots, DomainRestriction, PathOnCut

CRIT = sf.SurfaceParams.critical()


def mod_2pi_i(delta):
    """Distance of a complex number from the lattice 2*pi*i*Z."""
    return abs(complex(delta.real, (delta.imag + math.pi) % (2 * math.pi) - math.pi))


# ---------------------------------------------------------------------------
# gamma and parameters


def test_gamma_critical():
    # [PAPER] gamma(-1, 1) = 1; check 3/1 - 9 + 5 = -1
    assert sf.gamma_of(-1.0, 1.0) == pytest.approx(1.0, abs=1e-14)


def test_gamma_residual_small():
    # [TRIVIAL] the defining equation holds to 1e-12, alpha > 0 included
    for alpha, tau in [(-1.1, 0.9), (-0.8, 1.2), (-1.0, 1.05), (1.0, 1.0), (0.5, 2.0)]:
        g = sf.gamma_of(alpha, tau)
        res = 3.0 / g - 9.0 * g * g + 5.0 * tau ** (4 / 3) * g - alpha * tau ** (2 / 3)
        assert abs(res) < 1e-12
    # [DERIVED] values frozen from Newton continuation from gamma(-1, 1) = 1
    for alpha, tau, g in [(-0.9, 1.05, 1.0168614429916663),
                          (-2.0, 1.5, 1.3517666898661576),
                          (1.0, 1.0, 0.8690543936922551)]:
        assert sf.gamma_of(alpha, tau) == pytest.approx(g, rel=1e-13, abs=0.0)


def test_gamma_refuses_three_positive_roots():
    # [TRIVIAL] at (10, 4) the gamma cubic has the positive roots 2.433,
    # 0.950 and 0.144, and none is singled out
    with pytest.raises(DomainRestriction, match=r"alpha = 10\.0, tau = 4\.0"):
        sf.gamma_of(10.0, 4.0)


@pytest.mark.parametrize("fn", [sf.gamma_of, sf.classify_phase],
                         ids=["gamma_of", "classify_phase"])
@pytest.mark.parametrize("alpha, tau, bad", [
    (math.nan, 1.0, "alpha"), (math.inf, 1.0, "alpha"), (-math.inf, 1.0, "alpha"),
    (-1.0, math.nan, "tau"), (-1.0, math.inf, "tau"), (-1.0, -math.inf, "tau"),
])
def test_non_finite_alpha_tau_rejected_by_name(fn, alpha, tau, bad):
    # [TRIVIAL] a non-finite alpha or tau is a ValueError naming it
    with pytest.raises(ValueError, match=f"^{bad} must be finite"):
        fn(alpha, tau)


def test_gamma_scaling_a():
    # [PAPER] gamma = 1 + (1/3) a n^{-1/3} + ((11/144)a^2 + (47/48)b) n^{-2/3} + O(n^-1)
    alpha, tau = sf.scaled_params(1.0, 0.0, 10**6)
    g = sf.gamma_of(alpha, tau)
    assert g == pytest.approx(1.0 + (1 / 3) * 1e-2 + (11 / 144) * 1e-4, abs=5e-6)


def test_gamma_scaling_b():
    # [DERIVED] root-solve and compare to the expansion coefficient 47/48
    alpha, tau = sf.scaled_params(0.0, 1.0, 10**6)
    g = sf.gamma_of(alpha, tau)
    assert g == pytest.approx(1.0 + (47 / 48) * 1e-4, abs=5e-6)


def test_scaled_params_values():
    # [TRIVIAL] zero perturbation and direct substitution
    assert sf.scaled_params(0.0, 0.0, 17) == (-1.0, 1.0)
    alpha, tau = sf.scaled_params(1.0, 0.0, 1000)
    assert (alpha, tau) == pytest.approx((-0.8, 1.1))
    alpha, tau = sf.scaled_params(0.0, 1.0, 1000)
    assert (alpha, tau) == pytest.approx((-1.01, 1.02))


@pytest.mark.parametrize("call, name", [
    (lambda: sf.theta_branches(1j, math.nan, 1.0), "alpha"),
    (lambda: sf.theta_branches(1j, -1.0, math.inf), "tau"),
    (lambda: sf.x_star(math.nan, 1.0), "alpha"),
    (lambda: sf.scaled_params(math.nan, 0.0, 12), "a"),
    (lambda: sf.cubic_sheet_on_path(np.array([1j]), -1.0, math.nan, 0), "tau"),
    (lambda: sf.SurfaceParams(-1.0, 1.0, math.nan, CRIT.c), "gamma"),
], ids=["theta-alpha", "theta-tau", "x_star", "scaled_params", "cubic_sheet",
        "SurfaceParams"])
def test_non_finite_parameter_is_refused_by_name(call, name):
    # [TRIVIAL] a nan or inf parameter is refused at the entry, naming it,
    # before any point is blamed, any root overflows or any warning
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            call()


def test_c_value():
    # [PAPER] c* = 16/(3 sqrt 3) at criticality
    assert CRIT.c == pytest.approx(16.0 / (3.0 * math.sqrt(3.0)), abs=1e-14)


# ---------------------------------------------------------------------------
# w branches


def test_w_quartic_residual_random():
    # [TRIVIAL] each w_j satisfies (w^2+gamma^3)^2 = z w^3
    rng = np.random.default_rng(42)
    p = sf.SurfaceParams.from_alpha_tau(-1.05, 1.02)
    for _ in range(30):
        z = complex(rng.uniform(-5, 5), rng.uniform(-5, 5))
        if abs(z.real) < 1e-2 or abs(z.imag) < 1e-2:
            continue
        w = sf.w_branches(z, p).w
        res = np.abs((w**2 + p.gamma**3) ** 2 - z * w**3)
        assert np.max(res) < 1e-10 * max(1.0, abs(z) ** 4)


def test_w_modulus_ordering():
    # [TRIVIAL] |w1| >= |w2| >= |w3| >= |w4| off the cuts
    rng = np.random.default_rng(7)
    for _ in range(30):
        z = complex(rng.uniform(-5, 5), rng.uniform(-5, 5))
        if abs(z.real) < 1e-2 or abs(z.imag) < 1e-2:
            continue
        mods = np.abs(sf.w_branches(z, CRIT).w)
        assert np.all(mods[:-1] >= mods[1:] - 1e-12)


def test_w1_at_10():
    # [PAPER] w1(z) = z - 2 gamma^3/z - 5 gamma^6/z^3 + O(z^-5)
    w = sf.w_branches(10.0, CRIT).w
    # remainder is O(z^-5) with an O(10) constant
    assert w[0] == pytest.approx(10.0 - 0.2 - 0.005, abs=5e-4)


def test_w_near_zero_quadrant_I():
    # [PAPER] w1, w4 -> i gamma^{3/2}; series coefficient (1/2) e^{i pi/4} gamma^{3/4}
    z = 1e-4 * cmath.exp(1j * math.pi / 3)
    w = sf.w_branches(z, CRIT).w
    assert w[0] == pytest.approx(1j + 0.5 * cmath.exp(1j * math.pi / 4) * z**0.5, abs=1e-4)
    assert w[3] == pytest.approx(1j + 0.5 * cmath.exp(-3j * math.pi / 4) * z**0.5, abs=1e-4)


def test_w_odd_symmetry():
    # [PAPER] w_j(z) = -w_j(-z) off the axes
    rng = np.random.default_rng(3)
    for _ in range(10):
        z = complex(rng.uniform(0.2, 4), rng.uniform(0.2, 4))
        w_plus = sf.w_branches(z, CRIT).w
        w_minus = sf.w_branches(-z, CRIT).w
        assert np.max(np.abs(w_plus + w_minus)) < 1e-10


def test_w_sheet_gluing():
    # [PAPER] crosswise gluing relations on the three cuts
    p = CRIT
    d = 1e-9
    # (0, c): sheets 1, 2
    x = 1.5
    wp = sf.w_branches(x + 1j * d, p).w
    wm = sf.w_branches(x - 1j * d, p).w
    assert abs(wp[0] - np.conj(wm[0])) < 1e-8
    assert abs(wp[1] - np.conj(wm[1])) < 1e-8
    assert abs(wp[0] - wm[1]) < 1e-7 and abs(wm[0] - wp[1]) < 1e-7
    # iR: sheets 2, 3 (+ side is Re < 0)
    wp = sf.w_branches(-d + 1.5j, p).w
    wm = sf.w_branches(d + 1.5j, p).w
    assert abs(wp[1] + np.conj(wm[1])) < 1e-8
    assert abs(wp[2] + np.conj(wm[2])) < 1e-8
    assert abs(wp[1] - wm[2]) < 1e-7 and abs(wm[1] - wp[2]) < 1e-7
    # R beyond c irrelevant for sheet 3/4: holds on all of R \ {0}
    x = 0.7
    wp = sf.w_branches(x + 1j * d, p).w
    wm = sf.w_branches(x - 1j * d, p).w
    assert abs(wp[2] - np.conj(wm[2])) < 1e-8
    assert abs(wp[3] - np.conj(wm[3])) < 1e-8
    assert abs(wp[2] - wm[3]) < 1e-7 and abs(wm[2] - wp[3]) < 1e-7


# ---------------------------------------------------------------------------
# xi branches


def test_xi_spectral_curve_critical():
    # [PAPER] at criticality each xi_j satisfies xi^4 - z xi^3 + z^2 = 0
    rng = np.random.default_rng(11)
    for _ in range(40):
        z = complex(rng.uniform(-4, 4), rng.uniform(-4, 4))
        if abs(z.real) < 1e-2 or abs(z.imag) < 1e-2:
            continue
        xi = sf.xi_branches(z, CRIT).xi
        res = np.abs(xi**4 - z * xi**3 + z**2)
        assert np.max(res) < 1e-10 * max(1.0, abs(z) ** 4)


def test_xi_equals_w_plus_inverse_at_criticality():
    # [PAPER] xi*_j = w*_j + 1/w*_j
    z = 1.7 + 0.9j
    sv = sf.xi_branches(z, CRIT)
    assert np.max(np.abs(sv.xi - (sv.w + 1.0 / sv.w))) < 1e-10


def test_xi1_at_infinity():
    # [PAPER] xi1(z) = z - 1/z + O(z^-3)
    xi = sf.xi_branches(100.0, CRIT).xi
    assert xi[0] == pytest.approx(100.0 - 0.01, abs=1e-5)


def test_xi_near_zero_constant():
    # [PAPER] xi1 ~ C z^{-1/2} with C = e^{3 pi i/4} gamma^{1/4} (-2 gamma^2 + 1/gamma + tau^{4/3} gamma)
    p = sf.SurfaceParams.from_alpha_tau(-1.08, 1.03)
    C = (cmath.exp(3j * math.pi / 4) * p.gamma**0.25
         * (-2 * p.gamma**2 + 1 / p.gamma + p.tau ** (4 / 3) * p.gamma))
    z = 1e-8 * cmath.exp(1j * math.pi / 4)
    xi = sf.xi_branches(z, p).xi
    assert xi[0] * z**0.5 == pytest.approx(C, rel=1e-3)


def test_xi_discriminant_branch_points():
    # [PAPER] discriminant z^6 (256 - 27 z^2) vanishes at +-16/(3 sqrt 3)
    roots = np.roots([-27.0, 0.0, 256.0])
    target = 16.0 / (3.0 * math.sqrt(3.0))
    assert sorted(roots) == pytest.approx([-target, target], abs=1e-10)
    assert CRIT.c == pytest.approx(target, abs=1e-10)


def test_xi_interior_sign_conditions():
    # [PAPER] Im(xi*_{1,+} - xi*_{2,+}) > 0 on (0, c*) and companions
    d = 1e-9
    for x in [0.4, 1.1, 2.0, 2.8]:
        xi_p = sf.xi_branches(x + 1j * d, CRIT).xi
        xi_m = sf.xi_branches(x - 1j * d, CRIT).xi
        assert (xi_p[0] - xi_p[1]).imag > 0
        assert (xi_m[0] - xi_m[1]).imag < 0
        assert (xi_p[2] - xi_p[3]).imag > 0
        assert (xi_m[2] - xi_m[3]).imag < 0
    # [DERIVED] on the imaginary axis the gluing relations force
    # Im(xi3 - xi2) to vanish on both sides; the strict sign lives in the
    # real part instead (positive on the + side, Re z < 0).
    for y in [0.5, 1.5, 4.0]:
        xi_p = sf.xi_branches(-d + 1j * y, CRIT).xi
        xi_m = sf.xi_branches(d + 1j * y, CRIT).xi
        assert abs((xi_p[2] - xi_p[1]).imag) < 1e-7
        assert abs((xi_m[2] - xi_m[1]).imag) < 1e-7
        assert (xi_p[2] - xi_p[1]).real > 0
        assert (xi_m[2] - xi_m[1]).real < 0


# ---------------------------------------------------------------------------
# lambda branches


def test_lambda_jump_ledger():
    # [PAPER] the seven jump relations on sampled cut points, to 1e-7
    p = CRIT
    d = 1e-9
    x = -4.0
    lp = sf.lambda_branches(x + 1j * d, p).lam
    lm = sf.lambda_branches(x - 1j * d, p).lam
    assert abs(lp[0] - lm[0] + 2j * math.pi) < 1e-7   # jump 1
    assert abs(lp[1] - lm[1] - 2j * math.pi) < 1e-7   # jump 2
    x = 4.0
    lp = sf.lambda_branches(x + 1j * d, p).lam
    lm = sf.lambda_branches(x - 1j * d, p).lam
    assert abs(lp[0] - lm[0]) < 1e-7                   # jump 3 (j=1)
    assert abs(lp[1] - lm[1]) < 1e-7                   # jump 3 (j=2)
    x = 1.2
    lp = sf.lambda_branches(x + 1j * d, p).lam
    lm = sf.lambda_branches(x - 1j * d, p).lam
    assert abs(lp[0] - lm[1]) < 1e-7                   # jump 4
    assert abs(lm[0] - lp[1]) < 1e-7
    lp = sf.lambda_branches(-d + 2.5j, p).lam
    lm = sf.lambda_branches(d + 2.5j, p).lam
    assert abs(lp[0] - lm[0]) < 1e-7                   # jump 5 (j=1)
    assert abs(lp[3] - lm[3]) < 1e-7                   # jump 5 (j=4)
    assert abs(lp[1] - lm[2]) < 1e-7                   # jump 6
    assert abs(lm[1] - lp[2]) < 1e-7
    x = 0.8
    lp = sf.lambda_branches(x + 1j * d, p).lam
    lm = sf.lambda_branches(x - 1j * d, p).lam
    assert abs(lp[2] - lm[3]) < 1e-7                   # jump 7
    assert abs(lm[2] - lp[3]) < 1e-7


def test_lambda_symmetry_ledger():
    # [PAPER] the six symmetry relations; the -pi*i ones hold mod 2 pi i
    # (the stated constants are consistent with the definition only mod
    # 2 pi i, which is all that matters since lambda enters through
    # exp(n lambda) with integer n)
    p = CRIT
    d = 1e-9
    x = 1.2
    lp = sf.lambda_branches(x + 1j * d, p).lam
    lm = sf.lambda_branches(x - 1j * d, p).lam
    assert abs(lp[0] - np.conj(lm[0]) - 1j * math.pi) < 1e-7          # sym 1
    assert mod_2pi_i(lp[1] - np.conj(lm[1]) + 1j * math.pi) < 1e-7    # sym 2
    lp = sf.lambda_branches(-d + 2.5j, p).lam
    lm = sf.lambda_branches(d + 2.5j, p).lam
    assert mod_2pi_i(lp[1] - np.conj(lm[1])) < 1e-7                   # sym 3
    assert mod_2pi_i(lp[2] - np.conj(lm[2])) < 1e-7                   # sym 4
    x = 0.8
    lp = sf.lambda_branches(x + 1j * d, p).lam
    lm = sf.lambda_branches(x - 1j * d, p).lam
    assert abs(lp[2] - np.conj(lm[2]) - 1j * math.pi) < 1e-7          # sym 5
    assert mod_2pi_i(lp[3] - np.conj(lm[3]) + 1j * math.pi) < 1e-7    # sym 6


def test_lambda_near_zero_critical_coefficients():
    # [PAPER] F*(0) = 0, G*(0) = 0, H*(0) = (2/3) e^{i pi/4}, by fitting
    rs = np.linspace(0.02, 0.1, 9)
    zs = rs * cmath.exp(1j * math.pi / 4)
    vals = np.array([sf.lambda_branches(z, CRIT).lam[0] for z in zs])
    basis = np.column_stack([zs**0.5, zs, zs**1.5, zs**2, zs**2.5, zs**3, zs**3.5])
    coef, *_ = np.linalg.lstsq(basis, vals, rcond=None)
    h_star = (2.0 / 3.0) * cmath.exp(1j * math.pi / 4)
    assert abs(coef[0]) < 1e-4
    assert abs(coef[1]) < 1e-4
    assert abs(coef[2] - h_star) / abs(h_star) < 1e-4


def test_lambda_on_axis_raises():
    # [TRIVIAL] axis points are cuts for lambda
    with pytest.raises(PathOnCut):
        sf.lambda_branches(2.0, CRIT)


def test_lambda1_at_infinity_constant():
    # [DERIVED] lambda1 - (z^2/2 - log z) tends to a constant l1,
    # the same from different directions
    z1 = 60 * cmath.exp(0.3j)
    z2 = 80 * cmath.exp(2.0j)
    l1 = sf.lambda_branches(z1, CRIT).lam[0] - (z1 * z1 / 2 - cmath.log(z1))
    l2 = sf.lambda_branches(z2, CRIT).lam[0] - (z2 * z2 / 2 - cmath.log(z2))
    assert abs(l1 - l2) < 1e-3


# ---------------------------------------------------------------------------
# theta branches


def test_theta_at_zero():
    # [DERIVED] roots {0, +-1}; theta1(0) = 1/4, theta3(0) = 0
    tv = sf.theta_branches(0.0, -1.0, 1.0)
    assert sorted(np.real(tv.s)) == pytest.approx([-1.0, 0.0, 1.0], abs=1e-12)
    assert tv.theta[0] == pytest.approx(0.25, abs=1e-12)
    assert tv.theta[2] == pytest.approx(0.0, abs=1e-12)


def test_x_star():
    # [PAPER] x*(-1) at tau=1 equals 2/(3 sqrt 3)
    assert sf.x_star(-1.0, 1.0) == pytest.approx(2.0 / (3.0 * math.sqrt(3.0)), abs=1e-14)


def test_theta_ordering_on_window():
    # [TRIVIAL] W(s_j) - tau x s_j ascending on (-x*, x*)
    for x in [-0.3, -0.1, 0.0, 0.2, 0.35]:
        tv = sf.theta_branches(x, -1.0, 1.0)
        crit = 0.25 * np.real(tv.s) ** 4 - 0.5 * np.real(tv.s) ** 2 - x * np.real(tv.s)
        assert np.all(np.diff(crit) >= -1e-12)


def test_theta1_large_z():
    # [PAPER] theta1(z) = (3/4)(tau z)^{4/3} - (alpha/2)(tau z)^{2/3} + alpha^2/6 + ...
    z = 1e4
    tv = sf.theta_branches(z, -1.0, 1.0)
    approx = 0.75 * z ** (4 / 3) + 0.5 * z ** (2 / 3) + 1.0 / 6.0 + (1.0 / 54.0) * z ** (-2 / 3)
    assert abs(tv.theta[0] - approx) / abs(approx) < 1e-4


def test_theta_residual_complex():
    # [TRIVIAL] s^3 + alpha s - tau z = 0 at complex points
    rng = np.random.default_rng(5)
    for _ in range(10):
        z = complex(rng.uniform(-2, 2), rng.uniform(0.1, 2))
        tv = sf.theta_branches(z, -1.2, 0.9)
        res = np.abs(tv.s**3 - 1.2 * tv.s - 0.9 * z)
        assert np.max(res) < 1e-10


# ---------------------------------------------------------------------------
# path marching against per-point tracking


@pytest.mark.parametrize("rotation", [1, 1j, -1, -1j], ids=["I", "II", "III", "IV"])
def test_path_and_point_tracking_agree(rotation):
    # [TRIVIAL] marching a polyline inside one quadrant keeps the labels that
    # per-point tracking from the quadrant reference assigns
    points = rotation * np.array([0.4 + 0.3j, 1.2 + 0.9j, 2.8 + 0.5j,
                                  3.5 + 2.0j, 0.9 + 4.0j])
    for j in range(4):
        on_path = sf.xi_sheet_on_path(points, CRIT, j)
        per_point = [sf.xi_branches(z, CRIT).xi[j] for z in points]
        assert np.max(np.abs(on_path - per_point)) < 1e-12
    for j in range(3):
        on_path = sf.cubic_sheet_on_path(points, -1.0, 1.0, j)
        per_point = [sf.theta_branches(z, -1.0, 1.0).s[j] for z in points]
        assert np.max(np.abs(on_path - per_point)) < 1e-12


def test_path_over_all_quadrants_keeps_input_order():
    # [TRIVIAL] points from all four quadrants and both axes, in shuffled
    # order, get exactly the labels of per-point tracking, row for row
    rng = np.random.default_rng(3)
    points = np.concatenate([
        rng.uniform(-4, 4, 12) + 1j * rng.uniform(-4, 4, 12),
        [2.0, -1.0, 3.5j, -0.5j, 1e-3 + 0j, 5.0]])
    points = rng.permutation(points)
    for j in range(4):
        per_point = [sf.xi_branches(z, CRIT).xi[j] for z in points]
        assert np.array_equal(sf.xi_sheet_on_path(points, CRIT, j), per_point)
    for j in range(3):
        per_point = [sf.cubic_sheet_on_path([z], -1.0, 1.0, j)[0] for z in points]
        assert np.array_equal(sf.cubic_sheet_on_path(points, -1.0, 1.0, j),
                              per_point)


def test_origin_is_a_branch_point_of_the_quartic():
    # [PAPER] z = 0 is a branch point of the quartic sheets and is refused,
    # on its own and inside a path; the cubic is regular there
    with pytest.raises(DegenerateRoots, match="z = 0 is a branch point"):
        sf.xi_branches(0.0, CRIT)
    with pytest.raises(DegenerateRoots, match="z = 0 is a branch point"):
        sf.xi_sheet_on_path(np.array([1.0 + 1j, 0.0]), CRIT, 0)
    assert np.all(np.isfinite(sf.theta_branches(0.0, -1.0, 1.0).s))


def _numpy_roots(row: np.ndarray) -> np.ndarray:
    """numpy.roots of one coefficient row, polished by the two Newton steps
    of sf._roots."""
    roots = np.roots(row).astype(complex)
    deriv = np.polyder(row)
    for _ in range(2):
        fp = np.polyval(deriv, roots)
        ok = np.abs(fp) > 0.0
        roots[ok] -= np.polyval(row, roots[ok]) / fp[ok]
    return roots


def _spy_root_rows(monkeypatch) -> list:
    """Record the coefficient rows of every ``sf._roots`` call."""
    rows = []
    roots = sf._roots

    def spy(coeffs):
        rows.append(coeffs)
        return roots(coeffs)

    monkeypatch.setattr(sf, "_roots", spy)
    return rows


def _near(points, angles) -> np.ndarray:
    """Points within 1e-12 to 1e-2 of each of ``points`` along ``angles``."""
    d = np.geomspace(1e-12, 1e-2, 21)[:, None] * np.exp(1j * np.asarray(angles))
    return np.concatenate([p + d.ravel() for p in points])


def test_closed_form_roots_match_numpy_roots(monkeypatch):
    # [DERIVED] the closed-form roots agree with numpy.roots polished by the
    # same Newton steps on every row of the three mass paths, on rays out to
    # |z| = 1e12 and near the branch points: each root matches exactly one
    # reference root within 1e-11 of its modulus.  Within ~1e-10 of a
    # double root the roots are ill-conditioned and any two double
    # solvers differ by up to ~eps kappa (kappa the root's relative
    # condition number; both solvers are within eps kappa of the exact
    # roots there), so the bound is 1e-11 or 4 eps kappa, the larger
    rows = _spy_root_rows(monkeypatch)
    for mass in (ms.mass_mu1, ms.mass_mu2, ms.mass_mu3):
        mass(CRIT)
    monkeypatch.undo()
    rays = (np.geomspace(1.0, 1e12, 60)[:, None]
            * np.exp(1j * np.array([0.3, 2.0, -1.2, -2.8]))).ravel()
    angles = [0.4, 1.9, -2.5, -0.6]
    xs = sf.x_star(-1.0, 1.0)
    rows.append(sf._quartic(CRIT)(
        np.concatenate([rays, _near([0.0, CRIT.c, -CRIT.c], angles)])))
    rows.append(sf._cubic(-1.0, 1.0)(np.concatenate([rays, _near([0.0, xs, -xs], angles)])))
    eps = np.finfo(float).eps
    for coeffs in rows:
        got = sf._roots(coeffs)
        for row, w in zip(coeffs, got):
            want = _numpy_roots(row)
            dist = np.abs(w[:, None] - want[None, :])
            match = np.argmin(dist, axis=1)
            assert len(set(match)) == len(w), (row, w, want)
            powers = np.abs(w[:, None]) ** np.arange(len(row) - 1, -1, -1)
            kappa = powers @ np.abs(row) / np.abs(w * np.polyval(np.polyder(row), w))
            bound = np.maximum(1e-11, 4.0 * eps * kappa) * np.abs(w)
            assert np.all(dist[np.arange(len(w)), match] <= bound), (row, w, want)


def test_closed_form_roots_do_not_depend_on_the_batch():
    # [TRIVIAL] a row solved alone is bit for bit the same row solved
    # inside a block of _BLOCK rows, for both polynomial families
    rng = np.random.default_rng(4)
    n = sf._BLOCK
    z = (rng.uniform(-6, 6, n) + 1j * rng.uniform(-6, 6, n)) * 10.0 ** rng.uniform(-3, 6, n)
    for coeffs in (sf._quartic(CRIT)(z), sf._cubic(-1.0, 1.0)(z)):
        block = sf._roots(coeffs)
        for k in range(n):
            assert np.array_equal(sf._roots(coeffs[k:k + 1])[0], block[k])


def test_continue_roots_bisects_only_crowded_roots():
    # [DERIVED] far up the imaginary axis w1 ~ z moves with z while the three
    # small roots sit ~0.4 apart and barely move: one step of the mass_mu2
    # path from 50i to 61i needs no bisection down to the small roots'
    # separation (255 evaluations when every root was held to it), and keeps
    # the labels a fine march assigns
    z0, z1 = complex(-1e-8, 50.0), complex(-1e-8, 61.0)
    coeffs = sf._quartic(CRIT)
    start = sf._w_along([z0], CRIT)[0]
    fine = sf._march([(start, z0, np.linspace(z0, z1, 2001)[1:])], coeffs)[0][-1]
    before = sf.root_evaluations
    roots = sf._march([(start, z0, [z1])], coeffs)[0][0]
    assert sf.root_evaluations - before <= 50
    assert np.array_equal(roots, fine)


def test_march_refuses_a_step_onto_a_double_root():
    # [TRIVIAL] w1 = w2 at the branch point z = c, so no piece of a step
    # onto it is accepted by the distance test; from 1e6 the pieces at
    # depth 61 are 4e-13 long, above the roundoff floor, so the step is
    # refused, naming the point
    z0 = complex(1e6, 0.0)
    coeffs = sf._quartic(CRIT)
    start = sf._roots(coeffs(np.array([z0])))[0]
    with pytest.raises(DegenerateRoots, match=r"near z = \(3\.0792"):
        sf._march([(start, z0, [complex(CRIT.c)])], coeffs)


def test_march_refuses_far_out_point_at_the_first_deep_step():
    # [DERIVED] from the quadrant reference to 1e20 + i, a step near
    # 46.63 + 3.27i is refused down to depth 61.  Rounds take the leftmost
    # pending steps first, so the refusal names the first such step on the
    # path, as a depth-first bisection does, after a few thousand
    # evaluations instead of a level-by-level tree
    before = sf.root_evaluations
    with pytest.raises(DegenerateRoots, match=r"near z = \(46\.63"):
        sf.xi_branches(1e20 + 1j, CRIT)
    assert sf.root_evaluations - before < 20_000


@pytest.mark.parametrize("branches, z", [
    (lambda z: sf.theta_branches(z, -1.0, 1.0), 1e160 + 1j),
    (lambda z: sf.xi_branches(z, CRIT), 1e160 + 1j),
    (lambda z: sf.xi_branches(z, CRIT), 1e100 + 1j),
], ids=["theta-1e160", "xi-1e160", "xi-1e100"])
def test_far_out_overflow_is_refused_at_the_point(branches, z):
    # [DERIVED] far out the roots overflow to nan (the closed forms beyond
    # |z| ~ 1e153, the quartic's Newton polish beyond ~1e77): the march
    # refuses such a point at once, naming it, with no RuntimeWarning
    # (unguarded, numpy's overflow warning is an error under -W error, and
    # with warnings off theta's step bisects for 12,931 evaluations and the
    # refusal names 4.3e141)
    before = sf.root_evaluations
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(DegenerateRoots, match=f"overflow at z = {re.escape(str(z))}"):
            branches(z)
    assert sf.root_evaluations - before < 100


def test_xi_branches_far_out_returns():
    # [DERIVED] w1 ~ z moves by far more than the small roots' spacing on
    # the way out; ties in its move no longer hide the small roots'
    # matching, so a far-out point returns after a few dozen evaluations
    # (1e8 + i took 2,010 and 1e10 + i did not return within 40 s)
    for z in (1e8 + 1j, 1e10 + 1j, 1e12 + 1j):
        before = sf.root_evaluations
        w = sf.xi_branches(z, CRIT).w
        assert sf.root_evaluations - before <= 200, z
        assert abs(w[0] / z - 1.0) < 1e-12, z


def _spy_marches(monkeypatch) -> tuple[list, list]:
    """Record every ``sf._march`` call: each of its paths with the polynomial
    and that path's result, and the root evaluations of each call."""
    paths, counts = [], []
    march = sf._march

    def spy(marched, coeffs):
        before = sf.root_evaluations
        out = march(marched, coeffs)
        paths.extend((*path, coeffs, rows) for path, rows in zip(marched, out))
        counts.append(sf.root_evaluations - before)
        return out

    monkeypatch.setattr(sf, "_march", spy)
    return paths, counts


def _assert_matches_recursive_tracker(paths, counts):
    oracle_calls = 0
    for roots, z0, points, coeffs, out in paths:
        want, n = march_roots(roots, z0, points, lambda z: coeffs(np.array([z]))[0])
        assert np.array_equal(out, want)
        oracle_calls += n
    assert sum(counts) <= oracle_calls


@pytest.mark.parametrize("mass,density", [(ms.mass_mu2, ms.density_mu2),
                                          (ms.mass_mu3, ms.density_mu3)],
                         ids=["mu2", "mu3"])
def test_march_equals_recursive_tracker_on_mass_paths(monkeypatch, mass, density):
    # [DERIVED] the batched march labels every node of the mass paths, on
    # both sides of the carrier and for both polynomials, exactly as the
    # point-by-point recursive tracker does, and solves no more polynomials;
    # the mass paths (72 and 120 nodes, out to |y| ~ 1.7e6) are shorter
    # than one window of _BLOCK steps, so a 600-point grid of the same
    # density is marched too, and its windows slide along each path
    paths, counts = _spy_marches(monkeypatch)
    mass(CRIT)
    density(np.linspace(3.5, 40.0, 600), CRIT)
    assert max(len(points) for _, _, points, *_ in paths) > sf._BLOCK
    _assert_matches_recursive_tracker(paths, counts)


def test_march_equals_recursive_tracker_on_shuffled_grid(monkeypatch):
    # [DERIVED] as above, on a shuffled grid over all four quadrants with
    # points on both axes
    rng = np.random.default_rng(8)
    points = rng.permutation(np.concatenate([
        rng.uniform(-4, 4, 40) + 1j * rng.uniform(-4, 4, 40),
        [2.0, -1.0, 3.5j, -0.5j, 1e-3 + 0j, 5.0, -7.0]]))
    paths, counts = _spy_marches(monkeypatch)
    sf.xi_sheet_on_path(points, CRIT, 0)
    sf.cubic_sheet_on_path(points, -1.0, 1.0, 0)
    assert len(paths) == 4 + 2 * 4      # quartic quadrants; cubic lifts and quadrants
    assert len(counts) == 3             # one march each for these three sets of paths
    _assert_matches_recursive_tracker(paths, counts)


def test_multi_path_march_equals_each_path_alone():
    # [TRIVIAL] paths that share rounds are marched exactly as each alone:
    # the same roots, labels and root evaluations, for both polynomials,
    # for paths longer than one window of _BLOCK steps and for a path of
    # one point
    rng = np.random.default_rng(11)
    for coeffs, roots_at in ((sf._quartic(CRIT), lambda z: sf._w_along([z], CRIT)[0]),
                             (sf._cubic(-1.0, 1.0), lambda z: sf._s_along([z], -1.0, 1.0)[0])):
        paths = []
        for z0, z1, n in ((2 + 2j, 40 + 3j, 700), (-1 + 1j, -0.2 + 4j, 30),
                          (1 - 1j, 6 - 0.01j, sf._BLOCK + 1), (-3 - 3j, -2 - 1j, 1)):
            points = np.linspace(z0, z1, n + 1)[1:] + 1e-3 * rng.standard_normal(n)
            paths.append((roots_at(z0), z0, points))
        before = sf.root_evaluations
        together = sf._march(paths, coeffs)
        joint = sf.root_evaluations - before
        alone = 0
        for path, rows in zip(paths, together):
            before = sf.root_evaluations
            assert np.array_equal(sf._march([path], coeffs)[0], rows)
            alone += sf.root_evaluations - before
        assert joint == alone


@pytest.mark.parametrize("mass, most", [(ms.mass_mu2, 25), (ms.mass_mu3, 40)],
                         ids=["mu2", "mu3"])
def test_mass_paths_share_rounds(mass, most):
    # [DERIVED] each side of the carrier, each quadrant and each cubic lift
    # of a mass shares the tracker's rounds: mass_mu2 takes 24 rounds and
    # mass_mu3 38 (48 and 76 when each path was marched alone)
    before = sf.march_rounds
    mass(CRIT)
    assert sf.march_rounds - before <= most


# ---------------------------------------------------------------------------
# phase classifier


@pytest.mark.parametrize(
    "alpha,tau,expected",
    [
        (-1.0, 1.0, sf.PhaseCase.Multicritical),       # [PAPER]
        (2.0, 0.8, sf.PhaseCase.CaseI),                # [PAPER]
        (1.0, 3.0, sf.PhaseCase.CaseII),               # [PAPER]
        (-2.0, 2.0, sf.PhaseCase.CaseIII),             # [PAPER]
        (-2.5, 0.2, sf.PhaseCase.CaseIV),              # [PAPER]
        (0.0, math.sqrt(2.0), sf.PhaseCase.BoundaryI_II),  # [PAPER]
        (-1.5, math.sqrt(1 / 1.5), sf.PhaseCase.BoundaryIII_IV),  # [TRIVIAL]
        (-0.5, 1.5, sf.PhaseCase.UndeterminedII_III),  # [TRIVIAL]
        (-1.5, 0.5, sf.PhaseCase.CaseI),               # [TRIVIAL] below parabola
        (-1.5, 0.75, sf.PhaseCase.CaseIV),             # [TRIVIAL] between curves
    ],
)
def test_classify_phase(alpha, tau, expected):
    assert sf.classify_phase(alpha, tau) == expected
