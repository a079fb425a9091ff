"""Tests for the steepest-descent double-scaling evaluator."""

import cmath
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from critkernels import kernels
from critkernels.dscale import (_NEAR_CIRCLE, DoubleScaling, _airy, _choose_eps,
                                _circle_cauchy_minus, _ds_for, _gmres, _mirror_apply,
                                _segment_cauchy_minus, airy_model, double_scaling_gap)
from critkernels.errors import DomainRestriction, IntegrationFailure

from oracles import FullContourDoubleScaling, ds_gap, ds_kernel

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
from workloads import GAP_POOL  # noqa: E402


@pytest.fixture(scope="module")
def ds3():
    c = 2.0 ** (5.0 / 3.0) / 3.0
    return DoubleScaling(3.0, 0.5, _choose_eps((c * 0.5, c * 0.7)))


def test_airy_model_jumps():
    # [DERIVED] the closed-form Airy parametrix has the exact Stokes jumps
    expected = {
        0.0: np.array([[1.0, 1.0], [0.0, 1.0]]),
        2.0 * math.pi / 3.0: np.array([[1.0, 0.0], [-1.0, 1.0]]),
        -2.0 * math.pi / 3.0: np.array([[1.0, 0.0], [-1.0, 1.0]]),
        math.pi: np.array([[0.0, -1.0], [1.0, 0.0]]),
    }
    for ang, J in expected.items():
        for r in (0.7, 2.0):
            h = 1e-7
            xp = r * cmath.exp(1j * (ang + h))
            xm = r * cmath.exp(1j * (ang - h))
            Pp, Pm = airy_model(xp), airy_model(xm)
            G = np.linalg.solve(Pm, Pp)
            assert np.max(np.abs(G - J)) < 1e-5, ang


def _assert_airy_matches_scipy(w):
    from scipy.special import airy      # a test oracle only

    ai, aip = _airy(w)
    ref_ai, ref_aip, _, _ = airy(w)
    assert np.all(np.abs(ai - ref_ai) <= 1e-13 * np.abs(ref_ai))
    assert np.all(np.abs(aip - ref_aip) <= 1e-13 * np.abs(ref_aip))


@pytest.mark.parametrize("a", [2.0, 3.0, 4.0, 6.0, 8.0])
def test_airy_matches_scipy_on_parametrix_circles(a):
    # [DERIVED] Ai and Ai' at every argument the Airy brackets use: xi on
    # both circles about +-1 (radius delta = 0.32 or 0.25) and its two
    # rotations by omega = e^{2 pi i/3}
    omega = cmath.exp(2j * math.pi / 3.0)
    e = np.exp(2j * np.pi * np.arange(80) / 80)
    for delta in (0.32, 0.25):
        xi = a * a * np.concatenate([1.0 - (1.0 + delta * e), 1.0 + (-1.0 + delta * e)])
        _assert_airy_matches_scipy(np.stack([xi, omega ** 2 * xi, omega * xi]))


def test_airy_matches_scipy_near_origin_far_out_and_sector_lines():
    # [DERIVED] all around |xi| = 1e-8 and |xi| = 30, and within 1e-6 of
    # the lines where the march changes direction (arg = +-pi/3) and where
    # Ai turns oscillatory (+-2 pi/3, pi), at the parametrix radii and
    # at the series radius 9.5
    angles = np.linspace(-np.pi, np.pi, 145)
    _assert_airy_matches_scipy(np.outer([1e-8, 30.0], np.exp(1j * angles)))
    lines = np.pi * np.array([1.0, -1.0, 2.0, -2.0, 3.0]) / 3.0
    near = np.concatenate([lines - 1e-6, lines, lines + 1e-6])
    _assert_airy_matches_scipy(np.outer([1.28, 2.88, 5.12, 9.5, 11.52, 20.48],
                                        np.exp(1j * near)))


def test_gmres_iterations():
    # [TRIVIAL] the residual problem converges in a handful of Arnoldi
    # steps, and the build records how many
    for a in (2.0, 4.0, 8.0):
        assert 5 <= DoubleScaling(a, 0.5).gmres_iterations <= 20, a


def test_gmres_stagnation_raises():
    # [DERIVED] on the cyclic shift GMRES makes no progress before step
    # 500, so restarted every 80 steps it stagnates and must raise
    b = np.zeros(500, dtype=complex)
    b[0] = 1.0
    with pytest.raises(IntegrationFailure, match="GMRES"):
        _gmres(lambda v: np.roll(v, 1), b)


def test_circle_cauchy_minus_keeps_negative_modes():
    # [DERIVED] on a ccw circle the exterior boundary value C_- is minus
    # the projection onto the negative Laurent modes
    n = 16
    z = np.exp(2j * np.pi * np.arange(n) / n)
    Cm = _circle_cauchy_minus(n)
    assert np.max(np.abs(Cm @ (z ** 2 + z ** -3) + z ** -3)) < 1e-13


def test_segment_cauchy_minus_principal_values():
    # [DERIVED] on [-1, 1] the right-side boundary value is C_- f =
    # PV (1/2 pi i) int f(s)/(s - t) ds - f(t)/2; for f = 1, t, t^2 the
    # principal value is L, 2 + t L and 2t + t^2 L, L = log((1-t)/(1+t))
    t = np.polynomial.legendre.leggauss(24)[0]
    Cm = _segment_cauchy_minus(24)
    L = np.log((1.0 - t) / (1.0 + t))
    for f, pv in ((np.ones_like(t), L), (t, 2.0 + t * L), (t * t, 2.0 * t + t * t * L)):
        assert np.max(np.abs(Cm @ f - (pv / (2j * np.pi) - 0.5 * f))) < 1e-13


def test_airy_model_det():
    # [DERIVED] Wronskian normalization makes det = const = -1/(2 pi) *
    # (2 pi) ... i.e. unimodular after the c-scalings; check constancy
    vals = [np.linalg.det(airy_model(z))
            for z in (1.0, 1j, -2.0 + 0.5j, 3.0 * cmath.exp(0.4j))]
    for v in vals[1:]:
        assert abs(v - vals[0]) < 1e-10
    assert abs(abs(vals[0]) - 1.0) < 1e-10


def test_jumps_unimodular_and_airy_jumps_near_identity():
    # [DERIVED] every jump is unimodular, and on the circles about +-1 the
    # Airy parametrix matches P_inf, so J = P_inf B^{-1} P_inf^{-1} is
    # close to I there
    ds = DoubleScaling(4.0, 0.5)
    assert np.max(np.abs(np.linalg.det(ds.jumps) - 1.0)) <= 1e-5
    airy = np.concatenate([ds.circles["+1"], ds.circles["-1"]])
    assert np.max(np.abs(ds.jumps[airy] - np.eye(4))) <= 0.1


@pytest.mark.parametrize("a", [2.0, 4.0, 8.0])
def test_contour_is_its_own_negation(a):
    # [DERIVED] the second half of the contour is the first negated, node
    # for node and bit for bit, with weights negated (orientation kept),
    # each circle's mirror is the opposite circle, and each straight
    # piece's E_ij becomes E_{swap i, swap j}, swap = [1, 0, 3, 2]
    ds = DoubleScaling(a, 0.5)
    m = ds.ntot // 2
    assert np.array_equal(ds.nodes[m:], -ds.nodes[:m])
    assert np.array_equal(ds.weights[m:], -ds.weights[:m])
    origin = ds.circles["origin"]
    assert np.array_equal(origin[len(origin) // 2:], origin[:len(origin) // 2] + m)
    assert np.array_equal(ds.circles["-1"], ds.circles["+1"] + m)
    half = len(ds.straight) // 2
    assert np.array_equal(ds.straight[half:], ds.straight[:half] + m)
    swap = np.array([1, 0, 3, 2])
    assert np.array_equal(ds.straight_ij[half:], swap[ds.straight_ij[:half]])


def _dense_cminus(ds) -> np.ndarray:
    """C_- on every node: C[i, k] = w_k / (2 pi i (z_k - z_i)) and each
    piece's own C_- block."""
    z, w = ds.nodes, ds.weights
    d = z[None, :] - z[:, None]
    np.fill_diagonal(d, 1.0)
    C = w / d / (2j * np.pi)
    for name in ("origin", "+1", "-1"):
        idx = ds.circles[name]
        C[np.ix_(idx, idx)] = _circle_cauchy_minus(len(idx))
    for idx in ds.straight.reshape(-1, 24):
        C[np.ix_(idx, idx)] = _segment_cauchy_minus(24)
    return C


def test_half_cauchy_apply_matches_dense(ds3):
    # [DERIVED] the two half-size products equal C_- F with the dense
    # C[i, k] = w_k / (2 pi i (z_k - z_i)) and each piece's own C_- block
    C, n = _dense_cminus(ds3), ds3.ntot
    rng = np.random.default_rng(7)
    F = rng.standard_normal((n, 16)) + 1j * rng.standard_normal((n, 16))
    Cp, Cm = ds3._cauchy_matrix()
    assert Cp.size + Cm.size == n * n // 2          # half the entries of C
    dense, half = C @ F, _mirror_apply(Cp, Cm, F)
    assert np.max(np.abs(half - dense)) <= 1e-13 * np.max(np.abs(dense))


def test_active_cauchy_apply_matches_dense():
    # [DERIVED] on the active nodes alone the half-size build is the dense
    # C_- cut to their rows and columns, self blocks included, and smaller
    ds = DoubleScaling(6.0, 0.5, 0.64)
    act, m = ds.active, len(ds.active) // 2
    C = _dense_cminus(ds)[np.ix_(act, act)]
    Cp, Cm = ds._cauchy_matrix(act[:m])
    assert Cp.shape == Cm.shape == (m, m) and 2 * m < ds.ntot
    F = np.random.default_rng(8).standard_normal((2 * m, 16)) * (1.0 + 1j)
    dense, half = C @ F, _mirror_apply(Cp, Cm, F)
    assert np.max(np.abs(half - dense)) <= 1e-13 * np.max(np.abs(dense))


@pytest.mark.parametrize("a,sigma,eps", [(4.0, 0.5, 0.72), (6.0, 0.5, 0.64)])
def test_mirrored_u0_bracket_equals_direct(a, sigma, eps):
    # [DERIVED] Psi(-w) = s1 Psi(w) s1, w, theta and zeta2 odd in z and nu
    # even, so on -H's 104 U0 nodes the bracket mirrored from H, S B S, is
    # the directly computed u0_bracket(-z)
    ds = DoubleScaling(a, sigma, eps)
    zH = ds.nodes[:ds.ntot // 2]
    z = zH[np.abs(zH) <= eps * (1.0 + 1e-12)]
    assert len(z) == 104
    direct = ds.u0_bracket(-z)
    assert np.max(np.abs(ds._u0_pair(z)[1] - direct)) <= 1e-13 * np.max(np.abs(direct))


@pytest.mark.parametrize("a,sigma,eps,dropped", [(6.0, 0.5, 0.64, 200), (2.0, 0.5, 0.64, 0)])
def test_dropped_nodes_have_identity_jumps(a, sigma, eps, dropped):
    # [DERIVED] the solve leaves out only mirror pairs whose jumps are I to
    # machine epsilon: far out on the lens rays at a = 6, none at a = 2
    ds = DoubleScaling(a, sigma, eps)
    m = ds.ntot // 2
    assert np.array_equal(ds.active[len(ds.active) // 2:], ds.active[:len(ds.active) // 2] + m)
    out = np.setdiff1d(np.arange(ds.ntot), ds.active)
    assert len(out) >= dropped if dropped else len(out) == 0
    assert np.max(np.abs(ds.jumps[out] - np.eye(4)), initial=0.0) <= np.finfo(float).eps


@pytest.mark.parametrize("a,sigma,eps", [(4.0, 0.5, 0.72), (4.0, 0.5, 0.64), (3.0, 0.5, 0.72),
                                         (6.0, 0.5, 0.64), (3.0, -0.5, 0.6), (2.0, 0.5, 0.64)])
def test_matches_full_contour_oracle(a, sigma, eps):
    # [DERIVED] the mirrored U0 bracket, the solve on the active nodes and
    # the one-product R give the kernel of the every-node build and solve,
    # in the same number of GMRES steps, at points inside and outside U0
    ds, full = DoubleScaling(a, sigma, eps), FullContourDoubleScaling(a, sigma, eps)
    xs = np.array([-0.3, 0.15, eps - 0.12, eps + 0.15]) * a / 2.0 ** (5.0 / 3.0)
    K, O = ds.kernel(xs[:, None], xs), full.kernel(xs[:, None], xs)
    assert np.max(np.abs(K - O) / np.abs(O)) <= 1e-11
    assert ds.gmres_iterations == full.gmres_iterations


def test_near_circle_point_is_refused_by_name():
    # [DERIVED] at u = 2^{5/3} 0.5 / 2.5 = 0.635, 0.005 from |u| = eps = 0.64,
    # the node sums give a diagonal of -0.561 against 0.776 / 0.778 at
    # eps = 0.60 / 0.72; the read is refused, and 0.05 from the circle the
    # value agrees with that of the radius 0.52
    ds = DoubleScaling(2.5, 0.5, 0.64)
    with pytest.raises(DomainRestriction, match=r"x = 0\.499.* u = 0\.633.*eps = 0\.64"):
        ds.kernel(0.5, 0.5)
    x = 0.69 * 2.5 / 2.0 ** (5.0 / 3.0)
    assert abs(ds.kernel(x, x) - DoubleScaling(2.5, 0.5, 0.52).kernel(x, x)) <= 1e-3


def test_chosen_eps_is_never_refused():
    # [DERIVED] for any pair, the radius _ds_for chooses keeps every point
    # the kernel reads, the +-1e-3 offsets of a diagonal included, at least
    # _NEAR_CIRCLE from the circle, so double_scaling_gap never refuses; at
    # a = 2, the smallest a it accepts, the offsets are largest in u
    c = 2.0 ** (5.0 / 3.0) / 2.0
    g = np.linspace(-0.9, 0.9, 121) / c
    for x in g:
        eps = np.array([_choose_eps(c * np.array([x, y])) for y in g])
        reads = c * np.stack([np.full_like(g, x), g, g + 1e-3, g - 1e-3])
        assert np.min(np.abs(np.abs(reads) - eps)) >= _NEAR_CIRCLE, x


def test_shares_cached_pii_solver(ds3):
    # [TRIVIAL] the evaluator takes the cached PII solver at its nu, so the
    # double-scaling gap and K_PII never build a second one
    assert ds3.pii is kernels.get_pii_solver(complex(2 ** (5 / 3) * 0.5))


def test_exponent_identity(ds3):
    # [DERIVED] a^3 (4/3) f1^3 - a nu f1 = a^3 (g2 - g1)/2 exactly
    a = ds3.a
    for z in (0.3 + 0.2j, -0.5j, 0.61 * cmath.exp(2.1j)):
        f1 = ds3.f1(z)
        nu = ds3.nu_of(z)
        lhs = a ** 3 * (4.0 / 3.0) * f1 ** 3 - a * nu * f1
        rhs = a ** 3 * (ds3.g(z, 2) - ds3.g(z, 1)) / 2.0
        assert abs(lhs - rhs) < 1e-10 * max(1.0, abs(rhs))


def test_nu_at_origin(ds3):
    # [DERIVED] nu(0) = 2^{5/3} sigma
    assert abs(ds3.nu_of(1e-8) - 2.0 ** (5.0 / 3.0) * 0.5) < 1e-8


def test_kernel_at_zero_is_finite_and_continuous(ds3):
    # [DERIVED] nu = sigma / h^{1/3} is finite at z = 0, so x = 0 or y = 0
    # reads the same kernel as its neighbours
    g = np.linspace(-0.7, 0.7, 7)
    K = ds3.kernel(g[:, None], g[None, :])
    assert np.all(np.isfinite(K[3])) and np.all(np.isfinite(K[:, 3]))
    k0, kp, km = (ds3.kernel(x, 0.5) for x in (0.0, 1e-7, -1e-7))
    assert abs(kp - k0) < 1e-6 * abs(k0) and abs(km - k0) < 1e-6 * abs(k0)
    assert abs(0.5 * (kp + km) - k0) < 1e-10 * abs(k0)


def test_r_far_field(ds3):
    # [DERIVED] the residual function tends to I away from the contour
    for z in (6.0 + 4.0j, -8.0j, -5.0 + 1.0j):
        assert np.max(np.abs(ds3.r_eval(z) - np.eye(4))) < 0.01


def test_r_unimodular(ds3):
    # [DERIVED] det R = 1 up to discretization error
    for z in (0.3j, 1.5j, 2.0 + 0.5j):
        assert abs(np.linalg.det(ds3.r_eval(z)) - 1.0) < 0.01


def test_kernel_diag_real(ds3):
    # [DERIVED] the scaled kernel diagonal is real (point-process density)
    for x in (-0.5, 0.4, 0.7):
        k = ds3.kernel(x, x)
        assert abs(k.imag) < 0.01 * max(1.0, abs(k.real))
        assert k.real > 0.0


@pytest.mark.slow
def test_validates_against_direct_solver():
    # [DERIVED] at a = 2 the direct solver is still usable: the
    # steepest-descent kernel must agree with it
    a, sigma = 2.0, 0.5
    scale = 2.0 ** (5.0 / 3.0) * a
    c = scale / a ** 2
    ds = DoubleScaling(a, sigma, _choose_eps((c * 0.5, c * 0.7)))
    s_par, t_par = a * a / 2.0, -a * (1.0 - sigma / a ** 2)
    for x in (-0.5, 0.7):
        ks = ds.kernel(x, x).real
        kd = scale * kernels.kernel_cr_diag(x * scale, s_par, t_par).real
        assert abs(ks - kd) < 0.01 * abs(kd), x
    ps = ds.kernel(-0.5, 0.7) * ds.kernel(0.7, -0.5)
    pd = (scale ** 2
          * kernels.kernel_cr(-0.5 * scale, 0.7 * scale, s_par, t_par)
          * kernels.kernel_cr(0.7 * scale, -0.5 * scale, s_par, t_par))
    assert abs(ps - pd) < 0.05 * abs(pd)


def test_gap_decreasing():
    # [PAPER] the scaled kernel approaches K_PII: the 2x2 determinant gap
    # decreases in a
    g3 = double_scaling_gap(3.0, 0.5, -0.5, 0.7)
    g4 = double_scaling_gap(4.0, 0.5, -0.5, 0.7)
    assert g4 < g3


def test_gap_at_a_near_coincident_pair_is_finite():
    # [TRIVIAL] a pair that the kernel form reads as coincident but not
    # equal takes the evaluator's mean over +-1e-3 at its midpoint too
    # (the evaluator has no Lax matrix for the derivative limit), so the
    # gap is finite, and free of the cancellation of a direct 1e-9
    # difference quotient (2.5e-7)
    gap = double_scaling_gap(4.0, 0.5, 0.3, 0.3 + 1e-9)
    assert math.isfinite(gap) and gap < 1e-7


def test_gap_precondition():
    # [TRIVIAL] a >= 2 is required
    with pytest.raises(DomainRestriction):
        double_scaling_gap(1.5, 0.5, -0.5, 0.7)


def test_gap_rejects_non_finite_inputs_by_name():
    # [TRIVIAL] a non-finite argument is named before any evaluator is
    # built (x = inf used to recurse without end, a = inf to hit a
    # singular matrix, sigma = nan to fail in Hastings-McLeod)
    for args, bad in (((math.inf, 0.5, -0.5, 0.7), "a"),
                      ((4.0, math.nan, -0.5, 0.7), "sigma"),
                      ((4.0, 0.5, math.inf, 0.7), "x"),
                      ((4.0, 0.5, math.nan, 0.7), "x"),
                      ((4.0, 0.5, -0.5, -math.inf), "y")):
        with pytest.raises(ValueError, match=f"^{bad} must be finite"):
            double_scaling_gap(*args)


def test_double_scaling_rejects_non_finite_inputs_by_name():
    # [TRIVIAL] the evaluator names a non-finite argument (a = nan used to
    # fail with "cannot convert float NaN to integer")
    for args, bad in (((math.nan, 0.5), "a"), ((4.0, math.inf), "sigma"),
                      ((4.0, 0.5, math.nan), "eps")):
        with pytest.raises(ValueError, match=f"^{bad} must be finite"):
            DoubleScaling(*args)


def test_kernel_matrix_matches_scalar_oracle(ds3):
    # [DERIVED] the kernel through sectoral.kernel_form agrees with the scalar
    # row/column assembly on the same contour solve; the diagonal, a
    # mean over y +- 1e-3, carries 1e3 times the roundoff of a pair,
    # so the bound is relative to the matrix's largest entry
    xs = np.array([-0.7, -0.5, -0.3, 0.2, 0.3, 0.5, 0.7])
    K = ds3.kernel(xs[:, None], xs)
    O = np.array([[ds_kernel(ds3, x, y) for y in xs] for x in xs])
    assert np.max(np.abs(K - O)) <= 1e-13 * np.max(np.abs(O))


def test_kernel_entry_equals_its_own_call(ds3):
    # [TRIVIAL] an entry of a matrix call equals its own 1x1 call
    xs = np.array([-0.5, 0.2, 0.7])
    K = ds3.kernel(xs[:, None], xs)
    for i, x in enumerate(xs):
        for j, y in enumerate(xs):
            k = ds3.kernel(x, y)
            assert isinstance(k, complex)
            assert abs(k - K[i, j]) <= 1e-14 * abs(K[i, j])


@pytest.mark.parametrize("a,x,y", [(a, -0.5, 0.7) for a in (3.0, 4.0, 5.0)]
                         + [(4.0, x, y) for x, y in GAP_POOL])
def test_gap_matches_scalar_oracle(a, x, y):
    # [DERIVED] at the criterion-10 points and the benchmark's gap pool
    # the gap equals the pairwise one of the scalar assembly
    ds = _ds_for(a, 0.5, (x, y))
    pts = np.array([x] if x == y else [x, y])
    k_p = kernels.kernel_pii(pts[:, None], pts, 2.0 ** (5.0 / 3.0) * 0.5, solver=ds.pii)
    assert abs(double_scaling_gap(a, 0.5, x, y) - ds_gap(ds, k_p, x, y)) <= 1e-12


def test_one_evaluator_per_disk_radius():
    # [TRIVIAL] requests that choose the same eps share one DoubleScaling
    c = 2.0 ** (5.0 / 3.0) / 4.0
    assert _choose_eps((c * 0.3, c * 0.3)) == _choose_eps((c * 0.5, c * 0.7))
    assert _ds_for(4.0, 0.5, (-0.3, 0.3)) is _ds_for(4.0, 0.5, (-0.5, 0.7))
