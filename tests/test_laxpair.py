"""Tests for the 4x4 Lax pair."""

import math

import numpy as np
import pytest

from critkernels import laxpair as lx

GRID_ST = [(0.0, 0.0), (0.0, 0.5), (0.0, -1.0),
           (0.5, 0.0), (0.5, 0.5), (0.5, -1.0),
           (1.0, 0.0), (1.0, 0.5), (1.0, -1.0)]
GRID_ZETA = [0.7 + 0.4j, -1.2 + 0.9j, 2.0 - 1.5j]


def test_traceless():
    # [TRIVIAL] both Lax matrices are traceless
    co = lx.lax_coefficients(0.4, -0.7)
    U, W = lx.lax_matrices(1.3 - 0.2j, co)
    assert abs(np.trace(U)) < 1e-12
    assert abs(np.trace(W)) < 1e-12


def test_b_minus_h():
    # [PAPER] b - h = 2 d t identically
    for s, t in GRID_ST:
        co = lx.lax_coefficients(s, t)
        assert abs((co.b - co.h) - 2.0 * co.d * co.t) < 1e-12


def test_t_zero_removable():
    # [DERIVED] (1/4t) dd/dt has a removable singularity at t = 0; the
    # coefficients are continuous across the |t| = 1e-6 branch switch
    for t_lo, t_hi in [(0.999e-6, 1.001e-6), (-0.999e-6, -1.001e-6)]:
        c1 = lx.lax_coefficients(0.3, t_lo)
        c2 = lx.lax_coefficients(0.3, t_hi)
        for name in ("b", "c", "d", "f", "h", "k"):
            assert getattr(c1, name) == pytest.approx(getattr(c2, name), abs=1e-8)


@pytest.mark.parametrize("s,t", GRID_ST)
def test_scalar_identities(s, t):
    # [PAPER] the six first-order compatibility identities hold to 1e-6
    res = lx.identity_residuals(s, t)
    for name, val in res.items():
        assert val < 1e-6, f"{name} residual {val} at (s,t)=({s},{t})"


@pytest.mark.parametrize("s,t", GRID_ST)
@pytest.mark.parametrize("zeta", GRID_ZETA)
def test_compatibility(s, t, zeta):
    # [PAPER] dW/dzeta - dU/dt - [U, W] = 0 to 1e-6 on the 27-point grid
    assert lx.compatibility_residual(zeta, s, t) < 1e-6


def test_frame_leading_exponents():
    # [DERIVED] the asymptotic-frame exponent derivatives match the
    # eigenvalues of U at large zeta
    import cmath
    s, t = 0.5, 0.3
    co = lx.lax_coefficients(s, t)
    zeta = 1600.0 + 200.0j
    ev = np.sort_complex(np.linalg.eigvals(lx.lax_matrices(zeta, co)[0]))
    z12 = cmath.sqrt(zeta)
    m12 = -1j * z12
    dpsi_p = z12 + s / z12
    dpsi_m = -(m12 + s / m12)
    frame = np.sort_complex(np.array(
        [-dpsi_m + t, -dpsi_p - t, dpsi_m + t, dpsi_p - t]))
    assert np.max(np.abs(ev - frame)) < 1e-4


def test_n1_hastings_mcleod_entry():
    # [PAPER] (N1)_{14} = i 2^{-1/3} q(2^{2/3}(2s - t^2))
    s, t = 0.4, 0.6
    co = lx.lax_coefficients(s, t)
    N1 = lx.n1_matrix(co)
    expected = 1j * co.q / 2.0 ** (1.0 / 3.0)
    assert N1[0, 3] == pytest.approx(expected, abs=1e-10)


@pytest.mark.parametrize("s,t,bad", [(math.inf, 0.0, "s"), (math.nan, 0.0, "s"),
                                     (0.3, -math.inf, "t"), (0.3, math.nan, "t")])
def test_non_finite_s_t_rejected(s, t, bad):
    # [TRIVIAL] a NaN or inf deformation parameter raises ValueError naming
    # it, not an out-of-domain error about the Painleve argument
    with pytest.raises(ValueError, match=rf"^{bad} must be finite"):
        lx.lax_coefficients(s, t)
