"""Tests for the large-zeta asymptotic series engine."""

import numpy as np
import pytest

from critkernels import laxpair as lx
from critkernels import series as se
from critkernels.kernels import get_pii_solver

from oracles import formal_series_dense


def _log_residual(fs, co, zeta, order):
    h = 1e-6 * abs(zeta)
    dF = (fs.frame(zeta + h, order) - fs.frame(zeta - h, order)) / (2.0 * h)
    F0 = fs.frame(zeta, order)
    U, _ = lx.lax_matrices(zeta, co)
    return np.max(np.abs((dF - U @ F0) @ np.linalg.inv(F0)))


def test_consistency_conditions():
    # [DERIVED] G_2 = U1 and G_1 = G_{-1} = 0 for both branch variants
    for variant in ("+", "-"):
        G = se.frame_log_derivative_parts(0.5, 0.3, variant)
        U1 = np.zeros((4, 4), complex)
        U1[2, 0] = 1.0j
        U1[3, 1] = -1.0j
        assert np.max(np.abs(G[2] - U1)) < 1e-12
        # exactly 0: formal_series reads its residue class from the nonzero G_p
        assert not np.any(G[1]) and not np.any(G[-1])


def test_p1_vanishes():
    # [DERIVED] the zeta^{-1/2} coefficient vanishes: the expansion is in 1/zeta
    fs = se.build_series(0.5, 0.3, "+", order=10)
    assert not np.any(fs.coeffs[0])


@pytest.mark.parametrize("s, t", [(0.0, 0.0), (0.5, 0.3), (-2.0, 1.0), (3.0, 0.0)])
def test_half_power_coefficients_vanish(s, t):
    # [DERIVED] every relation at an odd half-power is homogeneous in the
    # odd P_k, so P_1, P_3, ... are exactly 0 and only the even class is solved
    for variant in ("+", "-"):
        fs = se.build_series(s, t, variant, order=16)
        assert len(fs.coeffs) == 16
        assert not np.any(fs.coeffs[0::2])


@pytest.mark.parametrize("s, t", [(0.0, 0.0), (0.3, 0.0), (0.3, -0.2), (1.0, 0.0)])
def test_even_coefficients_match_dense_solve(s, t):
    # [DERIVED] the even-class system gives the even P_k of the dense solve
    # for all 16 orders at once, each to 1e-11 of its own size
    co = lx.lax_coefficients(s, t)
    U0, _ = lx.lax_matrices(0.0, co)
    G = se.frame_log_derivative_parts(s, t, "+")
    beta = max(1.0, abs(co.c)) ** 0.5
    dense = formal_series_dense((U0, lx.U1), G, 2, 16, beta)
    fs = se.build_series(s, t, "+", order=16)
    for k in range(1, 16, 2):
        err = np.max(np.abs(fs.coeffs[k] - dense[k]))
        assert err <= 1e-11 * np.max(np.abs(dense[k])), k + 1


def test_variants_agree_on_n1():
    # [DERIVED] independent branch choices give the same N1
    fs_p = se.build_series(0.5, 0.3, "+", order=10)
    fs_m = se.build_series(0.5, 0.3, "-", order=10)
    assert np.max(np.abs(fs_p.n1 - fs_m.n1)) < 1e-10


def test_n1_closed_form_entries():
    # [PAPER] entries of N1 against the Lax coefficient functions
    s, t = 0.5, 0.3
    co = lx.lax_coefficients(s, t)
    N1 = se.build_series(s, t, "+", order=10).n1
    i = 1.0j
    assert N1[0, 1] == pytest.approx(co.b, abs=1e-10)
    assert N1[1, 0] == pytest.approx(-co.b, abs=1e-10)
    assert N1[2, 3] == pytest.approx(co.h, abs=1e-10)
    assert N1[3, 2] == pytest.approx(-co.h, abs=1e-10)
    assert N1[2, 1] == pytest.approx(i * co.f, abs=1e-10)
    assert N1[3, 0] == pytest.approx(i * co.f, abs=1e-10)
    assert N1[0, 3] == pytest.approx(i * co.d, abs=1e-10)
    assert N1[1, 2] == pytest.approx(i * co.d, abs=1e-10)
    assert N1[0, 2] == pytest.approx(i * co.c, abs=1e-10)
    assert N1[1, 3] == pytest.approx(i * co.c, abs=1e-10)
    assert N1[2, 2] - N1[0, 0] == pytest.approx(co.k, abs=1e-9)
    assert N1[1, 1] - N1[3, 3] == pytest.approx(co.k, abs=1e-9)


def test_frame_residual_decays_with_order():
    # [DERIVED] the truncated series solves the zeta-ODE to increasing order
    s, t = 0.5, 0.3
    co = lx.lax_coefficients(s, t)
    fs = se.build_series(s, t, "+", order=12)
    zeta = 25.0 + 10.0j
    r2 = _log_residual(fs, co, zeta, 2)
    r6 = _log_residual(fs, co, zeta, 6)
    r10 = _log_residual(fs, co, zeta, 10)
    assert r6 < 0.1 * r2
    assert r10 < 0.1 * r6
    assert r10 < 1e-6


def test_frame_residual_lower_half_plane():
    # [DERIVED] the '-' variant serves the lower half-plane
    s, t = 0.2, -0.4
    co = lx.lax_coefficients(s, t)
    fs = se.build_series(s, t, "-", order=12)
    assert _log_residual(fs, co, 20.0 - 12.0j, 10) < 1e-6


@pytest.mark.parametrize("build", [
    lambda: se.build_series(0.5, 0.3, "x", order=10),
    lambda: lx.frame_exponents(1.0j, 0.5, 0.3, "x"),
], ids=["build_series", "frame_exponents"])
def test_unknown_variant_rejected(build):
    # [TRIVIAL] the branch convention knows only '+' and '-'
    with pytest.raises(ValueError, match="'x'"):
        build()


@pytest.mark.parametrize("nu", [-2.0, 2.0 ** (5.0 / 3.0) * 0.5, 3.0])
def test_pii_series_is_the_dense_solve(nu):
    # [DERIVED] q = 1 leaves one residue class: the system is the dense
    # one, assembled from shared Kronecker blocks, and bit for bit its solution
    solver = get_pii_solver(nu)
    s3 = np.diag([1.0, -1.0]).astype(complex)
    G = {0: -1j * solver.nu * s3, 2: -4j * s3}
    dense = formal_series_dense(solver.lax_coeffs, G, 1, len(solver.coeffs), 1.0)
    assert all(np.array_equal(a, b) for a, b in zip(solver.coeffs, dense))
