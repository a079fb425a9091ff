"""Tests for the finite-n biorthogonal polynomials and kernel."""

import math

import mpmath as mp
import numpy as np
import pytest

from critkernels import finiten
from critkernels.errors import DomainRestriction, QuadratureFailure

ALPHA, TAU = -1.0, 1.0


def _tail_cutoff(n, beta, lmax, bits):
    """Y with y^l e^{-n(y^4/4 + beta y^2/2)} below the working epsilon:
    where the quadrature oracles below cut their integrals off."""
    target = bits * math.log(2.0) + 40.0
    Y = 3.0
    while n * (Y ** 4 / 4 + beta * Y ** 2 / 2) - lmax * math.log(Y) <= target:
        Y += 0.5
    return Y


@pytest.fixture(scope="module")
def fam6():
    return finiten.biorthogonal(finiten.bimoment_matrix(6, ALPHA, TAU))


@pytest.fixture(scope="module")
def fam12():
    return finiten.biorthogonal(finiten.bimoment_matrix(12, ALPHA, TAU))


@pytest.fixture(scope="module")
def fam18():
    return finiten.biorthogonal(finiten.bimoment_matrix(18, ALPHA, TAU))


def test_bimoment_basics(fam6):
    B = finiten.bimoment_matrix(6, ALPHA, TAU)
    # [TRIVIAL] positive integrand
    assert B.entries[0, 0] > 0
    # [TRIVIAL] odd parity entries vanish exactly
    assert B.entries[0, 1] == 0
    for j in range(7):
        for k in range(7):
            if (j + k) % 2:
                assert B.entries[j, k] == 0, (j, k)


def _tensor_gauss_bimoments(entries, nodes):
    """Bimoments at n = 6 by a tensor Gauss-Legendre rule on the raw 2-D
    weight over [-16, 16] x [-4, 4] (16 x-panels, 12 y-panels, ``nodes``
    points per panel): no Gaussian reduction and no moment recursion."""
    n = 6
    t, wt = np.polynomial.legendre.leggauss(nodes)

    def panels(a, b, count):
        edges = np.linspace(a, b, count + 1)
        mid = 0.5 * (edges[:-1] + edges[1:])[:, None]
        half = 0.5 * (edges[1:] - edges[:-1])[:, None]
        return (mid + half * t).ravel(), (half * wt).ravel()

    x, wx = panels(-16.0, 16.0, 16)
    y, wy = panels(-4.0, 4.0, 12)
    weight = np.exp(-n * (x[None, :] ** 2 / 2 - TAU * y[:, None] * x[None, :]
                          + (y ** 4 / 4 + ALPHA * y ** 2 / 2)[:, None]))
    return {(j, k): float((wy * y ** k) @ weight @ (wx * x ** j))
            for (j, k) in entries}


def test_bimoment_against_2d_quadrature():
    # [DERIVED] independent tensor-product 2-D quadrature oracle at n = 6,
    # converged: doubling its node count moves no entry by 1e-13 relative
    B = finiten.bimoment_matrix(6, ALPHA, TAU)
    entries = ((0, 0), (2, 0), (1, 1), (2, 4))
    ref = _tensor_gauss_bimoments(entries, 40)
    doubled = _tensor_gauss_bimoments(entries, 80)
    for jk in entries:
        assert abs(doubled[jk] - ref[jk]) < 1e-13 * abs(ref[jk]), jk
        assert abs(B.entries[jk] - ref[jk]) <= 1e-10 * abs(ref[jk]) + 1e-12, jk


def _expansion_bimoments(n, alpha, tau, bits):
    """B[j][k] = sum_l C(j, l) tau^l G_{j-l} m_{k+l}, G_l the Gaussian
    moments int u^l e^{-n u^2/2} du: x^j expanded about tau y."""
    with mp.workprec(bits):
        moms = finiten._y_moments(n, alpha, tau, 2 * n)
        G = [mp.sqrt(2 * mp.pi / n), mp.mpf(0)]
        for l in range(1, n):
            G.append(G[l - 1] * l / mp.mpf(n))
        return [[mp.fdot([math.comb(j, l) * mp.mpf(tau) ** l * G[j - l]
                          for l in range(j + 1)], moms[k:k + j + 1])
                 for k in range(n + 1)] for j in range(n + 1)]


@pytest.mark.parametrize("n,alpha,tau", [(12, ALPHA, TAU), (12, -2.0, 1.5),
                                         (12, ALPHA, -TAU), (48, ALPHA, TAU)])
def test_bimoment_recursion_matches_expansion(n, alpha, tau):
    # [DERIVED] the integration-by-parts recursion in x agrees with the
    # binomial expansion of x^j to 4 units of the working precision, and
    # entries with j + k odd are exactly 0 in both
    B = finiten.bimoment_matrix(n, alpha, tau)
    ref = _expansion_bimoments(n, alpha, tau, B.precision_bits)
    eps = mp.mpf(2) ** (1 - B.precision_bits)
    with mp.workprec(B.precision_bits):
        for j in range(n + 1):
            for k in range(n + 1):
                if (j + k) % 2:
                    assert B.entries[j, k] == 0 and ref[j][k] == 0, (j, k)
                else:
                    assert abs(B.entries[j, k] - ref[j][k]) <= 4 * eps * abs(ref[j][k]), (j, k)


def test_moment_recurrence_consistency():
    # [DERIVED] the four-term moment recursion agrees with direct
    # quadrature of a higher moment
    n = 6
    with mp.workprec(128):
        moms = finiten._y_moments(n, ALPHA, TAU, 8)
        direct = 2 * mp.quad(
            lambda y: y ** 8 * mp.e ** (-n * (y ** 4 / 4 + (ALPHA - TAU ** 2) * y ** 2 / 2)),
            [0, 0.7, 1.4, 2.1, 6])
        assert abs(moms[8] - direct) < 1e-20 * abs(direct)


def _quad_y_moment(n, beta, l):
    """m_l = int y^l e^{-n(y^4/4 + beta y^2/2)} dy by direct mp.quad over
    [0, Y], split at the well of the weight when beta < 0."""
    Y = _tail_cutoff(n, beta, 8, mp.mp.prec)
    pts = [mp.mpf(0)]
    if beta < 0.0:
        w = math.sqrt(-beta)
        pts += [mp.mpf(0.5) * w, mp.mpf(w), mp.mpf(1.5) * w]
    pts += [mp.mpf(Y)]
    b = mp.mpf(beta)
    return 2 * mp.quad(
        lambda y: y ** l * mp.e ** (-n * (y ** 4 / 4 + b * y ** 2 / 2)), pts)


@pytest.mark.parametrize("n", [6, 12,
                               pytest.param(36, marks=pytest.mark.slow)])
@pytest.mark.parametrize("alpha,tau", [(ALPHA, TAU), (1.0, 1.0), (2.0, 0.7)])
def test_y_moments_closed_form_against_quadrature(n, alpha, tau):
    # [DERIVED] the Kummer (beta < 0), beta = 0 and Tricomi (beta > 0)
    # forms of m_0, m_2, and m_8 by the recursion where beta <= 0, agree
    # with direct quadrature at the default precision
    beta = alpha - tau * tau
    tol = 1e-17 if n == 6 else 1e-30
    with mp.workprec(finiten._default_bits(n)):
        moms = finiten._y_moments(n, alpha, tau, 8)
        for l in (0, 2, 8) if beta <= 0.0 else (0, 2):
            ref = _quad_y_moment(n, beta, l)
            assert abs(moms[l] - ref) < tol * abs(ref), l


def test_y_moments_continuous_across_branch_switch():
    # [DERIVED] beta = +-1e-9 (Tricomi / Kummer form) against the beta = 0
    # table to first order, dm_l/dbeta = -n m_{l+2}/2: what is left is
    # O(beta^2), far below 1e-15 relative
    n = 12
    with mp.workprec(finiten._default_bits(n)):
        at0 = finiten._y_moments(n, 1.0, 1.0, 4)
        for alpha in (1.0 + 1e-9, 1.0 - 1e-9):
            beta = mp.mpf(alpha) - 1
            moms = finiten._y_moments(n, alpha, 1.0, 2)
            for l in (0, 2):
                first = at0[l] - n * beta * at0[l + 2] / 2
                assert abs(moms[l] - first) < 1e-15 * at0[l], (alpha, l)


def test_finite_n_takes_no_quadrature(monkeypatch):
    # [TRIVIAL] bimoments, the elimination, a cold K_n table and the
    # alpha > 0 redo of the I_j series run without mp.quad
    def refuse(*args, **kwargs):
        raise AssertionError("mp.quad called")

    monkeypatch.setattr(finiten.mp, "quad", refuse)
    fam = finiten.biorthogonal(finiten.bimoment_matrix(12, ALPHA, TAU))
    finiten._w_table.cache_clear()
    assert math.isfinite(finiten.kernel_n(0.3, 0.3, fam))
    finiten._w_table.cache_clear()
    with mp.workprec(finiten._default_bits(12)):
        finiten._t_moments(12, 2.0, 1.5, 8.0)
    assert finiten._w_table.cache_info().currsize == 2


def test_degree_zero(fam6):
    # [TRIVIAL] p0 = q0 = 1 and h0^2 = B[0][0]
    assert fam6.p_coeffs[0] == [1.0]
    assert fam6.q_coeffs[0] == [1.0]
    B = finiten.bimoment_matrix(6, ALPHA, TAU)
    assert abs(fam6.h2[0] - B.entries[0, 0]) < 1e-20 * B.entries[0, 0]


def test_norms_positive(fam12):
    # [PAPER] existence/uniqueness shows up as positive norms
    for h in fam12.h2:
        assert h > 0


def test_biorthogonality_residual(fam12):
    # [PAPER] A B C^T is diagonal with the norms on the diagonal, at n = 12
    # and 24; entries with j + k odd of B, p_k and q_k are exactly zero,
    # the parity the elimination's stepped loops rely on
    fam24 = finiten.biorthogonal(finiten.bimoment_matrix(24, ALPHA, TAU))
    for fam in (fam12, fam24):
        n = fam.n
        B = finiten.bimoment_matrix(n, ALPHA, TAU,
                                    precision_bits=fam.precision_bits)
        for j in range(n + 1):
            for k in range(n + 1):
                if (j + k) % 2:
                    assert B.entries[j, k] == 0, (n, j, k)
            for coeffs in (fam.p_coeffs[j], fam.q_coeffs[j]):
                assert len(coeffs) == j + 1
                assert all(v == 0 for v in coeffs[(j + 1) % 2::2]), (n, j)
        rows = B.entries.tolist()
        with mp.workprec(fam.precision_bits):
            scale = max(float(h) for h in fam.h2)
            for j in range(n):
                for k in range(n):
                    acc = mp.fdot(fam.p_coeffs[j],
                                  [mp.fdot(fam.q_coeffs[k], row[:k + 1])
                                   for row in rows[:j + 1]])
                    target = fam.h2[j] if j == k else mp.mpf(0)
                    assert abs(acc - target) < 1e-10 * scale, (n, j, k)


def test_biorthogonal_retries_at_doubled_bits():
    # [TRIVIAL] a non-positive pivot redoes the bimoments once at twice
    # the bits, and the family is the one built there directly
    B = finiten.bimoment_matrix(6, ALPHA, TAU)
    B.entries[2, 2] = -B.entries[2, 2]
    fam = finiten.biorthogonal(B)
    ref = finiten.biorthogonal(
        finiten.bimoment_matrix(6, ALPHA, TAU, precision_bits=128))
    assert fam.precision_bits == 2 * B.precision_bits == 128
    assert (fam.p_coeffs, fam.q_coeffs, fam.h2) == \
        (ref.p_coeffs, ref.q_coeffs, ref.h2)


def test_biorthogonal_gives_up_after_one_doubling(monkeypatch):
    # [TRIVIAL] when the retry loses positivity too, the failure is named
    build, calls = finiten.bimoment_matrix, []

    def corrupted(*args, **kwargs):
        B = build(*args, **kwargs)
        B.entries[2, 2] = -B.entries[2, 2]
        calls.append(B.precision_bits)
        return B

    monkeypatch.setattr(finiten, "bimoment_matrix", corrupted)
    with pytest.raises(QuadratureFailure, match="even after doubling"):
        finiten.biorthogonal(finiten.bimoment_matrix(6, ALPHA, TAU))
    assert calls == [64, 128]


def test_zeros_real_simple(fam12):
    # [PAPER] the zeros of p_{12,12} are real and simple
    z = finiten.polynomial_zeros(fam12)
    assert np.max(np.abs(z.imag)) < 1e-10
    assert np.min(np.diff(z.real)) > 1e-8


def _polyroots_zeros(fam):
    """Zeros of p_n by mp.polyroots at twice the family's bits, sorted by
    real part: an oracle independent of the recurrence."""
    with mp.workprec(fam.precision_bits):
        roots = mp.polyroots(fam.p_coeffs[fam.n][::-1], maxsteps=200,
                             extraprec=fam.precision_bits)
    z = np.array([complex(r) for r in roots])
    return z[np.argsort(z.real)]


@pytest.mark.parametrize("n", [6, 12, 18, 24, 30, 36,
                               pytest.param(48, marks=pytest.mark.slow)])
def test_zeros_against_polyroots(n):
    # [DERIVED] the polished eigenvalues of the recurrence matrix are the
    # zeros mp.polyroots finds from the coefficients of p_n
    fam = finiten.biorthogonal(finiten.bimoment_matrix(n, ALPHA, TAU))
    z = finiten.polynomial_zeros(fam)
    assert np.max(np.abs(z - _polyroots_zeros(fam))) < 1e-13


def test_band_recurrence_residual():
    # [PAPER] V quadratic and W an even quartic make the recurrence for p_k
    # banded: x p_k = p_{k+1} + b_k p_{k-1} + c_k p_{k-3}.  At n = 24 every
    # coefficient of the remainder, relative to the largest coefficient of
    # p_{k+1}, is below 2^{-bits/2} (measured: 3e-61 against 3e-39)
    fam = finiten.biorthogonal(finiten.bimoment_matrix(24, ALPHA, TAU))
    b, c = finiten._band_coefficients(fam)
    P = fam.p_coeffs
    with mp.workprec(fam.precision_bits):
        bound = mp.mpf(2) ** (-fam.precision_bits / 2)
        for k in range(fam.n):
            r = [mp.mpf(0)] + P[k]
            for j, v in enumerate(P[k + 1]):
                r[j] -= v
            for j, v in enumerate(P[k - 1] if k >= 1 else []):
                r[j] -= b[k] * v
            for j, v in enumerate(P[k - 3] if k >= 3 else []):
                r[j] -= c[k] * v
            scale = max(abs(v) for v in P[k + 1])
            assert max(abs(v) for v in r) < bound * scale, k


def _family_from_band(b, c, bits=128):
    """A family whose p_0..p_n follow x p_k = p_{k+1} + b_k p_{k-1}
    + c_k p_{k-3}, k < n = len(b); only p_coeffs and n are meaningful."""
    with mp.workprec(bits):
        P = [[mp.mpf(1)]]
        for k in range(len(b)):
            nxt = [mp.mpf(0)] + P[k]
            for j, v in enumerate(P[k - 1] if k >= 1 else []):
                nxt[j] -= b[k] * v
            for j, v in enumerate(P[k - 3] if k >= 3 else []):
                nxt[j] -= c[k] * v
            P.append(nxt)
    return finiten.BiorthogonalFamily(
        n=len(b), alpha=ALPHA, tau=TAU, precision_bits=bits, p_coeffs=P,
        q_coeffs=[], h2=[])


@pytest.mark.parametrize("b,c,expected", [
    # p_4 = x^4 + 4, zeros +-1 +- i
    ([0, 1, -2, 1], [0, 0, 0, -3], [1 + 1j, 1 - 1j, -1 + 1j, -1 - 1j]),
    # b_k = -1: p_k(x) = (-i)^k U_k(ix/2), zeros -2i cos(j pi/13)
    ([0] + [-1] * 11, [0] * 12,
     [-2j * math.cos(j * math.pi / 13) for j in range(1, 13)]),
])
def test_complex_zeros_keep_imaginary_parts(b, c, expected):
    # [DERIVED] a recurrence with a negative b_k has complex zeros; they
    # come back with their imaginary parts, sorted by real part
    fam = _family_from_band(b, c)
    z = finiten.polynomial_zeros(fam)
    assert len(z) == len(expected) and np.all(np.diff(z.real) >= 0)
    for w in expected:
        assert np.min(np.abs(z - w)) < 1e-13, w


def test_band_coefficients_recovered():
    # [TRIVIAL] b_k and c_k read off the coefficients are those the
    # polynomials were built with
    b, c = [0, 0.5, -1.25, 2, 0.75, 1], [0, 0, 0, 0.25, -0.5, 1.5]
    got_b, got_c = finiten._band_coefficients(_family_from_band(b, c))
    assert [float(v) for v in got_b] == b and [float(v) for v in got_c] == c


def test_double_zero_refused():
    # [TRIVIAL] p_4 = (x^2 - 1)^2: two eigenvalues polish onto each double
    # zero, and that is refused by name rather than returned twice
    fam = _family_from_band([0, 1, 0.5, 0.5], [0, 0, 0, -0.5])
    with pytest.raises(QuadratureFailure, match="both polish onto the zero"):
        finiten.polynomial_zeros(fam)


def test_kernel_density_symmetry(fam6):
    # [TRIVIAL] even potentials make the density even
    a = finiten.kernel_n(0.8, 0.8, fam6)
    b = finiten.kernel_n(-0.8, -0.8, fam6)
    assert abs(a - b) < 1e-8 * max(1.0, abs(a))


@pytest.mark.parametrize("n", [12, 36])
def test_t_moment_recursion_against_quadrature(n):
    # [DERIVED] the forward recursion for I_j(y) agrees with direct
    # quadrature of its last moment, I_{n-1}, at the working precision
    with mp.workprec(finiten._default_bits(n)):
        for y in (-1.2, 0.7):
            moms = finiten._t_moments(n, ALPHA, TAU, y)
            Y = _tail_cutoff(n, ALPHA, 2 * n, mp.mp.prec) + abs(y) + 2.0
            direct = mp.quad(
                lambda t: t ** (n - 1) * mp.e ** (
                    -n * (t ** 4 / 4 + ALPHA * t ** 2 / 2 - TAU * y * t)),
                [-Y, -1.5, 0, 1.5, Y])
            assert abs(moms[n - 1] - direct) < 1e-30 * abs(direct), y


def _quad_t_moments(n, alpha, tau, y):
    """I_0, I_1, I_2 by direct mp.quad over [-Y, Y], split at 0 and
    +-1.5, at the current precision."""
    tyb = mp.mpf(tau) * mp.mpf(y)
    Y = _tail_cutoff(n, alpha, 2 * n, mp.mp.prec) + abs(y) + 2.0

    def weight(t):
        return mp.e ** (-n * (t ** 4 / 4 + alpha * t ** 2 / 2 - tyb * t))

    pts = [mp.mpf(-Y), mp.mpf(-1.5), mp.mpf(0), mp.mpf(1.5), mp.mpf(Y)]
    return [mp.quad(lambda t, j=j: t ** j * weight(t), pts) for j in range(3)]


@pytest.mark.parametrize("n,alpha,tau", [
    (12, ALPHA, TAU),
    pytest.param(36, ALPHA, TAU, marks=pytest.mark.slow),
    (12, 2.0, 0.7),
])
def test_t_moment_series_against_quadrature(n, alpha, tau):
    # [DERIVED] the moment-table series for I_0, I_1, I_2 agrees with
    # direct quadrature to 1e-30 relative; I_1(0) vanishes by parity
    with mp.workprec(finiten._default_bits(n)):
        for y in (-3.0, -1.2, 0.0, 0.7, 3.0):
            got = finiten._t_moments(n, alpha, tau, y)[:3]
            ref = _quad_t_moments(n, alpha, tau, y)
            for j in range(3):
                if y == 0.0 and j == 1:
                    assert got[1] == 0 and abs(ref[1]) < 1e-30 * ref[0]
                else:
                    assert abs(got[j] - ref[j]) < 1e-30 * abs(ref[j]), (y, j)


def test_t_moment_series_redone_when_moments_are_lost():
    # [DERIVED] for alpha > 0 the forward moment recursion is unstable;
    # at tau y = 12 the series' magnitudes outgrow its sum at 128 bits,
    # so it is redone on a 2x-precision table and still matches quadrature
    n, alpha, tau, y = 12, 2.0, 1.5, 8.0
    finiten._w_table.cache_clear()
    with mp.workprec(finiten._default_bits(n)):
        got = finiten._t_moments(n, alpha, tau, y)[:3]
        assert finiten._w_table.cache_info().currsize == 2
        with mp.workprec(2 * mp.mp.prec):
            ref = _quad_t_moments(n, alpha, tau, y)
        for j in range(3):
            assert abs(got[j] - ref[j]) < 1e-30 * abs(ref[j]), j


def test_kernel_n_term_cap_names_y(fam6):
    # [TRIVIAL] a y whose series would pass 4096 terms is refused by name
    with pytest.raises(QuadratureFailure, match="y = 1000.0"):
        finiten.kernel_n(0.0, 1000.0, fam6)


def test_kernel_n_array_path(fam6):
    # [TRIVIAL] x and y broadcast over one moment table; every entry
    # equals its 1x1 call, and scalars give floats
    xs = np.array([-0.8, 0.0, 0.3, 0.8])
    ys = np.array([[-0.5], [0.3], [1.1]])
    finiten._w_table.cache_clear()
    K = finiten.kernel_n(xs, ys, fam6)
    assert finiten._w_table.cache_info().misses == 1
    assert K.shape == (3, 4)
    for i, y in enumerate(ys[:, 0]):
        for j, x in enumerate(xs):
            val = finiten.kernel_n(float(x), float(y), fam6)
            assert type(val) is float and K[i, j] == val, (x, y)
    assert type(finiten.kernel_n(np.array(0.3), 0.3, fam6)) is float
    assert finiten.kernel_n([0.3], 0.3, fam6).shape == (1,)


def test_kernel_n_independent_of_table_state(fam12):
    # [TRIVIAL] a value does not depend on how far earlier requests
    # extended the cached moment table
    finiten._w_table.cache_clear()
    cold = finiten.kernel_n(0.3, 0.3, fam12)
    finiten.kernel_n(0.0, 5.0, fam12)
    warm = finiten.kernel_n(0.3, 0.3, fam12)
    finiten._w_table.cache_clear()
    finiten.kernel_n(0.0, -5.0, fam12)
    assert finiten.kernel_n(0.3, 0.3, fam12) == cold == warm


@pytest.mark.parametrize("x,y,bad", [(np.nan, 0.3, "x"), (-np.inf, 0.3, "x"),
                                     (0.3, np.inf, "y"), (0.3, np.nan, "y"),
                                     ([0.1, np.nan], 0.3, "x")])
def test_kernel_n_rejects_non_finite(fam6, x, y, bad):
    # [TRIVIAL] a non-finite point is refused by name, not returned as nan
    with pytest.raises(ValueError, match=f"^{bad} must be finite"):
        finiten.kernel_n(x, y, fam6)


@pytest.mark.parametrize("alpha,tau,bad", [(np.nan, TAU, "alpha"),
                                           (np.inf, TAU, "alpha"),
                                           (ALPHA, np.inf, "tau")])
def test_bimoments_reject_non_finite(alpha, tau, bad):
    # [TRIVIAL] a non-finite alpha or tau is refused by name before any
    # moment is computed, not reported as lost positivity
    with pytest.raises(ValueError, match=f"^{bad} must be finite"):
        finiten.bimoment_matrix(6, alpha, tau)


def test_kernel_values_pinned(fam12):
    # [DERIVED] K_12 values frozen from one mp.quad per Q_k
    for (x, y), ref in (((-1.2, -1.2), 2.348140589478186),
                        ((0.7, -0.7), -0.02610052310044469)):
        val = finiten.kernel_n(x, y, fam12)
        assert abs(val - ref) < 1e-13 * abs(ref), (x, y)


@pytest.mark.slow
def test_kernel_trace(fam6):
    # [DERIVED] trace of the rank-n projection: int K_n(x,x) dx = n
    t, w = np.polynomial.legendre.leggauss(80)
    half = 5.0
    xs = half * t
    vals = finiten.kernel_n(xs, xs, fam6)
    trace = half * float(np.sum(w * vals))
    assert abs(trace - 6.0) < 1e-4


def test_kolmogorov_decreasing(fam6, fam12, fam18):
    # [PAPER] zero counting measure converges to mu1: Kolmogorov distance
    # <= 0.15 at n = 12 and decreasing over n = 6, 12, 18
    d6 = finiten.zero_counting_kolmogorov(fam6)
    d12 = finiten.zero_counting_kolmogorov(fam12)
    d18 = finiten.zero_counting_kolmogorov(fam18)
    assert d12 <= 0.15
    assert d6 > d12 > d18


@pytest.mark.slow
def test_kolmogorov_falls_past_n_36():
    # [PAPER] the zero-counting distance to mu1 keeps falling past n = 36
    # (0.014 at n = 48, 0.0073 at n = 96), up to the measured cap
    d48, d96 = (finiten.zero_counting_kolmogorov(finiten.biorthogonal(
        finiten.bimoment_matrix(n, ALPHA, TAU))) for n in (48, 96))
    assert d48 > d96


@pytest.mark.parametrize("alpha, tau", [(0.5, 2.0), (-3.0, 0.5), (-2.0, 1.5),
                                        (-0.9, 1.05)])
def test_kolmogorov_refuses_a_signed_mu1_density(alpha, tau):
    # [DERIVED] away from (-1, 1) the modified surface's mu1 density
    # changes sign (-62 at x = 0 at (0.5, 2), -253 at (-3, 0.5); its least
    # value on the mass nodes is -1.47, -6.42, -38.6 at (-2, 1.5) and
    # -0.0037 at x = 2.5e-4 at (-0.9, 1.05), in a dip from x = 1.0e-4 to
    # 3.5e-3), so it is no measure: the CDF and the distance to it are
    # refused by name (unguarded, the "CDF" leaves [0, 1] and the distances
    # read 3.44 and 1.31)
    with pytest.raises(DomainRestriction, match="mu1 density changes sign"):
        finiten._mu1_cdf(alpha, tau)
    fam = finiten.biorthogonal(finiten.bimoment_matrix(6, alpha, tau))
    with pytest.raises(DomainRestriction, match="mu1 density changes sign"):
        finiten.zero_counting_kolmogorov(fam)


def test_kolmogorov_equals_loop_reference(fam12):
    # [TRIVIAL] the vectorized distance equals the per-zero loop it replaced,
    # each zero's CDF value taken alone
    zeros = finiten.polynomial_zeros(fam12).real
    cdf = finiten._mu1_cdf(fam12.alpha, fam12.tau)
    n, dist = len(zeros), 0.0
    for i, z in enumerate(zeros):
        F = cdf(z)
        dist = max(dist, abs((i + 1) / n - F), abs(i / n - F))
    assert finiten.zero_counting_kolmogorov(fam12) == dist


@pytest.mark.parametrize("n", [12, 48])
def test_mu1_cdf_matches_a_per_zero_quadrature(fam12, n):
    # [DERIVED] the CDF at the zeros of p_n equals 200-node Gauss-Legendre
    # on [0, |x|] under x = |x| s^2, normalised by the same rule on
    # [0, c/2] and [c/2, c] from their square-root ends, to 1e-7 (measured
    # 9e-14; a trapezoid rule on 801 points is 2.5e-5 off)
    from critkernels import measures, surface

    fam = fam12 if n == 12 else finiten.biorthogonal(
        finiten.bimoment_matrix(n, ALPHA, TAU))
    zeros = finiten.polynomial_zeros(fam).real
    p = surface.SurfaceParams.from_alpha_tau(ALPHA, TAU)
    t, w = np.polynomial.legendre.leggauss(200)
    s, w = 0.5 * (t + 1.0), w * (t + 1.0) / 2.0         # w: weight times s
    ends = np.abs(zeros)
    assert ends.max() < p.c
    h = 0.5 * p.c
    x = np.concatenate([np.outer(ends, s * s).ravel(), h * s * s, p.c - h * s * s])
    wx = np.concatenate([np.outer(ends, w).ravel(), h * w, h * w])
    mass = (wx * measures.density_mu1(x, p)).reshape(-1, len(s)).sum(axis=1)
    want = 0.5 + np.sign(zeros) * mass[:-2] / (2.0 * mass[-2:].sum())
    got = finiten._mu1_cdf(ALPHA, TAU)(zeros)
    assert np.max(np.abs(got - want)) <= 1e-7


def test_cold_mu1_cdf_marches_the_mass_nodes():
    # [TRIVIAL] a cold CDF tracks exactly the nodes of mass_mu1: the same
    # march rounds and root evaluations (20 and 88 at (-1, 1)), and a warm
    # one tracks none
    from critkernels import measures, surface

    def work(call):
        rounds, roots = surface.march_rounds, surface.root_evaluations
        call()
        return surface.march_rounds - rounds, surface.root_evaluations - roots

    finiten._mu1_cdf.cache_clear()
    cold = work(lambda: finiten._mu1_cdf(ALPHA, TAU))
    assert cold == work(lambda: measures.mass_mu1(
        surface.SurfaceParams.from_alpha_tau(ALPHA, TAU)))
    assert work(lambda: finiten._mu1_cdf(ALPHA, TAU)) == (0, 0)


def test_zeros_solved_once_per_family(monkeypatch):
    # [TRIVIAL] the Kolmogorov distance reuses the zeros a caller already
    # solved, and each caller gets its own copy of them
    fam = finiten.biorthogonal(finiten.bimoment_matrix(6, ALPHA, TAU))
    solves = []
    solve = finiten._solve_zeros
    monkeypatch.setattr(finiten, "_solve_zeros",
                        lambda f: solves.append(f) or solve(f))
    zeros = finiten.polynomial_zeros(fam)
    first = zeros.copy()
    zeros[:] = 0.0
    dist = finiten.zero_counting_kolmogorov(fam)
    assert len(solves) == 1
    assert np.array_equal(finiten.polynomial_zeros(fam), first)
    fresh = finiten.biorthogonal(finiten.bimoment_matrix(6, ALPHA, TAU))
    assert dist == finiten.zero_counting_kolmogorov(fresh)


def test_domain_errors():
    # [TRIVIAL] preconditions on n and precision
    with pytest.raises(DomainRestriction):
        finiten.bimoment_matrix(7, ALPHA, TAU)
    with pytest.raises(DomainRestriction):
        finiten.bimoment_matrix(150, ALPHA, TAU)
    with pytest.raises(DomainRestriction):
        finiten.bimoment_matrix(12, ALPHA, TAU, precision_bits=64)


@pytest.mark.parametrize("n", [0, -6, -7])
def test_nonpositive_n_rejected(n):
    # [TRIVIAL] n < 6 is rejected by name, before any moment is computed
    with pytest.raises(DomainRestriction, match="n must be a positive multiple of 6"):
        finiten.bimoment_matrix(n, ALPHA, TAU)
