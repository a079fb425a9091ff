"""Tests for the Hastings-McLeod Painleve II solver."""

import numpy as np
import pytest

from critkernels import painleve as pv
from critkernels.errors import OutOfDomain

from oracles import airy_ai, airy_ai_prime

HM = pv.default_solution()


def test_airy_oracle_sanity():
    # [TRIVIAL] the oracle reproduces Ai(0) = 3^{-2/3}/Gamma(2/3)
    import math
    assert airy_ai(0.0) == pytest.approx(3 ** (-2 / 3) / math.gamma(2 / 3), abs=1e-14)


def test_q_matches_airy_at_right():
    # [PAPER] q(sigma) = Ai(sigma)(1 + o(1)) as sigma -> +infinity
    q8, qp8, _ = HM(8.0)
    assert q8 / airy_ai(8.0) == pytest.approx(1.0, abs=1e-4)
    assert qp8 / airy_ai_prime(8.0) == pytest.approx(1.0, abs=1e-4)


def test_pii_residual_on_grid():
    # [PAPER] |q'' - 2q^3 - sigma q| < 1e-8 by re-differentiating the interpolant
    xs = np.linspace(-8.0, 8.0, 801)
    qs = np.array([HM.q(x) for x in xs])
    qpp = HM.qsecond(xs)
    assert np.max(np.abs(qpp - 2.0 * qs**3 - xs * qs)) < 1e-8


def test_hamiltonian_derivative():
    # [PAPER] u'(sigma) = -q(sigma)^2
    for s in [-2.0, 0.0, 2.0]:
        h = 1e-5
        up = (HM.u(s + h) - HM.u(s - h)) / (2.0 * h)
        assert abs(up + HM.q(s) ** 2) < 1e-8


def test_positivity_and_monotone_decay():
    # [PAPER] Hastings-McLeod is positive on R; decreasing for sigma > 1
    xs = np.linspace(-12.0, 12.0, 1201)
    qs = np.array([HM.q(x) for x in xs])
    assert np.all(qs > 0.0)
    right = qs[xs > 1.0]
    assert np.all(np.diff(right) < 0.0)


def test_hamiltonian_consistency_by_integration():
    # [DERIVED] integrating -q^2 from sigma_max reproduces u to 1e-7
    from scipy.integrate import quad
    s0 = 2.0
    val, _ = quad(lambda x: -HM.q(x) ** 2, 12.0, s0, limit=200)
    assert val + HM.u(12.0) == pytest.approx(HM.u(s0), abs=1e-7)


def test_left_plateau():
    # [DERIVED] q approaches sqrt(-sigma/2)(1 + 1/(8 sigma^3) - ...) on the left
    for s in [-8.0, -10.0, -12.0]:
        assert HM.q(s) == pytest.approx(pv.plateau_asymptote(s), abs=1e-6)


def test_out_of_domain():
    with pytest.raises(OutOfDomain):
        HM(13.0)


def test_cross_check_shooting():
    # [DERIVED] independent verification of q(0): integrate the ODE from
    # sigma = 8 with Airy oracle initial data down to 0 (stable direction
    # is rightward, but over this short range the error growth
    # exp(int sqrt(2) |q| ...) stays controlled) and compare to 1e-7
    from scipy.integrate import solve_ivp

    def rhs(x, y):
        return [y[1], 2.0 * y[0] ** 3 + x * y[0]]

    sol = solve_ivp(rhs, (8.0, 0.0), [airy_ai(8.0), airy_ai_prime(8.0)],
                    rtol=1e-12, atol=1e-14, dense_output=True)
    q0 = sol.y[0][-1]
    assert HM.q(0.0) == pytest.approx(q0, abs=1e-7)


def test_matches_bvp_reference_at_origin():
    # [DERIVED] q(0), q'(0) agree with an independent scipy solve_bvp
    # collocation (tol 1e-11, quintic Hermite interpolant) to 1e-12
    q0, qp0, _ = HM(0.0)
    assert abs(q0 - 0.36706155154807923) < 1e-12
    assert abs(qp0 - (-0.29537210544754794)) < 1e-12


def test_node_refinement():
    # [DERIVED] 160 and 240 Chebyshev nodes agree to 1e-12 on the grid
    fine = pv.solve_hastings_mcleod(n_nodes=240)
    for x in np.linspace(-12.0, 12.0, 1201):
        assert abs(fine.q(x) - HM.q(x)) < 1e-12


def test_pinned_airy_value_is_mpmath_ai12():
    # [TRIVIAL] the right end value pinned by the collocation is Ai(12)
    # from mpmath, bit for bit
    import mpmath
    assert pv._AI_MAX == float(mpmath.airyai(pv._SIGMA_MAX))


def test_pinned_airy_tail_is_mpmath_quad():
    # [TRIVIAL] the tail int_12^infinity Ai that Q(nu) adds beyond the
    # collocation interval is mpmath's integral at 40 digits, bit for bit
    import mpmath
    with mpmath.workdps(40):
        tail = mpmath.quad(mpmath.airyai, [pv._SIGMA_MAX, 13, 14, 16, 20, 30, mpmath.inf])
    assert pv._AI_TAIL == float(tail)


@pytest.mark.parametrize("nu", [-12.0, -2.0, 0.0, 1.0, 3.0, 12.0])
def test_tail_integral_is_the_collocant_integral(nu):
    # [DERIVED] int_nu^infinity q: the Gauss-Legendre sum equals an
    # independent adaptive quadrature of the same collocant to 1e-14
    # relative, plus the pinned Ai tail beyond 12
    import mpmath
    Q = HM.tail_integral(nu)
    ref = mpmath.quad(lambda s: HM.q(float(s)), np.linspace(nu, 12.0, 9).tolist())
    assert abs(Q - pv._AI_TAIL - float(ref)) <= 1e-14 * max(1.0, Q)
    with pytest.raises(OutOfDomain, match="^sigma = 12.5 outside"):
        HM.tail_integral(12.5)
