"""Tests for the limiting kernels K_cr, K_tac and K_PII."""

import itertools
import math

import numpy as np
import pytest

from critkernels import kernels, rhsolver
from critkernels.errors import DomainRestriction
from critkernels.rhsolver import RhSolver


def test_kernel_cr_reality():
    # [DERIVED] limit of a real point-process kernel is real
    K = kernels.kernel_cr(1.0, 2.0, 0.0, 0.0)
    assert abs(K.imag) < 1e-6
    assert K.real != 0.0


def test_kernel_cr_both_orders_real():
    # [DERIVED] the kernel is real in both argument orders (it need not be
    # symmetric: the underlying ensemble is biorthogonal)
    a = kernels.kernel_cr(0.7, 1.9, 0.0, 0.0)
    b = kernels.kernel_cr(1.9, 0.7, 0.0, 0.0)
    assert abs(a.imag) < 1e-6 and abs(b.imag) < 1e-6


def test_kernel_cr_coincidence_smoothness():
    # [TRIVIAL] derivative limit of the divided difference at u = 1.5
    s, t = 0.3, -0.2
    d = kernels.kernel_cr_diag(1.5, s, t)
    for h in (1e-3, 1e-4):
        p = kernels.kernel_cr(1.5, 1.5 + h, s, t)
        assert abs(p - d) < 0.5 * h + 1e-7, h


def test_kernel_cr_diag_nonnegative():
    # [DERIVED] one-point density limit is nonnegative
    vals = kernels.kernel_cr_diag([0.5, 1.0, 2.0, 5.0], 0.0, 0.0)
    assert np.all(vals.real >= -1e-6)
    assert np.max(np.abs(vals.imag)) < 1e-6


def test_kernel_cr_negative_arguments():
    # [DERIVED] the kernel extends to negative arguments (sector-7 boundary
    # values) and stays real there
    K = kernels.kernel_cr(-1.0, -2.0, 0.0, 0.0)
    assert abs(K.imag) < 1e-6
    d = kernels.kernel_cr_diag(-1.5, 0.0, 0.0)
    assert abs(d.imag) < 1e-6 and d.real > -1e-6


def test_kernel_cr_origin_extrapolation():
    # [DERIVED] the kernel varies smoothly from the origin outward
    s, t = 0.0, 0.0
    inner = kernels.kernel_cr_diag(5e-4, s, t)
    outer = kernels.kernel_cr_diag(2e-3, s, t)
    assert abs(inner - outer) < 5e-3
    off = kernels.kernel_cr(5e-4, 1.0, s, t)
    ref = kernels.kernel_cr(2e-3, 1.0, s, t)
    assert abs(off - ref) < 5e-3


@pytest.mark.parametrize("s,t", [(0.0, 0.0), (0.3, -0.2)])
def test_kernel_cr_continuous_at_1e3(s, t):
    # [DERIVED] no seam at |u| = 1e-3: moving u by 1e-12 there, in either
    # argument and on the diagonal, moves K_cr by less than 1e-11
    # relative, however far or near the other argument lies
    for edge in (-1e-3, 1e-3):
        inner, outer = edge * (1.0 - 1e-9), edge
        for v in (-2.0, -0.3, 0.5, 1.0, -3e-4, 3e-4):
            for a, b in (((inner, v), (outer, v)), ((v, inner), (v, outer))):
                Ka, Kb = kernels.kernel_cr(*a, s, t), kernels.kernel_cr(*b, s, t)
                assert abs(Ka - Kb) < 1e-11 * max(1.0, abs(Kb)), (a, b)
        Ka = kernels.kernel_cr_diag(inner, s, t)
        Kb = kernels.kernel_cr_diag(outer, s, t)
        assert abs(Ka - Kb) < 1e-11 * max(1.0, abs(Kb)), edge


@pytest.mark.parametrize("s,t", [(0.0, 0.0), (0.3, -0.2)])
def test_kernel_cr_at_origin_matches_reference_solver(s, t):
    # [DERIVED] at and near the critical point u = 0, on the diagonal and
    # against v = -2, 0.5 and 0, K_cr agrees with the same form on a
    # solver with a larger r0 and series order
    ref = RhSolver(s, t, r0=26.0, series_order=22)
    u = np.array([0.0, 1e-5, -1e-5, 5e-4, -5e-4])
    for v in (u, -2.0, 0.5, 0.0):
        K = kernels.kernel_cr(u, v, s, t)
        R = kernels.kernel_cr(u, v, s, t, ref)
        assert np.max(np.abs(K - R) / np.maximum(1.0, np.abs(R))) < 1e-8, v


def test_cr_diag_expansion_window():
    # [PAPER] u^{3/2}-scaled residual against the three-term expansion is
    # bounded with no growth trend on u in [15, 30]
    s, t = 0.3, -0.2
    u = np.linspace(15.0, 30.0, 31)
    d = kernels.kernel_cr_diag(u, s, t)
    assert np.max(np.abs(d.imag)) < 1e-8
    r = (d.real - kernels.cr_diag_asym(u, s, t)) * u ** 1.5
    assert np.max(np.abs(r)) < 0.5
    lo = np.max(np.abs(r[: len(r) // 2]))
    hi = np.max(np.abs(r[len(r) // 2:]))
    assert hi < 2.0 * max(lo, 0.01)


def test_cr_diag_far_out():
    # [PAPER] the expansion still holds at u = 85 and 90, where the series
    # frame's recessive columns are 1e-290 of the dominant ones and below:
    # each column carries its own log scale, so none underflows
    s, t = 0.3, -0.2
    u = np.array([85.0, 90.0])
    d = kernels.kernel_cr_diag(u, s, t)
    assert np.all(np.isfinite(d))
    assert np.max(np.abs(d.imag)) < 1e-8
    r = (d.real - kernels.cr_diag_asym(u, s, t)) * u ** 1.5
    assert np.max(np.abs(r)) <= 0.1


def test_cr_diag_no_oscillation():
    # [PAPER] the 1/u coefficient of K_cr's expansion vanishes: the
    # residual stays below a fifth of the 1/(4 pi u) envelope
    s, t = 0.3, -0.2
    u = np.linspace(15.0, 30.0, 61)
    d = kernels.kernel_cr_diag(u, s, t).real
    resid = d - kernels.cr_diag_asym(u, s, t)
    env = 1.0 / (4.0 * math.pi * u)
    assert np.max(np.abs(resid / env)) < 0.2


def test_tac_diag_expansion_window():
    # [PAPER] u^{3/2}-scaled residual with the oscillatory term included
    r, s = 1.0, 0.3
    u = np.linspace(15.0, 30.0, 61)
    d = kernels.kernel_tac_diag(u, r, s)
    assert np.max(np.abs(d.imag)) < 1e-8
    res = (d.real - kernels.tac_diag_asym(u, r, s)) * u ** 1.5
    assert np.max(np.abs(res)) < 0.5


def test_tac_oscillation_amplitude():
    # [PAPER] the 1/u term oscillates with envelope 1/(4 pi u) and unit
    # modulus: amplitude ratio within [0.8, 1.2]
    r, s = 1.0, 0.3
    u = np.linspace(15.0, 30.0, 241)
    d = kernels.kernel_tac_diag(u, r, s).real
    osc = (d - kernels.tac_diag_asym(u, r, s, oscillation=False))
    ratio = osc * (4.0 * math.pi * u)
    assert np.max(np.abs(ratio)) <= 1.2
    # the oscillation actually attains its envelope somewhere in the window
    assert np.max(np.abs(ratio)) >= 0.8
    # and the predicted phase tracks the measurement pointwise
    phase = 2.0 * ((2.0 / 3.0) * u ** 1.5 - 2.0 * s * np.sqrt(u))
    assert np.max(np.abs(ratio + np.cos(phase))) < 0.35


def test_tac_diag_matches_pair_limit():
    # [TRIVIAL] derivative construction agrees with the divided difference
    d = kernels.kernel_tac_diag(1.5, 1.0, 0.3)
    p = kernels.kernel_tac(1.5, 1.5 + 1e-4, 1.0, 0.3)
    assert abs(d - p) < 1e-3


def test_kernel_cr_warm_pairs_take_no_steps():
    # [DERIVED] K_cr pairs read M from the solver's recorded sweeps: once
    # the diagonal of a 6x6 matrix at |u| <= 3.3 has been evaluated, its
    # 30 off-diagonal pairs take no new Taylor step
    s, t = 0.3, 0.0
    points = [0.5, -0.8, 1.5, -2.0, 2.6, -3.3]
    solver = kernels.get_solver(s, t)
    kernels.kernel_cr_diag(points, s, t, solver)
    steps = solver.taylor_steps
    pairs = [(u, v) for u in points for v in points if u != v]
    for u, v in pairs:
        kernels.kernel_cr(u, v, s, t, solver)
    assert len(pairs) == 30
    assert solver.taylor_steps == steps


def test_kernel_pii_warm_entries_take_no_steps():
    # [DERIVED] K_PII reads Psi from the solver's recorded sweeps along
    # the real half-lines: once the diagonal of a 5x5 matrix through the
    # origin has been evaluated, its 20 off-diagonal entries take no new
    # Taylor step
    nu = 2.0 ** (5.0 / 3.0) * 0.5
    points = [-1.6, -0.3, 0.0, 0.6, 1.5]
    solver = kernels.get_pii_solver(complex(nu))
    kernels.kernel_pii_diag(points, nu, solver)
    steps = solver.taylor_steps
    pairs = [(x, y) for x in points for y in points if x != y]
    for x, y in pairs:
        kernels.kernel_pii(x, y, nu, solver)
    assert len(pairs) == 20
    assert solver.taylor_steps == steps


def test_kernel_cr_far_out_takes_no_transport():
    # [DERIVED] at and beyond r0, M on the imaginary axis is the series
    # frame: a far-out K_cr diagonal takes no Taylor step and keeps no new
    # sweep, and a solver keeps at most one sweep per leg and axis
    s, t = 0.3, -0.2
    solver = kernels.get_solver(s, t)
    steps, sweeps = solver.taylor_steps, len(solver._sweeps)
    kernels.kernel_cr_diag(np.linspace(15.0, 80.0, 40), s, t)
    assert solver.taylor_steps == steps
    assert len(solver._sweeps) == sweeps
    for x in (np.linspace(0.1, 90.0, 60), -np.linspace(0.1, 90.0, 60)):
        solver.m_balanced(x, "imag")
    solver.m_balanced(np.linspace(0.1, 90.0, 60), "real+")
    assert len(solver._sweeps) <= 5


def test_kernel_cr_far_out_matches_reference_solver():
    # [DERIVED] the default K_cr diagonal beyond r0 agrees with that of a
    # solver with a larger r0 and series order
    s, t = 0.5, -1.0
    ref = RhSolver(s, t, r0=30.0, series_order=24)
    u = np.array([20.0, 30.0])
    d = kernels.kernel_cr_diag(u, s, t)
    r = kernels.kernel_cr_diag(u, s, t, ref)
    assert np.max(np.abs(d - r) / np.abs(r)) < 1e-7


def test_tac_real_switch_continuous():
    # [DERIVED] M_+ from outward transport and from the series frame give
    # the same K_tac diagonal on both sides of the switch between them
    u = rhsolver._REAL_SWITCH
    lo = kernels.kernel_tac_diag(u - 1e-6, 1.0, 0.3)
    hi = kernels.kernel_tac_diag(u + 1e-6, 1.0, 0.3)
    assert abs(lo - hi) < 1e-5


def test_tac_domain_errors():
    # [TRIVIAL] u, v > 0 and r > 0 are enforced
    with pytest.raises(DomainRestriction):
        kernels.kernel_tac(-1.0, 2.0, 1.0, 0.0)
    with pytest.raises(DomainRestriction):
        kernels.kernel_tac_diag(0.0, 1.0, 0.0)
    with pytest.raises(DomainRestriction):
        kernels.kernel_tac(1.0, 2.0, -1.0, 0.0)


@pytest.mark.parametrize("name,args,bad", [
    ("kernel_cr", (math.nan, 2.0, 0.0, 0.0), "u"),
    ("kernel_cr_diag", ([1.0, math.inf], 0.0, 0.0), "u"),
    ("kernel_tac", (1.0, 2.0, 1.0, math.nan), "s"),
    ("kernel_tac_diag", (1.5, math.inf, 0.3), "r"),
    ("kernel_pii", (0.5, math.nan, 1.0), "y"),
    ("kernel_pii_diag", (0.5, complex(math.nan, 0.0)), "nu"),
])
def test_non_finite_input_rejected(monkeypatch, name, args, bad):
    # [TRIVIAL] a NaN or inf argument raises ValueError naming it, before
    # any solver is built
    def no_build(*_):
        raise AssertionError("solver built for a non-finite input")

    monkeypatch.setattr(kernels, "get_solver", no_build)
    monkeypatch.setattr(kernels, "get_pii_solver", no_build)
    with pytest.raises(ValueError, match=rf"^{bad} must be finite"):
        getattr(kernels, name)(*args)


def test_tac_general_r_scaling():
    # [DERIVED] general r reduces to r = 1 by the zeta -> r^{2/3} zeta
    # rescaling; the reduced value is real and close to the r = 1 kernel
    # at the mapped arguments
    val = kernels.kernel_tac(2.0, 3.0, 2.0, 0.1)
    assert abs(val.imag) < 1e-6
    c = 2.0 ** (2.0 / 3.0)
    ref = c * kernels.kernel_tac(c * 2.0, c * 3.0, 1.0, 0.1 * 2.0 ** (-1.0 / 3.0))
    assert abs(val - ref) < 1e-10


def test_kernel_separation():
    # [PAPER] K_cr has no 1/u oscillation while K_tac does: the measurable
    # contrast between the two kernels
    u = np.linspace(15.0, 30.0, 121)
    cr = kernels.kernel_cr_diag(u, 0.3, 0.0).real
    tac = kernels.kernel_tac_diag(u, 1.0, 0.3).real
    env = 1.0 / (4.0 * math.pi * u)
    cr_osc = np.max(np.abs((cr - kernels.cr_diag_asym(u, 0.3, 0.0)) / env))
    tac_osc = np.max(np.abs(
        (tac - kernels.tac_diag_asym(u, 1.0, 0.3, oscillation=False)) / env))
    assert cr_osc < 0.2 < 0.8 < tac_osc


def _gap_probability(kernel, lo: float, length: float, *args) -> complex:
    # det(I - sqrt(w) K sqrt(w)) on 16 Gauss-Legendre nodes of [lo, lo + length]
    x, w = np.polynomial.legendre.leggauss(16)
    x = lo + 0.5 * length * (x + 1.0)
    sw = np.sqrt(0.5 * length * w)
    K = kernel(x[:, None], x, *args)
    return complex(np.linalg.det(np.eye(16) - sw[:, None] * K * sw))


@pytest.mark.parametrize("kernel,lo,args", [
    (kernels.kernel_cr, 0.5, (0.3, 0.0)),
    (kernels.kernel_cr, -2.0, (0.3, 0.0)),
    (kernels.kernel_pii, -1.0, (1.0,)),
], ids=["cr-positive", "cr-straddle", "pii"])
def test_gap_probability(kernel, lo, args):
    # [DERIVED] the Fredholm determinant det(I - K) on [lo, lo + L], from
    # one matrix call (Nystrom discretisation; Bornemann, Math. Comp. 79
    # (2010)), is the probability of no point there: real, in [0, 1] and
    # strictly decreasing in L
    E = np.array([_gap_probability(kernel, lo, L, *args)
                  for L in (0.5, 1.0, 2.0, 4.0)])
    assert np.max(np.abs(E.imag)) < 1e-10
    assert np.all((E.real >= 0.0) & (E.real <= 1.0))
    assert np.all(np.diff(E.real) < 0.0)


@pytest.mark.parametrize("kernel,args,points", [
    # beyond r0, from the series frame (20), near the origin (5e-4), a coincident pair
    (kernels.kernel_cr, (0.3, 0.0), [1.1, -2.0, 20.0, 5e-4, 1.1 + 1e-7, -0.8]),
    # both sides of the real-axis switch at 6.5, and a coincident pair
    (kernels.kernel_tac, (1.0, 0.3), [2.4, 8.4, 20.0, 6.4, 6.6, 2.4 + 1e-7]),
    (kernels.kernel_pii, (1.0,), [0.6, -1.1, 3.0, 5e-4, 0.6 + 1e-7, -0.3]),
], ids=["cr", "tac", "pii"])
def test_matrix_entries_request_independent(kernel, args, points):
    # [DERIVED] every entry of a kernel matrix equals (==) its own 1x1 call,
    # whatever else the request holds and in whatever order; an empty
    # request gives an empty matrix
    ref = {(u, v): kernel(u, v, *args) for u in points for v in points}
    assert all(isinstance(k, complex) for k in ref.values())
    assert kernel(np.empty((0, 1)), np.array(points), *args).shape == (0, len(points))
    rng = np.random.default_rng(7)
    for U, V in [(points[:2], points[:2]),
                 (rng.permutation(points), rng.permutation(points)),
                 (rng.permutation(points), rng.permutation(points)[::2])]:
        U, V = np.array(U), np.array(V)
        K = kernel(U[:, None], V, *args)
        assert K.shape == (len(U), len(V))
        for (i, u), (j, v) in itertools.product(enumerate(U), enumerate(V)):
            assert K[i, j] == ref[u, v], (u, v)
