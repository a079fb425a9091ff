"""The Taylor-series Lax transport against an independent DOP853 oracle."""

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from critkernels import kernels
from critkernels.dscale import DoubleScaling
from critkernels.piisolver import PiiSolver, get_pii_solver
from critkernels.rhsolver import RhSolver
from critkernels.sectoral import _taylor_sum

from oracles import FittedPiiSolver


def _oracle(solver, direction, Y0, r_from, r_to):
    """Y at r_to on the ray from a plain DOP853 run at rtol 1e-13."""
    d, k = Y0.shape

    def rhs(r, y):
        return (direction * solver.lax(r * direction) @ y.reshape(d, k)).reshape(-1)

    sol = solve_ivp(rhs, (r_from, r_to), np.asarray(Y0, complex).reshape(-1),
                    method="DOP853", rtol=1e-13, atol=1e-30)
    assert sol.success
    return sol.y[:, -1].reshape(d, k)


def _column_error(Yhat, logs, ref, shift=0.0):
    Y = Yhat * np.exp(logs - shift)
    return np.max(np.max(np.abs(Y - ref), axis=0) / np.max(np.abs(ref), axis=0))


@pytest.fixture(scope="module")
def rh():
    return kernels.get_solver(0.3, 0.0)


def test_outward_rh(rh):
    # [DERIVED] Phi along rays in every sector, out to the anchor radius
    dirs = np.exp(1j * np.linspace(0.05, 2 * np.pi + 0.05, 10, endpoint=False))
    Yhat, logs = rh.transport(dirs, [14.0])
    for b, d in enumerate(dirs):
        ref = _oracle(rh, d, np.eye(4), 0.0, 14.0)
        assert _column_error(Yhat[b, 0], logs[b, 0], ref) < 1e-10, d


def test_inward_rh(rh):
    # [DERIVED] the inward leg of m_balanced on imag+: the columns that
    # are recessive outward, carried from the series frame at 14 to 0.5
    F, g = rh._series_frame(14.0j, 2)
    Y0 = F[:, [2, 3]]
    Yhat, logs = rh.sweep(1j, 2, (2, 3), 14.0).at([0.5, 3.0])
    for m, r in enumerate((0.5, 3.0)):
        ref = _oracle(rh, 1j, Y0, 14.0, r)
        assert _column_error(Yhat[m], logs[m], ref, shift=g[[2, 3]]) < 1e-10, r


def test_pii_on_double_scaling_nodes():
    # [DERIVED] Psi's fundamental solution at the u0-circle nodes of the
    # double-scaling contour, one ray per node
    ds = DoubleScaling(4.0, 0.5)
    pii = get_pii_solver(complex(2.0 ** (5.0 / 3.0) * 0.5))
    w = 1j * ds.a * np.array([ds.f1(z) for z in ds.nodes[ds.circles["origin"]][::8]])
    r = np.abs(w)
    Yhat, logs = pii.transport(w / r, r[:, None])
    for b in range(len(w)):
        ref = _oracle(pii, w[b] / r[b], np.eye(2), 0.0, r[b])
        assert _column_error(Yhat[b, 0], logs[b, 0], ref) < 1e-10, w[b]


def test_taylor_sum_matches_horner():
    # [TRIVIAL] the one-matmul Taylor sum equals Horner's rule to 1e-15
    # relative for |s| <= 1, per row or with one s for all, and an empty
    # batch gives an empty sum
    rng = np.random.default_rng(3)
    decay = 2.0 ** np.arange(31) / np.cumprod([1.0] + list(range(1, 31)))
    T = (rng.standard_normal((40, 31, 4, 2))
         + 1j * rng.standard_normal((40, 31, 4, 2))) * decay[:, None, None]
    for s in (rng.uniform(-1.0, 1.0, 40), 1.0, -0.6):
        acc = T[:, -1]
        for n in range(29, -1, -1):
            acc = acc * np.reshape(s, (-1, 1, 1)) + T[:, n]
        err = np.max(np.abs(_taylor_sum(T, s) - acc), axis=(1, 2))
        assert np.all(err <= 1e-15 * np.max(np.abs(acc), axis=(1, 2)))
    assert _taylor_sum(T[:0], 0.5).shape == (0, 4, 2)
    assert _taylor_sum(T[:0], np.empty(0)).shape == (0, 4, 2)


@pytest.mark.parametrize("build", [lambda: RhSolver(0.3, -0.2), lambda: PiiSolver(1.0)],
                         ids=["rh", "pii"])
def test_ray_alone_equals_ray_in_batch(build):
    # [TRIVIAL] every ray of a batch steps on the same r-grid with its own
    # columns of the recurrence, so a ray transported alone equals the
    # same ray inside a batch of 30, or of 208 (the double-scaling
    # u0-circle count, whose chunks end at other steps), bit for bit
    solver = build()
    radii = [0.7, 5.0, 13.0]
    for n in (30, 208):
        dirs = np.exp(1j * np.linspace(0.1, 2 * np.pi + 0.1, n, endpoint=False))
        Yhat, logs = solver.transport(dirs, radii)
        for b in (0, 7, 29, n - 1):
            Y1, l1 = solver.transport(dirs[b:b + 1], radii)
            assert np.array_equal(Y1[0], Yhat[b]) and np.array_equal(l1[0], logs[b]), (n, b)


def test_chunks_are_bounded_by_matrix_entries(monkeypatch):
    # [DERIVED] a chunk holds at most 256 * 16 matrix entries, so a 2x2
    # batch takes four times the ray-steps of a 4x4 one: the 7 transported
    # anchor rays of the fitted PiiSolver(1) oracle march in one chunk, and
    # the 104-node Psi read of a DoubleScaling(4, 0.5, 0.72) build (the U0
    # nodes of the half contour H; -H's bracket is mirrored) in at most two
    assert FittedPiiSolver(1.0).taylor_passes == 1
    pii = get_pii_solver(complex(2.0 ** (5.0 / 3.0) * 0.5))
    reads = []
    psi = type(pii).psi
    monkeypatch.setattr(type(pii), "psi", lambda self, w: (
        reads.append(np.size(w)), psi(self, w))[1])
    passes = pii.taylor_passes
    DoubleScaling(4.0, 0.5, 0.72)
    assert reads == [104]
    assert pii.taylor_passes - passes <= 2


@pytest.mark.parametrize("build", [lambda: RhSolver(0.3, -0.2), lambda: FittedPiiSolver(1.0)],
                         ids=["rh", "pii"])
def test_step_propagators_are_unimodular(build):
    # [DERIVED] both Lax matrices are traceless, so every step propagator
    # sum_n U_n (d h)^n of the anchor transport has determinant 1
    # (Liouville), whatever recurrence built U; Painleve II's anchors are
    # those of its fitted oracle
    solver = build()
    dirs = np.asarray(solver._directions)
    d = solver.dim
    state = (np.broadcast_to(np.eye(d, dtype=complex), (len(dirs), d, d)),
             np.zeros((len(dirs), d)), 0.0)
    while state[2] < solver.r0:
        grid = solver._grid(state[2], 1.0, solver.r0, len(dirs))
        U, *_, state = solver._chunk(dirs, *state[:2], grid)
        S = _taylor_sum(U, (np.diff(grid)[:, None] * dirs).reshape(-1))
        assert np.max(np.abs(np.linalg.det(S) - 1.0)) <= 1e-12


@pytest.mark.parametrize("build, key", [
    (lambda: RhSolver(0.3, -0.2), (1j, 2, (2, 3), 14.0)),
    (lambda: RhSolver(0.3, -0.2), (-1j, 7, (0, 1), 0.0)),
    (lambda: PiiSolver(1.0), (1.0, 3, (0, 1), 0.0)),
], ids=["rh-inward", "rh-outward", "pii-outward"])
def test_sweep_extended_in_calls_equals_one_read(build, key):
    # [TRIVIAL] a sweep extended by several `at` calls equals one read of
    # the same radii in a single call, bit for bit
    radii = [10.0, 6.0, 12.5, 0.5, 3.0, 2.0, 11.0] if key[3] else [1.0, 4.0, 0.2, 9.0, 7.5]
    one = build().sweep(*key).at(radii)
    sweep = build().sweep(*key)
    parts = [sweep.at(radii[i:i + 2]) for i in range(0, len(radii), 2)]
    for full, part in zip(one, (np.concatenate(p) for p in zip(*parts))):
        assert np.array_equal(full, part)


@pytest.mark.parametrize("cls, args, transported", [
    (RhSolver, (0.3, -0.2), 15), (FittedPiiSolver, (1.0,), 7),
], ids=["rh", "pii"])
def test_mirrored_anchors_equal_their_transport(cls, args, transported, monkeypatch):
    # [DERIVED] a fitted solver transports the anchors on one side of its
    # mirror line only (15 of 30 rays for RhSolver, 7 of 12 for the fitted
    # Painleve II oracle, whose anchors at pi/2 and 3pi/2 lie on the line;
    # the closed-form PiiSolver build transports none) and fills the
    # others as D conj(Phi) D; every anchor's Phi equals a direct transport
    # of its direction bit for bit
    rays = []
    transport = cls.transport
    monkeypatch.setattr(cls, "transport", lambda self, dirs, radii: (
        rays.append(len(dirs)), transport(self, dirs, radii))[1])
    solver = cls(*args)
    assert rays == [transported]
    radii = (solver.r0, solver.INNER * solver.r0)
    P, logs = transport(solver, solver._directions, radii)
    Phi, g, *_ = solver._anchors
    for i in range(len(solver._directions)):
        for m in range(2):
            assert g[i, m] == np.max(logs[i, m]), (i, m)
            assert np.array_equal(Phi[i, m], P[i, m] * np.exp(logs[i, m] - g[i, m])), (i, m)


def test_taylor_steps_are_pinned():
    # [DERIVED] the step grid depends on r and the Lax coefficients alone:
    # the anchor transport at (0.3, -0.2) takes 65 steps, and the two
    # sweeps of a mixed-sign 6-point K_cr diagonal (its negative points
    # read as mirrors) 74 more
    solver = RhSolver(0.3, -0.2)
    assert solver.taylor_steps == 65
    kernels.kernel_cr_diag([0.5, -0.8, 1.5, -2.0, 2.6, -3.3], 0.3, -0.2, solver)
    assert solver.taylor_steps == 139
    assert len(solver._sweeps) == 2


@pytest.mark.parametrize("build, line, xs", [
    (lambda: RhSolver(0.3, -0.2), "imag", [0.3, 2.5, 9.0, 14.0, 20.0]),
    (lambda: PiiSolver(1.0), "real", [0.2, 1.5, 3.0, 6.0]),
], ids=["rh-imag", "pii-real"])
def test_negative_points_read_the_mirror(build, line, xs):
    # [DERIVED] a point x < 0 of a line that is its own mirror image reads
    # D conj(Mhat(|x|)) D with the logs of |x|, bit for bit, on both sides
    # of the switch to the series frame, and once the positive points are
    # read the negative ones take no Taylor step
    solver = build()
    _, D = solver.MIRROR
    xs = np.array(xs)
    Mp, lp = solver.m_balanced(xs, line)
    steps = solver.taylor_steps
    Mn, ln = solver.m_balanced(-xs, line)
    assert solver.taylor_steps == steps
    assert np.array_equal(Mn, D @ Mp.conj() @ D) and np.array_equal(ln, lp)
