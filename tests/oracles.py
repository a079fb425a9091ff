"""Independent numerical oracles used by the test-suite.

These deliberately avoid the library's own code paths (and scipy.special
where the library itself relies on it), so that agreement is meaningful.
The one exception is the root tracker's per-point solve, shared with the
library so that the two trackers can be compared bit for bit.
"""

import cmath
import math
from itertools import permutations

import numpy as np

from critkernels import surface as sf

__all__ = ["airy_ai", "airy_ai_prime", "chain_fit_kron", "ds_gap", "ds_kernel",
           "formal_series_dense", "march_roots"]

_AI0 = 3.0 ** (-2.0 / 3.0) / math.gamma(2.0 / 3.0)
_AIP0 = -(3.0 ** (-1.0 / 3.0)) / math.gamma(1.0 / 3.0)


def _airy_series(x: float) -> tuple[float, float]:
    """(Ai, Ai') by the Maclaurin series; reliable for |x| <= ~3.5."""
    # f = sum 3^k (1/3)_k x^{3k} / (3k)!,  g = sum 3^k (2/3)_k x^{3k+1} / (3k+1)!
    f = tf = 1.0
    fp = 0.0
    g = tg = x
    gp = 1.0
    tfp = 0.0
    tgp = 1.0
    for k in range(1, 60):
        tf = tf * x**3 * (3.0 * k - 2.0) / ((3 * k) * (3 * k - 1) * (3 * k - 2))
        tg = tg * x**3 * (3.0 * k - 1.0) / ((3 * k + 1) * (3 * k) * (3 * k - 1))
        f += tf
        g += tg
        tfp = tf * (3.0 * k) / x if x != 0.0 else 0.0
        tgp = tg * (3.0 * k + 1.0) / x if x != 0.0 else 0.0
        fp += tfp
        gp += tgp
        if abs(tf) < 1e-18 * abs(f) and abs(tg) < 1e-18 * max(abs(g), 1e-30):
            break
    ai = _AI0 * f + _AIP0 * g
    aip = _AI0 * fp + _AIP0 * gp
    return ai, aip


def _airy_asymptotic(x: float) -> tuple[float, float]:
    """(Ai, Ai') by the x -> +infinity expansion; reliable for x >= ~3.5."""
    zeta = (2.0 / 3.0) * x**1.5
    # u_k = Gamma(3k + 1/2) / (54^k k! Gamma(k + 1/2)); v_0 = 1 and
    # v_k = -(6k+1)/(6k-1) u_k enter the Ai' expansion
    s_ai = 0.0
    s_aip = 0.0
    uk = 1.0
    term_prev = math.inf
    for k in range(0, 30):
        term = uk / zeta**k
        if abs(term) > term_prev:
            break
        term_prev = abs(term)
        vk = 1.0 if k == 0 else -uk * (6.0 * k + 1.0) / (6.0 * k - 1.0)
        s_ai += (-1.0) ** k * term
        s_aip += (-1.0) ** k * vk / zeta**k
        uk = uk * (6 * k + 5) * (6 * k + 3) * (6 * k + 1) / (216.0 * (k + 1) * (2 * k + 1))
    pref = math.exp(-zeta) / (2.0 * math.sqrt(math.pi))
    return pref * s_ai / x**0.25, -pref * s_aip * x**0.25


def airy_ai(x: float) -> float:
    return (_airy_series(x) if x < 5.5 else _airy_asymptotic(x))[0]


def airy_ai_prime(x: float) -> float:
    return (_airy_series(x) if x < 5.5 else _airy_asymptotic(x))[1]


# ---------------------------------------------------------------------------
# Root continuation one point at a time, with recursive bisection: the tracker
# that critkernels.surface used before its batched march.  It is an oracle
# for the tracking (labels, bisection, evaluation counts), not for the roots:
# each point's roots are the library's own one-row solve, so the two trackers
# see the same roots bit for bit (a row's roots do not depend on its batch;
# test_surface pins the solve against numpy.roots separately).


def _polished_roots(coeffs: np.ndarray) -> np.ndarray:
    """Roots of the polynomial ``coeffs`` as critkernels.surface solves one row."""
    return sf._roots(coeffs[None])[0]


_PERMS = {n: np.array(list(permutations(range(n)))) for n in (3, 4)}


def _continue_roots(prev: np.ndarray, z0: complex, z1: complex, coeffs,
                    calls: list, depth: int = 0) -> np.ndarray:
    """Continue labeled roots of ``coeffs(z)`` from z0 to z1 along the segment.

    The roots at z1 are permuted so that the largest movement is least
    (ties broken by the next-largest movements in turn, then by the first
    candidate); the step is bisected until every
    root moves at most 0.3 times its own nearest-neighbour distance at z1.
    Each call appends z1 to ``calls``.
    """
    calls.append(z1)
    new = _polished_roots(coeffs(z1))
    cands = new[_PERMS[len(new)]]
    roots = cands[np.lexsort(np.sort(np.abs(cands - prev), axis=1).T)[0]]
    near = np.sort(np.abs(roots[:, None] - roots), axis=1)[:, 1]
    if (np.all(np.abs(roots - prev) <= 0.3 * near)
            or abs(z1 - z0) < 1e-14 * max(1.0, abs(z1))):
        return roots
    if depth > 60:
        raise RuntimeError(
            f"root continuation failed to separate branches near z = {z1}")
    mid = 0.5 * (z0 + z1)
    half = _continue_roots(prev, z0, mid, coeffs, calls, depth + 1)
    return _continue_roots(half, mid, z1, coeffs, calls, depth + 1)


def march_roots(roots: np.ndarray, z0: complex, points,
                coeffs) -> tuple[np.ndarray, int]:
    """Continue ``roots``, labeled at z0, through ``points`` in order.

    ``coeffs`` maps a scalar z to the polynomial's coefficient vector.
    Returns the labeled roots, shape (len(points), number of roots), and the
    number of continuation calls; each call solves one polynomial.
    """
    calls: list = []
    out = np.empty((len(points), len(roots)), dtype=complex)
    for k, z in enumerate(points):
        roots = _continue_roots(roots, z0, z, coeffs, calls)
        z0 = z
        out[k] = roots
    return out, len(calls)


# ---------------------------------------------------------------------------
# The double-scaling kernel one point at a time: the scalar assembly that
# critkernels.dscale used before it went through sectoral.kernel_form.  It
# reads the evaluator's contour solve (nodes, weights, F) and its
# parametrices.


def _ds_r(ds, z: complex) -> np.ndarray:
    ker = (ds.weights / (ds.nodes - z))[:, None, None] / (2j * np.pi)
    return np.eye(4, dtype=complex) + np.sum(ker * ds.F, axis=0)


def _ds_col(ds, v: float) -> np.ndarray:
    z = 1j * v
    if abs(v) < ds.eps:
        psi = ds.psi_local(z)[2]
        vec = np.zeros(4, dtype=complex)
        vec[:2] = psi @ np.array([1.0, 1.0])
    else:
        d = 0.5 * ds.a ** 3 * (ds.g(z, 1) - ds.g(z, 2))
        vec = np.array([cmath.exp(d), cmath.exp(-d), 0.0, 0.0])
    return _ds_r(ds, z) @ (ds.p_inf(z) @ vec)


def _ds_row(ds, u: float) -> np.ndarray:
    z = 1j * u
    if abs(u) < ds.eps:
        psi = ds.psi_local(z)[2]
        vec = np.zeros(4, dtype=complex)
        vec[:2] = np.linalg.solve(psi.T, np.array([-1.0, 1.0]))
    else:
        d = 0.5 * ds.a ** 3 * (ds.g(z, 1) - ds.g(z, 2))
        vec = np.array([-cmath.exp(-d), cmath.exp(d), 0.0, 0.0])
    M = _ds_r(ds, z) @ ds.p_inf(z)
    return np.linalg.solve(M.T, vec)


def ds_kernel(ds, x: float, y: float) -> complex:
    """Scaled K_cr of the evaluator ds at one pair; the diagonal is the
    mean over y +- 1e-3."""
    c = 2.0 ** (5.0 / 3.0) / ds.a
    if x == y:
        h = 1e-3
        return 0.5 * (ds_kernel(ds, x, y + h) + ds_kernel(ds, x, y - h))
    num = _ds_row(ds, c * x) @ _ds_col(ds, c * y)
    return complex(num / (2j * math.pi * (x - y)))


def ds_gap(ds, k_pii, x: float, y: float) -> float:
    """The double-scaling gap from ds_kernel and the K_PII matrix k_pii,
    both on the points [x] (x == y) or [x, y]."""
    xy = [x] if x == y else [x, y]
    k_s = [[ds_kernel(ds, v, w) for w in xy] for v in xy]

    def det(K):
        if len(K) == 1:
            return K[0][0].real
        return K[0][0].real * K[1][1].real - (K[0][1] * K[1][0]).real

    return abs(det(k_s) - det(k_pii.tolist()))


# ---------------------------------------------------------------------------
# The formal series as one dense least-squares system for every P_1..P_order,
# term by term with np.kron: the solve that critkernels.series used before it
# stacked only the residue class of P_0.  Same relations, same row scaling.


def formal_series_dense(lax_coeffs, G: dict, q: int, order: int, beta: float) -> tuple:
    d = len(lax_coeffs[0])
    d2 = d * d
    eye = np.eye(d, dtype=complex)
    rows, rhs = [], []

    def add_term(acc, k, left, right):
        if k < 0 or k > order:
            return
        if k == 0:
            acc[1] += left @ right
        else:
            acc[0][:, d2 * (k - 1):d2 * k] += beta**k * np.kron(left, right.T)

    for m in range(q * (len(lax_coeffs) - 1) - 1, 1 - order, -1):
        acc = [np.zeros((d2, d2 * order), complex), np.zeros((d, d), complex)]
        add_term(acc, -m - q, -((m + q) / q) * eye, eye)
        for j in range(len(lax_coeffs) - 1, -1, -1):
            add_term(acc, q * j - m, lax_coeffs[j], eye)
        for p, Gp in G.items():
            add_term(acc, p - m, eye, -Gp)
        scale = max(float(np.max(np.abs(acc[0]))), float(np.max(np.abs(acc[1]))),
                    1e-300)
        rows.append(acc[0] / scale)
        rhs.append(-acc[1].reshape(d2) / scale)
    sol, *_ = np.linalg.lstsq(np.vstack(rows), np.concatenate(rhs), rcond=None)
    return tuple(beta ** (k + 1) * sol[d2 * k:d2 * (k + 1)].reshape(d, d)
                 for k in range(order))


# ---------------------------------------------------------------------------
# The sector-constant fit anchor by anchor: the assembly that
# critkernels.sectoral used before it stacked the anchors.  The jump
# products come from a walk along the chain, and each anchor's equations
# are one np.kron placed into a zero-filled block.  It reads the solver's
# anchor data and the same normalization.


def _chain_groups(solver, break_rays: tuple) -> list:
    """(representative sector, W with C_k = C_rep W) per sector k."""
    n = len(solver.RAYS)
    reps = [r % n for r in sorted(break_rays)] or [0]
    out = [None] * n
    for rep in reps:
        W = np.eye(solver.dim, dtype=complex)
        out[rep] = (rep, W)
        k = rep
        while True:
            nxt = (k + 1) % n
            if nxt in reps or out[nxt] is not None:
                break
            W = W @ solver.JUMPS[nxt]
            out[nxt] = (rep, W.copy())
            k = nxt
    assert all(v is not None for v in out), "chain construction incomplete"
    return out


def chain_fit_kron(solver, break_rays: tuple = ()) -> list:
    """The sector constants fitted with the chain cut at break_rays."""
    d2 = solver.dim * solver.dim
    groups = _chain_groups(solver, break_rays)
    reps = sorted({g for g, _ in groups})
    col_of = {g: i for i, g in enumerate(reps)}
    Phis, gs, Fs, gfs = solver._anchors
    rows, rhs = [], []
    for i, (g, W) in enumerate(groups[k] for k in solver._sector):
        ofs = d2 * col_of[g]
        for Phi, gphi, Fr, gf in zip(Phis[i], gs[i], Fs[i], gfs[i]):
            Aframe = Fr * np.exp(gf - float(gphi))
            scale = float(np.max(np.abs(Aframe)))
            block = np.zeros((d2, d2 * len(reps)), complex)
            block[:, ofs:ofs + d2] = np.kron(Phi, W.T) / scale
            rows.append(block)
            rhs.append(Aframe.reshape(d2) / scale)
    sol, *_ = np.linalg.lstsq(np.vstack(rows), np.concatenate(rhs), rcond=None)
    cs = {g: sol[d2 * i:d2 * (i + 1)].reshape(solver.dim, solver.dim)
          for g, i in col_of.items()}
    return [cs[g] @ W for g, W in groups]
