"""Finite-n biorthogonal polynomials and the kernel K_n.

The eigenvalues of the first matrix, averaged over the second, form a
determinantal point process with kernel

    K_n(x1, x2) = sum_{k<n} p_k(x1) Q_k(x2) / h_k^2,
    Q_k(x) = e^{-n V(x)} int q_k(y) e^{-n(W(y) - tau x y)} dy,

where {p_k}, {q_k} are the monic biorthogonal families of the weight
e^{-n(V(x) + W(y) - tau x y)} with V(x) = x^2/2 and
W(y) = y^4/4 + alpha y^2/2.

The polynomials come from an LDU factorization of the bimoment matrix
B[j][k] = iint x^j y^k e^{-n(...)} dx dy.  The x-integral is Gaussian
and done in closed form (complete the square in the coupling term),
reducing every bimoment to one-dimensional moments
m_l = int y^l e^{-n(W(y) - tau^2 y^2/2)} dy, which satisfy the exact
recursion n(m_{l+4} + beta m_{l+2}) = (l+1) m_l with beta = alpha -
tau^2; m_0 and m_2 are closed forms in Kummer's and Tricomi's functions
(see ``_y_moments``), so no moment is a quadrature.  The transforms Q_k(x)
are combinations of I_j(x) = int t^j e^{-n(W(t) - tau x t)} dt, which
satisfy n(I_{j+3} + alpha I_{j+1} - tau x I_j) = j I_{j-1}; I_0, I_1, I_2
are series in the tau = 0 moments m_l, one table per family, not quadratures.
The factorization is exponentially ill-conditioned in n, so all of this
runs in mpmath arbitrary-precision arithmetic (default 64 * ceil(n/6)
bits, with one doubling retry if the factorization loses positivity).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import mpmath as mp
import numpy as np

from .errors import DomainRestriction, QuadratureFailure, _finite

__all__ = [
    "BimomentMatrix",
    "BiorthogonalFamily",
    "bimoment_matrix",
    "biorthogonal",
    "polynomial_zeros",
    "kernel_n",
    "zero_counting_kolmogorov",
]


def _default_bits(n: int) -> int:
    return 64 * math.ceil(n / 6)


def _extend_moments(m: list, n: int, beta, lmax: int) -> list:
    """Extend m_0, m_1, ... in place through m_lmax by the module
    docstring's recursion n(m_{l+4} + beta m_{l+2}) = (l+1) m_l."""
    while len(m) <= lmax:
        l = len(m) - 4
        m.append((l + 1) * m[l] / n - beta * m[l + 2])
    return m


def _y_moments(n: int, alpha: float, tau: float, lmax: int):
    """Even moments m_l, l = 0..lmax, of e^{-n(y^4/4 + beta y^2/2)} with
    beta = alpha - tau^2.  Expanding e^{-n beta y^2/2} and integrating
    term by term against e^{-n y^4/4} gives, with c = (l+1)/4 and
    z = n beta^2/4 (M Kummer's, U Tricomi's function),

        m_l = (n/4)^{-c}/2 [Gamma(c) M(c, 1/2, z)
                            - sqrt(n) beta Gamma(c+1/2) M(c+1/2, 3/2, z)].

    For beta <= 0 both terms are positive.  For beta > 0 they cancel, and
    the bracket is the recessive Gamma(c) Gamma(c+1/2) U(c, 1/2, z)/sqrt(pi)
    (DLMF 13.2.42), evaluated as such.  m_0 and m_2 come from this, the
    rest from `_extend_moments`."""
    beta = alpha - tau * tau
    nb = mp.mpf(n)
    bb = mp.mpf(beta)
    z = nb * bb ** 2 / 4

    def closed(l):
        c = mp.mpf(l + 1) / 4
        if beta > 0.0:
            val = (mp.gamma(c) * mp.gamma(c + 0.5) / mp.sqrt(mp.pi)
                   * mp.hyperu(c, 0.5, z))
        else:
            val = (mp.gamma(c) * mp.hyp1f1(c, 0.5, z) - mp.sqrt(nb) * bb
                   * mp.gamma(c + 0.5) * mp.hyp1f1(c + 0.5, 1.5, z))
        return val / (2 * (nb / 4) ** c)

    m = [closed(0), mp.mpf(0), closed(2), mp.mpf(0)]
    return _extend_moments(m, n, bb, lmax)[:lmax + 1]


@dataclass
class BimomentMatrix:
    """Bimoments B[j][k], 0 <= j,k <= n (one extra row/column so that
    the degree-n polynomial p_{n,n} is available from the factorization)."""

    n: int
    alpha: float
    tau: float
    precision_bits: int
    entries: mp.matrix = field(repr=False)


@dataclass
class BiorthogonalFamily:
    """Monic biorthogonal polynomials and their norms.

    ``p_coeffs[k]``/``q_coeffs[k]`` hold the coefficients of p_k / q_k in
    increasing degree (mpmath numbers, length k+1); ``h2[k]`` the norms
    h_k^2 for k = 0..n-1.  One extra p-polynomial (degree n) is kept for
    zero studies.
    """

    n: int
    alpha: float
    tau: float
    precision_bits: int
    p_coeffs: list
    q_coeffs: list
    h2: list


def bimoment_matrix(n: int, alpha: float, tau: float,
                    precision_bits: int | None = None) -> BimomentMatrix:
    """Bimoment matrix of the coupled weight at size (n+1) x (n+1)."""
    _finite(alpha=alpha, tau=tau)
    if n > 36:
        raise DomainRestriction("n is capped at 36 (convergence rate makes "
                                "larger n uninformative)")
    if n < 6 or n % 6 != 0:
        raise DomainRestriction("n must be a positive multiple of 6")
    bits = _default_bits(n) if precision_bits is None else int(precision_bits)
    if bits < 8 * n:
        raise DomainRestriction("precision_bits must be at least 8 n")
    with mp.workprec(bits):
        size = n + 1
        lmax = 2 * size
        moms = _y_moments(n, alpha, tau, lmax)
        nb = mp.mpf(n)
        tb = mp.mpf(tau)
        # Gaussian moments G_m = int u^m e^{-n u^2/2} du (even m)
        G = [mp.mpf(0)] * (size + 1)
        G[0] = mp.sqrt(2 * mp.pi / nb)
        for mdeg in range(2, size + 1, 2):
            G[mdeg] = G[mdeg - 2] * (mdeg - 1) / nb
        B = mp.matrix(size, size)
        for j in range(size):
            binom = [mp.binomial(j, mdeg) for mdeg in range(j + 1)]
            for k in range(size):
                if (j + k) % 2:
                    continue
                acc = mp.mpf(0)
                for mdeg in range(0, j + 1, 2):
                    acc += binom[mdeg] * tb ** (j - mdeg) * G[mdeg] \
                        * moms[k + j - mdeg]
                B[j, k] = acc
    return BimomentMatrix(n=n, alpha=alpha, tau=tau, precision_bits=bits,
                          entries=B)


def biorthogonal(B: BimomentMatrix) -> BiorthogonalFamily:
    """Monic biorthogonal families by LDU factorization of the bimoments.

    Writing B = L D U with L, U unit-triangular, the coefficient rows of
    p_k are the rows of L^{-1} and those of q_k the columns of U^{-1};
    h_k^2 = D[k, k].  Retries once at doubled precision if positivity of
    the norms is lost.
    """
    for attempt in range(2):
        bits = B.precision_bits * (2 ** attempt)
        if attempt:
            B = bimoment_matrix(B.n, B.alpha, B.tau, precision_bits=bits)
        with mp.workprec(bits):
            size = B.n + 1
            M = B.entries.copy()
            # Doolittle, no pivoting: M is totally positive-like here
            L = mp.eye(size)
            U = mp.eye(size)
            d = [mp.mpf(0)] * size
            ok = True
            for i in range(size):
                piv = M[i, i]
                if piv <= 0:
                    ok = False
                    break
                d[i] = piv
                for r in range(i + 1, size):
                    L[r, i] = M[r, i] / piv
                for c in range(i + 1, size):
                    U[i, c] = M[i, c] / piv
                for r in range(i + 1, size):
                    for c in range(i + 1, size):
                        M[r, c] -= L[r, i] * piv * U[i, c]
            if not ok:
                continue
            Linv = _unit_lower_inverse(L)
            Uinv = _unit_lower_inverse(U.T)    # columns of U^{-1}
            p_coeffs = [[Linv[k, j] for j in range(k + 1)]
                        for k in range(size)]
            q_coeffs = [[Uinv[k, j] for j in range(k + 1)]
                        for k in range(size)]
        return BiorthogonalFamily(n=B.n, alpha=B.alpha, tau=B.tau,
                                  precision_bits=bits, p_coeffs=p_coeffs,
                                  q_coeffs=q_coeffs, h2=d[:B.n])
    raise QuadratureFailure("bimoment factorization lost positivity even "
                            "after doubling the working precision")


def _unit_lower_inverse(L: mp.matrix) -> mp.matrix:
    n = L.rows
    inv = mp.eye(n)
    for i in range(n):
        for j in range(i):
            acc = mp.mpf(0)
            for k in range(j, i):
                acc -= L[i, k] * inv[k, j]
            inv[i, j] = acc
    return inv


def polynomial_zeros(fam: BiorthogonalFamily):
    """Zeros of p_{n,n}, as a sorted real array."""
    with mp.workprec(fam.precision_bits):
        coeffs = list(reversed(fam.p_coeffs[fam.n]))  # highest degree first
        roots = mp.polyroots(coeffs, maxsteps=200, extraprec=fam.precision_bits)
        arr = np.array([complex(r) for r in roots])
    return np.sort(arr.real) + 1j * arr.imag[np.argsort(arr.real)]


@functools.lru_cache(maxsize=8)
def _w_table(n: int, alpha: float, bits: int) -> list:
    """M_l = m_l at tau = 0 for l <= 2n; ``_t_moments`` extends it in place."""
    with mp.workprec(bits):
        return _y_moments(n, alpha, 0.0, 2 * n)


def _t_moments(n: int, alpha: float, tau: float, y):
    """I_j(y), j < n: I_0..I_2 as sum_{k = j mod 2} (n tau y)^k / k! M_{j+k}
    with 16 guard bits, stopped past the peak once a term is below epsilon
    (at most 4096 terms); the rest by the module docstring's recursion.
    The terms share a sign, so magnitudes summing past twice the sum mean
    moments lost to the recursion (alpha > 0, far out): redo at 2x bits."""
    tyb = mp.mpf(tau) * mp.mpf(y)
    with mp.extraprec(16):
        z, M, m = n * tyb, _w_table(n, alpha, mp.mp.prec), []
        for j in range(3):
            k, c, total, size, prev = j % 2, (z if j % 2 else 1), 0, 0, 0
            while k <= 4096:
                term = c * _extend_moments(M, n, alpha, j + k)[j + k]
                total, size = total + term, size + abs(term)
                if abs(term) <= min(abs(prev) / 2, mp.eps * size):
                    break
                prev, c, k = term, c * z * z / ((k + 1) * (k + 2)), k + 2
            else:
                raise QuadratureFailure(f"I_{j} at y = {y} needs > 4096 terms")
            if size > 2 * abs(total):
                with mp.workprec(2 * mp.mp.prec):
                    return _t_moments(n, alpha, tau, y)
            m.append(total)
    for j in range(n - 3):
        m.append((j * m[j - 1] if j else 0) / n - alpha * m[j + 1] + tyb * m[j])
    return m


def kernel_n(x, y, fam: BiorthogonalFamily):
    """K_n(x, y) = sum_{k<n} p_k(x) Q_k(y) / h_k^2 with Q_k(y) = e^{-n y^2/2}
    sum_j q_kj I_j(y), each y once; x and y broadcast (a float for scalars)."""
    _finite(x=x, y=y)
    bx, by = np.broadcast_arrays(np.asarray(x, dtype=float),
                                 np.asarray(y, dtype=float))
    xs, ys = bx.ravel().tolist(), by.ravel().tolist()
    with mp.workprec(fam.precision_bits):
        P = {v: [mp.polyval(p[::-1], v) for p in fam.p_coeffs] for v in {*xs}}
        Q = {}
        for v in {*ys}:
            moms = _t_moments(fam.n, fam.alpha, fam.tau, v)
            gauss = mp.e ** (-fam.n * mp.mpf(v) ** 2 / 2)
            Q[v] = [gauss * mp.fdot(q, moms) for q in fam.q_coeffs]
        out = [float(sum(p * q / h2 for p, q, h2 in zip(P[a], Q[b], fam.h2)))
               for a, b in zip(xs, ys)]
    return out[0] if not bx.ndim else np.reshape(out, bx.shape)


@functools.lru_cache(maxsize=4)
def _mu1_cdf(alpha: float, tau: float):
    from . import measures, surface

    p = surface.SurfaceParams.from_alpha_tau(alpha, tau)
    grid = np.linspace(-p.c + 1e-6, p.c - 1e-6, 801)
    dens = measures.density_mu1(grid, p)
    cdf = np.concatenate([[0.0], np.cumsum(0.5 * (dens[1:] + dens[:-1])
                                           * np.diff(grid))])
    return grid, cdf / cdf[-1]


def zero_counting_kolmogorov(fam: BiorthogonalFamily) -> float:
    """Kolmogorov distance between the zero-counting measure of p_{n,n}
    and the limiting measure mu1 at the family's (alpha, tau)."""
    return _kolmogorov(polynomial_zeros(fam), fam.alpha, fam.tau)


def _kolmogorov(zeros, alpha: float, tau: float) -> float:
    """``zero_counting_kolmogorov`` from the zeros of ``polynomial_zeros``."""
    F = np.interp(zeros.real, *_mu1_cdf(alpha, tau), left=0.0, right=1.0)
    i = np.arange(len(F))
    return float(np.max(np.abs(np.r_[(i + 1) / len(F) - F, i / len(F) - F])))
