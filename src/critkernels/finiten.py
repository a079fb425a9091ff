"""Finite-n biorthogonal polynomials and the kernel K_n.

The eigenvalues of the first matrix, averaged over the second, form a
determinantal point process with kernel

    K_n(x1, x2) = sum_{k<n} p_k(x1) Q_k(x2) / h_k^2,
    Q_k(x) = e^{-n V(x)} int q_k(y) e^{-n(W(y) - tau x y)} dy,

where {p_k}, {q_k} are the monic biorthogonal families of the weight
e^{-n(V(x) + W(y) - tau x y)} with V(x) = x^2/2 and
W(y) = y^4/4 + alpha y^2/2.

The polynomials come from Gaussian elimination on the bimoment matrix
B[j][k] = iint x^j y^k e^{-n(...)} dx dy.  The x-integral is Gaussian,
B[0][k] = sqrt(2 pi/n) m_k, and integration by parts in x gives
B[j+1][k] = (j/n) B[j-1][k] + tau B[j][k+1], whose two terms share one
sign for either sign of tau (y -> -y flips both).  The moments
m_l = int y^l e^{-n(W(y) - tau^2 y^2/2)} dy satisfy the exact recursion
n(m_{l+4} + beta m_{l+2}) = (l+1) m_l with beta = alpha - tau^2; m_0
and m_2 are closed forms in Kummer's and Tricomi's functions
(see ``_y_moments``), so no moment is a quadrature.  The transforms Q_k(x)
are combinations of I_j(x) = int t^j e^{-n(W(t) - tau x t)} dt, which
satisfy n(I_{j+3} + alpha I_{j+1} - tau x I_j) = j I_{j-1}; I_0, I_1, I_2
are series in the tau = 0 moments m_l, one table per family, not quadratures.
The elimination is exponentially ill-conditioned in n, so all of this
runs in mpmath arbitrary-precision arithmetic (default 64 * ceil(n/6)
bits, with one doubling retry if the elimination loses positivity).

Because V is quadratic and W an even quartic, the p_k satisfy the banded
recurrence x p_k = p_{k+1} + b_k p_{k-1} + c_k p_{k-3} (Bertola, Eynard &
Harnad, Comm. Math. Phys. 229 (2002)), so the zeros of p_n are the
eigenvalues of the n x n upper Hessenberg matrix with ones below the
diagonal, b_k above it and c_k three above (column k holds the recurrence
for x p_k).  b_k and c_k are read off the leading coefficients of p_k and
p_{k+1} in mp; the eigenvalues are found in double precision and each is
polished by Newton on p_n at the family's precision.  The matrix is not
normal, so its double-precision eigenvalues drift from the zeros as n
grows: at (alpha, tau) = (-1, 1) by 7e-13, 2e-11 and 5e-8 at n = 96, 144
and 192, at (-2, 1.5) by 8e-8 and 1e-4 at n = 96 and 144.  (Its transpose,
which LAPACK must first reduce to Hessenberg form, drifts by 2e-6 at
n = 96, (-1, 1), and splits the edge zeros into complex pairs at
(-2, 1.5) from n = 72.)  That drift, not the cost, caps n at 144.  The
cost is the elimination, n^3/6 multiply-adds at 64 ceil(n/6) bits (the
bimoments take 1.5 n^2): 0.5 s at n = 96 and 2.2 s at n = 144 on one core.
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


_N_MAX = 144                # measured; see the module docstring
_EPS = np.finfo(float).eps
# Newton steps per zero: a few from an eigenvalue, and about 30 into a
# double zero, where each step halves the error
_NEWTON_MAX = 40


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
    the degree-n polynomial p_{n,n} is available from the elimination)."""

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
    zero studies; ``polynomial_zeros`` keeps its zeros on the family.
    """

    n: int
    alpha: float
    tau: float
    precision_bits: int
    p_coeffs: list
    q_coeffs: list
    h2: list
    _zeros: np.ndarray | None = field(default=None, init=False, repr=False,
                                      compare=False)


def bimoment_matrix(n: int, alpha: float, tau: float,
                    precision_bits: int | None = None) -> BimomentMatrix:
    """Bimoment matrix of the coupled weight at size (n+1) x (n+1)."""
    _finite(alpha=alpha, tau=tau)
    if n > _N_MAX:
        raise DomainRestriction(
            f"n is capped at {_N_MAX}, where the double-precision "
            "eigenvalues of the recurrence matrix drift from the zeros by "
            "1e-4 (see the module docstring)")
    if n < 6 or n % 6 != 0:
        raise DomainRestriction("n must be a positive multiple of 6")
    bits = _default_bits(n) if precision_bits is None else int(precision_bits)
    if bits < 8 * n:
        raise DomainRestriction("precision_bits must be at least 8 n")
    with mp.workprec(bits):
        nb, tb = mp.mpf(n), mp.mpf(tau)
        # B[0][k] = sqrt(2 pi/n) m_k; integrating by parts in x, B[j+1][k] =
        # (j/n) B[j-1][k] + tau B[j][k+1] (j = 0 reads row 0 times 0).  Row j
        # runs to k = 2n - j, as the rows below need; j + k odd stays 0
        rows = [[mp.sqrt(2 * mp.pi / nb) * m for m in _y_moments(n, alpha, tau, 2 * n)]]
        for j in range(n):
            row, jn = rows[j], j / nb
            nxt = [mp.mpf(0)] * (len(row) - 1)
            for k in range(1 - j % 2, len(nxt), 2):
                nxt[k] = jn * rows[j - 1][k] + tb * row[k + 1]
            rows.append(nxt)
        B = mp.matrix([row[:n + 1] for row in rows])
    return BimomentMatrix(n=n, alpha=alpha, tau=tau, precision_bits=bits,
                          entries=B)


def biorthogonal(B: BimomentMatrix) -> BiorthogonalFamily:
    """Monic biorthogonal families by elimination on the bimoments.

    Elimination without pivoting writes B = L D U, L and U unit triangular:
    p_k holds row k of L^{-1}, q_k column k of U^{-1} and h_k^2 = D[k, k].
    Each step's row (column) multipliers update the Schur complement and
    P (Q), which start as I and so build L^{-1} (U^{-1} transposed).
    Entries with j + k odd stay zero, so every loop steps by 2.  Retries
    once at doubled precision if positivity of the norms is lost.
    """
    for attempt in range(2):
        bits = B.precision_bits * (2 ** attempt)
        if attempt:
            B = bimoment_matrix(B.n, B.alpha, B.tau, precision_bits=bits)
        size = B.n + 1
        with mp.workprec(bits):
            M = B.entries.tolist()
            P = [[mp.mpf(j == k) for j in range(k + 1)] for k in range(size)]
            Q = [row[:] for row in P]
            h2 = []
            for i in range(size):
                piv = M[i][i]
                if piv <= 0:
                    break
                h2.append(piv)
                lo, hi = i % 2, i + 2
                for r in range(hi, size, 2):
                    lr, ur = M[r][i] / piv, M[i][r] / piv
                    M[r][hi::2] = [a - lr * b for a, b
                                   in zip(M[r][hi::2], M[i][hi::2])]
                    P[r][lo:hi:2] = [a - lr * b for a, b
                                     in zip(P[r][lo:hi:2], P[i][lo::2])]
                    Q[r][lo:hi:2] = [a - ur * b for a, b
                                     in zip(Q[r][lo:hi:2], Q[i][lo::2])]
            else:
                return BiorthogonalFamily(
                    n=B.n, alpha=B.alpha, tau=B.tau, precision_bits=bits,
                    p_coeffs=P, q_coeffs=Q, h2=h2[:B.n])
    raise QuadratureFailure("bimoment elimination lost positivity even "
                            "after doubling the working precision")


def _band_coefficients(fam: BiorthogonalFamily) -> tuple[list, list]:
    """b_k and c_k, k < n, of x p_k = p_{k+1} + b_k p_{k-1} + c_k p_{k-3}
    (zero where p_{k-1} or p_{k-3} does not exist), matched on the
    coefficients a_{k,j} of x^{k-1} and x^{k-3}; a_{k,k-1} = a_{k,k-3} = 0
    by parity."""
    def a(k, j):
        return fam.p_coeffs[k][j] if j >= 0 else 0

    with mp.workprec(fam.precision_bits):
        b = [a(k, k - 2) - a(k + 1, k - 1) for k in range(fam.n)]
        c = [a(k, k - 4) - a(k + 1, k - 3) - b[k] * a(k - 1, k - 3)
             for k in range(fam.n)]
    return b, c


def polynomial_zeros(fam: BiorthogonalFamily):
    """Zeros of p_{n,n}, as a complex array sorted by real part: the
    eigenvalues of the recurrence matrix, each polished by Newton on p_n.
    Raises QuadratureFailure if a zero's Newton iteration has not settled
    after _NEWTON_MAX steps, or if two eigenvalues polish onto one zero.
    The first solve is kept on ``fam``; each call returns a copy of it."""
    if fam._zeros is None:
        fam._zeros = _solve_zeros(fam)
    return fam._zeros.copy()


def _solve_zeros(fam: BiorthogonalFamily) -> np.ndarray:
    """``polynomial_zeros`` without the family's copy."""
    n = fam.n
    b, c = _band_coefficients(fam)
    H, k = np.zeros((n, n)), np.arange(n)      # column k: x p_k
    H[k[1:], k[:-1]] = 1.0
    H[k[:-1], k[1:]] = [float(v) for v in b[1:]]
    H[k[:-3], k[3:]] = [float(v) for v in c[3:]]
    eigs = np.linalg.eigvals(H)
    coeffs = fam.p_coeffs[n][::-1]              # highest degree first
    zeros = []
    with mp.workprec(fam.precision_bits):
        for e in eigs:
            x = mp.mpc(e) if e.imag else mp.mpf(e.real)
            for _ in range(_NEWTON_MAX):
                p, dp = mp.polyval(coeffs, x, derivative=True)
                step = p / dp if p else p     # an eigenvalue exactly on a zero
                x -= step
                if abs(step) <= _EPS * abs(x):
                    break
            else:
                raise QuadratureFailure(
                    f"Newton on p_{n} from the eigenvalue {e:.17g} moves by "
                    f"{float(abs(step)):.3g} after {_NEWTON_MAX} steps")
            zeros.append(complex(x))
    z = np.array(zeros)
    # Newton stops within eps |z| of a simple or a double zero, so polished
    # eigenvalues within 4 eps |z| of each other found one zero
    close = np.abs(z[:, None] - z) <= 4 * _EPS * np.abs(z)
    np.fill_diagonal(close, False)
    if close.any():
        i, j = np.argwhere(close)[0]
        raise QuadratureFailure(f"the eigenvalues {eigs[i]:.17g} and "
                                f"{eigs[j]:.17g} both polish onto the zero "
                                f"{z[i]:.17g} of p_{n}")
    return z[np.argsort(z.real)]


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
    if np.any(dens < 0.0):
        raise DomainRestriction(
            f"the mu1 density changes sign at (alpha, tau) = ({alpha}, {tau}): "
            f"{dens.min():.3g} at x = {grid[np.argmin(dens)]:.6g}")
    cdf = np.concatenate([[0.0], np.cumsum(0.5 * (dens[1:] + dens[:-1])
                                           * np.diff(grid))])
    return grid, cdf / cdf[-1]


def zero_counting_kolmogorov(fam: BiorthogonalFamily) -> float:
    """Kolmogorov distance between the zero-counting measure of p_{n,n}
    and the limiting measure mu1 at the family's (alpha, tau).

    Raises DomainRestriction where the mu1 density of the surface changes
    sign, so is no measure.  It reads the zeros that ``fam`` keeps."""
    F = np.interp(polynomial_zeros(fam).real, *_mu1_cdf(fam.alpha, fam.tau),
                  left=0.0, right=1.0)
    i = np.arange(len(F))
    return float(np.max(np.abs(np.r_[(i + 1) / len(F) - F, i / len(F) - F])))
