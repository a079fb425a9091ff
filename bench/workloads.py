"""Inputs, operations and output checks of the three benchmark workloads.

cli-readme   the nine README command lines, in README order, each a fresh
             process in a fresh working directory.  It is the cold path:
             Hastings-McLeod collocation, series builds, solver
             construction, DoubleScaling and per-point branch tracking.
kernel-eval  the Fredholm-determinant use: K_cr, K_tac and K_PII matrices
             and double-scaling gaps at fixed parameters, with the solvers
             built in set-up.  Transport (m_balanced, PiiSolver.psi),
             kernel assembly and DoubleScaling rebuilds do the work; surface,
             measures and finiten are bypassed.
quadrature   the three masses at the critical point and the n = 12 finite-n
             family with K_n at seeded points, with no RH solver at all.
             Path-continuation root tracking, the tail fits and mpmath
             quadrature do the work; every rhsolver, piisolver and dscale
             change should leave it unchanged.

Seeded inputs are drawn from fixed pools, so each drawn value has a
reference recorded by `record_reference.py` at the commit that defined
the benchmark; `reference.json` holds them.
"""

from __future__ import annotations

import json
import math
import random
from pathlib import Path

NAMES = ("cli-readme", "kernel-eval", "quadrature")

CLI_README = (
    "phase --alpha -1 --tau 1",
    "density --measure mu1 --alpha -1 --tau 1 --grid -3.1:3.1:400",
    "hm --grid -8:8:161",
    "lax-check --s 0.3 --t -0.2",
    "rh-check --s 0 --t 0 --r0 14",
    "kernel --which cr --s 0 --t 0 --u 1.0 --v 1.0",
    "asym-check --which tac --r 1 --s 0.3 --grid 15:30:31",
    "double-scaling --a 4 --sigma 0.5",
    "finite-n --n 12",
)

# kernel-eval parameters.  K_tac at r = 1 runs on the K_cr solver at
# (s, 0), so one RhSolver serves both; K_PII runs at the nu of the
# double-scaling limit, so set-up also builds the PiiSolver the gaps use.
CR_S, CR_T = 0.3, 0.0
TAC_R, TAC_S = 1.0, 0.3
DS_A, DS_SIGMA = 4.0, 0.5
PII_NU = 2.0 ** (5.0 / 3.0) * DS_SIGMA

# Pools the seed draws from, chosen so that the cost of an operation does
# not depend on which pool values are drawn.  K_cr points keep |u| <= 3.3,
# so every m_balanced call starts its inward sweep at r0.  Gap points keep
# 2^{5/3}|x|/a at least 0.1 away from 0.72, so DoubleScaling always picks
# the same disk radius (eps = 0.72) and builds the same contour; no two
# gap pairs share the set {|x|, |y|}, the key under which the library
# caches a DoubleScaling, so every gap after the first shows the rebuild.
CR_POOL = (0.25, 0.5, 0.8, 1.1, 1.5, 2.0, 2.6, 3.3,
           -0.25, -0.5, -0.8, -1.1, -1.5, -2.0, -2.6, -3.3)
TAC_DIAG_POOL = tuple(round(0.4 * k, 1) for k in range(1, 31))
TAC_PAIR_POOL = ((0.6, 1.4), (1.0, 2.2), (1.5, 3.5), (2.4, 4.0),
                 (3.0, 5.5), (4.2, 6.4), (5.0, 7.5), (6.0, 8.4))
PII_POOL = (-1.6, -1.1, -0.7, -0.3, 0.2, 0.6, 1.0, 1.5)
GAP_POOL = ((-0.3, 0.3), (-0.5, 0.5), (-0.7, 0.7), (-0.5, 0.3), (-0.7, 0.3),
            (-0.7, 0.5))
KN_POOL = ((-1.2, -1.2), (-0.8, -0.8), (-0.4, -0.4), (0.0, 0.0),
           (0.5, 0.5), (1.0, 1.0), (-1.0, 0.6), (-0.5, 0.3),
           (0.2, 0.9), (0.7, -0.7))

CR_M, TAC_M, TAC_PAIRS, PII_M, GAPS, KN_POINTS = 6, 12, 3, 4, 2, 2
FINITE_N = 12

# Output tolerances.  Contracts: the CLI kernel command's imaginary-part
# tolerance, gap < 1, the criterion-2 mass tolerances and the criterion-11
# zero and Kolmogorov bounds.  Recorded references: the tolerance the test
# suite uses for the same quantity -- 1e-6 for K_cr and K_PII values and
# for negative diagonals, 1e-3 for K_tac (its pair-limit test), 1e-10
# relative for bimoments and norms, 1e-8 relative for K_n.  K_tac needs the
# looser one: below u = 9 its neutral columns come from outward transport,
# and near u = 8.4 the value moves by 1.4e-5 with the largest other point
# requested in the same call.
IMAG_TOL = 1e-5
DIAG_MIN = -1e-6
REF_TOL = {"cr": 1e-6, "tac": 1e-3, "pii": 1e-6}
GAP_REF_TOL = 1e-6
BIMOMENT_REF_TOL = 1e-10
KN_REF_TOL = 1e-8
MASSES = (("mass_mu1", 1.0, 1e-6), ("mass_mu2", 2.0 / 3.0, 1e-4),
          ("mass_mu3", 1.0 / 3.0, 1e-4))
ZERO_IMAG_TOL = 1e-10
KOLMOGOROV_MAX = 0.15

REFERENCE = Path(__file__).with_name("reference.json")


def key(*xs) -> str:
    return ",".join(repr(float(x)) for x in xs)


def inputs(workload: str, seed: int) -> dict:
    """The seeded inputs of one workload; the same seed gives the same dict."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "kernel-eval":
        pos = [u for u in CR_POOL if u > 0]
        neg = [u for u in CR_POOL if u < 0]
        cr = rng.sample(pos, CR_M // 2) + rng.sample(neg, CR_M - CR_M // 2)
        rng.shuffle(cr)
        return {"cr": cr,
                "tac_diag": sorted(rng.sample(TAC_DIAG_POOL, TAC_M)),
                "tac_pairs": rng.sample(TAC_PAIR_POOL, TAC_PAIRS),
                "pii": rng.sample(PII_POOL, PII_M),
                "gaps": rng.sample(GAP_POOL, GAPS)}
    if workload == "quadrature":
        return {"kn": rng.sample(KN_POOL, KN_POINTS)}
    raise ValueError(f"no seeded inputs for {workload!r}")


# -- checks: each returns None when the value passes, else a reason --------


def _kernel_check(values, keys, ref: dict, kind: str, diagonal: bool):
    """Check kernel values (one, or an array) against contract and reference."""
    values = values if hasattr(values, "__len__") else [values]
    for value, k in zip(values, keys, strict=True):
        value, want = complex(value), complex(*ref[kind][k])
        if not math.isfinite(value.real) or not math.isfinite(value.imag):
            return f"{kind}({k}) not finite: {value}"
        if abs(value.imag) > IMAG_TOL * max(1.0, abs(value.real)):
            return f"{kind}({k}) imaginary part {value.imag:.3g}"
        if diagonal and value.real < DIAG_MIN:
            return f"{kind}({k}) negative diagonal {value.real:.6g}"
        if abs(value - want) > REF_TOL[kind] * max(1.0, abs(want)):
            return f"{kind}({k}) = {value} differs from reference {want}"
    return None


def _close(value: float, ref: float, tol: float, what: str):
    if not abs(value - ref) <= tol:
        return f"{what} {value!r} not within {tol:g} of {ref!r}"
    return None


# -- operations ------------------------------------------------------------
#
# An operation is (name, thunk, check): the thunk calls the library with
# generated inputs, the check judges what it returned.


def kernel_eval_setup():
    from critkernels import kernels, painleve

    painleve.default_solution()
    kernels.get_solver(CR_S, CR_T)
    kernels.get_pii_solver(complex(PII_NU))


def kernel_eval_ops(inp: dict, ref: dict) -> list:
    import numpy as np

    from critkernels import kernels

    ops = []

    def kernel_op(kind, name, thunk, keys, diagonal=False):
        ops.append((name, thunk, lambda val: _kernel_check(
            val, keys, ref, kind, diagonal)))

    cr = inp["cr"]
    for u in cr:
        for v in cr:
            if u != v:
                kernel_op("cr", f"kernel_cr({u}, {v})",
                          lambda u=u, v=v: kernels.kernel_cr(u, v, CR_S, CR_T),
                          [key(u, v)])
    kernel_op("cr", "kernel_cr_diag",
              lambda: kernels.kernel_cr_diag(np.array(cr), CR_S, CR_T),
              [key(u, u) for u in cr], diagonal=True)
    tac = inp["tac_diag"]
    kernel_op("tac", "kernel_tac_diag",
              lambda: kernels.kernel_tac_diag(np.array(tac), TAC_R, TAC_S),
              [key(u, u) for u in tac], diagonal=True)
    for u, v in inp["tac_pairs"]:
        kernel_op("tac", f"kernel_tac({u}, {v})",
                  lambda u=u, v=v: kernels.kernel_tac(u, v, TAC_R, TAC_S),
                  [key(u, v)])
    pii = inp["pii"]
    for x in pii:
        for y in pii:
            if x == y:
                thunk = lambda x=x: kernels.kernel_pii_diag(x, PII_NU)
            else:
                thunk = lambda x=x, y=y: kernels.kernel_pii(x, y, PII_NU)
            kernel_op("pii", f"kernel_pii({x}, {y})", thunk, [key(x, y)],
                      diagonal=x == y)
    for x, y in inp["gaps"]:
        ops.append((
            f"double_scaling_gap({x}, {y})",
            lambda x=x, y=y: kernels.double_scaling_gap(DS_A, DS_SIGMA, x, y),
            lambda val, x=x, y=y: (
                f"gap {val!r} not below 1" if not val < 1.0 else
                _close(val, ref["gap"][key(x, y)], GAP_REF_TOL, "gap"))))
    return ops


def quadrature_setup():
    # importing every module the timed phase uses is this workload's set-up
    from critkernels import finiten, measures, surface  # noqa: F401

    return surface.SurfaceParams.critical()


def quadrature_ops(inp: dict, ref: dict, params) -> list:
    import numpy as np

    from critkernels import finiten, measures

    ops = []
    for name, target, tol in MASSES:
        fn = getattr(measures, name)

        def check(val, name=name, target=target, tol=tol):
            mass = val if name == "mass_mu1" else val[0]
            return _close(mass, target, tol, name)

        ops.append((name, lambda fn=fn: fn(params), check))
    state = {}

    def bimoments():
        state["B"] = finiten.bimoment_matrix(FINITE_N, -1.0, 1.0)
        return state["B"]

    def check_bimoments(B):
        flat = [float(B.entries[j, k]) for j in range(B.n + 1)
                for k in range(B.n + 1)]
        for got, want in zip(flat, ref["bimoments"]):
            if not abs(got - want) <= BIMOMENT_REF_TOL * abs(want):
                return f"bimoment {got!r} differs from reference {want!r}"
        return None

    def family():
        state["fam"] = finiten.biorthogonal(state["B"])
        return state["fam"]

    def check_family(fam):
        for got, want in zip((float(h) for h in fam.h2), ref["h2"]):
            if not got > 0.0 or abs(got - want) > BIMOMENT_REF_TOL * want:
                return f"norm {got!r} differs from reference {want!r}"
        return None

    def check_zeros(z):
        worst = float(np.max(np.abs(z.imag)))
        if len(z) != FINITE_N or worst > ZERO_IMAG_TOL:
            return f"{len(z)} zeros, largest imaginary part {worst:.3g}"
        return None

    ops += [
        ("bimoment_matrix", bimoments, check_bimoments),
        ("biorthogonal", family, check_family),
        ("polynomial_zeros", lambda: finiten.polynomial_zeros(state["fam"]),
         check_zeros),
        ("zero_counting_kolmogorov",
         lambda: finiten.zero_counting_kolmogorov(state["fam"]),
         lambda d: (None if d <= KOLMOGOROV_MAX
                    else f"Kolmogorov distance {d:.4g} above {KOLMOGOROV_MAX}")),
    ]
    for x, y in inp["kn"]:
        ops.append((
            f"kernel_n({x}, {y})",
            lambda x=x, y=y: finiten.kernel_n(x, y, state["fam"]),
            lambda val, x=x, y=y: _close(
                val, ref["kn"][key(x, y)],
                KN_REF_TOL * max(1.0, abs(ref["kn"][key(x, y)])), "K_n")))
    return ops


def load_reference(workload: str) -> dict:
    with open(REFERENCE) as fh:
        return json.load(fh)[workload]
