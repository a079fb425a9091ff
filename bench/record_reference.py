"""Record bench/reference.json: library values for every pooled input.

    PYTHONPATH=src python3 bench/record_reference.py

The benchmark compares the values it computes with these, so run this
only at a commit whose values are trusted (the suite passes there); a
change that moves a value outside its test tolerance is a regression,
not a new reference.  It takes a few minutes on two cores.
"""

import json
import sys

import numpy as np

import workloads as w
from critkernels import finiten, kernels


def pair(v) -> list:
    v = complex(v)
    return [v.real, v.imag]


def main() -> None:
    cr = {w.key(u, v): pair(kernels.kernel_cr(u, v, w.CR_S, w.CR_T))
          for u in w.CR_POOL for v in w.CR_POOL if u != v}
    diag = kernels.kernel_cr_diag(np.array(w.CR_POOL), w.CR_S, w.CR_T)
    cr.update({w.key(u, u): pair(d) for u, d in zip(w.CR_POOL, diag)})
    diag = kernels.kernel_tac_diag(np.array(w.TAC_DIAG_POOL), w.TAC_R, w.TAC_S)
    tac = {w.key(u, u): pair(d) for u, d in zip(w.TAC_DIAG_POOL, diag)}
    tac.update({w.key(u, v): pair(kernels.kernel_tac(u, v, w.TAC_R, w.TAC_S))
                for u, v in w.TAC_PAIR_POOL})
    pii = {w.key(x, y): pair(kernels.kernel_pii_diag(x, w.PII_NU) if x == y
                             else kernels.kernel_pii(x, y, w.PII_NU))
           for x in w.PII_POOL for y in w.PII_POOL}
    gap = {w.key(x, y): kernels.double_scaling_gap(w.DS_A, w.DS_SIGMA, x, y)
           for x, y in w.GAP_POOL}
    B = finiten.bimoment_matrix(w.FINITE_N, -1.0, 1.0)
    fam = finiten.biorthogonal(B)
    ref = {
        "kernel-eval": {"cr": cr, "tac": tac, "pii": pii, "gap": gap},
        "quadrature": {
            "bimoments": [float(B.entries[j, k]) for j in range(B.n + 1)
                          for k in range(B.n + 1)],
            "h2": [float(h) for h in fam.h2],
            "kn": {w.key(x, y): finiten.kernel_n(x, y, fam)
                   for x, y in w.KN_POOL},
        },
    }
    with open(w.REFERENCE, "w") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {w.REFERENCE}", file=sys.stderr)


if __name__ == "__main__":
    main()
