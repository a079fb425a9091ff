"""What importing the library loads: the RH commands start without scipy."""

import os
import subprocess
import sys

import critkernels

SRC = os.path.dirname(os.path.dirname(critkernels.__file__))
HEAVY = ("scipy.integrate", "scipy.interpolate", "scipy.special", "scipy.sparse")


def _loaded(statement: str) -> list[str]:
    """The modules of HEAVY in sys.modules after running statement afresh."""
    code = f"import sys\n{statement}\nprint(*[m for m in {HEAVY!r} if m in sys.modules])"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    return out.split()


def test_rh_modules_import_no_scipy_submodule():
    # [TRIVIAL] the CLI, Hastings-McLeod, Lax pair and 4x4 RH solver load
    # none of scipy.integrate, .interpolate, .special or .sparse
    assert _loaded("import critkernels.cli, critkernels.painleve, "
                   "critkernels.laxpair, critkernels.rhsolver") == []


def test_kernels_and_dscale_import_no_scipy_submodule():
    # [TRIVIAL] the kernels and the double-scaling evaluator (numpy Airy
    # functions and GMRES) load none of scipy.integrate, .interpolate,
    # .special or .sparse
    assert _loaded("import critkernels.kernels, critkernels.dscale") == []
