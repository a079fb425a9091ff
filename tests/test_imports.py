"""What the library loads: the RH commands run without scipy or mpmath."""

import os
import subprocess
import sys

import pytest

import critkernels

SRC = os.path.dirname(os.path.dirname(critkernels.__file__))
HEAVY = ("scipy.integrate", "scipy.interpolate", "scipy.special", "scipy.sparse")


def _loaded(statement: str, modules=HEAVY, cwd=None) -> list[str]:
    """The given modules in sys.modules after running statement afresh."""
    code = f"import sys\n{statement}\nprint(*[m for m in {modules!r} if m in sys.modules])"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, cwd=cwd).stdout
    return out.splitlines()[-1].split()


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


@pytest.mark.parametrize("command", [
    "hm --grid -8:8:161",
    "kernel --which cr --s 0 --t 0 --u 1.0 --v 1.0",
    "rh-check --s 0 --t 0 --r0 14",
    "double-scaling --a 4 --sigma 0.5",
])
def test_rh_commands_load_no_mpmath_or_scipy(command, tmp_path):
    # [TRIVIAL] the README's hm, kernel, rh-check and double-scaling commands
    # run to the end, report written, without loading mpmath or scipy
    run = f"from critkernels.cli import main\nmain({command.split()!r}, standalone_mode=False)"
    assert _loaded(run, ("mpmath", "scipy"), cwd=tmp_path) == []
    assert len(list(tmp_path.glob("*.report.json"))) == 1
