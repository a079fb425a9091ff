"""What the library loads: every README command runs without scipy."""

import os
import pathlib
import re
import subprocess
import sys

import pytest

import critkernels
from critkernels import cli

SRC = os.path.dirname(os.path.dirname(critkernels.__file__))
HEAVY = ("scipy.integrate", "scipy.interpolate", "scipy.special", "scipy.sparse")
README = pathlib.Path(__file__).resolve().parent.parent / "README.md"
# the `critkernels ...` lines of the README's shell blocks, without the prefix
COMMANDS = [line.split(maxsplit=1)[1]
            for block in re.findall(r"```sh\n(.*?)```", README.read_text(), re.S)
            for line in block.splitlines() if line.startswith("critkernels ")]


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


def test_readme_shows_every_command():
    # [TRIVIAL] the README's shell block has one line per CLI subcommand,
    # so the parametrization below covers them all
    assert sorted(c.split()[0] for c in COMMANDS) == sorted(cli.main.commands)


@pytest.mark.parametrize("command", COMMANDS)
def test_rh_commands_load_no_mpmath_or_scipy(command, tmp_path):
    # [TRIVIAL] each README command runs to the end, report written and
    # every check passed, without loading scipy, and mpmath only for
    # finite-n; it runs as well with scipy made unimportable
    run = f"from critkernels.cli import main\nmain({command.split()!r}, standalone_mode=False)"
    mpmath = ["mpmath"] if command.startswith("finite-n") else []
    assert _loaded(run, ("mpmath", "scipy"), cwd=tmp_path) == mpmath
    assert len(list(tmp_path.glob("*.report.json"))) == 1
    blocked = tmp_path / "no-scipy"
    blocked.mkdir()
    _loaded(f"sys.modules['scipy'] = None\n{run}", (), cwd=blocked)
    assert len(list(blocked.glob("*.report.json"))) == 1
