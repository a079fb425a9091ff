"""What the library loads: every README command runs without scipy."""

import ast
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


def _import_graph() -> dict:
    """module -> the package modules it imports, at any level of its code."""
    pkg = pathlib.Path(critkernels.__file__).parent
    names = {f.stem for f in pkg.glob("*.py")}
    graph = {}
    for name in names:
        graph[name] = set()
        for node in ast.walk(ast.parse((pkg / f"{name}.py").read_text())):
            if isinstance(node, ast.ImportFrom) and node.level == 0:
                top, _, rest = (node.module or "").partition(".")
                if top == "critkernels":
                    graph[name] |= ({rest} if rest else
                                    {a.name for a in node.names} & names)
            elif isinstance(node, ast.ImportFrom):
                graph[name] |= ({node.module.split(".")[0]} if node.module else
                                {a.name for a in node.names} & names)
            elif isinstance(node, ast.Import):
                graph[name] |= {a.name.split(".")[1] for a in node.names
                                if a.name.startswith("critkernels.")}
    return graph


def test_no_import_cycle():
    # [TRIVIAL] the package's modules import each other without a cycle,
    # counting imports inside functions: a depth-first search meets no
    # module that is still on its own path
    graph = _import_graph()
    state = {}

    def visit(name, path):
        state[name] = "open"
        for dep in sorted(graph.get(name, ())):
            assert state.get(dep) != "open", " -> ".join(path + [name, dep])
            if dep not in state:
                visit(dep, path + [name])
        state[name] = "done"

    for name in sorted(graph):
        if name not in state:
            visit(name, [])


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


def test_double_scaling_gap_loads_no_fft():
    # [TRIVIAL] the circle's C_- row is a closed-form sum, so a gap never
    # loads numpy.fft, whose import costs about a millisecond per process
    assert _loaded("from critkernels.dscale import double_scaling_gap\n"
                   "double_scaling_gap(4.0, 0.5, -0.5, 0.7)", ("numpy.fft",)) == []


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
