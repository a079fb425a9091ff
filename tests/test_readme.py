"""The README's library quick start runs as written."""

import pathlib
import re

import pytest

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_quick_start_block():
    # [TRIVIAL] the Python block of the README executes against the
    # library's signatures, and its gap probability det(I - K_cr) on 16
    # Gauss-Legendre nodes of [0.5, 4.5] is the one it quotes
    block = re.search(r"```python\n(.*?)```", README.read_text(), re.S).group(1)
    namespace = {}
    exec(compile(block, str(README), "exec"), namespace)
    assert namespace["gap"].real == pytest.approx(0.0205, abs=1e-4)
