"""The README's examples run and print what their comments say."""

from __future__ import annotations

import re
from fractions import Fraction
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def _python_blocks():
    return re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)


def test_readme_library_block_runs():
    blocks = _python_blocks()
    assert len(blocks) == 1
    namespace: dict = {}
    exec(compile(blocks[0], str(README), "exec"), namespace)
    # The commented expressions are not stored by the block; evaluate them again.
    assert repr(eval("lf.check_nc(r, rho)", namespace)) == "NcVerdict(is_nc=True, witness=None)"
    assert namespace["tip"].coords == (Fraction(2, 9), Fraction(2, 3), Fraction(1, 3), Fraction(1))
    assert eval("lf.classify_endpoint(tip, lf.DEFAULT_DELTA).kind", namespace) == "exact"
    assert eval("lf.DEFAULT_DELTA", namespace) == Fraction(1, 100)
    assert eval("lf.hausdorff(fan, fan, grid=8)", namespace)[0] == 0.0
