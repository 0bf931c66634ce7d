"""The README's examples run and print what their comments say."""

from __future__ import annotations

import re
import shlex
from fractions import Fraction
from pathlib import Path

from lelekfan.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def _python_blocks():
    return re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)


def _cli_lines():
    """Each `fan ...` line of the README's sh blocks, as (argv, expected exit code)."""
    lines = []
    for block in re.findall(r"^```sh\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S):
        for line in block.splitlines():
            command, _, comment = line.partition("#")
            argv = shlex.split(command)
            if argv[:1] == ["fan"]:
                code = re.search(r"\bexit (\d+)", comment)
                lines.append((argv[1:], int(code.group(1)) if code else 0))
    return lines


def test_readme_cli_block_runs(tmp_path, monkeypatch, capsys):
    # In order: the build lines write the leg file that later lines read.
    lines = _cli_lines()
    assert len(lines) >= 10
    monkeypatch.chdir(tmp_path)
    for argv, code in lines:
        assert main(argv) == code, argv
    capsys.readouterr()


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
