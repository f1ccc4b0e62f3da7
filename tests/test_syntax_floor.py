"""Every source file parses at the Python version ``pyproject.toml`` declares as its floor.

Syntax newer than the floor (``except*``, say, on a 3.10 floor) then fails
here on any newer interpreter, not only in a job that runs the floor.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _floor() -> tuple[int, int]:
    spec = re.search(r'^requires-python\s*=\s*">=(\d+)\.(\d+)"', (ROOT / "pyproject.toml").read_text(), re.M)
    assert spec, "pyproject.toml declares no requires-python floor"
    return int(spec[1]), int(spec[2])


def test_every_file_parses_at_the_floor():
    files = sorted(p for d in ("src", "tests", "tools") for p in (ROOT / d).rglob("*.py"))
    assert files
    failed = []
    for path in files:
        try:
            ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=_floor())
        except SyntaxError as err:
            failed.append(f"{path.relative_to(ROOT)}:{err.lineno}: {err.msg}")
    assert not failed, failed


def test_newer_syntax_fails_at_the_floor():
    with pytest.raises(SyntaxError):
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n", feature_version=_floor())
