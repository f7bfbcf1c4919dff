"""Checks on the source text of the package and the scripts."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted([*(ROOT / "src" / "entrodual").glob("*.py"), *(ROOT / "scripts").glob("*.py")])


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.relative_to(ROOT).as_posix())
def test_no_assert_statements(path):
    # python -O strips assert statements, so a check of an input must raise
    lines = [node.lineno for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert not lines, f"{path.relative_to(ROOT)}: assert on lines {lines}"
