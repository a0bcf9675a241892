"""Runtime invariants must survive `python -O`, which strips `assert`."""

import ast
from pathlib import Path

import pytest

import amdl

CHECKED_MODULES = ("hedge.py", "active.py", "harness.py")


@pytest.mark.parametrize("name", CHECKED_MODULES)
def test_module_has_no_assert_statements(name):
    path = Path(amdl.__file__).parent / name
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not lines, f"{name} checks invariants with assert at lines {lines}"
