"""Runtime invariants must survive `python -O`, which strips `assert`."""

import ast
from pathlib import Path

import pytest

import amdl

CHECKED_MODULES = sorted(path.name for path in Path(amdl.__file__).parent.glob("*.py"))


def test_every_module_is_checked():
    for name in ("core.py", "hedge.py", "active.py", "harness.py", "cli.py"):
        assert name in CHECKED_MODULES


def _raises_assertion_error(node: ast.AST) -> bool:
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return isinstance(exc, ast.Name) and exc.id == "AssertionError"


@pytest.mark.parametrize("name", CHECKED_MODULES)
def test_module_has_no_assert_statements(name):
    path = Path(amdl.__file__).parent / name
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not lines, f"{name} checks invariants with assert at lines {lines}"


@pytest.mark.parametrize("name", CHECKED_MODULES)
def test_module_raises_contract_violation_not_assertion_error(name):
    path = Path(amdl.__file__).parent / name
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Raise) and node.exc is not None
             and _raises_assertion_error(node)]
    assert not lines, f"{name} raises AssertionError at lines {lines}"
