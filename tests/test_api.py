"""Every exported name resolves; the library holds no assert statement."""

import ast
import importlib
import pathlib

import pytest

import pathdepth

SUBMODULES = ("monomials", "families", "depth", "sdepth", "claims")


def test_package_exports_resolve():
    missing = [name for name in pathdepth.__all__ if not hasattr(pathdepth, name)]
    assert missing == []


@pytest.mark.parametrize("name", SUBMODULES)
def test_submodule_exports_resolve(name):
    module = importlib.import_module("pathdepth." + name)
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []


def test_no_assert_statement_in_library():
    # assert statements vanish under python -O; invariants must raise instead
    root = pathlib.Path(pathdepth.__file__).parent
    found = [
        "%s:%d" % (path.name, node.lineno)
        for path in sorted(root.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
