"""Every exported name resolves."""

import importlib

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
