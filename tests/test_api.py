"""Public API consistency: every exported name resolves."""

import ast
import importlib
from pathlib import Path

import pytest

import quniverse

MODULES = ["core", "dynamics", "iel", "models", "locality", "verification", "cli"]


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_exists(name):
    module = importlib.import_module(f"quniverse.{name}")
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert missing == []


def test_package_reexports_exist_in_their_modules():
    tree = ast.parse(Path(quniverse.__file__).read_text(encoding="utf-8"))
    reexports = [
        (node.module, alias.name)
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]
    assert reexports
    for module_name, name in reexports:
        module = importlib.import_module(f"quniverse.{module_name}")
        assert name in module.__all__, f"{module_name}.{name} is not in __all__"
        assert getattr(quniverse, name) is getattr(module, name)
