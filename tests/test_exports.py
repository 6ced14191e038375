"""Every public name of blindjam resolves: each module's ``__all__`` and each
name the package ``__init__`` imports. A deletion that leaves a stale export
fails here."""
import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import blindjam

MODULES = sorted(info.name for info in pkgutil.iter_modules(blindjam.__path__)
                 if info.name != "__main__")


def _init_imports():
    tree = ast.parse(Path(blindjam.__file__).read_text(encoding="utf-8"))
    return sorted((node.module, alias.name) for node in tree.body
                  if isinstance(node, ast.ImportFrom) and node.level == 1
                  for alias in node.names)


@pytest.mark.parametrize("module", MODULES)
def test_module_all_resolves(module):
    mod = importlib.import_module(f"blindjam.{module}")
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert not missing, f"blindjam.{module}.__all__ names missing attributes: {missing}"


@pytest.mark.parametrize("module, name", _init_imports())
def test_package_import_resolves(module, name):
    assert hasattr(importlib.import_module(f"blindjam.{module}"), name)
    assert hasattr(blindjam, name)
