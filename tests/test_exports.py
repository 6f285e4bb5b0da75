"""The public names: every __all__ entry resolves, and the package re-exports
only names its modules declare."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import wickgrid

MODULES = [info.name for info in pkgutil.iter_modules(wickgrid.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_resolves(name):
    module = importlib.import_module(f"wickgrid.{name}")
    missing = [n for n in getattr(module, "__all__", []) if not hasattr(module, n)]
    assert not missing


def test_package_imports_only_names_in_their_modules_all():
    tree = ast.parse(Path(wickgrid.__file__).read_text())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        declared = importlib.import_module(f"wickgrid.{node.module}").__all__
        assert [alias.name for alias in node.names if alias.name not in declared] == [], \
            node.module
