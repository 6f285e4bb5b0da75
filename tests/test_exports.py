"""The public names: every __all__ entry resolves, each layer module's __all__
declares every public function and class it defines, and the package
re-exports exactly the names its layer modules declare."""

import importlib
import inspect
import pkgutil

import pytest

import wickgrid

MODULES = [info.name for info in pkgutil.iter_modules(wickgrid.__path__)]
# the modules whose __all__ the package re-exports, in its import order
LAYERS = ["covariance", "firstchaos", "chaos", "qce", "skorokhod", "bsde", "fraccalc"]


def layer(name):
    return importlib.import_module(f"wickgrid.{name}")


def declared():
    """name -> the layer module whose __all__ declares it."""
    return {n: layer(name) for name in LAYERS for n in layer(name).__all__}


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_resolves(name):
    module = importlib.import_module(f"wickgrid.{name}")
    missing = [n for n in getattr(module, "__all__", []) if not hasattr(module, n)]
    assert not missing


def test_package_imports_only_names_in_their_modules_all():
    public = {n for n, obj in vars(wickgrid).items()
              if not n.startswith("_") and not inspect.ismodule(obj)}
    assert public == set(declared())


def test_package_all_is_the_layers_all_in_import_order():
    names = [n for name in LAYERS for n in layer(name).__all__]
    assert wickgrid.__all__ == names
    assert len(set(names)) == len(names)


def test_star_import_binds_exactly_all_to_the_modules_objects():
    namespace = {}
    exec("from wickgrid import *", namespace)
    del namespace["__builtins__"]
    assert set(namespace) == set(wickgrid.__all__)
    assert [n for n, module in declared().items() if namespace[n] is not getattr(module, n)] == []


def test_every_module_that_declares_all_is_a_layer():
    assert [name for name in MODULES
            if hasattr(layer(name), "__all__") and name not in LAYERS] == []


@pytest.mark.parametrize("name", LAYERS)
def test_every_public_function_and_class_is_in_its_modules_all(name):
    module = layer(name)
    defined = {n for n, obj in vars(module).items()
               if not n.startswith("_") and (inspect.isfunction(obj) or inspect.isclass(obj))
               and obj.__module__ == module.__name__}
    assert sorted(defined - set(module.__all__)) == []
