"""Every exported name resolves: `from entrodual import *` and the benchmark
tracer both read each module's __all__, and a stale entry breaks them."""

import importlib
import pkgutil

import pytest

import entrodual

MODULES = ["entrodual"] + sorted(
    f"entrodual.{m.name}" for m in pkgutil.iter_modules(entrodual.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    assert hasattr(module, "__all__")
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ names missing attributes: {missing}"


def test_star_import_binds_every_package_export():
    namespace = {}
    exec("from entrodual import *", namespace)
    assert set(entrodual.__all__) <= set(namespace)
