"""Every ``__all__`` entry of the package and of each of its modules
resolves, so a deleted name cannot leave a stale export behind."""
import pkgutil

import pytest

import snlslab

MODULES = ["snlslab"] + sorted(f"snlslab.{m.name}" for m in pkgutil.iter_modules(snlslab.__path__))


def test_every_module_is_listed():
    assert "snlslab.grids" in MODULES and "snlslab.cli" in MODULES


@pytest.mark.parametrize("name", MODULES)
def test_star_import_resolves_every_all_entry(name):
    # a star import raises AttributeError on an __all__ entry that does not resolve
    namespace = {}
    exec(f"from {name} import *", namespace)
    module = __import__(name, fromlist=["__all__"])
    assert set(getattr(module, "__all__", ())) <= set(namespace)
