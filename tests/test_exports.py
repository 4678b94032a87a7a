import importlib
import pkgutil

import pytest

import marketlab

MODULES = sorted(m.name for m in pkgutil.iter_modules(marketlab.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(f"marketlab.{name}")
    exports = getattr(module, "__all__", ())
    assert len(set(exports)) == len(exports)
    assert [n for n in exports if not hasattr(module, n)] == []
