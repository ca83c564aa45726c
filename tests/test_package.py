import importlib
import pkgutil

import pytest

import ftrot

MODULES = ["ftrot"] + [f"ftrot.{m.name}" for m in pkgutil.iter_modules(ftrot.__path__)]


@pytest.mark.parametrize("module", MODULES)
def test_all_names_resolve(module):
    # a stale name breaks `from module import *` and any tool that
    # walks __all__ with getattr
    mod = importlib.import_module(module)
    missing = [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert missing == []
