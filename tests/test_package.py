"""Package-level checks of the public surface of each module."""

import importlib

import pytest

MODULES = ("model", "polyalg", "normform", "invariants", "dynamics", "analysis", "cli")


@pytest.mark.parametrize("name", ["magbottle", *(f"magbottle.{m}" for m in MODULES)])
def test_every_exported_name_resolves(name):
    # a stale __all__ entry breaks ``from <module> import *`` and every
    # tool that reads the names it lists
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []
