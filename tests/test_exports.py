"""Every name a ``loco`` submodule lists in ``__all__`` resolves on it, so
``from loco.<module> import *`` cannot fail on a stale entry."""

import importlib
import pkgutil

import pytest

import loco

SUBMODULES = sorted(info.name for info in pkgutil.iter_modules(loco.__path__))


def test_every_submodule_is_listed():
    assert {"backbone", "cli", "diffmath", "evaluate", "guidance", "layout",
            "suite"} <= set(SUBMODULES)


@pytest.mark.parametrize("name", SUBMODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"loco.{name}")
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
