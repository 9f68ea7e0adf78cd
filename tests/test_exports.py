"""Every name a ``loco`` submodule lists in ``__all__`` resolves on it, so
``from loco.<module> import *`` cannot fail on a stale entry, and is reached
by something besides the tests."""

import ast
import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import loco

ROOT = Path(__file__).resolve().parents[1]
SUBMODULES = sorted(info.name for info in pkgutil.iter_modules(loco.__path__))


def test_every_submodule_is_listed():
    assert {"backbone", "cli", "diffmath", "evaluate", "guidance", "layout",
            "suite"} <= set(SUBMODULES)


@pytest.mark.parametrize("name", SUBMODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"loco.{name}")
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def test_every_export_is_reached_outside_the_tests():
    """Each ``__all__`` name is referenced as code (a name or an attribute,
    not a string) in ``src/loco``, or named in a demo, in a perfbench
    script, or in README's "Python API" section."""
    reached = set()
    for path in (ROOT / "src" / "loco").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                reached.add(node.id)
            elif isinstance(node, ast.Attribute):
                reached.add(node.attr)
    readme = (ROOT / "README.md").read_text()
    texts = [readme.split("\n## Python API\n", 1)[1].split("\n## ", 1)[0]]
    texts += [path.read_text() for folder in ("demos", "perfbench")
              for path in (ROOT / folder).glob("*.py")]
    reached.update(word for text in texts for word in re.findall(r"\w+", text))
    unreached = [f"{name}.{export}" for name in SUBMODULES
                 for export in importlib.import_module(f"loco.{name}").__all__
                 if export not in reached]
    assert unreached == []
