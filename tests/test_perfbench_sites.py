"""The benchmark's hooks name attributes of the loco under ``src/``.

``perfbench/tracing.py`` rebinds the functions its ``SITES`` name, and a
workload's ``probe_site`` is the call its speed probe rebinds. Some of those
names are only re-exports, kept so that the hooks find them; a loco that
drops one would break ``--trace 1`` or a workload, so this test loads both
files, without writing anything next to them, and resolves every name.
"""

import importlib.util
import inspect
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _load(name, monkeypatch):
    """``perfbench/<name>.py`` as a module, with no bytecode written."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", ROOT / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def _source_dir(owner):
    module = owner if inspect.ismodule(owner) else sys.modules[owner.__module__]
    return Path(module.__file__).resolve().parent


def test_perfbench_hooks_resolve_on_the_loco_under_src(monkeypatch):
    sites = [(owner, attr) for owner, attr, _ in
             _load("tracing", monkeypatch).SITES]
    probes = [w.probe_site for w in
              _load("workloads", monkeypatch).WORKLOADS.values()
              if w.probe_site is not None]
    assert sites and probes
    for owner, attr in sites + probes:
        assert _source_dir(owner) == ROOT / "src" / "loco", (owner, attr)
        assert callable(getattr(owner, attr, None)), (owner, attr)
