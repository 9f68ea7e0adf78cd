"""Bundled benchmark suite: 24 layouts over 2 to 4 objects.

Covers simple relation-annotated pairs, adjacent-box cases prone to object
fusion (``fusion_*``), three-object arrangements including multi-word
phrases and off-grid boxes, and four-object grids. The JSON files under
``suite_data/`` are the suite's only definition; the benchmark can also be
pointed at any other directory of layout documents.
"""

from __future__ import annotations

import json
from pathlib import Path

from .diffmath import ContractError
from .layout import Layout, LayoutError, layout_from_dict

__all__ = ["bundled_suite_dir", "load_suite"]


def bundled_suite_dir() -> Path:
    """Directory of the layout files shipped with the package."""
    return Path(__file__).parent / "suite_data"


def load_suite(directory: Path | str) -> list[tuple[str, Layout]]:
    """Parse every ``*.json`` layout in a directory, sorted by name.

    The first malformed file aborts the load with its name in the error.
    """
    directory = Path(directory)
    if not directory.exists():
        raise ContractError(f"suite directory {directory} does not exist")
    if not directory.is_dir():
        raise ContractError(f"suite path {directory} is not a directory")
    suite = []
    for path in sorted(directory.glob("*.json")):
        try:
            suite.append((path.stem, layout_from_dict(
                json.loads(path.read_text(encoding="utf-8")))))
        except ValueError as err:  # bad JSON, layout or UTF-8; a huge int
            raise LayoutError(f"{path.name}: {err}") from None
    if not suite:
        raise ContractError(f"suite directory {directory} has no layouts")
    return suite
