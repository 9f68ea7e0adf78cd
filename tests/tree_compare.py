"""Compare two output trees at the project's output tolerance.

A tree is what ``json.load`` returns: dicts, lists, strings, numbers, bools
and None. Discrete fields (keys, lengths, strings, ints, bools, None and
the kind of each value) must match exactly; floats may differ by an
absolute ``FLOAT_ATOL``. The result names the first discrete difference,
in document order, and the largest float gap, each with its path.

Run as a script it compares two artifacts, files or directories:

    python tests/tree_compare.py PARENT_OUT CHANGE_OUT

A directory is the dict of its files by name; a ``.json`` file is its
document; any other file is its lines, each split at whitespace, commas,
``=`` and ``:`` into tokens, and each token read as an int or a float
where it parses as one. It prints the verdict and exits 1 when the trees
differ beyond the tolerance.
"""

from __future__ import annotations

import json
import math
import re
import sys
from dataclasses import dataclass, field
from pathlib import Path

FLOAT_ATOL = 1e-12


@dataclass
class TreeDiff:
    discrete: list[str] = field(default_factory=list)  # paths, in order
    max_gap: float = 0.0
    max_gap_path: str | None = None
    floats: int = 0  # float pairs compared

    def within(self, atol: float = FLOAT_ATOL) -> bool:
        return not self.discrete and self.max_gap <= atol

    def verdict(self, atol: float = FLOAT_ATOL) -> str:
        first = self.discrete[0] if self.discrete else "none"
        where = f" at {self.max_gap_path}" if self.max_gap_path else ""
        return (f"{'within' if self.within(atol) else 'BEYOND'} tolerance: "
                f"{len(self.discrete)} discrete differences (first: {first}); "
                f"{self.floats} floats, largest gap {self.max_gap:.3g}{where}")


def _float_gap(a: float, b: float) -> float:
    """|a - b|, with two NaNs or two equal infinities counting as no gap
    and any other pair that is not finite as an infinite one."""
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    gap = float(abs(a - b))
    return gap if math.isfinite(gap) else math.inf


def _kind(value) -> str:
    """The value's JSON kind; numpy's float64 is a float, and a bool is no
    int."""
    for kind in (bool, int, float, str, list, dict):
        if isinstance(value, kind):
            return kind.__name__
    return type(value).__name__


def compare(a, b) -> TreeDiff:
    """The differences between trees a and b."""
    diff = TreeDiff()

    def walk(x, y, path):
        if _kind(x) != _kind(y):
            diff.discrete.append(f"{path or '.'}: {_kind(x)} vs {_kind(y)}")
        elif isinstance(x, dict):
            if list(x) != list(y):
                keys = sorted(set(x) ^ set(y)) or "order"
                diff.discrete.append(f"{path or '.'}: keys {keys}")
            for key in x:
                if key in y:
                    walk(x[key], y[key], f"{path}.{key}")
        elif isinstance(x, list):
            if len(x) != len(y):
                diff.discrete.append(
                    f"{path or '.'}: length {len(x)} vs {len(y)}")
            for i, (u, v) in enumerate(zip(x, y)):
                walk(u, v, f"{path}[{i}]")
        elif isinstance(x, float):
            diff.floats += 1
            gap = _float_gap(x, y)
            if gap > diff.max_gap:
                diff.max_gap, diff.max_gap_path = gap, path or "."
        elif x != y:
            diff.discrete.append(f"{path or '.'}: {x!r} vs {y!r}")

    walk(a, b, "")
    return diff


def _token(text: str):
    for parse in (int, float):
        try:
            return parse(text)
        except ValueError:
            pass
    return text


def load(path: Path):
    """The tree of a file or a directory, as the module docstring says."""
    if path.is_dir():
        return {p.name: load(p) for p in sorted(path.iterdir())}
    text = path.read_text()
    if path.suffix == ".json":
        return json.loads(text)
    return [[_token(t) for t in re.split(r"[\s,=:]+", line) if t]
            for line in text.splitlines()]


if __name__ == "__main__":
    result = compare(load(Path(sys.argv[1])), load(Path(sys.argv[2])))
    print(result.verdict())
    sys.exit(0 if result.within() else 1)
