"""User layouts: phrases paired with boxes, rasterized onto the latent grid.

The on-disk format is a small JSON document::

    {"prompt": "a cat and a dog",
     "objects": [{"phrase": "cat", "box": [0.0, 0.0, 0.5, 1.0]},
                 {"phrase": "dog", "box": [0.5, 0.0, 1.0, 1.0]}],
     "relations": [{"a": 0, "b": 1, "kind": "left"}]}

Coordinates are normalized to [0, 1] with x along columns, y along rows,
origin at the top left. ``relations`` is optional and only consumed by the
evaluation harness.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .backbone import tokenize

__all__ = [
    "BoundingBox",
    "Layout",
    "LayoutError",
    "Phrase",
    "RELATION_KINDS",
    "Relation",
    "layout_from_dict",
    "layout_to_dict",
    "parse_layout",
    "rasterize_box",
    "serialize_layout",
]

RELATION_KINDS = ("left", "right", "above", "below")


class LayoutError(ValueError):
    """A layout document violates the format or a field's invariants."""


@dataclass(frozen=True)
class BoundingBox:
    x0: float
    y0: float
    x1: float
    y1: float

    def __post_init__(self):
        for name in ("x0", "y0", "x1", "y1"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise LayoutError(f"box.{name}={v} outside [0, 1]")
        if not self.x0 < self.x1:
            raise LayoutError(f"box needs x0 < x1, got [{self.x0}, {self.x1}]")
        if not self.y0 < self.y1:
            raise LayoutError(f"box needs y0 < y1, got [{self.y0}, {self.y1}]")

    @property
    def center(self) -> tuple[float, float]:
        return (self.x0 + self.x1) / 2.0, (self.y0 + self.y1) / 2.0

    @property
    def area(self) -> float:
        return (self.x1 - self.x0) * (self.y1 - self.y0)


@dataclass(frozen=True)
class Phrase:
    """An object description plus its content-token span in the prompt."""

    text: str
    span: tuple[int, ...]  # embedding positions, strictly inside (0, n-1)


@dataclass(frozen=True)
class Relation:
    a: int
    b: int
    kind: str


@dataclass(frozen=True)
class Layout:
    prompt: str
    boxes: tuple[BoundingBox, ...]
    phrases: tuple[Phrase, ...]
    relations: tuple[Relation, ...] = field(default=())

    @property
    def k(self) -> int:
        return len(self.boxes)


def _resolve_span(prompt_words: list[str], phrase: str) -> tuple[int, ...]:
    """First contiguous occurrence of the phrase's tokens, as embedding
    positions (offset by one for the start-of-text slot)."""
    needle = tokenize(phrase)
    if not needle:
        raise LayoutError(f"objects[].phrase {phrase!r} has no tokens")
    m = len(needle)
    for start in range(len(prompt_words) - m + 1):
        if prompt_words[start:start + m] == needle:
            return tuple(range(start + 1, start + 1 + m))
    raise LayoutError(f"objects[].phrase {phrase!r} does not occur in the prompt")


def layout_from_dict(doc: dict) -> Layout:
    if not isinstance(doc, dict):
        raise LayoutError("layout document must be a JSON object")
    prompt = doc.get("prompt")
    if not isinstance(prompt, str) or not prompt.strip():
        raise LayoutError("prompt must be a non-empty string")
    objects = doc.get("objects")
    if not isinstance(objects, list) or not objects:
        raise LayoutError("objects must be a non-empty list")
    words = tokenize(prompt)

    boxes: list[BoundingBox] = []
    phrases: list[Phrase] = []
    for i, obj in enumerate(objects):
        if not isinstance(obj, dict):
            raise LayoutError(f"objects[{i}] must be an object")
        phrase = obj.get("phrase")
        if not isinstance(phrase, str) or not phrase.strip():
            raise LayoutError(f"objects[{i}].phrase must be a non-empty string")
        box = obj.get("box")
        if (not isinstance(box, (list, tuple)) or len(box) != 4
                or not all(isinstance(v, (int, float))
                           and not isinstance(v, bool) for v in box)):
            raise LayoutError(f"objects[{i}].box must be [x0, y0, x1, y1]")
        try:
            boxes.append(BoundingBox(*map(float, box)))
        except LayoutError as err:
            raise LayoutError(f"objects[{i}].{err}") from None
        except OverflowError:  # an integer beyond the float range
            raise LayoutError(f"objects[{i}].box has a coordinate outside "
                              "[0, 1]") from None
        span = _resolve_span(words, phrase)
        if any(set(span) & set(p.span) for p in phrases):
            raise LayoutError(f"objects[{i}].phrase {phrase!r} overlaps an "
                              "earlier object's tokens in the prompt")
        phrases.append(Phrase(text=phrase, span=span))

    relations: list[Relation] = []
    raw_relations = doc.get("relations", [])
    if not isinstance(raw_relations, list):
        raise LayoutError("relations must be a list")
    for i, rel in enumerate(raw_relations):
        if not isinstance(rel, dict):
            raise LayoutError(f"relations[{i}] must be an object")
        kind = rel.get("kind")
        if kind not in RELATION_KINDS:
            raise LayoutError(
                f"relations[{i}].kind must be one of {'|'.join(RELATION_KINDS)}"
            )
        a, b = rel.get("a"), rel.get("b")
        if not all(isinstance(v, int) and not isinstance(v, bool)
                   for v in (a, b)):
            raise LayoutError(f"relations[{i}] needs integer fields a and b")
        if not (0 <= a < len(objects) and 0 <= b < len(objects)) or a == b:
            raise LayoutError(f"relations[{i}] indices out of range or equal")
        relations.append(Relation(a=a, b=b, kind=kind))

    return Layout(prompt=prompt, boxes=tuple(boxes), phrases=tuple(phrases),
                  relations=tuple(relations))


def parse_layout(text: str) -> Layout:
    """Parse and validate a layout document; errors name the bad field."""
    try:
        doc = json.loads(text)
    except ValueError as err:  # JSONDecodeError, or an integer too long
        raise LayoutError(f"layout is not valid JSON: {err}") from None
    return layout_from_dict(doc)


def layout_to_dict(layout: Layout) -> dict:
    doc: dict = {
        "prompt": layout.prompt,
        "objects": [
            {"phrase": p.text, "box": [b.x0, b.y0, b.x1, b.y1]}
            for p, b in zip(layout.phrases, layout.boxes)
        ],
    }
    if layout.relations:
        doc["relations"] = [
            {"a": r.a, "b": r.b, "kind": r.kind} for r in layout.relations
        ]
    return doc


def serialize_layout(layout: Layout) -> str:
    return json.dumps(layout_to_dict(layout), indent=2)


def rasterize_box(box: BoundingBox, resolution: int = 16) -> np.ndarray:
    """Binary grid mask of a box, by the pixel-center rule.

    Cell (r, c) is set iff its center lies in the half-open region
    [x0, x1) x [y0, y1). A box so small that no center falls inside snaps
    to the single cell containing the box center, so every mask has at
    least one set cell.
    """
    return _rasterize((box,), resolution).reshape(
        resolution, resolution).astype(np.uint8)


def _rasterize(boxes: Sequence[BoundingBox], resolution: int) -> np.ndarray:
    """``rasterize_box`` of all boxes at once: (k, resolution ** 2) floats."""
    edges = np.array([(b.x0, b.y0, b.x1, b.y1) for b in boxes]).reshape(-1, 4)
    centers = (np.arange(resolution) + 0.5) / resolution
    past = centers >= edges[..., None]  # (k, 4, resolution)
    # (k, 2, resolution): each center within each box's x, then y, range.
    inside = past[:, :2] & ~past[:, 2:]
    masks = (inside[:, 1, :, None] & inside[:, 0, None]).reshape(len(edges), -1)
    masks = masks.astype(np.float64)
    empty = ~inside.any(2).all(1)
    if empty.any():  # snap to the cell of the center, as BoundingBox.center
        c, r = np.minimum(((edges[:, :2] + edges[:, 2:]) / 2.0 * resolution)
                          .astype(np.int64), resolution - 1).T
        masks[empty, (r * resolution + c)[empty]] = 1.0
    return masks
