#!/usr/bin/env python3
"""Layout documents and their rasterized grid masks.

A layout pairs textual phrases with normalized bounding boxes. Each box is
rasterized onto the 16x16 attention grid by the pixel-center rule; a box
too small to catch any center snaps to the single cell holding its center.
"""

import json

import numpy as np

from loco.layout import parse_layout, rasterize_box, serialize_layout

DOC = {
    "prompt": "red cat watches blue ball near lamp",
    "objects": [
        {"phrase": "red cat", "box": [0.0625, 0.125, 0.375, 0.625]},
        {"phrase": "blue ball", "box": [0.625, 0.125, 0.9375, 0.625]},
        {"phrase": "lamp", "box": [0.3125, 0.6875, 0.6875, 0.9375]},
    ],
    "relations": [{"a": 0, "b": 1, "kind": "left"}],
}

layout = parse_layout(json.dumps(DOC))
print("prompt:", layout.prompt)
for phrase, box in zip(layout.phrases, layout.boxes):
    print(f"  {phrase.text!r} -> token span {phrase.span}, "
          f"box ({box.x0}, {box.y0}, {box.x1}, {box.y1})")

def show(mask, title):
    print(title)
    for row in mask:
        print("  " + "".join("#" if v else "." for v in row))

masks = [rasterize_box(b) for b in layout.boxes]
show(masks[0], "mask for 'red cat':")
show(np.any(masks, axis=0), "union of all object masks:")

# A degenerate box still rasterizes to one cell.
from loco.layout import BoundingBox
tiny = rasterize_box(BoundingBox(0.49, 0.49, 0.51, 0.51))
print("tiny box set cells:", int(tiny.sum()), "at", tuple(map(int, tiny.nonzero()[0])) + tuple(map(int, tiny.nonzero()[1])))

# Serialization round-trips losslessly.
assert parse_layout(serialize_layout(layout)) == layout
print("serialize -> parse round trip: identical")
