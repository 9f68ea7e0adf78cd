"""Layout parsing and rasterization."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loco.layout import (BoundingBox, LayoutError, _rasterize, layout_to_dict,
                         parse_layout, rasterize_box, serialize_layout)
from strategies import mostly

TWO_OBJECTS = {
    "prompt": "a cat and a dog",
    "objects": [
        {"phrase": "cat", "box": [0.0, 0.0, 0.5, 1.0]},
        {"phrase": "dog", "box": [0.5, 0.0, 1.0, 1.0]},
    ],
}


def test_parse_two_object_layout():
    layout = parse_layout(json.dumps(TWO_OBJECTS))
    assert layout.k == 2
    assert layout.prompt == "a cat and a dog"
    # words: a cat and a dog -> embeddings [SoT] a cat and a dog [EoT]
    assert layout.phrases[0].span == (2,)
    assert layout.phrases[1].span == (5,)


def test_parse_rejects_flipped_box():
    doc = {"prompt": "a cat", "objects": [{"phrase": "cat", "box": [0.6, 0.0, 0.5, 1.0]}]}
    with pytest.raises(LayoutError, match="x0 < x1"):
        parse_layout(json.dumps(doc))


def test_parse_rejects_missing_phrase():
    doc = {"prompt": "a cat and a dog",
           "objects": [{"phrase": "zebra", "box": [0.0, 0.0, 0.5, 1.0]}]}
    with pytest.raises(LayoutError, match="zebra"):
        parse_layout(json.dumps(doc))


def test_parse_rejects_out_of_range_coordinates():
    # 10 ** 400 is a JSON integer too large for a float.
    for x1 in (1.5, 10 ** 400):
        doc = {"prompt": "a cat",
               "objects": [{"phrase": "cat", "box": [0.0, 0.0, x1, 1.0]}]}
        with pytest.raises(LayoutError, match="outside"):
            parse_layout(json.dumps(doc))


@pytest.mark.parametrize("doc,needle", [
    ({"prompt": "", "objects": [{"phrase": "x", "box": [0, 0, 1, 1]}]}, "prompt"),
    ({"prompt": "a cat", "objects": []}, "objects"),
    ({"prompt": "a cat"}, "objects"),
    ({"prompt": "a cat", "objects": [{"phrase": "cat", "box": [0, 0, 1]}]}, "box"),
    ({"prompt": "a cat", "objects": [{"box": [0, 0, 1, 1]}]}, "phrase"),
])
def test_parse_error_names_offending_field(doc, needle):
    with pytest.raises(LayoutError, match=needle):
        parse_layout(json.dumps(doc))


def test_parse_rejects_bad_json():
    with pytest.raises(LayoutError, match="JSON"):
        parse_layout("{not json")


def test_parse_relations():
    doc = dict(TWO_OBJECTS, relations=[{"a": 0, "b": 1, "kind": "left"}])
    layout = parse_layout(json.dumps(doc))
    assert layout.relations[0].kind == "left"

    for bad in [{"a": 0, "b": 5, "kind": "left"},
                {"a": 0, "b": 0, "kind": "left"},
                {"a": 0, "b": 1, "kind": "inside"},
                {"a": 0, "kind": "left"},
                # Not coerced to an index: a float, a bool, a string.
                {"a": 0.9, "b": 1, "kind": "left"},
                {"a": 0, "b": True, "kind": "left"},
                {"a": "0", "b": 1, "kind": "left"}]:
        with pytest.raises(LayoutError, match="relations"):
            parse_layout(json.dumps(dict(TWO_OBJECTS, relations=[bad])))


def test_multi_word_phrase_span_is_contiguous():
    doc = {"prompt": "a red cat sleeps",
           "objects": [{"phrase": "red cat", "box": [0.1, 0.1, 0.9, 0.9]}]}
    layout = parse_layout(json.dumps(doc))
    assert layout.phrases[0].span == (2, 3)


def test_repeated_word_uses_first_occurrence():
    doc = {"prompt": "cat and cat",
           "objects": [{"phrase": "cat", "box": [0.1, 0.1, 0.9, 0.9]}]}
    layout = parse_layout(json.dumps(doc))
    assert layout.phrases[0].span == (1,)


@pytest.mark.parametrize("prompt, phrases", [("cat and cat", ["cat", "cat"]),
                                             ("a red cat and a cat",
                                              ["red cat", "cat"])])
def test_parse_rejects_overlapping_spans(prompt, phrases):
    # The second phrase resolves to the first occurrence of its tokens, which
    # the first object already covers: one token would get two boxes.
    doc = {"prompt": prompt,
           "objects": [{"phrase": phrases[0], "box": [0.0, 0.0, 0.5, 1.0]},
                       {"phrase": phrases[1], "box": [0.5, 0.0, 1.0, 1.0]}]}
    with pytest.raises(LayoutError, match=r"objects\[1\]"):
        parse_layout(json.dumps(doc))


def test_parse_rejects_boolean_coordinates():
    doc = {"prompt": "a cat", "objects": [{"phrase": "cat",
                                           "box": [False, 0, True, 1]}]}
    with pytest.raises(LayoutError, match="box"):
        parse_layout(json.dumps(doc))


def test_roundtrip_identity():
    doc = dict(TWO_OBJECTS, relations=[{"a": 0, "b": 1, "kind": "left"}])
    layout = parse_layout(json.dumps(doc))
    again = parse_layout(serialize_layout(layout))
    assert again == layout
    assert layout_to_dict(again) == layout_to_dict(layout)


def test_rasterize_quarter_box():
    mask = rasterize_box(BoundingBox(0.0, 0.0, 0.5, 0.5), 16)
    assert mask.sum() == 64
    assert np.array_equal(np.argwhere(mask).max(axis=0), [7, 7])
    assert mask[0, 0] == 1 and mask[8, 8] == 0


def test_rasterize_full_box():
    assert rasterize_box(BoundingBox(0.0, 0.0, 1.0, 1.0), 16).sum() == 256


def test_rasterize_tiny_box_snaps_to_single_cell():
    box = BoundingBox(0.49, 0.49, 0.51, 0.51)
    # Independent check: no cell center lies inside the box.
    centers = [(i + 0.5) / 16 for i in range(16)]
    assert not any(box.x0 <= c < box.x1 for c in centers)
    mask = rasterize_box(box, 16)
    assert mask.sum() == 1
    assert mask[8, 8] == 1  # cell containing the box center (0.5, 0.5)


def test_rasterize_matches_center_rule_enumeration():
    rng = np.random.default_rng(7)
    for _ in range(25):
        x0, y0 = rng.uniform(0, 0.8, 2)
        x1 = rng.uniform(x0 + 0.05, 1.0)
        y1 = rng.uniform(y0 + 0.05, 1.0)
        box = BoundingBox(x0, y0, x1, y1)
        mask = rasterize_box(box, 16)
        expected = np.zeros((16, 16), dtype=np.uint8)
        for r in range(16):
            for c in range(16):
                cx, cy = (c + 0.5) / 16, (r + 0.5) / 16
                if box.x0 <= cx < box.x1 and box.y0 <= cy < box.y1:
                    expected[r, c] = 1
        if expected.any():
            assert np.array_equal(mask, expected)
        else:
            assert mask.sum() == 1


def center_rule_mask(box, resolution):
    """The pixel-center rule one cell at a time, snapping an empty mask to
    the cell holding the box center."""
    centers = [(i + 0.5) / resolution for i in range(resolution)]
    mask = np.array([[box.x0 <= cx < box.x1 and box.y0 <= cy < box.y1
                      for cx in centers] for cy in centers], dtype=np.uint8)
    if not mask.any():
        cx, cy = box.center
        mask[min(int(cy * resolution), resolution - 1),
             min(int(cx * resolution), resolution - 1)] = 1
    return mask


@st.composite
def boxes(draw):
    """A box whose sides are each drawn from a full range or as a sliver
    narrower than any grid's cell pitch, so that it may hold no center."""
    def side():
        low = draw(st.floats(0.0, 0.999))
        width = draw(st.one_of(st.floats(1e-6, 0.05), st.floats(1e-3, 1.0)))
        return low, min(low + width, 1.0)

    (x0, x1), (y0, y1) = side(), side()
    return BoundingBox(x0, y0, x1, y1)


@settings(max_examples=200, deadline=None)
@given(st.lists(boxes(), min_size=1, max_size=6), st.integers(1, 16))
def test_rasterizing_all_boxes_at_once_equals_each_box_alone(drawn, resolution):
    """The one pass over a layout's boxes gives each box's own
    ``rasterize_box`` mask as a float row, and each mask is the center rule's,
    snapped to one cell when no center lies inside."""
    rows = _rasterize(drawn, resolution)
    assert rows.dtype == np.float64
    assert rows.shape == (len(drawn), resolution * resolution)
    for box, row in zip(drawn, rows):
        mask = rasterize_box(box, resolution)
        assert mask.dtype == np.uint8
        assert np.array_equal(mask, center_rule_mask(box, resolution))
        assert np.array_equal(row, mask.reshape(-1))


@settings(max_examples=50, deadline=None)
@given(x0=st.floats(0.0, 0.7), y0=st.floats(0.0, 0.7),
       w=st.floats(0.01, 0.3), h=st.floats(0.01, 0.3),
       grow=st.floats(0.0, 0.25))
def test_rasterize_monotone_and_nonempty(x0, y0, w, h, grow):
    small = BoundingBox(x0, y0, min(x0 + w, 1.0), min(y0 + h, 1.0))
    big = BoundingBox(max(x0 - grow, 0.0), max(y0 - grow, 0.0),
                      min(x0 + w + grow, 1.0), min(y0 + h + grow, 1.0))
    small_mask = rasterize_box(small, 16)
    big_mask = rasterize_box(big, 16)
    assert small_mask.sum() >= 1
    # Growing a box never clears a set cell, except when the small box's
    # fallback cell lies outside every center (then the real cells win).
    covered = np.argwhere(small_mask & ~big_mask)
    if covered.size:
        assert small_mask.sum() == 1 and big_mask.sum() >= 1



# Fuzzed documents: each field is near-valid three times in four and any
# JSON value otherwise; a box coordinate is in range three times in four and
# otherwise out of range, non-finite, an int too large for a float or not a
# number.
WORDS = ("a", "cat", "red", "ball", "dog", ",")
BAD_COORDINATES = st.sampled_from(
    (-0.5, 1.5, math.nan, math.inf, 10 ** 400, True, "0"))
LOW = mostly(st.floats(0.0, 0.49), BAD_COORDINATES)
HIGH = mostly(st.floats(0.5, 1.0), BAD_COORDINATES)
OBJECTS = mostly(st.fixed_dictionaries({
    "phrase": mostly(st.sampled_from(WORDS + ("red ball", " "))),
    "box": mostly(st.tuples(LOW, LOW, HIGH, HIGH).map(list)),
}))
RELATIONS = mostly(st.fixed_dictionaries({
    "a": mostly(st.integers(-1, 3)),
    "b": mostly(st.integers(-1, 3)),
    "kind": mostly(st.sampled_from(("left", "below", "near"))),
}))
LAYOUT_DOCS = mostly(st.fixed_dictionaries(
    {"prompt": mostly(st.lists(st.sampled_from(WORDS), min_size=1,
                               max_size=6).map(" ".join)),
     "objects": mostly(st.lists(OBJECTS, min_size=1, max_size=4))},
    optional={"relations": mostly(st.lists(RELATIONS, max_size=3))}))


@settings(max_examples=400, deadline=None)
@given(doc=LAYOUT_DOCS)
def test_fuzzed_layout_documents_parse_or_raise_layout_error(doc):
    try:
        layout = parse_layout(json.dumps(doc))
    except LayoutError as err:
        assert "\n" not in str(err)  # the CLI prints it as one line
    else:
        assert parse_layout(serialize_layout(layout)) == layout
