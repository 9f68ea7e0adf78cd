import json

import numpy as np

from tree_compare import FLOAT_ATOL, compare, load

TREE = {"records": [{"arm": "lac", "seed": 0, "iou": 0.5,
                     "curve": [0.25, 0.125]}],
        "total": 3, "note": None}


def _changed(path, value):
    tree = json.loads(json.dumps(TREE))
    *parents, last = path
    node = tree
    for key in parents:
        node = node[key]
    node[last] = value
    return tree


def test_equal_trees_are_within_tolerance():
    diff = compare(TREE, json.loads(json.dumps(TREE)))
    assert diff.within() and diff.discrete == [] and diff.max_gap == 0.0
    assert diff.floats == 3


def test_a_changed_int_is_named():
    diff = compare(TREE, _changed(["records", 0, "seed"], 1))
    assert not diff.within()
    assert diff.discrete == [".records[0].seed: 0 vs 1"]
    assert ".records[0].seed" in diff.verdict()


def test_a_float_gap_passes_at_1e13_and_fails_at_1e11():
    small = compare(TREE, _changed(["records", 0, "curve", 1], 0.125 + 1e-13))
    assert small.within()
    assert small.max_gap_path == ".records[0].curve[1]"
    assert 0 < small.max_gap <= FLOAT_ATOL
    large = compare(TREE, _changed(["records", 0, "iou"], 0.5 + 1e-11))
    assert not large.within() and large.discrete == []
    assert large.max_gap_path == ".records[0].iou"
    assert "largest gap 1e-11 at .records[0].iou" in large.verdict()


def test_kinds_keys_and_lengths_are_discrete():
    assert compare(TREE, _changed(["total"], 3.0)).discrete == [
        ".total: int vs float"]
    assert compare(TREE, _changed(["note"], False)).discrete == [
        ".note: NoneType vs bool"]
    shorter = _changed(["records", 0, "curve"], [0.25])
    assert compare(TREE, shorter).discrete == [
        ".records[0].curve: length 2 vs 1"]
    extra = _changed(["extra"], 1)
    assert compare(TREE, extra).discrete == [".: keys ['extra']"]


def test_numpy_floats_are_floats():
    diff = compare([np.float64(0.5), 1.0], [0.5, np.float64(1.0 + 1e-13)])
    assert diff.within() and diff.floats == 2
    assert compare([np.float64(0.5)], [1]).discrete == ["[0]: float vs int"]


def test_two_nans_are_equal_and_a_nan_against_a_number_is_not():
    nan = float("nan")
    assert compare([nan], [nan]).within()
    assert not compare([nan], [1.0]).within()


def test_load_reads_directories_json_and_text(tmp_path):
    (tmp_path / "a.json").write_text('{"x": 1.5}')
    (tmp_path / "b.csv").write_text("step,lac\n0,0.25\n")
    assert load(tmp_path) == {"a.json": {"x": 1.5},
                              "b.csv": [["step", "lac"], [0, 0.25]]}
