"""Label decoding, detection, metrics, and the benchmark harness."""

import functools
import json
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from loco.backbone import BackboneConfig, Seeds
from loco.diffmath import ContractError, ShapeError
from loco import evaluate, guidance
from loco.evaluate import (ARMS, Detection, _evaluate, _record,
                           aggregate_records, arm_config, cross_mass_probe, decode_labels,
                           detect_regions, iou, layout_metrics, run_benchmark)
from loco.guidance import (GuidanceConfig, _loss_and_grad, _trajectories,
                           guided_sample, object_maps)
from loco.layout import (BoundingBox, layout_from_dict, parse_layout,
                         rasterize_box)
from loco.suite import bundled_suite_dir, load_suite

from oracles import connected_components
from tree_compare import compare

LAYOUT = parse_layout("""{
  "prompt": "cat beside dog",
  "objects": [
    {"phrase": "cat", "box": [0.0, 0.0, 0.5, 1.0]},
    {"phrase": "dog", "box": [0.5, 0.0, 1.0, 1.0]}
  ],
  "relations": [{"a": 0, "b": 1, "kind": "left"}]
}""")


def boxed_attention(layout, sharp=0.9):
    """Synthetic attention with each object's mass inside its box."""
    from loco.backbone import tokenize

    n = len(tokenize(layout.prompt)) + 2
    values = np.full((256, n), 1e-6)
    for phrase, box in zip(layout.phrases, layout.boxes):
        inside = rasterize_box(box).reshape(-1).astype(bool)
        for idx in phrase.span:
            values[inside, idx] = sharp
    values[:, 0] = 0.05
    values[:, -1] = 0.02
    values = values / values.sum(axis=1, keepdims=True)
    return values


def single_object_layout():
    return parse_layout("""{
      "prompt": "cat sits",
      "objects": [{"phrase": "cat", "box": [0.0, 0.0, 0.5, 0.5]}]
    }""")


def test_decode_single_dominant_object_matches_mask():
    layout = single_object_layout()
    mask = rasterize_box(layout.boxes[0])
    values = np.full((256, 4), 0.01)
    inside = mask.reshape(-1).astype(bool)
    values[inside, 1] = 0.9
    values /= values.sum(axis=1, keepdims=True)
    labels = decode_labels(values, layout)
    assert np.array_equal((labels == 1).astype(np.uint8), mask)


def test_decode_matches_per_cell_argmax_oracle():
    rng = np.random.default_rng(2)
    values = rng.dirichlet(np.ones(5), size=256)
    tau = 0.3
    assert evaluate.TAU == tau
    labels = decode_labels(values, LAYOUT)

    spans = [list(p.span) for p in LAYOUT.phrases]
    maps = np.stack([values[:, s].mean(axis=1) for s in spans])
    maps = maps / maps.max(axis=1, keepdims=True)
    for cell in range(256):
        scores = maps[:, cell]
        want = int(np.argmax(scores)) + 1 if scores.max() >= tau else 0
        assert labels.reshape(-1)[cell] == want


@pytest.mark.parametrize("rows", [255, 257, 15])
def test_non_square_attention_raises_shape_error(rows):
    values = np.full((rows, 5), 0.2)
    with pytest.raises(ShapeError, match="square"):
        decode_labels(values, LAYOUT)
    with pytest.raises(ShapeError, match="square"):
        layout_metrics([], LAYOUT, values)


# Each public function that reads a (q, n) attention array, called on it.
ATTENTION_READERS = {
    "object_maps": lambda values: object_maps(values, LAYOUT),
    "decode_labels": lambda values: decode_labels(values, LAYOUT),
    "layout_metrics": lambda values: layout_metrics([], LAYOUT, values),
}


@pytest.mark.parametrize("reader", ATTENTION_READERS)
def test_one_dimensional_attention_raises_shape_error(reader):
    with pytest.raises(ShapeError, match=r"\(256,\) is not \(q, n\)"):
        ATTENTION_READERS[reader](np.full(256, 0.2))


@pytest.mark.parametrize("reader", ATTENTION_READERS)
def test_three_dimensional_attention_raises_shape_error(reader):
    """A (q, n, 2) array once gave layout_metrics objects whose inbox_mass
    was a list."""
    values = np.stack([boxed_attention(LAYOUT)] * 2, axis=-1)
    with pytest.raises(ShapeError, match=r"\(256, 5, 2\) is not \(q, n\)"):
        ATTENTION_READERS[reader](values)


@pytest.mark.parametrize("reader", ATTENTION_READERS)
def test_nested_list_attention_raises_shape_error(reader):
    """A nested list once ended in a raw AttributeError."""
    with pytest.raises(ShapeError, match="attention must be an np.ndarray"):
        ATTENTION_READERS[reader](boxed_attention(LAYOUT).tolist())


@pytest.mark.parametrize("reader", ATTENTION_READERS)
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_attention_raises_contract_error(reader, bad):
    """An all-NaN array once decoded to background with NaN masses; one
    non-finite entry is enough to refuse the array."""
    values = boxed_attention(LAYOUT)
    values[17, 2] = bad
    with pytest.raises(ContractError, match="non-finite"):
        ATTENTION_READERS[reader](values)
    with pytest.raises(ContractError, match="non-finite"):
        ATTENTION_READERS[reader](np.full((256, 5), np.nan))


@pytest.mark.parametrize("reader", ATTENTION_READERS)
@pytest.mark.parametrize("dtype", [object, str, complex, bool])
def test_attention_that_is_not_int_or_float_raises_contract_error(reader,
                                                                  dtype):
    """An object or string array once ended in a raw TypeError, a complex
    one decoded to complex masses, and a bool one read as 0/1 attention."""
    values = boxed_attention(LAYOUT).astype(dtype)
    with pytest.raises(ContractError, match="must be int or float"):
        ATTENTION_READERS[reader](values)


def test_decode_rejects_a_grid_of_zero_cells():
    """A (0, n) array once ended in a raw IndexError."""
    with pytest.raises(ShapeError, match="square grid"):
        decode_labels(np.zeros((0, 5)), LAYOUT)


def test_layout_metrics_rejects_a_grid_of_zero_cells():
    with pytest.raises(ShapeError, match="square grid"):
        layout_metrics([], LAYOUT, np.zeros((0, 5)))


def test_detect_rejects_a_grid_of_zero_cells():
    """A (0, 0) grid once ended in a raw ValueError from the labeller."""
    with pytest.raises(ShapeError, match="square grid"):
        detect_regions(np.zeros((0, 0), dtype=np.int64))


def test_decode_reads_the_grid_side_from_the_rows():
    values = boxed_attention(LAYOUT)[:64]  # the first 4 rows of the 16x16 grid
    assert decode_labels(values, LAYOUT).shape == (8, 8)


def test_detect_single_block():
    labels = np.zeros((16, 16), dtype=int)
    labels[:8, :8] = 1
    dets = detect_regions(labels)
    assert len(dets) == 1
    det = dets[0]
    assert det.index == 0 and det.area == 64
    assert (det.box.x0, det.box.y0, det.box.x1, det.box.y1) == (0.0, 0.0, 0.5, 0.5)
    assert det.box.x0 <= det.centroid[0] <= det.box.x1
    assert det.box.y0 <= det.centroid[1] <= det.box.y1


def test_detect_empty_map():
    assert detect_regions(np.zeros((16, 16), dtype=int)) == []


# Two 3-cell components of label 1: the one whose first cell comes first in
# raster order, (0, 4), wins the tie, though the other reaches further left
# and further down.
TIE = [[0, 0, 0, 0, 1, 1, 1],
       [1, 0, 0, 0, 0, 0, 0],
       [1, 0, 2, 0, 0, 0, 0],
       [1, 0, 0, 0, 0, 0, 0],
       [0, 0, 0, 0, 0, 0, 0],
       [0, 0, 0, 0, 0, 0, 0],
       [0, 0, 0, 0, 0, 0, 0]]


def test_detect_keeps_largest_component():
    labels = np.zeros((16, 16), dtype=int)
    labels[0, 0:5] = 1  # size 5
    labels[10, 10:13] = 1  # size 3
    dets = detect_regions(labels)
    assert len(dets) == 1 and dets[0].area == 5
    assert dets[0].box.y0 == 0.0
    tie = detect_regions(np.array(TIE))[0]
    assert tie.area == 3 and tie.box == BoundingBox(4 / 7, 0.0, 1.0, 1 / 7)


def _serpentine(side):
    """One component that winds through every row: full even rows, joined
    at alternate ends."""
    grid = np.zeros((side, side), dtype=np.int64)
    grid[::2] = 1
    grid[1::4, -1] = 1
    grid[3::4, 0] = 1
    return grid.tolist()


# Square grids of sides 1-16 with labels 0 to a drawn top label of 1-4, so
# one-label grids form large blobs and four-label grids fragment.
LABEL_GRIDS = st.tuples(st.integers(1, 16), st.integers(1, 4)).flatmap(
    lambda shape: st.lists(
        st.lists(st.integers(0, shape[1]), min_size=shape[0],
                 max_size=shape[0]),
        min_size=shape[0], max_size=shape[0]))


@settings(max_examples=300, deadline=None)
@given(LABEL_GRIDS)
@example(TIE)
@example(_serpentine(16))
@example(_serpentine(15))
def test_detect_matches_bfs_oracle(grid):
    """Every field of every detection equals the one built from the
    breadth-first oracle's largest component, the first in scan order among
    equals."""
    labels = np.array(grid, dtype=np.int64)
    side = labels.shape[0]
    want = []
    for value in range(1, 5):
        comps = connected_components(labels == value)
        if not comps:
            continue
        best = max(comps, key=len)  # max keeps the first of equal keys
        rows = [r for r, _ in best]
        cols = [c for _, c in best]
        box = BoundingBox(min(cols) / side, min(rows) / side,
                          (max(cols) + 1) / side, (max(rows) + 1) / side)
        centroid = ((np.mean(cols) + 0.5) / side, (np.mean(rows) + 0.5) / side)
        want.append(Detection(index=value - 1, box=box, area=len(best),
                              centroid=centroid))
    assert detect_regions(labels) == want


# Stacks of 1-7 label grids of one side (1-16), with labels 0 to a drawn top
# label of 1-4.
LABEL_STACKS = st.tuples(st.integers(1, 7), st.integers(1, 16),
                         st.integers(1, 4)).flatmap(
    lambda shape: arrays(np.int64, (shape[0], shape[1], shape[1]),
                         elements=st.integers(0, shape[2])))


@settings(max_examples=200, deadline=None)
@given(LABEL_STACKS)
def test_stacked_detections_equal_each_grids_own(stack):
    """The stacked labeller and detections give every grid of a stack what
    ``detect_regions`` gives it alone, so no component crosses from one
    grid into the next."""
    assert evaluate._detect(stack) == [detect_regions(grid) for grid in stack]


@pytest.mark.parametrize("labels, error", [
    (np.zeros((3, 2), dtype=np.int64), ShapeError),
    (np.zeros((2, 3), dtype=np.int64), ShapeError),
    (np.zeros(4, dtype=np.int64), ShapeError),
    (np.zeros((2, 2, 2), dtype=np.int64), ShapeError),
    (np.array([[0, 1], [-1, 0]]), ContractError),
    (np.ones((2, 2)), ContractError),
    (np.ones((2, 2), dtype=bool), ContractError),
], ids=["3x2", "2x3", "1-D", "3-D", "negative", "float", "bool"])
def test_detect_rejects_a_grid_that_is_not_square_nonnegative_ints(labels,
                                                                   error):
    with pytest.raises(error):
        detect_regions(labels)


def test_detect_rejects_nested_list_labels():
    with pytest.raises(ShapeError, match="labels must be an np.ndarray"):
        detect_regions([[0, 1], [1, 0]])


def test_report_json_equals_asdict_of_the_report():
    report = run_benchmark(_mini_suite(), GuidanceConfig(guided_steps=1),
                           BackboneConfig(), seeds=[0], gamma_sweep=[5.0])
    assert report.to_json() == json.dumps(asdict(report), indent=2)


def test_iou_cases():
    a = BoundingBox(0.0, 0.0, 0.5, 1.0)
    assert iou(a, a) == 1.0
    b = BoundingBox(0.5, 0.0, 1.0, 1.0)
    assert iou(a, b) == 0.0
    c = BoundingBox(0.25, 0.0, 0.75, 1.0)
    assert abs(iou(a, c) - 1.0 / 3.0) <= 1e-12
    assert iou(a, c) == iou(c, a)


def test_iou_bounds_and_identity():
    rng = np.random.default_rng(4)
    for _ in range(50):
        x0, y0 = rng.uniform(0, 0.5, 2)
        a = BoundingBox(x0, y0, x0 + rng.uniform(0.1, 0.5), y0 + rng.uniform(0.1, 0.5))
        x0b, y0b = rng.uniform(0, 0.5, 2)
        b = BoundingBox(x0b, y0b, x0b + rng.uniform(0.1, 0.5), y0b + rng.uniform(0.1, 0.5))
        v = iou(a, b)
        assert 0.0 <= v <= 1.0
        assert (v == 1.0) == (a == b)


def test_layout_metrics_perfect_and_missing():
    attn = boxed_attention(LAYOUT)
    labels = decode_labels(attn, LAYOUT)
    dets = detect_regions(labels)
    metrics = layout_metrics(dets, LAYOUT, attn)
    assert metrics.all_correct
    assert all(o.iou == 1.0 for o in metrics.objects)
    assert metrics.relations_total == 1 and metrics.relations_correct == 1

    missing = layout_metrics([d for d in dets if d.index == 0], LAYOUT, attn)
    assert not missing.all_correct
    assert missing.objects[1].detected is False
    assert missing.objects[1].iou == 0.0
    # relation with an undetected endpoint counts as incorrect
    assert missing.relations_correct == 0


def test_relation_antisymmetry():
    layout = parse_layout("""{
      "prompt": "cat beside dog",
      "objects": [
        {"phrase": "cat", "box": [0.0, 0.0, 0.5, 1.0]},
        {"phrase": "dog", "box": [0.5, 0.0, 1.0, 1.0]}
      ],
      "relations": [{"a": 0, "b": 1, "kind": "left"}, {"a": 1, "b": 0, "kind": "right"}]
    }""")
    attn = boxed_attention(layout)
    dets = detect_regions(decode_labels(attn, layout))
    metrics = layout_metrics(dets, layout, attn)
    # left(a, b) and right(b, a) agree on the same detections
    assert metrics.relations_correct in (0, 2)


def test_cross_box_mass_rows():
    attn = boxed_attention(LAYOUT)
    metrics = layout_metrics(detect_regions(decode_labels(attn, LAYOUT)),
                             LAYOUT, attn)
    cross = np.array(metrics.cross_box_mass)
    assert cross.shape == (2, 2)
    assert cross[0, 0] > 0.9 and cross[1, 1] > 0.9
    assert cross[0, 1] < 0.05 and cross[1, 0] < 0.05


def test_cross_box_mass_ties_the_per_pair_formula():
    """The one-product cross mass has the bits of the per-pair sums, on maps
    with exact zeros and on a phrase whose token column is all zero."""
    layout = parse_layout("""{
      "prompt": "red cup left of hat near dog",
      "objects": [
        {"phrase": "red cup", "box": [0.0, 0.0, 0.5, 0.75]},
        {"phrase": "hat", "box": [0.25, 0.125, 0.875, 0.5]},
        {"phrase": "dog", "box": [0.5, 0.25, 1.0, 1.0]}
      ]
    }""")
    hat = layout.phrases[1].span[0]
    flats = [rasterize_box(b).reshape(-1).astype(np.float64)
             for b in layout.boxes]
    rng = np.random.default_rng(3)
    for _ in range(20):
        attn = rng.standard_normal((256, 9)) ** 2 * 10.0 ** rng.integers(
            -8, 8, (256, 9))
        attn[rng.random(attn.shape) < 0.3] = 0.0
        attn[:, hat] = 0.0
        maps = object_maps(attn, layout)
        want = np.array([[np.sum(maps[i] * flats[j])
                          / max(np.sum(maps[i]), 1e-12) for j in range(3)]
                         for i in range(3)])
        got = np.array(layout_metrics([], layout, attn).cross_box_mass)
        assert got.tobytes() == want.tobytes()
        assert not got[1].any()


def test_arm_configs():
    cfg = GuidanceConfig()
    assert arm_config(cfg, "none").guided_steps == 0
    wo = arm_config(cfg, "lac_wo_norm")
    assert wo.alpha == 0.0 and wo.lac_normalize is False
    assert arm_config(cfg, "lac").alpha == 0.0
    assert arm_config(cfg, "lac_ptc") == cfg
    with pytest.raises(ContractError):
        arm_config(cfg, "bogus")


def test_cross_mass_probe_contracts():
    layout = single_object_layout()
    with pytest.raises(ContractError):
        cross_mass_probe(layout, GuidanceConfig(), BackboneConfig(), 0)
    with pytest.raises(ContractError, match="guided step"):
        cross_mass_probe(LAYOUT, GuidanceConfig(guided_steps=0),
                         BackboneConfig(), 0)
    value = cross_mass_probe(LAYOUT, GuidanceConfig(), BackboneConfig(), 0)
    assert np.isfinite(value) and value > 0


def _mini_suite(names=("pair_cat_dog", "fusion_cup_hat")):
    bundled = dict(load_suite(bundled_suite_dir()))
    return [(name, bundled[name]) for name in names]


def test_benchmark_report_structure_and_consistency():
    suite = _mini_suite()
    report = run_benchmark(suite, GuidanceConfig(), BackboneConfig(),
                           seeds=[0], gamma_sweep=[5.0, 30.0])
    assert report.arms == ARMS
    assert len(report.records) == len(suite) * 1 * len(ARMS)
    assert len(report.gamma_sweep) == 2
    for record in report.records:
        assert {"layout", "seed", "arm", "gamma", "all_correct", "mean_iou",
                "objects", "relations_total", "relations_correct",
                "cross_box_mass", "loss_curve"} <= set(record)
    # aggregates are recomputable from the records
    for arm in ARMS:
        subset = [r for r in report.records if r["arm"] == arm]
        assert report.aggregates[arm] == aggregate_records(subset)
    # deterministic end to end
    again = run_benchmark(suite, GuidanceConfig(), BackboneConfig(),
                          seeds=[0], gamma_sweep=[5.0, 30.0])
    assert again.to_json() == report.to_json()


def test_benchmark_rejects_empty_suite():
    with pytest.raises(ContractError):
        run_benchmark([], GuidanceConfig(), BackboneConfig(), seeds=[0])


def test_benchmark_report_matches_golden_file():
    """Field names and values are pinned; regenerate the golden only on a
    deliberate format or calibration change."""
    from pathlib import Path

    suite = _mini_suite(("pair_cat_dog",))
    report = run_benchmark(suite, GuidanceConfig(), BackboneConfig(), seeds=[0])
    golden = Path(__file__).parent / "data" / "bench_mini_golden.json"
    assert report.to_json() + "\n" == golden.read_text()


def test_bundled_suite_composition():
    suite = load_suite(bundled_suite_dir())
    assert len(suite) == 24
    counts = sorted({layout.k for _, layout in suite})
    assert counts == [2, 3, 4]
    assert sum(name.startswith("fusion_") for name, _ in suite) >= 6
    assert sum(bool(layout.relations) for _, layout in suite) >= 8
    assert any(len(p.span) > 1 for _, layout in suite for p in layout.phrases)


def _permuted_objects(doc, order):
    """A layout document whose object j is ``doc``'s object ``order[j]``,
    with its relations re-indexed to match."""
    new = {old: j for j, old in enumerate(order)}
    return {**doc, "objects": [doc["objects"][i] for i in order],
            "relations": [{**r, "a": new[r["a"]], "b": new[r["b"]]}
                          for r in doc.get("relations", [])]}


def _objects_permuted(record, order):
    """A record with its object scores and cross-box masses indexed in the
    object order of ``_permuted_objects(doc, order)``."""
    mass = record["cross_box_mass"]
    return {**record,
            "objects": [{**record["objects"][i], "index": j}
                        for j, i in enumerate(order)],
            "cross_box_mass": [[mass[i][l] for l in order] for i in order]}


def _suite_docs():
    return {path.stem: json.loads(path.read_text())
            for path in sorted(bundled_suite_dir().glob("*.json"))}


def test_records_do_not_depend_on_the_object_order():
    """Reversing each suite layout's objects, with its relations re-indexed,
    only permutes each record's object scores: discrete fields are equal
    and floats (loss curves, IoUs, masses) tie at the output tolerance. One
    seed; each stack runs the default and lac_wo_norm configs among its
    arms. No oracle is involved, so this ties the closed form's index
    plumbing (selector columns, box rows, peaks, relations) on its own."""
    docs = _suite_docs()

    def records(order):
        """The records with each layout's k objects in ``order(k)``."""
        suite = [(name, layout_from_dict(
                     _permuted_objects(doc, order(len(doc["objects"])))))
                 for name, doc in docs.items()]
        return run_benchmark(suite, GuidanceConfig(), BackboneConfig(),
                             seeds=[0]).records

    reverse = [_objects_permuted(r, range(len(r["objects"]))[::-1])
               for r in records(range)]
    diff = compare(records(lambda k: range(k)[::-1]), reverse)
    assert diff.within(), diff.verdict()
    assert diff.floats > 0


@functools.cache
def _permuted_records(name, order, seed):
    """One seed's records of suite layout ``name`` with its objects in
    ``order`` (as ``_permuted_objects``)."""
    layout = layout_from_dict(_permuted_objects(_suite_docs()[name], order))
    return run_benchmark([(name, layout)], GuidanceConfig(), BackboneConfig(),
                         seeds=[seed]).records


@st.composite
def _suite_permutations(draw):
    """A suite layout's name and a permutation of its objects."""
    name, doc = draw(st.sampled_from(sorted(_suite_docs().items())))
    return name, tuple(draw(st.permutations(range(len(doc["objects"])))))


@settings(max_examples=20, deadline=None)
@given(problem=_suite_permutations(), seed=st.integers(0, 1))
def test_records_do_not_depend_on_a_drawn_object_order(problem, seed):
    """Any permutation of a suite layout's objects, with its relations
    re-indexed, only permutes each record's object scores, as the reversal
    above does. A reversal cannot tell object i's divisor from object
    k - 1 - i's; a drawn permutation of three or four objects can."""
    name, order = problem
    base = _permuted_records(name, tuple(sorted(order)), seed)
    diff = compare(_permuted_records(name, order, seed),
                   [_objects_permuted(r, order) for r in base])
    assert diff.within(), diff.verdict()
    assert diff.floats > 0


_MIRRORED = {"left": "right", "right": "left", "above": "below",
             "below": "above"}


def test_records_do_not_depend_on_how_a_relation_is_stated():
    """Stating each suite relation from its other end, ``left(a, b)`` as
    ``right(b, a)`` and ``above(a, b)`` as ``below(b, a)``, leaves every
    record equal, ``relations_correct`` included. One seed, all arms."""
    docs = _suite_docs()

    def mirrored(doc):
        return {**doc, "relations": [
            {"a": r["b"], "b": r["a"], "kind": _MIRRORED[r["kind"]]}
            for r in doc.get("relations", [])]}

    def records(edit):
        suite = [(name, layout_from_dict(edit(doc)))
                 for name, doc in docs.items()]
        return run_benchmark(suite, GuidanceConfig(), BackboneConfig(),
                             seeds=[0]).records

    stated = records(lambda doc: doc)
    assert records(mirrored) == stated
    # Both outcomes occur, so a relation test that flips either shows.
    assert 0 < sum(r["relations_correct"] for r in stated) < sum(
        r["relations_total"] for r in stated)


def test_benchmark_records_equal_solo_runs_and_equal_configs_run_once(
        monkeypatch):
    """One stacked run per (layout, seed) holds every distinct config once
    (the gamma-30 sweep point is the lac_ptc arm), and every record equals
    the one a solo ``guided_sample`` run of its config gives."""
    stacks = []

    def recording(plan, z0, draws, cfgs, backbone):
        stacks.append(list(cfgs))
        yield from _trajectories(plan, z0, draws, cfgs, backbone)

    monkeypatch.setattr(evaluate, "_trajectories", recording)
    suite, seeds, sweep = _mini_suite(), [0, 1], [5.0, 30.0]
    cfg, backbone = GuidanceConfig(), BackboneConfig()
    report = run_benchmark(suite, cfg, backbone, seeds, gamma_sweep=sweep)

    groups = [(arm, arm_config(cfg, arm)) for arm in ARMS]
    groups += [("gamma_sweep", GuidanceConfig(gamma=g)) for g in sweep]
    distinct = [gcfg for _, gcfg in groups[1:-1] + groups[:1]]
    assert stacks == [distinct] * (len(suite) * len(seeds))

    def solo_records(label, gcfg):
        records = []
        for name, layout in suite:
            for seed in seeds:
                run = guided_sample(layout, gcfg, backbone, seed)
                metrics, _ = _evaluate(layout, run.final_attention)
                curve = {key: [getattr(bd, key) for bd in run.loss_curve()]
                         for key in ("lac", "ptc", "total")}
                records.append(_record(name, seed, label, gcfg, curve,
                                       metrics))
        return records

    solo = [solo_records(label, gcfg) for label, gcfg in groups]
    arms = len(ARMS)
    assert report.records == sum(solo[:arms], [])
    assert report.gamma_sweep == [
        {"gamma": gcfg.gamma, **aggregate_records(records)}
        for (_, gcfg), records in zip(groups[arms:], solo[arms:])]


def test_benchmark_reads_seeds_once():
    suite = _mini_suite()
    listed = run_benchmark(suite, GuidanceConfig(guided_steps=1),
                           BackboneConfig(), seeds=[0, 2])
    generated = run_benchmark(suite, GuidanceConfig(guided_steps=1),
                              BackboneConfig(), seeds=(s for s in (0, 2)))
    assert generated.seeds == (0, 2)
    assert generated.to_json() == listed.to_json()
    with pytest.raises(ContractError, match="at least one seed"):
        run_benchmark(suite, GuidanceConfig(), BackboneConfig(), seeds=[])


@pytest.mark.parametrize("seed", [-1, True, 2.5, "3", Seeds.from_master(0)])
def test_benchmark_rejects_bad_seeds(seed):
    with pytest.raises(ContractError, match="seed must be"):
        run_benchmark(_mini_suite(), GuidanceConfig(), BackboneConfig(),
                      seeds=[seed])


@pytest.mark.parametrize("seeds", [5, None, 2.5, "03", b"03"])
def test_benchmark_rejects_scalar_or_text_seeds(seeds):
    with pytest.raises(ContractError, match="seeds must be"):
        run_benchmark(_mini_suite(), GuidanceConfig(), BackboneConfig(),
                      seeds=seeds)


@pytest.mark.parametrize("cfg", [
    GuidanceConfig(), GuidanceConfig(guided_steps=3, iterations_per_step=2)])
def test_benchmark_makes_one_loss_call_per_guided_iteration(cfg, monkeypatch):
    """All guided arms and sweep points of a (layout, seed), lac_wo_norm
    among them, share each iteration's one stacked loss call."""
    calls = []

    def counting(plan, a, cfgs, *args, **kwargs):
        calls.append(len(cfgs))
        return _loss_and_grad(plan, a, cfgs, *args, **kwargs)

    monkeypatch.setattr(guidance, "_loss_and_grad", counting)
    run_benchmark(_mini_suite(("pair_cat_dog",)), cfg, BackboneConfig(),
                  seeds=[0], gamma_sweep=[5.0, 300.0])
    assert calls == [5] * (cfg.guided_steps * cfg.iterations_per_step)


def test_benchmark_scores_each_layout_and_seed_stack_once(monkeypatch):
    """Every (layout, seed) stack of final attention, one item per distinct
    config, is scored in one call of the scoring core."""
    calls, real = [], evaluate._score

    def counting(layout, a, sel, flats):
        calls.append((layout, a.shape[0]))
        return real(layout, a, sel, flats)

    monkeypatch.setattr(evaluate, "_score", counting)
    suite = _mini_suite()
    run_benchmark(suite, GuidanceConfig(guided_steps=1), BackboneConfig(),
                  seeds=[0, 1], gamma_sweep=[5.0, 300.0])
    assert calls == [(layout, 6) for _ in (0, 1) for _, layout in suite]


@pytest.mark.parametrize("sweep", ["12", b"12", [True], ["a"], [5.0, None],
                                   5.0, 5, True])
def test_benchmark_rejects_bad_gamma_sweep(sweep):
    with pytest.raises(ContractError, match="gamma_sweep"):
        run_benchmark(_mini_suite(), GuidanceConfig(), BackboneConfig(),
                      seeds=[0], gamma_sweep=sweep)


@pytest.mark.parametrize("gamma", [10 ** 400, -10 ** 400],
                         ids=["1e400", "-1e400"])
def test_benchmark_rejects_a_gamma_beyond_float_range(gamma):
    """float() of such an int once raised a raw OverflowError."""
    with pytest.raises(ContractError, match="gamma_sweep"):
        run_benchmark(_mini_suite(), GuidanceConfig(), BackboneConfig(),
                      seeds=[0], gamma_sweep=[5, gamma])


def test_benchmark_draws_the_noise_once_per_seed_and_timestep(monkeypatch):
    real, states = np.random.Generator, []

    class Counting:
        """The engine's noise generator, which notes its state at each
        draw: the state names the seed the draw was made from."""

        def __init__(self, bits):
            self.bit_generator, self.rng = bits, real(bits)

        def standard_normal(self, shape):
            states.append(self.bit_generator.state)
            return self.rng.standard_normal(shape)

    monkeypatch.setattr(np.random, "Generator", Counting)
    backbone = BackboneConfig()
    suite = load_suite(bundled_suite_dir())
    run_benchmark(suite, GuidanceConfig(guided_steps=1), backbone, seeds=[3])
    # 51, where one draw per layout and timestep would make 24 x 51 = 1224,
    # each from the generator SeedSequence([run seed, 1, t]) seeds.
    latent = Seeds.from_master(3).latent
    assert states == [
        np.random.PCG64(np.random.SeedSequence([latent, 1, t])).state
        for t in range(backbone.total_steps, 0, -1)]


def test_benchmark_records_stay_layout_major_across_seeds():
    report = run_benchmark(_mini_suite(), GuidanceConfig(guided_steps=1),
                           BackboneConfig(), seeds=[2, 0])
    assert [(r["arm"], r["layout"], r["seed"]) for r in report.records] == [
        (arm, name, seed) for arm in ARMS
        for name in ("pair_cat_dog", "fusion_cup_hat") for seed in (2, 0)]


def test_cross_mass_probe_leaves_the_start_latent_unchanged(monkeypatch):
    starts = []

    def recording(*args):
        plan, state = guidance._setup(*args)
        starts.append((state, state.z.copy()))
        return plan, state

    monkeypatch.setattr(evaluate, "_setup", recording)
    cross_mass_probe(LAYOUT, GuidanceConfig(), BackboneConfig(), 0)
    (state, before), = starts
    assert state.z.tobytes() == before.tobytes()


def test_cross_mass_probe_averages_five_distinct_attention_arrays(
        monkeypatch):
    """The probe's attention forwards, counted at the softmax every one of
    them runs, are the guided step's one per inner iteration, each its own
    array: none is a view of a reused buffer."""
    seen = []
    original = guidance._softmax

    def recording(*args):
        out = original(*args)
        seen.append(out)
        return out

    monkeypatch.setattr(guidance, "_softmax", recording)
    cross_mass_probe(LAYOUT, GuidanceConfig(), BackboneConfig(), 0)
    assert len(seen) == GuidanceConfig().iterations_per_step == 5
    for i, a in enumerate(seen):
        for b in seen[i + 1:]:
            assert not np.shares_memory(a, b)
            assert not np.array_equal(a, b)
