"""Label decoding, detection, metrics, and the benchmark harness."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from loco.backbone import BackboneConfig, Seeds
from loco.diffmath import ContractError, ShapeError
from loco import evaluate, guidance
from loco.evaluate import (ARMS, Detection, _evaluate, _record,
                           aggregate_records, arm_config, cross_mass_probe, decode_labels,
                           detect_regions, iou, layout_metrics, run_benchmark)
from loco.guidance import (GuidanceConfig, _loss_and_grad, _trajectories,
                           guided_sample)
from loco.layout import BoundingBox, parse_layout, rasterize_box
from loco.suite import bundled_suite_dir, load_suite

from oracles import connected_components

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
    labels = decode_labels(values, layout, tau=0.5)
    assert np.array_equal((labels == 1).astype(np.uint8), mask)


def test_decode_tau_bounds():
    layout = single_object_layout()
    values = np.full((256, 4), 0.25)
    with pytest.raises(ContractError):
        decode_labels(values, layout, tau=0.0)
    with pytest.raises(ContractError):
        decode_labels(values, layout, tau=1.0)


def test_decode_tau_near_one_keeps_only_peaks():
    rng = np.random.default_rng(0)
    values = rng.dirichlet(np.ones(5), size=256)
    labels = decode_labels(values, LAYOUT, tau=1.0 - 1e-9)
    assert np.count_nonzero(labels) <= LAYOUT.k


def test_decode_tau_near_zero_has_no_background():
    rng = np.random.default_rng(1)
    values = rng.dirichlet(np.ones(5), size=256)
    labels = decode_labels(values, LAYOUT, tau=1e-12)
    assert np.count_nonzero(labels) == 256


def test_decode_matches_per_cell_argmax_oracle():
    rng = np.random.default_rng(2)
    values = rng.dirichlet(np.ones(5), size=256)
    tau = 0.3
    labels = decode_labels(values, LAYOUT, tau=tau)

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


def test_benchmark_records_equal_solo_runs_and_equal_configs_run_once(
        monkeypatch):
    """One stacked run per (layout, seed) holds every distinct config once
    (the gamma-30 sweep point is the lac_ptc arm), and every record equals
    the one a solo ``guided_sample`` run of its config gives."""
    stacks = []

    def recording(plan, z0, draws, cfgs, backbone, keep_steps=False):
        stacks.append(list(cfgs))
        return _trajectories(plan, z0, draws, cfgs, backbone, keep_steps)

    monkeypatch.setattr(evaluate, "_trajectories", recording)
    suite, seeds, sweep = _mini_suite(), [0, 1], [5.0, 30.0]
    cfg, backbone = GuidanceConfig(), BackboneConfig()
    report = run_benchmark(suite, cfg, backbone, seeds, gamma_sweep=sweep)

    groups = [(arm, arm_config(cfg, arm)) for arm in ARMS]
    groups += [("gamma_sweep", GuidanceConfig(gamma=g)) for g in sweep]
    distinct = [gcfg for _, gcfg in groups[:-1]]
    assert stacks == [distinct] * (len(suite) * len(seeds))

    def solo_records(label, gcfg):
        records = []
        for name, layout in suite:
            for seed in seeds:
                run = guided_sample(layout, gcfg, backbone, seed)
                metrics, _ = _evaluate(layout, run.final_attention)
                records.append(_record(name, seed, label, gcfg,
                                       run.loss_curve(), metrics))
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


@pytest.mark.parametrize("sweep", ["12", b"12", [True], ["a"], [5.0, None],
                                   5.0, 5, True])
def test_benchmark_rejects_bad_gamma_sweep(sweep):
    with pytest.raises(ContractError, match="gamma_sweep"):
        run_benchmark(_mini_suite(), GuidanceConfig(), BackboneConfig(),
                      seeds=[0], gamma_sweep=sweep)


def test_benchmark_draws_the_noise_once_per_seed_and_timestep(monkeypatch):
    real, noise_seeds = np.random.default_rng, []

    def counting(seed=None):
        if isinstance(seed, list) and len(seed) == 3:  # [run seed, 1, t]
            noise_seeds.append(tuple(seed))
        return real(seed)

    monkeypatch.setattr(np.random, "default_rng", counting)
    backbone = BackboneConfig()
    suite = load_suite(bundled_suite_dir())
    run_benchmark(suite, GuidanceConfig(guided_steps=1), backbone, seeds=[3])
    # 51, where one draw per layout and timestep would make 24 x 51 = 1224.
    latent = Seeds.from_master(3).latent
    assert noise_seeds == [(latent, 1, t)
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
    """The attention arrays the probe reads are one per inner iteration,
    each its own array: none is a view of a reused buffer."""
    seen = []

    def recording(*args):
        out = guidance._attention(*args)
        seen.append(out)
        return out

    monkeypatch.setattr(evaluate, "_attention", recording)
    cross_mass_probe(LAYOUT, GuidanceConfig(), BackboneConfig(), 0)
    assert len(seen) == GuidanceConfig().iterations_per_step == 5
    for i, a in enumerate(seen):
        for b in seen[i + 1:]:
            assert not np.shares_memory(a, b)
            assert not np.array_equal(a, b)
