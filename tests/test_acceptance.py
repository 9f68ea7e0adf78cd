"""Acceptance criteria, one test per criterion, at pinned tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line
per criterion. The benchmark-backed criteria share one report fixture so
the whole module stays inside the stated runtime budgets.
"""

import time
from dataclasses import replace

import numpy as np
import pytest

from loco.backbone import BackboneConfig, cross_attention
from loco.cli import main
from loco.diffmath import Tape
from loco.evaluate import cross_mass_probe, run_benchmark
from loco.guidance import (GuidanceConfig, _Stack, _attention, _breakdowns,
                           _guided_step, _loss_and_grad, _setup,
                           gradient_check, guided_sample, lac_loss, loco_loss,
                           ptc_maps, update_latent)
from loco.layout import parse_layout, rasterize_box
from loco.suite import bundled_suite_dir, load_suite
from test_guidance import (assert_values_close, make_attention, projections,
                           uniform_attention)

BCFG = BackboneConfig()
GCFG = GuidanceConfig()
SUITE_SEEDS = range(5)


def shipped_terms(plan, values, cfg):
    """The guided loop's loss terms (lac, ptc, total, in-box fractions) at
    one (q, n) attention array, as ``_guided_step`` computes them."""
    _, terms = _loss_and_grad(plan, values.T[None], _Stack.of(plan, [cfg]),
                              with_grad=False)
    return [x[0] for x in terms[:4]]


@pytest.fixture(scope="module")
def bench():
    suite = load_suite(bundled_suite_dir())
    start = time.perf_counter()
    report = run_benchmark(suite, GCFG, BCFG, seeds=SUITE_SEEDS,
                           gamma_sweep=[1.0, 5.0, 30.0, 300.0])
    elapsed = time.perf_counter() - start
    return report, elapsed


def test_criterion_1_gradient_correctness():
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst = 0.0
    checks = 0
    for i in range(20):
        content = int(rng.integers(2, 7))  # 4 to 8 tokens with SoT/EoT
        objects = int(rng.integers(1, min(content, 2) + 1))
        for detach in (False, True):
            result = gradient_check(1000 + i, resolution=8,
                                    content_words=content, n_objects=objects,
                                    detach_norms=detach)
            worst = max(worst, result.max_rel_error)
            checks += 1
    elapsed = time.perf_counter() - start
    assert checks >= 40
    assert worst <= 1e-4
    assert elapsed < 30.0
    print(f"ACCEPTANCE 1 PASS: {checks} gradient checks, "
          f"max rel err {worst:.2e} <= 1e-4, {elapsed:.1f}s < 30s")


def test_criterion_2_closed_form_lac():
    layout = parse_layout("""{
      "prompt": "cat sits",
      "objects": [{"phrase": "cat", "box": [0.0, 0.0, 0.5, 0.5]}]
    }""")
    mask = rasterize_box(layout.boxes[0])
    assert mask.sum() == 64
    plan, _ = _setup(layout, BCFG, 0)

    uniform = float(shipped_terms(plan, uniform_attention(4), GCFG)[0])
    assert abs(uniform - 0.5625) <= 1e-12
    assert uniform == float(lac_loss(make_attention(uniform_attention(4)),
                                     layout, [mask]).value)

    values = np.full((256, 4), 1e-9)
    inside = mask.reshape(-1).astype(bool)
    values[inside, 1] = 0.9
    values[~inside, 1] = 0.0
    contained = float(shipped_terms(plan, values, GCFG)[0])
    assert contained <= 1e-9
    assert contained == float(lac_loss(make_attention(values), layout,
                                       [mask]).value)
    print(f"ACCEPTANCE 2 PASS: uniform-case loss {uniform!r} "
          f"(target 0.5625 +- 1e-12), in-box case {contained:.1e} <= 1e-9")


def test_criterion_3_descent():
    layout = parse_layout("""{
      "prompt": "cat beside dog",
      "objects": [
        {"phrase": "cat", "box": [0.0625, 0.125, 0.4375, 0.875]},
        {"phrase": "dog", "box": [0.5625, 0.125, 0.9375, 0.875]}
      ]
    }""")
    masks = [rasterize_box(b) for b in layout.boxes]
    # One guided iteration at gamma * lambda = 0.1.
    one_step = replace(GCFG, gamma=0.1, guided_steps=1, iterations_per_step=1)
    descended = 0
    trials = 100
    for trial in range(trials):
        plan, state = _setup(layout, BCFG, trial)
        after = state.z[None].copy()
        [(_, terms)] = _guided_step(after, 0, plan, [one_step])
        before = float(terms.total[0])
        recomputed = shipped_terms(plan, _attention(plan, after)[0].T, GCFG)[2]
        descended += recomputed < before

        # The same step on the tape.
        proj = projections(trial)
        tape = Tape()
        z = tape.leaf(state.z)
        attn = cross_attention(tape, z, plan.tokens, proj)
        loss, _ = loco_loss(attn, layout, masks, GCFG)
        grad = tape.backward(loss)[z]
        tape_after = update_latent(state, grad, 1.0, 0.1)
        tape2 = Tape()
        attn2 = cross_attention(tape2, tape2.constant(tape_after.z),
                                plan.tokens, proj)
        tape_recomputed, _ = loco_loss(attn2, layout, masks, GCFG)
        assert_values_close(before, float(loss.value))
        assert_values_close(after[0], tape_after.z)
        assert_values_close(recomputed, float(tape_recomputed.value))
    assert descended >= 95
    print(f"ACCEPTANCE 3 PASS: descent in {descended}/{trials} trials >= 95")


def test_criterion_4_guidance_efficacy_ordering(bench):
    report, elapsed = bench
    acc = {arm: report.aggregates[arm]["accuracy"] for arm in report.arms}
    assert acc["lac_ptc"] >= acc["lac"] >= acc["none"]
    assert acc["lac_ptc"] - acc["none"] >= 30.0
    assert elapsed < 300.0
    print(f"ACCEPTANCE 4 PASS: accuracy lac_ptc {acc['lac_ptc']:.1f}% >= "
          f"lac {acc['lac']:.1f}% >= none {acc['none']:.1f}%, gap "
          f"{acc['lac_ptc'] - acc['none']:.1f}pp >= 30pp, bench {elapsed:.0f}s < 300s")


def test_criterion_5_fusion_prevention():
    suite = load_suite(bundled_suite_dir())
    fusion = [(name, layout) for name, layout in suite
              if name.startswith("fusion_")]
    assert len(fusion) >= 6
    lower = 0
    pairs = 0
    without_ptc = replace(GCFG, alpha=0.0)
    for _, layout in fusion:
        for seed in range(10):
            with_mass = cross_mass_probe(layout, GCFG, BCFG, seed)
            wo_mass = cross_mass_probe(layout, without_ptc, BCFG, seed)
            pairs += 1
            lower += with_mass < wo_mass
    rate = lower / pairs
    assert rate >= 0.80
    print(f"ACCEPTANCE 5 PASS: cross-box mass strictly lower with the "
          f"padding-token loss in {lower}/{pairs} pairs = {rate:.0%} >= 80%")


def test_criterion_6_gamma_sweep_shape(bench):
    report, _ = bench
    gammas = [entry["gamma"] for entry in report.gamma_sweep]
    ious = [entry["mean_iou"] for entry in report.gamma_sweep]
    assert gammas == [1.0, 5.0, 30.0, 300.0]
    peak = int(np.argmax(ious))
    assert 0 < peak < len(ious) - 1  # maximum not at either endpoint
    assert all(ious[i] < ious[i + 1] for i in range(peak))  # rises
    assert all(ious[i] > ious[i + 1] for i in range(peak, len(ious) - 1))  # falls
    pretty = ", ".join(f"{g:g}: {v:.3f}" for g, v in zip(gammas, ious))
    print(f"ACCEPTANCE 6 PASS: mean IoU rises then falls ({pretty}), "
          f"peak at gamma={gammas[peak]:g}")


def test_criterion_7_determinism(tmp_path):
    layout = bundled_suite_dir() / "pair_cat_dog.json"
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["generate", "--layout", str(layout), "--out", str(out_a),
                 "--seed", "11"]) == 0
    assert main(["generate", "--layout", str(layout), "--out", str(out_b),
                 "--seed", "11"]) == 0
    files_a = sorted(p.name for p in out_a.iterdir())
    files_b = sorted(p.name for p in out_b.iterdir())
    assert files_a == files_b
    for name in files_a:
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()
    assert any(name.endswith(".pgm") for name in files_a)
    print(f"ACCEPTANCE 7 PASS: two identical runs produced byte-identical "
          f"artifacts ({len(files_a)} files incl. PGM heatmaps)")


def test_criterion_8_endpoint_checks():
    layout = parse_layout("""{
      "prompt": "cat beside dog",
      "objects": [
        {"phrase": "cat", "box": [0.0625, 0.125, 0.4375, 0.875]},
        {"phrase": "dog", "box": [0.5625, 0.125, 0.9375, 0.875]}
      ]
    }""")
    masks = [rasterize_box(b) for b in layout.boxes]
    plan, _ = _setup(layout, BCFG, 0)
    rng = np.random.default_rng(42)
    values = rng.dirichlet(np.ones(5), size=256)

    no_ptc = replace(GCFG, alpha=0.0)
    _, terms = _loss_and_grad(plan, values.T[None],
                              _Stack.of(plan, [no_ptc]), with_grad=False)
    [shipped] = _breakdowns(terms)
    assert shipped.total == shipped.lac  # exact float equality
    _, breakdown = loco_loss(make_attention(values), layout, masks, no_ptc)
    assert shipped == breakdown

    # beta endpoints depend on exactly one padding-token map
    eot_perturbed = values.copy()
    eot_perturbed[:, -1] = rng.random(256)
    sot_perturbed = values.copy()
    sot_perturbed[:, 0] = rng.random(256)
    for beta, perturbed in ((1.0, eot_perturbed), (0.0, sot_perturbed)):
        cfg = replace(GCFG, beta=beta)
        base = shipped_terms(plan, values, cfg)
        moved = shipped_terms(plan, perturbed, cfg)
        assert all(np.array_equal(a, b) for a, b in zip(base, moved))
        assert np.array_equal(ptc_maps(make_attention(values), beta=beta).value,
                              ptc_maps(make_attention(perturbed),
                                       beta=beta).value)
    print("ACCEPTANCE 8 PASS: alpha=0 total equals the in-box loss exactly; "
          "beta endpoints ignore the unused padding map bit-for-bit")


def test_criterion_9_invariant_suite(bench):
    layout = parse_layout((bundled_suite_dir() / "pair_bird_car.json").read_text())
    for seed in range(3):
        run = guided_sample(layout, GCFG, BCFG, seed)
        for step in run.steps:
            assert np.max(np.abs(step.attention.sum(axis=1) - 1.0)) <= 1e-12
        final = run.final_attention
        assert np.max(np.abs(final.sum(axis=1) - 1.0)) <= 1e-12

    report, _ = bench
    lac_values = [v for record in report.records
                  for v in record["loss_curve"]["lac"]]
    assert lac_values, "benchmark must record guided iterations"
    assert all(0.0 <= v <= 1.0 for v in lac_values)
    print(f"ACCEPTANCE 9 PASS: attention rows stochastic at every step; "
          f"in-box loss within [0, 1] across {len(lac_values)} recorded "
          f"iterations")
