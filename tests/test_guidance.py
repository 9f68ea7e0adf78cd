"""Loss chain: closed forms, endpoints, gradients, the sampling loop."""

import math
import re
import weakref
from dataclasses import replace
from functools import partial
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from loco.backbone import (BackboneConfig, Seeds,
                           build_projections, cross_attention, denoise_step,
                           effective_noise, embed_tokens, expected_latent_rms,
                           init_latent, value_matrix)
from loco import diffmath as dm
from loco.diffmath import ContractError, Tape
from loco.evaluate import ARMS, arm_config, run_benchmark
from loco import guidance
from loco.guidance import (BCE_CLAMP, EPS, FD_STEP, GuidanceConfig, _Stack,
                           _attention, _breakdowns, _central_losses,
                           _check_instance, _loss_and_grad,
                           _noise_draws, _setup, _to_latent, _trajectories,
                           gradient_check, guided_sample,
                           lac_loss, loco_loss, object_attention,
                           object_maps, ptc_loss, ptc_maps, schedule,
                           update_latent)
from loco.layout import Phrase, layout_from_dict, parse_layout, rasterize_box
from loco.suite import bundled_suite_dir, load_suite
from oracles import central_difference, rel_error

BCFG = BackboneConfig()

LAYOUT = parse_layout("""{
  "prompt": "cat beside dog",
  "objects": [
    {"phrase": "cat", "box": [0.0625, 0.125, 0.4375, 0.875]},
    {"phrase": "dog", "box": [0.5625, 0.125, 0.9375, 0.875]}
  ]
}""")
MASKS = [rasterize_box(b) for b in LAYOUT.boxes]


def make_attention(values):
    """Synthetic (q, n) attention maps as a leaf of a fresh tape."""
    return Tape().leaf(np.asarray(values, dtype=float))


def uniform_attention(n, q=256):
    return np.full((q, n), 1.0 / n)


# The closed form and the tape compute one function in different operation
# orders. They tie to these tolerances: gradients relative to their largest
# entry, attention, loss terms and latents absolute.
GRAD_RTOL = 1e-12
VALUE_ATOL = 1e-12


def assert_values_close(got, want):
    """Arrays or floats equal to ``VALUE_ATOL``, in shape and value."""
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    assert np.abs(got - want).max(initial=0.0) <= VALUE_ATOL


def assert_breakdowns_close(got, want):
    """Two loss curves equal to ``VALUE_ATOL``, term by term."""
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert_values_close([a.lac, a.ptc, a.total], [b.lac, b.ptc, b.total])
        assert_values_close(a.per_object_inbox_fraction,
                            b.per_object_inbox_fraction)


def test_config_validation():
    # The loop lengths' upper edges build; one past them does not.
    GuidanceConfig(guided_steps=BackboneConfig.total_steps,
                   iterations_per_step=1000)
    for bad in [dict(gamma=0.0), dict(alpha=-0.1), dict(beta=1.5),
                dict(guided_steps=-1), dict(iterations_per_step=0),
                dict(guided_steps=BackboneConfig.total_steps + 1),
                dict(iterations_per_step=1001),
                dict(gamma="30"), dict(guided_steps=2.5), dict(alpha=True),
                dict(iterations_per_step=None), dict(detach_norms=1),
                dict(gamma=math.nan), dict(gamma=math.inf),
                dict(gamma=10 ** 400), dict(alpha=math.nan),
                dict(alpha=math.inf)]:
        with pytest.raises(ContractError):
            GuidanceConfig(**bad)


def test_object_attention_single_token_is_column():
    rng = np.random.default_rng(0)
    values = rng.dirichlet(np.ones(7), size=256)
    attn = make_attention(values)
    layout = parse_layout("""{
      "prompt": "cat beside dog",
      "objects": [{"phrase": "dog", "box": [0.5, 0.0, 1.0, 1.0]}]
    }""")
    got = object_attention(attn, layout.phrases[0]).value[:, 0]
    assert np.allclose(got, values[:, 3], atol=1e-15)


def test_object_attention_multi_token_mean():
    rng = np.random.default_rng(1)
    values = rng.dirichlet(np.ones(6), size=256)
    attn = make_attention(values)
    layout = parse_layout("""{
      "prompt": "big red cat",
      "objects": [{"phrase": "red cat", "box": [0.0, 0.0, 1.0, 1.0]}]
    }""")
    got = object_attention(attn, layout.phrases[0]).value[:, 0]
    expected = np.array([(values[p, 2] + values[p, 3]) / 2 for p in range(256)])
    assert np.allclose(got, expected, atol=1e-15)

    same = make_attention(np.column_stack([values[:, 0], values[:, 1],
                                           values[:, 1], values[:, 3],
                                           values[:, 4], values[:, 5]]))
    got_same = object_attention(same, Phrase("x x", (1, 2)))
    assert np.allclose(got_same.value[:, 0], values[:, 1], atol=1e-15)


def test_object_maps_match_tape_maps():
    rng = np.random.default_rng(12)
    values = rng.dirichlet(np.ones(8), size=256)
    attn = make_attention(values)
    layout = parse_layout("""{
      "prompt": "a big red cat and dog",
      "objects": [{"phrase": "big red cat", "box": [0.0, 0.0, 0.5, 1.0]},
                  {"phrase": "dog", "box": [0.5, 0.0, 1.0, 1.0]}]
    }""")
    assert len(layout.phrases[0].span) == 3
    maps = object_maps(values, layout)
    assert maps.shape == (2, 256)
    for i, phrase in enumerate(layout.phrases):
        tape_map = object_attention(attn, phrase).value[:, 0]
        assert_values_close(maps[i], tape_map)


def _single_object_layout(box):
    return parse_layout(f"""{{
      "prompt": "cat sits",
      "objects": [{{"phrase": "cat", "box": {list(box)}}}]
    }}""")


def test_lac_uniform_attention_closed_form():
    # Uniform map, 64-cell mask: in-box share 0.25, loss (1 - 0.25)^2.
    layout = _single_object_layout([0.0, 0.0, 0.5, 0.5])
    mask = rasterize_box(layout.boxes[0])
    assert mask.sum() == 64
    attn = make_attention(uniform_attention(4))
    loss = lac_loss(attn, layout, [mask])
    assert abs(float(loss.value) - 0.5625) <= 1e-12


def test_lac_two_uniform_objects_closed_form():
    layout = parse_layout("""{
      "prompt": "cat beside dog",
      "objects": [
        {"phrase": "cat", "box": [0.0, 0.0, 0.5, 0.5]},
        {"phrase": "dog", "box": [0.5, 0.5, 1.0, 1.0]}
      ]
    }""")
    masks = [rasterize_box(b) for b in layout.boxes]
    assert [m.sum() for m in masks] == [64, 64]
    attn = make_attention(uniform_attention(5))
    loss = lac_loss(attn, layout, masks)
    assert abs(float(loss.value) - 0.5625) <= 1e-12


def test_lac_zero_when_fully_inside():
    layout = _single_object_layout([0.0, 0.0, 0.5, 0.5])
    mask = rasterize_box(layout.boxes[0])
    values = np.full((256, 4), 1e-9)
    inside = mask.reshape(-1).astype(bool)
    values[inside, 1] = 0.9
    values[~inside, 1] = 0.0  # all object mass inside the box
    loss = lac_loss(make_attention(values), layout, [mask])
    assert float(loss.value) <= 1e-9


def test_lac_in_unit_interval_and_scale_invariant():
    rng = np.random.default_rng(4)
    for _ in range(20):
        values = rng.dirichlet(np.ones(5), size=256)
        attn = make_attention(values)
        base = float(lac_loss(attn, LAYOUT, MASKS).value)
        assert 0.0 <= base <= 1.0
        scaled = values.copy()
        scaled[:, 2] *= 7.3  # rescale one object's map before normalization
        rescored = float(lac_loss(make_attention(scaled), LAYOUT, MASKS).value)
        assert abs(rescored - base) <= 1e-12


def test_lac_without_normalization_differs():
    rng = np.random.default_rng(6)
    values = rng.dirichlet(np.ones(5), size=256)
    attn = make_attention(values)
    with_norm = float(lac_loss(attn, LAYOUT, MASKS, normalize=True).value)
    without = float(lac_loss(attn, LAYOUT, MASKS, normalize=False).value)
    assert with_norm != without


def test_detach_norms_keeps_value_changes_gradient():
    rng = np.random.default_rng(8)
    z0 = rng.standard_normal((256, BCFG.d_z)) * 0.3
    tokens = embed_tokens(LAYOUT.prompt, 1, BCFG.d_e)
    proj = build_projections(BCFG, 2)

    results = {}
    for mode in (False, True):
        tape = Tape()
        z = tape.leaf(z0)
        attn = cross_attention(tape, z, tokens, proj)
        loss = lac_loss(attn, LAYOUT, MASKS, detach_norms=mode)
        results[mode] = (float(loss.value), tape.backward(loss)[z])
    assert results[False][0] == results[True][0]
    assert not np.array_equal(results[False][1], results[True][1])


def test_frozen_norms_match_detached_gradient():
    rng = np.random.default_rng(9)
    z0 = rng.standard_normal((256, BCFG.d_z)) * 0.3
    tokens = embed_tokens(LAYOUT.prompt, 1, BCFG.d_e)
    proj = build_projections(BCFG, 2)
    cfg = GuidanceConfig(detach_norms=True)

    tape = Tape()
    z = tape.leaf(z0)
    attn = cross_attention(tape, z, tokens, proj)
    loss, _ = loco_loss(attn, LAYOUT, MASKS, cfg)
    detached_grad = tape.backward(loss)[z]

    plan, _ = _setup(LAYOUT, BCFG, 0)
    frozen = _loss_and_grad(plan, attn.value.T[None], _Stack.of(plan, [cfg]),
                            with_grad=False)[1].peaks[0]
    tape2 = Tape()
    z2 = tape2.leaf(z0)
    attn2 = cross_attention(tape2, z2, tokens, proj)
    loss2, _ = loco_loss(attn2, LAYOUT, MASKS, cfg, frozen_norms=frozen)
    frozen_grad = tape2.backward(loss2)[z2]
    assert np.allclose(detached_grad, frozen_grad, atol=1e-15)


def test_held_target_structure():
    rng = np.random.default_rng(10)
    values = rng.dirichlet(np.ones(5), size=256)
    plan, _ = _setup(LAYOUT, BCFG, 0)
    target = _loss_and_grad(plan, values.T[None],
                            _Stack.of(plan, [GuidanceConfig()]),
                            with_grad=False)[1].target[0]
    assert target.shape == (256,)
    flats = np.stack([m.reshape(-1) for m in MASKS])
    masked = object_maps(values, LAYOUT) * flats
    assert np.array_equal(target, masked.max(axis=0))
    assert np.all(target[flats.sum(axis=0) == 0] == 0)
    assert np.all((target >= 0) & (target <= 1))


def test_ptc_maps_endpoints_use_one_map():
    rng = np.random.default_rng(11)
    values = rng.dirichlet(np.ones(5), size=256)

    base = ptc_maps(make_attention(values), beta=1.0).value
    bumped = values.copy()
    bumped[:, -1] = rng.dirichlet(np.ones(1) * 3, size=256)[:, 0]
    assert np.array_equal(base, ptc_maps(make_attention(bumped), beta=1.0).value)

    base0 = ptc_maps(make_attention(values), beta=0.0).value
    bumped0 = values.copy()
    bumped0[:, 0] = rng.random(256)
    assert np.array_equal(base0, ptc_maps(make_attention(bumped0), beta=0.0).value)


def test_ptc_maps_guards_degenerate_inputs():
    # All-ones SoT and all-zeros EoT: both divisors floor at EPS and the
    # blend collapses to exactly zero.
    values = np.zeros((256, 4))
    values[:, 0] = 1.0
    a_pt = ptc_maps(make_attention(values), beta=0.8)
    assert np.array_equal(a_pt.value, np.zeros((256, 1)))


def test_ptc_maps_range():
    rng = np.random.default_rng(12)
    for beta in (0.0, 0.3, 0.8, 1.0):
        values = rng.dirichlet(np.ones(6), size=256)
        a_pt = ptc_maps(make_attention(values), beta=beta).value
        assert np.all(a_pt >= 0.0) and np.all(a_pt <= 1.0)


def test_ptc_loss_analytic_values():
    tape = Tape()
    a_pt = tape.leaf(np.zeros((256, 1)))
    zeros = np.zeros(256)
    ones = np.ones(256)
    assert abs(float(ptc_loss(a_pt, zeros).value) - math.log(2.0)) <= 1e-12
    tape2 = Tape()
    a_pt2 = tape2.leaf(np.zeros((256, 1)))
    assert abs(float(ptc_loss(a_pt2, ones).value) - math.log(2.0)) <= 1e-12


def test_ptc_loss_entropy_identity():
    # With the target equal to sigmoid of the map, BCE is the binary entropy.
    rng = np.random.default_rng(13)
    raw = rng.uniform(0.0, 1.0, size=(256, 1))
    tape = Tape()
    a_pt = tape.leaf(raw)
    p = 1.0 / (1.0 + np.exp(-raw[:, 0]))
    got = float(ptc_loss(a_pt, p).value)
    entropy = float(np.mean(-(p * np.log(p) + (1 - p) * np.log(1 - p))))
    assert abs(got - entropy) <= 1e-12


def test_loco_total_is_exact_combination():
    rng = np.random.default_rng(14)
    values = rng.dirichlet(np.ones(5), size=256)
    cfg = GuidanceConfig()
    loss, breakdown = loco_loss(make_attention(values), LAYOUT, MASKS, cfg)
    assert breakdown.total == breakdown.lac + cfg.alpha * breakdown.ptc
    assert float(loss.value) == breakdown.total
    assert all(0.0 <= f <= 1.0 for f in breakdown.per_object_inbox_fraction)

    zero_alpha = GuidanceConfig(alpha=0.0)
    loss0, breakdown0 = loco_loss(make_attention(values), LAYOUT, MASKS, zero_alpha)
    assert breakdown0.total == breakdown0.lac


def test_default_config_matches_published_operating_point():
    cfg = GuidanceConfig()
    assert (cfg.gamma, cfg.alpha, cfg.beta) == (30.0, 0.2, 0.8)
    assert (cfg.guided_steps, cfg.iterations_per_step) == (10, 5)


def test_schedule_linear_endpoints_and_decay():
    cfg = GuidanceConfig()
    assert schedule(0, cfg) == 1.0
    assert abs(schedule(9, cfg) - 0.1) <= 1e-15
    seq = [schedule(i, cfg) for i in range(10)]
    assert all(a > b for a, b in zip(seq, seq[1:]))
    assert all(0.0 < v <= 1.0 for v in seq)
    with pytest.raises(ContractError):
        schedule(10, cfg)


def test_update_latent_arithmetic():
    state = init_latent(BCFG, 0)
    zero = update_latent(state, np.zeros_like(state.z), 30.0, 1.0)
    assert np.array_equal(zero.z, state.z)
    assert zero.t == state.t

    grad = np.ones_like(state.z)
    moved = update_latent(replace(state, z=np.zeros_like(state.z)), grad, 30.0, 1.0)
    assert np.all(moved.z == -30.0)

    a = update_latent(state, grad, 30.0, 0.5)
    b = update_latent(state, grad, 60.0, 0.25)
    assert np.array_equal(a.z, b.z)

    with pytest.raises(Exception):
        update_latent(state, np.ones((3, 3)), 30.0, 1.0)


def _oracle_run(layout, cfg, seed):
    """The loop on the public oracles, one latent: ``cross_attention`` +
    ``loco_loss`` + ``Tape.backward`` + ``update_latent`` per iteration,
    ``denoise_step`` per timestep. Returns the latents after each step and
    the loss curve."""
    seeds = Seeds.from_master(seed)
    tokens = embed_tokens(layout.prompt, seeds.vocab, BCFG.d_e)
    proj = build_projections(BCFG, seeds.proj)
    masks = [rasterize_box(b) for b in layout.boxes]
    state = init_latent(BCFG, seeds.latent)
    e_v = value_matrix(tokens, proj, BCFG.d_z)
    vrms = float(np.sqrt(np.mean(e_v * e_v)))
    latents, curve = [], []
    for index in range(BCFG.total_steps):
        for _ in range(cfg.iterations_per_step if index < cfg.guided_steps
                       else 0):
            tape = Tape()
            leaf = tape.leaf(state.z)
            attn = cross_attention(tape, leaf, tokens, proj)
            loss, breakdown = loco_loss(attn, layout, masks, cfg)
            state = update_latent(state, tape.backward(loss)[leaf], cfg.gamma,
                                  schedule(index, cfg))
            curve.append(breakdown)
        tape = Tape()
        attn = cross_attention(tape, tape.constant(state.z), tokens, proj)
        sigma = effective_noise(BCFG, state.t, state.z,
                                expected_latent_rms(BCFG, index, vrms))
        state = denoise_step(state, attn.value, tokens, proj, BCFG.rho, sigma)
        latents.append(state.z)
    return latents, curve


class Step(NamedTuple):
    """One timestep of one item of a stacked trajectory, from its yield."""

    losses: tuple  # the timestep's breakdowns
    attention: np.ndarray  # (q, n), the attention the denoise read
    z: np.ndarray  # (q, d_z), a copy of the latent after the denoise


class Track(NamedTuple):
    """One item of a stacked trajectory, collected from its yields."""

    curve: list  # every iteration's breakdown, in order
    steps: list  # one Step per timestep
    z: np.ndarray  # the final latent
    attention: np.ndarray  # (q, n), at the final latent


def _stacked_run(layout, cfgs, seed, backbone=BCFG):
    """Each item's track, kept from the yields: what ``guided_sample`` keeps
    of its run, plus a copy of each timestep's latent."""
    plan, start = _setup(layout, backbone, seed)
    steps = [[] for _ in cfgs]
    for terms, attn, z in _trajectories(
            plan, start.z, _noise_draws(backbone, start.rng_seed), cfgs,
            backbone):
        losses = [_breakdowns(t) for t in terms]
        for i, item in enumerate(steps):
            item.append(Step(tuple(bd[i] for bd in losses if len(bd) > i),
                             attn[i].T, z[i].copy()))
    attn = _attention(plan, z)
    return [Track(curve=[bd for step in item for bd in step.losses],
                  steps=item, z=z[i], attention=attn[i].T)
            for i, item in enumerate(steps)]


def test_trajectory_leaves_the_callers_error_state_alone():
    """The engine ignores overflow inside each timestep only: the caller's
    numpy error state holds in its own loop body, and after it closes a
    half-consumed trajectory."""
    plan, start = _setup(LAYOUT, BCFG, 0)
    with np.errstate(over="raise", invalid="raise"):
        caller = np.geterr()
        steps = _trajectories(plan, start.z, _noise_draws(BCFG, start.rng_seed),
                              [GuidanceConfig(), GuidanceConfig(gamma=5.0)],
                              BCFG)
        for index, _ in zip(range(12), steps):
            assert np.geterr() == caller, index
        steps.close()
        assert np.geterr() == caller


def test_guided_steps_zero_matches_plain_backbone_loop():
    cfg = GuidanceConfig(guided_steps=0)
    want, curve = _oracle_run(LAYOUT, cfg, 6)
    assert curve == []
    run = guided_sample(LAYOUT, cfg, BCFG, 6)
    assert_values_close(run.final_z, want[-1])
    # The same config as one item of a stack whose other items are guided.
    stack = [GuidanceConfig(), arm_config(GuidanceConfig(), "lac_wo_norm"), cfg]
    track = _stacked_run(LAYOUT, stack, 6)[2]
    assert track.curve == [] and len(track.steps) == len(want)
    for step, z in zip(track.steps, want):
        assert_values_close(step.z, z)


def test_guided_step_updates_the_leading_live_items_in_place():
    """The live items lead the stack: a guided step updates them in place,
    each as its own one-item step would, and leaves the items after them
    byte-unchanged."""
    plan, start = _setup(LAYOUT, BCFG, 1)
    guided, unguided = GuidanceConfig(), GuidanceConfig(guided_steps=0)
    for index, cfgs, m in (
            (0, [guided, replace(guided, gamma=5.0), unguided], 2),
            (1, [guided, replace(guided, guided_steps=1), unguided], 1),
            (0, [unguided, unguided], 0)):
        z = np.repeat(start.z[None], len(cfgs), axis=0)
        before = z.copy()
        steps = list(guidance._guided_step(z, index, plan, cfgs))
        assert z[m:].tobytes() == before[m:].tobytes()
        for i in range(m):
            solo = start.z[None].copy()
            list(guidance._guided_step(solo, index, plan, [cfgs[i]]))
            assert not np.array_equal(z[i], before[i])
            assert z[i].tobytes() == solo[0].tobytes()
        assert len(steps) == (5 if m else 0)
        for values, terms in steps:
            assert values.shape[0] == len(terms.total) == m


@pytest.mark.parametrize("steps", [(0, 10), (10, 0, 1), (1, 2)])
def test_trajectories_reject_a_stack_out_of_guided_steps_order(steps):
    stack = [GuidanceConfig(guided_steps=s) for s in steps]
    with pytest.raises(ContractError, match="largest first"):
        _stacked_run(LAYOUT, stack, 0)


def _arrays(tracks):
    """Every array a list of tracks hands out."""
    return [a for track in tracks
            for a in (track.z, track.attention,
                      *(x for step in track.steps
                        for x in (step.attention, step.z)))]


def test_two_trajectory_calls_share_no_memory():
    """Each ``_trajectories`` call owns its stack and work array: the
    tracks of a second, identical call are equal to the first's and share
    no memory with them."""
    stack = [GuidanceConfig(guided_steps=2),
             GuidanceConfig(guided_steps=1, gamma=5.0),
             GuidanceConfig(guided_steps=0)]
    first, second = (_arrays(_stacked_run(LAYOUT, stack, 2))
                     for _ in range(2))
    for a, b in zip(first, second, strict=True):
        assert a.tobytes() == b.tobytes()
    assert not any(np.shares_memory(a, b) for a in first for b in second)


def test_kept_snapshots_hold_their_own_latents():
    """The stack is updated in place; after the run ends its loss curve and
    final latent still tie the oracle loop's, and no two of the arrays the
    run keeps share memory."""
    cfg = GuidanceConfig(guided_steps=2)
    run = guided_sample(LAYOUT, cfg, BCFG, 4)
    latents, curve = _oracle_run(LAYOUT, cfg, 4)
    assert_breakdowns_close(run.loss_curve(), curve)
    assert len(run.steps) == len(latents)
    assert_values_close(run.final_z, latents[-1])
    arrays = [step.attention for step in run.steps] + [run.final_z,
                                                       run.final_attention]
    assert not any(np.shares_memory(a, b)
                   for i, a in enumerate(arrays) for b in arrays[i + 1:])


def test_lone_run_draws_its_noise_lazily(monkeypatch):
    """``guided_sample`` makes each timestep's draw as it reaches it, and
    drops it after: never more than two draws are alive at once."""
    real = np.random.default_rng
    alive, most = [], [0]

    class Tracked:
        def __init__(self, rng):
            self.rng = rng

        def standard_normal(self, shape):
            draw = self.rng.standard_normal(shape)
            alive.append(weakref.ref(draw))
            most[0] = max(most[0], sum(r() is not None for r in alive))
            return draw

    def default_rng(seed=None):
        rng = real(seed)
        # The noise draws are seeded by a SeedSequence, the others not.
        return Tracked(rng) if isinstance(seed, np.random.SeedSequence) \
            else rng

    monkeypatch.setattr(np.random, "default_rng", default_rng)
    guided_sample(LAYOUT, GuidanceConfig(guided_steps=1), BCFG, 0)
    assert len(alive) == BCFG.total_steps
    assert most[0] <= 2


def _arms(**flags):
    """Every arm at the given flags, the unguided none arm last."""
    return [arm_config(GuidanceConfig(**flags), arm)
            for arm in (*ARMS[1:], ARMS[0])]


def test_stacked_guided_items_match_the_oracle_loop():
    # One stack per set of shared loop flags, each with every arm.
    layout = parse_layout(
        (bundled_suite_dir() / "fusion_cup_hat.json").read_text())
    for stack in ([GuidanceConfig(gamma=300.0)] + _arms(),
                  _arms(detach_norms=True),
                  _arms(beta=0.5, guided_steps=3, iterations_per_step=2)):
        tracks = _stacked_run(layout, stack, 2)
        for cfg, track in zip(stack, tracks):
            latents, curve = _oracle_run(layout, cfg, 2)
            assert_breakdowns_close(track.curve, curve)
            assert len(track.steps) == len(latents)
            for step, z in zip(track.steps, latents):
                assert_values_close(step.z, z)


@pytest.mark.parametrize("flags", [dict(beta=0.5), dict(detach_norms=True),
                                   dict(iterations_per_step=2)])
def test_stack_of_guided_items_with_different_loop_flags_is_rejected(flags):
    stack = [GuidanceConfig(), GuidanceConfig(**flags)]
    with pytest.raises(ContractError, match="must share"):
        _stacked_run(LAYOUT, stack, 0)
    # An unguided item never runs the loss, so its flags may differ.
    stack[1] = replace(stack[1], guided_steps=0)
    assert len(_stacked_run(LAYOUT, stack, 0)) == 2


def _assert_same_run(track, run):
    assert track.curve == run.loss_curve()
    assert len(track.steps) == len(run.steps)
    for got, want in zip(track.steps, run.steps):
        assert got.losses == want.losses
        assert np.array_equal(got.attention, want.attention)
    assert np.array_equal(track.z, run.final_z)
    assert np.array_equal(track.attention, run.final_attention)


def test_stacked_run_equals_each_items_solo_run():
    # Every arm and sweep point of the benchmark, the duplicate gamma-30
    # point included, over the suite and two seeds.
    stack = [arm_config(GuidanceConfig(), arm) for arm in ARMS[1:]]
    stack += [GuidanceConfig(gamma=g) for g in (1.0, 5.0, 30.0, 300.0)]
    stack += [arm_config(GuidanceConfig(), ARMS[0])]
    for _, layout in load_suite(bundled_suite_dir()):
        for seed in (0, 1):
            solo = {}
            for cfg, track in zip(stack, _stacked_run(layout, stack, seed)):
                if cfg not in solo:
                    solo[cfg] = guided_sample(layout, cfg, BCFG, seed)
                _assert_same_run(track, solo[cfg])


def test_stack_with_a_shrinking_live_prefix_equals_each_items_solo_run():
    """The live prefix shrinks from three items to two (after 3 guided
    steps) to one (after 6) to none (after 10), and the live items differ
    in alpha and lac_normalize: each step's loss constants must be its own
    live items'. Every item is bit-identical to its solo run."""
    stack = [GuidanceConfig(),
             replace(arm_config(GuidanceConfig(), "lac_wo_norm"),
                     guided_steps=6),
             replace(arm_config(GuidanceConfig(), "lac"), guided_steps=3),
             arm_config(GuidanceConfig(), "none")]
    suite = dict(load_suite(bundled_suite_dir()))
    for name in ("fusion_cup_hat", "triple_phrases"):
        for seed in (0, 1):
            tracks = _stacked_run(suite[name], stack, seed)
            for cfg, track in zip(stack, tracks):
                run = guided_sample(suite[name], cfg, BCFG, seed)
                _assert_same_run(track, run)
                assert track.z.tobytes() == run.final_z.tobytes()
                assert [len(step.losses) for step in track.steps] == (
                    [5] * cfg.guided_steps
                    + [0] * (BCFG.total_steps - cfg.guided_steps))


@st.composite
def _stack_problems(draw):
    """A layout of 2 to 4 objects with phrases of 1 or 2 tokens, and a stack
    of 2 to 6 configs in order of ``guided_steps`` (in [0, 10], largest
    first) whose ``gamma``, ``alpha`` and ``lac_normalize`` are each item's
    own and whose ``beta``, ``detach_norms`` and ``iterations_per_step``
    are shared."""
    words, objects = [], []
    for i in range(draw(st.integers(2, 4))):
        phrase = [f"w{i}{j}" for j in range(draw(st.integers(1, 2)))]
        words += ["and"] * draw(st.integers(0, 1)) + phrase
        x0, y0 = draw(st.integers(0, 6)), draw(st.integers(0, 6))
        box = [x0, y0, draw(st.integers(x0 + 1, 8)),
               draw(st.integers(y0 + 1, 8))]
        objects.append({"phrase": " ".join(phrase),
                        "box": [v / 8 for v in box]})
    layout = layout_from_dict({"prompt": " ".join(words), "objects": objects})
    shared = dict(beta=draw(st.floats(0.0, 1.0)),
                  detach_norms=draw(st.booleans()),
                  iterations_per_step=draw(st.integers(1, 3)))
    steps = sorted(draw(st.lists(st.integers(0, 10), min_size=2, max_size=6)),
                   reverse=True)
    cfgs = [GuidanceConfig(guided_steps=g, gamma=draw(st.floats(1.0, 300.0)),
                           alpha=draw(st.floats(0.0, 1.0)),
                           lac_normalize=draw(st.booleans()), **shared)
            for g in steps]
    return layout, cfgs


# No shrink phase: each shrink step reruns a stack and its solo runs, so
# shrinking a failure takes minutes, and a drawn stack is small enough to
# read as it is reported.
@settings(max_examples=25, deadline=None,
          phases=(Phase.explicit, Phase.reuse, Phase.generate))
@given(problem=_stack_problems(), seed=st.integers(0, 2 ** 16))
def test_drawn_stacks_equal_each_items_solo_run(problem, seed):
    """On drawn layouts and stacks at resolution 8, each item's losses,
    attention and final latent equal its solo ``guided_sample`` bit for
    bit."""
    layout, cfgs = problem
    backbone = BackboneConfig(resolution=8)
    for cfg, track in zip(cfgs, _stacked_run(layout, cfgs, seed, backbone)):
        run = guided_sample(layout, cfg, backbone, seed)
        _assert_same_run(track, run)
        assert track.z.tobytes() == run.final_z.tobytes()


def _latent_step_reference(z, index, plan, cfgs):
    """``_guided_step`` taken in the latent: each iteration recomputes
    ``_attention`` from the live items' latents and steps them by
    ``(s g)^T F`` for the logit gradient g at step size s. Yields what the
    engine yields."""
    m = sum(index < cfg.guided_steps for cfg in cfgs)
    if not m:
        return
    zr, stack = z[:m], _Stack.of(plan, cfgs[:m])
    step = np.array([c.gamma * schedule(index, c) for c in cfgs[:m]])
    for _ in range(cfgs[0].iterations_per_step):
        values = _attention(plan, zr)
        g, terms = _loss_and_grad(plan, values, stack)
        zr -= np.matmul((step[:, None, None] * g).swapaxes(1, 2),
                        plan.fold_t)
        yield values, terms


def _assert_logit_step_ties_latent_step(layout, seed, cfgs, index=0,
                                        backbone=BCFG):
    """From the start latent, guided step ``index`` of a stack taken in
    logit space yields the attention the latent-space reference yields, and
    leaves the latents it leaves, to ``VALUE_ATOL``."""
    plan, start = _setup(layout, backbone, seed)
    z = np.repeat(start.z[None], len(cfgs), axis=0)
    want_z = z.copy()
    got = list(guidance._guided_step(z, index, plan, cfgs))
    want = list(_latent_step_reference(want_z, index, plan, cfgs))
    assert len(got) == len(want)
    for (values, _), (reference, _) in zip(got, want):
        assert_values_close(values, reference)
    assert_values_close(z, want_z)


def test_logit_step_ties_the_latent_step_on_the_suite():
    """Every arm and sweep point of the benchmark, as one stack, over the
    suite and two seeds, at the first guided step, the largest."""
    stack = [arm_config(GuidanceConfig(), arm) for arm in ARMS[1:]]
    stack += [GuidanceConfig(gamma=g) for g in (1.0, 5.0, 30.0, 300.0)]
    stack += [arm_config(GuidanceConfig(), ARMS[0])]
    for _, layout in load_suite(bundled_suite_dir()):
        for seed in (0, 1):
            _assert_logit_step_ties_latent_step(layout, seed, stack)


@settings(max_examples=25, deadline=None)
@given(problem=_stack_problems(), seed=st.integers(0, 2 ** 16),
       index=st.integers(0, 9))
def test_logit_step_ties_the_latent_step_on_drawn_stacks(problem, seed,
                                                          index):
    """The tie above on drawn layouts and stacks at resolution 8, at a drawn
    guided step that the leading item takes."""
    layout, cfgs = problem
    index %= max(cfgs[0].guided_steps, 1)
    _assert_logit_step_ties_latent_step(layout, seed, cfgs, index,
                                        BackboneConfig(resolution=8))


@pytest.mark.parametrize("seed", [-1, True, 2.5, "3", None,
                                  Seeds.from_master(0)])
def test_bad_seed_raises_contract_error(seed):
    with pytest.raises(ContractError, match="seed must be"):
        guided_sample(LAYOUT, GuidanceConfig(guided_steps=0), BCFG, seed)


def test_default_run_performs_fifty_updates():
    run = guided_sample(LAYOUT, GuidanceConfig(), BCFG, 0)
    assert len(run.loss_curve()) == 50
    assert len(run.steps) == BCFG.total_steps
    assert [bool(step.losses) for step in run.steps] == \
        [True] * 10 + [False] * (BCFG.total_steps - 10)
    assert run.final_z.shape == (BCFG.q, BCFG.d_z)
    assert run.final_attention.shape == (BCFG.q, run.tokens.n)


def test_guided_steps_cannot_exceed_trajectory():
    with pytest.raises(ContractError):
        guided_sample(LAYOUT, GuidanceConfig(guided_steps=60), BCFG, 0)


def test_inbox_fraction_mostly_non_decreasing():
    good = total = 0
    for seed in range(20):
        run = guided_sample(LAYOUT, GuidanceConfig(), BCFG, seed)
        fracs = [float(np.mean(bd.per_object_inbox_fraction))
                 for bd in run.loss_curve()]
        for a, b in zip(fracs, fracs[1:]):
            total += 1
            good += b >= a
    assert good / total >= 0.80


def test_single_update_descends():
    cfg = GuidanceConfig()
    ok = 0
    for trial in range(60):
        seeds = Seeds.from_master(trial)
        tokens = embed_tokens(LAYOUT.prompt, seeds.vocab, BCFG.d_e)
        proj = build_projections(BCFG, seeds.proj)
        state = init_latent(BCFG, seeds.latent)
        tape = Tape()
        z = tape.leaf(state.z)
        attn = cross_attention(tape, z, tokens, proj)
        loss, _ = loco_loss(attn, LAYOUT, MASKS, cfg)
        grad = tape.backward(loss)[z]
        after = update_latent(state, grad, 1.0, 0.1)
        tape2 = Tape()
        attn2 = cross_attention(tape2, tape2.constant(after.z), tokens, proj)
        loss2, _ = loco_loss(attn2, LAYOUT, MASKS, cfg)
        ok += float(loss2.value) < float(loss.value)
    assert ok / 60 >= 0.95


def test_gradient_check_both_modes():
    for detach in (False, True):
        result = gradient_check(7, resolution=8, content_words=4,
                                n_objects=2, detach_norms=detach)
        assert result.max_rel_error <= 1e-4


def test_successive_gradient_checks_share_no_memory():
    first, second = (gradient_check(3, resolution=6) for _ in range(2))
    arrays = [first.analytic, first.numeric, second.analytic, second.numeric]
    assert first.analytic.tobytes() == second.analytic.tobytes()
    assert first.numeric.tobytes() == second.numeric.tobytes()
    assert not any(np.shares_memory(a, b)
                   for i, a in enumerate(arrays) for b in arrays[i + 1:])


def test_gradient_check_minimal_four_token_chain():
    # Smallest configuration: 8x8 latent, [SoT] w1 w2 [EoT].
    result = gradient_check(3, resolution=8, content_words=2, n_objects=2)
    assert result.max_rel_error <= 1e-4


def test_gradient_check_negative_control(monkeypatch):
    """A damaged analytic gradient fails the check, so the check can fail."""
    def damaged(*args, with_grad=True, **kwargs):
        grads, terms = _loss_and_grad(*args, with_grad=with_grad, **kwargs)
        if with_grad:
            grads[0, 0, 0] += 1e-2
        return grads, terms

    monkeypatch.setattr(guidance, "_loss_and_grad", damaged)
    result = gradient_check(7, resolution=8)
    assert result.max_rel_error > 1e-4


# (resolution, content_words, n_objects, detach_norms). At 1x1 (q = 1) a
# row has no second cell: each perturbed cell is its row's peak.
_FD_CASES = [(r, w, o, d) for r in (6, 8, 16) for w, o in ((2, 2), (4, 2), (6, 1))
             for d in (False, True)]
_FD_CASES += [(r, 4, 2, d) for r in (1, 5) for d in (False, True)]


@pytest.mark.parametrize("resolution,words,objects,detach", _FD_CASES)
def test_gradient_check_differences_equal_one_coordinate_at_a_time(
        resolution, words, objects, detach):
    """Each incremental perturbed loss ties the one-latent forward at its
    latent to VALUE_ATOL, with the target (and, detached, the divisors)
    held at the base point; ``numeric`` ties the oracle's
    one-coordinate-at-a-time differences to 1e-9, and ``analytic`` is the
    base call's gradient byte for byte. Without detach_norms some points
    move a pad row's divisor, where the cross-entropy is summed in full."""
    plan, cfg, z0 = _check_instance(5, resolution, words, objects, detach)
    stack = _Stack.of(plan, [cfg])
    values = _attention(plan, z0[None])
    grads, held = _loss_and_grad(plan, values, stack)
    frozen = held.peaks[0] if detach else None
    seen = []

    def f(z):
        terms = _loss_and_grad(plan, _attention(plan, z[None]), stack,
                               held.target[0], frozen, with_grad=False)[1]
        seen.append((terms.total[0], np.atleast_2d(terms.peaks)[0, -2:]))
        return terms.total[0]

    want = central_difference(f, z0, h=FD_STEP)
    got = _central_losses(plan, stack, z0, values[0], held)
    totals = np.array([t for t, _ in seen]).reshape(-1, 2).T
    np.testing.assert_allclose(got, totals, rtol=0, atol=VALUE_ATOL)
    pads_moved = any((p != held.peaks[0, -2:]).any() for _, p in seen)
    assert pads_moved != detach

    result = gradient_check(5, resolution=resolution, content_words=words,
                            n_objects=objects, detach_norms=detach)
    np.testing.assert_allclose(result.numeric, want, rtol=0, atol=1e-9)
    assert result.analytic.tobytes() == _to_latent(plan, grads)[0].tobytes()


@pytest.mark.parametrize("resolution", [6, 8])
def test_gradient_check_makes_one_loss_call(resolution, monkeypatch):
    """One one-latent call of the closed form, with its gradient: the
    perturbed losses come from its reductions, not from more calls."""
    seen = []

    def counting(*args, **kwargs):
        seen.append((args[1].shape[0], kwargs.get("with_grad", True)))
        return _loss_and_grad(*args, **kwargs)

    monkeypatch.setattr(guidance, "_loss_and_grad", counting)
    gradient_check(3, resolution=resolution)
    assert seen == [(1, True)]


def test_gradient_check_recomputes_only_the_perturbed_rows(monkeypatch):
    """The base attention once, then one attention row per perturbed
    latent: q + 2 q d_z rows at 8x8, not a whole q-row latent each."""
    rows = []

    def counting(plan, z):
        rows.append(z.shape[0] * z.shape[1])
        return _attention(plan, z)

    monkeypatch.setattr(guidance, "_attention", counting)
    gradient_check(3, resolution=8)
    q, d_z = 64, 8
    assert rows[0] == q
    assert sum(rows) == q + 2 * q * d_z == 64 + 1024


def test_gradient_check_rejects_large_latents():
    with pytest.raises(ContractError):
        gradient_check(0, resolution=32)


@pytest.mark.parametrize("args", [
    dict(resolution=0), dict(seed=-1), dict(seed=2.5),
    dict(seed=True), dict(content_words=1), dict(content_words=20),
    dict(content_words=3.0), dict(n_objects=0), dict(n_objects=True),
    dict(n_objects=3, content_words=2),
])
def test_gradient_check_rejects_bad_arguments(args):
    with pytest.raises(ContractError):
        gradient_check(**{"seed": 0, **args})


def test_non_finite_latent_raises_naming_the_timestep():
    layout = parse_layout((bundled_suite_dir() / "pair_cat_dog.json").read_text())
    with pytest.raises(ContractError, match="non-finite at timestep 0"):
        guided_sample(layout, GuidanceConfig(gamma=1e300), BCFG, 0)


def test_gradient_check_draws_no_start_latent(monkeypatch):
    """A check draws its own base latent, so it builds only the plan of its
    layout, without the start latent a run draws."""
    def refused(*args):
        raise AssertionError("init_latent called")

    monkeypatch.setattr(guidance, "init_latent", refused)
    assert gradient_check(0, resolution=2).max_rel_error < 1e-4


def test_nan_in_an_unguided_start_latent_raises_at_timestep_0(monkeypatch):
    """A NaN in an unguided run's start latent makes the first denoise's
    sigma NaN, which raises at timestep 0."""
    real = guidance.init_latent

    def planted(*args):
        state = real(*args)
        state.z[5, 3] = np.nan
        return state

    monkeypatch.setattr(guidance, "init_latent", planted)
    with pytest.raises(ContractError, match=re.escape(
            "latent turned non-finite at timestep 0 (t=51); gamma=30 is too "
            "large")):
        guided_sample(LAYOUT, GuidanceConfig(guided_steps=0), BCFG, 0)


def test_nan_in_one_guided_item_of_a_stack_names_its_gamma(monkeypatch):
    """A NaN planted after guided step 3 in the gamma-5 sweep item, the
    fourth of a benchmark stack, raises at that timestep naming it."""
    real = guidance._guided_step

    def planted(z, index, plan, cfgs, grad=None):
        yield from real(z, index, plan, cfgs, grad)
        if index == 3:
            z[[cfg.gamma for cfg in cfgs].index(5.0), 7, 2] = np.nan

    monkeypatch.setattr(guidance, "_guided_step", planted)
    with pytest.raises(ContractError, match=re.escape(
            "latent turned non-finite at timestep 3 (t=48); gamma=5 is too "
            "large")):
        run_benchmark([("pair", LAYOUT)], GuidanceConfig(), BCFG, seeds=[0],
                      gamma_sweep=[5.0, 300.0])


def test_inf_in_one_item_of_a_stack_names_its_gamma(monkeypatch):
    """An inf planted after guided step 2 in the gamma-300 sweep item, the
    fifth of a benchmark stack, gives that item an infinite sigma at the
    next denoise, which raises naming it."""
    real = guidance._guided_step

    def planted(z, index, plan, cfgs, grad=None):
        yield from real(z, index, plan, cfgs, grad)
        if index == 2:
            z[[cfg.gamma for cfg in cfgs].index(300.0), 9, 4] = np.inf

    monkeypatch.setattr(guidance, "_guided_step", planted)
    with pytest.raises(ContractError, match=re.escape(
            "latent turned non-finite at timestep 2 (t=49); gamma=300 is too "
            "large")):
        run_benchmark([("pair", LAYOUT)], GuidanceConfig(), BCFG, seeds=[0],
                      gamma_sweep=[5.0, 300.0])


# ---------------------------------------------------------------------------
# The closed-form gradient of the guided loop against the tape.


def projections(seed, backbone=BCFG):
    """The frozen projections of a run's master seed, which the tape oracle
    reads in place of the run's folded map."""
    return build_projections(backbone, Seeds.from_master(seed).proj)


def _tape_loss_and_grad(plan, proj, z, layout, cfg, **overrides):
    tape = Tape()
    leaf = tape.leaf(z)
    attn = cross_attention(tape, leaf, plan.tokens, proj)
    loss, breakdown = loco_loss(attn, layout, plan.flats, cfg, **overrides)
    return tape.backward(loss)[leaf], breakdown, attn.value


def _assert_tied(plan, proj, z, layout, cfgs, grad_rtol=GRAD_RTOL,
                 ptc_reference=None, **overrides):
    """Each item's gradient, breakdown and attention in a stacked call tie
    the tape's, on projections ``proj``, on that item's latent. Given
    ``ptc_reference``, a function of an item's (n, q) attention values,
    ptc and total tie that reference instead of the tape's."""
    values = _attention(plan, z)
    g_logits, terms = _loss_and_grad(plan, values, _Stack.of(plan, cfgs),
                                     **overrides)
    grads = _to_latent(plan, g_logits)
    breakdowns = _breakdowns(terms)
    for item, cfg, grad, breakdown, value in zip(z, cfgs, grads, breakdowns,
                                                 values):
        want = _tape_loss_and_grad(plan, proj, item, layout, cfg, **overrides)
        assert rel_error(grad, want[0]) <= grad_rtol
        expected = want[1]
        if ptc_reference is not None:
            ptc = ptc_reference(value)
            expected = replace(expected, ptc=float(ptc), total=float(
                expected.lac + np.longdouble(cfg.alpha) * ptc))
        assert_breakdowns_close([breakdown], [expected])
        assert_values_close(value.T, want[2])
    forward = _loss_and_grad(plan, values, _Stack.of(plan, cfgs),
                             with_grad=False, **overrides)[1]
    assert _breakdowns(forward) == breakdowns
    return grads


def _stack(cfg):
    """A stack of three items that share cfg's flags; gamma and alpha, and
    so the latents after the first update, differ."""
    return [cfg, replace(cfg, gamma=5.0, alpha=0.0),
            replace(cfg, gamma=300.0, alpha=0.5)]


def _walk_tied(layout, seed, cfgs, iterations=3):
    """Tie the two gradients along the first iterations of a guided step."""
    plan, state = _setup(layout, BCFG, seed)
    proj = projections(seed)
    z = np.repeat(state.z[None], len(cfgs), axis=0)
    step = np.array([cfg.gamma * schedule(0, cfg) for cfg in cfgs])
    for _ in range(iterations):
        grads = _assert_tied(plan, proj, z, layout, cfgs)
        z = z - step[:, None, None] * grads


TIE_CONFIGS = {
    "lac_wo_norm": arm_config(GuidanceConfig(), "lac_wo_norm"),
    "lac": arm_config(GuidanceConfig(), "lac"),
    "lac_ptc": GuidanceConfig(),
    "detach": GuidanceConfig(detach_norms=True),
}
# One stack whose items differ in lac_normalize: the guided benchmark arms.
MIXED_NORMALIZE = [TIE_CONFIGS[name] for name in ("lac_wo_norm", "lac",
                                                  "lac_ptc")]
TIE_STACKS = {name: _stack(cfg) for name, cfg in TIE_CONFIGS.items()}
TIE_STACKS["mixed_normalize"] = MIXED_NORMALIZE


@pytest.mark.parametrize("name", sorted(TIE_STACKS))
def test_closed_form_gradient_is_the_tape_gradient_on_the_suite(name):
    for _, layout in load_suite(bundled_suite_dir()):
        for seed in (0, 1):
            _walk_tied(layout, seed, TIE_STACKS[name])


def test_closed_form_gradient_is_the_tape_gradient_for_long_phrases():
    layout = parse_layout("""{
      "prompt": "a big red cat and a dog",
      "objects": [{"phrase": "big red cat", "box": [0.1, 0.2, 0.6, 0.9]},
                  {"phrase": "dog", "box": [0.5, 0.0, 1.0, 0.5]}]
    }""")
    assert len(layout.phrases[0].span) == 3
    for stack in TIE_STACKS.values():
        _walk_tied(layout, 5, stack)


def test_closed_form_gradient_is_the_tape_gradient_with_overrides():
    # The finite-difference setting: targets and divisors held at a base
    # point, evaluated away from it.
    backbone = BackboneConfig(resolution=8, d_e=8, d_z=8)
    layout = parse_layout("""{
      "prompt": "cat fish star boat",
      "objects": [{"phrase": "cat", "box": [0.0, 0.1, 0.6, 0.7]},
                  {"phrase": "star", "box": [0.4, 0.3, 1.0, 1.0]}]
    }""")
    plan, _ = _setup(layout, backbone, 11)
    proj = projections(11, backbone)
    rng = np.random.default_rng(11)
    z0 = rng.standard_normal((backbone.q, backbone.d_z))
    held = _loss_and_grad(plan, _attention(plan, z0[None]),
                          _Stack.of(plan, [GuidanceConfig()]),
                          with_grad=False)[1]
    target, frozen = held.target[0], held.peaks[0]
    z1 = z0 + 1e-3 * rng.standard_normal(z0.shape)
    for overrides in ({}, {"target": target}, {"frozen_norms": frozen},
                      {"target": target, "frozen_norms": frozen}):
        for cfg in TIE_CONFIGS.values():
            # cfg at the base point and at a point away from it, and cfg's
            # gamma/alpha variants away from it, as one stack.
            _assert_tied(plan, proj, np.stack([z0, z1, z1, z1]), layout,
                         [cfg, *_stack(cfg)], **overrides)
        # Items that differ in lac_normalize, at both points, as one stack.
        _assert_tied(plan, proj, np.stack([z0] * 3 + [z1] * 3), layout,
                     MIXED_NORMALIZE * 2, **overrides)


def _tape_divisors(values, layout):
    """The tape's floored max-rescaling divisors at (q, n) attention values:
    each object map's, then the SoT complement's and the EoT map's."""
    attn = make_attention(values)
    eye = np.eye(values.shape[1])
    sot, eot = (dm.matmul(attn, attn.tape.constant(col))
                for col in (eye[:, :1], eye[:, -1:]))
    maps = [object_attention(attn, p) for p in layout.phrases]
    maps += [1.0 - sot, eot]
    return np.array([float(dm.maximum(dm.max_norm(m), EPS).value)
                     for m in maps])


@pytest.mark.parametrize("detach", [False, True])
def test_held_constants_reproduce_the_loss_and_tie_the_tape(detach):
    """The target and peaks the loss returns are the constants it held: fed
    back at the same attention they give its total bit for bit, the peaks
    are the tape's floored divisors, and an item without ``lac_normalize``
    still holds its object maps' peaks, not the 1.0 it divides by."""
    cfgs = [replace(cfg, detach_norms=detach) for cfg in MIXED_NORMALIZE]
    assert not cfgs[0].lac_normalize
    for _, layout in load_suite(bundled_suite_dir()):
        plan, start = _setup(layout, BCFG, 0)
        z = np.repeat(start.z[None], len(cfgs), axis=0)
        for values, held in guidance._guided_step(z, 0, plan, cfgs):
            for b, cfg in enumerate(cfgs):
                again = _loss_and_grad(plan, values[b:b + 1],
                                       _Stack.of(plan, [cfg]),
                                       held.target[b], held.peaks[b],
                                       with_grad=False)[1]
                assert again.total.tobytes() == held.total[b:b + 1].tobytes()
                assert_values_close(held.peaks[b],
                                    _tape_divisors(values[b].T, layout))
            maps = object_maps(values[0].T, layout)
            peaks = held.peaks[0, :layout.k]
            assert np.array_equal(peaks, np.maximum(maps.max(axis=1), EPS))
            assert not np.any(peaks == 1.0)


@st.composite
def _tie_problems(draw):
    """A layout of 1 to 4 objects whose phrases span 1 to 3 tokens, with
    filler words between them, and a stack of 1 to 3 configs that share
    ``beta`` and ``detach_norms``."""
    words, objects = [], []
    for _ in range(draw(st.integers(1, 4))):
        words += ["and"] * draw(st.integers(0, 1))
        phrase = [f"w{len(words) + j}" for j in range(draw(st.integers(1, 3)))]
        words += phrase
        x0, y0 = draw(st.integers(0, 13)), draw(st.integers(0, 13))
        box = [x0, y0, draw(st.integers(x0 + 2, 16)),
               draw(st.integers(y0 + 2, 16))]
        objects.append({"phrase": " ".join(phrase),
                        "box": [v / 16 for v in box]})
    words += ["and"] * draw(st.integers(0, 1))
    layout = layout_from_dict({"prompt": " ".join(words), "objects": objects})
    shared = dict(beta=draw(st.floats(0.0, 1.0)),
                  detach_norms=draw(st.booleans()))
    cfgs = [GuidanceConfig(alpha=draw(st.floats(0.0, 1.0)),
                           gamma=draw(st.floats(1.0, 300.0)),
                           lac_normalize=draw(st.booleans()), **shared)
            for _ in range(draw(st.integers(1, 3)))]
    return layout, cfgs


@settings(max_examples=40, deadline=None)
@given(problem=_tie_problems(), seed=st.integers(0, 2 ** 16),
       with_target=st.booleans(), with_frozen=st.booleans())
def test_closed_form_ties_the_tape_on_random_layouts_and_configs(
        problem, seed, with_target, with_frozen):
    """The tie above, on drawn layouts and configs: at the start latent and
    after one guided update at each item's gamma, with the target and the
    divisors optionally held at the start latent's values."""
    layout, cfgs = problem
    plan, start = _setup(layout, BCFG, seed)
    proj = projections(seed)
    held = _loss_and_grad(plan, _attention(plan, start.z[None]),
                          _Stack.of(plan, cfgs[:1]),
                          with_grad=False)[1]
    overrides = {}
    if with_target:
        overrides["target"] = held.target[0]
    if with_frozen:
        overrides["frozen_norms"] = held.peaks[0]
    z = np.repeat(start.z[None], len(cfgs), axis=0)
    grads = _assert_tied(plan, proj, z, layout, cfgs, **overrides)
    step = np.array([cfg.gamma * schedule(0, cfg) for cfg in cfgs])
    _assert_tied(plan, proj, z - step[:, None, None] * grads, layout, cfgs,
                 **overrides)


def test_the_cross_entropy_clamp_cannot_bind_in_the_guided_loop():
    """At the first guided iteration of every suite layout, seeds 0-2, the
    pad map a_pt lies in [0, 1], a convex blend of two max-rescaled maps.
    So s = sigmoid(a_pt) lies in [1/2, 1 / (1 + e^-1)], far inside the
    clamp: the clamp's logit bound binds only where the pad divisors are
    held below the maps' peaks, as in the test below."""
    cfg = GuidanceConfig()
    for _, layout in load_suite(bundled_suite_dir()):
        for seed in range(3):
            plan, start = _setup(layout, BCFG, seed)
            z = start.z[None].copy()
            values, _ = next(guidance._guided_step(z, 0, plan, [cfg]))
            a_pt = ptc_maps(make_attention(values[0].T), cfg.beta).value
            assert 0.0 <= a_pt.min() and a_pt.max() <= 1.0
            s = 1.0 / (1.0 + np.exp(-a_pt))
            assert 0.5 <= s.min() and s.max() <= 1.0 / (1.0 + math.exp(-1.0))
            assert a_pt.max() < guidance._LOGIT_BOUND


def test_loss_ties_the_tape_where_the_softmax_underflows():
    """At latents large enough for the softmax to underflow to exact zeros,
    the pad maps and so their peaks sit on zeros, and the loss still ties
    the tape.

    Such latents give logits of magnitude L in the thousands. Either order
    of the two projections moves a logit by some ulps of L, which the
    softmax turns into a relative change of the attention and so of the
    gradient; the gradients tie to 16 ulps of L.
    """
    plan, start = _setup(LAYOUT, BCFG, 0)
    z = np.stack([start.z * 3000.0, start.z * 1000.0, start.z])
    values = _attention(plan, z)
    for pad in (values[:2, 0], values[:2, -1]):
        assert (pad == 0.0).sum() > 100
    logits = np.abs(z @ plan.fold_t.T).max()
    assert logits > 1e3
    rtol = max(GRAD_RTOL, 16 * np.finfo(np.float64).eps * logits)
    proj = projections(0)
    for cfgs in TIE_STACKS.values():
        _assert_tied(plan, proj, z, LAYOUT, cfgs, grad_rtol=rtol)


def test_loss_ties_the_tape_where_the_object_maps_vanish():
    """An item without ``lac_normalize`` whose object maps sum below EPS
    reads the lac denominator at its floor, which passes no adjoint back to
    the maps; the loss still ties the tape there.

    The latents add to the start latent a multiple of one row u whose
    logits favour SoT and EoT over every other token by 2, so the object
    tokens' attention falls by e^-2 per unit of the multiple.
    """
    plan, start = _setup(LAYOUT, BCFG, 0)
    favour = np.full(plan.fold_t.shape[0], -1.0)
    favour[[0, -1]] = 1.0
    u = np.linalg.lstsq(plan.fold_t, favour, rcond=None)[0]
    z = np.stack([start.z + c * u for c in (12.5, 20.0, 10.0)])
    values = _attention(plan, z)
    sums = [object_maps(v.T, LAYOUT).sum() for v in values]
    assert sums[0] < EPS and sums[1] < EPS < sums[2]
    proj = projections(0)
    for name in ("lac_wo_norm", "mixed_normalize"):
        _assert_tied(plan, proj, z, LAYOUT, TIE_STACKS[name])


def _clamped_cross_entropy(values, layout, flats, beta, pad_divisors):
    """``ptc_loss`` at an item's (n, q) attention values with the pad
    divisors held, evaluated in np.longdouble with 1 - s written as
    e / (1 + e), e = exp(-a_pt), so no cancellation sets its accuracy."""
    ld = np.longdouble
    v = values.astype(ld)
    a_pt = (ld(beta) * (1 - v[0]) / ld(pad_divisors[0])
            + ld(1.0 - beta) * v[-1] / ld(pad_divisors[1]))
    assert a_pt.min() >= 0  # so s >= 1/2 and only the upper clamp binds
    e = np.exp(-a_pt)
    top = ld(1.0 - BCE_CLAMP)
    p = np.minimum(1 / (1 + e), top)
    p_bar = np.maximum(e / (1 + e), 1 - top)  # 1 - top is exact
    y = (object_maps(values.T, layout) * flats).max(axis=0).astype(ld)
    return -np.mean(y * np.log(p) + (1 - y) * np.log(p_bar))


def test_loss_ties_the_tape_where_the_cross_entropy_clamps():
    """Where sigmoid(a_pt) rises above ``1 - BCE_CLAMP``, the clamp holds p
    and passes no adjoint back; the loss still ties the tape there.

    The pad divisors are held at 1/20 of the start latent's peaks, so a_pt
    reaches about 20 where the SoT complement peaks. There s lies in
    ``(1 - BCE_CLAMP, 1)``, while most cells stay inside the clamp.

    Just below the clamp the tape's float64 ``log(1 - p)`` cancels: its ptc
    misses a longdouble evaluation by about 9e-12, the logit form by under
    1e-15. So ptc and total tie that evaluation; the gradient, and with it
    the clamp's gate, the attention and lac tie the tape.
    """
    plan, start = _setup(LAYOUT, BCFG, 0)
    values = _attention(plan, start.z[None])
    frozen = _loss_and_grad(plan, values,
                            _Stack.of(plan, [GuidanceConfig()]),
                            with_grad=False)[1].peaks[0].copy()
    frozen[-2:] /= 20.0
    beta = GuidanceConfig().beta
    a_pt = (beta * (1.0 - values[0, 0]) / frozen[-2]
            + (1.0 - beta) * values[0, -1] / frozen[-1])
    s = 1.0 / (1.0 + np.exp(-a_pt))
    assert ((s > 1.0 - BCE_CLAMP) & (s < 1.0)).sum() > 10
    assert (s < 1.0 - BCE_CLAMP).sum() > 10
    z = np.repeat(start.z[None], 3, axis=0)
    proj = projections(0)
    for cfgs in TIE_STACKS.values():
        reference = partial(_clamped_cross_entropy, layout=LAYOUT,
                            flats=plan.flats, beta=cfgs[0].beta,
                            pad_divisors=frozen[-2:])
        _assert_tied(plan, proj, z, LAYOUT, cfgs, frozen_norms=frozen,
                     ptc_reference=reference)
