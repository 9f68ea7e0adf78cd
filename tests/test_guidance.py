"""Loss chain: closed forms, endpoints, gradients, the sampling loop."""

import math
import weakref
from dataclasses import replace

import numpy as np
import pytest

from loco.backbone import (BackboneConfig, Seeds,
                           build_projections, cross_attention, denoise_step,
                           effective_noise, embed_tokens, expected_latent_rms,
                           init_latent, value_matrix)
from loco.diffmath import ContractError, Tape
from loco.evaluate import ARMS, arm_config
from loco import guidance
from loco.guidance import (FD_STEP, GuidanceConfig, _attention, _breakdowns,
                           _check_instance, _loss_and_grad, _noise_draws,
                           _setup, _trajectories,
                           gradient_check, guided_sample,
                           lac_loss, loco_loss, loss_norms, object_attention,
                           object_maps, ptc_loss, ptc_maps, schedule,
                           target_maps, update_latent)
from loco.layout import Phrase, parse_layout, rasterize_box
from loco.suite import bundled_suite_dir, load_suite
from oracles import central_difference

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


def test_config_validation():
    for bad in [dict(gamma=0.0), dict(alpha=-0.1), dict(beta=1.5),
                dict(guided_steps=-1), dict(iterations_per_step=0),
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


def test_object_maps_match_tape_maps_bit_for_bit():
    # A 3-token span: an elementwise mean over the columns differs from the
    # selector product in the last bit, the selector product does not.
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
        assert np.array_equal(maps[i], tape_map)


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

    frozen = loss_norms(attn.value, LAYOUT)
    tape2 = Tape()
    z2 = tape2.leaf(z0)
    attn2 = cross_attention(tape2, z2, tokens, proj)
    loss2, _ = loco_loss(attn2, LAYOUT, MASKS, cfg, frozen_norms=frozen)
    frozen_grad = tape2.backward(loss2)[z2]
    assert np.allclose(detached_grad, frozen_grad, atol=1e-15)


def test_target_maps_structure():
    rng = np.random.default_rng(10)
    values = rng.dirichlet(np.ones(5), size=256)
    target = target_maps(values, LAYOUT, MASKS)
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


def _stacked_run(layout, cfgs, seed):
    plan, start = _setup(layout, BCFG, seed)
    return _trajectories(plan, start.z, _noise_draws(BCFG, start.rng_seed),
                         cfgs, BCFG, keep_steps=True)


def test_guided_steps_zero_matches_plain_backbone_loop():
    cfg = GuidanceConfig(guided_steps=0)
    want, curve = _oracle_run(LAYOUT, cfg, 6)
    assert curve == []
    run = guided_sample(LAYOUT, cfg, BCFG, 6)
    assert np.array_equal(run.final_z, want[-1])
    # The same config as one item of a stack whose other items are guided.
    stack = [GuidanceConfig(), cfg, arm_config(GuidanceConfig(), "lac_wo_norm")]
    track = _stacked_run(LAYOUT, stack, 6)[1]
    assert track.curve == [] and len(track.steps) == len(want)
    for step, z in zip(track.steps, want):
        assert np.array_equal(step.z_after, z)


def test_guided_step_leaves_its_input_stack_unchanged():
    plan, start = _setup(LAYOUT, BCFG, 1)
    guided, unguided = GuidanceConfig(), GuidanceConfig(guided_steps=0)
    for cfgs, want in (([guided, unguided, guided], [0, 2]),
                       ([guided, guided], [0, 1])):
        z = np.repeat(start.z[None], len(cfgs), axis=0)
        before = z.tobytes()
        live, z_live, losses = guidance._guided_step(z, 0, plan, cfgs)
        assert z.tobytes() == before
        assert live == want and not np.shares_memory(z_live, z)
        assert [len(x) for x in losses] == [5 if i in want else 0
                                            for i in range(len(cfgs))]


def _arrays(tracks):
    """Every array a list of tracks hands out."""
    return [a for track in tracks
            for a in (track.z, track.attention,
                      *(x for step in track.steps
                        for x in (step.attention, step.z_after)))]


def test_two_trajectory_calls_share_no_memory():
    """Each ``_trajectories`` call owns its stack and workspace: the tracks
    of a second, identical call are equal to the first's and share no
    memory with them."""
    stack = [GuidanceConfig(guided_steps=2), GuidanceConfig(guided_steps=0),
             GuidanceConfig(guided_steps=1, gamma=5.0)]
    first, second = (_arrays(_stacked_run(LAYOUT, stack, 2))
                     for _ in range(2))
    for a, b in zip(first, second, strict=True):
        assert a.tobytes() == b.tobytes()
    assert not any(np.shares_memory(a, b) for a in first for b in second)


def test_kept_snapshots_hold_their_own_latents():
    """The stack is updated in place; each step's snapshot still equals the
    oracle loop's latent after the run ends, and shares no memory."""
    cfg = GuidanceConfig(guided_steps=2)
    run = guided_sample(LAYOUT, cfg, BCFG, 4)
    latents, curve = _oracle_run(LAYOUT, cfg, 4)
    assert run.loss_curve() == curve
    for step, z in zip(run.steps, latents, strict=True):
        assert step.z_after.tobytes() == z.tobytes()
    arrays = [step.z_after for step in run.steps] + [run.final_z]
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
        return Tracked(rng) if isinstance(seed, list) and len(seed) == 3 \
            else rng

    monkeypatch.setattr(np.random, "default_rng", default_rng)
    guided_sample(LAYOUT, GuidanceConfig(guided_steps=1), BCFG, 0)
    assert len(alive) == BCFG.total_steps
    assert most[0] <= 2


def test_row_reductions_tie_numpy_bit_for_bit():
    rng = np.random.default_rng(0)
    for n in [*range(1, 41), *range(127, 301)]:
        x = rng.standard_normal((2, 6, n)) * 10.0 ** rng.integers(
            -300, 300, (2, 6, n))
        x[0, 0] = -0.0
        x[0, 1, ::3] = np.inf
        x[0, 2, 1::4] = -np.inf
        x[0, 3, n // 2] = np.nan
        x[0, 4] = np.inf
        x[0, 5] = np.nan
        x[1, 0, ::2], x[1, 0, 1::2] = np.inf, -np.inf
        x[1, 1] = rng.choice([-1.0, 1.0], n) * rng.uniform(1e307, 1.7e308, n)
        x[1, 2] = rng.choice([-1.0, 1.0], n) * 2.0 ** -1074
        # Zeros of both signs: numpy's vectorised max may return either,
        # so this row is checked for the sum only.
        zeros = rng.choice([0.0, -0.0], (1, n))
        with np.errstate(over="ignore", invalid="ignore"):
            for ours, theirs in ((guidance._row_max, np.max),
                                 (guidance._row_sum, np.sum)):
                got, want = ours(x), theirs(x, axis=-1, keepdims=True)
                assert got.shape == want.shape, (ours.__name__, n)
                assert got.tobytes() == want.tobytes(), (ours.__name__, n)
            assert guidance._row_sum(zeros).tobytes() == \
                zeros.sum(axis=-1, keepdims=True).tobytes()


def _arms(**flags):
    return [arm_config(GuidanceConfig(**flags), arm) for arm in ARMS]


def test_stacked_guided_items_match_the_oracle_loop():
    # One stack per set of shared loop flags, each with every arm.
    layout = parse_layout(
        (bundled_suite_dir() / "fusion_cup_hat.json").read_text())
    for stack in (_arms() + [GuidanceConfig(gamma=300.0)],
                  _arms(detach_norms=True),
                  _arms(beta=0.5, guided_steps=3, iterations_per_step=2)):
        tracks = _stacked_run(layout, stack, 2)
        for cfg, track in zip(stack, tracks):
            latents, curve = _oracle_run(layout, cfg, 2)
            assert track.curve == curve and len(track.steps) == len(latents)
            for step, z in zip(track.steps, latents):
                assert np.array_equal(step.z_after, z)


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
        assert np.array_equal(got.z_after, want.z_after)
        assert np.array_equal(got.attention, want.attention)
    assert np.array_equal(track.z, run.final_z)
    assert np.array_equal(track.attention, run.final_attention)


def test_stacked_run_equals_each_items_solo_run():
    # Every arm and sweep point of the benchmark, the duplicate gamma-30
    # point included, over the suite and two seeds.
    stack = [arm_config(GuidanceConfig(), arm) for arm in ARMS]
    stack += [GuidanceConfig(gamma=g) for g in (1.0, 5.0, 30.0, 300.0)]
    for _, layout in load_suite(bundled_suite_dir()):
        for seed in (0, 1):
            solo = {}
            for cfg, track in zip(stack, _stacked_run(layout, stack, seed)):
                if cfg not in solo:
                    solo[cfg] = guided_sample(layout, cfg, BCFG, seed)
                _assert_same_run(track, solo[cfg])


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


# (resolution, content_words, n_objects, detach_norms). With d_z = 8 and
# 32 coordinates per chunk, 5x5 (200 coordinates) ends in a partial chunk
# of 8; 6x6, 8x8 and 16x16 fill their last chunk. At 1x1 (q = 1) each
# perturbed row is a whole latent.
_FD_CASES = [(r, w, o, d) for r in (6, 8, 16) for w, o in ((2, 2), (4, 2), (6, 1))
             for d in (False, True)]
_FD_CASES += [(r, 4, 2, d) for r in (1, 5) for d in (False, True)]


@pytest.mark.parametrize("resolution,words,objects,detach", _FD_CASES)
def test_gradient_check_differences_equal_one_coordinate_at_a_time(
        resolution, words, objects, detach):
    """The stacked central differences are byte-identical to the oracle's
    one-coordinate-at-a-time differences of the one-latent forward, with
    the target (and, detached, the divisors) held at the base point."""
    layout, plan, cfg, z0 = _check_instance(5, resolution, words, objects,
                                            detach)
    values = _attention(plan, z0[None])
    grads, _ = _loss_and_grad(plan, values, [cfg])
    target = target_maps(values[0], layout, plan.masks)
    frozen = loss_norms(values[0], layout) if detach else None

    def f(z):
        _, (_, _, total, _) = _loss_and_grad(plan, _attention(plan, z[None]),
                                             [cfg], target, frozen,
                                             with_grad=False)
        return total[0]

    result = gradient_check(5, resolution=resolution, content_words=words,
                            n_objects=objects, detach_norms=detach)
    want = central_difference(f, z0, h=FD_STEP)
    assert result.numeric.tobytes() == want.tobytes()
    assert result.analytic.tobytes() == grads[0].tobytes()


@pytest.mark.parametrize("resolution,calls", [(8, 17), (6, 10)])
def test_gradient_check_stacks_its_differences(resolution, calls, monkeypatch):
    """One gradient call, then one forward call per 32 coordinates: 1 +
    ceil(q * d_z / 32), not one call per perturbed latent."""
    seen = []

    def counting(*args, **kwargs):
        seen.append(args[1].shape[0])
        return _loss_and_grad(*args, **kwargs)

    monkeypatch.setattr(guidance, "_loss_and_grad", counting)
    gradient_check(3, resolution=resolution)
    coords = resolution * resolution * 8
    assert len(seen) == calls == 1 + math.ceil(coords / 32)
    assert sum(seen) == 1 + 2 * coords


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


# ---------------------------------------------------------------------------
# The closed-form gradient of the guided loop against the tape, bit for bit.


def _tape_loss_and_grad(plan, z, layout, cfg, **overrides):
    tape = Tape()
    leaf = tape.leaf(z)
    attn = cross_attention(tape, leaf, plan.tokens, plan.proj)
    loss, breakdown = loco_loss(attn, layout, plan.masks, cfg, **overrides)
    return tape.backward(loss)[leaf], breakdown, attn.value


def _assert_tied(plan, z, layout, cfgs, **overrides):
    """Each item's gradient, breakdown and attention in a stacked call equal
    the tape's on that item's latent exactly."""
    values = _attention(plan, z)
    grads, terms = _loss_and_grad(plan, values, cfgs, **overrides)
    breakdowns = _breakdowns(terms)
    for item, cfg, grad, breakdown, value in zip(z, cfgs, grads, breakdowns,
                                                 values):
        want = _tape_loss_and_grad(plan, item, layout, cfg, **overrides)
        assert np.array_equal(grad, want[0])
        assert breakdown == want[1]
        assert np.array_equal(value, want[2])
    forward = _loss_and_grad(plan, values, cfgs, with_grad=False,
                             **overrides)[1]
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
    z = np.repeat(state.z[None], len(cfgs), axis=0)
    step = np.array([cfg.gamma * schedule(0, cfg) for cfg in cfgs])
    for _ in range(iterations):
        grads = _assert_tied(plan, z, layout, cfgs)
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
    rng = np.random.default_rng(11)
    z0 = rng.standard_normal((backbone.q, backbone.d_z))
    values = _attention(plan, z0[None])[0]
    target = target_maps(values, layout, plan.masks)
    frozen = loss_norms(values, layout)
    z1 = z0 + 1e-3 * rng.standard_normal(z0.shape)
    for overrides in ({}, {"target": target}, {"frozen_norms": frozen},
                      {"target": target, "frozen_norms": frozen}):
        for cfg in TIE_CONFIGS.values():
            # cfg at the base point and at a point away from it, and cfg's
            # gamma/alpha variants away from it, as one stack.
            _assert_tied(plan, np.stack([z0, z1, z1, z1]), layout,
                         [cfg, *_stack(cfg)], **overrides)
        # Items that differ in lac_normalize, at both points, as one stack.
        _assert_tied(plan, np.stack([z0] * 3 + [z1] * 3), layout,
                     MIXED_NORMALIZE * 2, **overrides)


def test_pad_maps_are_the_one_hot_products_bit_for_bit():
    """``_loss_and_grad`` takes the SoT and EoT maps as column slices, where
    the tape multiplies by one-hot columns. On nonnegative stacks with
    exact zeros the two give the same bits, and at latents large enough
    for the softmax to underflow to exact zeros the loss still ties the
    tape."""
    rng = np.random.default_rng(0)
    for n in (3, 4, 5, 9, 16, 17):
        a = rng.random((6, 64, n))
        a[rng.random(a.shape) < 0.4] = 0.0
        a[0, 0] = 0.0
        a[1, 1] = 0.0
        a[1, 1, -1] = 1.0
        a[2] = a[2] / a[2].sum(axis=-1, keepdims=True).clip(1e-300)
        a[3] *= 2.0 ** -1070  # subnormal entries
        for col, got in zip(guidance._pad_columns(n),
                            (a[..., 0], a[..., -1])):
            assert ((a @ col)[..., 0]).tobytes() == got.tobytes()
    plan, start = _setup(LAYOUT, BCFG, 0)
    z = np.stack([start.z * 3000.0, start.z * 1000.0, start.z])
    values = _attention(plan, z)
    for pad in (values[:2, :, 0], values[:2, :, -1]):
        assert (pad == 0.0).sum() > 100
    for cfgs in TIE_STACKS.values():
        _assert_tied(plan, z, LAYOUT, cfgs)
