"""Toy denoiser: embeddings, attention extraction, denoise dynamics."""

import numpy as np
import pytest
from dataclasses import asdict, fields

from loco.backbone import (BackboneConfig, LatentState,
                           build_projections, cross_attention, denoise_step,
                           effective_noise, embed_tokens, expected_latent_rms,
                           init_latent, noise_scale, tokenize, value_matrix)
from loco.diffmath import ContractError, ShapeError, Tape
from loco.guidance import GuidanceConfig, guided_sample
from loco.layout import parse_layout

CFG = BackboneConfig()


def test_tokenize_splits_words_and_punctuation():
    assert tokenize("A cat, beside the dog!") == ["a", "cat", ",", "beside", "the", "dog", "!"]


def test_embed_token_count():
    tokens = embed_tokens("cat dog", 0)
    assert tokens.n == 4  # [SoT] cat dog [EoT]
    # SoT is the first row and EoT the last, whatever the prompt.
    other = embed_tokens("bird", 0)
    assert np.array_equal(tokens.e[0], other.e[0])
    assert np.array_equal(tokens.e[-1], other.e[-1])
    assert tokens.e.shape == (4, CFG.d_e)


def test_embed_deterministic():
    a = embed_tokens("cat dog", 123)
    b = embed_tokens("cat dog", 123)
    assert np.array_equal(a.e, b.e)
    c = embed_tokens("cat dog", 124)
    assert not np.array_equal(a.e, c.e)


def test_repeated_word_shares_embedding():
    tokens = embed_tokens("cat cat", 5)
    assert np.array_equal(tokens.e[1], tokens.e[2])
    assert not np.array_equal(tokens.e[0], tokens.e[1])


def test_embeddings_bounded():
    tokens = embed_tokens("cat dog bird tree", 7)
    assert np.all(np.abs(tokens.e) <= 1.0)


def test_empty_prompt_rejected():
    with pytest.raises(ContractError):
        embed_tokens("   ", 0)


def test_projections_seeded():
    a = build_projections(CFG, 9)
    b = build_projections(CFG, 9)
    c = build_projections(CFG, 10)
    assert np.array_equal(a.w_q, b.w_q) and np.array_equal(a.w_k, b.w_k)
    assert not np.array_equal(a.w_k, c.w_k)


def test_attention_rows_are_distributions():
    tokens = embed_tokens("cat beside dog", 1)
    proj = build_projections(CFG, 2)
    state = init_latent(CFG, 3)
    tape = Tape()
    values = cross_attention(tape, tape.constant(state.z), tokens, proj).value
    assert values.shape == (256, tokens.n)
    assert np.max(np.abs(values.sum(axis=1) - 1.0)) <= 1e-12
    assert np.all(values > 0) and np.all(values < 1)


def test_zero_latent_gives_uniform_attention():
    tokens = embed_tokens("cat dog", 1)
    proj = build_projections(CFG, 2)
    tape = Tape()
    attn = cross_attention(tape, tape.constant(np.zeros((256, CFG.d_z))), tokens, proj)
    assert np.allclose(attn.value, 1.0 / tokens.n, atol=1e-15)


def test_attention_is_row_local():
    tokens = embed_tokens("cat dog", 1)
    proj = build_projections(CFG, 2)
    z = init_latent(CFG, 3).z
    tape = Tape()
    base = cross_attention(tape, tape.constant(z), tokens, proj).value
    bumped = z.copy()
    bumped[17] += 0.5
    tape2 = Tape()
    after = cross_attention(tape2, tape2.constant(bumped), tokens, proj).value
    changed = np.any(base != after, axis=1)
    assert changed[17] and changed.sum() == 1


def test_attention_shape_checks():
    tokens = embed_tokens("cat dog", 1)
    proj = build_projections(CFG, 2)
    tape = Tape()
    with pytest.raises(ShapeError):
        cross_attention(tape, tape.constant(np.zeros((256, 5))), tokens, proj)
    with pytest.raises(ShapeError):
        cross_attention(tape, tape.constant(np.zeros((256, CFG.d_z))),
                        embed_tokens("cat dog", 1, d_e=8), proj)


def test_value_width_must_match_latent_width():
    tokens = embed_tokens("cat dog", 1)
    proj = build_projections(CFG, 2)
    assert value_matrix(tokens, proj, CFG.d_z).shape == (4, CFG.d_z)
    with pytest.raises(ShapeError):
        value_matrix(tokens, proj, CFG.d_z + 8)


def _setup(seed=0):
    tokens = embed_tokens("cat beside dog", seed)
    proj = build_projections(CFG, seed + 1)
    state = init_latent(CFG, seed + 2)
    tape = Tape()
    attn = cross_attention(tape, tape.constant(state.z), tokens, proj).value
    return tokens, proj, state, attn


def test_denoise_identity_at_rho_zero():
    tokens, proj, state, attn = _setup()
    out = denoise_step(state, attn, tokens, proj, rho=0.0, sigma_t=0.0)
    assert np.array_equal(out.z, state.z)
    assert out.t == state.t - 1


def test_denoise_endpoint_rho_one():
    tokens, proj, state, attn = _setup()
    out = denoise_step(state, attn, tokens, proj, rho=1.0, sigma_t=0.0)
    assert np.array_equal(out.z, attn @ value_matrix(tokens, proj, CFG.d_z))


def test_denoise_deterministic_with_noise():
    tokens, proj, state, attn = _setup()
    a = denoise_step(state, attn, tokens, proj, 0.1, 0.3)
    b = denoise_step(state, attn, tokens, proj, 0.1, 0.3)
    assert np.array_equal(a.z, b.z)


def test_denoise_contract_errors():
    tokens, proj, state, attn = _setup()
    done = LatentState(z=state.z, t=0, rng_seed=0)
    with pytest.raises(ContractError):
        denoise_step(done, attn, tokens, proj, 0.1, 0.0)
    with pytest.raises(ContractError):
        denoise_step(state, attn, tokens, proj, 1.5, 0.0)
    with pytest.raises(ContractError):
        denoise_step(state, attn, tokens, proj, 0.1, -1.0)
    with pytest.raises(ShapeError):
        denoise_step(state, attn[:, :-1], tokens, proj, 0.1, 0.0)


# Each case keeps the id it had when the list also held the dynamics'
# bounds; bad0 and bad1 are non-finite-range dimension cases in their place.
@pytest.mark.parametrize("bad", [
    pytest.param(dict(d_e=10 ** 400), id="bad0"),
    pytest.param(dict(resolution=float("nan")), id="bad1"),
    pytest.param(dict(resolution=0), id="bad2"),
    pytest.param(dict(d_e=0), id="bad3"),
    pytest.param(dict(d_z=-1), id="bad4"),
    pytest.param(dict(resolution=16.0), id="bad12"),
    pytest.param(dict(d_z=True), id="bad13"),
])
def test_backbone_config_validation(bad):
    with pytest.raises(ContractError):
        BackboneConfig(**bad)


def test_backbone_config_edges_are_valid():
    BackboneConfig(resolution=1, d_e=1, d_z=1)


def test_backbone_dynamics_are_constants_not_fields():
    """Only the dimensions are settable; the calibrated dynamics are class
    constants that the constructor does not take and ``asdict`` omits."""
    assert [f.name for f in fields(BackboneConfig)] == [
        "d_e", "d_z", "resolution"]
    constants = dict(total_steps=51, rho=0.08, sigma0=0.05, query_gain=7.5,
                     query_noise=0.25, init_scale=0.15, ood_noise_gain=5.5,
                     ood_slack=1.5)
    small = BackboneConfig(d_e=8, d_z=8, resolution=8)
    for name, value in constants.items():
        assert getattr(BackboneConfig, name) == value
        assert getattr(CFG, name) == getattr(small, name) == value
        with pytest.raises(TypeError):
            BackboneConfig(**{name: value})
    assert asdict(CFG) == dict(d_e=32, d_z=32, resolution=16)


def test_latent_state_timestep_bounds():
    # The countdown is bounded by the trajectory length, a class constant.
    assert [f.name for f in fields(LatentState)] == ["z", "t", "rng_seed"]
    z = np.zeros((256, CFG.d_z))
    for t in (0, CFG.total_steps):
        assert LatentState(z=z, t=t, rng_seed=0).t == t
    for t in (-1, CFG.total_steps + 1):
        with pytest.raises(ContractError, match="outside"):
            LatentState(z=z, t=t, rng_seed=0)


def test_noise_schedule_decays_linearly_to_zero():
    assert noise_scale(CFG, CFG.total_steps) == CFG.sigma0
    assert noise_scale(CFG, 0) == 0.0
    values = [noise_scale(CFG, t) for t in range(CFG.total_steps, -1, -1)]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_effective_noise_triggers_only_out_of_range():
    z_ok = np.full((4, 4), 0.1)
    z_hot = np.full((4, 4), 5.0)
    base = noise_scale(CFG, 40)
    assert effective_noise(CFG, 40, z_ok, expected_rms=0.1) == base
    assert effective_noise(CFG, 40, z_hot, expected_rms=0.1) > base


def test_effective_noise_gives_each_item_of_a_stack_its_own_sigma():
    rng = np.random.default_rng(0)
    scales = np.array([0.01, 0.1, 1.0, 10.0, 100.0])[:, None, None]
    z = rng.standard_normal((5, CFG.q, CFG.d_z)) * scales
    sigma = effective_noise(CFG, 30, z, expected_rms=0.5)
    # Each item's sigma is its latent's alone, bit for bit.
    assert sigma.shape == (5,) and sigma.tolist() == [
        float(effective_noise(CFG, 30, item, expected_rms=0.5)) for item in z]
    # The per-latent formula, one Python float at a time. np.mean adds the
    # squares pairwise and effective_noise as one contraction, in another
    # order: on these latents the sigmas differ by at most 7.4e-16 relative.
    want = [noise_scale(CFG, 30) * (1.0 + CFG.ood_noise_gain * max(
                0.0, float(np.sqrt(np.mean(item * item))) / 0.5 - CFG.ood_slack))
            for item in z]
    assert np.allclose(sigma, want, rtol=1e-15, atol=0.0)
    assert sigma[0] == noise_scale(CFG, 30) < sigma[-1]
    z[1, 0, 0] = np.nan
    assert np.isnan(effective_noise(CFG, 30, z, expected_rms=0.5)).tolist() \
        == [False, True, False, False, False]


def test_effective_noise_of_a_single_latent_is_a_0d_array():
    z = np.full((CFG.q, CFG.d_z), 0.1)
    sigma = effective_noise(CFG, 40, z, expected_rms=0.1)
    assert isinstance(sigma, np.ndarray) and sigma.shape == ()
    assert float(sigma) == noise_scale(CFG, 40)


def test_an_infinite_latent_gets_an_infinite_sigma():
    z = np.full((3, 4, 4), 0.1)
    z[2, 1, 3] = np.inf
    sigma = effective_noise(CFG, 40, z, expected_rms=0.1)
    assert sigma.tolist() == [noise_scale(CFG, 40)] * 2 + [np.inf]


def test_expected_latent_rms_path():
    assert expected_latent_rms(CFG, 0, 0.6) == pytest.approx(CFG.init_scale)
    assert expected_latent_rms(CFG, 10 ** 6, 0.6) == pytest.approx(0.6)


LAYOUT = parse_layout("""{
  "prompt": "cat beside dog",
  "objects": [
    {"phrase": "cat", "box": [0.0625, 0.125, 0.4375, 0.875]},
    {"phrase": "dog", "box": [0.5625, 0.125, 0.9375, 0.875]}
  ]
}""")


def test_trajectory_bit_reproducible():
    cfg = GuidanceConfig()
    a = guided_sample(LAYOUT, cfg, CFG, 4)
    b = guided_sample(LAYOUT, cfg, CFG, 4)
    assert np.array_equal(a.final_z, b.final_z)
    assert np.array_equal(a.final_attention, b.final_attention)
    assert len(a.steps) == len(b.steps) == CFG.total_steps
    for sa, sb in zip(a.steps, b.steps):
        assert sa.losses == sb.losses
        assert np.array_equal(sa.attention, sb.attention)


def test_attention_rows_valid_at_every_step():
    run = guided_sample(LAYOUT, GuidanceConfig(), CFG, 5)
    for step in run.steps:
        assert np.max(np.abs(step.attention.sum(axis=1) - 1.0)) <= 1e-12


def test_unguided_argmax_map_stabilizes_early():
    """Self-reinforcement: the per-pixel winner map freezes after the
    first 40% of steps in at least 95% of pixels, scheduled noise and all."""
    cfg = GuidanceConfig(guided_steps=0)
    cut = int(0.4 * CFG.total_steps)
    rates = []
    for seed in range(20):
        run = guided_sample(LAYOUT, cfg, CFG, seed)
        ref = run.steps[cut].attention.argmax(axis=1)
        final = run.steps[-1].attention.argmax(axis=1)
        rates.append(float(np.mean(ref == final)))
    assert min(rates) >= 0.95
