"""Deterministic toy frozen denoiser with a single cross-attention site.

Stands in for a large text-conditioned UNet at desk scale: token embeddings
come from a seeded hash of the word text, query/key projections from a
seeded generator, and the denoise step pulls each latent pixel toward the
value vector of whatever token it currently attends to. That last part
makes attention self-reinforcing, so layout decisions taken in the early
steps persist through the rest of the trajectory.

Everything is a pure function of (prompt, seeds, config); trajectories are
bit-reproducible.
"""

from __future__ import annotations

import hashlib
import numbers
import re
import sys
from dataclasses import dataclass, fields
from math import sqrt
from typing import ClassVar

import numpy as np

from .diffmath import ContractError, ShapeError, Tape, Var, matmul, row_softmax

__all__ = [
    "BackboneConfig",
    "LatentState",
    "ProjectionSet",
    "Seeds",
    "TokenSet",
    "build_projections",
    "cross_attention",
    "denoise_step",
    "effective_noise",
    "expected_latent_rms",
    "embed_tokens",
    "init_latent",
    "noise_scale",
    "tokenize",
    "value_matrix",
]

_TOKEN_RE = re.compile(r"\w+|[^\w\s]")

# Hash inputs reserved for the two padding tokens; control characters can
# never appear in tokenize() output, so real words cannot collide.
_SOT_WORD = "\x02sot"
_EOT_WORD = "\x03eot"


def tokenize(prompt: str) -> list[str]:
    """Lowercase whitespace/punctuation tokenization."""
    return _TOKEN_RE.findall(prompt.lower())


def _check_fields(config, bounds: dict[str, tuple[float, float]]) -> None:
    """Raise ``ContractError`` unless each field of a config dataclass has
    its default's type (a float field also takes an int, and only bool
    fields take a bool) and each number lies in its ``bounds`` entry. The
    default entry, [1 for an int or 0 for a float, the largest float],
    rejects NaN, infinities and ints beyond float range."""
    top = sys.float_info.max
    for f in fields(config):
        value, kind = getattr(config, f.name), type(f.default)
        want = {float: numbers.Real, int: numbers.Integral}.get(kind, kind)
        if isinstance(value, bool) != (kind is bool) or not isinstance(
                value, want):
            raise ContractError(
                f"{f.name} must be {kind.__name__}, got {value!r}")
        low, high = bounds.get(f.name, (int(kind is int), top))
        if kind is not bool and not low <= value <= high:
            least = "nonnegative" if low == 0 else f"at least {low}"
            most = "finite" if high == top else f"at most {high}"
            raise ContractError(
                f"{f.name} must be {least} and {most}, got {value!r}")


@dataclass(frozen=True)
class BackboneConfig:
    """Dimensions of the toy denoiser, its only fields.

    Its dynamics stand in for a frozen pretrained model's weights, so they
    are class constants: ``rho`` (pull toward the attended value vector),
    ``query_gain`` (logit sharpness), ``query_noise`` (off-diagonal
    perturbation of the query projection) and ``sigma0`` (initial noise
    level, decaying linearly to zero) were calibrated once against the
    argmax-stability property and are frozen here.
    """

    total_steps: ClassVar[int] = 51
    rho: ClassVar[float] = 0.08
    sigma0: ClassVar[float] = 0.05
    query_gain: ClassVar[float] = 7.5
    query_noise: ClassVar[float] = 0.25
    init_scale: ClassVar[float] = 0.15
    # Reconstruction noise for out-of-range latents: the frozen denoiser is
    # calibrated for latents near each timestep's expected scale, and
    # degrades on inputs pushed far beyond it (the toy's fidelity channel).
    ood_noise_gain: ClassVar[float] = 5.5
    ood_slack: ClassVar[float] = 1.5

    d_e: int = 32
    d_z: int = 32
    resolution: int = 16

    def __post_init__(self):
        _check_fields(self, {})

    @property
    def q(self) -> int:
        return self.resolution * self.resolution


@dataclass(frozen=True)
class Seeds:
    """Independent sub-seeds for the three random ingredients of a run."""

    vocab: int
    proj: int
    latent: int

    @classmethod
    def from_master(cls, master: int) -> "Seeds":
        children = np.random.SeedSequence(master).spawn(3)
        v, p, l = (int(c.generate_state(1, np.uint64)[0]) for c in children)
        return cls(vocab=v, proj=p, latent=l)


@dataclass(frozen=True)
class TokenSet:
    """Embedded prompt: [SoT], content words, [EoT], in order."""

    e: np.ndarray  # (n, d_e)
    words: tuple[str, ...]  # content words only

    @property
    def n(self) -> int:
        return self.e.shape[0]


def _word_embedding(word: str, vocab_seed: int, d_e: int) -> np.ndarray:
    digest = hashlib.blake2b(
        f"{vocab_seed}\x1f{word}".encode(), digest_size=8
    ).digest()
    rng = np.random.default_rng(int.from_bytes(digest, "little"))
    return rng.uniform(-1.0, 1.0, d_e)


def embed_tokens(prompt: str, vocab_seed: int, d_e: int = 32) -> TokenSet:
    """Tokenize and embed a prompt; identical words share one embedding."""
    words = tokenize(prompt)
    if not words:
        raise ContractError("prompt is empty after tokenization")
    rows = [_word_embedding(_SOT_WORD, vocab_seed, d_e)]
    rows += [_word_embedding(w, vocab_seed, d_e) for w in words]
    rows.append(_word_embedding(_EOT_WORD, vocab_seed, d_e))
    return TokenSet(e=np.stack(rows), words=tuple(words))


@dataclass(frozen=True)
class ProjectionSet:
    """Frozen query/key projections drawn from one seed.

    Keys double as the denoiser's value vectors, so their width is d_z.
    """

    w_q: np.ndarray  # (d_z, d_z)
    w_k: np.ndarray  # (d_e, d_z)


def build_projections(cfg: BackboneConfig, seed: int) -> ProjectionSet:
    """Seeded projections; W_Q is identity-aligned plus noise.

    Aligning queries with keys makes a pixel sitting at a token's value
    vector attend back to that token, which is what gives the denoise step
    stable per-token basins.
    """
    rng = np.random.default_rng(seed)
    w_k = rng.standard_normal((cfg.d_e, cfg.d_z)) / sqrt(cfg.d_e)
    noise = rng.standard_normal((cfg.d_z, cfg.d_z)) / sqrt(cfg.d_z)
    w_q = cfg.query_gain * (np.eye(cfg.d_z) + cfg.query_noise * noise)
    return ProjectionSet(w_q=w_q, w_k=w_k)


@dataclass(frozen=True)
class LatentState:
    """Latent pixels plus countdown bookkeeping; t runs T -> 0."""

    z: np.ndarray  # (q, d_z)
    t: int
    total_steps: int
    rng_seed: int

    def __post_init__(self):
        if not 0 <= self.t <= self.total_steps:
            raise ContractError(f"timestep {self.t} outside [0, {self.total_steps}]")


def init_latent(cfg: BackboneConfig, rng_seed: int) -> LatentState:
    """Seeded Gaussian start, deliberately small in norm.

    A small initial latent keeps the first attention maps flat and easy to
    steer; the denoise step then grows the latent into the key space where
    per-token basins are sharp, so the early layout freezes in.
    """
    rng = np.random.default_rng([rng_seed, 0])
    z = cfg.init_scale * rng.standard_normal((cfg.q, cfg.d_z))
    return LatentState(z=z, t=cfg.total_steps, total_steps=cfg.total_steps,
                       rng_seed=rng_seed)


def cross_attention(tape: Tape, z: Var, tokens: TokenSet,
                    proj: ProjectionSet) -> Var:
    """Row-softmaxed scaled query/key product, (q, n), recorded on the tape.

    Gradients flow to ``z``; token embeddings and projections are frozen.
    Column 0 is the SoT token's map and column -1 the EoT token's.
    """
    d_z, d = proj.w_q.shape
    if z.value.ndim != 2 or z.value.shape[1] != d_z:
        raise ShapeError(f"latent shape {z.value.shape} does not match d_z={d_z}")
    if tokens.e.shape[1] != proj.w_k.shape[0]:
        raise ShapeError(
            f"embedding width {tokens.e.shape[1]} does not match "
            f"projection d_e={proj.w_k.shape[0]}"
        )
    k = tokens.e @ proj.w_k  # (n, d), constant
    q = matmul(z, tape.constant(proj.w_q))
    logits = matmul(q, tape.constant(k.T))
    return row_softmax(logits, sqrt(d))


def value_matrix(tokens: TokenSet, proj: ProjectionSet, d_z: int) -> np.ndarray:
    """Token value vectors, (n, d_z): the key projection of each token."""
    width = proj.w_k.shape[1]
    if width != d_z:
        raise ShapeError(f"value width {width} does not match d_z={d_z}")
    return tokens.e @ proj.w_k


def noise_scale(cfg: BackboneConfig, t: int) -> float:
    """Scheduled noise level, decaying linearly to zero at t=0."""
    return cfg.sigma0 * t / cfg.total_steps


def expected_latent_rms(cfg: BackboneConfig, steps_done: int,
                        value_rms: float) -> float:
    """Entry scale the denoiser expects after ``steps_done`` denoises.

    The noiseless trajectory contracts geometrically from the initial
    scale toward the value-matrix scale; this is that path.
    """
    w = (1.0 - cfg.rho) ** steps_done
    return w * cfg.init_scale + (1.0 - w) * value_rms


def effective_noise(cfg: BackboneConfig, t: int, z: np.ndarray,
                    expected_rms: float) -> np.ndarray:
    """Scheduled noise plus reconstruction noise for out-of-range latents.

    The frozen denoiser is calibrated for latents at each timestep's
    expected scale. Latents within ``ood_slack`` of it get the plain
    schedule; latents driven far outside it (e.g. by an over-strong
    guidance scale) pick up noise proportional to the excess, the toy's
    stand-in for fidelity loss on out-of-distribution inputs.

    One sigma per latent of a stack z, (..., q, d_z); each item's RMS is
    bit-identical to the RMS of its latent alone. A latent with a NaN RMS
    gets a NaN sigma.
    """
    rms = np.sqrt(np.mean(z * z, axis=(-2, -1)))
    excess = np.maximum(0.0, rms / max(expected_rms, 1e-12) - cfg.ood_slack)
    return noise_scale(cfg, t) * (1.0 + cfg.ood_noise_gain * excess)


def denoise_step(state: LatentState, attn: np.ndarray, tokens: TokenSet,
                 proj: ProjectionSet, rho: float, sigma_t: float) -> LatentState:
    """One frozen-denoiser step: pull pixels toward their attended values.

    z <- (1 - rho) z + rho (A @ E_v) + sigma_t eta, with eta seeded per
    (run seed, timestep) so trajectories replay exactly.
    """
    if state.t <= 0:
        raise ContractError("trajectory already at t=0")
    if not 0.0 <= rho <= 1.0:
        raise ContractError(f"rho must lie in [0, 1], got {rho}")
    if sigma_t < 0:
        raise ContractError(f"sigma_t must be nonnegative, got {sigma_t}")
    if attn.shape != (state.z.shape[0], tokens.n):
        raise ShapeError(
            f"attention shape {attn.shape} does not match "
            f"(q={state.z.shape[0]}, n={tokens.n})"
        )
    e_v = value_matrix(tokens, proj, state.z.shape[1])
    z = (1.0 - rho) * state.z + rho * (attn @ e_v)
    if sigma_t > 0:
        rng = np.random.default_rng([state.rng_seed, 1, state.t])
        z = z + sigma_t * rng.standard_normal(state.z.shape)
    return LatentState(z=z, t=state.t - 1, total_steps=state.total_steps,
                       rng_seed=state.rng_seed)
