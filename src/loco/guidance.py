"""Layout guidance losses and the gradient-steered sampling loop.

Two constraints are computed from the cross-attention maps at each guided
timestep and differentiated back to the latent:

* the localized attention loss (``lac_loss``): the squared shortfall of the
  in-box share of per-object attention mass, with each object's map
  individually rescaled by its max so small-magnitude maps get moderate
  rather than runaway gradients;
* the padding-token loss (``ptc_loss``): binary cross-entropy pulling a
  blend of the start-of-text complement map and the end-of-text map toward
  the foreground target, which suppresses object response bleeding outside
  the boxes and keeps adjacent objects from fusing.

The combined loss is ``lac + alpha * ptc``. Each guided timestep runs a
fixed number of inner iterations: re-extract attention, differentiate,
step the latent downhill with a decaying step size, then hand the latent
to the frozen denoiser.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from math import isfinite, sqrt
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from . import diffmath as dm
from .backbone import (
    BackboneConfig,
    LatentState,
    ProjectionSet,
    Seeds,
    TokenSet,
    _check_fields,
    _sigmas,
    build_projections,
    embed_tokens,
    expected_latent_rms,
    init_latent,
)
# The trajectory engine below inlines these two; they stay attributes of this
# module because perfbench/tracing.py rebinds them here.
from .backbone import cross_attention, denoise_step  # noqa: F401
from .diffmath import ContractError, ShapeError, Var
from .layout import Layout, Phrase, _rasterize, layout_from_dict

__all__ = [
    "EPS",
    "GradCheckResult",
    "GuidanceConfig",
    "GuidedRun",
    "LossBreakdown",
    "StepRecord",
    "gradient_check",
    "guided_sample",
    "lac_loss",
    "loco_loss",
    "object_maps",
    "ptc_loss",
    "ptc_maps",
    "schedule",
    "update_latent",
]

# Floor for every division denominator in the loss chain.
EPS = 1e-8
# Probability clamp for the binary cross-entropy.
BCE_CLAMP = 1e-7
# The clamp's upper bound as a logit: sigmoid(a) > 1 - BCE_CLAMP iff a lies
# above it. 1 - (1 - BCE_CLAMP) is exact in float64.
_LOGIT_BOUND = float(np.log(1.0 - BCE_CLAMP) - np.log(1.0 - (1.0 - BCE_CLAMP)))
# Central-difference step of the gradient check.
FD_STEP = 1e-5


@dataclass(frozen=True)
class GuidanceConfig:
    """Knobs of the guidance loop; defaults are the tuned operating point."""

    gamma: float = 30.0
    alpha: float = 0.2
    beta: float = 0.8
    guided_steps: int = 10
    iterations_per_step: int = 5
    detach_norms: bool = False
    lac_normalize: bool = True

    def __post_init__(self):
        # 1000 updates per guided step is 200 times the default; a larger
        # count only makes a run too long to finish.
        _check_fields(self, {"beta": (0, 1),
                             "guided_steps": (0, BackboneConfig.total_steps),
                             "iterations_per_step": (1, 1000)})
        if self.gamma == 0:
            raise ContractError(f"gamma must be positive, got {self.gamma}")


@dataclass(frozen=True)
class LossBreakdown:
    lac: float
    ptc: float
    total: float
    per_object_inbox_fraction: tuple[float, ...]


def _phrase_selector(phrases: Sequence[Phrase], n: int) -> np.ndarray:
    """Column-averaging phrase selector S, (n, k).

    ``A @ S[:, i]`` is phrase i's map: multi-token phrases aggregate by
    elementwise mean, which keeps values inside (0, 1). Every span must be
    non-empty and inside the content range of the n tokens.
    """
    sel = np.zeros((n, len(phrases)))
    for i, phrase in enumerate(phrases):
        if not phrase.span:
            raise ContractError(f"phrase {phrase.text!r} has an empty span")
        if min(phrase.span) < 1 or max(phrase.span) > n - 2:
            raise ContractError(
                f"span {phrase.span} outside the content range of {n} tokens"
            )
        sel[list(phrase.span), i] = 1.0 / len(phrase.span)
    return sel


def _check_array(value, name: str) -> None:
    """Raise ``ShapeError`` unless value is an ``np.ndarray``."""
    if not isinstance(value, np.ndarray):
        raise ShapeError(f"{name} must be an np.ndarray, got "
                         f"{type(value).__name__}")


def _check_attention(attn: np.ndarray) -> None:
    """Reject attention that is not a finite 2-D (q, n) array of integers
    or floats."""
    _check_array(attn, "attention")
    if attn.ndim != 2:
        raise ShapeError(f"attention of shape {attn.shape} is not (q, n)")
    if attn.dtype.kind not in "iuf":
        raise ContractError(f"attention must be int or float, not {attn.dtype}")
    if not np.isfinite(attn).all():
        raise ContractError("attention has non-finite entries")


def object_maps(values: np.ndarray, layout: Layout) -> np.ndarray:
    """Object maps off the tape, (k, q): row i is ``values @ S[:, i]``, the
    maps the guided loop's loss reads, as one product, of finite (q, n)
    attention values."""
    _check_attention(values)
    return _phrase_selector(layout.phrases, values.shape[1]).T @ values.T


def _flat_masks(masks: Sequence[np.ndarray], q: int) -> np.ndarray:
    """Box masks as float rows, (k, q)."""
    out = np.zeros((len(masks), q))
    for i, m in enumerate(masks):
        flat = np.asarray(m, dtype=np.float64).reshape(-1)
        if flat.shape[0] != q:
            raise ShapeError(f"mask has {flat.shape[0]} cells, expected {q}")
        out[i] = flat
    return out


def lac_loss(attn: Var, layout: Layout, masks: Sequence[np.ndarray],
             normalize: bool = True, detach_norms: bool = False,
             frozen_norms: Sequence[float] | None = None) -> Var:
    """Squared shortfall of the in-box share of (rescaled) attention mass.

    With ``normalize`` each object's map is divided by its max entry before
    summation; ``detach_norms`` treats those divisors as constants of the
    gradient, and ``frozen_norms`` pins them to explicit values. Zero iff
    every object's mass lies inside its mask.
    """
    if layout.k == 0:
        raise ContractError("layout has no objects")
    if len(masks) != layout.k:
        raise ContractError(f"{len(masks)} masks for {layout.k} objects")
    tape = attn.tape
    flats = _flat_masks(masks, attn.shape[0])
    sel = _phrase_selector(layout.phrases, attn.shape[1])

    num = None
    den = None
    for i, flat in enumerate(flats):
        a_i = dm.matmul(attn, tape.constant(sel[:, i:i + 1]))
        inbox = dm.total(a_i * tape.constant(flat[:, None]))
        everywhere = dm.total(a_i)
        if normalize:
            if frozen_norms is not None:
                norm = tape.constant(frozen_norms[i])
            else:
                norm = dm.maximum(dm.max_norm(a_i), EPS)
                if detach_norms:
                    norm = dm.detach(norm)
            inbox = inbox / norm
            everywhere = everywhere / norm
        num = inbox if num is None else num + inbox
        den = everywhere if den is None else den + everywhere
    ratio = num / dm.maximum(den, EPS)
    return dm.square(1.0 - ratio)


def ptc_maps(attn: Var, beta: float, detach_norms: bool = False,
             frozen_norms: Sequence[float] | None = None) -> Var:
    """Blend of the SoT-complement and EoT maps, each max-rescaled, (q, 1).

    A convex combination of two maps with entries in [0, 1], so the result
    stays in [0, 1]. Divisors are floored at EPS, which maps an all-ones
    SoT map (or an all-zeros EoT map) to an exactly zero term.
    """
    if not 0.0 <= beta <= 1.0:
        raise ContractError(f"beta must lie in [0, 1], got {beta}")
    tape = attn.tape
    eye = np.eye(attn.shape[1])
    sot, eot = (dm.matmul(attn, tape.constant(col))
                for col in (eye[:, :1], eye[:, -1:]))
    inverted = 1.0 - sot
    if frozen_norms is not None:
        n_sot = tape.constant(frozen_norms[0])
        n_eot = tape.constant(frozen_norms[1])
    else:
        n_sot = dm.maximum(dm.max_norm(inverted), EPS)
        n_eot = dm.maximum(dm.max_norm(eot), EPS)
        if detach_norms:
            n_sot = dm.detach(n_sot)
            n_eot = dm.detach(n_eot)
    return beta * (inverted / n_sot) + (1.0 - beta) * (eot / n_eot)


def ptc_loss(a_pt: Var, target: np.ndarray) -> Var:
    """Mean binary cross-entropy between sigmoid(a_pt) and a fixed target."""
    tape = a_pt.tape
    cells = a_pt.value.size
    y = tape.constant(np.asarray(target, dtype=np.float64).reshape(-1, 1))
    if y.value.shape != a_pt.value.shape:
        raise ShapeError(
            f"target shape {y.value.shape} does not match map {a_pt.value.shape}"
        )
    p = dm.clamp(dm.sigmoid(a_pt), BCE_CLAMP, 1.0 - BCE_CLAMP)
    good = y * dm.log(p) + (1.0 - y) * dm.log(1.0 - p)
    return (0.0 - dm.total(good)) / float(cells)


def loco_loss(attn: Var, layout: Layout, masks: Sequence[np.ndarray],
              cfg: GuidanceConfig, target: np.ndarray | None = None,
              frozen_norms: np.ndarray | None = None
              ) -> tuple[Var, LossBreakdown]:
    """Combined loss ``lac + alpha * ptc`` on the tape, plus its breakdown.

    ``target`` defaults to the cellwise max over objects of each object map
    masked to its box, at the current attention values, treated as a
    constant for this iteration. ``frozen_norms``, (k + 2,), pins the
    rescaling divisors: the k object maps', then the SoT complement's and
    the EoT map's, as ``_loss_and_grad`` returns them in ``peaks``.
    """
    maps = object_maps(attn.value, layout)
    masked = maps * _flat_masks(masks, maps.shape[1])
    if target is None:
        target = masked.max(axis=0)
    held = frozen_norms is not None
    lac = lac_loss(attn, layout, masks, normalize=cfg.lac_normalize,
                   detach_norms=cfg.detach_norms,
                   frozen_norms=frozen_norms[:-2] if held else None)
    a_pt = ptc_maps(attn, cfg.beta, detach_norms=cfg.detach_norms,
                    frozen_norms=frozen_norms[-2:] if held else None)
    ptc = ptc_loss(a_pt, target)
    loss = lac + cfg.alpha * ptc
    inbox = masked.sum(axis=1) / np.maximum(maps.sum(axis=1), EPS)
    breakdown = LossBreakdown(
        lac=float(lac.value),
        ptc=float(ptc.value),
        total=float(loss.value),
        per_object_inbox_fraction=tuple(map(float, inbox)),
    )
    return loss, breakdown


def schedule(step_index: int, cfg: GuidanceConfig) -> float:
    """Linear step-size decay over the guided steps; strictly decreasing
    in (0, 1]."""
    s = cfg.guided_steps
    if not 0 <= step_index < s:
        raise ContractError(f"step index {step_index} outside [0, {s})")
    return (s - step_index) / s


def update_latent(state: LatentState, grad: np.ndarray, gamma: float,
                  lam: float) -> LatentState:
    """One descent step on the latent; the timestep is left untouched."""
    if grad.shape != state.z.shape:
        raise ShapeError(
            f"gradient shape {grad.shape} does not match latent {state.z.shape}"
        )
    return replace(state, z=state.z - gamma * lam * grad)


@dataclass(frozen=True)
class StepRecord:
    """One timestep of a run: its losses and the attention its denoise read.

    Step i of a run is its i-th timestep, guided iff it has losses, and
    leaves the latent at t = total_steps - 1 - i.
    """

    losses: tuple[LossBreakdown, ...]
    attention: np.ndarray  # (q, n) values after updates, before the denoise


@dataclass(frozen=True)
class GuidedRun:
    layout: Layout
    config: GuidanceConfig
    backbone: BackboneConfig
    tokens: TokenSet
    steps: tuple[StepRecord, ...]
    final_z: np.ndarray  # (q, d_z), the latent at t = 0
    final_attention: np.ndarray  # (q, n), attention at final_z

    def loss_curve(self) -> list[LossBreakdown]:
        return [bd for step in self.steps for bd in step.losses]


@dataclass(frozen=True)
class _Plan:
    """A run's constants: the prompt, and the operands built once from it,
    the boxes and the projections, so an iteration only touches z."""

    tokens: TokenSet
    keys: np.ndarray  # (n, d): E @ W_k, also the denoiser's value vectors
    fold_t: np.ndarray  # (n, d_z): K W_q^T / sqrt(d); logits = fold_t @ z^T
    # (n, n): fold_t @ fold_t^T, so a latent step z -= g^T fold_t moves the
    # logits by -gram @ g.
    gram: np.ndarray
    # (n, k + 2): the phrase selector's k columns, then -1 at SoT and +1 at
    # EoT, so one product gives every row the loss divides by its peak.
    sel_ext: np.ndarray
    flats: np.ndarray  # (k, q) box masks


def _is_nonnegative_int(value) -> bool:
    """Whether value is a nonnegative int and not a bool, as a master seed
    must be."""
    return isinstance(value, int) and not isinstance(value, bool) \
        and value >= 0


def _seeded(backbone: BackboneConfig, seed: int
            ) -> tuple[Seeds, ProjectionSet, LatentState]:
    """A master seed's part of a run's set-up, which all its layouts share:
    the sub-seeds, the projections and the start latent."""
    if not _is_nonnegative_int(seed):
        raise ContractError(f"seed must be a nonnegative integer, got {seed!r}")
    seeds = Seeds.from_master(seed)
    return (seeds, build_projections(backbone, seeds.proj),
            init_latent(backbone, seeds.latent))


def _plan(layout: Layout, backbone: BackboneConfig, seeds: Seeds,
          proj: ProjectionSet) -> _Plan:
    """A layout's part: its constants under the seed's sub-seeds and
    projections."""
    tokens = embed_tokens(layout.prompt, seeds.vocab, backbone.d_e)
    keys = tokens.e @ proj.w_k
    # The backbone is frozen, so within a run W_q and K are constants and
    # the two projections fold into one (n, d_z) map.
    fold_t = (keys @ proj.w_q.T) / sqrt(proj.w_q.shape[1])
    pads = np.zeros((tokens.n, 2))
    pads[0, 0], pads[-1, 1] = -1.0, 1.0
    return _Plan(
        tokens=tokens, keys=keys, fold_t=fold_t, gram=fold_t @ fold_t.T,
        sel_ext=np.hstack((_phrase_selector(layout.phrases, tokens.n), pads)),
        flats=_rasterize(layout.boxes, backbone.resolution))


def _setup(layout: Layout, backbone: BackboneConfig, seed: int
           ) -> tuple[_Plan, LatentState]:
    """A run's constants and its start latent, from the master seed."""
    seeds, proj, start = _seeded(backbone, seed)
    return _plan(layout, backbone, seeds, proj), start


# The closed-form loss and the trajectory engine work on stacks of latents,
# (B, q, d_z), and hold attention token-major, (B, n, q): row j of an item is
# token j's map, q contiguous cells, so the softmax reduces over the token
# axis with q-wide operations and each map the loss reads is one row. A
# stacked np.matmul is, item by item, the 2-D product, and each reduction
# runs along the same axis as on one item, so every item is bit-identical to
# the same computation on its latent alone.
#
# The logits are linear in the latent, L = F z^T with F = plan.fold_t. A
# guided iteration therefore steps the logits, L -= (F F^T) g for the step's
# logit gradient g, and a guided step writes the latent once, z -= G^T F
# for the sum G of its iterations' steps.

def _softmax(logits: np.ndarray) -> np.ndarray:
    """The softmax over the tokens of stacked token-major logits, (B, n, q),
    a fresh array; the logits are left as they are."""
    e = logits - np.maximum.reduce(logits, 1, keepdims=True)
    np.exp(e, out=e)
    e /= np.add.reduce(e, 1, keepdims=True)
    return e


def _attention(plan: _Plan, z: np.ndarray) -> np.ndarray:
    """Cross-attention values at stacked latents, token-major, (B, n, q):
    ``_softmax`` of ``plan.fold_t @ z^T``, a fresh array. Column p of an
    item depends on row p of its latent alone."""
    return _softmax(plan.fold_t @ z.swapaxes(-1, -2))


def _to_latent(plan: _Plan, g: np.ndarray, out: np.ndarray | None = None
               ) -> np.ndarray:
    """Stacked logit-space arrays g, (B, n, q), taken to the latent,
    ``g^T @ plan.fold_t``, (B, q, d_z), written into ``out`` when given:
    a logit gradient to its latent gradient, a logit step to its latent
    step."""
    return np.matmul(g.swapaxes(1, 2), plan.fold_t, out=out)


class _Terms(NamedTuple):
    """A stack's loss terms, one entry per item, and the constants the loss
    held while it differentiated."""

    lac: np.ndarray  # (B,)
    ptc: np.ndarray  # (B,)
    total: np.ndarray  # (B,)
    inbox: np.ndarray  # (B, k): each object's in-box share of its mass
    target: np.ndarray  # (B, q) cross-entropy target, or the given (q,)
    peaks: np.ndarray  # (B, k + 2) floored map peaks, or the given (k + 2,)


def _breakdowns(terms: _Terms) -> list[LossBreakdown]:
    """One ``LossBreakdown`` per item of a stack's loss terms."""
    return [LossBreakdown(lac=l, ptc=c, total=t,
                          per_object_inbox_fraction=tuple(f))
            for l, c, t, f in zip(*(x.tolist() for x in terms[:4]))]


@dataclass(frozen=True)
class _Stack:
    """The per-item constants of a stack's loss, built once per stack by
    ``_Stack.of`` (a guided step's live items, a gradient check's
    differences) instead of once per loss call. Its length is the number
    of items."""

    alpha: np.ndarray  # (B,)
    ce_weight: np.ndarray  # (B, 1): alpha / q, the cross-entropy's weight
    scaled: np.ndarray  # (B, k + 2) bool: the rows divided by their peak
    # (B, k + 2): where each row starts in the flat view of the (B, k + 2, q)
    # rows the loss divides by their peaks
    starts: np.ndarray
    blend: np.ndarray  # (2,): beta and 1 - beta, the pad rows' weights
    detach_norms: bool

    @classmethod
    def of(cls, plan: _Plan, cfgs: Sequence[GuidanceConfig]) -> _Stack:
        """The constants of a stack whose item b uses ``cfgs[b]``. The items
        share ``beta`` and ``detach_norms`` (``_trajectories`` checks it)
        and take the rest from their own config."""
        b = len(cfgs)
        k, q = plan.flats.shape
        alpha = np.array([c.alpha for c in cfgs], dtype=np.float64)
        # An item without lac_normalize divides its object maps by 1.0.
        scaled = np.ones((b, k + 2), dtype=bool)
        scaled[:, :k] = np.array([c.lac_normalize for c in cfgs])[:, None]
        beta = float(cfgs[0].beta)
        return cls(alpha=alpha, ce_weight=(alpha / q)[:, None],
                   scaled=scaled,
                   starts=np.arange(0, b * (k + 2) * q, q).reshape(b, k + 2),
                   blend=np.array([beta, 1.0 - beta]),
                   detach_norms=cfgs[0].detach_norms)

    def __len__(self) -> int:
        return self.alpha.shape[0]


def _loss_and_grad(plan: _Plan, a: np.ndarray, stack: _Stack,
                   target: np.ndarray | None = None,
                   frozen_norms: np.ndarray | None = None,
                   with_grad: bool = True
                   ) -> tuple[np.ndarray | None, _Terms]:
    """``loco_loss`` at a stack of token-major attention values a,
    (B, n, q), and its gradient with respect to the logits, (B, n, q), in
    closed form; item b uses the constants of ``stack`` (``_Stack.of`` the
    items' configs).

    ``a`` is the softmax of the logits; the loss reads only it, so no
    latent is needed. Returns the gradients, a fresh array (None without
    ``with_grad``), and the loss terms (``_breakdowns`` turns them into one
    breakdown per item). ``_to_latent`` takes the gradients to the latents:
    there each item's is the gradient that ``cross_attention`` +
    ``loco_loss`` + ``Tape.backward`` compute on its latent, which stay as
    the oracle; the two differ by rounding only. ``target``, (q,), and
    ``frozen_norms``, (k + 2,), act as in ``loco_loss``, on every item.

    Besides the loss terms, the record holds the two constants the loss
    holds while it differentiates: the cross-entropy target and the floored
    map peaks, the k object maps', the SoT complement's and the EoT map's,
    taken before an item without ``lac_normalize`` divides by 1.0 instead.
    Each is the array the loss read, the given one when given; fed back as
    ``target`` and ``frozen_norms`` at the same attention, an item's
    constants reproduce its terms.
    """
    if len(stack) != a.shape[0]:
        raise ContractError("a stacked loss needs one config per latent")
    k = plan.flats.shape[0]
    if k == 0:
        raise ContractError("layout has no objects")
    b, q = a.shape[0], a.shape[2]
    # Detached or frozen divisors are constants: no adjoint reaches them.
    held = stack.detach_norms or frozen_norms is not None

    # The maps the loss divides by their floored peaks, (B, k + 2, q): the
    # k object maps, the SoT complement and the EoT map, as one product with
    # the extended selector, which leaves -SoT in row k.
    rows = plan.sel_ext.T @ a
    rows[:, k] += 1.0
    maps = rows[:, :k]
    if frozen_norms is None:
        # Each row's first max entry, read by one flat fancy index.
        spot = stack.starts + rows.argmax(axis=-1)
        top = rows.reshape(-1)[spot]
        peaks = np.maximum(top, EPS)
    else:
        peaks = np.asarray(frozen_norms, dtype=np.float64)
    norms = np.where(stack.scaled, peaks, 1.0)

    # lac: the in-box share of the rescaled object mass, its numerator and
    # denominator reduced together from one (B, 2, k) array. The reductions
    # call np.add.reduce and np.maximum.reduce, as the sum and max methods
    # do, without the methods' Python wrapper.
    masked = maps * plan.flats
    mass = np.empty((b, 2, k))
    np.add.reduce(masked, -1, out=mass[:, 0])
    np.add.reduce(maps, -1, out=mass[:, 1])
    num, den = np.add.reduce(mass / norms[:, None, :k], -1).T
    den_floor = np.maximum(den, EPS)
    ratio = num / den_floor
    short = 1.0 - ratio
    lac = short * short

    # ptc: cross-entropy of the blended rescaled SoT complement and EoT map,
    # one weighted sum with each pad row's blend weight over its divisor.
    w = stack.blend / norms[:, k:]
    a_pt = rows[:, k] * w[:, :1] + rows[:, k + 1] * w[:, 1:]
    if target is None:
        y = np.maximum.reduce(masked, 1)
    else:
        y = np.asarray(target, dtype=np.float64).reshape(-1)
        if y.shape != (q,):
            raise ShapeError(
                f"target shape {y.shape} does not match map {(q, 1)}")
    # From the logit x, a cell is (1 - y) x + log1p(e^-x). a_pt >= 0, so
    # s = sigmoid(a_pt) >= 1/2 and only the clamp's upper bound can bind.
    # The mean is sum / count, as np.mean computes it, without its wrapper.
    x = np.minimum(a_pt, _LOGIT_BOUND)
    e = np.exp(-x)
    ptc = np.add.reduce((1.0 - y) * x + np.log1p(e), -1) / q
    total = lac + stack.alpha * ptc

    inbox, every = mass[:, 0], mass[:, 1]
    terms = _Terms(lac, ptc, total, inbox / np.maximum(every, EPS), y, peaks)
    if not with_grad:
        return None, terms

    # The adjoint of each row. The cross-entropy's adjoint at a_pt is the
    # sigmoid's natural alpha / q * (s - y), with s = 1 / (1 + e), which
    # the clamp passes where a_pt <= _LOGIT_BOUND, false for a NaN a_pt.
    g_num = -2.0 * short / den_floor
    g_den = -g_num * ratio * (den >= EPS)
    g_pt = stack.ce_weight * (1.0 / (1.0 + e) - y) * (a_pt <= _LOGIT_BOUND)
    g_rows = np.empty_like(rows)
    np.divide(g_num[:, None, None] * plan.flats + g_den[:, None, None],
              norms[:, :k, None], out=g_rows[:, :k])
    # Each pad row's adjoint: its blend weight over its divisor, times g_pt.
    np.multiply(w[..., None], g_pt[:, None], out=g_rows[:, k:])
    if not held:
        # Each divisor's adjoint, -(g_rows . rows) / norm, added at the
        # entry its peak was read from, where the peak beat its floor.
        g_norms = np.add.reduce(g_rows * rows, -1) / norms
        g_norms *= stack.scaled & (top >= EPS)
        g_rows.reshape(-1)[spot] -= g_norms
    # One product with the extended selector: the object columns, and the
    # pad rows' adjoints at SoT (negated) and EoT.
    g_a = plan.sel_ext @ g_rows

    # Backward through the softmax over the tokens.
    return a * (g_a - np.add.reduce(g_a * a, 1, keepdims=True)), terms


def _guided_step(z: np.ndarray, index: int, plan: _Plan,
                 cfgs: Sequence[GuidanceConfig],
                 work: np.ndarray | None = None
                 ) -> Iterator[tuple[np.ndarray, _Terms]]:
    """Guided timestep ``index`` of a stack z, which it updates in place.

    The live items, those with ``index < guided_steps``, lead the stack
    (``_trajectories`` checks the order), so they are the prefix ``z[:m]``;
    the items after them keep their latent. The live items take their
    updates together, one stacked loss call per iteration on constants
    built once for the step. The iterations step the live items' logits,
    computed once from z: each but the last moves them by
    ``-plan.gram @ s g`` for its logit gradient g at step size s, which is
    what ``z -= (s g)^T F`` does to them. After each iteration's update it
    yields ``(values, terms)``: the (m, n, q) attention values the update
    read, a fresh array, and the live items' loss terms. z is written once, after the last yield, by the
    sum of the steps taken to the latent through ``work[:m]`` (a fresh
    array when no ``work`` is given): a caller reads the updated z only
    once the step is exhausted. With no live item it yields nothing.
    """
    m = sum(index < cfg.guided_steps for cfg in cfgs)
    if not m:
        return
    zr, part = z[:m], cfgs[:m]
    stack = _Stack.of(plan, part)
    # update_latent's step, gamma * lambda, per item.
    step = np.array([c.gamma * schedule(index, c) for c in part])
    step = step.reshape(-1, 1, 1)
    logits = plan.fold_t @ zr.swapaxes(-1, -2)
    total = np.zeros_like(logits)
    for it in range(part[0].iterations_per_step):
        if it:  # the previous iteration's step; the last one's goes unread
            logits -= plan.gram @ g
        values = _softmax(logits)
        g, terms = _loss_and_grad(plan, values, stack)
        g *= step
        total += g
        yield values, terms
    zr -= _to_latent(plan, total, None if work is None else work[:m])


# numpy's SeedSequence hash (NEP 19: a pool of 4 uint32 words) and PCG64's
# seeding multiplier, which numpy ships compiled.
_M32, _PCG_MULT = 0xFFFFFFFF, 0x2360ED051FC65DA44385DF649FCCF645


def _pcg64_states(rng_seed: int, ts: np.ndarray) -> Iterator[dict]:
    """``PCG64(SeedSequence([rng_seed, 1, t])).state`` of each t of ts, a
    uint32 array, hashed in one pass: on Python ints while the hash reads
    only the words all ts share, on uint32 arrays over ts from t on."""
    entropy = [rng_seed >> bit & _M32
               for bit in range(0, rng_seed.bit_length() or 1, 32)] + [1, ts]
    const = 0x43B0D7E5

    def hashmix(value, mult=0x931E8875):
        nonlocal const
        value = value ^ const
        const = const * mult & _M32
        value = value * const & _M32
        return value ^ value >> 16

    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(4)]
    # numpy's two mixing loops as one: each pool word into the others, then
    # each entropy word past the pool into all four.
    for src in range(max(len(entropy), 4)):
        for dst in range(4):
            if dst != src:
                y = hashmix(pool[src] if src < 4 else entropy[src])
                x = ((0xCA01F9DD * pool[dst] & _M32)
                     - (0x4973F715 * y & _M32)) & _M32
                pool[dst] = x ^ x >> 16
    # generate_state(4, np.uint64): eight uint32 words, twice round the
    # pool, paired low word first; every word holds t, so each is an array.
    const = 0x8B51F9DD
    words = np.array([hashmix(word, 0x58F38DED) for word in pool * 2], "<u4")
    for w0, w1, w2, w3 in np.ascontiguousarray(words.T).view("<u8").tolist():
        inc = (w2 << 65 | w3 << 1 | 1) % (1 << 128)
        yield {"bit_generator": "PCG64", "has_uint32": 0, "uinteger": 0,
               "state": {"state": (((w0 << 64 | w1) + inc) * _PCG_MULT + inc)
                         % (1 << 128), "inc": inc}}


def _noise_draws(backbone: BackboneConfig, rng_seed: int
                 ) -> Iterator[np.ndarray]:
    """Each timestep's noise draw, first timestep first, as ``denoise_step``
    draws it from the run seed and t alone: a standard normal (q, d_z)
    array. The schedule's noise is positive at every timestep a trajectory
    visits, t = total_steps down to 1, so every timestep draws. Lazy, so a
    lone run holds one draw at a time; ``run_benchmark`` lists a seed's
    draws once and shares them among its layouts."""
    # One generator, set to default_rng([rng_seed, 1, t])'s state per draw.
    rng = np.random.Generator(np.random.PCG64(0))
    for state in _pcg64_states(rng_seed, np.arange(
            backbone.total_steps, 0, -1, dtype=np.uint32)):
        rng.bit_generator.state = state
        yield rng.standard_normal((backbone.q, backbone.d_z))


def _trajectories(plan: _Plan, z0: np.ndarray,
                  draws: Iterable[np.ndarray],
                  cfgs: Sequence[GuidanceConfig], backbone: BackboneConfig
                  ) -> Iterator[tuple[list[_Terms], np.ndarray, np.ndarray]]:
    """Run one trajectory per config as one stack of latents, yielding after
    each timestep's denoise.

    The items share the plan, the start latent ``z0``, (q, d_z), and each
    timestep's (q, d_z) noise draw, taken in order from ``draws``
    (``_noise_draws`` of the run seed); ``gamma``, ``alpha``,
    ``lac_normalize`` and ``guided_steps`` may differ, while the guided
    items share ``beta``, ``detach_norms`` and ``iterations_per_step``. The
    items come in order of ``guided_steps``, largest first, so the items a
    guided step updates lead the stack. Both conditions are checked once,
    and a stack that breaks one raises ``ContractError``. Each
    item is bit-identical to its own run. Each yield is ``(terms,
    attention, z)``: the timestep's loss terms, one ``_Terms`` per guided
    iteration whose entries are the live items', the prefix of the stack
    the iteration updated (none at an unguided timestep); the token-major
    (B, n, q) attention the denoise read, a fresh array; and the stack
    (B, q, d_z) after the denoise, which the next timestep changes in
    place.
    """
    if any(a.guided_steps < b.guided_steps for a, b in zip(cfgs, cfgs[1:])):
        raise ContractError("the items of a stack must come in order of "
                            "guided_steps, largest first")
    if len({(c.beta, c.detach_norms, c.iterations_per_step)
            for c in cfgs if c.guided_steps}) > 1:
        raise ContractError("the guided items of a stack must share beta, "
                            "detach_norms and iterations_per_step")
    rho = backbone.rho
    e_v = plan.keys
    value_rms = float(np.sqrt((e_v * e_v).sum() / e_v.size))  # as np.mean
    # The denoiser's values scaled by rho once, so that the denoise reads
    # rho A^T E_v as one product.
    rho_e_v = rho * e_v
    guided = max((c.guided_steps for c in cfgs), default=0)
    # The stack and one work array, for the guided steps' latent steps and
    # then the denoise's increments: the updates, the denoise and the noise
    # write into them in place, the same operations as fresh arrays without
    # allocating.
    z = np.repeat(z0[None], len(cfgs), axis=0)
    work = np.empty_like(z)

    for index, draw in zip(range(backbone.total_steps), draws, strict=True):
        t = backbone.total_steps - index
        # A latent that overflows raises the error below instead of
        # warnings. The state is set per timestep, so that it never spans
        # a yield and leaks into the caller.
        with np.errstate(over="ignore", invalid="ignore"):
            terms = ([t for _, t in _guided_step(z, index, plan, cfgs, work)]
                     if index < guided else [])
            attn = _attention(plan, z)
            # denoise_step on every item: (1 - rho) z + A^T (rho E_v), then
            # sigma times the shared draw.
            sigma = _sigmas(
                backbone, t, z, expected_latent_rms(backbone, index, value_rms))
            delta = np.matmul(attn.swapaxes(1, 2), rho_e_v, out=work)
            z *= 1.0 - rho
            z += delta
            for item_sigma, item_delta in zip(sigma, delta):
                np.multiply(draw, item_sigma, out=item_delta)
            z += delta
        # Checked once per timestep, on sigma: a latent whose mean square is
        # not finite gets a sigma that is not finite, which its noise carries
        # into every entry of z, and a finite sigma bounds |z| far below
        # overflow, so z is finite iff sigma is.
        finite = list(map(isfinite, sigma))
        if not all(finite):
            bad = cfgs[finite.index(False)]
            raise ContractError(
                f"latent turned non-finite at timestep {index} "
                f"(t={t}); gamma={bad.gamma:g} is too large")
        yield terms, attn, z


def guided_sample(layout: Layout, cfg: GuidanceConfig, backbone: BackboneConfig,
                  seeds: int) -> GuidedRun:
    """Run the full trajectory: guided prefix, then plain denoising.

    Each of the first ``cfg.guided_steps`` timesteps re-extracts attention,
    differentiates the combined loss, and steps the latent
    ``cfg.iterations_per_step`` times before one denoise; the remaining
    timesteps denoise without guidance. ``seeds`` is the nonnegative
    master seed; ``Seeds.from_master`` draws the run's sub-seeds from it.
    The run holds one ``StepRecord`` per timestep and, of the latents, only
    the final one, ``final_z``, (q, d_z), and its attention
    ``final_attention``, (q, n): one map per token, SoT first and EoT last.
    Both it and each step's attention are transposed views of the engine's
    token-major arrays.
    """
    plan, start = _setup(layout, backbone, seeds)
    steps = []
    for terms, attn, z in _trajectories(
            plan, start.z, _noise_draws(backbone, start.rng_seed), [cfg],
            backbone):
        steps.append(StepRecord(
            losses=tuple(_breakdowns(t)[0] for t in terms),
            attention=attn[0].T))
    return GuidedRun(layout=layout, config=cfg, backbone=backbone,
                     tokens=plan.tokens, steps=tuple(steps), final_z=z[0],
                     final_attention=_attention(plan, z)[0].T)


# ---------------------------------------------------------------------------
# Gradient validation against central finite differences.

_CHECK_WORDS = ("cat", "dog", "bird", "car", "tree", "boat", "ball", "cup",
                "hat", "fish", "star", "frog")


@dataclass(frozen=True)
class GradCheckResult:
    max_rel_error: float
    worst_coordinate: tuple[int, int]  # (pixel, channel) of the largest gap
    analytic: np.ndarray
    numeric: np.ndarray


def _random_layout(rng: np.random.Generator, n_objects: int,
                   n_content: int) -> Layout:
    words = [
        _CHECK_WORDS[i] for i in rng.choice(len(_CHECK_WORDS), size=n_content,
                                            replace=False)
    ]
    prompt = " ".join(words)
    doc: dict = {"prompt": prompt, "objects": []}
    for i in range(n_objects):
        x0 = float(rng.uniform(0.0, 0.5))
        y0 = float(rng.uniform(0.0, 0.5))
        x1 = float(rng.uniform(x0 + 0.25, 1.0))
        y1 = float(rng.uniform(y0 + 0.25, 1.0))
        doc["objects"].append({"phrase": words[i], "box": [x0, y0, x1, y1]})
    return layout_from_dict(doc)


def _check_instance(seed: int, resolution: int, content_words: int,
                    n_objects: int, detach_norms: bool
                    ) -> tuple[_Plan, GuidanceConfig, np.ndarray]:
    """``gradient_check``'s seeded problem, after checking its arguments: the
    plan of a random layout, the config and the base latent."""
    given = (seed, content_words, n_objects)
    if not (all(map(_is_nonnegative_int, given)) and content_words >= 2
            and 1 <= n_objects <= content_words <= len(_CHECK_WORDS)):
        raise ContractError(
            "seed must be a nonnegative integer, and 2 <= content_words <= "
            f"{len(_CHECK_WORDS)} and 1 <= n_objects <= content_words; got "
            f"(seed, content_words, n_objects) = {given!r}")
    backbone = BackboneConfig(resolution=resolution, d_e=8, d_z=8)
    if resolution > 16:
        raise ContractError("finite differences need a latent of at most 16x16")
    rng = np.random.default_rng(seed)
    layout = _random_layout(rng, n_objects, content_words)
    seeds = Seeds.from_master(seed)
    plan = _plan(layout, backbone, seeds,
                 build_projections(backbone, seeds.proj))
    z0 = rng.standard_normal((backbone.q, backbone.d_z))
    return plan, GuidanceConfig(detach_norms=detach_norms), z0


def _central_losses(plan: _Plan, stack: _Stack, z0: np.ndarray,
                    a: np.ndarray, held: _Terms) -> np.ndarray:
    """The loss at z0 +- FD_STEP e_j for every coordinate j, (2, q d_z),
    from the reductions at z0: ``a``, (n, q), is the attention there and
    ``held`` the terms of the one-item ``stack``'s loss, whose target, and
    divisors with ``detach_norms``, stay fixed. See ``gradient_check``."""
    def cross_entropy(a_pt, y):  # the cells _loss_and_grad sums
        x = np.minimum(a_pt, _LOGIT_BOUND)
        return (1.0 - y) * x + np.log1p(np.exp(-x))

    q, d_z = z0.shape
    k = plan.flats.shape[0]
    y, peaks = held.target[0], held.peaks[0]
    rows = plan.sel_ext.T @ a
    rows[k] += 1.0
    inbox, every = np.add.reduce((rows[:k] * plan.flats, rows[:k]), -1)
    first, top = rows.argmax(axis=-1), rows.max(axis=-1)
    rest = rows.copy()
    rest[np.arange(k + 2), first] = -np.inf
    w = stack.blend / peaks[k:]
    cells = cross_entropy(rows[k] * w[0] + rows[k + 1] * w[1], y)

    # The perturbed pixels' latent rows, as one forward.
    coord = np.arange(2 * q * d_z)
    pixel, channel = np.divmod(coord % (q * d_z), d_z)
    moved = z0[pixel]
    moved[coord, channel] += np.repeat((FD_STEP, -FD_STEP), q * d_z)
    col = plan.sel_ext.T @ _attention(plan, moved[None])[0]
    col[k] += 1.0
    step = col - rows[:, pixel]
    # A row's peak: the larger of its new cell and its best other cell, the
    # second value where the first was, else the first.
    other = np.where(pixel == first[:, None], rest.max(axis=-1)[:, None],
                     top[:, None])
    peak = (peaks[:, None] if stack.detach_norms
            else np.maximum(np.maximum(other, col), EPS))
    norms = np.where(stack.scaled[0, :, None], peak, 1.0)
    num = np.add.reduce((inbox[:, None] + step[:k] * plan.flats[:, pixel])
                        / norms[:k], 0)
    den = np.add.reduce((every[:, None] + step[:k]) / norms[:k], 0)
    lac = (1.0 - num / np.maximum(den, EPS)) ** 2
    w = stack.blend[:, None] / norms[k:]
    fresh = col[k] * w[0] + col[k + 1] * w[1]
    ce = np.add.reduce(cells) + (cross_entropy(fresh, y[pixel])
                                 - cells[pixel])
    redo = np.flatnonzero((norms[k:] != peaks[k:, None]).any(axis=0))
    a_pt = rows[k] * w[0, redo, None] + rows[k + 1] * w[1, redo, None]
    a_pt[np.arange(redo.size), pixel[redo]] = fresh[redo]
    ce[redo] = np.add.reduce(cross_entropy(a_pt, y), -1)
    return (lac + stack.alpha[0] * (ce / q)).reshape(2, -1)


def gradient_check(seed: int, resolution: int = 8, content_words: int = 4,
                   n_objects: int = 2, detach_norms: bool = False
                   ) -> GradCheckResult:
    """Compare the combined loss gradient against central differences.

    Builds a seeded random layout and latent at the given grid size and
    differences every latent entry. Detached quantities (the cross-entropy
    target, and the rescaling divisors when ``detach_norms`` is on) are
    constants of the differentiated function, so they are held at the
    values the base call of ``_loss_and_grad`` returned; ``analytic`` is
    that call's gradient.

    A perturbed latent moves one pixel's attention column, so its loss is
    incremental, O(k) instead of O(k q): each row's in-box and total sum
    and the cross-entropy's sum are the base point's less the old cell
    plus the new, and each row's peak is the larger of the new cell and
    the row's best other cell (its second value at its argmax pixel).
    Only where a perturbation moves a pad row's divisor (without
    ``detach_norms``, at the pixels that hold or overtake that peak) is
    the cross-entropy summed again over all q cells. Each perturbed loss
    ties the one-latent ``_loss_and_grad`` to 1e-12 absolute, the closed
    form's tolerance for loss terms; ``numeric`` differs from one-latent
    differencing by rounding, at most 9.7e-11 over seeds 0-11, resolutions
    1, 2, 5, 8 and 16 and both modes.
    """
    plan, cfg, z0 = _check_instance(seed, resolution, content_words,
                                    n_objects, detach_norms)
    stack = _Stack.of(plan, [cfg])
    base = _attention(plan, z0[None])
    grads, held = _loss_and_grad(plan, base, stack)
    analytic = _to_latent(plan, grads)[0]
    up, down = _central_losses(plan, stack, z0, base[0], held)
    numeric = ((up - down) / (2.0 * FD_STEP)).reshape(z0.shape)

    # The largest gap over the larger of the two infinity norms.
    gap = np.abs(analytic - numeric)
    scale = max(np.max(np.abs(analytic)), np.max(np.abs(numeric)), 1e-12)
    worst = int(np.argmax(gap))
    return GradCheckResult(
        max_rel_error=float(gap.max() / scale),
        worst_coordinate=(worst // z0.shape[1], worst % z0.shape[1]),
        analytic=analytic,
        numeric=numeric,
    )
