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

import sys
from dataclasses import dataclass, replace
from math import sqrt
from typing import Iterable, Iterator, Sequence

import numpy as np

from . import diffmath as dm
from .backbone import (
    BackboneConfig,
    LatentState,
    ProjectionSet,
    Seeds,
    TokenSet,
    _check_fields,
    build_projections,
    effective_noise,
    embed_tokens,
    expected_latent_rms,
    init_latent,
)
# The trajectory engine below inlines these two; they stay attributes of this
# module because perfbench/tracing.py rebinds them here.
from .backbone import cross_attention, denoise_step  # noqa: F401
from .diffmath import ContractError, ShapeError, Var
from .layout import Layout, Phrase, layout_from_dict, rasterize_box

__all__ = [
    "EPS",
    "FrozenNorms",
    "GradCheckResult",
    "GuidanceConfig",
    "GuidedRun",
    "LossBreakdown",
    "StepRecord",
    "gradient_check",
    "loss_norms",
    "guided_sample",
    "lac_loss",
    "loco_loss",
    "object_attention",
    "object_maps",
    "ptc_loss",
    "ptc_maps",
    "relative_error",
    "schedule",
    "target_maps",
    "update_latent",
]

# Floor for every division denominator in the loss chain.
EPS = 1e-8
# Probability clamp for the binary cross-entropy.
BCE_CLAMP = 1e-7
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
        _check_fields(self, {"beta": (0, 1),
                             "guided_steps": (0, sys.float_info.max)})
        if self.gamma == 0:
            raise ContractError(f"gamma must be positive, got {self.gamma}")


@dataclass(frozen=True)
class FrozenNorms:
    """Rescaling divisors pinned to explicit values.

    Detached divisors are constants of the differentiated function, so the
    finite-difference oracle evaluates the loss with the base-point values
    held fixed; this carries them.
    """

    lac: tuple[float, ...]
    sot: float
    eot: float


@dataclass(frozen=True)
class LossBreakdown:
    lac: float
    ptc: float
    total: float
    per_object_inbox_fraction: tuple[float, ...]


def _phrase_selector(phrases: Sequence[Phrase], n: int) -> np.ndarray:
    """Column-averaging phrase selector S, (n, k).

    ``A @ S[:, i:i + 1]`` is phrase i's map: multi-token phrases aggregate
    by elementwise mean, which keeps values inside (0, 1). Every span must
    be non-empty and inside the content range of the n tokens. Column-major,
    so each column slice is a contiguous (n, 1) view.
    """
    sel = np.zeros((n, len(phrases)), order="F")
    for i, phrase in enumerate(phrases):
        if not phrase.span:
            raise ContractError(f"phrase {phrase.text!r} has an empty span")
        if min(phrase.span) < 1 or max(phrase.span) > n - 2:
            raise ContractError(
                f"span {phrase.span} outside the content range of {n} tokens"
            )
        sel[list(phrase.span), i] = 1.0 / len(phrase.span)
    return sel


def _pad_columns(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The SoT and EoT selectors, (n, 1) views of eye(n): SoT is the first
    token column and EoT the last."""
    eye = np.eye(n)
    return eye[:, :1], eye[:, -1:]


def object_attention(attn: Var, phrase: Phrase) -> Var:
    """One object's attention map as a (q, 1) tape variable."""
    sel = _phrase_selector((phrase,), attn.shape[1])
    return dm.matmul(attn, attn.tape.constant(sel))


def object_maps(values: np.ndarray, layout: Layout) -> np.ndarray:
    """Object maps off the tape, (k, q): row i is ``values @ S[:, i:i + 1]``.

    That is the product ``lac_loss`` records, so the loss and the evaluation
    see bit-identical maps; one (q, k) product can differ in the last bit.
    """
    sel = _phrase_selector(layout.phrases, values.shape[1])
    return np.array([(values @ sel[:, i:i + 1])[:, 0] for i in range(layout.k)])


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


def target_maps(attn_values: np.ndarray, layout: Layout,
                masks: Sequence[np.ndarray]) -> np.ndarray:
    """The PTC target off the tape, (q,): the cellwise max over objects of
    each object map masked to its box."""
    maps = object_maps(attn_values, layout)
    return (maps * _flat_masks(masks, maps.shape[1])).max(axis=0)


def ptc_maps(attn: Var, beta: float, detach_norms: bool = False,
             frozen_norms: tuple[float, float] | None = None) -> Var:
    """Blend of the SoT-complement and EoT maps, each max-rescaled, (q, 1).

    A convex combination of two maps with entries in [0, 1], so the result
    stays in [0, 1]. Divisors are floored at EPS, which maps an all-ones
    SoT map (or an all-zeros EoT map) to an exactly zero term.
    """
    if not 0.0 <= beta <= 1.0:
        raise ContractError(f"beta must lie in [0, 1], got {beta}")
    tape = attn.tape
    sot, eot = (dm.matmul(attn, tape.constant(col))
                for col in _pad_columns(attn.shape[1]))
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


def loss_norms(attn_values: np.ndarray, layout: Layout) -> FrozenNorms:
    """The loss chain's rescaling divisors, evaluated at given attention."""
    lac = tuple(max(float(m.max()), EPS)
                for m in object_maps(attn_values, layout))
    sot = max(float((1.0 - attn_values[:, 0]).max()), EPS)
    eot = max(float(attn_values[:, -1].max()), EPS)
    return FrozenNorms(lac=lac, sot=sot, eot=eot)


def loco_loss(attn: Var, layout: Layout, masks: Sequence[np.ndarray],
              cfg: GuidanceConfig, target: np.ndarray | None = None,
              frozen_norms: FrozenNorms | None = None) -> tuple[Var, LossBreakdown]:
    """Combined loss ``lac + alpha * ptc`` on the tape, plus its breakdown.

    ``target`` defaults to ``target_maps`` of the current attention values,
    treated as a constant for this iteration. ``frozen_norms`` pins the
    rescaling divisors, which the finite-difference oracle needs when the
    divisors are detached.
    """
    maps = object_maps(attn.value, layout)
    masked = maps * _flat_masks(masks, maps.shape[1])
    if target is None:
        target = masked.max(axis=0)
    lac = lac_loss(attn, layout, masks, normalize=cfg.lac_normalize,
                   detach_norms=cfg.detach_norms,
                   frozen_norms=frozen_norms.lac if frozen_norms else None)
    a_pt = ptc_maps(attn, cfg.beta, detach_norms=cfg.detach_norms,
                    frozen_norms=(frozen_norms.sot, frozen_norms.eot)
                    if frozen_norms else None)
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
    """One timestep of a run: inner-iteration losses and snapshots.

    Step i of a run is its i-th timestep, guided iff it has losses, and
    leaves the latent at t = total_steps - 1 - i.
    """

    losses: tuple[LossBreakdown, ...]
    attention: np.ndarray  # (q, n) values after updates, before the denoise
    z_after: np.ndarray  # (q, d_z)


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
    """A run's constants: the prompt, projections and box masks, plus the
    loss operands built from them once, so an iteration only touches z."""

    tokens: TokenSet
    proj: ProjectionSet
    masks: tuple[np.ndarray, ...]
    keys: np.ndarray  # (n, d): E @ W_k, also the denoiser's value vectors
    sel: np.ndarray  # (n, k) phrase selector, column-major
    flats: np.ndarray  # (k, q) box masks
    pads: tuple[np.ndarray, np.ndarray]  # SoT and EoT columns of eye(n)


def _is_nonnegative_int(value) -> bool:
    """Whether value is a nonnegative int and not a bool, as a master seed
    must be."""
    return isinstance(value, int) and not isinstance(value, bool) \
        and value >= 0


def _setup(layout: Layout, backbone: BackboneConfig, seed: int
           ) -> tuple[_Plan, LatentState]:
    """The run's constants and its start latent, from the sub-seeds of the
    master seed."""
    if not _is_nonnegative_int(seed):
        raise ContractError(f"seed must be a nonnegative integer, got {seed!r}")
    seeds = Seeds.from_master(seed)
    tokens = embed_tokens(layout.prompt, seeds.vocab, backbone.d_e)
    proj = build_projections(backbone, seeds.proj)
    masks = tuple(rasterize_box(b, backbone.resolution) for b in layout.boxes)
    plan = _Plan(
        tokens=tokens, proj=proj, masks=masks, keys=tokens.e @ proj.w_k,
        sel=_phrase_selector(layout.phrases, tokens.n),
        flats=_flat_masks(masks, backbone.q), pads=_pad_columns(tokens.n))
    return plan, init_latent(backbone, seeds.latent)


# The closed-form loss and the trajectory engine work on stacks of latents,
# (B, q, d_z). A stacked np.matmul is, item by item, the 2-D product, and
# each reduction runs along the same contiguous axis as on one latent, so
# every item is bit-identical to the same computation on its latent alone.
#
# The token axis is short (n = 4 to 9 on the suite), and numpy reduces short
# contiguous rows one row at a time, several times slower than a few
# elementwise ops over the n columns. So the softmax's reductions along it
# run as column chains that give the same bits.

def _row_max(x: np.ndarray) -> np.ndarray:
    """``x.max(axis=-1, keepdims=True)`` as a chain of ``np.maximum`` over
    the columns: exact, NaN included. Only a row of zeros of both signs may
    end on the other zero, as numpy's vectorised max itself may; the softmax
    subtracts the max and exponentiates, where that sign cannot show."""
    m = x[..., :1].copy()
    for j in range(1, x.shape[-1]):
        np.maximum(m, x[..., j:j + 1], out=m)
    return m


def _row_sum(x: np.ndarray) -> np.ndarray:
    """``x.sum(axis=-1, keepdims=True)`` bit for bit, signed zeros included.
    Below 16 columns it adds them in numpy's order: fewer than 8 left to
    right; else eight accumulators combined pairwise, then the tail. numpy
    adds the result to its identity 0.0 last. Longer rows go to numpy."""
    n = x.shape[-1]
    if n >= 16:
        return x.sum(axis=-1, keepdims=True)
    if n < 8:
        s = 0.0 + x[..., :1]
        for j in range(1, n):
            s += x[..., j:j + 1]
        return s
    s = x[..., 0:1] + x[..., 1:2]
    s += x[..., 2:3] + x[..., 3:4]
    u = x[..., 4:5] + x[..., 5:6]
    u += x[..., 6:7] + x[..., 7:8]
    s += u
    for j in range(8, n):
        s += x[..., j:j + 1]
    s += 0.0
    return s


@dataclass(frozen=True)
class _Workspace:
    """The (B, q, d_z) work arrays of one stacked trajectory, made once per
    ``_trajectories`` call. A call on m <= B latents writes into their
    leading slices ``[:m]``; each result is consumed before the array is
    written again. The same products as fresh arrays, without allocating
    and faulting in a few hundred KB per call."""

    live: np.ndarray  # a guided step's copy of its live latents
    proj: np.ndarray  # z @ W_q in the forward; g_logits @ K in the backward
    grad: np.ndarray  # the latent gradient; then the denoise's increments

    @classmethod
    def like(cls, z: np.ndarray) -> _Workspace:
        return cls(*(np.empty_like(z) for _ in range(3)))


def _attention(plan: _Plan, z: np.ndarray,
               work: _Workspace | None = None) -> np.ndarray:
    """Cross-attention values at stacked latents, (B, q, n): the row softmax
    of (z W_q) K^T / sqrt(d), in ``cross_attention``'s operation order. Row
    p of an item depends on row p of its latent alone. With ``work`` the
    query projection goes into ``work.proj``; the values are a fresh array
    either way, so callers may keep them."""
    w_q = plan.proj.w_q
    zq = np.matmul(z, w_q, out=None if work is None else work.proj[:len(z)])
    logits = (zq @ plan.keys.T) / sqrt(w_q.shape[1])
    logits -= _row_max(logits)
    e = np.exp(logits, out=logits)
    e /= _row_sum(e)
    return e


def _max_entry(x: np.ndarray):
    """``max_norm`` then ``maximum(., EPS)`` along the last axis: the routing
    index of each max entry (the first), whether it beat EPS, and the
    floored value."""
    top = x.max(axis=-1)
    won = top >= EPS
    return x.argmax(axis=-1), won, np.where(won, top, EPS)


def _one_hot(g: np.ndarray, idx: np.ndarray, m: int) -> np.ndarray:
    """``max_norm``'s adjoint along a last axis of length m: g at each
    routing index, zeros elsewhere."""
    full = np.zeros(idx.shape + (m,))
    full.reshape(-1, m)[np.arange(idx.size), idx.ravel()] = g.ravel()
    return full


# A stack's loss terms, one entry per item: lac, ptc and total, (B,), and
# each object's in-box share of its attention mass, (B, k).
_Terms = tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]


def _breakdowns(terms: _Terms) -> list[LossBreakdown]:
    """One ``LossBreakdown`` per item of a stack's loss terms."""
    return [LossBreakdown(lac=l, ptc=c, total=t,
                          per_object_inbox_fraction=tuple(f))
            for l, c, t, f in zip(*(x.tolist() for x in terms))]


def _loss_and_grad(plan: _Plan, a: np.ndarray, cfgs: Sequence[GuidanceConfig],
                   target: np.ndarray | None = None,
                   frozen_norms: FrozenNorms | None = None,
                   with_grad: bool = True, work: _Workspace | None = None
                   ) -> tuple[np.ndarray | None, _Terms]:
    """``loco_loss`` at a stack of attention values a, (B, q, n), and its
    gradient with respect to the latents, (B, q, d_z), in closed form; item
    b uses ``cfgs[b]``. The items share ``beta`` and ``detach_norms``
    (``_guided_step`` checks it) and take the rest from their own config.

    ``a`` is ``_attention`` of the latents; the loss reads only it, and the
    backward ends in the query projection's weights, so no latent is
    needed. Returns the gradients (None without ``with_grad``) and the loss
    terms (``_breakdowns`` turns them into one breakdown per item). It
    repeats the tape's forward and backward operation by operation: the
    same numpy expressions on the same operand views, and each adjoint
    summed in the tape's reverse node order. So each item's outputs are
    bit-identical to ``cross_attention`` + ``loco_loss`` + ``Tape.backward``
    on its latent, which stay as the oracle. An item without
    ``lac_normalize`` divides by 1.0 (exact), and its divisor adjoint is
    selected away: adding zeros could flip a -0.0. ``target`` and
    ``frozen_norms`` act as in ``loco_loss``, on every item. With ``work``
    the backward's two projections go into ``work.proj`` and ``work.grad``,
    and the gradients returned are ``work.grad[:B]``; without it they are
    fresh.
    """
    if len(cfgs) != a.shape[0]:
        raise ContractError("a stacked loss needs one config per latent")
    alpha = np.array([c.alpha for c in cfgs], dtype=np.float64)
    normalize = np.array([c.lac_normalize for c in cfgs])[:, None]
    beta = float(cfgs[0].beta)
    # Detached or frozen divisors are constants: no adjoint reaches them.
    held = cfgs[0].detach_norms or frozen_norms is not None
    kt, w_q = plan.keys.T, plan.proj.w_q
    scale = sqrt(w_q.shape[1])
    b, q = a.shape[:2]

    # lac: the in-box share of the (rescaled) object maps, (B, k, q).
    k = plan.sel.shape[1]
    if k == 0:
        raise ContractError("layout has no objects")
    cols = np.empty((b, k, q, 1))
    for i in range(k):
        np.matmul(a, plan.sel[:, i:i + 1], out=cols[:, i])
    maps = cols[..., 0]
    masked = maps * plan.flats
    inbox = masked.sum(axis=-1)  # (B, k)
    every = maps.sum(axis=-1)
    if frozen_norms is not None:
        norms = np.array(frozen_norms.lac, dtype=np.float64)
    else:
        peak_idx, peak_won, norms = _max_entry(maps)
    norms = np.where(normalize, norms, 1.0)
    num_terms, den_terms = inbox / norms, every / norms
    num, den = num_terms[:, 0], den_terms[:, 0]
    for i in range(1, k):
        num = num + num_terms[:, i]
        den = den + den_terms[:, i]
    den_won = den >= EPS
    den_floor = np.where(den_won, den, EPS)
    short = 1.0 - num / den_floor
    lac = short * short

    # ptc: cross-entropy of the blended SoT-complement and EoT maps, (B, q).
    # The tape takes them as products with the one-hot columns plan.pads;
    # the column slices give the same bits. A softmax row is either all
    # finite and >= +0 (exp is never negative and the row sum is at least
    # 1) or all NaN (a NaN or infinite logit reaches every entry through
    # the row max or sum). In a finite row the product with the 1 is the
    # entry and every other product is +0, and adding +0 to a value that is
    # not -0 leaves it unchanged, in any order; a NaN row gives NaN.
    sot, eot = a[..., 0], a[..., -1]
    inverted = 1.0 - sot
    if frozen_norms is not None:
        n_sot, n_eot = float(frozen_norms.sot), float(frozen_norms.eot)
    else:
        sot_idx, sot_won, n_sot = _max_entry(inverted)
        eot_idx, eot_won, n_eot = _max_entry(eot)
        n_sot, n_eot = n_sot[:, None], n_eot[:, None]
    a_pt = beta * (inverted / n_sot) + (1.0 - beta) * (eot / n_eot)
    if target is None:
        y = masked.max(axis=1)
    else:
        y = np.asarray(target, dtype=np.float64).reshape(-1)
        if y.shape != (q,):
            raise ShapeError(
                f"target shape {y.shape} does not match map {(q, 1)}")
    decay = np.exp(-np.abs(a_pt))
    s = np.where(a_pt >= 0, 1.0 / (1.0 + decay), decay / (1.0 + decay))
    p = np.clip(s, BCE_CLAMP, 1.0 - BCE_CLAMP)
    not_p, not_y = 1.0 - p, 1.0 - y
    good = y * np.log(p) + not_y * np.log(not_p)
    ptc = (0.0 - good.sum(axis=-1)) / float(q)
    total = lac + alpha * ptc

    terms = lac, ptc, total, inbox / np.maximum(every, EPS)
    if not with_grad:
        return None, terms

    # Backward through ptc; d total / d ptc = alpha, even when it is 0.
    g_good = (-(alpha / float(q)))[:, None]
    g_p = -((g_good * not_y) / not_p)
    g_p = g_p + (g_good * y) / p
    g_p = g_p * ((s >= BCE_CLAMP) & (s <= 1.0 - BCE_CLAMP))
    g_pt = s * (1.0 - s) * g_p
    g_term = g_pt * (1.0 - beta)
    g_eot = g_term / n_eot
    g_n_eot = (-g_term * eot / (n_eot * n_eot)).sum(axis=-1)
    g_term = g_pt * beta
    g_inv = g_term / n_sot
    g_n_sot = (-g_term * inverted / (n_sot * n_sot)).sum(axis=-1)
    if not held:
        g_eot = g_eot + _one_hot(g_n_eot * eot_won, eot_idx, q)
        g_inv = g_inv + _one_hot(g_n_sot * sot_won, sot_idx, q)
    # reshape, not [..., None], gives the strides of a fresh (q, 1) array.
    g_a = g_eot.reshape(b, q, 1) @ plan.pads[1].T
    g_a = g_a + (-g_inv).reshape(b, q, 1) @ plan.pads[0].T

    # Backward through lac, all objects at once, summed last to first.
    g_ratio = -(2.0 * short)
    g_num = g_ratio / den_floor
    g_den = (-g_ratio * num / (den_floor * den_floor)) * den_won
    g_every, g_in = g_den[:, None] / norms, g_num[:, None] / norms
    g_cols = g_every[..., None]  # broadcasts like np.full(maps.shape, ...)
    if not held:
        g_norm = -g_den[:, None] * every / (norms * norms)
        g_norm = g_norm + -g_num[:, None] * inbox / (norms * norms)
        g_cols = np.where(normalize[..., None],
                          _one_hot(g_norm * peak_won, peak_idx, q) + g_cols,
                          g_cols)
    g_cols = (g_cols + g_in[..., None] * plan.flats).reshape(b, k, q, 1)
    for i in reversed(range(k)):
        g_a = g_a + g_cols[:, i] @ plan.sel[:, i:i + 1].T

    # Backward through the softmax and both projections.
    inner = _row_sum(g_a * a)
    g_logits = a * (g_a - inner) / scale
    proj, grad = (None, None) if work is None else (work.proj[:b],
                                                    work.grad[:b])
    return np.matmul(np.matmul(g_logits, kt.T, out=proj), w_q.T,
                     out=grad), terms


def _guided_step(z: np.ndarray, index: int, plan: _Plan,
                 cfgs: Sequence[GuidanceConfig],
                 work: _Workspace | None = None
                 ) -> tuple[list[int], np.ndarray, list[list[LossBreakdown]]]:
    """Guided timestep ``index`` of a stack z, which it leaves unchanged.

    Items with ``index >= guided_steps`` keep their latent. The others, the
    live items, must share ``beta``, ``detach_norms`` and
    ``iterations_per_step``; they take their updates together, one stacked
    loss call per iteration, in place on their copy in ``work.live`` (a
    workspace like z's is made when none is given). Returns the live
    items' indices and updated latents, a view of ``work.live``, and each
    item's loss breakdowns.
    """
    live = [i for i, cfg in enumerate(cfgs) if index < cfg.guided_steps]
    losses: list[list[LossBreakdown]] = [[] for _ in cfgs]
    if not live:
        return live, z[:0], losses
    if work is None:
        work = _Workspace.like(z)
    zr = np.take(z, live, axis=0, out=work.live[:len(live)])
    part = [cfgs[i] for i in live]
    if len({(c.beta, c.detach_norms, c.iterations_per_step)
            for c in part}) != 1:
        raise ContractError("the guided items of a stack must share beta, "
                            "detach_norms and iterations_per_step")
    # update_latent's step, gamma * lambda, per item.
    step = np.array([c.gamma * schedule(index, c) for c in part])
    step = step.reshape(-1, 1, 1)
    for _ in range(part[0].iterations_per_step):
        values = _attention(plan, zr, work)
        grad, terms = _loss_and_grad(plan, values, part, work=work)
        grad *= step
        zr -= grad
        for i, breakdown in zip(live, _breakdowns(terms)):
            losses[i].append(breakdown)
    return live, zr, losses


def _noise_draws(backbone: BackboneConfig, rng_seed: int
                 ) -> Iterator[np.ndarray]:
    """Each timestep's noise draw, first timestep first, as ``denoise_step``
    draws it from the run seed and t alone: a standard normal (q, d_z)
    array. The schedule's noise is positive at every timestep a trajectory
    visits, t = total_steps down to 1, so every timestep draws. Lazy, so a
    lone run holds one draw at a time; ``run_benchmark`` lists a seed's
    draws once and shares them among its layouts."""
    for t in range(backbone.total_steps, 0, -1):
        rng = np.random.default_rng([rng_seed, 1, t])
        yield rng.standard_normal((backbone.q, backbone.d_z))


def _trajectories(plan: _Plan, z0: np.ndarray,
                  draws: Iterable[np.ndarray],
                  cfgs: Sequence[GuidanceConfig], backbone: BackboneConfig
                  ) -> Iterator[tuple[list[list[LossBreakdown]], np.ndarray,
                                      np.ndarray]]:
    """Run one trajectory per config as one stack of latents, yielding after
    each timestep's denoise.

    The items share the plan, the start latent ``z0``, (q, d_z), and each
    timestep's (q, d_z) noise draw, taken in order from ``draws``
    (``_noise_draws`` of the run seed); ``gamma``, ``alpha``,
    ``lac_normalize`` and ``guided_steps`` may differ, while the guided
    items share ``beta``, ``detach_norms`` and ``iterations_per_step``. Each
    item is bit-identical to its own run. Each yield is ``(losses,
    attention, z)``: every item's loss breakdowns of the timestep, the
    (B, q, n) attention the denoise read, a fresh array, and the stack
    (B, q, d_z) after the denoise, which the next timestep changes in place.
    """
    for cfg in cfgs:
        if cfg.guided_steps > backbone.total_steps:
            raise ContractError(
                f"guided_steps={cfg.guided_steps} exceeds the "
                f"{backbone.total_steps}-step trajectory")
    rho = backbone.rho
    e_v = plan.keys
    value_rms = float(np.sqrt(np.mean(e_v * e_v)))
    # The stack and its workspace: the guided updates, the projections, the
    # denoise and the noise write into them in place, the same operations
    # as fresh arrays without allocating.
    z = np.repeat(z0[None], len(cfgs), axis=0)
    work = _Workspace.like(z)

    for index, draw in zip(range(backbone.total_steps), draws, strict=True):
        t = backbone.total_steps - index
        # A latent that overflows raises the error below instead of
        # warnings. The state is set per timestep, so that it never spans
        # a yield and leaks into the caller.
        with np.errstate(over="ignore", invalid="ignore"):
            live, z_live, losses = _guided_step(z, index, plan, cfgs, work)
            if live:
                z[live] = z_live
            attn = _attention(plan, z, work)
            # denoise_step on every item: (1 - rho) z + rho (A E_v), then
            # sigma times the shared draw.
            sigma = effective_noise(
                backbone, t, z, expected_latent_rms(backbone, index, value_rms))
            delta = np.matmul(attn, e_v, out=work.grad)
            delta *= rho
            z *= 1.0 - rho
            z += delta
            np.multiply(sigma[:, None, None], draw, out=delta)
            z += delta
            # Checked here, once per timestep: a latent whose mean square is
            # not finite gets a sigma that is not finite, and its noise
            # carries that into z.
            finite = np.isfinite(z).all(axis=(1, 2))
        if not finite.all():
            bad = cfgs[int(np.argmin(finite))]
            raise ContractError(
                f"latent turned non-finite at timestep {index} "
                f"(t={t}); gamma={bad.gamma:g} is too large")
        yield losses, attn, z


def guided_sample(layout: Layout, cfg: GuidanceConfig, backbone: BackboneConfig,
                  seeds: int) -> GuidedRun:
    """Run the full trajectory: guided prefix, then plain denoising.

    Each of the first ``cfg.guided_steps`` timesteps re-extracts attention,
    differentiates the combined loss, and steps the latent
    ``cfg.iterations_per_step`` times before one denoise; the remaining
    timesteps denoise without guidance. ``seeds`` is the nonnegative
    master seed; ``Seeds.from_master`` draws the run's sub-seeds from it.
    The run holds one ``StepRecord`` per timestep, the final latent
    ``final_z``, (q, d_z), and its attention ``final_attention``, (q, n):
    one map per token, SoT first and EoT last.
    """
    plan, start = _setup(layout, backbone, seeds)
    steps = []
    for losses, attn, z in _trajectories(
            plan, start.z, _noise_draws(backbone, start.rng_seed), [cfg],
            backbone):
        steps.append(StepRecord(losses=tuple(losses[0]), attention=attn[0],
                                z_after=z[0].copy()))  # z changes in place
    return GuidedRun(layout=layout, config=cfg, backbone=backbone,
                     tokens=plan.tokens, steps=tuple(steps), final_z=z[0],
                     final_attention=_attention(plan, z)[0])


# ---------------------------------------------------------------------------
# Gradient validation against central finite differences.

_CHECK_WORDS = ("cat", "dog", "bird", "car", "tree", "boat", "ball", "cup",
                "hat", "fish", "star", "frog")


def relative_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    """Max absolute difference over the larger of the two infinity norms."""
    scale = max(np.max(np.abs(analytic)), np.max(np.abs(numeric)), 1e-12)
    return float(np.max(np.abs(analytic - numeric)) / scale)


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
                    ) -> tuple[Layout, _Plan, GuidanceConfig, np.ndarray]:
    """``gradient_check``'s seeded problem, after checking its arguments: the
    random layout, its plan, the config and the base latent."""
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
    plan, _ = _setup(layout, backbone, seed)
    z0 = rng.standard_normal((backbone.q, backbone.d_z))
    return layout, plan, GuidanceConfig(detach_norms=detach_norms), z0


# Coordinates per stacked forward call of the central differences: a stack
# of 64 perturbed latents.
_FD_CHUNK = 32


def gradient_check(seed: int, resolution: int = 8, content_words: int = 4,
                   n_objects: int = 2, detach_norms: bool = False
                   ) -> GradCheckResult:
    """Compare the combined loss gradient against central differences.

    Builds a seeded random layout and latent at the given grid size and
    differences every latent entry. Detached quantities (the cross-entropy
    target, and the rescaling divisors when ``detach_norms`` is on) are
    constants of the differentiated function, so they are held at their
    base-point values throughout. The differences run as stacked forward
    calls, the +step and -step latents of up to ``_FD_CHUNK`` coordinates
    per call. A perturbed latent differs from the base latent in one pixel
    row, and attention is row-local, so only that row's attention is
    recomputed: the perturbed rows go through ``_attention`` as one stack,
    and each lands in a copy of the base attention. Each item is
    bit-identical to its own one-latent call, so ``numeric`` equals
    differencing one coordinate at a time, byte for byte.
    """
    layout, plan, cfg, z0 = _check_instance(seed, resolution, content_words,
                                            n_objects, detach_norms)

    base = _attention(plan, z0[None])
    grads, _ = _loss_and_grad(plan, base, [cfg])
    analytic, values = grads[0], base[0]
    target = target_maps(values, layout, plan.masks)
    frozen = loss_norms(values, layout) if detach_norms else None

    q, d_z = z0.shape
    flat = z0.reshape(-1)
    numeric = np.empty(flat.size)
    for start in range(0, flat.size, _FD_CHUNK):
        idx = np.arange(start, min(start + _FD_CHUNK, flat.size))
        c = idx.size
        items = np.arange(2 * c)
        pixels, channels = np.divmod(np.tile(idx, 2), d_z)
        rows = z0[pixels]
        rows[items, channels] = np.concatenate(
            (flat[idx] + FD_STEP, flat[idx] - FD_STEP))
        # Two or more rows of one product take the bits they take inside
        # the q-row forward; a lone row would go through another BLAS
        # kernel. At q = 1 each row is a whole latent, so it keeps the
        # stacked forward's shape.
        shape = (2 * c, 1, d_z) if q == 1 else (1, 2 * c, d_z)
        a = np.repeat(base, 2 * c, axis=0)
        a[items, pixels] = _attention(plan, rows.reshape(shape)).reshape(
            2 * c, -1)
        _, (_, _, totals, _) = _loss_and_grad(
            plan, a, [cfg] * (2 * c), target, frozen, with_grad=False)
        numeric[idx] = (totals[:c] - totals[c:]) / (2.0 * FD_STEP)
    numeric = numeric.reshape(z0.shape)

    gap = np.abs(analytic - numeric)
    worst = int(np.argmax(gap))
    return GradCheckResult(
        max_rel_error=relative_error(analytic, numeric),
        worst_coordinate=(worst // z0.shape[1], worst % z0.shape[1]),
        analytic=analytic,
        numeric=numeric,
    )
