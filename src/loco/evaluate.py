"""Desk-scale layout evaluation: label maps, detections, and benchmarks.

The decoded image is proxied by a per-cell label map: each cell gets the
object whose max-rescaled attention is largest there, or background when
nothing clears the threshold. A connected-component pass then plays the
role of the object detector, and standard box metrics (IoU at 0.5,
centroid-based relation checks) score layout adherence.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import asdict, dataclass, replace
from collections.abc import Iterable, Sequence

import numpy as np

from .backbone import BackboneConfig
from .diffmath import ContractError, ShapeError
from .guidance import (GuidanceConfig, _attention, _check_array,
                       _check_attention, _guided_step, _is_nonnegative_int,
                       _noise_draws, _phrase_selector, _plan, _seeded, _setup,
                       _trajectories)
# Not called here; it stays a module attribute because perfbench's layer trace
# and speed probe rebind it here.
from .guidance import guided_sample  # noqa: F401
from .layout import BoundingBox, Layout, _rasterize

__all__ = [
    "ARMS",
    "BenchReport",
    "Detection",
    "LayoutMetrics",
    "ObjectScore",
    "aggregate_records",
    "arm_config",
    "cross_mass_probe",
    "decode_labels",
    "detect_regions",
    "iou",
    "layout_metrics",
    "run_benchmark",
]

# Benchmark arms: no guidance, the in-box loss without per-map rescaling,
# the in-box loss alone, and the full combination with the padding-token
# loss.
ARMS = ("none", "lac_wo_norm", "lac", "lac_ptc")

# Decode threshold on the max-rescaled object maps.
TAU = 0.3
IOU_THRESHOLD = 0.5


@dataclass(frozen=True)
class Detection:
    index: int  # 0-based object index in the layout
    box: BoundingBox
    area: int
    centroid: tuple[float, float]  # normalized (x, y)


@dataclass(frozen=True)
class ObjectScore:
    index: int
    detected: bool
    iou: float
    inbox_mass: float


@dataclass(frozen=True)
class LayoutMetrics:
    objects: tuple[ObjectScore, ...]
    all_correct: bool
    relations_total: int
    relations_correct: int
    cross_box_mass: tuple[tuple[float, ...], ...]  # [i][j]: object i's mass in box j

    @property
    def mean_iou(self) -> float:
        return float(np.mean([o.iou for o in self.objects]))


def _solo(layout: Layout, attn: np.ndarray
          ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A (q, n) attention array over a square grid of q > 0 cells as the
    scoring core's operands: a stack of one, (1, n, q), the phrase selector,
    (n, k), and the box rows, (k, q)."""
    _check_attention(attn)
    q = attn.shape[0]
    side = math.isqrt(q)
    if not q or side * side != q:
        raise ShapeError(f"{q} attention rows do not form a square grid")
    return (attn.T[None], _phrase_selector(layout.phrases, attn.shape[1]),
            _rasterize(layout.boxes, side))


def decode_labels(attn: np.ndarray, layout: Layout) -> np.ndarray:
    """Cellwise argmax over max-rescaled object maps; background below TAU.

    ``attn`` is a (q, n) attention array over a square grid of q cells.
    Returns a (resolution, resolution) integer grid with 0 for background
    and i+1 for object i.
    """
    a, sel, _ = _solo(layout, attn)
    return _decode(sel.T @ a)[0]


def _decode(maps: np.ndarray) -> np.ndarray:
    """``decode_labels`` of stacked object maps, (B, k, q): (B, side, side)."""
    scaled = maps / np.maximum(maps.max(axis=-1, keepdims=True), 1e-12)
    labels = np.where(scaled.max(axis=1) >= TAU, scaled.argmax(axis=1) + 1, 0)
    side = math.isqrt(maps.shape[-1])
    return labels.reshape(-1, side, side).astype(np.int64)


def _components(labels: np.ndarray) -> np.ndarray:
    """Each cell's 4-connected component among the cells of its label in a
    stack of grids, (B, side, side), named by the flat index of its first
    cell in raster order. Each round takes the least root over each run of
    equal labels in a row, then in a column, then jumps each root to its
    root, until nothing changes. Runs break at every row and column start,
    so none crosses a row end or a grid boundary."""
    b, side = labels.shape[:2]
    flat = labels.reshape(-1)
    # The cells in column-major order, one grid after the other.
    down = np.arange(flat.size).reshape(b, side, side).swapaxes(1, 2).ravel()
    runs = []
    for seq in (flat, flat[down]):
        start = np.r_[True, seq[1:] != seq[:-1]]
        start[::side] = True
        runs.append((np.flatnonzero(start), np.cumsum(start) - 1))
    (rows, row_run), (cols, col_run) = runs
    col_run[down] = col_run.copy()  # each cell's column run, in raster order
    root = np.arange(flat.size)
    while True:
        low = np.minimum.reduceat(root, rows)[row_run]
        low = np.minimum.reduceat(low[down], cols)[col_run]
        low = low[low]
        if np.array_equal(low, root):
            return root
        root = low


def detect_regions(labels: np.ndarray) -> list[Detection]:
    """Largest 4-connected component per object, as a tight normalized box.

    ``labels`` is a square grid of at least one cell of nonnegative
    integers, 0 for background and i+1 for object i, as ``decode_labels``
    returns it. Of equally large components the one whose first cell comes
    first in raster order wins. Objects with no cells are simply absent from
    the result.
    """
    _check_array(labels, "labels")
    if labels.ndim != 2 or not 0 < labels.shape[0] == labels.shape[1]:
        raise ShapeError(f"labels of shape {labels.shape} are not a square grid")
    if not np.issubdtype(labels.dtype, np.integer) or np.any(labels < 0):
        raise ContractError("labels must be nonnegative integers")
    return _detect(labels[None])[0]


def _detect(labels: np.ndarray) -> list[list[Detection]]:
    """``detect_regions`` of each grid of a stack, (B, side, side)."""
    b, side = labels.shape[:2]
    q = side * side
    flat = labels.reshape(-1)
    root = _components(labels)
    cell = np.arange(flat.size)
    size = np.bincount(root, minlength=flat.size)
    # Per (grid, label) key, the largest component, of equally large ones
    # the lowest root; keys ascend, so each grid's labels do.
    key = cell // q * (int(flat.max(initial=0)) + 1) + flat
    roots = np.flatnonzero((root == cell) & (flat > 0))
    ranked = roots[np.lexsort((roots, -size[roots], key[roots]))]
    chosen = ranked[np.unique(key[ranked], return_index=True)[1]]
    # Every component's extent; a root, its first cell, is in its top row.
    y, x = np.divmod(cell % q, side)
    left = np.full(flat.size, side)
    right, bottom = np.zeros((2, flat.size), dtype=np.int64)
    np.minimum.at(left, root, x)
    np.maximum.at(right, root, x)
    np.maximum.at(bottom, root, y)
    box = np.stack((left[chosen], y[chosen], right[chosen] + 1,
                    bottom[chosen] + 1)) / side
    # Sums of integers are exact, so each mean has np.mean's bits.
    sums = np.stack([np.bincount(root, v, flat.size)[chosen] for v in (x, y)])
    mid = (sums / size[chosen] + 0.5) / side
    detections: list[list[Detection]] = [[] for _ in range(b)]
    for r, x0, y0, x1, y1, n, cx, cy in zip(
            chosen.tolist(), *box.tolist(), size[chosen].tolist(),
            *mid.tolist()):
        detections[r // q].append(Detection(
            index=int(flat[r]) - 1, box=BoundingBox(x0, y0, x1, y1), area=n,
            centroid=(cx, cy)))
    return detections


def iou(a: BoundingBox, b: BoundingBox) -> float:
    """Intersection over union of two boxes; 1 iff they coincide."""
    ix = max(0.0, min(a.x1, b.x1) - max(a.x0, b.x0))
    iy = max(0.0, min(a.y1, b.y1) - max(a.y0, b.y0))
    inter = ix * iy
    union = a.area + b.area - inter
    return inter / union if union > 0 else 0.0


def _relation_holds(kind: str, ca: tuple[float, float],
                    cb: tuple[float, float]) -> bool:
    # y grows downward, so "above" means a smaller y.
    if kind == "left":
        return ca[0] < cb[0]
    if kind == "right":
        return ca[0] > cb[0]
    if kind == "above":
        return ca[1] < cb[1]
    if kind == "below":
        return ca[1] > cb[1]
    raise ContractError(f"unknown relation kind {kind!r}")


def layout_metrics(detections: Sequence[Detection], layout: Layout,
                   attn: np.ndarray) -> LayoutMetrics:
    """Per-object detection quality plus layout-level correctness flags.

    A layout counts as correct only when every object is detected with
    IoU >= 0.5 against its ground-truth box. Relations compare detection
    centroids; an undetected endpoint makes the relation incorrect.
    ``attn`` is a (q, n) attention array over a square grid of q cells.
    """
    a, sel, flats = _solo(layout, attn)
    return _metrics([detections], layout, sel.T @ a, flats)[0]


def _cross_mass(maps: np.ndarray, flats: np.ndarray) -> np.ndarray:
    """Each object's mass in each box, (B, k, k): [b, i, j] sums item b's
    map i over box j, along the same contiguous axis as the per-pair
    np.sum(maps[b, i] * flats[j]), so with its bits."""
    return np.add.reduce(maps[:, :, None] * flats, -1)


def _metrics(detections: Sequence[Sequence[Detection]], layout: Layout,
             maps: np.ndarray, flats: np.ndarray) -> list[LayoutMetrics]:
    """``layout_metrics`` of each item of a stack, from its detections and
    object maps, (B, k, q), and the box rows flats, (k, q)."""
    every = np.maximum(np.add.reduce(maps, -1), 1e-12)[..., None]
    scores = []
    for dets, cross in zip(detections,
                           (_cross_mass(maps, flats) / every).tolist()):
        by_index = {d.index: d for d in dets}
        objects = []
        for i, gt_box in enumerate(layout.boxes):
            det = by_index.get(i)
            objects.append(ObjectScore(
                index=i, detected=det is not None,
                iou=0.0 if det is None else iou(det.box, gt_box),
                inbox_mass=cross[i][i]))
        all_correct = all(o.detected and o.iou >= IOU_THRESHOLD
                          for o in objects)

        correct = 0
        for rel in layout.relations:
            da, db = by_index.get(rel.a), by_index.get(rel.b)
            if da is not None and db is not None and _relation_holds(
                    rel.kind, da.centroid, db.centroid):
                correct += 1

        scores.append(LayoutMetrics(
            objects=tuple(objects), all_correct=all_correct,
            relations_total=len(layout.relations), relations_correct=correct,
            cross_box_mass=tuple(map(tuple, cross))))
    return scores


def _score(layout: Layout, a: np.ndarray, sel: np.ndarray, flats: np.ndarray
           ) -> list[tuple[LayoutMetrics, np.ndarray]]:
    """Each item's metrics and label map from stacked token-major attention,
    (B, n, q), the phrase selector's columns sel, (n, k), and the box rows
    flats, (k, q): one product for the object maps, then stacked scoring."""
    maps = sel.T @ a
    labels = _decode(maps)
    return list(zip(_metrics(_detect(labels), layout, maps, flats), labels))


def cross_mass_probe(layout: Layout, cfg: GuidanceConfig,
                     backbone: BackboneConfig, seed: int) -> float:
    """Mean cross-box attention mass over the first guided step.

    For every ordered object pair (i, j), sums object i's attention inside
    object j's box, averaged over the inner iterations of the first guided
    timestep, where the boxes are still contested. Later in the trajectory
    any guided run drives cross mass to numerical zero, so this early
    window is where object-fusion pressure is actually measurable. It runs
    the guided loop's first step on a copy of the start latent and reads
    the attention each of its updates read, as the step yields it.
    """
    if layout.k < 2:
        raise ContractError("cross-box mass needs at least two objects")
    if cfg.guided_steps < 1:
        raise ContractError("cross-box mass needs a guided step")
    plan, start = _setup(layout, backbone, seed)
    sel, pairs = plan.sel_ext[:, :layout.k], ~np.eye(layout.k, dtype=bool)
    values = [_cross_mass(sel.T @ attn, plan.flats)[0][pairs]
              for attn, _ in _guided_step(start.z[None].copy(), 0, plan,
                                          [cfg])]
    return float(np.mean(np.concatenate(values)))


def arm_config(cfg: GuidanceConfig, arm: str) -> GuidanceConfig:
    if arm == "none":
        return replace(cfg, guided_steps=0)
    if arm == "lac_wo_norm":
        return replace(cfg, alpha=0.0, lac_normalize=False)
    if arm == "lac":
        return replace(cfg, alpha=0.0)
    if arm == "lac_ptc":
        return cfg
    raise ContractError(f"unknown benchmark arm {arm!r}")


def _evaluate(layout: Layout,
              attn: np.ndarray) -> tuple[LayoutMetrics, np.ndarray]:
    """Metrics and label map of a run's final attention, (q, n)."""
    return _score(layout, *_solo(layout, attn))[0]


def _loss_curve(rows: Sequence[tuple[list[float], ...]], item: int) -> dict:
    """One item's loss curve, from a stack's rows: one (lac, ptc, total)
    triple per guided iteration, each a list of the live items' floats."""
    live = [row for row in rows if len(row[0]) > item]
    return {key: [row[f][item] for row in live]
            for f, key in enumerate(("lac", "ptc", "total"))}


def _record(name: str, seed: int, arm: str, cfg: GuidanceConfig,
            curve: dict, metrics: LayoutMetrics) -> dict:
    return {
        "layout": name,
        "seed": seed,
        "arm": arm,
        "gamma": cfg.gamma,
        "all_correct": metrics.all_correct,
        "mean_iou": metrics.mean_iou,
        "objects": [dict(vars(o)) for o in metrics.objects],
        "relations_total": metrics.relations_total,
        "relations_correct": metrics.relations_correct,
        "cross_box_mass": [list(row) for row in metrics.cross_box_mass],
        "loss_curve": curve,
    }


def aggregate_records(records: Sequence[dict]) -> dict:
    """Aggregate metrics for one group of records (one arm or sweep point)."""
    if not records:
        return {"runs": 0}
    n = len(records)
    rel_total = sum(r["relations_total"] for r in records)
    rel_correct = sum(r["relations_correct"] for r in records)
    inbox = [o["inbox_mass"] for r in records for o in r["objects"]]
    return {
        "runs": n,
        "accuracy": 100.0 * sum(r["all_correct"] for r in records) / n,
        "mean_iou": float(np.mean([r["mean_iou"] for r in records])),
        "mean_inbox_mass": float(np.mean(inbox)),
        "relation_accuracy": (100.0 * rel_correct / rel_total
                              if rel_total else None),
    }


@dataclass
class BenchReport:
    """Benchmark results; aggregates are derivable from the records."""

    config: GuidanceConfig
    backbone: BackboneConfig
    seeds: tuple[int, ...]
    arms: tuple[str, ...]
    tau: float
    records: list[dict]
    aggregates: dict
    gamma_sweep: list[dict]

    def to_json(self) -> str:
        # asdict only for the configs: it would deep-copy every record.
        return json.dumps({**vars(self), "config": asdict(self.config),
                           "backbone": asdict(self.backbone)}, indent=2)


def run_benchmark(suite: Sequence[tuple[str, Layout]], cfg: GuidanceConfig,
                  backbone: BackboneConfig, seeds: Iterable[int],
                  gamma_sweep: Sequence[float] | None = None) -> BenchReport:
    """Run every (layout, seed, arm) combination and aggregate the scores.

    ``gamma_sweep`` additionally reruns the full-guidance configuration at
    each requested loss scale and reports per-scale aggregates.

    Each (layout, seed) runs all its arms and sweep points as one stack of
    trajectories, and configs that compare equal run once (the gamma-30
    sweep point is the ``lac_ptc`` arm). The stack lists them in order of
    ``guided_steps``, largest first, as ``_trajectories`` requires, so the
    ``none`` arm runs last. Of each timestep the trajectory
    yields, only the loss terms' lac, ptc and total columns are kept, and
    the final latents are scored. Every record equals the one its config's
    own ``guided_sample`` run gives.
    """
    if not suite:
        raise ContractError("benchmark suite is empty")
    if isinstance(seeds, (str, bytes)) or not isinstance(seeds, Iterable):
        raise ContractError(
            f"seeds must be an iterable of nonnegative integers, got {seeds!r}")
    seeds = tuple(seeds)
    if not seeds:
        raise ContractError("benchmark needs at least one seed")
    for seed in seeds:
        if not _is_nonnegative_int(seed):
            raise ContractError(
                f"seed must be a nonnegative integer, got {seed!r}")
    sweep = () if gamma_sweep is None else gamma_sweep
    gammas = (tuple(sweep) if isinstance(sweep, Iterable)
              and not isinstance(sweep, (str, bytes)) else None)
    if gammas is None or not all(
            isinstance(g, numbers.Real) and not isinstance(g, bool)
            for g in gammas):
        raise ContractError(
            f"gamma_sweep must be a sequence of numbers, got {gamma_sweep!r}")
    groups = [(arm, arm_config(cfg, arm)) for arm in ARMS]
    try:
        groups += [("gamma_sweep", replace(cfg, gamma=float(gamma)))
                   for gamma in gammas]
    except OverflowError:
        raise ContractError("gamma_sweep entry beyond float range") from None
    configs = sorted(dict.fromkeys(gcfg for _, gcfg in groups),
                     key=lambda gcfg: -gcfg.guided_steps)
    items = [configs.index(gcfg) for _, gcfg in groups]
    # (layout index, seed index) -> that run's record in each group. Seeds
    # run outermost, because the noise draws depend on the seed alone.
    cells: dict[tuple[int, int], list[dict]] = {}
    for j, seed in enumerate(seeds):
        # The seed's projections, start latent and draws, for all its layouts.
        sub_seeds, proj, start = _seeded(backbone, seed)
        draws = list(_noise_draws(backbone, start.rng_seed))
        for i, (name, layout) in enumerate(suite):
            plan = _plan(layout, backbone, sub_seeds, proj)
            rows = []
            for terms, _, z in _trajectories(plan, start.z, draws, configs,
                                             backbone):
                rows += [(t.lac.tolist(), t.ptc.tolist(), t.total.tolist())
                         for t in terms]
            scores = _score(layout, _attention(plan, z),
                            plan.sel_ext[:, :layout.k], plan.flats)
            cells[i, j] = [_record(name, seed, label, gcfg,
                                   _loss_curve(rows, k), scores[k][0])
                           for (label, gcfg), k in zip(groups, items)]
    per_group = zip(*(cells[key] for key in sorted(cells)))

    records, sweep = [], []
    for (label, gcfg), group in zip(groups, per_group):
        if label == "gamma_sweep":
            sweep.append({"gamma": gcfg.gamma, **aggregate_records(group)})
        else:
            records += group

    aggregates = {
        arm: aggregate_records([r for r in records if r["arm"] == arm])
        for arm in ARMS
    }
    return BenchReport(config=cfg, backbone=backbone, seeds=seeds,
                       arms=ARMS, tau=TAU, records=records,
                       aggregates=aggregates, gamma_sweep=sweep)
