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
from .guidance import (GuidanceConfig, LossBreakdown, _attention, _flat_masks,
                       _guided_step, _is_nonnegative_int, _noise_draws,
                       _setup, _trajectories, object_maps)
# Not called here; it stays a module attribute because perfbench's layer trace
# and speed probe rebind it here.
from .guidance import guided_sample  # noqa: F401
from .layout import BoundingBox, Layout, rasterize_box

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

DEFAULT_TAU = 0.3
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


def _grid_side(attn: np.ndarray) -> int:
    """The side of the square grid whose cells are the rows of a (q, n)
    attention array."""
    q = attn.shape[0]
    side = math.isqrt(q)
    if side * side != q:
        raise ShapeError(f"{q} attention rows do not form a square grid")
    return side


def decode_labels(attn: np.ndarray, layout: Layout,
                  tau: float = DEFAULT_TAU) -> np.ndarray:
    """Cellwise argmax over max-rescaled object maps; background below tau.

    ``attn`` is a (q, n) attention array over a square grid of q cells.
    Returns a (resolution, resolution) integer grid with 0 for background
    and i+1 for object i.
    """
    if not 0.0 < tau < 1.0:
        raise ContractError(f"tau must lie in (0, 1), got {tau}")
    res = _grid_side(attn)
    maps = object_maps(attn, layout)
    peaks = np.maximum(maps.max(axis=1, keepdims=True), 1e-12)
    scaled = maps / peaks
    best = scaled.argmax(axis=0)
    best_value = scaled.max(axis=0)
    labels = np.where(best_value >= tau, best + 1, 0)
    return labels.reshape(res, res).astype(np.int64)


def _components(labels: np.ndarray) -> np.ndarray:
    """Each cell's 4-connected component among the cells of its label, named
    by the flat index of the component's first cell in raster order: min-label
    propagation between equal neighbours, with pointer jumping."""
    root = np.arange(labels.size).reshape(labels.shape)
    right = labels[:, 1:] == labels[:, :-1]
    down = labels[1:] == labels[:-1]
    while True:
        low = root.copy()
        np.minimum(low[:, 1:], root[:, :-1], out=low[:, 1:], where=right)
        np.minimum(low[:, :-1], root[:, 1:], out=low[:, :-1], where=right)
        np.minimum(low[1:], root[:-1], out=low[1:], where=down)
        np.minimum(low[:-1], root[1:], out=low[:-1], where=down)
        low = low.reshape(-1)[low]
        if np.array_equal(low, root):
            return root
        root = low


def detect_regions(labels: np.ndarray) -> list[Detection]:
    """Largest 4-connected component per object, as a tight normalized box.

    ``labels`` is a square grid of nonnegative integers, 0 for background
    and i+1 for object i, as ``decode_labels`` returns it. Of equally large
    components the one whose first cell comes first in raster order wins.
    Objects with no cells are simply absent from the result.
    """
    if labels.ndim != 2 or labels.shape[0] != labels.shape[1]:
        raise ShapeError(f"labels of shape {labels.shape} are not a square grid")
    if not np.issubdtype(labels.dtype, np.integer) or np.any(labels < 0):
        raise ContractError("labels must be nonnegative integers")
    res = labels.shape[0]
    root = _components(labels).reshape(-1)
    sizes = np.bincount(root, minlength=root.size)  # nonzero only at roots
    flat = labels.reshape(-1)
    detections: list[Detection] = []
    for value in np.unique(flat[flat > 0]):
        # The first max: of equally large components, the lowest root.
        largest = np.argmax(np.where(flat == value, sizes, 0))
        rows, cols = np.divmod(np.flatnonzero(root == largest), res)
        box = BoundingBox(
            x0=cols.min() / res,
            y0=rows.min() / res,
            x1=(cols.max() + 1) / res,
            y1=(rows.max() + 1) / res,
        )
        centroid = (
            float((cols.mean() + 0.5) / res),
            float((rows.mean() + 0.5) / res),
        )
        detections.append(Detection(index=int(value) - 1, box=box,
                                    area=int(len(rows)), centroid=centroid))
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
    by_index = {d.index: d for d in detections}
    masks = [rasterize_box(b, _grid_side(attn)) for b in layout.boxes]
    maps = object_maps(attn, layout)
    flat_masks = _flat_masks(masks, maps.shape[1])
    cross = tuple(
        tuple(
            float(np.sum(maps[i] * flat_masks[j]) / max(np.sum(maps[i]), 1e-12))
            for j in range(layout.k)
        )
        for i in range(layout.k)
    )

    objects = []
    for i, gt_box in enumerate(layout.boxes):
        det = by_index.get(i)
        inbox = cross[i][i]
        if det is None:
            objects.append(ObjectScore(index=i, detected=False, iou=0.0,
                                       inbox_mass=inbox))
        else:
            objects.append(ObjectScore(index=i, detected=True,
                                       iou=iou(det.box, gt_box),
                                       inbox_mass=inbox))
    all_correct = all(o.detected and o.iou >= IOU_THRESHOLD for o in objects)

    correct = 0
    for rel in layout.relations:
        da, db = by_index.get(rel.a), by_index.get(rel.b)
        if da is not None and db is not None and _relation_holds(
                rel.kind, da.centroid, db.centroid):
            correct += 1

    return LayoutMetrics(objects=tuple(objects), all_correct=all_correct,
                         relations_total=len(layout.relations),
                         relations_correct=correct, cross_box_mass=cross)


def cross_mass_probe(layout: Layout, cfg: GuidanceConfig,
                     backbone: BackboneConfig, seed: int) -> float:
    """Mean cross-box attention mass over the first guided step.

    For every ordered object pair (i, j), sums object i's attention inside
    object j's box, averaged over the inner iterations of the first guided
    timestep, where the boxes are still contested. Later in the trajectory
    any guided run drives cross mass to numerical zero, so this early
    window is where object-fusion pressure is actually measurable. It steps
    one iteration at a time, reading the attention before each update.
    """
    if layout.k < 2:
        raise ContractError("cross-box mass needs at least two objects")
    if cfg.guided_steps < 1:
        raise ContractError("cross-box mass needs a guided step")
    plan, start = _setup(layout, backbone, seed)
    one = replace(cfg, iterations_per_step=1)
    z, values = start.z[None], []
    for _ in range(cfg.iterations_per_step):
        maps = object_maps(_attention(plan, z)[0], layout)
        z = _guided_step(z, 0, plan, [one])[1]
        values += [float((maps[i] * plan.flats[j]).sum())
                   for i in range(layout.k) for j in range(layout.k) if i != j]
    return float(np.mean(values))


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
    """Metrics and label map of a run's final attention."""
    labels = decode_labels(attn, layout)
    detections = detect_regions(labels)
    return layout_metrics(detections, layout, attn), labels


def _record(name: str, seed: int, arm: str, cfg: GuidanceConfig,
            curve: Sequence[LossBreakdown], metrics: LayoutMetrics) -> dict:
    return {
        "layout": name,
        "seed": seed,
        "arm": arm,
        "gamma": cfg.gamma,
        "all_correct": metrics.all_correct,
        "mean_iou": metrics.mean_iou,
        "objects": [asdict(o) for o in metrics.objects],
        "relations_total": metrics.relations_total,
        "relations_correct": metrics.relations_correct,
        "cross_box_mass": [list(row) for row in metrics.cross_box_mass],
        "loss_curve": {
            "lac": [bd.lac for bd in curve],
            "ptc": [bd.ptc for bd in curve],
            "total": [bd.total for bd in curve],
        },
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
        return json.dumps(asdict(self), indent=2)


def run_benchmark(suite: Sequence[tuple[str, Layout]], cfg: GuidanceConfig,
                  backbone: BackboneConfig, seeds: Iterable[int],
                  gamma_sweep: Sequence[float] | None = None) -> BenchReport:
    """Run every (layout, seed, arm) combination and aggregate the scores.

    ``gamma_sweep`` additionally reruns the full-guidance configuration at
    each requested loss scale and reports per-scale aggregates.

    Each (layout, seed) runs all its arms and sweep points as one stack of
    trajectories, and configs that compare equal run once (the gamma-30
    sweep point is the ``lac_ptc`` arm). Only each run's loss curve and
    final attention are kept. Every record equals the one its config's
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
    groups += [("gamma_sweep", replace(cfg, gamma=float(gamma)))
               for gamma in gammas]
    configs = list(dict.fromkeys(gcfg for _, gcfg in groups))
    items = [configs.index(gcfg) for _, gcfg in groups]
    # (layout index, seed index) -> that run's record in each group. Seeds
    # run outermost, because the noise draws depend on the seed alone.
    cells: dict[tuple[int, int], list[dict]] = {}
    for j, seed in enumerate(seeds):
        draws = None
        for i, (name, layout) in enumerate(suite):
            plan, start = _setup(layout, backbone, seed)
            if draws is None:  # the seed's draws, for all its layouts
                draws = list(_noise_draws(backbone, start.rng_seed))
            tracks = _trajectories(plan, start.z, draws, configs, backbone)
            scores = [_evaluate(layout, track.attention)[0]
                      for track in tracks]
            cells[i, j] = [_record(name, seed, label, gcfg, tracks[k].curve,
                                   scores[k])
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
                       arms=ARMS, tau=DEFAULT_TAU, records=records,
                       aggregates=aggregates, gamma_sweep=sweep)
