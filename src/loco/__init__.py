"""Training-free layout guidance on a toy cross-attention denoiser.

Steers per-token attention mass into user-provided bounding boxes by
differentiating box-constrained attention losses back to the latent, with
a desk-scale benchmark harness for measuring layout adherence.
"""

from .backbone import (
    AttentionMaps,
    BackboneConfig,
    LatentState,
    ProjectionSet,
    Seeds,
    TokenSet,
    build_projections,
    cross_attention,
    denoise_step,
    embed_tokens,
    init_latent,
    tokenize,
)
from .diffmath import ContractError, Grads, ShapeError, Tape, Var
from .evaluate import (
    ARMS,
    BenchReport,
    Detection,
    LayoutMetrics,
    decode_labels,
    detect_regions,
    iou,
    layout_metrics,
    run_benchmark,
)
from .guidance import (
    GuidanceConfig,
    GuidedRun,
    LossBreakdown,
    gradient_check,
    guided_sample,
    lac_loss,
    loco_loss,
    object_attention,
    object_maps,
    ptc_loss,
    ptc_maps,
    schedule,
    target_maps,
    update_latent,
)
from .layout import (
    BoundingBox,
    Layout,
    LayoutError,
    Phrase,
    Relation,
    parse_layout,
    rasterize_box,
    serialize_layout,
    union_mask,
)

__version__ = "0.1.0"
