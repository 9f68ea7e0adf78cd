"""Training-free layout guidance on a toy cross-attention denoiser.

Steers per-token attention mass into user-provided bounding boxes by
differentiating box-constrained attention losses back to the latent, with
a desk-scale benchmark harness for measuring layout adherence.

The top level exports the README's Python API and the package's error
types; everything else lives in the submodules.
"""

from .backbone import BackboneConfig
from .diffmath import ContractError, ShapeError
from .evaluate import decode_labels, detect_regions, layout_metrics, run_benchmark
from .guidance import GuidanceConfig, guided_sample, object_maps
from .layout import LayoutError, parse_layout

__version__ = "0.1.0"
