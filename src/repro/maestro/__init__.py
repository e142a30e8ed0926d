"""``repro.maestro`` — MAESTRO-style analytical accelerator cost model.

Re-derives (for GEMM) the data-reuse/traffic analysis that MAESTRO [19]
performs for the three canonical dataflows of Table I, producing latency,
energy and utilisation estimates for any (PEs, L2 buffer) design point.
"""

from .accelerator import AcceleratorConfig, Technology
from .cost import CostBreakdown, CostModel
from .dataflow import Dataflow, SpatialAnalysis, array_dims, spatial_analysis
from .tiling import TilingAnalysis, analyze_tiling
from .workload import GemmWorkload

__all__ = [
    "AcceleratorConfig", "Technology",
    "CostBreakdown", "CostModel",
    "Dataflow", "SpatialAnalysis", "array_dims", "spatial_analysis",
    "TilingAnalysis", "analyze_tiling",
    "GemmWorkload",
]
