"""Network substrate: ISP membership, pairwise costs, topology, link conditions."""

from .costs import PAPER_INTER_ISP_COST, PAPER_INTRA_ISP_COST, CostModel
from .isp import ISPTopology
from .linkmodel import (
    REGIME_PRESETS,
    LinkConditions,
    LinkOutcome,
    LinkParams,
    link_preset,
    preset_names,
)
from .topology import OverlayGraph
from .trunc_normal import TruncatedNormal

__all__ = [
    "CostModel",
    "ISPTopology",
    "LinkConditions",
    "LinkOutcome",
    "LinkParams",
    "OverlayGraph",
    "PAPER_INTER_ISP_COST",
    "PAPER_INTRA_ISP_COST",
    "REGIME_PRESETS",
    "TruncatedNormal",
    "link_preset",
    "preset_names",
]
