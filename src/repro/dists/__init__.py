"""Service-time and workload distributions (paper §5, Fig. 6)."""

from .base import Distribution, Scaled, Shifted
from .catalog import (
    GEV_PARAMS_NS,
    HERD_MEAN_NS,
    MASSTREE_GET_MEAN_NS,
    MASSTREE_SCAN_FRACTION,
    MASSTREE_SCAN_RANGE_NS,
    SYNTHETIC_BASE_NS,
    SYNTHETIC_EXTRA_MEAN_NS,
    SYNTHETIC_KINDS,
    herd,
    masstree_get,
    masstree_scan,
    synthetic,
)
from .cdf import CdfDistribution, datamining, dist_from_file, websearch
from .parametric import Gamma
from .synthetic import GEV, Exponential, Fixed, Uniform

__all__ = [
    "Distribution",
    "Shifted",
    "Scaled",
    "Fixed",
    "Uniform",
    "Exponential",
    "GEV",
    "Gamma",
    "CdfDistribution",
    "dist_from_file",
    "websearch",
    "datamining",
    "synthetic",
    "herd",
    "masstree_get",
    "masstree_scan",
    "SYNTHETIC_KINDS",
    "SYNTHETIC_BASE_NS",
    "SYNTHETIC_EXTRA_MEAN_NS",
    "GEV_PARAMS_NS",
    "HERD_MEAN_NS",
    "MASSTREE_GET_MEAN_NS",
    "MASSTREE_SCAN_RANGE_NS",
    "MASSTREE_SCAN_FRACTION",
]
