"""RPC workloads and traffic generation (paper §5)."""

from .base import DistributionWorkload, RpcWorkload
from .bimodal import BimodalWorkload
from .herd import HerdWorkload
from .masstree import MasstreeWorkload
from .microbench import MicrobenchCosts, MicrobenchProgram
from .replay import TraceWorkload, load_service_trace
from .synthetic import SyntheticWorkload
from .traffic import ClosedLoopClients, TrafficGenerator

__all__ = [
    "RpcWorkload",
    "DistributionWorkload",
    "BimodalWorkload",
    "SyntheticWorkload",
    "HerdWorkload",
    "MasstreeWorkload",
    "MicrobenchCosts",
    "MicrobenchProgram",
    "TrafficGenerator",
    "ClosedLoopClients",
    "TraceWorkload",
    "load_service_trace",
]
