"""Top-level public API: assemble and run RPCValet systems."""

from .presets import SCHEME_NAMES, make_scheme, make_system, make_workload
from .system import (
    MessageLog,
    PointResult,
    RpcValetSystem,
    run_point_task,
    sweep_many,
)

__all__ = [
    "RpcValetSystem",
    "PointResult",
    "MessageLog",
    "make_scheme",
    "make_workload",
    "make_system",
    "SCHEME_NAMES",
    "run_point_task",
    "sweep_many",
]
