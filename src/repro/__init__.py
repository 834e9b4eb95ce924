"""repro — a reproduction of RPCValet (Daglis et al., ASPLOS 2019).

RPCValet is an NI-driven, tail-aware load balancer for µs-scale RPCs on
manycore servers with integrated network interfaces. This package
implements the paper's system and every substrate it depends on as a
discrete-event simulation:

* :mod:`repro.sim` — the callback-only DES kernel (a heap of
  ``(time, seq, fn, args)`` calls) and named RNG streams;
* :mod:`repro.dists` — service-time distributions (incl. the paper's
  synthetic fixed/uniform/exponential/GEV set);
* :mod:`repro.queueing` — the theoretical Q×U queueing models (§2.2);
* :mod:`repro.arch` — the soNUMA chip with Manycore NI and native
  messaging (§3–§4);
* :mod:`repro.balancing` — 1×16 (RPCValet), grouped, partitioned
  (RSS-style), and software (MCS-lock) dispatch;
* :mod:`repro.workloads` — HERD, Masstree, and synthetic RPC streams;
* :mod:`repro.store` — an execution-driven skip-list KV store;
* :mod:`repro.metrics` — latency/SLO/sweep measurement;
* :mod:`repro.telemetry` — mergeable run instrumentation (histograms,
  queue-depth probes, Perfetto counter tracks);
* :mod:`repro.experiments` — one driver per paper table/figure.

Quickstart::

    from repro import RpcValetSystem, SingleQueue, Partitioned, SyntheticWorkload

    system = RpcValetSystem(SingleQueue(), SyntheticWorkload("gev"), seed=1)
    sweep = system.sweep([2, 4, 6, 8, 10], num_requests=30_000)
    print(sweep.throughput_under_slo(slo=12_000.0))  # ns
"""

from .arch import ChipConfig, DEFAULT_CONFIG
from .balancing import (
    Grouped,
    Partitioned,
    SingleQueue,
    SoftwareSingleQueue,
)
from .core import (
    PointResult,
    RpcValetSystem,
    SCHEME_NAMES,
    make_scheme,
    make_system,
    make_workload,
)
from .metrics import LatencySummary, SweepPoint, SweepResult
from .queueing import QueueingSystem
from .telemetry import TelemetryHub, TelemetrySnapshot
from .workloads import (
    HerdWorkload,
    MasstreeWorkload,
    MicrobenchCosts,
    SyntheticWorkload,
)

__version__ = "1.0.0"

__all__ = [
    "RpcValetSystem",
    "PointResult",
    "make_scheme",
    "make_workload",
    "make_system",
    "SCHEME_NAMES",
    "SingleQueue",
    "Grouped",
    "Partitioned",
    "SoftwareSingleQueue",
    "ChipConfig",
    "DEFAULT_CONFIG",
    "QueueingSystem",
    "SyntheticWorkload",
    "HerdWorkload",
    "MasstreeWorkload",
    "MicrobenchCosts",
    "LatencySummary",
    "SweepPoint",
    "SweepResult",
    "TelemetryHub",
    "TelemetrySnapshot",
    "__version__",
]
