"""Theoretical queueing models (paper §2.2, Fig. 2; Fig. 9's model side)."""

from .analytic import (
    erlang_c,
    gg1_mean_wait_kingman,
    mgc_mean_wait_allen_cunneen,
    mg1_mean_sojourn,
    mg1_mean_wait,
    mm1_mean_sojourn,
    mm1_sojourn_percentile,
    mmc_mean_sojourn,
    mmc_mean_wait,
    mmc_sojourn_cdf,
    mmc_sojourn_percentile,
    mmc_wait_percentile,
)
from .fastsim import (
    poisson_arrivals,
    simulate_fifo_queue,
    sojourn_times,
    spray_departures,
)
from .finite import (
    erlang_b,
    mmck_blocking_probability,
    mmck_distribution,
    mmck_mean_jobs,
    mmck_throughput,
)
from .hedging import HedgingResult, simulate_hedged_queues
from .kernelsim import kernel_sojourn_times
from .nonstationary import (
    nonhomogeneous_poisson,
    square_wave_rate,
)
from .preemption import PreemptionResult, simulate_preemptive_queue
from .policies import (
    JIQRouter,
    JSQRouter,
    PowerOfDRouter,
    RandomRouter,
    RoundRobinRouter,
    Router,
    simulate_routed_queues,
)
from .system import PAPER_CONFIGS, QueueingSystem, composite_service
from .validation import ValidationRow, run_validation

__all__ = [
    "QueueingSystem",
    "composite_service",
    "PAPER_CONFIGS",
    "simulate_fifo_queue",
    "spray_departures",
    "sojourn_times",
    "poisson_arrivals",
    "kernel_sojourn_times",
    "Router",
    "RandomRouter",
    "RoundRobinRouter",
    "JSQRouter",
    "PowerOfDRouter",
    "JIQRouter",
    "simulate_routed_queues",
    "simulate_preemptive_queue",
    "PreemptionResult",
    "simulate_hedged_queues",
    "HedgingResult",
    "ValidationRow",
    "run_validation",
    "erlang_c",
    "mm1_mean_sojourn",
    "mm1_sojourn_percentile",
    "mmc_mean_wait",
    "mmc_mean_sojourn",
    "mmc_wait_percentile",
    "mmc_sojourn_cdf",
    "mmc_sojourn_percentile",
    "mg1_mean_wait",
    "mg1_mean_sojourn",
    "mgc_mean_wait_allen_cunneen",
    "gg1_mean_wait_kingman",
    "mmck_distribution",
    "mmck_blocking_probability",
    "mmck_mean_jobs",
    "mmck_throughput",
    "erlang_b",
    "nonhomogeneous_poisson",
    "square_wave_rate",
]
