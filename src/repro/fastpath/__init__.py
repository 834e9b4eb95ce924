"""Tiered simulation core: vectorized fast path + fluid/mean-field tier.

The per-RPC DES (``repro.sim`` + ``repro.cluster``) is the bit-exact
ground truth, but it prices every NI pipeline stage of every RPC — far
too much fidelity for 100-1000-node rack sweeps. This package offers
two cheaper tiers, selectable per run through ``engine=``:

* ``fast`` (:mod:`repro.fastpath.fastcluster`,
  :mod:`repro.fastpath.fastchip`) — a vectorized surrogate that keeps
  per-RPC granularity but collapses the chip to a calibrated FIFO
  service process: batched arrival/service sampling and per-node
  server-free-time heaps. State-dependent runs go through one
  sequential loop (:mod:`repro.fastpath.loop`) with a ``heapq``
  departure heap, behind two routing front-ends: the rack's
  (:mod:`repro.fastpath.fastcluster`) and the datacenter's
  (:mod:`repro.datacenter.fastdc`).
* ``fluid`` (:mod:`repro.fastpath.fluid`) — a mean-field tier that
  replaces per-RPC simulation entirely above a node-count threshold:
  queue-length ODE trajectories per policy, with latency quantiles
  sampled from the stationary distribution.

``des`` stays the bit-exact ground truth and the default for every
figure driver; the engine-aware drivers (``ext-rack``, ``headline``)
default to ``fast`` and ``ext-scale``/``ext-diurnal`` to ``auto``,
which picks ``fast`` up to
:data:`~repro.fastpath.select.DEFAULT_FLUID_THRESHOLD` nodes and
``fluid`` above. Resolution is capability-aware (shaped arrivals,
fault plans, span tracing, chip surrogates — see
:data:`~repro.fastpath.select.ENGINE_CAPABILITIES`): ``auto`` falls
back down the ladder rather than dropping a feature, and an explicit
tier that cannot execute the scenario raises. Tolerance bands and the
validity envelope of each tier are documented in EXPERIMENTS.md
("Engine tiers").
"""

from .fastchip import calibrated_chip_profile, fast_chip_point, fast_scheme_sweep
from .fastcluster import calibrated_scheme_profile, simulate_rack_fast
from .fluid import fluid_tail_measure, fluid_transient_measure, simulate_cluster_fluid
from .select import (
    DEFAULT_FLUID_THRESHOLD,
    ENGINE_CAPABILITIES,
    ENGINES,
    arrival_capability,
    engine_supports,
    require_des,
    required_capabilities,
    resolve_engine,
)

__all__ = [
    "DEFAULT_FLUID_THRESHOLD",
    "ENGINES",
    "ENGINE_CAPABILITIES",
    "arrival_capability",
    "calibrated_chip_profile",
    "calibrated_scheme_profile",
    "engine_supports",
    "fast_chip_point",
    "fast_scheme_sweep",
    "fluid_tail_measure",
    "fluid_transient_measure",
    "required_capabilities",
    "resolve_engine",
    "require_des",
    "simulate_cluster_fluid",
    "simulate_rack_fast",
]
