"""Fluid/mean-field tier: racks too large for per-RPC simulation.

Above a few hundred nodes, per-RPC state is wasted effort: with K
homogeneous servers under JSQ(d)-style routing, the empirical fraction
of servers holding >= k jobs concentrates (propagation of chaos) on a
deterministic trajectory as K grows. This module computes that
trajectory directly and samples latency quantiles from its stationary
point — a 1024-node rack point in milliseconds.

The model, in units of one server's mean service time (mu = 1):

* ``s_k(t)`` = fraction of nodes with at least ``k`` jobs in system;
  ``s_0 = 1``. Each node has ``c`` servers and per-node offered load
  ``lam = per-node arrival rate x mean service time`` (stable iff
  ``lam < c``).
* JSQ(d) mean-field ODE (Mitzenmacher'96 / Vvedenskaya'96, extended to
  ``c``-server nodes):
  ``ds_k/dt = lam (s_{k-1}^d - s_k^d) - min(k, c) (s_k - s_{k+1})``.
  :func:`fluid_tail_measure` integrates it by forward Euler to the
  fixed point — the "queue-length ODE trajectory" tier of the ISSUE.
* A tagged arrival joins a node holding ``k`` jobs with probability
  ``s_k^d - s_{k+1}^d`` (the minimum of d independent samples of the
  stationary level); given ``k >= c`` it waits an Erlang(k - c + 1)
  sum of departure gaps at aggregate rate ``c``. Non-exponential
  service is folded in with the Allen-Cunneen ``(1 + cv^2)/2`` wait
  scaling — exact for the mean, an approximation for the tail.
* Policies: ``random``/``rr`` bypass the ODE (each node is an exact
  M/G/c: waiting probability from Erlang-C, the same A-C scaling);
  ``jsqD`` uses d samples; ``sed`` on a homogeneous rack is JSQ over
  the full candidate set, i.e. d = K - 1 (capped — beyond d ~ 64 the
  curves are indistinguishable from JSQ(inf)).

Quantiles come from a seeded vectorized Monte Carlo draw over the
stationary distribution (~2x10^5 tagged customers), so results are
deterministic per seed and LatencySummary-shaped like every other
engine. Cross-validation against DES/fast lives in
``tests/test_fastpath.py``; tolerance bands in EXPERIMENTS.md.

Shaped load (``arrivals:profile`` in the engine-capability matrix):
when the arrival process carries a deterministic
:class:`~repro.popload.RateProfile` intensity,
:func:`fluid_transient_measure` integrates the *transient* ODE with
lambda(t) from the profile — started from the lambda(0) stationary point —
and tagged customers are sampled at times distributed proportionally
to lambda(t) via the profile's closed-form ``integral``. ``random``/``rr``
route through the same machinery with d = 1 (the mean-field ODE with
one choice *is* random splitting), so diurnal/flash shapes stay
meaningful above the ``auto`` threshold. Transient overload (flash
peaks past ``cores``) is fine as long as the *mean* load is stable;
the backlog headroom is sized from the profile's worst excess.
"""

from __future__ import annotations

import math
from typing import Optional, Tuple

import numpy as np

from ..cluster.cluster import ClusterResult
from ..metrics import LatencySummary
from ..queueing.analytic import erlang_c

__all__ = [
    "fluid_tail_measure",
    "fluid_transient_measure",
    "simulate_cluster_fluid",
]

#: SED on a homogeneous rack scans all peers; beyond this many samples
#: the JSQ(d) stationary point is numerically indistinguishable.
_MAX_CHOICES = 64


def fluid_tail_measure(
    offered: float,
    num_servers: int,
    choices: int,
    k_max: Optional[int] = None,
    tol: float = 1e-12,
    max_steps: int = 500_000,
) -> np.ndarray:
    """Stationary tail measure ``s_k`` of the JSQ(d) mean-field ODE.

    Parameters are in service-time units: ``offered`` is the per-node
    arrival rate times the mean service time (must be < ``num_servers``),
    ``choices`` is d. Returns ``s[0..k_max]`` with ``s[0] = 1``.
    """
    if not 0 < offered < num_servers:
        raise ValueError(
            f"offered load {offered!r} must be in (0, {num_servers}) for stability"
        )
    if choices < 1:
        raise ValueError(f"choices must be >= 1, got {choices!r}")
    rho = offered / num_servers
    if k_max is None:
        # Past c the tail decays at least geometrically (doubly
        # exponentially for d >= 2); 80 levels of headroom covers
        # rho <= 0.97 to double precision.
        k_max = num_servers + 80
    s = np.minimum(1.0, rho ** np.maximum(np.arange(k_max + 2) - num_servers + 1, 0))
    s[0] = 1.0
    s[-1] = 0.0
    drain = np.minimum(np.arange(1, k_max + 1), num_servers).astype(float)
    dt = 0.2 / (offered + num_servers)
    for _ in range(max_steps):
        powers = s**choices
        flow_in = offered * (powers[:-2] - powers[1:-1])
        flow_out = drain * (s[1:-1] - s[2:])
        delta = dt * (flow_in - flow_out)
        s[1:-1] += delta
        np.clip(s[1:-1], 0.0, 1.0, out=s[1:-1])
        if np.abs(delta).max() < tol:
            break
    # Enforce monotonicity against Euler wiggle at the tail.
    s[1:] = np.minimum.accumulate(s[1:])
    return s[:-1]


def _join_level_distribution(s: np.ndarray, choices: int) -> np.ndarray:
    """P(tagged arrival joins a node already holding k jobs), k = 0.."""
    powers = s**choices
    probabilities = powers[:-1] - powers[1:]
    probabilities = np.append(probabilities, powers[-1])
    total = probabilities.sum()
    if total <= 0:
        raise RuntimeError("degenerate join-level distribution")
    return probabilities / total


def fluid_transient_measure(
    profile,
    horizon_ns: float,
    cores: int,
    mean_service_ns: float,
    choices: int,
    snapshots: int = 512,
    k_headroom: int = 80,
) -> Tuple[np.ndarray, np.ndarray]:
    """Transient tail-measure trajectory ``s_k(t)`` under lambda(t).

    Integrates the JSQ(d) mean-field ODE with the time-varying per-node
    intensity of ``profile`` (a :class:`~repro.popload.RateProfile`, in
    requests/second) by forward Euler, starting from the stationary
    point of lambda(0) — the fluid analogue of the per-RPC engines'
    warmup discard. Returns ``(snap_times_ns, snap_s)`` where
    ``snap_s[i]`` is the tail measure at ``snap_times_ns[i]``;
    ``snapshots`` evenly spaced rows cover ``[0, horizon_ns]``.

    The level cap is sized from the profile's worst cumulative excess
    over the service capacity, so flash peaks past ``cores`` (transient
    overload) track the growing backlog instead of saturating the grid.
    """
    if horizon_ns <= 0:
        raise ValueError(f"horizon_ns must be positive, got {horizon_ns!r}")
    if choices < 1:
        raise ValueError(f"choices must be >= 1, got {choices!r}")
    # Work in service-time units: tau = t / mean_service_ns.
    tau_max = horizon_ns / mean_service_ns
    grid = np.linspace(0.0, horizon_ns, snapshots)
    # Per-node offered load in jobs per service time at each grid time.
    lam_grid = profile.rate_array(grid) * 1e-9 * mean_service_ns
    lam_peak = float(lam_grid.max())
    lam0 = float(lam_grid[0])
    if lam0 <= 0 or lam0 >= cores:
        raise ValueError(
            f"initial per-node load {lam0!r} must be in (0, {cores}) — the "
            "trajectory starts from the lambda(0) stationary point"
        )
    # Worst cumulative excess of arrivals over capacity, in jobs: the
    # deepest the fluid backlog can get under the deterministic drift.
    cumulative = np.array([profile.integral(float(t)) for t in grid])
    drained = cores * grid / mean_service_ns
    drift = cumulative - drained
    backlog = float(np.max(drift - np.minimum.accumulate(drift)))
    k_max = cores + k_headroom + int(math.ceil(backlog))
    s = fluid_tail_measure(min(lam0, cores - 1e-9), cores, choices, k_max=k_max)
    s = np.append(s, 0.0)  # s[k_max + 1] = 0 boundary
    drain = np.minimum(np.arange(1, k_max + 1), cores).astype(float)
    dt = 0.2 / (max(lam_peak, 1.0) + cores)
    steps = max(int(tau_max / dt) + 1, 1)
    dt = tau_max / steps
    snap_s = np.empty((snapshots, k_max + 1))
    snap_s[0] = s[:-1]
    next_snap = 1
    tau = 0.0
    for _ in range(steps):
        t_ns = tau * mean_service_ns
        lam = float(profile.rate(t_ns)) * 1e-9 * mean_service_ns
        powers = s**choices
        flow_in = lam * (powers[:-2] - powers[1:-1])
        flow_out = drain * (s[1:-1] - s[2:])
        s[1:-1] += dt * (flow_in - flow_out)
        np.clip(s[1:-1], 0.0, 1.0, out=s[1:-1])
        s[1:] = np.minimum.accumulate(s[1:])
        tau += dt
        while (
            next_snap < snapshots
            and grid[next_snap] <= tau * mean_service_ns
        ):
            snap_s[next_snap] = s[:-1]
            next_snap += 1
    while next_snap < snapshots:
        snap_s[next_snap] = s[:-1]
        next_snap += 1
    return grid, snap_s


def simulate_cluster_fluid(
    num_nodes: int,
    policy: str = "random",
    per_node_mrps: float = 24.0,
    requests_per_node: int = 1000,
    cores: int = 16,
    mean_service_ns: float = 400.0,
    seed: int = 0,
    samples: int = 200_000,
    workload=None,
    overhead_ns: Optional[float] = None,
    arrival_process=None,
    horizon_ns: Optional[float] = None,
) -> ClusterResult:
    """One rack point from the fluid tier, as a ClusterResult.

    ``mean_service_ns`` is the effective per-RPC service time at a
    server (processing + calibrated chip overhead); pass ``workload``
    plus ``overhead_ns`` to sample true processing-time shapes, else
    service defaults to exponential with the given mean.
    ``requests_per_node`` only scales the reported completion count —
    the fluid tier's cost is independent of it.

    With an ``arrival_process`` whose ``.profile`` is a
    :class:`~repro.popload.RateProfile` (plus a ``horizon_ns``), the
    run integrates the transient ODE via
    :func:`fluid_transient_measure` and samples tagged customers at
    times proportional to lambda(t); ``random``/``rr`` take the ODE with
    d = 1 (random splitting) instead of the stationary Erlang-C path.
    Processes without a deterministic intensity (a population process
    without a profile) are rejected — that is the ``arrivals:stochastic`` capability, which
    this tier does not have (see EXPERIMENTS.md "Engine tiers").
    """
    if num_nodes < 2:
        raise ValueError(f"need at least 2 nodes, got {num_nodes!r}")
    if per_node_mrps <= 0 or mean_service_ns <= 0:
        raise ValueError("per_node_mrps and mean_service_ns must be positive")
    offered = per_node_mrps * 1e-3 * mean_service_ns  # jobs per service time
    if offered >= cores:
        raise ValueError(
            f"per-node load {offered / cores:.2f} >= 1: the fluid tier has no "
            "stationary distribution at or past saturation"
        )

    rng = np.random.default_rng(seed)
    # Own service: true workload shape when available, else exponential.
    if workload is not None:
        base, _labels = workload.sample_batch(rng, samples)
        fixed = overhead_ns if overhead_ns is not None else 0.0
        services = base + fixed
        services *= mean_service_ns / services.mean()
    else:
        services = rng.exponential(mean_service_ns, size=samples)
    scv = float(services.var() / services.mean() ** 2)
    wait_scale = (1.0 + scv) / 2.0

    spec = policy.strip().lower()
    if arrival_process is not None:
        from ..popload.arrivals import RateProfile

        profile = getattr(arrival_process, "profile", None)
        if not isinstance(profile, RateProfile):
            raise ValueError(
                f"the fluid tier needs a deterministic RateProfile intensity; "
                f"{type(arrival_process).__name__} has none "
                "(capability 'arrivals:stochastic' — use engine='fast' or "
                "'des'; see the engine-capability matrix in EXPERIMENTS.md)"
            )
        if horizon_ns is None or horizon_ns <= 0:
            raise ValueError(
                "arrival_process needs an explicit positive horizon_ns — "
                "the transient trajectory has no intrinsic end time"
            )
        mean_offered = (
            profile.mean_rate(horizon_ns) * 1e-9 * mean_service_ns
        )
        if mean_offered >= cores:
            raise ValueError(
                f"mean per-node load {mean_offered / cores:.2f} >= 1 over the "
                "horizon: the fluid backlog would grow without bound"
            )
        if spec in ("random", "uniform", "rr", "round-robin", "roundrobin"):
            # The d = 1 mean-field ODE *is* Poisson splitting, so the
            # random/RR transient rides the same trajectory machinery.
            choices = 1
        elif spec == "sed":
            choices = min(num_nodes - 1, _MAX_CHOICES)
        elif spec.startswith("jsq"):
            choices = int(spec[3:] or "2")
        else:
            raise ValueError(f"unknown policy for the fluid tier: {policy!r}")
        grid, snap = fluid_transient_measure(
            profile, horizon_ns, cores, mean_service_ns, choices
        )
        # Tagged customers arrive with density proportional to lambda(t):
        # invert the profile's cumulative integral on the snapshot grid.
        cumulative = np.array(
            [profile.integral(float(t)) for t in grid]
        )
        targets = rng.random(samples) * cumulative[-1]
        sample_times = np.interp(targets, cumulative, grid)
        snap_index = np.searchsorted(grid, sample_times, side="right") - 1
        levels = np.empty(samples, dtype=np.int64)
        for index in np.unique(snap_index):
            mask = snap_index == index
            probabilities = _join_level_distribution(snap[index], choices)
            levels[mask] = np.searchsorted(
                np.cumsum(probabilities),
                rng.random(int(mask.sum())),
                side="right",
            )
        queued_ahead = np.maximum(levels - cores + 1, 0).astype(float)
        waits = rng.standard_gamma(queued_ahead) * (mean_service_ns / cores)
    elif spec in ("random", "uniform", "rr", "round-robin", "roundrobin"):
        # Exact per-node M/G/c: Poisson splitting keeps each node's
        # arrivals Poisson; RR's slightly smoother stream is treated
        # the same (conservative at rack sizes).
        wait_probability = erlang_c(cores, offered)
        waits = np.where(
            rng.random(samples) < wait_probability,
            rng.exponential(mean_service_ns / (cores - offered), size=samples),
            0.0,
        )
    else:
        if spec == "sed":
            choices = min(num_nodes - 1, _MAX_CHOICES)
        elif spec.startswith("jsq"):
            choices = int(spec[3:] or "2")
        else:
            raise ValueError(f"unknown policy for the fluid tier: {policy!r}")
        s = fluid_tail_measure(offered, cores, choices)
        probabilities = _join_level_distribution(s, choices)
        levels = np.searchsorted(
            np.cumsum(probabilities), rng.random(samples), side="right"
        )
        queued_ahead = np.maximum(levels - cores + 1, 0).astype(float)
        # Erlang(k - c + 1) wait at aggregate departure rate c/mean.
        waits = rng.standard_gamma(queued_ahead) * (mean_service_ns / cores)
    waits = waits * wait_scale

    sojourns = waits + services
    aggregate = LatencySummary.from_values(sojourns)
    completed = num_nodes * requests_per_node
    return ClusterResult(
        num_nodes=num_nodes,
        aggregate=aggregate,
        # Mean-field symmetry: every node sees the same distribution.
        per_node=[aggregate] * num_nodes,
        total_throughput_mrps=num_nodes * per_node_mrps,
        stall_fractions=[0.0] * num_nodes,
        completed=completed,
        per_node_completed=[requests_per_node] * num_nodes,
    )
