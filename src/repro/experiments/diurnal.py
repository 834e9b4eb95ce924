"""``ext-diurnal``: policy × load-profile sweep under population-driven load.

The paper's figures hold offered load constant per point; this
experiment asks what happens when the *same average load* arrives as a
process instead (ROADMAP item 1, :mod:`repro.popload`):

* ``constant`` — the paper's stationary Poisson (the control row; it
  routes through :class:`repro.popload.StationaryPoisson`, which is
  byte-identical to the legacy generator path);
* ``diurnal`` — a user population swinging ±60% around the mean over
  one day-cycle spanning the run (peak 1.6× the nominal rate), users
  re-sampled per window (:class:`repro.popload.PopulationProcess` over
  a :class:`repro.popload.DiurnalRate`);
* ``flash`` — a flash-crowd ramp to ~2.1× the nominal rate holding for
  15% of the run (:class:`repro.popload.FlashCrowdRate`), background
  lowered so the run-average stays at the nominal rate.

Each profile runs the HERD workload under the paper's two headline
policies (1×16 NI-driven single queue vs 16×1 RSS-style partitioning)
over a saturation-seeking load grid, and reports throughput-under-SLO
(SLO = 10×S̄, the Fig. 7a convention) plus the p99 at a mid-grid
operating point. The punchline: equal-average diurnal/flash load costs
*both* policies SLO capacity — the peak, not the mean, sets the
provisioning point — and partitioning loses more because its unlucky
queues saturate first.

The experiment is engine-aware (default ``auto``). The vectorized
``fast`` tier (:func:`repro.fastpath.fast_chip_point`) consumes the
*same* named RNG streams as the DES — arrival gaps through the
process's own ``sample_gaps``, service draws, and 16x1's per-message
core spray — so for a given seed both engines see identical arrivals,
services, and core picks and differ only in the queueing model
(DES-calibrated FIFO vs per-event NI pipeline). ``auto`` resolves
through the capability matrix (:mod:`repro.fastpath.select`): the
single-chip scheme surrogates pin it to ``fast``, and explicitly
requesting ``fluid`` raises with the supported alternatives.
``engine="des"`` runs the original ground-truth path, byte-identical
to the historical DES-only driver. On the ``quick``/``full`` profiles
a surrogate run appends a DES cross-check table: the same batch reruns
the sub-critical overlap points on the DES under common random numbers
and :func:`~repro.experiments.common.tier_check` tabulates the p50/p99
deltas (EXPERIMENTS.md documents the 5% band;
at/above capacity the surrogate is not gated — critical-regime tails
are calibration-sensitive on every tier but the DES). Surrogate runs
record each scheme's calibrated ``(occupancy_ns, shift_ns)`` in
``data["calibration"]``. All points fan out through
:func:`repro.runner.map_points` under per-task seeds — bit-identical
output at any ``--workers`` count.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..metrics import SweepResult, format_table
from ..runner import map_points, task_seed
from .common import (
    ExperimentResult,
    calibrate_mean_service_ns,
    capacity_grid,
    get_profile,
    tier_check,
)

__all__ = ["run_diurnal", "make_arrival_process", "PROFILE_KINDS"]

#: The two headline policies (paper Fig. 7a labels).
SCHEMES = ("1x16", "16x1")

#: Load profiles swept per policy.
PROFILE_KINDS = ("constant", "diurnal", "flash")

#: Diurnal swing: ±60% of the mean over one cycle spanning the run.
DIURNAL_AMPLITUDE = 0.6

#: Modeled population behind the diurnal cycle; per-user rate is
#: nominal_rate / POPULATION_USERS, re-sampled every window.
POPULATION_USERS = 1000.0

#: User re-sampling windows per run (the population's "half-hours").
POPULATION_WINDOWS = 48

#: Flash crowd: peak at FLASH_MULTIPLIER × background, holding for
#: FLASH_HOLD of the run with FLASH_RAMP ramps on each side.
FLASH_MULTIPLIER = 3.0
FLASH_START = 0.35
FLASH_RAMP = 0.05
FLASH_HOLD = 0.15


def make_arrival_process(kind: str, rate_rps: float, horizon_ns: float):
    """Build the arrival process for one (profile kind, nominal rate).

    Every kind offers the same *average* rate over ``horizon_ns`` —
    the comparison isolates the load's shape, not its volume.
    """
    from ..popload import (
        DiurnalRate,
        FlashCrowdRate,
        NonhomogeneousPoisson,
        PopulationProcess,
        StationaryPoisson,
    )

    if rate_rps <= 0:
        raise ValueError(f"rate_rps must be positive, got {rate_rps!r}")
    if horizon_ns <= 0:
        raise ValueError(f"horizon_ns must be positive, got {horizon_ns!r}")
    if kind == "constant":
        return StationaryPoisson(rate_rps)
    if kind == "diurnal":
        profile = DiurnalRate(
            mean_rate_rps=rate_rps,
            relative_amplitude=DIURNAL_AMPLITUDE,
            period_ns=horizon_ns,
        )
        return PopulationProcess(
            mean_users=POPULATION_USERS,
            per_user_rps=rate_rps / POPULATION_USERS,
            window_ns=horizon_ns / POPULATION_WINDOWS,
            user_distribution="poisson",
            profile=profile,
        )
    if kind == "flash":
        # Solve the background so the run-average equals the nominal
        # rate: mean = base × (1 + (m-1)·W), W = hold + (ramp+decay)/2.
        weight = FLASH_HOLD + FLASH_RAMP
        base = rate_rps / (1.0 + (FLASH_MULTIPLIER - 1.0) * weight)
        profile = FlashCrowdRate(
            base_rate_rps=base,
            peak_rate_rps=FLASH_MULTIPLIER * base,
            start_ns=FLASH_START * horizon_ns,
            ramp_ns=FLASH_RAMP * horizon_ns,
            hold_ns=FLASH_HOLD * horizon_ns,
            decay_ns=FLASH_RAMP * horizon_ns,
        )
        return NonhomogeneousPoisson(profile)
    raise ValueError(
        f"unknown profile kind {kind!r}; expected one of {PROFILE_KINDS}"
    )


#: One task: (tier, scheme, kind, load_mrps, requests, warmup, seed,
#: chip_profile). ``chip_profile`` is the fast tier's calibrated
#: ``(occupancy_ns, shift_ns)`` split, computed once in the parent so
#: pool workers never redo the DES probes; ``None`` on the DES.
_Task = Tuple[str, str, str, float, int, float, int, Optional[Tuple[float, float]]]


def _run_diurnal_task(task: _Task) -> dict:
    """One (policy, profile, load) point on one tier (pool-safe).

    Both tiers see the same seed and arrival process; the fast tier's
    chip is the calibrated FIFO surrogate instead of the per-event NI
    pipeline.
    """
    tier, scheme, kind, load_mrps, requests, warmup, seed, chip_profile = task
    horizon_ns = requests / (load_mrps * 1e6) * 1e9
    process = make_arrival_process(kind, load_mrps * 1e6, horizon_ns)
    if tier == "des":
        from ..core import make_system

        system = make_system(scheme, "herd", seed=seed)
        system.arrival_process = process
        point = system.run_point(
            load_mrps, num_requests=requests, warmup_fraction=warmup
        ).point
    else:
        from ..fastpath.fastchip import fast_chip_point
        from ..workloads import HerdWorkload

        point = fast_chip_point(
            scheme,
            HerdWorkload(),
            load_mrps,
            requests,
            seed,
            chip_profile,
            arrival_process=process,
            warmup_fraction=warmup,
        )
    return {"p50_ns": point.summary.p50, "p99_ns": point.p99, "point": point}


#: Surrogate runs cross-check against the DES only below this capacity
#: fraction: the calibrated FIFO holds its band in the sub-critical
#: regime, while at/above capacity the tail is horizon-dominated and
#: calibration-sensitive on every tier but the DES.
OVERLAP_MAX_FRACTION = 0.9


def run_diurnal(
    profile: str = "quick",
    seed: int = 0,
    workers: Optional[int] = None,
    engine: str = "auto",
) -> ExperimentResult:
    """Sweep policy × load-profile; report SLO capacity and p99 shifts.

    ``engine="auto"`` (the default) resolves through the capability
    matrix — the single-chip scheme surrogates pin it to ``fast`` —
    while ``engine="des"`` reproduces the ground-truth output
    byte-for-byte. On quick/full, surrogate runs append a DES
    cross-check table over the sub-critical overlap points.
    """
    from ..fastpath import resolve_engine

    # Capability probe: the richest arrival shape the sweep uses (the
    # population-driven diurnal process); chip=True because the
    # schemes are single-chip queueing structures, which the fluid
    # tier cannot express (explicitly requesting it raises).
    resolved = resolve_engine(
        engine,
        1,
        arrival_process=make_arrival_process("diurnal", 1e6, 1e9),
        chip=True,
    )
    prof = get_profile(profile)
    requests = prof.arch_requests
    mean_service = calibrate_mean_service_ns("herd", "1x16", seed)
    slo_ns = 10.0 * mean_service
    capacity_mrps = 16.0 / (mean_service / 1e3)  # cores / S̄(µs)
    loads = capacity_grid(capacity_mrps, prof.sweep_points)

    chip_profiles: Optional[Dict[str, Tuple[float, float]]] = None
    if resolved != "des":
        from ..fastpath import calibrated_chip_profile

        # Both schemes' DES-anchored (occupancy, shift) splits, probed
        # once here (lru-cached) so pool workers never rerun the DES.
        chip_profiles = {
            scheme: calibrated_chip_profile(scheme) for scheme in SCHEMES
        }

    tasks: List[_Task] = []
    labels: List[str] = []
    hints: List[float] = []
    for scheme in SCHEMES:
        for kind in PROFILE_KINDS:
            for index, load in enumerate(loads):
                tasks.append(
                    (
                        resolved,
                        scheme,
                        kind,
                        load,
                        requests,
                        prof.warmup_fraction,
                        task_seed("ext-diurnal", f"{scheme}/{kind}", index, seed),
                        chip_profiles[scheme] if chip_profiles else None,
                    )
                )
                labels.append(f"{scheme}/{kind}[{index}]@{load:.2f}")
                # Bursty profiles build backlog: schedule them first.
                hints.append(load * (1.0 if kind == "constant" else 1.5))
    sweep_tasks = len(tasks)

    # DES cross-check (quick/full surrogate runs): the mid-grid point
    # and the highest sub-critical fraction, both below
    # OVERLAP_MAX_FRACTION of capacity, rerun on the DES with the
    # surrogate task's exact seed, so each delta is engine error, not
    # sampling noise.
    overlap: List[int] = []
    if resolved != "des" and prof.name != "smoke":
        overlap = sorted(
            index
            for index in {len(loads) // 2, len(loads) - 3}
            if loads[index] <= OVERLAP_MAX_FRACTION * capacity_mrps
        )
    checked: List[int] = []
    for position, task in enumerate(tasks[:sweep_tasks]):
        if position % len(loads) in overlap:  # the load index is innermost
            tasks.append(("des",) + task[1:7] + (None,))
            labels.append(f"des-check {labels[position]}")
            hints.append(4.0 * hints[position])  # the DES costs more: start it first
            checked.append(position)

    results = map_points(
        _run_diurnal_task,
        tasks,
        workers=workers,
        labels=labels,
        progress_label="ext-diurnal",
        cost_hints=hints,
    ).require("ext-diurnal")

    curves: Dict[Tuple[str, str], List] = {
        (scheme, kind): [] for scheme in SCHEMES for kind in PROFILE_KINDS
    }
    for task, row in zip(tasks, results[:sweep_tasks]):
        curves[(task[1], task[2])].append(row["point"])

    sweeps: Dict[str, SweepResult] = {}
    capacity: Dict[str, Dict[str, float]] = {s: {} for s in SCHEMES}
    mid_p99: Dict[str, Dict[str, float]] = {s: {} for s in SCHEMES}
    mid_index = len(loads) // 2
    rows = []
    for scheme in SCHEMES:
        for kind in PROFILE_KINDS:
            label = f"{scheme}/{kind}"
            sweep = SweepResult(label=label, points=curves[(scheme, kind)])
            sweeps[label] = sweep
            under_slo = sweep.throughput_under_slo(slo_ns)
            capacity[scheme][kind] = under_slo
            mid = sweep.points[mid_index]
            mid_p99[scheme][kind] = mid.p99
            rows.append(
                [
                    label,
                    under_slo,
                    mid.offered_load,
                    mid.p99 / 1e3,
                    sweep.points[-1].p99 / 1e3,
                ]
            )

    tables = [
        format_table(
            [
                "policy/profile",
                "tput under SLO (MRPS)",
                "mid load (MRPS)",
                "p99@mid (µs)",
                "p99@top (µs)",
            ],
            rows,
            title=(
                f"HERD, SLO={slo_ns / 1e3:.1f}µs — equal-average load "
                f"shaped constant vs diurnal (peak "
                f"{1 + DIURNAL_AMPLITUDE:g}x) vs flash crowd (peak "
                f"~{FLASH_MULTIPLIER / (1 + (FLASH_MULTIPLIER - 1) * (FLASH_HOLD + FLASH_RAMP)):.2f}x)"
            ),
        )
    ]

    findings: List[str] = []
    for scheme in SCHEMES:
        constant = capacity[scheme]["constant"]
        for kind in ("diurnal", "flash"):
            shaped = capacity[scheme][kind]
            if shaped > 0:
                findings.append(
                    f"{scheme}: {kind} load at the same average rate cuts "
                    f"SLO capacity {constant:.2f} -> {shaped:.2f} MRPS "
                    f"({constant / shaped:.2f}x) — the peak, not the mean, "
                    "sets the provisioning point"
                )
            else:
                findings.append(
                    f"{scheme}: under {kind} load no swept point meets the "
                    "SLO — the peak saturates every operating point"
                )
    for kind in PROFILE_KINDS:
        single = capacity["1x16"][kind]
        parted = capacity["16x1"][kind]
        if parted > 0:
            findings.append(
                f"{kind}: 1x16 over 16x1 = {single / parted:.2f}x under SLO"
            )
        else:
            findings.append(
                f"{kind}: 16x1 never meets the SLO; 1x16 "
                f"sustains {single:.2f} MRPS"
            )

    data: Dict[str, object] = {
        "sweeps": sweeps,
        "slo_ns": slo_ns,
        "mean_service_ns": mean_service,
        "capacity": capacity,
        "mid_p99": mid_p99,
        "loads": list(loads),
    }
    if resolved != "des":
        data["engine"] = resolved
        data["calibration"] = {"herd": chip_profiles}
        findings.append(
            f"engine={resolved}: calibrated-chip surrogate under common "
            "random numbers (ground truth: --engine des)"
        )
    if checked:
        pairs = [
            (
                f"{tasks[position][1]}/{tasks[position][2]}"
                f"@{tasks[position][3]:.2f}",
                des_row,
                results[position],
            )
            for position, des_row in zip(checked, results[sweep_tasks:])
        ]
        table, check, finding = tier_check(
            pairs,
            "des",
            "fast",
            "Ground-truth cross-check on the sub-critical overlap grid "
            "(common random numbers)",
        )
        check["loads"] = [loads[index] for index in overlap]
        data["des_check"] = check
        tables.append(table)
        findings.append(finding)

    return ExperimentResult(
        "ext-diurnal",
        "Population-driven load: SLO capacity under diurnal cycles "
        "and flash crowds",
        data=data,
        tables=tables,
        findings=findings,
    )
