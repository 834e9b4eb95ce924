"""Engine selection: ``des`` | ``fast`` | ``fluid`` | ``auto``.

One tiny module so every engine-aware driver (``ext-rack``,
``headline``, ``ext-scale``, ``ext-diurnal``) resolves the knob
identically:

* ``des`` — the bit-exact per-RPC ground truth (the default).
* ``fast`` — the vectorized surrogate (per-RPC, calibrated chip).
* ``fluid`` — the mean-field tier (no per-RPC state at all).
* ``auto`` — ``fast`` up to :data:`DEFAULT_FLUID_THRESHOLD` nodes,
  ``fluid`` above, where the mean-field approximation is accurate
  (its error shrinks as 1/K) and per-RPC cost would dominate.

Not every tier executes every scenario feature, so resolution is
capability-aware: callers describe what the run needs (shaped arrival
process, fault plan, span tracing, single-chip scheme surrogates) and
:func:`resolve_engine` checks the request against
:data:`ENGINE_CAPABILITIES`. ``auto`` falls back down the fidelity
ladder (``fluid`` -> ``fast`` -> ``des``) until the need is met — it
never silently drops a requested feature — while an *explicitly*
requested tier that lacks a capability raises an actionable error.

``REPRO_ENGINE`` overrides the programmatic choice, mirroring how
``REPRO_WORKERS`` / ``REPRO_CACHE`` already behave.
"""

from __future__ import annotations

import os
from typing import FrozenSet, Mapping, Optional

__all__ = [
    "DEFAULT_FLUID_THRESHOLD",
    "ENGINES",
    "ENGINE_CAPABILITIES",
    "arrival_capability",
    "required_capabilities",
    "engine_supports",
    "resolve_engine",
]

ENGINES = ("des", "fast", "fluid", "auto")

#: Node count above which ``auto`` switches from ``fast`` to ``fluid``.
DEFAULT_FLUID_THRESHOLD = 128

#: What each concrete tier can execute (the engine-capability matrix;
#: the README/EXPERIMENTS.md table renders this):
#:
#: * ``arrivals:profile`` — arrivals shaped by a deterministic
#:   :class:`~repro.popload.RateProfile` intensity (diurnal, flash).
#:   The fluid tier integrates the transient mean-field
#:   ODE against λ(t); the per-RPC tiers thin/redraw the real process.
#: * ``arrivals:stochastic`` — arrival processes with no deterministic
#:   intensity (population windows without a profile): per-RPC only.
#: * ``faults`` — :class:`~repro.faults.FaultPlan` timelines (crashes,
#:   slowdowns, fabric degradation).
#: * ``tracing`` — per-RPC span capture (``ext-tails``): instruments
#:   the discrete-event hot paths themselves.
#: * ``chip`` — single-chip balancing-scheme surrogates (1x16/16x1
#:   queueing structure inside one node, e.g. ``ext-diurnal``).
#: * ``hierarchy`` — two-level rack-of-racks routing
#:   (:mod:`repro.datacenter`): per-rack aggregates and ToR hold
#:   queues are per-RPC state the mean-field tier cannot express.
ENGINE_CAPABILITIES: Mapping[str, FrozenSet[str]] = {
    "des": frozenset(
        {
            "arrivals:profile",
            "arrivals:stochastic",
            "faults",
            "tracing",
            "chip",
            "hierarchy",
        }
    ),
    "fast": frozenset(
        {
            "arrivals:profile",
            "arrivals:stochastic",
            "faults",
            "chip",
            "hierarchy",
        }
    ),
    "fluid": frozenset({"arrivals:profile"}),
}

#: ``auto``'s fallback ladder when the node-count tier lacks a needed
#: capability: nearest per-RPC tier first, ground truth last. Never
#: ``fluid`` — falling *up* the fidelity ladder cannot lose features.
_AUTO_FALLBACK = ("fast", "des")


def arrival_capability(arrival_process) -> Optional[str]:
    """Capability token an arrival process needs, or None if stationary.

    Constant-rate processes (``None`` or a
    :class:`~repro.popload.StationaryPoisson`) need nothing beyond the
    legacy Poisson stream. Profile-backed processes (a ``.profile``
    that is a :class:`~repro.popload.RateProfile`) expose the
    deterministic intensity λ(t) the fluid tier can integrate; anything
    else (profile-less population windows, third-party processes) is
    stochastic and needs a per-RPC tier.
    """
    if arrival_process is None:
        return None
    from ..popload.arrivals import RateProfile, StationaryPoisson

    if isinstance(arrival_process, StationaryPoisson):
        return None
    if isinstance(getattr(arrival_process, "profile", None), RateProfile):
        return "arrivals:profile"
    return "arrivals:stochastic"


def required_capabilities(
    arrival_process=None,
    faults=None,
    tracing: bool = False,
    chip: bool = False,
    hierarchy: bool = False,
) -> FrozenSet[str]:
    """The capability set one run needs (see :data:`ENGINE_CAPABILITIES`)."""
    need = set()
    token = arrival_capability(arrival_process)
    if token is not None:
        need.add(token)
    if faults is not None and not getattr(faults, "is_trivial", False):
        need.add("faults")
    if tracing:
        need.add("tracing")
    if chip:
        need.add("chip")
    if hierarchy:
        need.add("hierarchy")
    return frozenset(need)


def engine_supports(engine: str, capabilities) -> bool:
    """True when concrete tier ``engine`` executes all ``capabilities``."""
    if engine not in ENGINE_CAPABILITIES:
        raise ValueError(
            f"engine must be one of {tuple(ENGINE_CAPABILITIES)}, got {engine!r}"
        )
    return frozenset(capabilities) <= ENGINE_CAPABILITIES[engine]


def resolve_engine(
    engine: str,
    num_nodes: int,
    *,
    arrival_process=None,
    faults=None,
    tracing: bool = False,
    chip: bool = False,
    hierarchy: bool = False,
) -> str:
    """Resolve the ``engine=`` knob to a concrete tier for one run.

    The ``REPRO_ENGINE`` environment variable, when set to a valid
    engine name, wins over the programmatic value (including "auto",
    which is then resolved by node count as usual).

    The keyword-only arguments describe the run's needs: ``auto``
    resolves by node count and then walks the fallback ladder
    (``fast``, then ``des`` — never ``fluid``) until every needed
    capability is supported, so a shaped or faulty sweep above the
    fluid threshold degrades to a slower tier instead of silently
    producing stationary fault-free results. An explicit engine that
    lacks a needed capability raises.
    """
    override = os.environ.get("REPRO_ENGINE", "").strip().lower()
    if override:
        if override not in ENGINES:
            raise ValueError(
                f"REPRO_ENGINE={override!r} is not one of {ENGINES}"
            )
        engine = override
    if engine not in ENGINES:
        raise ValueError(f"engine must be one of {ENGINES}, got {engine!r}")
    need = required_capabilities(
        arrival_process=arrival_process,
        faults=faults,
        tracing=tracing,
        chip=chip,
        hierarchy=hierarchy,
    )
    if engine == "auto":
        resolved = "fast" if num_nodes <= DEFAULT_FLUID_THRESHOLD else "fluid"
        if not engine_supports(resolved, need):
            for fallback in _AUTO_FALLBACK:
                if engine_supports(fallback, need):
                    resolved = fallback
                    break
        return resolved
    if not engine_supports(engine, need):
        missing = ", ".join(sorted(need - ENGINE_CAPABILITIES[engine]))
        supported = ", ".join(
            name
            for name in ("des", "fast", "fluid")
            if engine_supports(name, need)
        )
        raise ValueError(
            f"engine={engine!r} does not support: {missing} (see the "
            "engine-capability matrix in EXPERIMENTS.md 'Engine tiers'); "
            f"use one of: {supported or 'des'} — or engine='auto' to pick "
            "automatically (and unset REPRO_ENGINE if it forces a tier)"
        )
    return engine

