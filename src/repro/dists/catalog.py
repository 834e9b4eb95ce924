"""Paper-preset distribution constructors (§5, Fig. 6).

Each function returns the processing-time distribution ``D`` used in one
of the paper's experiments, in nanoseconds:

* :func:`synthetic` — 300ns base + 300ns-mean extra (Fig. 6a)
* :func:`herd` — HERD KV-store processing, mean 330ns (Fig. 6b)
* :func:`masstree_get` — Masstree get, mean 1.25µs (Fig. 6c)
* :func:`masstree_scan` — Masstree scan, 60–120µs; ``MasstreeWorkload``
  mixes the two at ``MASSTREE_SCAN_FRACTION``
"""

from __future__ import annotations

from .base import Distribution, Shifted
from .parametric import Gamma
from .synthetic import GEV, Exponential, Fixed, Uniform

__all__ = [
    "SYNTHETIC_KINDS",
    "SYNTHETIC_BASE_NS",
    "SYNTHETIC_EXTRA_MEAN_NS",
    "GEV_PARAMS_NS",
    "HERD_MEAN_NS",
    "MASSTREE_GET_MEAN_NS",
    "MASSTREE_SCAN_RANGE_NS",
    "MASSTREE_SCAN_FRACTION",
    "synthetic",
    "herd",
    "masstree_get",
    "masstree_scan",
]

#: The four synthetic service-time shapes evaluated throughout the paper.
SYNTHETIC_KINDS = ("fixed", "uniform", "exponential", "gev")

#: §5: "we use 300ns as a base latency".
SYNTHETIC_BASE_NS = 300.0

#: §5: "... and add an extra 300ns on average".
SYNTHETIC_EXTRA_MEAN_NS = 300.0

#: §5's GEV parameters (363, 100, 0.65) are in 2GHz cycles; here in ns.
GEV_PARAMS_NS = (181.5, 50.0, 0.65)

#: Fig. 6b: measured HERD processing times "have a mean of 330ns".
HERD_MEAN_NS = 330.0

#: Fig. 6c: Masstree gets have "an average of 1.25µs".
MASSTREE_GET_MEAN_NS = 1250.0

#: §5: "long-running scans ... runtime of scans is 60–120µs".
MASSTREE_SCAN_RANGE_NS = (60_000.0, 120_000.0)

#: §5: "99% single-key gets, interleaved with 1% long-running scans".
MASSTREE_SCAN_FRACTION = 0.01


def synthetic(kind: str) -> Distribution:
    """One of the paper's four synthetic processing-time distributions.

    All four have mean 600ns = 300ns fixed base + 300ns-mean extra:

    * ``fixed`` — exactly 600ns;
    * ``uniform`` — base + Uniform(0, 600ns);
    * ``exponential`` — base + Exp(mean 300ns);
    * ``gev`` — base + GEV(181.5ns, 50ns, 0.65).
    """
    if kind == "fixed":
        return Fixed(SYNTHETIC_BASE_NS + SYNTHETIC_EXTRA_MEAN_NS)
    if kind == "uniform":
        extra = Uniform(0.0, 2.0 * SYNTHETIC_EXTRA_MEAN_NS)
        return Shifted(extra, SYNTHETIC_BASE_NS, name="uniform")
    if kind == "exponential":
        extra = Exponential(SYNTHETIC_EXTRA_MEAN_NS)
        return Shifted(extra, SYNTHETIC_BASE_NS, name="exponential")
    if kind == "gev":
        location, scale, shape = GEV_PARAMS_NS
        extra = GEV(location, scale, shape)
        return Shifted(extra, SYNTHETIC_BASE_NS, name="gev")
    raise ValueError(f"unknown synthetic kind {kind!r}; expected one of {SYNTHETIC_KINDS}")


def herd(mean_ns: float = HERD_MEAN_NS) -> Distribution:
    """HERD-like processing times (substitute for Fig. 6b's histogram).

    A Gamma with cv² = 0.25 (shape 4): unimodal with the mode below the
    mean and a mild right tail, matching the shape of the published
    histogram. See DESIGN.md §2 for the substitution rationale.
    """
    dist = Gamma.from_mean_cv2(mean_ns, cv2=0.25)
    dist.name = "herd"
    return dist


def masstree_get(mean_ns: float = MASSTREE_GET_MEAN_NS) -> Distribution:
    """Masstree-like ``get`` processing times (Fig. 6c substitute).

    A Gamma with cv² = 1/3 (shape 3): the published histogram spreads
    from a few hundred ns to ~4µs around a 1.25µs mean.
    """
    dist = Gamma.from_mean_cv2(mean_ns, cv2=1.0 / 3.0)
    dist.name = "masstree_get"
    return dist


def masstree_scan() -> Distribution:
    """Masstree scan runtimes: Uniform(60µs, 120µs) per §5."""
    low, high = MASSTREE_SCAN_RANGE_NS
    dist = Uniform(low, high)
    dist.name = "masstree_scan"
    return dist
