"""Empirical CDFs from CSV: measured size/service distributions.

Published workload studies usually give a distribution as a handful of
CDF points, not raw samples — the web-search and data-mining flow-size
curves being the canonical examples. :class:`CdfDistribution` samples
from such a curve by inverse transform over the piecewise-linear CDF;
:func:`dist_from_file` loads one from a small CSV so downstream users
can drop in their own measurements without writing code.

CSV format (``#`` comments and blank lines ignored)::

    # value, cumulative probability
    1000,   0.15
    5300,   0.60
    20000,  1.00

Values must be non-negative and non-decreasing, probabilities strictly
increasing with the last row at 1.0. A first row with probability
``p0 > 0`` is a point mass of ``p0`` at that value (the usual shape of
published flow-size CDFs, which start at a minimum size).

Two curves ship as packaged data (``repro/dists/data/*.csv``):
:func:`websearch` and :func:`datamining`, shaped after the widely used
web-search and data-mining DC workload CDFs, rescaled to nanoseconds
of service time at µs scale. No figure driver uses them; they stay as
workloads selectable by name (``make_system(..., "websearch")``) for
heavy-tailed service beyond the paper's four synthetic shapes.
"""

from __future__ import annotations

import pathlib
from typing import Sequence, Union

import numpy as np

from .base import Distribution

__all__ = ["CdfDistribution", "dist_from_file", "websearch", "datamining"]

#: Packaged CDF data directory.
DATA_DIR = pathlib.Path(__file__).parent / "data"

_PathLike = Union[str, pathlib.Path]


class CdfDistribution(Distribution):
    """Inverse-transform sampling from a piecewise-linear CDF.

    ``values``/``cum_probs`` are the published curve's points:
    ``P(X <= values[i]) = cum_probs[i]``. Between points the CDF is
    linear (uniform density); mass below the first point sits as a
    point mass at ``values[0]``.
    """

    name = "cdf"

    def __init__(
        self,
        values: Sequence[float],
        cum_probs: Sequence[float],
        name: str = "cdf",
    ) -> None:
        vals = np.asarray(list(values), dtype=float)
        probs = np.asarray(list(cum_probs), dtype=float)
        if vals.size == 0:
            raise ValueError(
                "CDF needs at least one (value, cum_prob) point"
            )
        if vals.size != probs.size:
            raise ValueError(
                f"{vals.size} values but {probs.size} probabilities"
            )
        if np.any(vals < 0):
            raise ValueError("CDF values must be non-negative times/sizes")
        if np.any(np.diff(vals) < 0):
            raise ValueError("CDF values must be non-decreasing")
        if np.any(probs <= 0) or np.any(np.diff(probs) <= 0):
            raise ValueError(
                "cumulative probabilities must be strictly increasing "
                "and positive"
            )
        if abs(probs[-1] - 1.0) > 1e-9:
            raise ValueError(
                f"last cumulative probability must be 1.0, got {probs[-1]!r} "
                "— is the curve truncated?"
            )
        probs[-1] = 1.0
        # Anchor the inverse CDF at (p=0, v=values[0]): any initial mass
        # p0 maps [0, p0] onto values[0] exactly (a point mass).
        self._xp = np.concatenate(([0.0], probs))
        self._fp = np.concatenate(([vals[0]], vals))
        self.name = name

    def sample(self, rng: np.random.Generator) -> float:
        return float(self.sample_array(rng, 1)[0])

    def sample_array(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return np.interp(rng.uniform(size=n), self._xp, self._fp)

    def percentile(self, q: float) -> float:
        """Value at cumulative probability ``q`` (in [0, 100])."""
        if not 0 <= q <= 100:
            raise ValueError(f"q must be in [0, 100], got {q!r}")
        return float(np.interp(q / 100.0, self._xp, self._fp))

    @property
    def mean(self) -> float:
        # Mixture of uniforms over the CDF segments (the first segment
        # is a point mass when it has zero width).
        dp = np.diff(self._xp)
        left = self._fp[:-1]
        right = self._fp[1:]
        return float(np.sum(dp * 0.5 * (left + right)))

    @property
    def variance(self) -> float:
        dp = np.diff(self._xp)
        left = self._fp[:-1]
        right = self._fp[1:]
        second = np.sum(dp * (left * left + left * right + right * right) / 3.0)
        return float(second - self.mean**2)


def dist_from_file(
    path: _PathLike, name: str = "", scale: float = 1.0
) -> CdfDistribution:
    """Load a :class:`CdfDistribution` from a ``value,cum_prob`` CSV.

    ``scale`` multiplies every value on load (unit conversion — e.g.
    bytes → ns at a modeled line rate). Empty or malformed files raise
    ``ValueError`` naming the offending line.
    """
    if scale <= 0:
        raise ValueError(f"scale must be positive, got {scale!r}")
    path = pathlib.Path(path)
    values = []
    probs = []
    for lineno, raw in enumerate(path.read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = [part.strip() for part in line.replace("\t", ",").split(",")]
        parts = [part for part in parts if part]
        if len(parts) != 2:
            raise ValueError(
                f"{path}:{lineno}: expected 'value,cum_prob', got {raw!r}"
            )
        try:
            value, prob = float(parts[0]), float(parts[1])
        except ValueError:
            raise ValueError(
                f"{path}:{lineno}: non-numeric CDF row {raw!r}"
            ) from None
        values.append(value * scale)
        probs.append(prob)
    if not values:
        raise ValueError(
            f"CDF file {path} is empty — expected 'value,cum_prob' rows "
            "(one per CDF point, '#' comments allowed)"
        )
    return CdfDistribution(values, probs, name=name or path.stem)


def websearch() -> CdfDistribution:
    """Web-search service-time CDF (packaged data, ns).

    Shaped after the widely published web-search flow-size curve:
    mostly short requests with a heavy tail of large responses,
    rescaled to µs-scale service times.
    """
    return dist_from_file(DATA_DIR / "websearch.csv", name="websearch")


def datamining() -> CdfDistribution:
    """Data-mining service-time CDF (packaged data, ns).

    Shaped after the data-mining (VL2-style) curve: the majority of
    requests are tiny, while a sliver of huge scans carries most of
    the total work — far heavier-tailed than :func:`websearch`.
    """
    return dist_from_file(DATA_DIR / "datamining.csv", name="datamining")
