"""The Gamma family.

Gamma models the *measured* processing-time histograms of HERD
(Fig. 6b) and Masstree gets (Fig. 6c), for which the paper replays
empirical data we do not have; see DESIGN.md §2 for the substitution
argument.
"""

from __future__ import annotations

import math

import numpy as np

from .base import Distribution

__all__ = ["Gamma"]


class Gamma(Distribution):
    """Gamma distribution with ``shape`` k and ``scale`` θ (mean kθ)."""

    name = "gamma"

    def __init__(self, shape: float, scale: float) -> None:
        if shape <= 0 or scale <= 0:
            raise ValueError(f"shape and scale must be positive, got {shape!r}, {scale!r}")
        self.shape = float(shape)
        self.scale = float(scale)

    @classmethod
    def from_mean_cv2(cls, mean: float, cv2: float) -> "Gamma":
        """Construct from a mean and squared coefficient of variation.

        ``cv2 = 1/shape`` for a Gamma, which makes this the natural way
        to dial variability while pinning the mean.
        """
        if mean <= 0 or cv2 <= 0:
            raise ValueError("mean and cv2 must be positive")
        shape = 1.0 / cv2
        return cls(shape=shape, scale=mean / shape)

    def sample(self, rng: np.random.Generator) -> float:
        return rng.gamma(self.shape, self.scale)

    def sample_array(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return rng.gamma(self.shape, self.scale, size=n)

    @property
    def mean(self) -> float:
        return self.shape * self.scale

    @property
    def variance(self) -> float:
        return self.shape * self.scale * self.scale

    def pdf(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        k, theta = self.shape, self.scale
        coef = 1.0 / (math.gamma(k) * theta**k)
        with np.errstate(invalid="ignore", divide="ignore"):
            density = np.where(
                x > 0, coef * x ** (k - 1.0) * np.exp(-x / theta), 0.0
            )
        return np.nan_to_num(density, nan=0.0)
