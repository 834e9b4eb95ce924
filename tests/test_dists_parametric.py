"""The Gamma family."""

import numpy as np
import pytest

from .conftest import integrate
from repro.dists import Gamma

RNG = lambda: np.random.default_rng(77)  # noqa: E731
N = 200_000


class TestGamma:
    def test_moments(self):
        dist = Gamma(shape=4.0, scale=82.5)
        assert dist.mean == pytest.approx(330.0)
        assert dist.variance == pytest.approx(4.0 * 82.5**2)
        assert dist.cv2 == pytest.approx(0.25)

    def test_from_mean_cv2(self):
        dist = Gamma.from_mean_cv2(mean=1250.0, cv2=1.0 / 3.0)
        assert dist.mean == pytest.approx(1250.0)
        assert dist.cv2 == pytest.approx(1.0 / 3.0)

    def test_sample_stats(self):
        dist = Gamma(shape=3.0, scale=100.0)
        samples = dist.sample_array(RNG(), N)
        assert samples.mean() == pytest.approx(dist.mean, rel=0.02)
        assert samples.var() == pytest.approx(dist.variance, rel=0.05)

    def test_pdf_integrates_to_one(self):
        dist = Gamma(shape=4.0, scale=82.5)
        xs = np.linspace(0, 5000, 100_001)
        assert integrate(dist.pdf(xs), xs) == pytest.approx(1.0, rel=1e-3)

    def test_invalid(self):
        with pytest.raises(ValueError):
            Gamma(0.0, 1.0)
        with pytest.raises(ValueError):
            Gamma.from_mean_cv2(-1.0, 0.5)
