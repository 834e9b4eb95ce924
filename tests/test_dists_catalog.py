"""Paper-preset distributions: the §5 constants must hold exactly."""

import numpy as np
import pytest

from repro.dists import (
    GEV_PARAMS_NS,
    HERD_MEAN_NS,
    MASSTREE_GET_MEAN_NS,
    MASSTREE_SCAN_RANGE_NS,
    SYNTHETIC_KINDS,
    herd,
    masstree_get,
    masstree_scan,
    synthetic,
)

RNG = lambda: np.random.default_rng(11)  # noqa: E731


class TestSyntheticCatalog:
    def test_all_kinds_have_600ns_mean(self):
        # §5: 300ns base + extra 300ns on average.
        for kind in SYNTHETIC_KINDS:
            assert synthetic(kind).mean == pytest.approx(600.0, rel=0.01), kind

    def test_samples_respect_base_floor(self):
        for kind in ("uniform", "exponential"):
            samples = synthetic(kind).sample_array(RNG(), 50_000)
            assert samples.min() >= 300.0, kind

    def test_gev_params_match_paper(self):
        # (363, 100, 0.65) cycles at 2GHz = (181.5, 50, 0.65) ns.
        assert GEV_PARAMS_NS == (181.5, 50.0, 0.65)
        dist = synthetic("gev")
        assert dist.inner.location == 181.5
        assert dist.inner.scale == 50.0
        assert dist.inner.shape == 0.65

    def test_variability_ordering(self):
        # Fig. 2's premise: Var(fixed) < Var(uniform) < Var(exp) < Var(gev).
        variances = [synthetic(kind).variance for kind in SYNTHETIC_KINDS]
        assert variances[0] < variances[1] < variances[2] < variances[3]

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown synthetic kind"):
            synthetic("zipf")


class TestHerdCatalog:
    def test_mean_330ns(self):
        assert herd().mean == pytest.approx(HERD_MEAN_NS)

    def test_right_tail_shape(self):
        # Unimodal with mode below mean (Fig. 6b's histogram shape).
        samples = herd().sample_array(RNG(), 100_000)
        assert np.median(samples) < samples.mean()
        assert np.percentile(samples, 99) > 2 * samples.mean()


class TestMasstreeCatalog:
    def test_get_mean(self):
        assert masstree_get().mean == pytest.approx(MASSTREE_GET_MEAN_NS)

    def test_scan_range(self):
        dist = masstree_scan()
        low, high = MASSTREE_SCAN_RANGE_NS
        samples = dist.sample_array(RNG(), 10_000)
        assert samples.min() >= low
        assert samples.max() <= high
        assert dist.mean == pytest.approx((low + high) / 2)
