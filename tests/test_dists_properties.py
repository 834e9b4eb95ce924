"""Property-based tests (hypothesis) on the distribution layer."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dists import (
    Exponential,
    Fixed,
    GEV,
    Gamma,
    Scaled,
    Shifted,
    Uniform,
)

positive = st.floats(min_value=0.01, max_value=1e6, allow_nan=False)
small_positive = st.floats(min_value=0.01, max_value=1e3, allow_nan=False)


@st.composite
def distributions(draw):
    """A random distribution from the families used by the paper."""
    kind = draw(st.sampled_from(["fixed", "uniform", "exponential", "gamma", "gev"]))
    if kind == "fixed":
        return Fixed(draw(positive))
    if kind == "uniform":
        low = draw(st.floats(min_value=0.0, max_value=1e3))
        width = draw(positive)
        return Uniform(low, low + width)
    if kind == "exponential":
        return Exponential(draw(positive))
    if kind == "gamma":
        return Gamma(draw(small_positive), draw(small_positive))
    return GEV(
        location=draw(st.floats(min_value=10.0, max_value=1e3)),
        scale=draw(small_positive),
        shape=draw(st.floats(min_value=0.05, max_value=0.45)),
    )


@given(distributions(), st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=150, deadline=None)
def test_samples_finite_and_match_scalar_path(dist, seed):
    """sample() and sample_array() draw from the same distribution."""
    array = dist.sample_array(np.random.default_rng(seed), 64)
    assert array.shape == (64,)
    assert np.all(np.isfinite(array))
    scalar = dist.sample(np.random.default_rng(seed))
    assert np.isfinite(scalar)


@given(distributions())
@settings(max_examples=150, deadline=None)
def test_variance_nonnegative_and_std_consistent(dist):
    variance = dist.variance
    assert variance >= 0  # may be inf, never negative or NaN
    if np.isfinite(variance):
        np.testing.assert_allclose(dist.std**2, variance, rtol=1e-9)


@given(distributions(), positive)
@settings(max_examples=100, deadline=None)
def test_shift_adds_to_mean_preserves_variance(dist, offset):
    shifted = Shifted(dist, offset)
    np.testing.assert_allclose(shifted.mean, dist.mean + offset, rtol=1e-9)
    np.testing.assert_allclose(shifted.variance, dist.variance, rtol=1e-9)


@given(distributions(), st.floats(min_value=0.01, max_value=100.0))
@settings(max_examples=100, deadline=None)
def test_scale_multiplies_moments(dist, factor):
    scaled = Scaled(dist, factor)
    np.testing.assert_allclose(scaled.mean, dist.mean * factor, rtol=1e-9)
    if np.isfinite(dist.variance):
        np.testing.assert_allclose(
            scaled.variance, dist.variance * factor**2, rtol=1e-9
        )


@given(
    st.floats(min_value=10.0, max_value=1e3),
    st.floats(min_value=1.0, max_value=100.0),
    st.floats(min_value=0.05, max_value=0.9),
    st.floats(min_value=1e-4, max_value=1 - 1e-4),
)
@settings(max_examples=200, deadline=None)
def test_gev_quantile_cdf_inverse(location, scale, shape, u):
    dist = GEV(location, scale, shape)
    x = dist._quantile(np.array([u]))
    np.testing.assert_allclose(dist.cdf(x)[0], u, rtol=1e-7, atol=1e-9)


@given(
    st.floats(min_value=0.0, max_value=1e3),
    st.floats(min_value=0.1, max_value=1e3),
    st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=100, deadline=None)
def test_uniform_samples_stay_in_support(low, width, seed):
    dist = Uniform(low, low + width)
    samples = dist.sample_array(np.random.default_rng(seed), 32)
    assert np.all(samples >= low)
    assert np.all(samples <= low + width)
