"""The fast tier's routing stream against numpy, draw for draw.

:class:`~repro.fastpath.loop.RoutingStream` must return exactly what a
twin ``np.random.default_rng(seed)`` returns for any interleaving of
``random()`` and ``integers(low, high)``: across chunk refills (the
chunk size is patched down so short sequences cross many), through
numpy's 32-bit Lemire rejection loop, and when the wrapped generator
already holds a pending half-word.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fastpath import loop
from repro.fastpath.loop import RoutingStream

#: Range sizes: the no-draw case, small fan-outs and lane counts, one
#: that rejects ~30% of draws (3e9), and the 32-bit path's two limits.
SIZES = (1, 2, 15, 16, 255, 3 * 10**9, 2**32 - 1, 2**32)

#: ``None`` is a ``random()`` call, ``(low, n)`` an ``integers(low, low + n)``.
_OPS = st.lists(
    st.one_of(st.none(), st.tuples(st.integers(-3, 3), st.sampled_from(SIZES))),
    min_size=1,
    max_size=200,
)


def _replay(stream, twin, ops):
    for op in ops:
        if op is None:
            assert stream.random() == twin.random()
        else:
            low, n = op
            assert stream.integers(low, low + n) == twin.integers(low, low + n)


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**64 - 1),
    chunk=st.sampled_from((1, 2, 3, 7, loop._CHUNK)),
    pending=st.booleans(),
    ops=_OPS,
)
def test_matches_numpy_for_any_interleaving(seed, chunk, pending, ops):
    twin = np.random.default_rng(seed)
    rng = np.random.default_rng(seed)
    if pending:
        # An odd number of 32-bit draws parks a half-word in PCG64.
        assert twin.integers(0, 16) == rng.integers(0, 16)
        assert rng.bit_generator.state["has_uint32"]
    with mock.patch.object(loop, "_CHUNK", chunk):
        _replay(RoutingStream(rng), twin, ops)


def test_crosses_default_chunk_boundaries():
    """Several full refills at the real chunk size, mixed draws."""
    choices = np.random.default_rng(99)
    ops = [
        None if choices.random() < 0.5 else (0, SIZES[int(choices.integers(0, len(SIZES)))])
        for _ in range(3 * loop._CHUNK + 11)
    ]
    _replay(RoutingStream(np.random.default_rng(7)), np.random.default_rng(7), ops)


def test_range_of_one_draws_nothing():
    twin = np.random.default_rng(3)
    stream = RoutingStream(np.random.default_rng(3))
    assert stream.integers(4, 5) == 4 == twin.integers(4, 5)
    assert stream.random() == twin.random()


@pytest.mark.parametrize("bit_generator", [np.random.MT19937, np.random.Philox])
def test_other_bit_generators_rejected(bit_generator):
    with pytest.raises(TypeError, match="PCG64"):
        RoutingStream(np.random.Generator(bit_generator(0)))


@pytest.mark.parametrize("low, high", [(0, 2**32 + 1), (0, 2**40), (0, 0), (5, 3)])
def test_ranges_off_the_32_bit_path_rejected(low, high):
    with pytest.raises(ValueError, match="2\\*\\*32"):
        RoutingStream(np.random.default_rng(0)).integers(low, high)
