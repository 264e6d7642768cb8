"""Unit tests for named random streams."""

import numpy as np
import pytest

from repro.sim import RandomStreams


def test_same_seed_same_name_reproduces():
    a = RandomStreams(seed=42).stream("arrivals")
    b = RandomStreams(seed=42).stream("arrivals")
    assert np.array_equal(a.random(100), b.random(100))


def test_different_names_are_independent():
    streams = RandomStreams(seed=42)
    a = streams.stream("arrivals").random(1000)
    b = streams.stream("sizes").random(1000)
    assert not np.array_equal(a, b)
    # Crude independence check: correlation near zero.
    assert abs(np.corrcoef(a, b)[0, 1]) < 0.1


def test_different_seeds_differ():
    a = RandomStreams(seed=1).stream("x").random(100)
    b = RandomStreams(seed=2).stream("x").random(100)
    assert not np.array_equal(a, b)


def test_seeds_that_share_their_low_32_bits_differ():
    a = RandomStreams(seed=0).stream("client:retry").random(100)
    b = RandomStreams(seed=2**32).stream("client:retry").random(100)
    assert not np.array_equal(a, b)


def test_negative_seed_rejected():
    with pytest.raises(ValueError, match="seed must be >= 0"):
        RandomStreams(seed=-1)


def test_stream_is_cached():
    streams = RandomStreams(seed=0)
    assert streams.stream("s") is streams.stream("s")


def test_adding_streams_does_not_perturb_existing():
    """The core guarantee: a new consumer must not change old draws."""
    s1 = RandomStreams(seed=7)
    first = s1.stream("arrivals").random(50)

    s2 = RandomStreams(seed=7)
    s2.stream("a-new-consumer").random(10)  # interleaved new stream
    second = s2.stream("arrivals").random(50)
    assert np.array_equal(first, second)


def test_empty_name_rejected():
    with pytest.raises(ValueError):
        RandomStreams(seed=0).stream("")


def test_non_int_seed_rejected():
    with pytest.raises(TypeError):
        RandomStreams(seed="abc")
