"""Tests for the seeded random-stream helpers."""

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.randomness import RandomStreams, StreamRandom, clamp

seeds = st.integers(min_value=0, max_value=2**64 - 1)
finite = st.floats(allow_nan=False, allow_infinity=False)
bounds = st.floats(allow_nan=False)
scalars = st.one_of(st.floats(), st.sampled_from([0.0, -0.0, 1.0, -1.0]),
                    st.floats().map(np.float64))


def same_float(ours, reference: float) -> bool:
    """``ours`` is a Python float with exactly ``reference``'s bits."""
    return (type(ours) is float
            and struct.pack("<d", ours) == struct.pack("<d", reference))


# -- bit-equality with numpy ----------------------------------------------------------

@settings(max_examples=500)
@given(scalars, st.one_of(bounds, st.sampled_from([0.0, -0.0])),
       st.one_of(bounds, st.sampled_from([0.0, -0.0])))
def test_clamp_is_numpy_clip_bit_for_bit(x, low, high):
    assert same_float(clamp(x, low, high), float(np.clip(x, low, high)))


@given(scalars, bounds)
def test_clamp_with_equal_bounds_is_numpy_clip(x, bound):
    assert same_float(clamp(x, bound, bound), float(np.clip(x, bound, bound)))


def test_clamp_edge_cases():
    assert same_float(clamp(-0.0, 0.0, 1.0), -0.0)
    assert same_float(clamp(0.0, -0.0, 1.0), 0.0)
    assert np.isnan(clamp(float("nan"), 0.0, 1.0))
    assert same_float(clamp(np.float64(2.5), 0.0, 1.0), 1.0)
    assert same_float(clamp(5, 1.0, 0.0), 0.0)


@given(seeds, finite, finite)
def test_uniform_matches_numpy_draw_for_draw(seed, low, high):
    ours, reference = StreamRandom(seed), np.random.default_rng(seed)
    for _ in range(3):
        try:
            expected = float(reference.uniform(low, high))
        except (ValueError, OverflowError):
            with pytest.raises(ValueError):
                ours.uniform(low, high)
        else:
            assert same_float(ours.uniform(low, high), expected)
        assert ours._rng.bit_generator.state == reference.bit_generator.state


@given(seeds, st.floats(min_value=1e-9, max_value=1e9),
       st.floats(min_value=1e-6, max_value=10.0))
def test_lognormal_mean_cv_matches_numpy_draw_for_draw(seed, mean, cv):
    ours, reference = StreamRandom(seed), np.random.default_rng(seed)
    for _ in range(3):
        sigma2 = np.log(1.0 + cv * cv)
        mu = np.log(mean) - sigma2 / 2.0
        expected = float(reference.lognormal(mu, np.sqrt(sigma2)))
        assert same_float(ours.lognormal_mean_cv(mean, cv), expected)
        assert ours._rng.bit_generator.state == reference.bit_generator.state


@given(seeds, st.floats(min_value=-1e6, max_value=1e6),
       st.floats(min_value=0.0, max_value=1e6), bounds, bounds)
def test_truncated_normal_matches_numpy_draw_for_draw(seed, mean, std, low, high):
    ours, reference = StreamRandom(seed), np.random.default_rng(seed)
    for _ in range(3):
        expected = float(np.clip(reference.normal(mean, std), low, high))
        assert same_float(ours.truncated_normal(mean, std, low, high), expected)
        assert ours._rng.bit_generator.state == reference.bit_generator.state


# -- behaviour ------------------------------------------------------------------------


def test_same_seed_reproduces_sequence():
    a = StreamRandom(42)
    b = StreamRandom(42)
    assert [a.random() for _ in range(10)] == [b.random() for _ in range(10)]


def test_different_seeds_differ():
    a = StreamRandom(1)
    b = StreamRandom(2)
    assert [a.random() for _ in range(5)] != [b.random() for _ in range(5)]


def test_uniform_respects_bounds(rng):
    for _ in range(200):
        value = rng.uniform(2.0, 3.0)
        assert 2.0 <= value <= 3.0


def test_truncated_normal_respects_bounds(rng):
    values = [rng.truncated_normal(0.0, 10.0, low=-1.0, high=1.0) for _ in range(200)]
    assert all(-1.0 <= v <= 1.0 for v in values)


def test_lognormal_mean_cv_matches_target_mean(rng):
    samples = [rng.lognormal_mean_cv(5.0, 0.3) for _ in range(5000)]
    assert np.mean(samples) == pytest.approx(5.0, rel=0.05)


def test_lognormal_zero_cv_is_deterministic(rng):
    assert rng.lognormal_mean_cv(3.0, 0.0) == 3.0


def test_lognormal_requires_positive_mean(rng):
    with pytest.raises(ValueError):
        rng.lognormal_mean_cv(0.0, 0.5)


def test_jitter_stays_within_fraction(rng):
    for _ in range(200):
        value = rng.jitter(10.0, 0.2)
        assert 8.0 <= value <= 12.0


def test_jitter_zero_fraction_is_identity(rng):
    assert rng.jitter(7.0, 0.0) == 7.0


def test_bernoulli_probability_roughly_respected(rng):
    hits = sum(rng.bernoulli(0.3) for _ in range(5000))
    assert 0.25 < hits / 5000 < 0.35


def test_choice_returns_an_option(rng):
    options = ["a", "b", "c"]
    for _ in range(20):
        assert rng.choice(options) in options


def test_named_streams_are_independent_of_creation_order():
    streams_a = RandomStreams(99)
    streams_b = RandomStreams(99)
    # Create in different orders; the same-named stream must agree.
    first_a = streams_a.stream("alpha").random()
    streams_b.stream("beta")
    first_b = streams_b.stream("alpha").random()
    assert first_a == first_b


def test_stream_is_cached():
    streams = RandomStreams(5)
    assert streams.stream("x") is streams.stream("x")


def test_names_lists_created_streams():
    streams = RandomStreams(5)
    streams.stream("b")
    streams.stream("a")
    assert streams.names() == ["a", "b"]
    assert "a" in streams and "c" not in streams
