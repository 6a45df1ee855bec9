"""Unit tests for synthetic signal sources.

Tier-1 runs the default example count; ``--hypothesis-profile=nightly``
(registered in ``tests/conftest.py``) raises it.
"""

import itertools
import math
import random
import types
from unittest import mock

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.modules import sources
from repro.modules.sources import (
    bursty,
    from_samples,
    noise,
    noisy_sine,
    ramp,
    sine_wave,
    step_change,
)


def take(iterator, n):
    return list(itertools.islice(iterator, n))


def test_ramp_finite():
    assert list(ramp(count=4)) == [0, 1, 2, 3]
    assert list(ramp(count=3, start=10, step=-2)) == [10, 8, 6]


def test_ramp_infinite():
    assert take(ramp(), 5) == [0, 1, 2, 3, 4]


def test_sine_wave_shape():
    samples = list(sine_wave(amplitude=1000, period=4, count=4))
    assert samples == [0, 1000, 0, -1000]


def test_sine_wave_amplitude_bound():
    samples = list(sine_wave(amplitude=500, period=7, count=100))
    assert all(abs(s) <= 500 for s in samples)


def test_noise_is_deterministic_per_seed():
    a = list(noise(count=20, seed=1))
    b = list(noise(count=20, seed=1))
    c = list(noise(count=20, seed=2))
    assert a == b
    assert a != c
    assert all(abs(s) <= 1000 for s in a)


def test_noisy_sine_stays_near_envelope():
    samples = list(noisy_sine(amplitude=1000, noise_amplitude=10, count=50))
    assert all(abs(s) <= 1010 for s in samples)


def test_bursty_levels():
    samples = list(bursty(quiet_level=1, burst_level=100, quiet_len=4,
                          burst_len=2, count=6))
    assert [abs(s) for s in samples] == [1, 1, 1, 1, 100, 100]
    # alternating sign
    assert samples[0] > 0 > samples[1]


def test_step_change():
    samples = list(step_change(5, 50, change_at=3, count=5))
    assert samples == [5, 5, 5, 50, 50]


def test_from_samples_replays():
    assert list(from_samples([9, 8, 7])) == [9, 8, 7]


# ----------------------------------------------------------------------
# equivalence with the defining per-sample generators
# ----------------------------------------------------------------------
# The sources are compositions of C iterators; these are the per-sample
# definitions they must reproduce bit for bit.


def ref_ramp(count=None, start=0, step=1):
    value = start
    produced = 0
    while count is None or produced < count:
        yield value
        value += step
        produced += 1


def ref_sine_wave(amplitude=10_000, period=64, count=None, phase=0.0):
    n = 0
    while count is None or n < count:
        yield int(round(amplitude * math.sin(2 * math.pi * n / period + phase)))
        n += 1


def ref_noise(amplitude=1_000, count=None, seed=0xC0FFEE):
    rng = random.Random(seed)
    n = 0
    while count is None or n < count:
        yield rng.randint(-amplitude, amplitude)
        n += 1


def ref_noisy_sine(
    amplitude=10_000, period=64, noise_amplitude=500, count=None, seed=0xC0FFEE
):
    rng = random.Random(seed)
    n = 0
    while count is None or n < count:
        clean = amplitude * math.sin(2 * math.pi * n / period)
        yield int(round(clean)) + rng.randint(-noise_amplitude, noise_amplitude)
        n += 1


def ref_bursty(
    quiet_level=10, burst_level=20_000, quiet_len=200, burst_len=50, count=None
):
    n = 0
    cycle = quiet_len + burst_len
    while count is None or n < count:
        position = n % cycle
        level = quiet_level if position < quiet_len else burst_level
        yield level if n % 2 == 0 else -level
        n += 1


def ref_step_change(first_level, second_level, change_at, count=None):
    n = 0
    while count is None or n < count:
        yield first_level if n < change_at else second_level
        n += 1


#: words compared per example; a finite source is also checked to end
HORIZON = 1_500

amplitudes = st.one_of(st.integers(-30_000, 30_000), st.sampled_from([0, 1, -1]))
periods = st.integers(1, 200)
phases = st.floats(-10.0, 10.0, allow_nan=False)
counts = st.one_of(st.none(), st.integers(-2, HORIZON))
levels = st.integers(-(2**31), 2**31 - 1)


def assert_same(source, reference):
    assert take(source, HORIZON + 1) == take(reference, HORIZON + 1)


@given(amplitudes, periods, counts, phases)
def test_sine_wave_equals_formula(amplitude, period, count, phase):
    assert_same(
        sine_wave(amplitude, period, count, phase),
        ref_sine_wave(amplitude, period, count, phase),
    )


@given(amplitudes, periods, st.integers(0, 2_000), counts, st.integers(0, 2**32))
def test_noisy_sine_equals_formula(amplitude, period, noise_amp, count, seed):
    assert_same(
        noisy_sine(amplitude, period, noise_amp, count, seed),
        ref_noisy_sine(amplitude, period, noise_amp, count, seed),
    )


@given(counts, levels, st.integers(-1_000, 1_000))
def test_ramp_equals_reference(count, start, step):
    assert_same(ramp(count, start, step), ref_ramp(count, start, step))


@given(st.integers(0, 2**31), counts, st.integers(0, 2**32))
def test_noise_equals_reference(amplitude, count, seed):
    assert_same(noise(amplitude, count, seed), ref_noise(amplitude, count, seed))


@given(levels, levels, st.integers(0, 300), st.integers(1, 300), counts)
def test_bursty_equals_reference(quiet, burst, quiet_len, burst_len, count):
    assert_same(
        bursty(quiet, burst, quiet_len, burst_len, count),
        ref_bursty(quiet, burst, quiet_len, burst_len, count),
    )


@given(levels, levels, st.integers(-5, HORIZON + 5), counts)
def test_step_change_equals_reference(first, second, change_at, count):
    assert_same(
        step_change(first, second, change_at, count),
        ref_step_change(first, second, change_at, count),
    )


def test_sources_are_c_iterators():
    """No Python frame per word: ``Iom._pull``'s ``islice`` is a block
    pull."""
    for source in (
        ramp(),
        ramp(count=5),
        sine_wave(),
        sine_wave(count=5),
        noise(),
        noisy_sine(count=100),
        bursty(),
        step_change(1, 2, 3),
    ):
        assert not isinstance(source, types.GeneratorType), source


# -- the sine table's guard ---------------------------------------------


def test_half_integer_entry_runs_the_formula_from_the_start():
    # sin(pi/6) is 0.49999999999999994: rounding sits on a knife edge
    assert sources._sine_table(1, 12, None, 0.0)[1] == 0
    assert take(sine_wave(amplitude=1, period=12), 5_000) == take(
        ref_sine_wave(amplitude=1, period=12), 5_000
    )
    assert take(noisy_sine(amplitude=1, period=12, seed=3), 5_000) == take(
        ref_noisy_sine(amplitude=1, period=12, seed=3), 5_000
    )


def near_half(offset):
    """A phase putting ``sine_wave(1000, 10)``'s first entry ``offset``
    above the half-integer 500.5."""
    return math.asin((500.5 + offset) / 1000)


def test_near_half_integer_entry_hands_over_part_way():
    phase = near_half(5e-10)
    limit = sources._sine_table(1000, 10, None, phase)[1]
    assert 10 < limit < 100  # the table's head and the formula's tail
    assert take(sine_wave(1000, 10, phase=phase), 500) == take(
        ref_sine_wave(1000, 10, phase=phase), 500
    )


@given(st.floats(1e-12, 1e-8), counts)
def test_guarded_shapes_equal_formula(offset, count):
    """The hand-off falls anywhere from sample 0 to about 1,000."""
    phase = near_half(offset)
    assert_same(
        sine_wave(1000, 10, count, phase), ref_sine_wave(1000, 10, count, phase)
    )


@given(amplitudes, periods, st.integers(0, 2**32), st.integers(0, HORIZON))
def test_noisy_sine_hands_over_to_the_formula(amplitude, period, seed, handoff):
    """A stricter bound only moves the hand-off earlier: scale it so the
    hand-off falls at about sample ``handoff``, for any shape."""
    limit = sources._sine_table(amplitude, period, None, 0.0)[1]
    scale = max(1.0, (limit + period) / (handoff + period))
    with mock.patch.object(sources, "_SINE_ERROR", sources._SINE_ERROR * scale):
        moved = sources._sine_table(amplitude, period, None, 0.0)[1]
        assert moved <= max(limit, handoff + 1)
        assert_same(
            noisy_sine(amplitude, period, 100, None, seed),
            ref_noisy_sine(amplitude, period, 100, None, seed),
        )


def test_untabled_shapes_run_the_formula():
    for period in (2.5, 0.5, -3, 1 << 17):
        assert take(sine_wave(100, period), 50) == take(ref_sine_wave(100, period), 50)
    source = sine_wave(100, 0)
    with pytest.raises(ZeroDivisionError):
        next(source)


# -- block pulls --------------------------------------------------------


SOURCES = {
    "ramp": lambda seed: ramp(start=seed, step=-3),
    "sine": lambda seed: sine_wave(7_000, 1 + seed % 150, phase=seed / 7),
    "noise": lambda seed: noise(500, seed=seed),
    "noisy_sine": lambda seed: noisy_sine(3_000, 1 + seed % 90, seed=seed),
    "bursty": lambda seed: bursty(3, 900, seed % 40, 1 + seed % 17),
    "step_change": lambda seed: step_change(4, -4, seed % 500),
}


@pytest.mark.parametrize("kind", sorted(SOURCES))
@given(
    seed=st.integers(0, 10_000),
    cuts=st.lists(st.integers(0, HORIZON), max_size=8),
)
def test_islice_splits_concatenate_to_the_stream(kind, seed, cuts):
    source = SOURCES[kind](seed)
    pulled = []
    for start, end in zip([0, *sorted(cuts)], [*sorted(cuts), HORIZON]):
        pulled += list(itertools.islice(source, end - start))
    assert pulled == take(SOURCES[kind](seed), HORIZON)
