"""Synthetic signal sources feeding IOMs.

The paper's prototype streams sensor-style data through its IOMs; these
generators provide deterministic integer sample streams (the substitution
for external ADC traffic).  All are plain iterators of signed ints.

Each source is a composition of C iterators (``itertools.count``,
``repeat``, ``cycle``, ``islice``, ``chain`` and ``map``), so the
``list(islice(source, n))`` with which :class:`~repro.modules.iom.Iom`
pulls a steady-state replay's words is a block pull with no Python frame
per word.

A sine is periodic, so :func:`sine_wave` computes one period of the
formula and cycles it.  In floating point the formula at ``n + period``
is not exactly the formula at ``n``: the error of ``2*pi*n/period +
phase`` and of ``sin`` grows about linearly in ``n``.  The table is used
only while a generous bound on that error stays under every entry's
distance to the nearest half-integer, so rounding cannot tell the two
apart; from the first sample where it might, the stream continues on the
formula itself.  Typical shapes (amplitude up to 20,000, period 16 to
128) stay on the table for 10**8 samples or more; a shape with an entry
on a half-integer runs the formula from the start.
"""

from __future__ import annotations

import itertools
import math
import random
from itertools import chain, cycle, islice, repeat
from operator import add
from typing import Iterator, List, Optional, Sequence, Tuple

#: generous per-unit bound on the float error of ``amplitude * sin(2*pi*n
#: / period + phase)`` against the same formula one period earlier, in
#: units of ``(|amplitude| + 1) * (n / period + |phase| + 1)``; the
#: analysed error is under 5e-15 per unit
_SINE_ERROR = 1e-13
#: periods longer than this are not tabled: the formula runs throughout
_MAX_TABLE = 1 << 16


def _limited(source: Iterator[int], count: Optional[int]) -> Iterator[int]:
    """``source`` cut to ``count`` words (all of it when None)."""
    return source if count is None else islice(source, max(count, 0))


def _sine_formula(
    amplitude: int, period, phase: float, start: int, count: Optional[int]
) -> Iterator[int]:
    """The defining per-sample formula, from sample ``start``."""
    n = start
    while count is None or n < count:
        yield int(round(amplitude * math.sin(2 * math.pi * n / period + phase)))
        n += 1


def _sine_table(
    amplitude: int, period: int, count: Optional[int], phase: float
) -> Tuple[List[int], int]:
    """The formula's first ``min(period, count)`` samples, and the sample
    from which cycling them is no longer provably the formula."""
    size = period if count is None else max(0, min(period, count))
    values = [
        amplitude * math.sin(2 * math.pi * n / period + phase) for n in range(size)
    ]
    table = [int(round(value)) for value in values]
    if size < period:
        return table, size  # the whole stream: every entry is exact
    # distance of each unrounded entry to the nearest half-integer
    gap = min(abs(value - math.floor(value) - 0.5) for value in values)
    # first n where the error bound reaches the gap
    limit = period * (
        gap / ((abs(amplitude) + 1) * _SINE_ERROR) - abs(phase) - 1
    )
    return table, int(max(limit, 0.0))


def _sine(
    amplitude: int, period, count: Optional[int], phase: float
) -> Iterator[int]:
    """Sine samples: the cycled table while it is provably the formula,
    then the formula."""
    if not (isinstance(period, int) and 1 <= period <= _MAX_TABLE):
        return _sine_formula(amplitude, period, phase, 0, count)
    table, limit = _sine_table(amplitude, period, count, phase)
    if count is not None and limit >= count:
        return islice(cycle(table), max(count, 0))
    return chain(
        islice(cycle(table), limit),
        _sine_formula(amplitude, period, phase, limit, count),
    )


def ramp(count: Optional[int] = None, start: int = 0, step: int = 1) -> Iterator[int]:
    """A linear ramp; infinite when ``count`` is None."""
    return _limited(itertools.count(start, step), count)


def sine_wave(
    amplitude: int = 10_000,
    period: int = 64,
    count: Optional[int] = None,
    phase: float = 0.0,
) -> Iterator[int]:
    """Fixed-point sine samples,
    ``round(amplitude * sin(2*pi*n/period + phase))``."""
    return _sine(amplitude, period, count, phase)


def _uniform(rng: random.Random, amplitude: int) -> Iterator[int]:
    return map(rng.randint, repeat(-amplitude), repeat(amplitude))


def noise(
    amplitude: int = 1_000, count: Optional[int] = None, seed: int = 0xC0FFEE
) -> Iterator[int]:
    """Seeded uniform noise in ``[-amplitude, amplitude]``."""
    return _limited(_uniform(random.Random(seed), amplitude), count)


def noisy_sine(
    amplitude: int = 10_000,
    period: int = 64,
    noise_amplitude: int = 500,
    count: Optional[int] = None,
    seed: int = 0xC0FFEE,
) -> Iterator[int]:
    """Sine plus uniform noise -- the classic filter-demo input."""
    clean = _sine(amplitude, period, count, 0.0)
    return map(add, clean, _uniform(random.Random(seed), noise_amplitude))


def bursty(
    quiet_level: int = 10,
    burst_level: int = 20_000,
    quiet_len: int = 200,
    burst_len: int = 50,
    count: Optional[int] = None,
) -> Iterator[int]:
    """Alternating quiet/burst amplitude -- drives adaptive filter swaps."""
    span = quiet_len + burst_len
    if not span:
        raise ValueError("quiet_len + burst_len must not be zero")
    table = []
    for n in range(math.lcm(span, 2)):
        level = quiet_level if n % span < quiet_len else burst_level
        table.append(level if n % 2 == 0 else -level)
    return _limited(cycle(table), count)


def step_change(
    first_level: int, second_level: int, change_at: int, count: Optional[int] = None
) -> Iterator[int]:
    """Constant level with one step change at ``change_at`` samples."""
    return _limited(
        chain(repeat(first_level, change_at), repeat(second_level)), count
    )


def from_samples(samples: Sequence[int]) -> Iterator[int]:
    """Replay a fixed sample list."""
    return iter(list(samples))
