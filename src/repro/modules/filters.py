"""Digital-filter hardware modules (the paper's running example).

All filters operate on 32-bit signed samples with Q15 fixed-point
coefficients, matching what a slice-based Virtex-4 implementation would
do.  Every filter declares its delay line / accumulators as state
registers so the switching methodology can transplant them into a
replacement module (Figure 5 steps 6-7).
"""

from __future__ import annotations

import statistics
from itertools import accumulate, repeat
from operator import floordiv, mul, sub
from typing import List, Sequence

from repro.modules.base import HardwareModule
from repro.modules.state import (
    INT32_MAX,
    INT32_MIN,
    SIGN_BIT,
    WORD_MASK,
    from_u32_block,
)

Q15_SHIFT = 15
Q15_ONE = 1 << Q15_SHIFT


def q15(value: float) -> int:
    """Quantise a real coefficient to Q15."""
    return int(round(value * Q15_ONE))


class FirFilter(HardwareModule):
    """Direct-form FIR filter; state registers are the delay line."""

    fixed_rate = True

    def __init__(
        self,
        name: str,
        taps: Sequence[int],
        cycles_per_sample: int = 1,
        monitor_interval: int = 0,
    ) -> None:
        super().__init__(name)
        if not taps:
            raise ValueError("FIR needs at least one tap")
        self.taps = [int(t) for t in taps]
        self.cycles_per_sample = cycles_per_sample
        self.monitor_interval = monitor_interval
        self.state_register_names = tuple(f"d{i}" for i in range(len(self.taps)))
        for reg in self.state_register_names:
            setattr(self, reg, 0)
        self._last_output = 0

    @classmethod
    def from_coefficients(
        cls, name: str, coefficients: Sequence[float], **kw
    ) -> "FirFilter":
        return cls(name, [q15(c) for c in coefficients], **kw)

    def process_block(self, samples: Sequence[int]) -> List[int]:
        hi, lo = INT32_MAX, INT32_MIN
        taps = self.taps
        names = self.state_register_names
        # the delay line, d0 (the newest sample) first
        line = [getattr(self, name) for name in names]
        out = []
        for sample in samples:
            line.pop()
            line.insert(0, ((sample + SIGN_BIT) & WORD_MASK) - SIGN_BIT)
            y = sum(map(mul, taps, line)) >> Q15_SHIFT
            out.append(hi if y > hi else lo if y < lo else y)
        if out:
            for name, value in zip(names, line):
                setattr(self, name, value)
            self._last_output = out[-1]
        return out

    def monitor_value(self) -> int:
        return self._last_output

    def on_reset(self) -> None:
        for reg in self.state_register_names:
            setattr(self, reg, 0)
        self._last_output = 0


class BiquadIir(HardwareModule):
    """Second-order IIR section (direct form II transposed).

    State registers ``z1``/``z2`` are exactly the dynamic variables the
    paper's methodology must hand from the replaced filter to its
    successor for glitch-free continuation.
    """

    fixed_rate = True
    state_register_names = ("z1", "z2")

    def __init__(
        self,
        name: str,
        b: Sequence[int],
        a: Sequence[int],
        cycles_per_sample: int = 2,
        monitor_interval: int = 0,
    ) -> None:
        super().__init__(name)
        if len(b) != 3 or len(a) != 2:
            raise ValueError("biquad needs b=(b0,b1,b2) and a=(a1,a2)")
        self.b = [int(v) for v in b]
        self.a = [int(v) for v in a]
        self.cycles_per_sample = cycles_per_sample
        self.monitor_interval = monitor_interval
        self.z1 = 0
        self.z2 = 0
        self._last_output = 0

    @classmethod
    def from_coefficients(
        cls, name: str, b: Sequence[float], a: Sequence[float], **kw
    ) -> "BiquadIir":
        return cls(name, [q15(v) for v in b], [q15(v) for v in a], **kw)

    def process_block(self, samples: Sequence[int]) -> List[int]:
        hi, lo = INT32_MAX, INT32_MIN
        b0, b1, b2 = self.b
        a1, a2 = self.a
        z1, z2 = self.z1, self.z2
        out = []
        for sample in samples:
            x = ((sample + SIGN_BIT) & WORD_MASK) - SIGN_BIT
            y = (b0 * x + (z1 << Q15_SHIFT)) >> Q15_SHIFT
            y = hi if y > hi else lo if y < lo else y
            z1 = (b1 * x - a1 * y) >> Q15_SHIFT
            z1 = hi if z1 > hi else lo if z1 < lo else z1
            z1 += z2
            z1 = hi if z1 > hi else lo if z1 < lo else z1
            z2 = (b2 * x - a2 * y) >> Q15_SHIFT
            z2 = hi if z2 > hi else lo if z2 < lo else z2
            out.append(y)
        if out:
            self.z1, self.z2 = z1, z2
            self._last_output = out[-1]
        return out

    def monitor_value(self) -> int:
        return self._last_output

    def on_reset(self) -> None:
        self.z1 = 0
        self.z2 = 0
        self._last_output = 0


class _WindowFilter(HardwareModule):
    """A sliding window of the last ``window`` samples: registers
    ``w0..`` are the slots, ``widx`` the slot the next sample is written
    to and ``wfill`` how many slots, from ``w0``, hold samples.

    Each sample is written to slot ``widx``, the fill grows by one until
    the window is full, and the output is computed over slots
    ``[0, wfill)``.  An index restored from a wider window (a swap from
    another module) names no slot: that one sample is not kept, as a
    register file drops a write to an unmapped address.  A restored fill
    is clamped into ``[0, window]``.
    """

    def __init__(
        self,
        name: str,
        window: int,
        cycles_per_sample: int,
        monitor_interval: int,
    ) -> None:
        super().__init__(name)
        if window <= 0:
            raise ValueError("window must be positive")
        self.window = window
        self.cycles_per_sample = cycles_per_sample
        self.monitor_interval = monitor_interval
        self.state_register_names = tuple(
            [f"w{i}" for i in range(window)] + ["widx", "wfill"]
        )
        self.on_reset()

    def restore_state(self, words: Sequence[int]) -> None:
        super().restore_state(words)
        self.wfill = min(max(self.wfill, 0), self.window)

    def on_reset(self) -> None:
        for i in range(self.window):
            setattr(self, f"w{i}", 0)
        self.widx = 0
        self.wfill = 0


class MovingAverage(_WindowFilter):
    """Sliding-window mean; window contents and index are state registers.

    A running sum of slots ``[0, wfill)`` makes each sample O(1).  Once
    the window is full, a block longer than the window is computed as
    prefix sums over the window's samples and the block's: each output
    is one difference of two prefix sums.
    """

    fixed_rate = True

    def __init__(
        self,
        name: str,
        window: int,
        cycles_per_sample: int = 1,
        monitor_interval: int = 0,
    ) -> None:
        super().__init__(name, window, cycles_per_sample, monitor_interval)

    def process_block(self, samples: Sequence[int]) -> List[int]:
        window = self.window
        names = self.state_register_names[:window]
        slots = [getattr(self, name) for name in names]
        widx, wfill, total = self.widx, self.wfill, self._wtotal
        if wfill == window and 0 <= widx < window and len(samples) > window:
            return self._steady_block(samples, slots, widx)
        hi, lo = INT32_MAX, INT32_MIN
        out = []
        for sample in samples:
            x = ((sample + SIGN_BIT) & WORD_MASK) - SIGN_BIT
            # running sum of slots [0, wfill): replace the slot written,
            # then take in the slot the fill grows over
            if 0 <= widx < window:
                if widx < wfill:
                    total += x - slots[widx]
                slots[widx] = x
            if wfill < window:
                total += slots[wfill]
                wfill += 1
            widx = (widx + 1) % window
            y = total // wfill
            out.append(hi if y > hi else lo if y < lo else y)
        for name, value in zip(names, slots):
            setattr(self, name, value)
        self.widx, self.wfill, self._wtotal = widx, wfill, total
        return out

    def _steady_block(
        self, samples: Sequence[int], slots: List[int], widx: int
    ) -> List[int]:
        """A full window and a block longer than it: slot ``widx`` is the
        oldest sample, so the window oldest-first ahead of the block is
        the stream, and the mean after sample ``i`` is the sum of stream
        entries ``i+1 .. i+window``.  A mean of 32-bit values needs no
        clamp."""
        window = self.window
        stream = slots[widx:] + slots[:widx]
        stream += from_u32_block(samples)
        prefix = list(accumulate(stream, initial=0))
        out = list(
            map(
                floordiv,
                map(sub, prefix[window + 1 :], prefix[1:-window]),
                repeat(window),
            )
        )
        widx = (widx + len(samples)) % window
        # the last ``window`` samples, the oldest in slot ``widx``
        last = stream[-window:]
        slots = last[window - widx :] + last[: window - widx]
        for name, value in zip(self.state_register_names, slots):
            setattr(self, name, value)
        self.widx = widx
        self._wtotal = prefix[-1] - prefix[-window - 1]
        return out

    def restore_state(self, words: Sequence[int]) -> None:
        super().restore_state(words)
        self._wtotal = sum(getattr(self, f"w{i}") for i in range(self.wfill))

    def on_reset(self) -> None:
        super().on_reset()
        self._wtotal = 0


class MedianFilter(_WindowFilter):
    """Sliding-window median (odd windows give the exact middle sample)."""

    fixed_rate = True

    def __init__(
        self,
        name: str,
        window: int = 3,
        cycles_per_sample: int = 2,
        monitor_interval: int = 0,
    ) -> None:
        super().__init__(name, window, cycles_per_sample, monitor_interval)

    def process_block(self, samples: Sequence[int]) -> List[int]:
        hi, lo = INT32_MAX, INT32_MIN
        window = self.window
        names = self.state_register_names[:window]
        slots = [getattr(self, name) for name in names]
        widx, wfill = self.widx, self.wfill
        out = []
        for sample in samples:
            if 0 <= widx < window:
                slots[widx] = ((sample + SIGN_BIT) & WORD_MASK) - SIGN_BIT
            widx = (widx + 1) % window
            if wfill < window:
                wfill += 1
            y = int(statistics.median(slots[:wfill]))
            out.append(hi if y > hi else lo if y < lo else y)
        for name, value in zip(names, slots):
            setattr(self, name, value)
        self.widx, self.wfill = widx, wfill
        return out
