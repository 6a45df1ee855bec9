"""Digital-filter hardware modules (the paper's running example).

All filters operate on 32-bit signed samples with Q15 fixed-point
coefficients, matching what a slice-based Virtex-4 implementation would
do.  Every filter declares its delay line / accumulators as state
registers so the switching methodology can transplant them into a
replacement module (Figure 5 steps 6-7).
"""

from __future__ import annotations

import statistics
from typing import List, Sequence

from repro.modules.base import HardwareModule
from repro.modules.state import from_u32, saturate32

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

    def process(self, sample: int) -> int:
        x = from_u32(sample)
        # shift the delay line (d0 is the newest sample)
        for i in range(len(self.taps) - 1, 0, -1):
            setattr(self, f"d{i}", getattr(self, f"d{i - 1}"))
        self.d0 = x
        acc = sum(
            self.taps[i] * getattr(self, f"d{i}") for i in range(len(self.taps))
        )
        self._last_output = saturate32(acc >> Q15_SHIFT)
        return self._last_output

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

    def process(self, sample: int) -> int:
        x = from_u32(sample)
        y = (self.b[0] * x + (self.z1 << Q15_SHIFT)) >> Q15_SHIFT
        y = saturate32(y)
        self.z1 = saturate32((self.b[1] * x - self.a[0] * y) >> Q15_SHIFT) + self.z2
        self.z1 = saturate32(self.z1)
        self.z2 = saturate32((self.b[2] * x - self.a[1] * y) >> Q15_SHIFT)
        self._last_output = y
        return y

    def monitor_value(self) -> int:
        return self._last_output

    def on_reset(self) -> None:
        self.z1 = 0
        self.z2 = 0
        self._last_output = 0


class MovingAverage(HardwareModule):
    """Sliding-window mean; window contents and index are state registers."""

    fixed_rate = True

    def __init__(
        self,
        name: str,
        window: int,
        cycles_per_sample: int = 1,
        monitor_interval: int = 0,
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

    def process(self, sample: int) -> int:
        x = from_u32(sample)
        widx = self.widx
        # running sum: subtract the slot being overwritten, add the new
        # sample; identical to summing the filled window every sample
        if self.wfill < self.window:
            self.wfill += 1
            self._wtotal += x
        else:
            self._wtotal += x - getattr(self, f"w{widx}")
        setattr(self, f"w{widx}", x)
        self.widx = (widx + 1) % self.window
        return saturate32(self._wtotal // self.wfill)

    def restore_state(self, words: Sequence[int]) -> None:
        super().restore_state(words)
        self._wtotal = sum(
            getattr(self, f"w{i}") for i in range(self.wfill)
        )

    def on_reset(self) -> None:
        for i in range(self.window):
            setattr(self, f"w{i}", 0)
        self.widx = 0
        self.wfill = 0
        self._wtotal = 0


class MedianFilter(HardwareModule):
    """Sliding-window median (odd windows give the exact middle sample)."""

    fixed_rate = True

    def __init__(
        self,
        name: str,
        window: int = 3,
        cycles_per_sample: int = 2,
        monitor_interval: int = 0,
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

    def process(self, sample: int) -> int:
        x = from_u32(sample)
        setattr(self, f"w{self.widx}", x)
        self.widx = (self.widx + 1) % self.window
        if self.wfill < self.window:
            self.wfill += 1
        values: List[int] = [getattr(self, f"w{i}") for i in range(self.wfill)]
        return saturate32(int(statistics.median(values)))

    def on_reset(self) -> None:
        for i in range(self.window):
            setattr(self, f"w{i}", 0)
        self.widx = 0
        self.wfill = 0
