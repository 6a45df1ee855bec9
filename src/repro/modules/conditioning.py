"""Signal-conditioning hardware modules.

Completes the module library with the rate changers and conditioners a
sensor-processing RSPS needs (the application class the paper's IOMs --
ADCs/DACs -- imply): upsampling, rectification, peak tracking with decay,
noise gating and windowed accumulation.  All follow the standard wrapper
contract with explicit state registers, so every one of them is
hot-swappable by the switching methodology.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.modules.base import HardwareModule
from repro.modules.state import (
    INT32_MAX,
    INT32_MIN,
    SIGN_BIT,
    WORD_MASK,
    from_u32,
    saturate32,
    to_u32,
)


class Upsampler(HardwareModule):
    """Zero-stuffing upsampler: each input yields ``factor`` outputs.

    The inserted zeros are typically smoothed by a following FIR (the
    classic interpolation chain), which the KPN assembler can place in
    the next PRR.
    """

    def __init__(self, name: str, factor: int) -> None:
        super().__init__(name)
        if factor <= 0:
            raise ValueError("upsampling factor must be positive")
        self.factor = factor

    def process(self, sample: int) -> Sequence[Tuple[int, int]]:
        words = [(0, to_u32(from_u32(sample)))]
        words.extend((0, 0) for _ in range(self.factor - 1))
        return words


class AbsValue(HardwareModule):
    """Full-wave rectifier: |x| with saturation at INT32_MAX."""

    fixed_rate = True

    def process_block(self, samples: Sequence[int]) -> List[int]:
        hi = INT32_MAX
        out = []
        for sample in samples:
            y = abs(((sample + SIGN_BIT) & WORD_MASK) - SIGN_BIT)
            out.append(hi if y > hi else y)
        return out


class PeakHold(HardwareModule):
    """Peak detector with exponential decay.

    Tracks ``peak = max(|x|, peak - peak >> decay_shift)``; the held peak
    is both the output stream and the monitoring value (envelope data for
    the MicroBlaze's adaptation decisions, Figure 5 step 2).
    """

    fixed_rate = True
    state_register_names = ("peak",)

    def __init__(self, name: str, decay_shift: int = 4,
                 monitor_interval: int = 0) -> None:
        super().__init__(name)
        if decay_shift < 0:
            raise ValueError("decay_shift must be >= 0")
        self.decay_shift = decay_shift
        self.peak = 0
        self.monitor_interval = monitor_interval

    def process_block(self, samples: Sequence[int]) -> List[int]:
        hi, lo = INT32_MAX, INT32_MIN
        shift = self.decay_shift
        peak = self.peak
        out = []
        for sample in samples:
            magnitude = abs(((sample + SIGN_BIT) & WORD_MASK) - SIGN_BIT)
            decayed = peak - (peak >> shift)
            peak = magnitude if magnitude > decayed else decayed
            peak = hi if peak > hi else lo if peak < lo else peak
            out.append(peak)
        self.peak = peak
        return out

    def monitor_value(self) -> int:
        return self.peak

    def on_reset(self) -> None:
        self.peak = 0


class NoiseGate(HardwareModule):
    """Suppress samples below a threshold with hysteresis.

    Opens when |x| >= ``open_at``; closes when |x| < ``close_at``.  While
    closed, outputs zero (fixed rate, unlike ThresholdDetector, so the
    downstream timing is unchanged).
    """

    fixed_rate = True
    state_register_names = ("gate_open",)

    def __init__(self, name: str, open_at: int, close_at: Optional[int] = None) -> None:
        super().__init__(name)
        if open_at < 0:
            raise ValueError("open_at must be >= 0")
        self.open_at = open_at
        self.close_at = open_at // 2 if close_at is None else close_at
        if self.close_at > self.open_at:
            raise ValueError("close_at must not exceed open_at (hysteresis)")
        self.gate_open = 0

    def process_block(self, samples: Sequence[int]) -> List[int]:
        open_at, close_at = self.open_at, self.close_at
        gate_open = self.gate_open
        out = []
        for sample in samples:
            value = ((sample + SIGN_BIT) & WORD_MASK) - SIGN_BIT
            magnitude = abs(value)
            if gate_open:
                if magnitude < close_at:
                    gate_open = 0
            elif magnitude >= open_at:
                gate_open = 1
            out.append(value if gate_open else 0)
        self.gate_open = gate_open
        return out

    def on_reset(self) -> None:
        self.gate_open = 0


class Accumulator(HardwareModule):
    """Windowed sum: emit the sum of every ``window`` input words.

    A rate-reducing integrator (factor = window); sum and phase are state
    registers so a swap mid-window continues the partial sum.
    """

    state_register_names = ("acc", "phase")

    def __init__(self, name: str, window: int) -> None:
        super().__init__(name)
        if window <= 0:
            raise ValueError("window must be positive")
        self.window = window
        self.acc = 0
        self.phase = 0

    def process(self, sample: int) -> Optional[int]:
        self.acc = saturate32(self.acc + from_u32(sample))
        self.phase += 1
        if self.phase < self.window:
            return None
        total, self.acc, self.phase = self.acc, 0, 0
        return total

    def on_reset(self) -> None:
        self.acc = 0
        self.phase = 0
