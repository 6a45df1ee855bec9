"""General stream-transform hardware modules.

These populate the module library beyond the filter examples: rate
changers, codecs, detectors and the plumbing modules (mergers/splitters)
used to build non-linear Kahn process networks inside an RSB (Figure 4).
"""

from __future__ import annotations

import struct
import zlib
from typing import List, Optional, Sequence, Tuple

from repro.modules.base import HardwareModule
from repro.modules.filters import Q15_SHIFT
from repro.modules.state import (
    INT32_MAX,
    INT32_MIN,
    SIGN_BIT,
    WORD_MASK,
    from_u32,
    from_u32_block,
    to_u32,
)


class PassThrough(HardwareModule):
    """Identity module (useful as a placeholder and in latency tests)."""

    fixed_rate = True

    def process_block(self, samples: Sequence[int]) -> List[int]:
        return from_u32_block(samples)


class Scaler(HardwareModule):
    """Multiply by a Q15 gain."""

    fixed_rate = True
    state_register_names = ("gain",)

    def __init__(self, name: str, gain: int, monitor_interval: int = 0) -> None:
        super().__init__(name)
        self.gain = int(gain)
        self.monitor_interval = monitor_interval

    def process_block(self, samples: Sequence[int]) -> List[int]:
        hi, lo = INT32_MAX, INT32_MIN
        gain = self.gain
        out = []
        for sample in samples:
            y = ((((sample + SIGN_BIT) & WORD_MASK) - SIGN_BIT) * gain) >> Q15_SHIFT
            out.append(hi if y > hi else lo if y < lo else y)
        return out

    def on_reset(self) -> None:
        # gain is a configured parameter; reset keeps it (register with
        # load-time constant), matching an LUT-configured multiplier
        pass


class ThresholdDetector(HardwareModule):
    """Pass only samples with magnitude >= threshold (variable rate).

    ``exceed_count`` is a state register and the monitoring value, so the
    MicroBlaze can watch input characteristics -- this is the kind of
    monitoring information step 2 of Figure 5 relies on.
    """

    state_register_names = ("threshold", "exceed_count")

    def __init__(self, name: str, threshold: int, monitor_interval: int = 0) -> None:
        super().__init__(name)
        self.threshold = int(threshold)
        self.exceed_count = 0
        self.monitor_interval = monitor_interval

    def process(self, sample: int) -> Optional[int]:
        x = from_u32(sample)
        if abs(x) >= self.threshold:
            self.exceed_count += 1
            return x
        return None

    def monitor_value(self) -> int:
        return self.exceed_count

    def on_reset(self) -> None:
        self.exceed_count = 0


class Decimator(HardwareModule):
    """Keep one sample in ``factor`` (phase is a state register)."""

    state_register_names = ("phase",)

    def __init__(self, name: str, factor: int) -> None:
        super().__init__(name)
        if factor <= 0:
            raise ValueError("decimation factor must be positive")
        self.factor = factor
        self.phase = 0

    def process(self, sample: int) -> Optional[int]:
        keep = self.phase == 0
        self.phase = (self.phase + 1) % self.factor
        return from_u32(sample) if keep else None

    def on_reset(self) -> None:
        self.phase = 0


class DeltaEncoder(HardwareModule):
    """Emit differences between consecutive samples."""

    fixed_rate = True
    state_register_names = ("prev",)

    def __init__(self, name: str) -> None:
        super().__init__(name)
        self.prev = 0

    def process_block(self, samples: Sequence[int]) -> List[int]:
        hi, lo = INT32_MAX, INT32_MIN
        prev = self.prev
        out = []
        for sample in samples:
            x = ((sample + SIGN_BIT) & WORD_MASK) - SIGN_BIT
            y = x - prev
            out.append(hi if y > hi else lo if y < lo else y)
            prev = x
        self.prev = prev
        return out

    def on_reset(self) -> None:
        self.prev = 0


class DeltaDecoder(HardwareModule):
    """Integrate deltas back into absolute samples."""

    fixed_rate = True
    state_register_names = ("prev",)

    def __init__(self, name: str) -> None:
        super().__init__(name)
        self.prev = 0

    def process_block(self, samples: Sequence[int]) -> List[int]:
        hi, lo = INT32_MAX, INT32_MIN
        prev = self.prev
        out = []
        for sample in samples:
            prev += ((sample + SIGN_BIT) & WORD_MASK) - SIGN_BIT
            prev = hi if prev > hi else lo if prev < lo else prev
            out.append(prev)
        self.prev = prev
        return out

    def on_reset(self) -> None:
        self.prev = 0


class Crc32(HardwareModule):
    """Pass-through that accumulates a CRC-32 over the stream.

    The running CRC is a state register, so a swapped-in successor
    continues the checksum seamlessly -- a direct demonstration of why the
    methodology transfers dynamic variables (Section III.B.3).
    """

    fixed_rate = True
    state_register_names = ("crc",)

    def __init__(self, name: str, monitor_interval: int = 0) -> None:
        super().__init__(name)
        self.crc = 0xFFFFFFFF
        self.monitor_interval = monitor_interval

    def process_block(self, samples: Sequence[int]) -> List[int]:
        """The reflected CRC-32 register (polynomial ``0xEDB88320``, no
        final inversion) over each word's bytes, least significant first.
        zlib runs the same register with its inversions around it, so
        ``zlib.crc32(data, crc ^ WORD_MASK) ^ WORD_MASK`` advances it."""
        words = [sample & WORD_MASK for sample in samples]
        data = struct.pack(f"<{len(words)}I", *words)
        # state restore decodes registers as signed; CRC math is unsigned
        self.crc = zlib.crc32(data, to_u32(self.crc) ^ WORD_MASK) ^ WORD_MASK
        return from_u32_block(words)

    def monitor_value(self) -> int:
        return self.crc

    def on_reset(self) -> None:
        self.crc = 0xFFFFFFFF


class MinMaxTracker(HardwareModule):
    """Pass-through tracking the stream's extrema in state registers."""

    fixed_rate = True
    state_register_names = ("seen_min", "seen_max")

    def __init__(self, name: str, monitor_interval: int = 0) -> None:
        super().__init__(name)
        self.monitor_interval = monitor_interval
        self.on_reset()

    def process_block(self, samples: Sequence[int]) -> List[int]:
        out = from_u32_block(samples)
        if out:
            self.seen_min = min(self.seen_min, min(out))
            self.seen_max = max(self.seen_max, max(out))
        return out

    def monitor_value(self) -> int:
        return to_u32(self.seen_max)

    def on_reset(self) -> None:
        self.seen_min = 2**31 - 1
        self.seen_max = -(2**31)


class StreamMerger(HardwareModule):
    """Fair 2-to-1 (or N-to-1) merge of input streams (KPN join node)."""

    state_register_names = ("rr",)

    def __init__(self, name: str) -> None:
        super().__init__(name)
        self.rr = 0

    def select_input(self) -> int:
        consumers = self.ports.consumers
        for offset in range(len(consumers)):
            index = (self.rr + offset) % len(consumers)
            if consumers[index].module_can_read:
                self.rr = (index + 1) % len(consumers)
                return index
        return self.rr

    def process(self, sample: int) -> int:
        return from_u32(sample)

    def on_reset(self) -> None:
        self.rr = 0


class StreamSplitter(HardwareModule):
    """Alternate output words across producer ports (KPN fork node)."""

    state_register_names = ("phase",)

    def __init__(self, name: str) -> None:
        super().__init__(name)
        self.phase = 0

    def process(self, sample: int) -> Sequence[Tuple[int, int]]:
        port_count = max(1, len(self.ports.producers))
        result = [(self.phase % port_count, to_u32(from_u32(sample)))]
        self.phase = (self.phase + 1) % port_count
        return result

    def on_reset(self) -> None:
        self.phase = 0
