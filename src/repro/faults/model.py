"""Fault model: deterministic campaigns, the frame store, and the ledger.

VAPRES's resilience story starts from the physical fault classes a
partially reconfigurable fabric actually faces:

* **SEU_FRAME** -- a single-event upset flips one bit in a PRR's
  configuration frames.  The frame count per PRR comes from the real
  floorplan geometry (:func:`repro.pr.bitstream.frames_for_rect`), so
  larger regions present a proportionally larger cross-section.
* **LANE_STUCK** -- a switch-box lane latches stuck-at: either the
  backward credit wire reads permanently *full* (the producer stalls
  forever) or a forward data wire sticks at 1 (an OR mask corrupts every
  word crossing the channel).
* **FIFO_BIT** -- a transient bit error in a BRAM interface FIFO.  The
  FIFO's ECC shadow (SECDED) corrects it at read time and counts the
  correction, which the watchdog reports as a detected-and-repaired
  fault.
* **ICAP_CORRUPT** -- a bitstream transfer completes but left corrupted
  frames behind (bus glitch during the write).

Everything is deterministic: a campaign is fully described by
:class:`CampaignConfig` (an explicit integer ``seed`` is mandatory) and
per-class RNG streams are derived with :func:`derive_seed` via CRC32 --
never ``hash()``, which is salted per process and would break
bit-reproducibility across runs and fleet workers.
"""

from __future__ import annotations

import enum
import zlib
from dataclasses import dataclass, field, fields
from random import Random
from typing import Dict, List, Optional

from repro.pr.bitstream import frames_for_rect

#: histogram buckets for detection/repair latency, in microseconds
FAULT_LATENCY_BUCKETS_US = (
    10.0, 25.0, 50.0, 100.0, 250.0, 500.0, 1000.0, 2500.0, 5000.0, 10000.0,
)


class FaultClass(str, enum.Enum):
    """The four modelled fault classes."""

    SEU_FRAME = "seu_frame"
    LANE_STUCK = "lane_stuck"
    FIFO_BIT = "fifo_bit"
    ICAP_CORRUPT = "icap_corrupt"


ALL_FAULT_CLASSES = tuple(FaultClass)


def derive_seed(seed: int, stream: str) -> int:
    """Derive a per-stream child seed, stable across processes.

    Uses CRC32 instead of ``hash()`` -- string hashing is salted by
    ``PYTHONHASHSEED`` and would make fleet workers disagree.
    """
    return zlib.crc32(f"{seed}:{stream}".encode("utf-8")) & 0xFFFFFFFF


def rng_for(seed: int, stream: str) -> Random:
    """A seeded generator for one named fault stream."""
    return Random(derive_seed(seed, stream))


@dataclass(frozen=True)
class CampaignConfig:
    """Declarative description of one fault campaign.

    Counts are drawn over the injection window ``[5%, 95%]`` of
    ``duration_us``; a count of 0 disables that class.  ``seed`` must be
    an explicit integer -- configs without one are rejected both here and
    by the VAP502 determinism lint.
    """

    seed: int
    #: injection window; faults are planned inside this many sim-us
    duration_us: float = 2000.0
    seu_frames: int = 0
    lane_stuck: int = 0
    fifo_bit: int = 0
    icap_corrupt: int = 0
    #: one frame readback is issued every period (round-robin over PRRs)
    scrub_period_us: float = 200.0
    #: frame faults on one PRR before escalating from frame rewrite to
    #: full module replacement over the Figure 5 switch path
    escalate_after: int = 2
    #: frame faults on one PRR before it is quarantined outright
    quarantine_after: int = 3
    #: consecutive watchdog polls with stalled credit before detection
    watchdog_polls: int = 2
    #: fault-triggered evictions of one job before it is failed
    max_fault_retries: int = 3

    def __post_init__(self) -> None:
        if isinstance(self.seed, bool) or not isinstance(self.seed, int):
            raise ValueError(
                f"campaign seed must be a literal integer, got {self.seed!r}"
            )
        if self.duration_us <= 0:
            raise ValueError("duration_us must be positive")
        if self.scrub_period_us <= 0:
            raise ValueError("scrub_period_us must be positive")
        for name in ("seu_frames", "lane_stuck", "fifo_bit", "icap_corrupt"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")

    def to_dict(self) -> Dict[str, object]:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "CampaignConfig":
        allowed = {f.name for f in fields(cls)}
        unknown = set(data) - allowed
        if unknown:
            raise ValueError(
                f"unknown campaign config keys: {sorted(unknown)}"
            )
        if "seed" not in data:
            raise ValueError(
                "campaign config requires an explicit integer 'seed' (VAP502)"
            )
        return cls(**data)  # type: ignore[arg-type]


@dataclass
class FaultEvent:
    """Lifecycle record of one injected fault."""

    fault_id: int
    fault_class: FaultClass
    #: what was hit: a PRR name, ``channel#<id>``, or a FIFO name
    target: str
    injected_ps: int
    detected_ps: Optional[int] = None
    repaired_ps: Optional[int] = None
    #: how it was detected: scrub | watchdog-credit | watchdog-signature |
    #: ecc
    detected_via: Optional[str] = None
    #: how it was repaired: frame_rewrite | module_switch | reroute |
    #: ecc_correct
    action: Optional[str] = None
    detail: Dict[str, object] = field(default_factory=dict)

    @property
    def detected(self) -> bool:
        return self.detected_ps is not None

    @property
    def repaired(self) -> bool:
        return self.repaired_ps is not None

    def to_dict(self) -> Dict[str, object]:
        return {
            "id": self.fault_id,
            "class": self.fault_class.value,
            "target": self.target,
            "injected_us": self.injected_ps // 1_000_000,
            "detected_us": (
                None if self.detected_ps is None
                else self.detected_ps // 1_000_000
            ),
            "repaired_us": (
                None if self.repaired_ps is None
                else self.repaired_ps // 1_000_000
            ),
            "detected_via": self.detected_via,
            "action": self.action,
            "detail": dict(sorted(self.detail.items())),
        }


class FaultLedger:
    """Every injected fault and its detect/repair lifecycle.

    Transitions feed the obs metrics registry so fleet workers' runs
    can be merged: ``repro_faults_injected_total`` / ``_detected_total`` /
    ``_repaired_total`` (labelled by class) and the
    ``repro_fault_detect_latency_us`` / ``repro_fault_repair_latency_us``
    histograms.  Latencies are observed as *whole* microseconds so that
    histogram sums stay exactly representable and merge order cannot
    perturb the report bytes.
    """

    def __init__(self, sim) -> None:
        self.sim = sim
        self.events: List[FaultEvent] = []

    def record(
        self,
        fault_class: FaultClass,
        target: str,
        detail: Optional[Dict[str, object]] = None,
    ) -> FaultEvent:
        event = FaultEvent(
            fault_id=len(self.events),
            fault_class=fault_class,
            target=target,
            injected_ps=self.sim.now,
            detail=dict(detail or {}),
        )
        self.events.append(event)
        self.sim.metrics.counter(
            "repro_faults_injected_total", labels={"class": fault_class.value}
        ).inc()
        self.sim.tracer.begin(
            f"fault {fault_class.value}",
            category="fault",
            track=f"fault/{target}",
            attrs={"id": event.fault_id},
        )
        self.sim.log(
            "fault",
            f"injected {fault_class.value} at {target}",
            id=event.fault_id,
        )
        return event

    def open_events(
        self,
        target: Optional[str] = None,
        classes: Optional[tuple] = None,
        detected: Optional[bool] = None,
    ) -> List[FaultEvent]:
        """Unrepaired events, optionally filtered by target/class/detection."""
        out = []
        for event in self.events:
            if event.repaired:
                continue
            if target is not None and event.target != target:
                continue
            if classes is not None and event.fault_class not in classes:
                continue
            if detected is not None and event.detected is not detected:
                continue
            out.append(event)
        return out

    def mark_detected(self, event: FaultEvent, via: str) -> None:
        if event.detected:
            return
        event.detected_ps = self.sim.now
        event.detected_via = via
        latency_us = (event.detected_ps - event.injected_ps) // 1_000_000
        metrics = self.sim.metrics
        metrics.counter(
            "repro_faults_detected_total",
            labels={"class": event.fault_class.value},
        ).inc()
        metrics.histogram(
            "repro_fault_detect_latency_us", buckets=FAULT_LATENCY_BUCKETS_US
        ).observe(latency_us)
        self.sim.log(
            "fault",
            f"detected {event.fault_class.value} at {event.target} via {via}",
            id=event.fault_id,
            latency_us=latency_us,
        )

    def mark_repaired(self, event: FaultEvent, action: str) -> None:
        if event.repaired:
            return
        event.repaired_ps = self.sim.now
        event.action = action
        # MTTR measured from detection; undetected events (repaired as a
        # side effect, e.g. a module switch) count from injection
        since = event.detected_ps if event.detected else event.injected_ps
        latency_us = (event.repaired_ps - since) // 1_000_000
        metrics = self.sim.metrics
        metrics.counter(
            "repro_faults_repaired_total",
            labels={"class": event.fault_class.value},
        ).inc()
        metrics.counter(
            "repro_fault_repairs_total", labels={"action": action}
        ).inc()
        metrics.histogram(
            "repro_fault_repair_latency_us", buckets=FAULT_LATENCY_BUCKETS_US
        ).observe(latency_us)
        self.sim.tracer.end_if_open(
            f"fault {event.fault_class.value}", track=f"fault/{event.target}"
        )
        self.sim.log(
            "fault",
            f"repaired {event.fault_class.value} at {event.target} "
            f"by {action}",
            id=event.fault_id,
            latency_us=latency_us,
        )

    def counts(self) -> Dict[str, Dict[str, int]]:
        """``{injected|detected|repaired: {class: n}}`` summary."""
        out: Dict[str, Dict[str, int]] = {
            "injected": {}, "detected": {}, "repaired": {},
        }
        for cls in ALL_FAULT_CLASSES:
            name = cls.value
            out["injected"][name] = 0
            out["detected"][name] = 0
            out["repaired"][name] = 0
        for event in self.events:
            name = event.fault_class.value
            out["injected"][name] += 1
            if event.detected:
                out["detected"][name] += 1
            if event.repaired:
                out["repaired"][name] += 1
        return out


class FrameStore:
    """Per-PRR configuration-frame memory at Virtex-4 frame granularity.

    One representative 32-bit word stands in for each 41-word frame; the
    golden image for a PRR is a deterministic function of the loaded
    module name, so a readback CRC comparison detects any flipped bit.
    The store is programmed by hooking the reconfiguration engine's
    completion path -- the same event that instantiates the module --
    which means injected upsets land in state the scrubber genuinely has
    to read back, not in a bolted-on flag.
    """

    def __init__(self, floorplan) -> None:
        self._frame_counts: Dict[str, int] = {}
        self._frames: Dict[str, List[int]] = {}
        self._golden: Dict[str, List[int]] = {}
        self.loaded: Dict[str, Optional[str]] = {}
        for name in sorted(floorplan.prrs):
            count = frames_for_rect(floorplan.prrs[name].rect)
            self._frame_counts[name] = count
            self._frames[name] = [self._word("", name, i) for i in range(count)]
            self._golden[name] = list(self._frames[name])
            self.loaded[name] = None

    @staticmethod
    def _word(module: str, prr: str, index: int) -> int:
        return zlib.crc32(f"{module}@{prr}#{index}".encode("utf-8")) & 0xFFFFFFFF

    @property
    def prr_names(self) -> List[str]:
        return sorted(self._frames)

    def __contains__(self, prr: str) -> bool:
        return prr in self._frames

    def frame_count(self, prr: str) -> int:
        return self._frame_counts[prr]

    def program(self, prr: str, module: Optional[str]) -> None:
        """Rewrite the PRR's frames with the image for ``module``."""
        if prr not in self._frames:
            return
        name = module or ""
        count = self._frame_counts[prr]
        self._golden[prr] = [self._word(name, prr, i) for i in range(count)]
        self._frames[prr] = list(self._golden[prr])
        self.loaded[prr] = module

    def flip(self, prr: str, frame: int, bit: int) -> None:
        """Flip one configuration bit (an SEU, or transfer corruption)."""
        self._frames[prr][frame % self._frame_counts[prr]] ^= 1 << (bit % 32)

    def corrupted_frames(self, prr: str) -> List[int]:
        return [
            i for i, (word, golden)
            in enumerate(zip(self._frames[prr], self._golden[prr]))
            if word != golden
        ]

    def crc(self, prr: str) -> int:
        return zlib.crc32(
            b"".join(w.to_bytes(4, "little") for w in self._frames[prr])
        ) & 0xFFFFFFFF

    def golden_crc(self, prr: str) -> int:
        return zlib.crc32(
            b"".join(w.to_bytes(4, "little") for w in self._golden[prr])
        ) & 0xFFFFFFFF

    def repair(self, prr: str, frames: Optional[List[int]] = None) -> int:
        """Rewrite ``frames`` (default: all corrupted) from the golden image.

        Returns the number of frames rewritten.
        """
        targets = frames if frames is not None else self.corrupted_frames(prr)
        for index in targets:
            self._frames[prr][index] = self._golden[prr][index]
        return len(targets)
