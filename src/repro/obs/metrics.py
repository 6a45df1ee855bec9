"""Process-local metrics registry: counters, gauges, histograms.

Every :class:`~repro.sim.kernel.Simulator` owns one
:class:`MetricsRegistry`; instrumented components (FIFOs, the ICAP
scheduler, the module switcher, the serving executor) create their
instruments through it.  Instruments are identified by ``(name,
labels)`` just as in Prometheus, and the registry is plain picklable
data so :mod:`repro.pool` device workers can ship their registries
back to the pool and :meth:`MetricsRegistry.merge` them
deterministically:

* counters and histograms **add**,
* gauges take the **maximum** (order-independent, which keeps fleet
  results identical for any worker count).

Standard-library only -- the simulation kernel imports this module.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

#: Default histogram upper bounds (unitless; callers pick domain-apt ones).
DEFAULT_BUCKETS: Tuple[float, ...] = (
    1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024,
)

LabelValue = Tuple[Tuple[str, str], ...]


class MetricsError(Exception):
    """Raised on metric type conflicts and malformed instruments."""


def _label_key(labels: Optional[Dict[str, str]]) -> LabelValue:
    if not labels:
        return ()
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class Counter:
    """Monotonically increasing count."""

    kind = "counter"

    def __init__(self, name: str, labels: LabelValue = ()) -> None:
        self.name = name
        self.labels = labels
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise MetricsError(f"counter {self.name} cannot decrease")
        self.value += amount

    def merge(self, other: "Counter") -> None:
        self.value += other.value


class Gauge:
    """Last-set value (merge takes the maximum across processes)."""

    kind = "gauge"

    def __init__(self, name: str, labels: LabelValue = ()) -> None:
        self.name = name
        self.labels = labels
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def merge(self, other: "Gauge") -> None:
        self.value = max(self.value, other.value)


class Histogram:
    """Fixed-bucket histogram with Prometheus ``le`` semantics.

    ``buckets`` are strictly increasing upper bounds; an observation
    lands in the first bucket whose bound is ``>= value`` (an implicit
    ``+Inf`` bucket catches the rest).
    """

    kind = "histogram"

    def __init__(
        self,
        name: str,
        buckets: Sequence[float] = DEFAULT_BUCKETS,
        labels: LabelValue = (),
    ) -> None:
        bounds = tuple(float(b) for b in buckets)
        if not bounds or any(
            b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])
        ):
            raise MetricsError(
                f"histogram {name} needs strictly increasing buckets, "
                f"got {buckets!r}"
            )
        self.name = name
        self.labels = labels
        self.buckets = bounds
        self.counts: List[int] = [0] * (len(bounds) + 1)
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        self.counts[bisect_left(self.buckets, value)] += 1
        self.sum += value
        self.count += 1

    def merge(self, other: "Histogram") -> None:
        if other.buckets != self.buckets:
            raise MetricsError(
                f"cannot merge histogram {self.name}: bucket bounds differ "
                f"({self.buckets} vs {other.buckets})"
            )
        for index, count in enumerate(other.counts):
            self.counts[index] += count
        self.sum += other.sum
        self.count += other.count

    def cumulative(self) -> List[Tuple[str, int]]:
        """``(le, cumulative count)`` rows, ending with ``+Inf``."""
        rows: List[Tuple[str, int]] = []
        running = 0
        for bound, count in zip(self.buckets, self.counts):
            running += count
            rows.append((f"{bound:g}", running))
        rows.append(("+Inf", running + self.counts[-1]))
        return rows


Metric = Any  # Counter | Gauge | Histogram (py3.9-compatible alias)


def describe_realtime_metrics(registry: "MetricsRegistry") -> None:
    """Attach HELP text for the realtime-scheduling metric families.

    Called by every executor at construction so the descriptions ride
    along when device registries merge into the pool's live ``/metrics``
    exposition.  All families carry a ``tenant`` label.
    """
    registry.describe(
        "repro_deadline_miss_total",
        "Frames (or whole jobs) whose deadline passed before the "
        "required output words were delivered",
    )
    registry.describe(
        "repro_deadline_hit_total",
        "Frames whose required output words arrived before the deadline",
    )
    registry.describe(
        "repro_preemption_total",
        "Jobs swapped off their PRRs by a higher-priority or "
        "earlier-deadline competitor",
    )
    registry.describe(
        "repro_checkpoint_save_us",
        "Simulated microseconds to quiesce a running chain into a "
        "checkpoint (CMD_CHECKPOINT drain + state push)",
    )
    registry.describe(
        "repro_checkpoint_restore_us",
        "Simulated microseconds to restore checkpointed state into "
        "freshly staged modules and restart them",
    )


def describe_compaction_metrics(registry: "MetricsRegistry") -> None:
    """Attach HELP text for the live-compaction metric families.

    Emitted by executors (Figure-5 live relocations) and by pooled
    devices (ledger repacking); pool registries label per device.
    """
    registry.describe(
        "repro_compaction_runs_total",
        "Compaction passes triggered by a fragmentation-blocked job",
    )
    registry.describe(
        "repro_compaction_moves_total",
        "Individual module relocations performed by compaction passes",
    )
    registry.describe(
        "repro_compaction_latency_us",
        "Simulated microseconds per relocation (Figure-5 switch, "
        "including the overlapped reconfiguration of the target PRR)",
    )
    registry.describe(
        "repro_compaction_frag_ratio_before",
        "PRR fragmentation ratio observed at the start of the most "
        "recent compaction pass",
    )
    registry.describe(
        "repro_compaction_frag_ratio_after",
        "PRR fragmentation ratio observed at the end of the most "
        "recent compaction pass",
    )


class MetricsRegistry:
    """Get-or-create registry of labelled instruments."""

    def __init__(self) -> None:
        self._metrics: Dict[Tuple[str, LabelValue], Metric] = {}
        self._help: Dict[str, str] = {}

    # ------------------------------------------------------------------
    def describe(self, name: str, text: str) -> None:
        """Attach a ``# HELP`` docstring to a metric family (first
        writer wins, like Prometheus client libraries)."""
        self._help.setdefault(name, text)

    def help_text(self, name: str) -> Optional[str]:
        return self._help.get(name)

    # ------------------------------------------------------------------
    def _get_or_create(
        self,
        cls,
        name: str,
        labels: Optional[Dict[str, str]],
        **kwargs: Any,
    ):
        key = (name, _label_key(labels))
        metric = self._metrics.get(key)
        if metric is None:
            metric = cls(name, labels=key[1], **kwargs)
            self._metrics[key] = metric
        elif not isinstance(metric, cls):
            raise MetricsError(
                f"metric {name!r} already registered as {metric.kind}"
            )
        return metric

    def counter(
        self, name: str, labels: Optional[Dict[str, str]] = None
    ) -> Counter:
        return self._get_or_create(Counter, name, labels)

    def gauge(
        self, name: str, labels: Optional[Dict[str, str]] = None
    ) -> Gauge:
        return self._get_or_create(Gauge, name, labels)

    def histogram(
        self,
        name: str,
        buckets: Sequence[float] = DEFAULT_BUCKETS,
        labels: Optional[Dict[str, str]] = None,
    ) -> Histogram:
        metric = self._get_or_create(
            Histogram, name, labels, buckets=buckets
        )
        if metric.buckets != tuple(float(b) for b in buckets):
            raise MetricsError(
                f"histogram {name!r} re-registered with different buckets"
            )
        return metric

    # ------------------------------------------------------------------
    def merge(self, other: "MetricsRegistry") -> None:
        """Fold ``other`` into this registry (see module docstring)."""
        for name, text in other._help.items():
            self._help.setdefault(name, text)
        for key, metric in other._metrics.items():
            mine = self._metrics.get(key)
            if mine is None:
                if isinstance(metric, Histogram):
                    mine = Histogram(
                        metric.name, buckets=metric.buckets,
                        labels=metric.labels,
                    )
                else:
                    mine = type(metric)(metric.name, labels=metric.labels)
                self._metrics[key] = mine
            elif type(mine) is not type(metric):
                raise MetricsError(
                    f"cannot merge metric {key[0]!r}: {mine.kind} vs "
                    f"{metric.kind}"
                )
            mine.merge(metric)

    # ------------------------------------------------------------------
    def metrics(self) -> Iterable[Metric]:
        """All instruments in deterministic (name, labels) order."""
        for key in sorted(self._metrics):
            yield self._metrics[key]

    def get(
        self, name: str, labels: Optional[Dict[str, str]] = None
    ) -> Optional[Metric]:
        return self._metrics.get((name, _label_key(labels)))

    def value(
        self, name: str, labels: Optional[Dict[str, str]] = None
    ) -> float:
        """Convenience: a counter/gauge value (0.0 when absent)."""
        metric = self.get(name, labels)
        return 0.0 if metric is None else getattr(metric, "value", 0.0)

    def __len__(self) -> int:
        return len(self._metrics)
