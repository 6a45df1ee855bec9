"""Per-job and per-fleet serving telemetry.

Every job's lifecycle yields one :class:`JobReport` (queue wait,
placement latency, throughput, output-stream continuity via
:mod:`repro.analysis.metrics`, eviction/retry counts); a run of the
executor aggregates them into a :class:`FleetReport` with fleet-level
counters (jobs by final state, aggregate throughput, ICAP busy
fraction, wall-clock).  Both are plain data -- picklable across pool
worker processes and exportable as JSON by ``python -m repro serve``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.analysis.metrics import interruption_report

#: Version of the JobReport/FleetReport JSON layout.  Bumped on any
#: incompatible field change; loaders reject unknown versions rather
#: than silently misreading old dumps.
SCHEMA_VERSION = 1


class TelemetrySchemaError(Exception):
    """Raised when loading a report dump with an unknown schema version."""


def _check_schema(data: Dict, kind: str) -> None:
    version = data.get("schema_version", SCHEMA_VERSION)
    if version != SCHEMA_VERSION:
        raise TelemetrySchemaError(
            f"{kind} dump has schema_version={version!r}; this build "
            f"reads version {SCHEMA_VERSION}"
        )


@dataclass
class JobReport:
    """Final telemetry of one stream job."""

    name: str = ""
    index: int = 0
    state: str = "QUEUED"
    priority: int = 0
    stages: int = 0
    words_in: int = 0
    words_out: int = 0
    #: simulated-time phases, microseconds
    queue_wait_us: float = 0.0
    placement_us: float = 0.0
    run_us: float = 0.0
    #: output-stream continuity (analysis.metrics over IOM timestamps)
    throughput_words_per_s: float = 0.0
    max_gap_us: float = 0.0
    mean_gap_us: float = 0.0
    interrupted: bool = False
    #: resilience counters
    attempts: int = 0
    evictions: int = 0
    #: fault-campaign counters (repro.faults); additive, default 0
    fault_evictions: int = 0
    fault_recoveries: int = 0
    #: checkpoint/resume swaps (repro.realtime); additive, default 0
    suspensions: int = 0
    #: live compaction relocations survived (repro.compact); additive
    relocations: int = 0
    drained: bool = False
    words_lost: int = 0
    state_words: int = 0
    failure_reason: str = ""
    #: tracer track carrying this job's lifecycle spans (``job/<name>``);
    #: join key into the Chrome trace exported by ``serve --trace-out``
    span_track: str = ""
    schema_version: int = SCHEMA_VERSION

    def to_dict(self) -> Dict:
        # every field is a scalar, so a shallow copy is asdict() without
        # its recursive deep copy (the pool builds one per finished job)
        return dict(vars(self))

    @classmethod
    def from_dict(cls, data: Dict) -> "JobReport":
        _check_schema(data, "JobReport")
        known = {f for f in cls.__dataclass_fields__}
        return cls(**{k: v for k, v in data.items() if k in known})

    @classmethod
    def from_job(
        cls,
        job,
        nominal_period_s: float = 1e-8,
    ) -> "JobReport":
        """Distill a finished runtime job into its report."""
        spec = job.spec
        queue_wait = 0.0
        if job.admitted_us is not None and job.enqueued_us is not None:
            queue_wait = max(0.0, job.admitted_us - job.enqueued_us)
        placement = 0.0
        if job.running_us is not None and job.admitted_us is not None:
            placement = max(0.0, job.running_us - job.admitted_us)
        run_us = 0.0
        if job.finished_us is not None and job.running_us is not None:
            run_us = max(0.0, job.finished_us - job.running_us)
        stats = interruption_report(
            job.receive_times,
            nominal_period_s,
            interrupted_factor=spec.slo_gap_factor,
        )
        throughput = 0.0
        if run_us > 0:
            throughput = job.words_out / (run_us / 1e6)
        return cls(
            name=spec.name,
            span_track=f"job/{spec.name}",
            index=job.index,
            state=job.state.value,
            priority=spec.priority,
            stages=len(spec.stages),
            words_in=spec.source.count,
            words_out=job.words_out,
            queue_wait_us=queue_wait,
            placement_us=placement,
            run_us=run_us,
            throughput_words_per_s=throughput,
            max_gap_us=stats.max_gap_s * 1e6,
            mean_gap_us=stats.mean_gap_s * 1e6,
            interrupted=stats.interrupted,
            attempts=job.attempts,
            evictions=job.evictions,
            fault_evictions=getattr(job, "fault_evictions", 0),
            fault_recoveries=getattr(job, "fault_recoveries", 0),
            suspensions=getattr(job, "suspensions", 0),
            relocations=getattr(job, "relocations", 0),
            drained=job.drained,
            words_lost=job.words_lost,
            state_words=len(job.state_words),
            failure_reason=job.failure_reason,
        )

    @classmethod
    def not_run(cls, spec, reason: str) -> "JobReport":
        """A FAILED report for a job that never ran (aborted by
        fail-fast, or failed by the pool before reaching a device)."""
        return cls(
            name=spec.name,
            span_track=f"job/{spec.name}",
            state="FAILED",
            priority=spec.priority,
            stages=len(spec.stages),
            words_in=spec.source.count,
            failure_reason=reason,
        )


def icap_busy_fraction(system) -> float:
    """Fraction of elapsed simulated time the ICAP spent transferring."""
    now = system.sim.now
    if now <= 0:
        return 0.0
    busy = 0
    for transfer in system.icap.history:
        # aborted transfers have duration_ps truncated to the time the
        # port was actually held, so end_ps is already correct for them
        finished = transfer.done or getattr(transfer, "aborted", False)
        end = transfer.end_ps if finished else now
        busy += max(0, min(end, now) - transfer.start_ps)
    return min(1.0, busy / now)


@dataclass
class FleetReport:
    """Aggregate outcome of one executor run (fleet or colocated)."""

    mode: str = "fleet"
    workers: int = 1
    jobs: List[JobReport] = field(default_factory=list)
    wall_seconds: float = 0.0
    sim_us: float = 0.0
    icap_busy_fraction: float = 0.0
    preemptions: int = 0
    #: live-compaction totals (repro.compact); additive, default 0
    compaction_runs: int = 0
    compaction_moves: int = 0
    compaction_words_lost: int = 0
    #: in-memory carriers only -- span events (obs.spans.SpanEvent, merged
    #: across jobs) and the merged obs.metrics.MetricsRegistry; excluded
    #: from to_dict/JSON (exported separately as Chrome trace / Prometheus
    #: text by ``serve --trace-out`` / ``--metrics-out``)
    span_events: List[Any] = field(default_factory=list, repr=False)
    metrics: Optional[Any] = field(default=None, repr=False)

    # ------------------------------------------------------------------
    @property
    def states(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for job in self.jobs:
            counts[job.state] = counts.get(job.state, 0) + 1
        return counts

    @property
    def ok(self) -> bool:
        """True when no job failed (evictions are policy, not failure)."""
        return all(job.state != "FAILED" for job in self.jobs)

    @property
    def strict_ok(self) -> bool:
        """True when every job actually completed.

        Stricter than :attr:`ok`: a terminally EVICTED job (preempted
        with no retry budget -- ``requeue_on_eviction`` off) counts as a
        failure too.  ``python -m repro serve`` exits non-zero on this,
        so batch callers cannot silently lose preempted work.
        """
        return all(
            job.state not in ("FAILED", "EVICTED") for job in self.jobs
        )

    @property
    def aggregate_throughput_words_per_s(self) -> float:
        return sum(j.throughput_words_per_s for j in self.jobs)

    def job(self, name: str) -> Optional[JobReport]:
        for report in self.jobs:
            if report.name == name:
                return report
        return None

    # ------------------------------------------------------------------
    def to_dict(self) -> Dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "mode": self.mode,
            "workers": self.workers,
            "wall_seconds": self.wall_seconds,
            "sim_us": self.sim_us,
            "icap_busy_fraction": self.icap_busy_fraction,
            "preemptions": self.preemptions,
            "compaction_runs": self.compaction_runs,
            "compaction_moves": self.compaction_moves,
            "compaction_words_lost": self.compaction_words_lost,
            "states": self.states,
            "aggregate_throughput_words_per_s":
                self.aggregate_throughput_words_per_s,
            "jobs": [job.to_dict() for job in self.jobs],
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_dict(cls, data: Dict) -> "FleetReport":
        _check_schema(data, "FleetReport")
        return cls(
            mode=data.get("mode", "fleet"),
            workers=data.get("workers", 1),
            jobs=[JobReport.from_dict(j) for j in data.get("jobs", [])],
            wall_seconds=data.get("wall_seconds", 0.0),
            sim_us=data.get("sim_us", 0.0),
            icap_busy_fraction=data.get("icap_busy_fraction", 0.0),
            preemptions=data.get("preemptions", 0),
            compaction_runs=data.get("compaction_runs", 0),
            compaction_moves=data.get("compaction_moves", 0),
            compaction_words_lost=data.get("compaction_words_lost", 0),
        )

    @classmethod
    def from_json(cls, text: str) -> "FleetReport":
        return cls.from_dict(json.loads(text))

    def render_text(self) -> str:
        lines = [
            f"fleet: mode={self.mode} workers={self.workers} "
            f"jobs={len(self.jobs)} wall={self.wall_seconds:.2f}s "
            f"sim={self.sim_us:.1f}us "
            f"icap_busy={self.icap_busy_fraction * 100:.1f}% "
            f"preemptions={self.preemptions} "
            f"compaction_moves={self.compaction_moves}",
            "states: " + ", ".join(
                f"{state}={count}" for state, count in sorted(self.states.items())
            ),
        ]
        header = (
            f"{'job':<16} {'state':<8} {'prio':>4} {'words':>7} "
            f"{'wait_us':>9} {'place_us':>9} {'thru_w/s':>12} "
            f"{'max_gap_us':>11} {'evt':>3} {'try':>3}"
        )
        lines.append(header)
        lines.append("-" * len(header))
        for job in self.jobs:
            lines.append(
                f"{job.name:<16} {job.state:<8} {job.priority:>4} "
                f"{job.words_out:>7} {job.queue_wait_us:>9.1f} "
                f"{job.placement_us:>9.1f} "
                f"{job.throughput_words_per_s:>12.0f} "
                f"{job.max_gap_us:>11.2f} {job.evictions:>3} "
                f"{job.attempts:>3}"
            )
            if job.failure_reason:
                lines.append(f"    failure: {job.failure_reason}")
        return "\n".join(lines)
