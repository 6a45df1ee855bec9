"""Preemptive EDF scheduling over the quantum-stepped executor.

:class:`EdfExecutor` subclasses :class:`~repro.runtime.executor.JobExecutor`
and changes exactly three policies:

* **ordering** -- the admission queue sorts by each job's *current*
  deadline (the deadline of its earliest frame whose output is not yet
  delivered) instead of priority; the deadline advances as frames
  complete, which is what makes time-sharing emerge naturally;
* **preemption** -- victims are residents with *strictly later*
  deadlines, latest first (classic EDF), with an optional
  ``min_resident_us`` hysteresis against thrash;
* **eviction** -- a preempted realtime job is *suspended to a
  checkpoint* through the quiescent ``CMD_CHECKPOINT`` drain
  (:meth:`JobExecutor.suspend_job`) and later resumed bit-exactly,
  instead of being restarted from word zero.

Admission adds a utilization-bound test on top of the spatial
:class:`~repro.runtime.admission.AdmissionController` checks: a job
set is only accepted while the PRR-weighted utilization
``sum(stages_i * C_i / T_i)`` stays within ``bound * healthy_PRRs``.

The module also carries the offline scorer (:class:`RealtimeReport`)
and the priority baseline runner so the EDF-vs-priority ablation reads
both schedulers off the same ruler.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.core.params import SystemParameters
from repro.realtime.checkpoint import CheckpointStore, JobCheckpoint
from repro.realtime.specs import (
    FrameOutcome,
    RealtimeError,
    RealtimeJob,
    frame_outcomes,
)
from repro.runtime.admission import (
    AdmissionController,
    AdmissionDecision,
    AdmissionResult,
)
from repro.runtime.executor import ExecutorConfig, JobExecutor
from repro.runtime.jobs import Job, JobState
from repro.runtime.telemetry import FleetReport


class DeadlineAdmission(AdmissionController):
    """Deadline-ordered admission with a utilization-bound gate.

    ``deadline_of`` maps a runtime job to its current absolute deadline
    (simulated us; ``inf`` for non-realtime jobs, which then fall back
    to priority order among themselves).  ``utilization_of`` maps a job
    to its PRR-weighted utilization for the bound test; jobs with zero
    utilization (non-realtime) bypass the gate.
    """

    def __init__(
        self,
        params: SystemParameters,
        floorplan=None,
        allow_preemption: bool = True,
        deadline_of: Optional[Callable[[Job], float]] = None,
        utilization_of: Optional[Callable[[Job], float]] = None,
        utilization_bound: float = 1.0,
        min_resident_us: float = 0.0,
    ) -> None:
        super().__init__(
            params,
            floorplan=floorplan,
            allow_preemption=allow_preemption,
        )
        self.deadline_of = deadline_of or (lambda job: float("inf"))
        self.utilization_of = utilization_of or (lambda job: 0.0)
        self.utilization_bound = utilization_bound
        self.min_resident_us = min_resident_us
        self._util_by_job: Dict[str, float] = {}
        self._decision_now_us = 0.0

    # ------------------------------------------------------------------
    def _queue_key(self, job: Job):
        return (
            self.deadline_of(job),
            -job.spec.priority,
            job.spec.arrival_us,
            job.index,
        )

    def resort(self) -> None:
        """Re-sort the wait queue; deadlines move as frames complete."""
        self._pending.sort(key=self._queue_key)

    # ------------------------------------------------------------------
    def utilization_capacity(self) -> float:
        healthy = len(set(self._prr_slices) - self._quarantined)
        return self.utilization_bound * healthy

    @property
    def admitted_utilization(self) -> float:
        return sum(self._util_by_job.values())

    def enqueue(self, job: Job, now_us: float = 0.0) -> AdmissionResult:
        name = job.spec.name
        if name not in self._util_by_job:
            utilization = self.utilization_of(job)
            if utilization > 0.0:
                headroom = (
                    self.utilization_capacity()
                    - self.admitted_utilization
                )
                if utilization > headroom + 1e-9:
                    return AdmissionResult(
                        AdmissionDecision.REJECT,
                        reason=(
                            "EDF utilization bound exceeded: job needs "
                            f"{utilization:.3f} PRRs long-run, "
                            f"{max(0.0, headroom):.3f} of "
                            f"{self.utilization_capacity():.3f} remain"
                        ),
                    )
                self._util_by_job[name] = utilization
        result = super().enqueue(job, now_us)
        if result.decision is AdmissionDecision.REJECT:
            self._util_by_job.pop(name, None)
        return result

    def retire(self, job: Job) -> None:
        """Return a finished job's utilization share to the pool."""
        self._util_by_job.pop(job.spec.name, None)

    # ------------------------------------------------------------------
    def next_decision(self, now_us: float, resident_jobs: List[Job]):
        self._decision_now_us = now_us
        return super().next_decision(now_us, resident_jobs)

    def _plan_preemption(
        self, job: Job, resident_jobs: List[Job]
    ) -> List[Job]:
        """EDF victim choice: strictly-later deadlines, latest first."""
        horizon = self.deadline_of(job)
        now = self._decision_now_us
        candidates = []
        for resident in resident_jobs:
            if not resident.spec.preemptible:
                continue
            if resident.spec.name not in self._resident:
                continue
            if resident.state not in (
                JobState.ADMITTED, JobState.PLACING, JobState.RUNNING,
            ):
                continue
            if not self.deadline_of(resident) > horizon:
                continue
            if (
                self.min_resident_us > 0.0
                and resident.state is JobState.RUNNING
                and resident.running_us is not None
                and now - resident.running_us < self.min_resident_us
            ):
                continue
            candidates.append(resident)
        if not candidates:
            return []
        candidates.sort(
            key=lambda v: (
                -self.deadline_of(v), -(v.admitted_us or 0.0), -v.index,
            )
        )
        victims: List[Job] = []
        for victim in candidates:
            victims.append(victim)
            if self._fits_after_evicting(job, victims):
                return victims
        return []


# ----------------------------------------------------------------------
# report
# ----------------------------------------------------------------------
def output_fingerprint(words: Sequence[int]) -> str:
    """CRC-32 over the output stream as 4-byte big-endian words."""
    payload = b"".join(
        struct.pack(">I", word & 0xFFFFFFFF) for word in words
    )
    return f"{zlib.crc32(payload):08x}"


@dataclass
class RealtimeJobOutcome:
    """One realtime job's scorecard."""

    name: str
    tenant: str
    state: str
    frames: int
    hits: int
    misses: int
    suspensions: int
    evictions: int
    words_out: int
    words_lost: int
    fingerprint: str
    outcomes: List[FrameOutcome] = field(default_factory=list)

    @property
    def hit_rate(self) -> float:
        return self.hits / self.frames if self.frames else 1.0


@dataclass
class RealtimeReport:
    """Scheduler-agnostic scorecard of one realtime run."""

    scheduler: str
    fleet: FleetReport
    jobs: List[RealtimeJobOutcome]
    utilization: float = 0.0
    capacity: float = 0.0

    @property
    def frames_total(self) -> int:
        return sum(job.frames for job in self.jobs)

    @property
    def hits_total(self) -> int:
        return sum(job.hits for job in self.jobs)

    @property
    def misses_total(self) -> int:
        return sum(job.misses for job in self.jobs)

    @property
    def hit_rate(self) -> float:
        total = self.frames_total
        return self.hits_total / total if total else 1.0

    @property
    def preemptions(self) -> int:
        return self.fleet.preemptions

    @property
    def suspensions_total(self) -> int:
        return sum(job.suspensions for job in self.jobs)

    @property
    def ok(self) -> bool:
        return all(job.state == "DONE" for job in self.jobs)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "scheduler": self.scheduler,
            "utilization": self.utilization,
            "capacity": self.capacity,
            "frames_total": self.frames_total,
            "hits_total": self.hits_total,
            "misses_total": self.misses_total,
            "hit_rate": self.hit_rate,
            "preemptions": self.preemptions,
            "suspensions_total": self.suspensions_total,
            "sim_us": self.fleet.sim_us,
            "ok": self.ok,
            "jobs": [
                {
                    "name": job.name,
                    "tenant": job.tenant,
                    "state": job.state,
                    "frames": job.frames,
                    "hits": job.hits,
                    "misses": job.misses,
                    "hit_rate": job.hit_rate,
                    "suspensions": job.suspensions,
                    "evictions": job.evictions,
                    "words_out": job.words_out,
                    "words_lost": job.words_lost,
                    "fingerprint": job.fingerprint,
                    "frame_deadlines_us": [
                        o.deadline_us for o in job.outcomes
                    ],
                    "frame_hits": [o.hit for o in job.outcomes],
                }
                for job in self.jobs
            ],
        }

    def render_text(self) -> str:
        lines = [
            f"realtime run: scheduler={self.scheduler} "
            f"utilization={self.utilization:.2f}/{self.capacity:.2f} PRRs "
            f"sim={self.fleet.sim_us:.0f}us",
            f"frames: {self.hits_total}/{self.frames_total} hit "
            f"({self.hit_rate:.1%}), {self.preemptions} preemptions, "
            f"{self.suspensions_total} suspensions",
        ]
        header = (
            f"{'job':<16} {'tenant':<10} {'state':<10} {'frames':>6} "
            f"{'hit':>5} {'miss':>5} {'susp':>5} {'fingerprint':>11}"
        )
        lines.append(header)
        lines.append("-" * len(header))
        for job in self.jobs:
            lines.append(
                f"{job.name:<16} {job.tenant:<10} {job.state:<10} "
                f"{job.frames:>6} {job.hits:>5} {job.misses:>5} "
                f"{job.suspensions:>5} {job.fingerprint:>11}"
            )
        return "\n".join(lines)


def score_run(
    scheduler: str,
    fleet: FleetReport,
    rt_jobs: Sequence[RealtimeJob],
    runtime_jobs: Sequence[Job],
    params: SystemParameters,
    utilization_bound: float = 1.0,
) -> RealtimeReport:
    """Judge a finished run's frames from the jobs' output timelines."""
    by_name = {job.spec.name: job for job in runtime_jobs}
    outcomes: List[RealtimeJobOutcome] = []
    for rt in rt_jobs:
        job = by_name.get(rt.name)
        if job is None:
            raise RealtimeError(f"run is missing job {rt.name!r}")
        segments = job.output_history or [list(job.receive_times)]
        frames = frame_outcomes(rt, segments)
        hits = sum(1 for frame in frames if frame.hit)
        outcomes.append(
            RealtimeJobOutcome(
                name=rt.name,
                tenant=rt.tenant,
                state=job.state.value,
                frames=rt.frames,
                hits=hits,
                misses=rt.frames - hits,
                suspensions=job.suspensions,
                evictions=job.evictions,
                words_out=job.words_out,
                words_lost=job.words_lost,
                fingerprint=output_fingerprint(
                    job.output_words
                    or (list(job.iom.received) if job.iom else [])
                ),
                outcomes=frames,
            )
        )
    total_prrs = params.total_prrs
    return RealtimeReport(
        scheduler=scheduler,
        fleet=fleet,
        jobs=outcomes,
        utilization=sum(rt.prr_utilization(params) for rt in rt_jobs),
        capacity=utilization_bound * total_prrs,
    )


# ----------------------------------------------------------------------
# the EDF executor
# ----------------------------------------------------------------------
class EdfExecutor(JobExecutor):
    """Preemptive EDF serving loop with checkpoint/restore swaps."""

    def __init__(
        self,
        params: Optional[SystemParameters] = None,
        config: Optional[ExecutorConfig] = None,
        utilization_bound: float = 1.0,
        min_resident_us: float = 0.0,
        checkpoints: Optional[CheckpointStore] = None,
    ) -> None:
        super().__init__(params=params, config=config)
        self.utilization_bound = utilization_bound
        self.checkpoints = checkpoints or CheckpointStore()
        self.rt_index: Dict[str, RealtimeJob] = {}
        self._required: Dict[str, List[int]] = {}
        self._frame_deadlines: Dict[str, List[float]] = {}
        self._judged: Dict[str, int] = {}
        # swap the priority admission for the deadline-ordered one
        self.admission = DeadlineAdmission(
            self.params,
            floorplan=self.system.floorplan,
            allow_preemption=True,
            deadline_of=self._deadline_of,
            utilization_of=self._utilization_of,
            utilization_bound=utilization_bound,
            min_resident_us=min_resident_us,
        )
        self.admission.bind_metrics(self.system.sim.metrics)

    # ------------------------------------------------------------------
    # policy callbacks
    # ------------------------------------------------------------------
    def _progress_of(self, job: Job) -> int:
        delivered = len(job.prior_received)
        if job.iom is not None:
            delivered += len(job.iom.received)
        return delivered

    def _deadline_of(self, job: Job) -> float:
        """Current absolute deadline: earliest frame not yet delivered."""
        name = job.spec.name
        required = self._required.get(name)
        if required is None:
            return float("inf")
        delivered = self._progress_of(job)
        deadlines = self._frame_deadlines[name]
        for index, need in enumerate(required):
            if delivered < need:
                return deadlines[index]
        return float("inf")

    def _utilization_of(self, job: Job) -> float:
        rt = self.rt_index.get(job.spec.name)
        if rt is None:
            return 0.0
        return rt.prr_utilization(self.params)

    # ------------------------------------------------------------------
    # executor overrides
    # ------------------------------------------------------------------
    def _admit(self) -> None:
        if self.rt_index:
            self._account_deadlines()
            self.admission.resort()
        super()._admit()

    def _evict(self, victim: Job, evicted_by: Job) -> None:
        if victim.spec.name in self.rt_index and self.suspend_job(
            victim, requested_by=evicted_by
        ):
            return
        super()._evict(victim, evicted_by)

    def suspend_job(
        self, job: Job, requested_by: Optional[Job] = None
    ) -> bool:
        assignment = job.assignment
        suspended = super().suspend_job(job, requested_by=requested_by)
        if (
            suspended
            and job.resume is not None
            and assignment is not None
        ):
            self.checkpoints.put(
                JobCheckpoint.from_resume(
                    job.spec,
                    job.resume,
                    prrs=assignment.prrs,
                    slices_needed=self.admission._stage_slices(job),
                )
            )
        return suspended

    def _start_placement(self, job: Job) -> None:
        if job.resume is not None and job.assignment is not None:
            checkpoint = self.checkpoints.take(job.spec.name)
            if checkpoint is not None:
                targets = [
                    self.admission._prr_slices.get(prr, 0)
                    for prr in job.assignment.prrs
                ]
                if not checkpoint.compatible_with(targets):
                    self._fail(
                        job, "checkpoint incompatible with assigned PRR shape"
                    )
                    return
        super()._start_placement(job)

    def _complete(self, job: Job) -> None:
        super()._complete(job)
        self.admission.retire(job)

    # ------------------------------------------------------------------
    # live deadline accounting (feeds the obs counters; the report is
    # judged offline from output timelines after the run)
    # ------------------------------------------------------------------
    def _account_deadlines(self) -> None:
        now = self._now_us
        metrics = self.system.sim.metrics
        for job in self._jobs:
            rt = self.rt_index.get(job.spec.name)
            if rt is None:
                continue
            name = job.spec.name
            deadlines = self._frame_deadlines[name]
            required = self._required[name]
            judged = self._judged.get(name, 0)
            delivered = self._progress_of(job)
            while judged < len(deadlines) and now >= deadlines[judged]:
                family = (
                    "repro_deadline_hit_total"
                    if delivered >= required[judged]
                    else "repro_deadline_miss_total"
                )
                metrics.counter(
                    family, labels={"tenant": rt.tenant}
                ).inc()
                judged += 1
            self._judged[name] = judged

    # ------------------------------------------------------------------
    def run_realtime(
        self, rt_jobs: Sequence[RealtimeJob]
    ) -> RealtimeReport:
        """Serve a realtime job set under EDF and score every frame."""
        names = [rt.name for rt in rt_jobs]
        if len(names) != len(set(names)):
            raise RealtimeError("realtime job names must be unique")
        self.rt_index = {rt.name: rt for rt in rt_jobs}
        self._required = {
            rt.name: rt.frame_required() for rt in rt_jobs
        }
        self._frame_deadlines = {
            rt.name: rt.frame_deadlines_us() for rt in rt_jobs
        }
        self._judged = {rt.name: 0 for rt in rt_jobs}
        specs = [rt.to_stream_job() for rt in rt_jobs]
        fleet = self.run(specs)
        # judge frames whose deadlines fall past the end of the run
        self._account_deadlines()
        return score_run(
            "edf", fleet, rt_jobs, self._jobs, self.params,
            utilization_bound=self.utilization_bound,
        )


# ----------------------------------------------------------------------
# the priority baseline (ablation arm)
# ----------------------------------------------------------------------
def run_priority_baseline(
    rt_jobs: Sequence[RealtimeJob],
    params: Optional[SystemParameters] = None,
    config: Optional[ExecutorConfig] = None,
) -> RealtimeReport:
    """Serve the same job set with the existing priority scheduler.

    Jobs run preemptible with ``requeue_on_eviction`` -- the pre-realtime
    behaviour: an evicted job restarts its stream from word zero, and
    ties are broken by static priority, deadline-blind.
    """
    executor = JobExecutor(params=params, config=config)
    specs = [rt.to_stream_job(requeue_on_eviction=True) for rt in rt_jobs]
    fleet = executor.run(specs)
    return score_run(
        "priority", fleet, rt_jobs, executor._jobs, executor.params,
    )
