"""The job executor: one event loop per simulated VAPRES system.

:class:`JobExecutor` is the multi-tenant serving loop for **one**
simulated VAPRES instance: it admits jobs through the
:class:`~repro.runtime.admission.AdmissionController`, places their
stages by queueing partial reconfigurations on the single ICAP
(:class:`~repro.pr.scheduler.ReconfigScheduler`), opens their streaming
channels through the Table-2 software API on the simulated MicroBlaze,
advances simulated time in fixed quanta, and retires jobs as their
sources drain.  Preemption evicts lower-priority jobs through the
Figure-5 drain path (:meth:`~repro.core.switching.ModuleSwitcher.drain`)
so surviving streams never see an interruption.

Independent jobs scale out through :func:`repro.pool.run_batch`, which
runs each one single-tenant on a fresh :class:`JobExecutor` inside a
:class:`~repro.pool.DevicePool` worker.  Job outcomes are bit-identical
for any worker count: every job's seed derives from its own name, so
placement affects wall-clock only.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Callable,
    Generator,
    List,
    Optional,
    Sequence,
)

if TYPE_CHECKING:  # deferred at runtime: repro.faults imports this module
    from repro.faults.model import CampaignConfig
    from repro.faults.plant import FaultPlant
    from repro.obs.live import TraceContext

from repro.control.microblaze import DcrWrite, Delay
from repro.core.params import SystemParameters
from repro.core.switching import ModuleSwitcher
from repro.core.system import VapresSystem
from repro.modules.base import CMD_CHECKPOINT, CMD_START, MSG_CKPT, staged
from repro.modules.iom import Iom
from repro.obs.metrics import (
    describe_compaction_metrics,
    describe_realtime_metrics,
)
from repro.pr.relocation import can_relocate
from repro.pr.scheduler import ReconfigScheduler
from repro.runtime.admission import (
    AdmissionController,
    AdmissionDecision,
)
from repro.runtime.jobs import (
    Job,
    JobError,
    JobState,
    ResumeState,
    StreamJob,
)
from repro.runtime.telemetry import (
    FleetReport,
    JobReport,
    icap_busy_fraction,
)

#: wall-clock bucket bounds (seconds) for the per-quantum latency histogram
QUANTUM_BUCKETS = (0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0)

#: simulated-us bounds for checkpoint save/restore latency histograms
CHECKPOINT_BUCKETS = (1.0, 2.5, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 1000.0)

#: states in which a job holds fabric resources
RESIDENT_STATES = (JobState.ADMITTED, JobState.PLACING, JobState.RUNNING)

#: simulated-us bounds for per-relocation compaction latency (dominated
#: by the overlapped step-3 reconfiguration of the target PRR)
COMPACTION_BUCKETS = (10.0, 25.0, 50.0, 100.0, 250.0, 500.0, 1000.0, 2500.0)


@dataclass
class ExecutorConfig:
    """Tuning knobs of the serving loop (simulated-time units)."""

    #: simulated time advanced per scheduling round
    quantum_us: float = 25.0
    #: hard budget of simulated time for one run; jobs still live at the
    #: end fail with "runtime budget exhausted"
    max_us: float = 100_000.0
    #: consecutive idle polls (source exhausted, no new output words)
    #: before a running job counts as complete
    idle_streak: int = 3
    allow_preemption: bool = True
    #: dispatch steady-state clock windows through the compiled-schedule
    #: fast path (repro.sim.fastpath); behaviour is bit-identical either
    #: way, so this only exists to measure or rule out the fast path
    use_fastpath: bool = True
    #: abort the whole run as soon as one job ends FAILED or terminally
    #: EVICTED: remaining non-terminal jobs fail with an "aborted by
    #: fail-fast" reason instead of running to completion
    fail_fast: bool = False
    #: optional fault campaign (repro.faults); None = no fault plant
    faults: Optional["CampaignConfig"] = None
    #: live PRR compaction (repro.compact): "on" relocates resident
    #: modules over the Figure-5 path when -- and only when -- a queued
    #: job is blocked by fragmentation rather than capacity
    compaction: str = "off"

    def __post_init__(self) -> None:
        if self.quantum_us <= 0 or self.max_us <= 0:
            raise JobError("quantum_us and max_us must be positive")
        if self.idle_streak < 1:
            raise JobError("idle_streak must be >= 1")
        if self.compaction not in ("off", "on"):
            raise JobError(
                f"compaction must be 'off' or 'on', got "
                f"{self.compaction!r}"
            )

    @classmethod
    def from_dict(cls, data: dict) -> "ExecutorConfig":
        allowed = {
            "quantum_us", "max_us", "idle_streak", "allow_preemption",
            "use_fastpath", "fail_fast", "faults", "compaction",
        }
        unknown = set(data) - allowed
        if unknown:
            raise JobError(f"unknown executor keys {sorted(unknown)}")
        data = dict(data)
        faults = data.pop("faults", None)
        if isinstance(faults, dict):
            from repro.faults.model import CampaignConfig

            faults = CampaignConfig.from_dict(faults)
        return cls(faults=faults, **data)


class JobExecutor:
    """Multi-tenant serving loop over one simulated VAPRES system."""

    def __init__(
        self,
        params: Optional[SystemParameters] = None,
        config: Optional[ExecutorConfig] = None,
    ) -> None:
        self.params = params or SystemParameters.prototype()
        self.config = config or ExecutorConfig()
        self.system = VapresSystem(self.params)
        self.system.sim.set_fastpath(self.config.use_fastpath)
        self.scheduler = ReconfigScheduler(self.system.engine)
        self.switcher = ModuleSwitcher(self.system)
        self.admission = AdmissionController(
            self.params,
            floorplan=self.system.floorplan,
            allow_preemption=self.config.allow_preemption,
        )
        self.preemptions = 0
        self._jobs: List[Job] = []
        #: optional observer fired once per job when its first output
        #: word reaches the IOM (the pool bridge streams it to tenants
        #: as a submit-to-first-sample latency marker)
        self.on_first_sample: Optional[Callable[[Job], None]] = None
        #: optional live-telemetry hook: fired every
        #: ``snapshot_every_quanta`` scheduling quanta so the pool
        #: bridge can ship a metrics/span snapshot mid-run.  Disabled
        #: (the default) costs one attribute check per quantum.
        self.on_snapshot: Optional[Callable[["JobExecutor"], None]] = None
        self.snapshot_every_quanta = 0
        self._quanta_since_snapshot = 0
        #: parent-span context propagated from a submitting pool; when
        #: set, each job's trace records it so device-side shards can be
        #: stitched onto the submitter's timeline by ``trace_id``
        self.trace_context: Optional["TraceContext"] = None
        self.plant: Optional["FaultPlant"] = None
        self.fault_evictions = 0
        self.fig5_recoveries = 0
        self.fig5_samples_lost = 0
        # live-compaction bookkeeping (repro.compact)
        self.compaction_runs = 0
        self.compaction_moves = 0
        self.compaction_samples_lost = 0
        #: residency fingerprint of the last planner run that produced
        #: no moves; skip re-planning until occupancy actually changes
        self._compaction_futile_token: Optional[tuple] = None
        if self.config.faults is not None:
            from repro.faults.plant import FaultPlant

            self.plant = FaultPlant(
                self.system, self.scheduler, self.config.faults
            )
            # this executor owns the escalation path: escalated frame
            # faults become Figure 5 module replacements, not rewrites
            self.plant.has_replacement_owner = True
        self.system.bind_metrics()
        self.admission.bind_metrics(self.system.sim.metrics)
        describe_realtime_metrics(self.system.sim.metrics)
        describe_compaction_metrics(self.system.sim.metrics)

    # ------------------------------------------------------------------
    @property
    def _now_us(self) -> float:
        return self.system.sim.now / 1e6

    # ------------------------------------------------------------------
    # observability helpers (one tracer track per job: ``job/<name>``)
    # ------------------------------------------------------------------
    def _job_track(self, job: Job) -> str:
        return f"job/{job.spec.name}"

    def _job_instant(self, job: Job, name: str, **attrs) -> None:
        self.system.sim.tracer.instant(
            name, category="job", track=self._job_track(job),
            attrs=attrs or None,
        )

    def _refresh_gauges(self) -> None:
        metrics = self.system.sim.metrics
        for rsb in self.system.rsbs:
            total = sum(box.lane_count for box in rsb.switchboxes)
            used = sum(box.lanes_in_use for box in rsb.switchboxes)
            metrics.gauge(
                "repro_lane_utilization", labels={"rsb": rsb.name}
            ).set(used / total if total else 0.0)
        for slot in self.system.prr_slots:
            metrics.gauge(
                "repro_prr_lcd_frequency_hz", labels={"prr": slot.name}
            ).set(slot.lcd_clock.frequency_hz)

    def _resident_jobs(self) -> List[Job]:
        return [job for job in self._jobs if job.state in RESIDENT_STATES]

    # ------------------------------------------------------------------
    # the event loop
    # ------------------------------------------------------------------
    def run(self, specs: Sequence[StreamJob]) -> FleetReport:
        """Serve ``specs`` to completion; returns the run's telemetry."""
        started_wall = time.perf_counter()
        self._jobs = [Job(spec, index=i) for i, spec in enumerate(specs)]
        self.system.start()
        if self.plant is not None:
            self.plant.start()
        for job in self._jobs:
            result = self.admission.enqueue(job, self._now_us)
            if result.decision is AdmissionDecision.REJECT:
                job.fail(f"rejected at admission: {result.reason}",
                         self._now_us)
                self._job_instant(job, "rejected", reason=result.reason)
            else:
                self._job_instant(
                    job, "queued", priority=job.spec.priority
                )
            if self.trace_context is not None:
                self._job_instant(
                    job, "trace-context", **self.trace_context.to_attrs()
                )
        while True:
            self._admit()
            self._progress_placements()
            self._poll_running()
            if self.config.fail_fast and self._abort_on_failure():
                break
            if all(job.terminal for job in self._jobs):
                if self.plant is None or not self._faults_pending():
                    break
            if self._now_us > self.config.max_us:
                for job in self._jobs:
                    if not job.terminal:
                        reason = "runtime budget exhausted"
                        if job.state is JobState.QUEUED:
                            # say why the job never started: capacity vs
                            # fragmentation (the compaction trigger)
                            block = self.admission.classify_block(job)
                            if block is not None:
                                reason = (
                                    f"runtime budget exhausted while "
                                    f"queued ({block.detail})"
                                )
                        self._fail(job, reason)
                break
            quantum_started = time.perf_counter()
            self.system.run_for_us(self.config.quantum_us)
            self.system.sim.metrics.histogram(
                "repro_executor_quantum_seconds", buckets=QUANTUM_BUCKETS
            ).observe(time.perf_counter() - quantum_started)
            self._refresh_gauges()
            if self.on_snapshot is not None and self.snapshot_every_quanta > 0:
                self._quanta_since_snapshot += 1
                if self._quanta_since_snapshot >= self.snapshot_every_quanta:
                    self._quanta_since_snapshot = 0
                    self.on_snapshot(self)
            if self.plant is not None:
                self._service_faults()
        return self._report(time.perf_counter() - started_wall)

    def _abort_on_failure(self) -> bool:
        """Fail-fast: one FAILED/EVICTED job aborts the rest of the run.

        Remaining non-terminal jobs are torn down and failed with an
        explicit reason so the report (and the ``serve`` exit code)
        shows why they never completed.  Returns True when the run
        should stop.
        """
        trigger = next(
            (
                job for job in self._jobs
                if job.state in (JobState.FAILED, JobState.EVICTED)
            ),
            None,
        )
        if trigger is None:
            return False
        reason = (
            f"aborted by fail-fast after job {trigger.spec.name!r} "
            f"ended {trigger.state.value}"
        )
        for job in self._jobs:
            if not job.terminal:
                self._fail(job, reason)
        return True

    # ------------------------------------------------------------------
    # fault servicing (repro.faults)
    # ------------------------------------------------------------------
    def _faults_pending(self) -> bool:
        """Keep simulating past job completion while the campaign runs.

        A campaign covers its whole injection window (faults land in
        idle PRRs too) and then drains outstanding *frame* faults --
        those are always repairable by scrub + rewrite even with no job
        resident.  Channel/FIFO faults need live streams and are simply
        dropped by the injector once the jobs are gone.  ``max_us``
        still bounds the run.
        """
        from repro.faults.model import FaultClass

        if self._now_us < self.config.faults.duration_us:
            return True
        return bool(
            self.plant.ledger.open_events(
                classes=(FaultClass.SEU_FRAME, FaultClass.ICAP_CORRUPT),
            )
        )

    def _service_faults(self) -> None:
        plant = self.plant
        plant.poll()
        for prr in plant.take_repaired():
            self.admission.mark_repaired(prr)
        for prr in plant.take_quarantines():
            self.admission.quarantine(prr)
            self.system.sim.log(
                "runtime", f"PRR {prr} quarantined; admission budget shrunk"
            )
        for prr in plant.take_replacements():
            self._replace_module(prr)
        for channel, via in plant.take_lane_faults():
            self._handle_lane_fault(channel, via)

    def _job_on_prr(self, prr: str) -> Optional[Job]:
        resident = self._resident_jobs()
        return next((j for j in resident if prr in j.assignment.prrs), None)

    def _replace_module(self, prr: str) -> None:
        """Escalated frame fault: re-land the module on a healthy PRR."""
        job = self._job_on_prr(prr)
        if job is None or job.state is not JobState.RUNNING:
            # nothing streaming there: an in-place rewrite is enough
            self.plant.complete_replacement(prr, ok=False)
            return
        spare = self.admission.find_replacement(job, prr)
        if spare is None:
            self.plant.complete_replacement(prr, ok=False)
            self._evict_for_fault(
                job, prr, "no healthy spare PRR for replacement"
            )
            return
        if self.move_stage(job, prr, spare, "heal"):
            self.plant.complete_replacement(prr, ok=True)
        else:
            self.plant.complete_replacement(prr, ok=False)
            self._evict_for_fault(job, prr, "module replacement failed")

    def move_stage(
        self, job: Job, old_prr: str, new_prr: str, reason: str
    ) -> bool:
        """Live-move one running stage onto ``new_prr`` (Figure 5).

        Registers the replacement module, preloads its bitstream, drives
        :meth:`ModuleSwitcher.switch` on the MicroBlaze and re-points the
        job's channel/module bookkeeping.  ``reason`` is ``"heal"`` (off
        a faulted PRR, ``.rN`` modules) or ``"compact"`` (live
        compaction, ``.cN`` modules); it keys the module suffix, the
        counters, the admission-ledger update and the trace instant.
        Returns False when the switch could not run (ICAP busy with a
        non-preemptible transfer, or the software raised).
        """
        heal = reason == "heal"
        stage_index = job.assignment.prrs.index(old_prr)
        stage = job.spec.stages[stage_index]
        chain = job.assignment.chain
        count = (job.fault_recoveries if heal else job.relocations) + 1
        new_name = (
            f"{job.spec.name}/{stage_index}.{stage.kind}"
            f".{'r' if heal else 'c'}{count}"
        )
        # the switch software drives the engine directly: clear the port
        self.scheduler.hold()
        if self.scheduler.busy:
            self.scheduler.preempt_active()
        if self.system.icap.busy or self.scheduler.busy:
            # a non-preemptible write is in flight; do not wait for it
            self.scheduler.resume()
            return False
        try:
            self._register(job, stage, new_name, new_prr)
            report = self.system.microblaze.run_to_completion(
                self.switcher.switch(
                    old_prr=old_prr,
                    new_prr=new_prr,
                    new_module=new_name,
                    upstream_slot=chain[stage_index],
                    downstream_slot=chain[stage_index + 2],
                    input_channel=job.channels[stage_index],
                    output_channel=job.channels[stage_index + 1],
                    reconfig_path=job.spec.reconfig_path,
                ),
                f"{job.spec.name}-{reason}",
            )
        except Exception as exc:  # noqa: BLE001 - caller decides fallback
            self.system.sim.log(
                "runtime",
                f"module switch off {old_prr} failed: {exc}",
            )
            return False
        finally:
            self.scheduler.resume()
        job.channels[stage_index] = report.input_channel
        job.channels[stage_index + 1] = report.output_channel
        job.module_names[stage_index] = new_name
        lost = report.words_lost
        job.words_lost += lost
        if heal:
            job.fault_recoveries += 1
            self.fig5_recoveries += 1
            self.fig5_samples_lost += lost
            self.admission.reassign(job, old_prr, new_prr)
            metrics = self.system.sim.metrics
            metrics.counter("repro_fault_fig5_recoveries_total").inc()
            metrics.counter("repro_fault_fig5_lost_words_total").inc(lost)
            self._job_instant(
                job, "healed", prr=old_prr, spare=new_prr, words_lost=lost
            )
        else:
            job.relocations += 1
            self.compaction_moves += 1
            self.compaction_samples_lost += lost
            self.admission.relocate(job, old_prr, new_prr)
            self._job_instant(
                job, "relocated", prr=old_prr, to=new_prr, words_lost=lost
            )
        return True

    # ------------------------------------------------------------------
    # live compaction (repro.compact)
    # ------------------------------------------------------------------
    def _maybe_compact(self) -> bool:
        """Compact when -- and only when -- a job is fragmentation-blocked.

        Scans the wait queue for a job that is due *now* and that
        :meth:`AdmissionController.classify_block` says is blocked by
        fragmentation rather than capacity.  A residency-fingerprint
        token suppresses replanning while occupancy is unchanged since
        the last pass that produced no moves.
        """
        if self.config.compaction != "on":
            return False
        now = self._now_us
        blocked = None
        for job in self.admission.pending_jobs():
            if job.spec.arrival_us > now or job.next_attempt_us > now:
                continue
            reason = self.admission.classify_block(job)
            if reason is not None and reason.kind == "fragmentation":
                blocked = job
                break
        if blocked is None:
            return False
        # include job state: modules still PLACING are not movable yet,
        # so reaching RUNNING must invalidate a futile verdict
        token = tuple(sorted(
            (job.spec.name, job.state.value, tuple(job.assignment.prrs))
            for job in self._resident_jobs()
            if job.assignment is not None
        ))
        if token == self._compaction_futile_token:
            return False
        moved = self.compact(trigger=blocked.spec.name)
        if moved == 0:
            self._compaction_futile_token = token
            return False
        self._compaction_futile_token = None
        return True

    def _move_ok(self, job_name: str, old: str, new: str) -> bool:
        """Planner veto: only bitstream-compatible targets are movable."""
        prrs = self.system.floorplan.prrs
        if old in prrs and new in prrs:
            return can_relocate(prrs[old], prrs[new])
        return (
            self.admission.prr_capacity(new)
            >= self.admission.prr_capacity(old)
        )

    def compact(self, trigger: str = "manual") -> int:
        """One live compaction pass; returns relocations performed.

        Plans over the current residency (only RUNNING jobs are
        movable), then applies the moves one Figure-5 drain-switch at a
        time between scheduling quanta -- each move drains the stage,
        overlaps the target PRR's reconfiguration, and re-points the
        channels with zero sample loss.  Aborts the remaining sequence
        on the first move the switch software refuses.
        """
        from repro.compact.planner import (
            plan_compaction,
            view_from_admission,
        )

        movable = {
            job.spec.name: job
            for job in self._jobs
            if job.state is JobState.RUNNING and job.assignment is not None
        }
        views = view_from_admission(self.admission, movable=set(movable))
        plan = plan_compaction(views, move_ok=self._move_ok)
        if plan.empty:
            return 0
        before_total, before_largest = plan.before
        frag_before = (
            0.0 if before_total == 0
            else 1.0 - before_largest / before_total
        )
        metrics = self.system.sim.metrics
        tracer = self.system.sim.tracer
        tracer.begin(
            "compact", category="compact", track="compact",
            attrs={
                "trigger": trigger,
                "moves_planned": len(plan.moves),
                "largest_free_run_before": before_largest,
            },
        )
        done = 0
        try:
            for move in plan.moves:
                job = movable.get(move.job)
                if job is None or job.state is not JobState.RUNNING:
                    break
                started = self._now_us
                if not self.move_stage(
                    job, move.old_prr, move.new_prr, "compact"
                ):
                    break
                metrics.counter(
                    "repro_compaction_moves_total",
                    labels={"tenant": self._tenant()},
                ).inc()
                metrics.histogram(
                    "repro_compaction_latency_us",
                    buckets=COMPACTION_BUCKETS,
                ).observe(self._now_us - started)
                done += 1
        finally:
            after_total, after_largest = self.admission.free_run_stats()
            frag_after = (
                0.0 if after_total == 0
                else 1.0 - after_largest / after_total
            )
            metrics.counter("repro_compaction_runs_total").inc()
            metrics.gauge(
                "repro_compaction_frag_ratio_before"
            ).set(frag_before)
            metrics.gauge(
                "repro_compaction_frag_ratio_after"
            ).set(frag_after)
            self.compaction_runs += 1
            tracer.end(
                "compact", track="compact",
                attrs={
                    "moves_done": done,
                    "largest_free_run_after": after_largest,
                },
            )
        return done

    def _evict_for_fault(
        self, job: Job, prr: Optional[str], reason: str
    ) -> None:
        """Fault-aware retry: drain, requeue on healthy resources.

        Unlike priority preemption this ignores ``requeue_on_eviction``
        -- re-landing faulted work is the executor's own resilience
        policy -- but it is bounded by the campaign's
        ``max_fault_retries``.
        """
        self.fault_evictions += 1
        job.fault_evictions += 1
        if prr is not None:
            self.admission.mark_faulted(prr)
        retries = (
            self.config.faults.max_fault_retries
            if self.config.faults is not None else 0
        )
        exhausted = job.fault_evictions > retries
        failure = f"faulted repeatedly: {reason}"
        self.vacate(
            job, "drain", JobState.FAILED if exhausted else JobState.QUEUED,
            failure,
        )
        job.evictions += 1
        self.system.sim.metrics.counter("repro_fault_evictions_total").inc()
        self.system.sim.log(
            "runtime", f"job {job.spec.name} evicted by fault: {reason}"
        )
        self._job_instant(job, "fault-evicted", reason=reason)
        if exhausted:
            self._job_instant(job, "failed", reason=failure)

    def _handle_lane_fault(self, channel, via: str) -> None:
        """A latched stuck-at lane: reroute the owning job's stream."""
        job = next(
            (
                j for j in self._jobs
                if not j.terminal and channel in j.channels
            ),
            None,
        )
        # the reroute abandons these physical lanes; clearing the latch
        # models the DCR write that disconnects the switch-box port
        self.plant.complete_lane_repair(channel)
        if job is not None:
            self._evict_for_fault(
                job, None,
                f"stuck lane on channel#{channel.channel_id} ({via})",
            )

    # ------------------------------------------------------------------
    # admission + preemption
    # ------------------------------------------------------------------
    def _admit(self) -> None:
        stalled_preemptions = 0
        compacted = False
        while True:
            pick = self.admission.next_decision(
                self._now_us, self._resident_jobs()
            )
            if pick is None:
                # nobody can start as-is; when a waiting job is blocked
                # by fragmentation (not capacity), one compaction pass
                # may repack the residents and unblock it -- try once
                # per admission round
                if not compacted and self._maybe_compact():
                    compacted = True
                    continue
                return
            job, result = pick
            if result.decision is AdmissionDecision.PREEMPT:
                if stalled_preemptions > len(self._jobs):
                    return  # defensive: no progress possible
                for victim in result.victims:
                    self._evict(victim, evicted_by=job)
                stalled_preemptions += 1
                continue
            assert result.assignment is not None
            self.admission.occupy(job, result.assignment)
            job.assignment = result.assignment
            job.transition(JobState.ADMITTED, self._now_us)
            self._job_instant(
                job, "admitted", prrs=",".join(result.assignment.prrs)
            )
            self._start_placement(job)

    def _evict(self, victim: Job, evicted_by: Job) -> None:
        """Preempt ``victim`` so that ``evicted_by`` can start.

        It leaves through the Figure-5 drain path, losing the words in
        flight upstream of its last stage, and restarts from word zero
        if its spec asks for ``requeue_on_eviction``.
        """
        requeue = victim.spec.requeue_on_eviction
        self.vacate(
            victim, "drain", JobState.QUEUED if requeue else JobState.EVICTED,
            f"evicted by higher-priority job {evicted_by.spec.name!r}",
        )
        self._count_preemption()
        victim.evictions += 1
        self.system.sim.log(
            "runtime",
            f"job {victim.spec.name} evicted "
            f"(priority {victim.spec.priority} < "
            f"{evicted_by.spec.priority})",
        )
        self._job_instant(
            victim, "evicted", by=evicted_by.spec.name, requeued=requeue
        )

    # ------------------------------------------------------------------
    # vacate: the one way a job leaves the fabric
    # ------------------------------------------------------------------
    def vacate(
        self, job: Job, quiesce: str, outcome: JobState, reason: str = ""
    ) -> None:
        """Take ``job`` off the fabric; every exit path runs this sequence.

        1. Freeze the IOM source: a detached IOM stays on the system
           clock until its slot's next attach and must not refill the
           FIFOs this sequence clears.
        2. Quiesce a RUNNING job's stages as MicroBlaze software:
           ``"checkpoint"`` (zero-loss :data:`CMD_CHECKPOINT`, captures a
           :class:`ResumeState`) or ``"drain"`` (upstream stages cold,
           the last through the Figure-5 drain: lossy eviction).
           ``"none"`` (completion and failure) skips this step.  A job
           not streaming yet loses its queued ICAP work instead; started
           transfers finish (a partial write cannot stop mid-frame).
        3. Strip (:meth:`_strip_software`): release channels, clock off
           and reset the stage FIFOs, scrub the IOM slot.  ``"none"``
           applies these register writes from the host, in zero
           simulated time.
        4. Capture output, release the admission ledger, close spans.
        5. End in ``outcome``.  SUSPENDED parks the job with its
           checkpoint (one not streaming yet just requeues); QUEUED
           requeues it from word zero, dropping every earlier
           incarnation; EVICTED, FAILED and DONE are terminal, the first
           two with ``reason``.

        Counters, logs and trace instants are the caller's.
        """
        running = job.state is JobState.RUNNING
        self._freeze_source(job)
        lost = 0
        if running and quiesce != "none":
            started = self._now_us
            states, consumed, lost = self.system.microblaze.run_to_completion(
                self._quiesce_software(job, quiesce),
                f"{job.spec.name}-{quiesce}",
            )
            job.drained = True
            job.state_words = [word for words in states for word in words]
            if quiesce == "checkpoint":
                job.resume = ResumeState(
                    stage_states=states,
                    source_offset=job.source_base + consumed,
                    capture_us=self._now_us - started,
                )
                self._observe_checkpoint("save", job.resume.capture_us)
        elif job.assignment is not None:
            if quiesce != "none":
                for request in job.requests:
                    self.scheduler.cancel(request)
            prrs = job.assignment.prrs if quiesce == "none" else []
            lost = self._on_host(
                self._strip_software(job, job.channels, prrs)
            )
        stalls = self.system.sim.metrics.counter(
            "repro_channel_stall_cycles_total"
        )
        for channel in job.channels:
            stalls.inc(channel.stall_cycles)
        job.channels = []
        job.words_lost += lost
        if running and outcome is JobState.SUSPENDED:
            job.prior_received.extend(job.iom.received)
            job.prior_receive_times.extend(job.iom.receive_times)
        elif running:
            # the tenant-visible stream is every earlier incarnation's
            # output plus this one's; the receive-time segment also lands
            # in output_history so deadline accounting can replay progress
            job.output_words = job.prior_received + job.iom.received
            job.receive_times = (
                job.prior_receive_times + job.iom.receive_times
            )
            job.words_out = len(job.output_words)
            job.output_history.append(list(job.receive_times))
        self.admission.release(job)
        # the exit may interrupt the job inside its place or run span
        tracer, track = self.system.sim.tracer, self._job_track(job)
        while tracer.open_spans(track):
            tracer.end(track=track)
        now = self._now_us
        if outcome in (JobState.SUSPENDED, JobState.QUEUED):
            if outcome is JobState.QUEUED:
                # a restart replays the source from word zero: no earlier
                # incarnation's checkpoint or output may survive it
                job.resume = None
                job.prior_received = []
                job.prior_receive_times = []
            job.reset_for_requeue()
            if running and outcome is JobState.SUSPENDED:
                job.suspensions += 1
            else:
                outcome = JobState.QUEUED
            job.transition(outcome, now)
            self.admission.enqueue(job, now)
            return
        if outcome is JobState.DONE:
            job.transition(JobState.DRAINING, now)
        else:
            job.failure_reason = reason
        job.transition(outcome, now)

    @staticmethod
    def _freeze_source(job: Job) -> None:
        """Vacate step 1, also run by a placement attempt's unwind."""
        if job.iom is not None:
            job.iom.source_exhausted = True

    def _quiesce_software(self, job: Job, quiesce: str) -> Generator:
        """MicroBlaze software of vacate steps 2-3 for a RUNNING chain.

        Gates the source-side producer FIFO, quiesces the stages and
        ends with :meth:`_strip_software`.  Returns ``(state words per
        stage, source words the chain consumed, words lost)``.

        ``"checkpoint"`` quiesces upstream-first: each stage receives
        :data:`CMD_CHECKPOINT`, drains the words left in its consumer
        FIFO *into the still-running downstream stage* (or the IOM,
        where they surface as received output), pushes its state
        registers plus the :data:`MSG_CKPT` marker, and halts.  Settle
        delays let in-flight words land before the next stage quiesces,
        so nothing is lost; words in the gated source FIFO or the source
        hop never reached the chain and are replayed from the rewound
        source instead.

        ``"drain"`` releases the upstream stages cold (their in-flight
        words are lost to the preemption) and drains the final stage
        through the Figure-5 protocol, so its state registers survive
        and the EOS handshake confirms the stream is quiet before the
        PRR powers down.
        """
        api = self.system.api
        assignment = job.assignment
        prrs = assignment.prrs
        channels = job.channels
        iom_slot = self.system.slot(assignment.iom)
        yield from api.vapres_fifo_control(iom_slot.module_id, ren=False)
        if quiesce == "checkpoint":
            yield Delay(2 * channels[0].d + 4)
            states: List[List[int]] = []
            for index, prr in enumerate(prrs):
                slot = self.system.slot(prr)
                yield from api.vapres_module_write(
                    slot.module_id, CMD_CHECKPOINT, control=True
                )
                words = yield from api.read_state_words(
                    slot.module_id, slot.module.state_word_count + 1
                )
                if not words or words[-1] != MSG_CKPT:
                    raise JobError(
                        f"job {job.spec.name!r}: stage {index} checkpoint "
                        f"did not close with MSG_CKPT"
                    )
                states.append(words[:-1])
                # let this stage's final outputs land downstream
                yield Delay(2 * channels[index + 1].d + 4)
            # the IOM pulls at most one word per cycle; wait out the worst
            # case before releasing channels so nothing counts as lost
            yield Delay(2 * (2 * channels[-1].d + 4))
            # the first stage's sample counter is exactly the number of
            # source words the chain processed
            consumed = self.system.slot(prrs[0]).module.samples_in
            yield from api.vapres_release_channel(channels[0])
            lost = yield from self._strip_software(job, channels[1:], prrs)
            return states, consumed, lost
        # the upstream stages go cold one at a time, each stopped right
        # after its input (not via _strip_software, which releases every
        # channel first and scrubs the IOM slot, whose consumer FIFO
        # still takes the drained stage's last words): the DCR write
        # order sets the words lost, and eviction accounting pins it
        lost = 0
        for index in range(len(prrs) - 1):
            lost += yield from api.vapres_release_channel(channels[index])
            slot = self.system.slot(prrs[index])
            yield from api.vapres_module_clock(slot.module_id, False)
            yield from api.vapres_fifo_reset(slot.module_id)
        report = yield from self.switcher.drain(
            prrs[-1],
            upstream_slot=prrs[-2] if len(prrs) > 1 else assignment.iom,
            downstream_slot=assignment.iom,
            input_channel=channels[-2],
            output_channel=channels[-1],
            pause_upstream=len(prrs) == 1,
        )
        lost += report.words_lost
        lost += yield from self._strip_software(job, [], [])
        return [report.state_words], 0, lost

    def _strip_software(self, job: Job, channels, prrs) -> Generator:
        """Vacate step 3: release ``channels``, power down ``prrs``, scrub.

        The IOM slot's interface FIFOs can still hold gated source words;
        clearing them means the slot's next tenant (or a restarted
        incarnation) never reads this job's stream at the head of its
        input.  Returns the words lost with the released channels.
        """
        api = self.system.api
        lost = 0
        for channel in channels:
            if not channel.released:
                lost += yield from api.vapres_release_channel(channel)
        for prr in prrs:
            slot = self.system.slot(prr)
            yield from api.vapres_module_clock(slot.module_id, False)
            yield from api.vapres_fifo_reset(slot.module_id)
        iom_slot = self.system.slot(job.assignment.iom)
        yield from api.vapres_fifo_reset(iom_slot.module_id)
        return lost

    @staticmethod
    def _on_host(software: Generator):
        """Apply register-only API software from the host, in zero time.

        Completion and failure teardown write the PRSockets directly
        instead of queueing DCR writes on the MicroBlaze.
        """
        try:
            effect = next(software)
            while True:
                if not isinstance(effect, DcrWrite):
                    raise JobError(f"host-side software yielded {effect!r}")
                effect.socket.dcr_write(effect.value)
                effect = software.send(None)
        except StopIteration as stop:
            return stop.value

    # ------------------------------------------------------------------
    # checkpoint / resume (repro.realtime swap-out and swap-in hooks)
    # ------------------------------------------------------------------
    def _tenant(self) -> str:
        ctx = self.trace_context
        tenant = getattr(ctx, "tenant", None) if ctx is not None else None
        return tenant or "default"

    def _observe_checkpoint(self, kind: str, us: float) -> None:
        self.system.sim.metrics.histogram(
            f"repro_checkpoint_{kind}_us",
            buckets=CHECKPOINT_BUCKETS,
            labels={"tenant": self._tenant()},
        ).observe(us)

    def _count_preemption(self) -> None:
        self.preemptions += 1
        self.system.sim.metrics.counter(
            "repro_preemption_total", labels={"tenant": self._tenant()}
        ).inc()

    def suspend_job(self, job: Job, requested_by: Optional[Job] = None) -> bool:
        """Swap a resident job out to a checkpoint instead of killing it.

        RUNNING jobs quiesce through the :data:`CMD_CHECKPOINT` variant
        of the Figure-5 drain (no EOS -- every in-flight word flows
        through to the IOM), capture a :class:`ResumeState`, and park in
        ``SUSPENDED``; re-admission swaps them back in bit-exactly.
        Jobs still in ADMITTED/PLACING simply requeue (nothing streamed
        in this incarnation).  Returns False when there is nothing to
        suspend, leaving the caller free to fall back to the lossy
        eviction path.
        """
        if job.state not in RESIDENT_STATES:
            return False
        self.vacate(job, "checkpoint", JobState.SUSPENDED)
        self._count_preemption()
        by = requested_by.spec.name if requested_by is not None else ""
        self.system.sim.log(
            "runtime",
            f"job {job.spec.name} suspended"
            + (f" (preempted by {by})" if by else ""),
        )
        self._job_instant(
            job, "suspended", by=by,
            source_offset=(
                job.resume.source_offset if job.resume is not None else 0
            ),
        )
        return True

    def _resume_software(self, job: Job) -> Generator:
        """Restore checkpointed state into freshly staged modules.

        Mirrors step 7 of the switching methodology: state words arrive
        as pre-start FSL data words, then ``CMD_START`` releases each
        stage.  Input words queued in consumer FIFOs while the modules
        were staged are processed in order once started.
        """
        api = self.system.api
        for prr, words in zip(
            job.assignment.prrs, job.resume.stage_states
        ):
            slot = self.system.slot(prr)
            if words:
                yield from api.send_state_words(slot.module_id, words)
            yield from api.vapres_module_write(
                slot.module_id, CMD_START, control=True
            )
        return None

    # ------------------------------------------------------------------
    # placement
    # ------------------------------------------------------------------
    def _start_placement(self, job: Job) -> None:
        job.transition(JobState.PLACING, self._now_us)
        self.system.sim.tracer.begin(
            "place", category="job", track=self._job_track(job),
            attrs={"attempt": job.attempts + 1},
        )
        job.attempts += 1
        spec = job.spec
        resuming = job.resume is not None
        # a resumed incarnation gets fresh module names (like fault
        # recovery's .rN) and staged modules that wait for restored
        # state + CMD_START instead of free-running
        suffix = f".s{job.suspensions}" if resuming else ""
        job.module_names = [
            f"{spec.name}/{i}.{stage.kind}{suffix}"
            for i, stage in enumerate(spec.stages)
        ]
        try:
            job.requests = []
            for name, stage, prr in zip(
                job.module_names, spec.stages, job.assignment.prrs
            ):
                self._register(job, stage, name, prr, staged_start=resuming)
                job.requests.append(
                    self.scheduler.submit(name, prr, path=spec.reconfig_path)
                )
        except Exception as exc:  # noqa: BLE001 - config errors are fatal
            self._fail(job, f"placement setup failed: {exc}")

    def _register(
        self, job: Job, stage, name: str, prr: str, staged_start=False
    ) -> None:
        """Register ``stage`` as module ``name`` for ``prr``; preload its
        bitstream when the job reconfigures from SDRAM.  A staged module
        waits for restored state and ``CMD_START`` (see ``staged``)."""

        def factory():
            module = stage.build(name)
            return staged(module) if staged_start else module

        self.system.register_module(name, factory, prr_names=[prr])
        if (
            job.spec.reconfig_path == "array2icap"
            and not self.system.repository.is_preloaded(name, prr)
        ):
            self.system.repository.preload_to_sdram(name, prr)

    def _progress_placements(self) -> None:
        for job in self._jobs:
            if job.state is not JobState.PLACING:
                continue
            if self._now_us < job.next_attempt_us:
                continue
            if job.placed or all(r.done for r in job.requests):
                job.placed = True
                self._activate(job)

    def _activate(self, job: Job) -> None:
        """All stages resident: connect the stream and go RUNNING."""
        spec = job.spec
        assignment = job.assignment
        source = spec.source.build(default_seed=spec.seed)
        job.source_base = (
            job.resume.source_offset if job.resume is not None else 0
        )
        if job.source_base:
            # resume replays the source from the first unprocessed word
            source = itertools.islice(source, job.source_base, None)
        iom = Iom(f"{spec.name}.io", source=source)
        slot = self.system.attach_iom(assignment.iom, iom)
        job.iom = iom
        ports = [*slot.producers, *slot.consumers]
        stale = sum(len(port.fifo) for port in ports)
        if stale:
            # a vacate path left words behind: this stream would start
            # with another job's data, so refuse it rather than corrupt it
            self.system.sim.metrics.counter(
                "repro_attach_stale_words_total"
            ).inc(stale)
            self._fail(job, f"stale words in IOM slot {slot.name} at attach")
            return
        channels, ok = self.system.microblaze.run_to_completion(
            self._setup_software(job), f"{spec.name}-setup"
        )
        if not ok:
            # lane contention: another tenant holds the segment; back off.
            # This attempt's IOM has been filling the slot since attach:
            # freeze it and scrub the slot, or the retry's attach finds
            # stale words
            self._freeze_source(job)
            self.system.microblaze.run_to_completion(
                self._strip_software(job, channels, []), f"{spec.name}-unwind"
            )
            if job.resume is not None and channels:
                # the staged first stage buffered words the aborted
                # attempt replayed from the source; clear them so the
                # next attempt's replay stays duplicate-free
                slot = self.system.slot(job.assignment.prrs[0])
                self.system.microblaze.run_to_completion(
                    self.system.api.vapres_fifo_reset(slot.module_id),
                    f"{spec.name}-unwind-reset",
                )
            if job.attempts >= spec.retry.max_attempts:
                self._fail(
                    job, f"no switch-box lanes after {job.attempts} attempts"
                )
                return
            job.next_attempt_us = (
                self._now_us + spec.retry.backoff_for(job.attempts)
            )
            job.attempts += 1
            self.system.sim.log(
                "runtime",
                f"job {spec.name} placement retry at "
                f"{job.next_attempt_us:.1f}us",
            )
            return
        job.channels = channels
        if job.resume is not None:
            # channels are up; staged modules have been buffering input.
            # Restore state (pre-start FSL data words) and start them.
            started = self._now_us
            self.system.microblaze.run_to_completion(
                self._resume_software(job), f"{spec.name}-resume"
            )
            self._observe_checkpoint("restore", self._now_us - started)
            self._job_instant(
                job, "resumed", source_offset=job.resume.source_offset
            )
            job.resume = None
        job.transition(JobState.RUNNING, self._now_us)
        tracer = self.system.sim.tracer
        tracer.end_if_open("place", track=self._job_track(job))
        tracer.begin(
            "run", category="job", track=self._job_track(job),
            attrs={"stages": len(job.spec.stages)},
        )
        job.last_rx = 0
        job.stable_polls = 0

    def _setup_software(self, job: Job) -> Generator:
        """Open the job's channel chain via the Table-2 API.

        Hops are established sink-first: fresh modules free-run the
        moment their input hop comes up, so every downstream hop must
        already exist or the first words of the stream would be emitted
        into an unconnected producer and silently dropped.  Bringing
        the IOM->stage-0 hop up last gates the whole stream on a fully
        connected chain.
        """
        api = self.system.api
        assignment = job.assignment
        chain = assignment.chain
        established = []
        for src, dst in reversed(list(zip(chain, chain[1:]))):
            channel = yield from api.vapres_establish_channel(None, src, dst)
            if channel is None:
                return established, False
            established.append(channel)
        channels = list(reversed(established))
        if job.spec.lcd_select is not None:
            for prr in assignment.prrs:
                slot = self.system.slot(prr)
                yield from api.vapres_module_clock_select(
                    slot.module_id, job.spec.lcd_select
                )
        return channels, True

    # ------------------------------------------------------------------
    # completion
    # ------------------------------------------------------------------
    def _poll_running(self) -> None:
        for job in self._jobs:
            if job.state is not JobState.RUNNING:
                continue
            received = len(job.iom.received)
            if received and not job.first_sample_seen:
                job.first_sample_seen = True
                if self.on_first_sample is not None:
                    self.on_first_sample(job)
            if job.iom.source_exhausted and received == job.last_rx:
                job.stable_polls += 1
            else:
                job.stable_polls = 0
            job.last_rx = received
            deadline = job.spec.deadline_us
            if job.stable_polls >= self.config.idle_streak:
                self._complete(job)
            elif (
                deadline is not None
                and self._now_us > job.spec.arrival_us + deadline
            ):
                self.system.sim.metrics.counter(
                    "repro_deadline_miss_total",
                    labels={"tenant": self._tenant()},
                ).inc()
                self._fail(job, f"deadline of {deadline}us exceeded")

    def _complete(self, job: Job) -> None:
        self.vacate(job, "none", JobState.DONE)
        self._job_instant(job, "done", words_out=job.words_out)

    def _fail(self, job: Job, reason: str) -> None:
        """Fail ``job`` where it stands: cold teardown, no drain."""
        self.vacate(job, "none", JobState.FAILED, reason)
        self._job_instant(job, "failed", reason=reason)

    # ------------------------------------------------------------------
    def _report(self, wall_seconds: float) -> FleetReport:
        period = 1.0 / self.system.system_clock.frequency_hz
        reports = []
        for job in self._jobs:
            sel = job.spec.lcd_select or 0
            divisor = self.params.lcd_divisors[sel]
            reports.append(
                JobReport.from_job(
                    job,
                    nominal_period_s=period * divisor,
                )
            )
        self._refresh_gauges()
        return FleetReport(
            mode="colocate",
            workers=1,
            jobs=reports,
            wall_seconds=wall_seconds,
            sim_us=self._now_us,
            icap_busy_fraction=icap_busy_fraction(self.system),
            preemptions=self.preemptions,
            compaction_runs=self.compaction_runs,
            compaction_moves=self.compaction_moves,
            compaction_words_lost=self.compaction_samples_lost,
            span_events=self.system.sim.tracer.events,
            metrics=self.system.sim.metrics,
        )
