"""The virtualized device pool: vPRRs over many simulated VAPRES systems.

A :class:`DevicePool` serves stream jobs across N simulated devices the
way a cluster scheduler serves containers across hosts.  Jobs ask for
**virtual PRRs** (one per chain stage); the pool *grants* vPRRs against
an overcommitted ceiling (``floor(overcommit x healthy physical PRRs)``
per device, decided by :class:`~repro.pool.scheduler.PoolScheduler`)
and later *binds* them to physical PRRs through the device's own
:class:`~repro.runtime.admission.AdmissionController` -- which is never
overcommitted, so two live vPRRs can never share a physical PRR.

Lifecycle of one job::

    submitted -> placed (vPRRs granted on a device, queued)
              -> bound  (vPRRs bound to physical PRRs, dispatched)
              -> running -> done | failed

Queued-but-unbound jobs are fair game for **work stealing** (rebalance
when queue depths skew) and are **requeued** when their device is lost;
bound jobs drain gracefully on their worker either way.  Device loss
plugs into the ``repro.faults`` quarantine signal: quarantining every
PRR marks the device lost, and a scrub-verified recovery releases the
quarantine and rejoins the device.

The pool itself is a single-threaded asyncio object: every method must
be called from the event loop.  Simulation happens off-loop in device
workers (:mod:`repro.pool.bridge`); each job runs single-tenant with a
name-derived seed, so placement, stealing and device loss can never
change a job's results -- only *when* and *where* they are computed.

The pool also carries the **live observability plane**
(:mod:`repro.obs.live`): every job gets a deterministic ``trace_id``,
pool-side lifecycle spans are recorded on a wall-clock
:class:`~repro.obs.spans.Tracer` and stitched with the device-side
shards returned in final snapshots (:meth:`DevicePool.stitched_trace`);
periodic worker snapshots fold into a
:class:`~repro.obs.live.SnapshotAggregator` so
:meth:`DevicePool.live_metrics` reflects in-flight work; and each
device feeds a :class:`~repro.obs.live.FlightRecorder` that is dumped
automatically on device loss or quarantine.
"""

from __future__ import annotations

import asyncio
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, List, Optional, Sequence, Tuple

from repro.core.params import SystemParameters
from repro.obs.live import (
    FLIGHT_CAPACITY,
    DeviceSnapshot,
    FlightRecorder,
    SnapshotAggregator,
    TraceContext,
    stitch_span_events,
    tag_events,
    trace_id_for,
)
from repro.obs.metrics import MetricsRegistry, describe_compaction_metrics
from repro.obs.spans import SpanEvent, Tracer
from repro.pool.bridge import WorkerBridge
from repro.pool.scheduler import DeviceView, PoolScheduler, StealMove
from repro.runtime.admission import AdmissionController, AdmissionDecision
from repro.runtime.executor import ExecutorConfig
from repro.runtime.jobs import Job, StreamJob
from repro.runtime.telemetry import FleetReport, JobReport


class PoolError(Exception):
    """Raised on illegal pool operations (duplicate names, draining...)."""


@dataclass
class VirtualPRR:
    """One granted virtual PRR; ``physical`` is set only while bound."""

    vid: int
    job_id: int
    device_id: int
    physical: Optional[str] = None


#: pool-level job states (coarser than the runtime state machine; the
#: fine-grained QUEUED->...->DONE lifecycle happens inside the worker)
SUBMITTED = "submitted"
PLACED = "placed"
BOUND = "bound"
RUNNING = "running"
DONE = "done"
FAILED = "failed"
TERMINAL = frozenset({DONE, FAILED})

#: wall-clock latency buckets (seconds) for the per-tenant histograms
LATENCY_BUCKETS_S = (
    0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0, 60.0,
)


@dataclass
class PoolJob:
    """One job's pool-side incarnation."""

    id: int
    spec: StreamJob
    tenant: str
    submitted_t: float
    state: str = SUBMITTED
    device_id: Optional[int] = None
    vprrs: List[VirtualPRR] = field(default_factory=list)
    #: the worker's one-job run: the JobReport plus simulated totals
    run: Optional[FleetReport] = None
    failure_reason: str = ""
    first_sample_t: Optional[float] = None
    finished_t: Optional[float] = None
    steals: int = 0
    requeues: int = 0
    #: deterministic trace identity (name-derived, like the RNG seed)
    trace_id: str = ""
    #: lifecycle wall stamps feeding the per-tenant latency histograms
    placed_t: Optional[float] = None
    bound_t: Optional[float] = None
    running_t: Optional[float] = None
    #: the device-side span shard (trace_id-tagged) from the final snapshot
    span_shard: List[SpanEvent] = field(default_factory=list)
    #: admission-ledger incarnation on the current device
    runtime: Optional[Job] = None
    done: asyncio.Event = field(default_factory=asyncio.Event)

    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL

    @property
    def report(self) -> Optional[JobReport]:
        return self.run.jobs[0] if self.run is not None else None

    def snapshot(self) -> Dict:
        """JSON-safe view for events and ``/stats``."""
        data = {
            "id": self.id,
            "job": self.spec.name,
            "tenant": self.tenant,
            "trace_id": self.trace_id,
            "state": self.state,
            "device": self.device_id,
            "vprrs": [
                {"vid": v.vid, "physical": v.physical} for v in self.vprrs
            ],
            "steals": self.steals,
            "requeues": self.requeues,
        }
        if self.failure_reason:
            data["failure_reason"] = self.failure_reason
        return data


class PooledDevice:
    """One simulated VAPRES device inside the pool.

    Owns the admission controller that does the physical vPRR->PRR
    binding (preemption off: pool jobs run single-tenant on workers, so
    there is nothing resident to evict) and the device-local queue of
    placed-but-unbound jobs.
    """

    def __init__(
        self,
        device_id: int,
        params: SystemParameters,
        scheduler: PoolScheduler,
        metrics: Optional[MetricsRegistry] = None,
        compaction: str = "off",
    ) -> None:
        self.device_id = device_id
        self.scheduler = scheduler
        self.compaction = compaction
        self.metrics = metrics
        self.admission = AdmissionController(params, allow_preemption=False)
        if metrics is not None:
            self.admission.bind_metrics(
                metrics, labels={"device": str(device_id)}
            )
        self.queue: List[PoolJob] = []
        self.live: Dict[int, PoolJob] = {}
        self.lost = False
        self.lost_reason = ""
        self.compaction_moves = 0
        self._compaction_futile_token: Optional[tuple] = None

    # ------------------------------------------------------------------
    @property
    def physical_prrs(self) -> List[str]:
        return self.admission.prr_names

    @property
    def healthy_prrs(self) -> int:
        return len(self.admission.prr_names) - len(
            self.admission.quarantined_prrs
        )

    @property
    def vprr_capacity(self) -> int:
        return self.scheduler.vprr_capacity(self.healthy_prrs)

    @property
    def vprr_granted(self) -> int:
        queued = sum(len(job.vprrs) for job in self.queue)
        live = sum(len(job.vprrs) for job in self.live.values())
        return queued + live

    def view(self) -> DeviceView:
        return DeviceView(
            device_id=self.device_id,
            physical_prrs=self.healthy_prrs,
            vprr_capacity=self.vprr_capacity,
            vprr_granted=self.vprr_granted,
            queue_depth=len(self.queue),
            lost=self.lost,
        )

    # ------------------------------------------------------------------
    def enqueue(self, job: PoolJob) -> str:
        """Queue a placed job for binding; returns a reject reason or ''."""
        result = self.admission.enqueue(job.runtime)
        if result.decision is AdmissionDecision.REJECT:
            return result.reason or "rejected by admission"
        self.queue.append(job)
        return ""

    def withdraw(self, job: PoolJob) -> bool:
        """Pull a still-unbound job back out (steal / device loss)."""
        if job not in self.queue:
            return False
        self.admission.withdraw(job.runtime)
        self.queue.remove(job)
        return True

    def next_binding(self) -> Optional[Tuple[PoolJob, List[str]]]:
        """Bind the next queued job to physical PRRs, if any fits.

        ``now_us=inf`` because pool binding is wall-clock driven --
        arrival pacing (``arrival_us``) is honoured *inside* the worker
        run, where simulated time exists.
        """
        pick = self.admission.next_decision(float("inf"), [])
        if pick is None:
            return None
        runtime, result = pick
        assert result.assignment is not None
        self.admission.occupy(runtime, result.assignment)
        job = next(j for j in self.queue if j.id == runtime.index)
        self.queue.remove(job)
        self.live[job.id] = job
        return job, list(result.assignment.prrs)

    def release(self, job: PoolJob) -> None:
        self.live.pop(job.id, None)
        if job.runtime is not None:
            self.admission.release(job.runtime)

    def maybe_compact(self) -> int:
        """Repack this device's admission ledger when fragmentation --
        and only fragmentation -- blocks a queued job.

        Pool workers run each job single-tenant on a private simulated
        system, so the vPRR->PRR binding recorded here is a ledger
        fiction: relocating it moves no live module and loses no
        samples by construction.  Returns the number of ledger moves.
        """
        if self.compaction != "on" or not self.queue:
            return 0
        blocked = next(
            (
                job for job in self.queue
                if (reason := self.admission.classify_block(job.runtime))
                is not None and reason.kind == "fragmentation"
            ),
            None,
        )
        if blocked is None:
            return 0
        resident = self.admission.resident_assignments()
        token = tuple(sorted(
            (name, tuple(a.prrs)) for name, a in resident.items()
        ))
        if token == self._compaction_futile_token:
            return 0
        from repro.compact.planner import (
            plan_compaction,
            view_from_admission,
        )

        views = view_from_admission(self.admission, movable=set(resident))
        plan = plan_compaction(views)
        if plan.empty:
            self._compaction_futile_token = token
            return 0
        self._compaction_futile_token = None
        by_name = {
            job.spec.name: job for job in self.live.values()
        }
        done = 0
        for move in plan.moves:
            job = by_name.get(move.job)
            if job is None or job.runtime is None:
                break
            self.admission.relocate(job.runtime, move.old_prr, move.new_prr)
            for vprr in job.vprrs:
                if vprr.physical == move.old_prr:
                    vprr.physical = move.new_prr
                    break
            done += 1
        self.compaction_moves += done
        if self.metrics is not None and done:
            labels = {"device": str(self.device_id)}
            self.metrics.counter(
                "repro_compaction_runs_total", labels
            ).inc()
            self.metrics.counter(
                "repro_compaction_moves_total", labels
            ).inc(done)
        return done


class DevicePool:
    """N pooled devices + scheduler + worker bridge, behind one API."""

    def __init__(
        self,
        devices: int = 4,
        params: Optional[SystemParameters] = None,
        config: Optional[ExecutorConfig] = None,
        overcommit: float = 2.0,
        steal_threshold: int = 2,
        use_processes: bool = True,
        clock: Callable[[], float] = time.monotonic,
        snapshot_every_quanta: int = 8,
        flight_capacity: int = FLIGHT_CAPACITY,
        compaction: str = "off",
    ) -> None:
        if devices < 1:
            raise PoolError("a pool needs at least one device")
        if compaction not in ("off", "on"):
            raise PoolError(
                f"compaction must be 'off' or 'on', got {compaction!r}"
            )
        self.params = (
            params if params is not None else SystemParameters.prototype()
        )
        self.config = config if config is not None else ExecutorConfig()
        self.compaction = compaction
        self.clock = clock
        self.scheduler = PoolScheduler(
            overcommit=overcommit, steal_threshold=steal_threshold
        )
        self.metrics = MetricsRegistry()
        describe_compaction_metrics(self.metrics)
        self.devices = [
            PooledDevice(i, self.params, self.scheduler,
                         metrics=self.metrics, compaction=compaction)
            for i in range(devices)
        ]
        self.bridge = WorkerBridge(
            workers=devices,
            params=self.params,
            config=self.config,
            use_processes=use_processes,
            on_event=self._on_worker_event,
            snapshot_every=snapshot_every_quanta,
        )
        # live plane: pool lifecycle spans stamp wall time relative to
        # the pool epoch (device shards keep their simulated stamps)
        self._epoch = self.clock()
        self.tracer = Tracer(
            time_fn=lambda: int((self.clock() - self._epoch) * 1e12),
            wall_clock=False,
        )
        self.aggregator = SnapshotAggregator()
        self._flight = {
            i: FlightRecorder(i, capacity=flight_capacity)
            for i in range(devices)
        }
        self._device_shards: Dict[int, List[SpanEvent]] = {}
        self.flight_dumps: List[Dict] = []
        self.snapshots_total = 0
        self._jobs: Dict[int, PoolJob] = {}
        self._pending: Deque[PoolJob] = deque()
        self._active_names: set = set()
        self._subscribers: List[asyncio.Queue] = []
        self._next_id = 0
        self._next_vid = 0
        self._started = False
        self._draining = False
        self.steals_total = 0
        self.requeues_total = 0

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        if self._started:
            return
        self._started = True
        self.bridge.start()
        self._refresh_gauges()

    async def drain(self) -> None:
        """Stop accepting work; wait for every accepted job to finish."""
        self._draining = True
        if not any(not d.lost for d in self.devices):
            self._fail_pending("no healthy devices left in the pool")
        waits = [
            job.done.wait()
            for job in self._jobs.values()
            if not job.terminal
        ]
        if waits:
            await asyncio.gather(*waits)

    async def stop(self, drain: bool = True) -> None:
        if drain and self._started:
            await self.drain()
        if self._started:
            await self.bridge.stop()

    # ------------------------------------------------------------------
    # submission
    # ------------------------------------------------------------------
    def submit(self, spec: StreamJob, tenant: str = "default") -> PoolJob:
        """Accept one job into the pool (call from the event loop)."""
        if self._draining:
            raise PoolError("pool is draining; submissions are closed")
        if not self._started:
            raise PoolError("pool is not started")
        if spec.name in self._active_names:
            raise PoolError(
                f"job name {spec.name!r} is already active in the pool "
                "(names seed results and must be unique while running)"
            )
        job = PoolJob(
            id=self._next_id,
            spec=spec,
            tenant=tenant,
            submitted_t=self.clock(),
            trace_id=trace_id_for(spec.name),
        )
        self._next_id += 1
        job.runtime = Job(spec, index=job.id)
        self._jobs[job.id] = job
        self._active_names.add(spec.name)
        need = len(spec.stages)
        widest = max(
            (len(d.physical_prrs) for d in self.devices if not d.lost),
            default=0,
        )
        if need > widest:
            self._emit("submitted", job)
            self._fail(
                job,
                f"needs {need} PRRs but the widest healthy device has "
                f"{widest}",
            )
            return job
        self._pending.append(job)
        self._emit("submitted", job)
        self._schedule()
        return job

    # ------------------------------------------------------------------
    # scheduling core (placement -> steals -> binding)
    # ------------------------------------------------------------------
    def _views(self) -> List[DeviceView]:
        return [device.view() for device in self.devices]

    @staticmethod
    def _dispatch_key(job: PoolJob) -> Tuple[int, float, int]:
        """Deadline-aware dispatch order for pool-pending jobs.

        Jobs carrying a deadline dispatch earliest-absolute-deadline
        first (the pool-level analogue of the realtime executor's EDF
        queue); best-effort jobs follow in submission order.
        """
        deadline = job.spec.deadline_us
        if deadline is not None:
            return (0, job.spec.arrival_us + deadline, job.id)
        return (1, 0.0, job.id)

    def _schedule(self) -> None:
        # 1. place pool-pending jobs, most-urgent-first with
        #    head-of-line blocking (keeps dispatch order meaningful;
        #    steals level the rest)
        while self._pending:
            job = min(self._pending, key=self._dispatch_key)
            target = self.scheduler.place(
                len(job.spec.stages), self._views()
            )
            if target is None:
                break
            self._pending.remove(job)
            self._place_on(job, self.devices[target])
        # 2. rebalance queued-unbound jobs across devices
        for move in self.scheduler.plan_steals(self._views()):
            self._execute_steal(move)
        # 3. bind queued jobs to physical PRRs and dispatch to workers
        for device in self.devices:
            if device.lost:
                continue
            compacted = False
            while True:
                binding = device.next_binding()
                if binding is None:
                    # fragmentation-blocked queue head: one ledger
                    # repack per device per scheduling round
                    if not compacted and device.maybe_compact():
                        compacted = True
                        continue
                    break
                job, prrs = binding
                for vprr, prr in zip(job.vprrs, prrs):
                    vprr.physical = prr
                job.state = BOUND
                self._emit("bound", job)
                self.bridge.submit(
                    device.device_id, job.id, job.spec,
                    TraceContext(
                        trace_id=job.trace_id,
                        tenant=job.tenant,
                        parent="pool/admission",
                    ),
                )
        self._refresh_gauges()

    def _place_on(self, job: PoolJob, device: PooledDevice) -> None:
        job.vprrs = [
            VirtualPRR(
                vid=self._next_vid + i,
                job_id=job.id,
                device_id=device.device_id,
            )
            for i in range(len(job.spec.stages))
        ]
        self._next_vid += len(job.vprrs)
        reason = device.enqueue(job)
        if reason:
            job.vprrs = []
            self._fail(job, f"rejected by device {device.device_id}: {reason}")
            return
        job.device_id = device.device_id
        job.state = PLACED
        self._emit("placed", job)

    def _execute_steal(self, move: StealMove) -> None:
        source = self.devices[move.source]
        target = self.devices[move.target]
        victim: Optional[PoolJob] = None
        # newest queued job that fits the receiver, so the head of the
        # donor's queue (closest to binding) keeps its place
        for job in reversed(source.queue):
            width = len(job.vprrs)
            if width <= target.view().vprr_free and width <= len(
                target.physical_prrs
            ):
                victim = job
                break
        if victim is None:
            return
        if not source.withdraw(victim):
            return
        for vprr in victim.vprrs:
            vprr.device_id = target.device_id
            vprr.physical = None
        reason = target.enqueue(victim)
        if reason:
            victim.vprrs = []
            self._fail(
                victim,
                f"steal to device {target.device_id} rejected: {reason}",
            )
            return
        victim.device_id = target.device_id
        victim.steals += 1
        self.steals_total += 1
        self.metrics.counter("repro_pool_steals_total").inc()
        self._emit(
            "stolen", victim,
            source=source.device_id, target=target.device_id,
        )

    # ------------------------------------------------------------------
    # worker events (called by the bridge pump, inside the loop)
    # ------------------------------------------------------------------
    def _on_worker_event(self, event) -> None:
        kind, worker_id, job_id, payload = event
        job = self._jobs.get(job_id)
        if job is None or job.terminal:
            return
        if kind == "started":
            job.state = RUNNING
            self._emit("running", job)
        elif kind == "first_sample":
            job.first_sample_t = self.clock()
            self._emit(
                "first_sample", job,
                latency_s=job.first_sample_t - job.submitted_t,
            )
        elif kind == "snapshot":
            self._ingest_snapshot(job, payload)
        elif kind == "finished":
            self._finish(job, payload)
        elif kind == "error":
            # no final snapshot will arrive to supersede the live entry
            self.aggregator.discard_live(worker_id)
            self._release(job)
            self._fail(job, str(payload))
            self._schedule()

    def _ingest_snapshot(self, job: PoolJob, snap: DeviceSnapshot) -> None:
        self.aggregator.ingest(snap)
        self.snapshots_total += 1
        self.metrics.counter("repro_pool_snapshots_total").inc()
        recorder = self._flight.get(snap.device_id)
        if recorder is not None:
            recorder.record(
                "snapshot", job=job.spec.name, job_id=job.id,
                seq=snap.seq, final=snap.final, sim_us=snap.sim_us,
            )
            if not snap.final:
                for span in snap.events[-4:]:
                    recorder.record_span(span)
        if snap.final:
            job.span_shard = tag_events(snap.events, job.trace_id)
            self._device_shards.setdefault(snap.device_id, []).extend(
                job.span_shard
            )
            self._emit_pool(
                "device_snapshot", device=snap.device_id,
                job=job.spec.name, seq=snap.seq, final=True,
                events=len(snap.events),
            )

    def _finish(self, job: PoolJob, run: FleetReport) -> None:
        self._release(job)
        job.run = run
        report = run.jobs[0]
        job.finished_t = self.clock()
        if report.state == "DONE":
            job.state = DONE
            self._active_names.discard(job.spec.name)
            self._emit("done", job, report=report.to_dict())
        else:
            job.state = FAILED
            job.failure_reason = (
                report.failure_reason or f"ended {report.state}"
            )
            self._active_names.discard(job.spec.name)
            self._emit("failed", job, report=report.to_dict())
        job.done.set()
        self._schedule()

    def _release(self, job: PoolJob) -> None:
        if job.device_id is not None:
            self.devices[job.device_id].release(job)
        for vprr in job.vprrs:
            vprr.physical = None

    def _fail(self, job: PoolJob, reason: str) -> None:
        job.state = FAILED
        job.failure_reason = reason
        job.finished_t = self.clock()
        self._active_names.discard(job.spec.name)
        self._emit("failed", job)
        job.done.set()

    def _fail_pending(self, reason: str) -> None:
        while self._pending:
            self._fail(self._pending.popleft(), reason)

    # ------------------------------------------------------------------
    # faults: quarantine, device loss, scrub-verified recovery
    # ------------------------------------------------------------------
    def quarantine_prr(self, device_id: int, prr: str) -> None:
        """Apply a ``repro.faults`` quarantine signal to one device.

        Queued jobs stay queued (the admission controller simply stops
        binding onto the retired PRR); live jobs drain on their worker.
        When the last healthy PRR goes, the device is lost and its
        queue is requeued onto the rest of the pool.
        """
        device = self.devices[device_id]
        device.admission.quarantine(prr)
        self._emit_pool("quarantined", device=device_id, prr=prr)
        if device.healthy_prrs == 0 and not device.lost:
            self.mark_device_lost(device_id, reason="quarantine")
        else:
            self.dump_flight(device_id, f"quarantine:{prr}")
            self._schedule()

    def release_quarantine(
        self, device_id: int, prr: str, scrub_verified: bool = True
    ) -> bool:
        """Un-quarantine after a scrub-verified recovery.

        ``scrub_verified`` is the caller's attestation that the PRR's
        frames were rewritten and readback-verified (the
        ``repro.faults`` scrub path); without it the quarantine stands.
        A device lost *to quarantine* rejoins the pool as soon as it
        has healthy capacity again.
        """
        if not scrub_verified:
            return False
        device = self.devices[device_id]
        if not device.admission.release_quarantine(prr):
            return False
        self._emit_pool("unquarantined", device=device_id, prr=prr)
        if (
            device.lost
            and device.lost_reason == "quarantine"
            and device.healthy_prrs > 0
        ):
            device.lost = False
            device.lost_reason = ""
            self._emit_pool("device_rejoined", device=device_id)
        self._schedule()
        return True

    def mark_device_lost(self, device_id: int, reason: str = "lost") -> None:
        """Graceful device loss: requeue queued work, drain bound work."""
        device = self.devices[device_id]
        if device.lost:
            return
        device.lost = True
        device.lost_reason = reason
        self._emit_pool(
            "device_lost", device=device_id, reason=reason,
            draining=len(device.live),
        )
        requeued = list(device.queue)
        for job in requeued:
            device.withdraw(job)
            job.vprrs = []
            job.device_id = None
            job.state = SUBMITTED
            job.requeues += 1
            self.requeues_total += 1
            self._emit("requeued", job, from_device=device_id)
        self._pending.extendleft(reversed(requeued))
        self.dump_flight(device_id, f"device_lost:{reason}")
        if not any(not d.lost for d in self.devices):
            self._fail_pending("no healthy devices left in the pool")
        self._schedule()

    # ------------------------------------------------------------------
    # events + introspection
    # ------------------------------------------------------------------
    def subscribe(self) -> asyncio.Queue:
        queue: asyncio.Queue = asyncio.Queue()
        self._subscribers.append(queue)
        return queue

    def unsubscribe(self, queue: asyncio.Queue) -> None:
        if queue in self._subscribers:
            self._subscribers.remove(queue)

    def _emit(self, kind: str, job: PoolJob, **extra) -> None:
        event = {"event": kind, "t": self.clock()}
        event.update(job.snapshot())
        event.update(extra)
        self._observe_lifecycle(kind, job)
        self._record_trace(kind, job, extra)
        self._broadcast(event)

    def _emit_pool(self, kind: str, **extra) -> None:
        event = {"event": kind, "t": self.clock()}
        event.update(extra)
        self._broadcast(event)

    def _broadcast(self, event: Dict) -> None:
        self._flight_feed(event)
        for queue in self._subscribers:
            queue.put_nowait(event)

    def _observe_lifecycle(self, kind: str, job: PoolJob) -> None:
        """Per-tenant latency histograms + job counters (seconds)."""
        now = self.clock()
        labels = {"tenant": job.tenant}
        if kind == "submitted":
            self.metrics.counter(
                "repro_pool_jobs_submitted_total", labels
            ).inc()
        elif kind == "placed":
            job.placed_t = now
            self.metrics.histogram(
                "repro_pool_queue_seconds",
                buckets=LATENCY_BUCKETS_S, labels=labels,
            ).observe(now - job.submitted_t)
        elif kind == "bound":
            job.bound_t = now
            self.metrics.histogram(
                "repro_pool_admission_wait_seconds",
                buckets=LATENCY_BUCKETS_S, labels=labels,
            ).observe(now - job.submitted_t)
        elif kind == "running":
            job.running_t = now
        elif kind == "done":
            self.metrics.counter(
                "repro_pool_jobs_completed_total", labels
            ).inc()
            if job.running_t is not None:
                self.metrics.histogram(
                    "repro_pool_exec_seconds",
                    buckets=LATENCY_BUCKETS_S, labels=labels,
                ).observe(now - job.running_t)
        elif kind == "failed":
            self.metrics.counter(
                "repro_pool_jobs_failed_total", labels
            ).inc()

    def _record_trace(self, kind: str, job: PoolJob, extra: Dict) -> None:
        """Map one pool lifecycle event onto the job's trace timeline.

        Every job owns one ``job/<name>/pool`` track: an ``admission``
        span from submit to bind (placements, steals and requeues are
        instants inside it) followed by an ``execute`` span covering
        the worker run.  Failures close whatever is open.
        """
        tracer = self.tracer
        if not tracer.enabled:
            return
        track = f"job/{job.spec.name}/pool"
        tid = {"trace_id": job.trace_id}
        if kind == "submitted":
            tracer.begin(
                "admission", category="pool", track=track,
                attrs={**tid, "tenant": job.tenant},
            )
        elif kind == "placed":
            tracer.instant(
                "placed", category="pool", track=track,
                attrs={**tid, "device": job.device_id},
            )
        elif kind == "stolen":
            tracer.instant(
                "stolen", category="pool", track=track,
                attrs={
                    **tid,
                    "source": extra.get("source"),
                    "target": extra.get("target"),
                },
            )
        elif kind == "requeued":
            tracer.instant(
                "requeued", category="pool", track=track,
                attrs={**tid, "from_device": extra.get("from_device")},
            )
        elif kind == "bound":
            tracer.end_if_open("admission", track=track, attrs=dict(tid))
            tracer.begin(
                "execute", category="pool", track=track,
                attrs={**tid, "device": job.device_id},
            )
        elif kind == "running":
            tracer.instant(
                "running", category="pool", track=track, attrs=dict(tid)
            )
        elif kind == "first_sample":
            tracer.instant(
                "first_sample", category="pool", track=track,
                attrs={**tid, "latency_s": extra.get("latency_s")},
            )
        elif kind == "done":
            tracer.end_if_open("execute", track=track, attrs=dict(tid))
            tracer.instant(
                "done", category="pool", track=track, attrs=dict(tid)
            )
        elif kind == "failed":
            tracer.end_if_open("execute", track=track, attrs=dict(tid))
            tracer.end_if_open("admission", track=track, attrs=dict(tid))
            tracer.instant(
                "failed", category="pool", track=track,
                attrs={**tid, "reason": job.failure_reason},
            )

    def _flight_feed(self, event: Dict) -> None:
        """Mirror a broadcast event into the flight recorder of every
        device it names (heavy ``report`` payloads stripped)."""
        targets = set()
        for key in ("device", "source", "target", "from_device"):
            value = event.get(key)
            if isinstance(value, int) and 0 <= value < len(self.devices):
                targets.add(value)
        if not targets:
            return
        attrs = {
            k: v for k, v in event.items()
            if k not in ("event", "report", "vprrs")
        }
        for device_id in sorted(targets):
            self._flight[device_id].record(
                event.get("event", "?"), **attrs
            )

    def job(self, job_id: int) -> Optional[PoolJob]:
        return self._jobs.get(job_id)

    # ------------------------------------------------------------------
    # live observability plane
    # ------------------------------------------------------------------
    def live_metrics(self) -> MetricsRegistry:
        """Pool metrics + finished-job registries + the latest snapshot
        per in-flight device (eventually consistent; see DESIGN.md)."""
        return self.aggregator.merged(base=self.metrics)

    def flight_recorder(self, device_id: int) -> FlightRecorder:
        return self._flight[device_id]

    def dump_flight(self, device_id: int, reason: str) -> Dict:
        """Dump one device's flight ring; kept in :attr:`flight_dumps`."""
        dump = self._flight[device_id].dump(reason)
        self.flight_dumps.append(dump)
        self._emit_pool(
            "flight_dump", device=device_id, reason=reason,
            events=len(dump["events"]),
        )
        return dump

    def dump_all_flight(self, reason: str) -> List[Dict]:
        """Dump every device's flight ring (``POST /debug/flightrecorder``)."""
        return [
            self.dump_flight(device.device_id, reason)
            for device in self.devices
        ]

    def device_shards(self) -> Dict[int, List[SpanEvent]]:
        """Trace-id-tagged device-side span shards, by device."""
        return {
            device_id: list(events)
            for device_id, events in sorted(self._device_shards.items())
        }

    def trace_events(self) -> List[SpanEvent]:
        """Pool lifecycle spans + every device shard received so far."""
        events = list(self.tracer.events)
        for device_id in sorted(self._device_shards):
            events.extend(self._device_shards[device_id])
        return events

    def stitched_trace(self) -> Dict:
        """One Chrome trace, one process per ``trace_id`` (canonical)."""
        return stitch_span_events(self.trace_events())

    @property
    def inflight(self) -> int:
        return sum(1 for job in self._jobs.values() if not job.terminal)

    def tenant_queue_depths(self) -> Dict[str, int]:
        """Per-tenant jobs accepted but not yet bound to physical PRRs."""
        depths: Dict[str, int] = {}
        for job in self._jobs.values():
            if job.state in (SUBMITTED, PLACED):
                depths[job.tenant] = depths.get(job.tenant, 0) + 1
        return depths

    def stats(self) -> Dict:
        """JSON-safe pool snapshot for ``/stats``."""
        views = self._views()
        return {
            "devices": [
                {
                    "device": v.device_id,
                    "physical_prrs": v.physical_prrs,
                    "vprr_capacity": v.vprr_capacity,
                    "vprr_granted": v.vprr_granted,
                    "queue_depth": v.queue_depth,
                    "lost": v.lost,
                }
                for v in views
            ],
            "overcommit": self.scheduler.overcommit,
            "inflight": self.inflight,
            "pool_pending": len(self._pending),
            "steals": self.steals_total,
            "requeues": self.requeues_total,
            "compaction": self.compaction,
            "compaction_moves": sum(
                d.compaction_moves for d in self.devices
            ),
            "tenants": self.tenant_queue_depths(),
            "draining": self._draining,
            "live": {
                "snapshots": self.snapshots_total,
                "live_devices": self.aggregator.live_devices(),
                "flight_dumps": len(self.flight_dumps),
                "trace_events": len(self.tracer),
            },
        }

    def summary(self) -> Dict:
        """Aggregate outcome over every job the pool has seen."""
        states: Dict[str, int] = {}
        words_out = words_lost = 0
        for job in self._jobs.values():
            states[job.state] = states.get(job.state, 0) + 1
            if job.report is not None:
                words_out += job.report.words_out
                words_lost += job.report.words_lost
        return {
            "jobs": len(self._jobs),
            "states": states,
            "words_out": words_out,
            "words_lost": words_lost,
            "steals": self.steals_total,
            "requeues": self.requeues_total,
            "compaction_moves": sum(
                d.compaction_moves for d in self.devices
            ),
        }

    @property
    def strict_ok(self) -> bool:
        return all(
            job.state != FAILED
            and (job.report is None or job.report.state == "DONE")
            for job in self._jobs.values()
        )

    # ------------------------------------------------------------------
    def _refresh_gauges(self) -> None:
        total_granted = 0
        total_physical = 0
        for device in self.devices:
            view = device.view()
            labels = {"device": str(device.device_id)}
            self.metrics.gauge(
                "repro_pool_vprr_occupancy", labels
            ).set(view.vprr_granted)
            self.metrics.gauge(
                "repro_pool_vprr_capacity", labels
            ).set(view.vprr_capacity)
            self.metrics.gauge(
                "repro_pool_device_queue_depth", labels
            ).set(view.queue_depth)
            if not view.lost:
                total_granted += view.vprr_granted
                total_physical += view.physical_prrs
        # granted vPRRs per healthy physical PRR: 0 idle, 1.0 fully
        # bound with no overbooking, up to `overcommit` when saturated
        self.metrics.gauge("repro_pool_overcommit_pressure").set(
            total_granted / total_physical if total_physical else 0.0
        )
        self.metrics.gauge("repro_pool_pending_jobs").set(
            len(self._pending)
        )
        depths = self.tenant_queue_depths()
        for tenant, depth in depths.items():
            self.metrics.gauge(
                "repro_pool_tenant_queue_depth", {"tenant": tenant}
            ).set(depth)


def drain_requeue_on_loss(
    pool: DevicePool, quarantines: Sequence[Tuple[int, str]]
) -> None:
    """Feed a batch of ``repro.faults`` quarantine signals into the pool.

    Convenience for fault campaigns: each ``(device_id, prr)`` pair is
    applied in order, with device loss and requeueing handled by the
    pool exactly as if the signals had arrived live.
    """
    for device_id, prr in quarantines:
        pool.quarantine_prr(device_id, prr)
