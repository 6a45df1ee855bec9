"""The virtualized device pool: vPRRs over many simulated VAPRES systems.

A :class:`DevicePool` serves stream jobs across N simulated devices the
way a cluster scheduler serves containers across hosts.  Jobs ask for
**virtual PRRs** (one per chain stage); the pool *grants* vPRRs against
an overcommitted ceiling (``floor(overcommit x healthy physical PRRs)``
per device, decided by :class:`~repro.pool.scheduler.PoolScheduler`).
Grants are the pool's capacity and overcommit accounting, nothing more:
the pool never assigns physical PRRs.  A device's worker runs one job at
a time, so the pool dispatches a device's next queued job only when that
worker is idle, together with the device's quarantined-PRR set; the
worker's own :class:`~repro.runtime.admission.AdmissionController` then
admits the job and places its stages on healthy PRRs.

Lifecycle of one job::

    submitted -> placed (vPRRs granted on a device, queued)
              -> bound  (dispatched to the device's idle worker)
              -> running -> done | failed

Every queued job is fair game for **work stealing** (rebalance when
queue depths skew) and is **requeued** when its device is lost; the one
dispatched job drains on its worker either way.  Device loss plugs into
the ``repro.faults`` quarantine signal: quarantining every PRR marks the
device lost, and a scrub-verified recovery releases the quarantine and
rejoins the device.

The pool itself is a single-threaded asyncio object: every method must
be called from the event loop.  Simulation happens off-loop in device
workers (:mod:`repro.pool.bridge`); each job runs single-tenant with a
name-derived seed, so placement, stealing and device loss can never
change a job's results -- only *when* and *where* they are computed --
for the same quarantine set.

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
from typing import Callable, Deque, Dict, List, Optional, Set, Tuple

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
from repro.obs.metrics import MetricsRegistry
from repro.obs.spans import SpanEvent, Tracer
from repro.pool.bridge import WorkerBridge
from repro.pool.scheduler import DeviceView, PoolScheduler, StealMove
from repro.runtime.executor import ExecutorConfig
from repro.runtime.jobs import StreamJob
from repro.runtime.telemetry import FleetReport, JobReport


class PoolError(Exception):
    """Raised on illegal pool operations (duplicate names, draining...)."""


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
    done: asyncio.Event = field(default_factory=asyncio.Event)

    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL

    @property
    def width(self) -> int:
        """vPRRs the job is granted: one per chain stage."""
        return len(self.spec.stages)

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
            "vprrs": self.width,
            "steals": self.steals,
            "requeues": self.requeues,
        }
        if self.failure_reason:
            data["failure_reason"] = self.failure_reason
        return data


class PooledDevice:
    """One simulated VAPRES device inside the pool.

    The pool's whole model of a device: its PRR names and the quarantined
    ones (which size the grant ceiling), the queue of placed jobs, and
    the one job dispatched to its worker.  Which PRRs a job's stages
    occupy is decided only by the worker's own admission controller.
    """

    def __init__(
        self,
        device_id: int,
        params: SystemParameters,
        scheduler: PoolScheduler,
    ) -> None:
        self.device_id = device_id
        self.scheduler = scheduler
        #: PRR slot names, as the worker's admission controller names them
        self.prr_names: List[str] = sorted(
            f"{rsb.name}.prr{i}"
            for rsb in params.rsbs
            for i in range(rsb.num_prrs)
        )
        self.quarantined: Set[str] = set()
        self.queue: List[PoolJob] = []
        #: the job dispatched to the worker, which runs one at a time
        self.running: Optional[PoolJob] = None
        self.lost = False
        self.lost_reason = ""

    # ------------------------------------------------------------------
    @property
    def healthy_prrs(self) -> int:
        return len(self.prr_names) - len(self.quarantined)

    @property
    def vprr_capacity(self) -> int:
        return self.scheduler.vprr_capacity(self.healthy_prrs)

    @property
    def vprr_granted(self) -> int:
        granted = sum(job.width for job in self.queue)
        if self.running is not None:
            granted += self.running.width
        return granted

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
    def dispatch_next(self) -> Optional[PoolJob]:
        """Hand the next queued job to an idle worker, if there is one.

        The order is the one admission serves its queue in,
        ``(-priority, arrival_us, id)``.  ``arrival_us`` is not waited
        for here: the pool runs on wall-clock time, and arrival pacing
        is honoured *inside* the worker run, where simulated time exists.
        """
        if self.lost or self.running is not None or not self.queue:
            return None
        job = min(
            self.queue,
            key=lambda j: (-j.spec.priority, j.spec.arrival_us, j.id),
        )
        self.queue.remove(job)
        self.running = job
        return job

    def release(self, job: PoolJob) -> None:
        if self.running is job:
            self.running = None


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
    ) -> None:
        if devices < 1:
            raise PoolError("a pool needs at least one device")
        self.params = (
            params if params is not None else SystemParameters.prototype()
        )
        self.config = config if config is not None else ExecutorConfig()
        self.clock = clock
        self.scheduler = PoolScheduler(
            overcommit=overcommit, steal_threshold=steal_threshold
        )
        self.metrics = MetricsRegistry()
        self.devices = [
            PooledDevice(i, self.params, self.scheduler)
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
        self._jobs[job.id] = job
        self._active_names.add(spec.name)
        self._pending.append(job)
        self._emit("submitted", job)
        self._schedule()
        return job

    # ------------------------------------------------------------------
    # scheduling core (placement -> steals -> dispatch)
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
        # 0. fail pool-pending jobs no healthy device can host: a
        #    quarantine may have narrowed the pool since they arrived
        widest = max(
            (d.healthy_prrs for d in self.devices if not d.lost), default=0
        )
        for job in [j for j in self._pending if j.width > widest]:
            self._pending.remove(job)
            self._fail(
                job,
                f"needs {job.width} PRRs but the widest healthy device "
                f"has {widest}",
            )
        # 1. place pool-pending jobs, most-urgent-first with
        #    head-of-line blocking (keeps dispatch order meaningful;
        #    steals level the rest)
        while self._pending:
            job = min(self._pending, key=self._dispatch_key)
            target = self.scheduler.place(job.width, self._views())
            if target is None:
                break
            self._pending.remove(job)
            self.devices[target].queue.append(job)
            job.device_id = target
            job.state = PLACED
            self._emit("placed", job)
        # 2. rebalance queued jobs across devices
        for move in self.scheduler.plan_steals(self._views()):
            self._execute_steal(move)
        # 3. dispatch to idle workers, each with its device's quarantine
        for device in self.devices:
            job = device.dispatch_next()
            if job is None:
                continue
            job.state = BOUND
            self._emit("bound", job)
            self.bridge.submit(
                device.device_id, job.id, job.spec,
                TraceContext(
                    trace_id=job.trace_id,
                    tenant=job.tenant,
                    parent="pool/admission",
                ),
                tuple(sorted(device.quarantined)),
            )
        self._refresh_gauges()

    def _execute_steal(self, move: StealMove) -> None:
        source = self.devices[move.source]
        target = self.devices[move.target]
        room = min(target.view().vprr_free, target.healthy_prrs)
        # newest queued job that fits the receiver, so the head of the
        # donor's queue (next to dispatch) keeps its place
        victim = next(
            (job for job in reversed(source.queue) if job.width <= room),
            None,
        )
        if victim is None:
            return
        source.queue.remove(victim)
        target.queue.append(victim)
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

        Queued jobs stay queued: each is dispatched with the device's
        quarantined set, so its worker never places a stage on the
        retired PRR (and rejects a job the quarantine leaves no room
        for).  The running job drains on its worker.  When the last
        healthy PRR goes, the device is lost and its queue is requeued
        onto the rest of the pool.  Unknown PRR names change nothing.
        """
        device = self.devices[device_id]
        if prr in device.prr_names:
            device.quarantined.add(prr)
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
        if prr not in device.quarantined:
            return False
        device.quarantined.discard(prr)
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
        """Graceful device loss: requeue queued work, drain the running
        job."""
        device = self.devices[device_id]
        if device.lost:
            return
        device.lost = True
        device.lost_reason = reason
        self._emit_pool(
            "device_lost", device=device_id, reason=reason,
            draining=int(device.running is not None),
        )
        requeued, device.queue = device.queue, []
        for job in requeued:
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
        span from submit to dispatch (placements, steals and requeues are
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
        """Per-tenant jobs accepted but not yet dispatched to a worker."""
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
        # granted with no overbooking, up to `overcommit` when saturated
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

