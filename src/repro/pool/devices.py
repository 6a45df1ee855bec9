"""The virtualized device pool: vPRRs over many simulated VAPRES systems.

A :class:`DevicePool` serves stream jobs across N simulated devices the
way a cluster scheduler serves containers across hosts.  Jobs ask for
**virtual PRRs** (one per chain stage).  Accepted jobs wait in one
pool-wide ready list; the pool *grants* their vPRRs against one
overcommitted bound (``floor(overcommit x healthy PRRs of every non-lost
device)``), and each idle device's worker takes the first granted job
that fits it, together with the device's quarantined-PRR set.  The
whole policy lives in :class:`~repro.pool.scheduler.PoolScheduler`.
Grants are the pool's capacity and overcommit accounting, nothing more:
the pool never assigns physical PRRs.  The worker's own
:class:`~repro.runtime.admission.AdmissionController` admits the job and
places its stages on healthy PRRs.

Lifecycle of one job::

    submitted -> placed (vPRRs granted pool-wide; still ready, no device)
              -> bound  (taken by an idle device's worker)
              -> running -> done | failed

Nothing is committed to a device before its worker is idle, so device
loss only stops new dispatches to it: the running job drains on its
worker.  Device loss plugs into the ``repro.faults`` quarantine signal:
quarantining every PRR marks the device lost, and a scrub-verified
recovery releases the quarantine and rejoins the device.

The pool itself is a single-threaded asyncio object: every method must
be called from the event loop.  Simulation happens off-loop in device
workers (:mod:`repro.pool.bridge`); each job runs single-tenant with a
name-derived seed, so dispatch order and device loss can never change a
job's results -- only *when* and *where* they are computed -- for the
same quarantine set.

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
import bisect
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Set

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
from repro.pool.scheduler import PoolScheduler, ready_key
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
    #: deterministic trace identity (name-derived, like the RNG seed)
    trace_id: str = ""
    #: wall stamp the per-tenant execution histogram measures from
    running_t: Optional[float] = None
    #: the device-side span shard (trace_id-tagged) from the final snapshot
    span_shard: List[SpanEvent] = field(default_factory=list)
    done: asyncio.Event = field(default_factory=asyncio.Event)

    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL

    @property
    def granted(self) -> bool:
        """vPRRs granted and still in the ready list (not yet bound)."""
        return self.state == PLACED

    @property
    def width(self) -> int:
        """vPRRs the job is granted: one per chain stage."""
        return len(self.spec.stages)

    def __lt__(self, other: PoolJob) -> bool:
        """Ready-list order, so the pool can bisect a job into place."""
        return ready_key(self) < ready_key(other)

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
        }
        if self.failure_reason:
            data["failure_reason"] = self.failure_reason
        return data


class PooledDevice:
    """One simulated VAPRES device inside the pool.

    The pool's whole model of a device: its PRR names, the quarantined
    ones, and the one job dispatched to its worker.  Which PRRs a job's
    stages occupy is decided only by the worker's own admission
    controller.
    """

    def __init__(self, device_id: int, params: SystemParameters) -> None:
        self.device_id = device_id
        #: PRR slot names, as the worker's admission controller names them
        self.prr_names: List[str] = sorted(
            f"{rsb.name}.prr{i}"
            for rsb in params.rsbs
            for i in range(rsb.num_prrs)
        )
        self.quarantined: Set[str] = set()
        #: the job dispatched to the worker, which runs one at a time
        self.running: Optional[PoolJob] = None
        self.lost = False
        self.lost_reason = ""

    @property
    def healthy_prrs(self) -> int:
        return len(self.prr_names) - len(self.quarantined)

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
        self.scheduler = PoolScheduler(overcommit=overcommit)
        self.metrics = MetricsRegistry()
        self.devices = [PooledDevice(i, self.params) for i in range(devices)]
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
        #: accepted jobs no worker has yet, kept in ready order
        self._ready: List[PoolJob] = []
        #: per-tenant ready depths at the last gauge refresh
        self._tenant_depths: Dict[str, int] = {}
        self._active_names: set = set()
        self._subscribers: List[asyncio.Queue] = []
        self._next_id = 0
        self._started = False
        self._draining = False

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
        if all(d.lost for d in self.devices):
            self._fail_ready("no healthy devices left in the pool")
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
        bisect.insort(self._ready, job)
        self._emit("submitted", job)
        self._schedule()
        return job

    # ------------------------------------------------------------------
    # scheduling core (fail -> grant -> dispatch)
    # ------------------------------------------------------------------
    def _schedule(self) -> None:
        # 0. fail ready jobs no non-lost device can host: a quarantine
        #    may have narrowed the pool since they arrived
        widest = self.scheduler.widest(self.devices)
        for job in [j for j in self._ready if j.width > widest]:
            self._ready.remove(job)
            self._fail(
                job,
                f"needs {job.width} PRRs but the widest healthy device "
                f"has {widest}",
            )
        # 1. grant vPRRs in ready order, strict head-of-line
        for job in self.scheduler.grant(self._ready, self.devices):
            job.state = PLACED
            self._emit("placed", job)
        # 2. every idle device takes the first granted job that fits,
        #    with its quarantined set
        for device, job in self.scheduler.assign(self._ready, self.devices):
            self._ready.remove(job)
            device.running = job
            job.device_id = device.device_id
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

    def _fail_ready(self, reason: str) -> None:
        ready, self._ready = self._ready, []
        for job in ready:
            self._fail(job, reason)

    # ------------------------------------------------------------------
    # faults: quarantine, device loss, scrub-verified recovery
    # ------------------------------------------------------------------
    def quarantine_prr(self, device_id: int, prr: str) -> None:
        """Apply a ``repro.faults`` quarantine signal to one device.

        Every later dispatch to the device carries its quarantined set,
        so the worker never places a stage on the retired PRR (and
        rejects a job the quarantine leaves no room for).  The running
        job drains on its worker.  When the last healthy PRR goes, the
        device is lost.  Unknown PRR names change nothing.
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
        """Graceful device loss: no more dispatches to the device, and
        its running job drains on its worker."""
        device = self.devices[device_id]
        if device.lost:
            return
        device.lost = True
        device.lost_reason = reason
        self._emit_pool(
            "device_lost", device=device_id, reason=reason,
            draining=int(device.running is not None),
        )
        self.dump_flight(device_id, f"device_lost:{reason}")
        if all(d.lost for d in self.devices):
            self._fail_ready("no healthy devices left in the pool")
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
            self.metrics.histogram(
                "repro_pool_queue_seconds",
                buckets=LATENCY_BUCKETS_S, labels=labels,
            ).observe(now - job.submitted_t)
        elif kind == "bound":
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
        span from submit to dispatch (the vPRR grant is an instant inside
        it) followed by an ``execute`` span covering the worker run.
        Failures close whatever is open.
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
                "placed", category="pool", track=track, attrs=dict(tid)
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
        """Mirror a broadcast event into the flight recorder of the
        device it names (heavy ``report`` payloads stripped)."""
        device_id = event.get("device")
        if not isinstance(device_id, int) or device_id not in self._flight:
            return
        attrs = {
            k: v for k, v in event.items()
            if k not in ("event", "report", "vprrs")
        }
        self._flight[device_id].record(event.get("event", "?"), **attrs)

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
        for job in self._ready:
            depths[job.tenant] = depths.get(job.tenant, 0) + 1
        return depths

    def stats(self) -> Dict:
        """JSON-safe pool snapshot for ``/stats``."""
        return {
            "devices": [
                {
                    "device": device.device_id,
                    "physical_prrs": device.healthy_prrs,
                    "running": (
                        None if device.running is None
                        else device.running.spec.name
                    ),
                    "lost": device.lost,
                }
                for device in self.devices
            ],
            "overcommit": self.scheduler.overcommit,
            "vprr_capacity": self.scheduler.bound(self.devices),
            "vprr_granted": self.scheduler.granted_width(
                self._ready, self.devices
            ),
            "inflight": self.inflight,
            "ready": len(self._ready),
            "pool_pending": self._ungranted(),
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
        }

    @property
    def strict_ok(self) -> bool:
        return all(
            job.state != FAILED
            and (job.report is None or job.report.state == "DONE")
            for job in self._jobs.values()
        )

    # ------------------------------------------------------------------
    def _ungranted(self) -> int:
        return sum(1 for job in self._ready if not job.granted)

    def _refresh_gauges(self) -> None:
        for device in self.devices:
            running = device.running
            self.metrics.gauge(
                "repro_pool_vprr_occupancy",
                {"device": str(device.device_id)},
            ).set(0 if running is None else running.width)
        granted = self.scheduler.granted_width(self._ready, self.devices)
        physical = sum(d.healthy_prrs for d in self.devices if not d.lost)
        self.metrics.gauge("repro_pool_vprr_capacity").set(
            self.scheduler.bound(self.devices)
        )
        # granted vPRRs per healthy physical PRR: 0 idle, 1.0 fully
        # granted with no overbooking, up to `overcommit` when saturated
        self.metrics.gauge("repro_pool_overcommit_pressure").set(
            granted / physical if physical else 0.0
        )
        self.metrics.gauge("repro_pool_pending_jobs").set(self._ungranted())
        depths = self.tenant_queue_depths()
        # a tenant whose ready queue emptied reads 0, not its last depth
        for tenant in {**self._tenant_depths, **depths}:
            self.metrics.gauge(
                "repro_pool_tenant_queue_depth", {"tenant": tenant}
            ).set(depths.get(tenant, 0))
        self._tenant_depths = depths
