"""The asyncio <-> multiprocessing bridge under the device pool.

Simulated VAPRES devices are CPU-bound pure-Python simulators; running
one inside the event loop would stall every connected tenant for the
whole job.  Each :class:`~repro.pool.devices.PooledDevice` therefore
owns one **device worker** -- a ``multiprocessing`` process (or a plain
thread with ``use_processes=False``, for tests and single-core hosts)
that pulls dispatched jobs off an inbox queue via
:class:`~repro.runtime.jobs.QueueJobSource` and runs each single-tenant
on a fresh :class:`~repro.runtime.executor.JobExecutor`.  Each dispatch
carries the device's quarantined PRRs; the worker retires them in the
executor's admission controller before the run, so no stage is placed
on one, and a job they leave no room for is rejected at admission.  A
job's results depend only on its own spec, its name-derived seed and
that quarantine set, never on which worker ran it.  Under
``config.fail_fast`` a worker whose job ends FAILED or EVICTED runs
nothing more: every later job it receives comes back FAILED ("aborted
by fail-fast ...") without running.

Worker processes share one **outbox**; a single daemon pump thread
blocks in ``outbox.get()`` and posts each event into the loop with
``call_soon_threadsafe``, so the loop never blocks on simulation and
never needs locks (and an uncleanly torn-down pool can never pin the
interpreter on a non-daemon thread stuck in a queue read).  Worker
threads need no pump: their outbox posts each event into the loop
directly.  Worker events are plain picklable tuples::

    ("started",      worker_id, job_id, wall_seconds)
    ("first_sample", worker_id, job_id, wall_seconds)
    ("snapshot",     worker_id, job_id, DeviceSnapshot)
    ("finished",     worker_id, job_id, FleetReport)
    ("error",        worker_id, job_id, "message")

A ``"finished"`` payload is the job's one-job
:class:`~repro.runtime.telemetry.FleetReport` (its ``JobReport`` plus
run totals) without span events and metrics, which ship in the final
snapshot.

Dispatches carry a :class:`~repro.obs.live.TraceContext` alongside the
spec, so device-side spans join the submitting pool's trace.  With
``snapshot_every > 0`` the worker posts a ``"snapshot"`` event every
that many executor quanta (a copy of the running job's metrics plus a
short span tail) and one *final* snapshot -- the exact end-of-run
registry and the job's complete track-qualified span shard -- right
before ``"finished"``.
"""

from __future__ import annotations

import asyncio
import itertools
import multiprocessing
import queue
import threading
import time
from dataclasses import replace
from typing import Callable, List, Optional, Tuple

from repro.runtime.jobs import QueueJobSource
from repro.runtime.telemetry import FleetReport, JobReport

#: pump-side sentinel: the bridge is closed, stop the event task
_CLOSED = ("__bridge_closed__", -1, -1, None)

WorkerEvent = Tuple[str, int, int, object]


def _device_worker(
    worker_id, inbox, outbox, params, config, snapshot_every=0
) -> None:
    """One device's serving loop (process or thread entry point)."""
    from repro.obs.live import (
        SNAPSHOT_EVENT_TAIL,
        DeviceSnapshot,
        copy_registry,
        qualify_tracks,
    )
    from repro.runtime.executor import JobExecutor

    aborted_by: Optional[str] = None
    for job_id, spec, ctx, quarantined in QueueJobSource(inbox):
        if aborted_by is not None:
            outbox.put((
                "finished", worker_id, job_id,
                FleetReport(jobs=[JobReport.not_run(spec, aborted_by)]),
            ))
            continue
        outbox.put(("started", worker_id, job_id, time.monotonic()))
        try:
            executor = JobExecutor(params=params, config=config)
            for prr in quarantined:
                executor.admission.quarantine(prr)
            executor.trace_context = ctx
            executor.on_first_sample = (
                lambda job, _id=job_id: outbox.put(
                    ("first_sample", worker_id, _id, time.monotonic())
                )
            )
            seq = itertools.count()
            if snapshot_every > 0:
                def _snapshot(ex, _id=job_id, _seq=seq):
                    sim = ex.system.sim
                    outbox.put((
                        "snapshot", worker_id, _id,
                        DeviceSnapshot(
                            device_id=worker_id,
                            job_id=_id,
                            seq=next(_seq),
                            final=False,
                            sim_us=sim.now / 1e6,
                            metrics=copy_registry(sim.metrics),
                            events=sim.tracer.tail(SNAPSHOT_EVENT_TAIL),
                        ),
                    ))

                executor.snapshot_every_quanta = snapshot_every
                executor.on_snapshot = _snapshot
            run = executor.run([spec])
            if snapshot_every > 0:
                outbox.put((
                    "snapshot", worker_id, job_id,
                    DeviceSnapshot(
                        device_id=worker_id,
                        job_id=job_id,
                        seq=next(seq),
                        final=True,
                        sim_us=run.sim_us,
                        metrics=run.metrics,
                        events=qualify_tracks(run.span_events, spec.name),
                    ),
                ))
            outbox.put((
                "finished", worker_id, job_id,
                replace(run, span_events=[], metrics=None),
            ))
        except Exception as exc:  # noqa: BLE001 - report, keep serving
            outbox.put(
                ("error", worker_id, job_id,
                 f"{type(exc).__name__}: {exc}")
            )
            continue
        state = run.jobs[0].state
        if config.fail_fast and state in ("FAILED", "EVICTED"):
            aborted_by = (
                f"aborted by fail-fast after job {spec.name!r} "
                f"ended {state}"
            )


class _LoopOutbox:
    """The thread workers' outbox: ``put`` posts straight into the loop."""

    def __init__(self, bridge: "WorkerBridge") -> None:
        self._bridge = bridge

    def put(self, event: WorkerEvent) -> None:
        self._bridge._post(event)


class WorkerBridge:
    """N device workers plus the pump that feeds their events to asyncio."""

    def __init__(
        self,
        workers: int,
        params,
        config,
        use_processes: bool = True,
        on_event: Optional[Callable[[WorkerEvent], None]] = None,
        snapshot_every: int = 0,
    ) -> None:
        if workers < 1:
            raise ValueError("bridge needs at least one worker")
        self.use_processes = use_processes
        self.on_event = on_event
        self.snapshot_every = snapshot_every
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._pump_thread: Optional[threading.Thread] = None
        self._closed = False
        if use_processes:
            methods = multiprocessing.get_all_start_methods()
            context = multiprocessing.get_context(
                "fork" if "fork" in methods else "spawn"
            )
            self.outbox = context.Queue()
            self._inboxes = [context.Queue() for _ in range(workers)]
            self._workers: List[object] = [
                context.Process(
                    target=_device_worker,
                    args=(i, self._inboxes[i], self.outbox, params,
                          config, snapshot_every),
                    daemon=True,
                    name=f"repro-pool-dev{i}",
                )
                for i in range(workers)
            ]
        else:
            self.outbox = _LoopOutbox(self)
            self._inboxes = [queue.Queue() for _ in range(workers)]
            self._workers = [
                threading.Thread(
                    target=_device_worker,
                    args=(i, self._inboxes[i], self.outbox, params,
                          config, snapshot_every),
                    daemon=True,
                    name=f"repro-pool-dev{i}",
                )
                for i in range(workers)
            ]

    # ------------------------------------------------------------------
    def start(self) -> None:
        self._loop = asyncio.get_running_loop()
        for worker in self._workers:
            worker.start()
        if self.use_processes:
            self._pump_thread = threading.Thread(
                target=self._pump_main, daemon=True, name="repro-pool-pump"
            )
            self._pump_thread.start()

    def submit(
        self, worker_id: int, job_id: int, spec, ctx=None,
        quarantined: Tuple[str, ...] = (),
    ) -> None:
        """Dispatch one job (plus trace context and the device's
        quarantined PRRs) to its worker."""
        self._inboxes[worker_id].put((job_id, spec, ctx, quarantined))

    def _pump_main(self) -> None:
        while True:
            event = self.outbox.get()
            if event[0] == _CLOSED[0] or not self._post(event):
                return

    def _post(self, event: WorkerEvent) -> bool:
        """Hand one event to the loop; False once the loop is closed."""
        try:
            self._loop.call_soon_threadsafe(self._dispatch, event)
        except RuntimeError:
            return False  # loop already closed (unclean teardown)
        return True

    def _dispatch(self, event: WorkerEvent) -> None:
        if self.on_event is not None:
            self.on_event(event)

    # ------------------------------------------------------------------
    async def stop(self) -> None:
        """Close worker inboxes, join them, then stop the pump."""
        if self._closed:
            return
        self._closed = True
        for inbox in self._inboxes:
            QueueJobSource(inbox).close()
        loop = asyncio.get_running_loop()
        for worker in self._workers:
            await loop.run_in_executor(None, worker.join)
        if self._pump_thread is not None:
            self.outbox.put(_CLOSED)
            await loop.run_in_executor(None, self._pump_thread.join)
