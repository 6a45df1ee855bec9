"""Batch serving: run a list of independent jobs through a device pool.

:func:`run_batch` is the synchronous front end that ``serve`` (fleet
mode), fault campaigns and the fleet benchmark share.  It starts a
:class:`~repro.pool.devices.DevicePool` with one device per worker and
no overcommit, submits every job, drains and stops, then folds the
pool's per-job results into the same
:class:`~repro.runtime.telemetry.FleetReport` a colocated run returns.

Every job runs single-tenant on a fresh simulated system seeded from
its own name, so the report is identical for any worker count except
in ``workers`` and ``wall_seconds``.
"""

from __future__ import annotations

import asyncio
import sys
import time
from typing import Iterable, List, Optional

from repro.core.params import SystemParameters
from repro.pool.devices import DevicePool, PoolJob
from repro.runtime.executor import ExecutorConfig
from repro.runtime.jobs import JobError, StreamJob, as_job_source
from repro.runtime.telemetry import FleetReport, JobReport


def run_batch(
    specs: Iterable[StreamJob],
    workers: int = 1,
    params: Optional[SystemParameters] = None,
    config: Optional[ExecutorConfig] = None,
    use_processes: bool = True,
) -> FleetReport:
    """Serve ``specs`` on ``min(workers, len(specs))`` pooled devices.

    Worker processes are used only when more than one device runs (and
    ``use_processes`` is set); a single device serves on a thread.
    Jobs come back in submission order.  A job the pool fails without
    running it (too wide for the device, say) gets a FAILED report.
    """
    if workers < 1:
        raise JobError("workers must be >= 1")
    specs = list(as_job_source(specs))
    names = [spec.name for spec in specs]
    if len(names) != len(set(names)):
        raise JobError("fleet job names must be unique")
    devices = max(1, min(workers, len(specs)))
    started = time.perf_counter()
    pool = DevicePool(
        devices=devices,
        params=params,
        config=config,
        overcommit=1.0,
        use_processes=use_processes and devices > 1,
        # final snapshots only: they carry each job's exact registry and
        # span shard, and a batch has no live /metrics reader to feed
        snapshot_every_quanta=sys.maxsize,
    )
    jobs: List[PoolJob] = []

    # returns nothing: asyncio.run reprs the finished main task (and so
    # its result) when it restores the SIGINT handler
    async def serve() -> None:
        await pool.start()
        jobs.extend(pool.submit(spec) for spec in specs)
        await pool.stop()

    asyncio.run(serve())
    runs = [job.run for job in jobs if job.run is not None]
    reports = []
    for index, job in enumerate(jobs):
        report = job.report or JobReport.not_run(job.spec, job.failure_reason)
        report.index = index
        reports.append(report)
    # each job ran on a fresh simulator, so (time, track, seq) is unique
    # and the merged order is independent of placement
    span_events = [event for job in jobs for event in job.span_shard]
    span_events.sort(key=lambda e: (e.time_ps, e.track, e.seq))
    return FleetReport(
        mode="fleet",
        workers=devices,
        jobs=reports,
        wall_seconds=time.perf_counter() - started,
        sim_us=sum(run.sim_us for run in runs),
        icap_busy_fraction=max(
            (run.icap_busy_fraction for run in runs), default=0.0
        ),
        preemptions=sum(run.preemptions for run in runs),
        compaction_runs=sum(run.compaction_runs for run in runs),
        compaction_moves=sum(run.compaction_moves for run in runs),
        compaction_words_lost=sum(
            run.compaction_words_lost for run in runs
        ),
        span_events=span_events,
        metrics=pool.aggregator.merged(),
    )
