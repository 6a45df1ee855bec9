"""DevicePool behaviour: determinism, the ready queue, device loss, recovery.

All tests run inline workers (threads) -- the code path is identical to
process workers minus the pickling boundary, and a 1-core CI host gains
nothing from real processes (one cross-mode test lives in
test_server).
"""

import asyncio
import itertools
from dataclasses import replace

import pytest

from repro.core.params import SystemParameters
from repro.pool import DevicePool, PoolError
from repro.runtime import ExecutorConfig, JobExecutor
from repro.runtime.jobs import SourceSpec, StageSpec, StreamJob

FAST = replace(SystemParameters.prototype(), pr_speedup=20_000.0)
CONFIG = ExecutorConfig(quantum_us=5.0, idle_streak=1, max_us=100_000.0)


def tiny_job(name, stages=1, count=8, **kwargs):
    return StreamJob(
        name=name,
        stages=[StageSpec("passthrough") for _ in range(stages)],
        source=SourceSpec("ramp", count=count),
        **kwargs,
    )


def make_pool(devices=2, **kwargs):
    kwargs.setdefault("params", FAST)
    kwargs.setdefault("config", CONFIG)
    kwargs.setdefault("use_processes", False)
    return DevicePool(devices=devices, **kwargs)


async def run_pool(specs, devices=2, pool_kwargs=None, mid_run=None):
    """Submit specs, optionally poke the pool mid-run, drain, stop."""
    pool = make_pool(devices=devices, **(pool_kwargs or {}))
    await pool.start()
    jobs = [pool.submit(spec) for spec in specs]
    if mid_run is not None:
        await mid_run(pool)
    await pool.drain()
    await pool.stop(drain=False)
    return pool, jobs


def fingerprint(job):
    """The determinism contract: what must not depend on placement."""
    r = job.report
    return (job.spec.name, job.state, r.state, r.words_out, r.words_lost,
            r.run_us, r.max_gap_us)


# ----------------------------------------------------------------------
def test_pool_runs_batch_to_done():
    specs = [tiny_job(f"j{i}") for i in range(10)]
    pool, jobs = asyncio.run(run_pool(specs, devices=2))
    assert all(job.state == "done" for job in jobs)
    summary = pool.summary()
    assert summary["states"] == {"done": 10}
    assert summary["words_lost"] == 0
    assert all(job.first_sample_t is not None for job in jobs)


def test_pool_results_match_single_device_and_fleet():
    """Differential determinism: 4-device overcommitted pool ==
    1-device pool == a plain JobExecutor run per job, job for job."""
    specs = [
        tiny_job(f"d{i}", stages=1 + i % 2, count=6 + i) for i in range(8)
    ]
    pool4, jobs4 = asyncio.run(run_pool(specs, devices=4))
    pool1, jobs1 = asyncio.run(run_pool(specs, devices=1))
    by_name = {
        spec.name: JobExecutor(params=FAST, config=CONFIG).run([spec]).jobs[0]
        for spec in specs
    }
    for j4, j1 in zip(jobs4, jobs1):
        assert fingerprint(j4) == fingerprint(j1)
        f = by_name[j4.spec.name]
        assert j4.report.words_out == f.words_out
        assert j4.report.max_gap_us == f.max_gap_us
        assert j4.report.state == f.state
    # the 4-device run really did spread work around
    assert len({j.device_id for j in jobs4}) > 1


def test_overcommit_grants_beyond_physical_but_binds_within():
    """With overcommit 2.0 a 2-PRR pool grants 4 vPRRs, yet at most one
    job at a time is dispatched to its worker (whose own admission
    places the stages)."""
    async def scenario():
        pool = make_pool(devices=1, overcommit=2.0)
        await pool.start()
        sub = pool.subscribe()
        jobs = [pool.submit(tiny_job(f"oc{i}")) for i in range(8)]
        device = pool.devices[0]
        stats = pool.stats()
        assert stats["vprr_capacity"] == 4
        assert stats["vprr_granted"] <= 4
        assert stats["pool_pending"] == 8 - stats["vprr_granted"]
        dispatched = [j for j in jobs if j.state == "bound"]
        assert dispatched == [device.running]
        await pool.drain()
        await pool.stop(drain=False)
        events = []
        while not sub.empty():
            events.append(sub.get_nowait())
        return pool, events
    pool, events = asyncio.run(scenario())
    assert pool.summary()["states"] == {"done": 8}
    live = set()
    for event in events:
        if event["event"] == "bound":
            live.add(event["job"])
            assert len(live) == 1, f"two jobs dispatched at once: {live}"
        elif event["event"] in ("done", "failed"):
            live.discard(event["job"])


def test_no_overcommit_with_ratio_one():
    async def scenario():
        pool = make_pool(devices=1, overcommit=1.0)
        await pool.start()
        for i in range(6):
            pool.submit(tiny_job(f"nc{i}"))
        assert pool.stats()["vprr_granted"] <= 2  # = physical PRRs
        await pool.drain()
        await pool.stop(drain=False)
    asyncio.run(scenario())


def test_device_loss_requeues_queued_and_drains_bound():
    specs = [tiny_job(f"l{i}", count=6) for i in range(12)]
    seen = {}
    waiting = []

    async def poke(pool):
        sub = pool.subscribe()
        pool.mark_device_lost(0, reason="test-loss")
        waiting.extend(
            job for job in map(pool.job, range(len(specs)))
            if job.state in ("submitted", "placed")
        )
        while not sub.empty():
            event = sub.get_nowait()
            seen.setdefault(event["event"], 0)
            seen[event["event"]] += 1
        pool.unsubscribe(sub)

    pool, jobs = asyncio.run(run_pool(specs, devices=2, mid_run=poke))
    assert all(job.state == "done" for job in jobs)
    assert seen.get("device_lost") == 1
    # everything bound after the loss ran on the surviving device
    assert waiting and all(j.device_id == 1 for j in waiting)


def test_quarantine_of_all_prrs_loses_device_and_recovery_rejoins():
    async def scenario():
        pool = make_pool(devices=2)
        await pool.start()
        for i in range(8):
            pool.submit(tiny_job(f"q{i}", count=6))
        device = pool.devices[0]
        for prr in device.prr_names:
            pool.quarantine_prr(0, prr)
        assert device.lost and device.lost_reason == "quarantine"
        # scrub-verified recovery: capacity returns, device rejoins
        assert not pool.release_quarantine(
            0, device.prr_names[0], scrub_verified=False
        )
        assert device.lost
        assert pool.release_quarantine(0, device.prr_names[0])
        assert not device.lost
        pool.submit(tiny_job("after-recovery", count=6))
        await pool.drain()
        await pool.stop(drain=False)
        return pool
    pool = asyncio.run(scenario())
    assert pool.summary()["states"] == {"done": 9}
    assert pool.strict_ok


def test_all_devices_lost_fails_pending():
    async def scenario():
        pool = make_pool(devices=1)
        await pool.start()
        jobs = [pool.submit(tiny_job(f"x{i}")) for i in range(6)]
        pool.mark_device_lost(0, reason="unplugged")
        await pool.drain()
        await pool.stop(drain=False)
        return pool, jobs
    pool, jobs = asyncio.run(scenario())
    failed = [j for j in jobs if j.state == "failed"]
    assert failed and all(
        "no healthy devices" in j.failure_reason for j in failed
    )
    assert not pool.strict_ok


def test_duplicate_active_name_and_draining_are_rejected():
    async def scenario():
        pool = make_pool(devices=1)
        await pool.start()
        pool.submit(tiny_job("dup"))
        with pytest.raises(PoolError, match="already active"):
            pool.submit(tiny_job("dup"))
        await pool.drain()
        with pytest.raises(PoolError, match="draining"):
            pool.submit(tiny_job("late"))
        await pool.stop(drain=False)
    asyncio.run(scenario())


def test_pool_default_params_match_the_executor():
    # run_batch inherits the pool's default, so it must be the same
    # system a bare JobExecutor builds
    assert DevicePool().params == JobExecutor().params


def test_too_wide_job_fails_immediately():
    async def scenario():
        pool = make_pool(devices=1)
        await pool.start()
        job = pool.submit(tiny_job("wide", stages=3))  # prototype: 2 PRRs
        await pool.drain()
        await pool.stop(drain=False)
        return job
    job = asyncio.run(scenario())
    assert job.state == "failed"
    assert "widest healthy device" in job.failure_reason


def test_fake_clock_drives_all_timestamps():
    ticks = itertools.count(start=1000.0, step=0.5)

    async def scenario():
        pool = make_pool(devices=1, clock=lambda: next(ticks))
        await pool.start()
        sub = pool.subscribe()
        job = pool.submit(tiny_job("clocked"))
        await pool.drain()
        await pool.stop(drain=False)
        events = []
        while not sub.empty():
            events.append(sub.get_nowait())
        return pool, job, events
    _pool, job, events = asyncio.run(scenario())
    assert job.submitted_t >= 1000.0
    assert job.first_sample_t > job.submitted_t
    assert job.finished_t > job.first_sample_t
    stamps = [e["t"] for e in events]
    assert stamps == sorted(stamps)
    assert all(t >= 1000.0 and (t * 2) == int(t * 2) for t in stamps)
    latency = next(
        e for e in events if e["event"] == "first_sample"
    )["latency_s"]
    assert latency == job.first_sample_t - job.submitted_t


def test_pool_gauges_track_occupancy_and_tenants():
    async def scenario():
        pool = make_pool(devices=2)
        await pool.start()
        for i in range(6):
            pool.submit(tiny_job(f"m{i}"), tenant=f"t{i % 2}")
        depth = pool.metrics.value(
            "repro_pool_tenant_queue_depth", {"tenant": "t0"}
        )
        pressure = pool.metrics.value("repro_pool_overcommit_pressure")
        occupancy = pool.metrics.value(
            "repro_pool_vprr_occupancy", {"device": "0"}
        )
        await pool.drain()
        await pool.stop(drain=False)
        return depth, pressure, occupancy, pool
    depth, pressure, occupancy, pool = asyncio.run(scenario())
    assert depth is not None and depth >= 0
    assert pressure > 0  # overbooked or at least occupied at burst time
    assert occupancy > 0
    # settled back to idle after the drain
    assert pool.metrics.value("repro_pool_overcommit_pressure") == 0.0


def test_tenant_queue_gauge_returns_to_zero_once_drained():
    async def scenario():
        pool = make_pool(devices=1)
        await pool.start()
        for i in range(6):
            pool.submit(tiny_job(f"q{i}"), tenant="t")
        queued = pool.metrics.value(
            "repro_pool_tenant_queue_depth", {"tenant": "t"}
        )
        await pool.drain()
        await pool.stop(drain=False)
        return queued, pool.metrics.value(
            "repro_pool_tenant_queue_depth", {"tenant": "t"}
        )
    queued, drained = asyncio.run(scenario())
    assert queued > 0
    assert drained == 0


# ----------------------------------------------------------------------
# quarantine narrows what a device can run; no job may wait forever
# ----------------------------------------------------------------------
#: a drain that outlives this has hung (these pools drain in well
#: under a second)
DRAIN_TIMEOUT_S = 20.0


async def bounded_drain(pool):
    await asyncio.wait_for(pool.drain(), timeout=DRAIN_TIMEOUT_S)
    await pool.stop(drain=False)


def test_quarantine_narrowed_pool_fails_too_wide_jobs():
    """Width checks count healthy PRRs: a 2-stage job cannot run on a
    device with one PRR quarantined, whether it was pool-pending when
    the quarantine landed or submitted after it."""
    async def scenario():
        # overcommit 1.0: the first job holds every grant, so the
        # second waits pool-pending
        pool = make_pool(devices=1, overcommit=1.0)
        await pool.start()
        first = pool.submit(tiny_job("w0", stages=2))
        waiting = pool.submit(tiny_job("w1", stages=2))
        assert waiting.state == "submitted"
        pool.quarantine_prr(0, "rsb0.prr1")
        late = pool.submit(tiny_job("w2", stages=2))
        await bounded_drain(pool)
        return first, waiting, late
    first, waiting, late = asyncio.run(scenario())
    # dispatched before the quarantine: ran on the whole device
    assert first.state == "done"
    for job in (waiting, late):
        assert job.state == "failed"
        assert "widest healthy device has 1" in job.failure_reason


def test_steal_skips_a_receiver_narrowed_by_quarantine():
    """Device 1 has one healthy PRR, so no 2-stage job may be dispatched
    to it; the whole batch runs on device 0."""
    async def scenario():
        pool = make_pool(devices=2, overcommit=3.0)
        await pool.start()
        pool.quarantine_prr(1, "rsb0.prr1")
        jobs = [pool.submit(tiny_job(f"w{i}", stages=2)) for i in range(4)]
        await bounded_drain(pool)
        return pool, jobs
    pool, jobs = asyncio.run(scenario())
    assert [job.state for job in jobs] == ["done"] * 4
    assert all(job.device_id == 0 for job in jobs)


def test_pinned_job_fails_in_worker_once_its_prr_is_quarantined():
    """A queued job pinned to a PRR that is then quarantined is
    dispatched with the quarantine set, and the worker's admission
    rejects it instead of leaving it queued forever."""
    async def scenario():
        pool = make_pool(devices=1)
        await pool.start()
        busy = pool.submit(tiny_job("busy", stages=2, count=400))
        pinned = pool.submit(tiny_job("pinned", prrs=["rsb0.prr1"]))
        assert pinned.state == "placed"
        pool.quarantine_prr(0, "rsb0.prr1")
        await bounded_drain(pool)
        return busy, pinned
    busy, pinned = asyncio.run(scenario())
    assert busy.state == "done"
    assert pinned.state == "failed"
    assert pinned.failure_reason.startswith("rejected at admission:")
    assert "'rsb0.prr1' is quarantined" in pinned.failure_reason


# ----------------------------------------------------------------------
# one ready queue: nothing waits on a device reservation
# ----------------------------------------------------------------------
def drain_events(sub):
    events = []
    while not sub.empty():
        events.append(sub.get_nowait())
    return events


def test_idle_device_takes_a_ready_job_while_another_is_busy():
    """A long job A holds device 0; once B finishes on device 1, the
    idle device 1 takes C from the ready queue instead of C waiting for
    device 0 -- and C's results equal a calm single-device run."""
    specs = [
        tiny_job("A", count=20_000), tiny_job("B"), tiny_job("C"),
    ]

    async def scenario():
        pool = make_pool(devices=2)
        await pool.start()
        sub = pool.subscribe()
        jobs = [pool.submit(spec) for spec in specs]
        await bounded_drain(pool)
        return jobs, drain_events(sub)

    (a, b, c), events = asyncio.run(scenario())
    assert [job.state for job in (a, b, c)] == ["done"] * 3
    assert (a.device_id, b.device_id, c.device_id) == (0, 1, 1)
    kinds = [(e["event"], e["job"]) for e in events]
    assert kinds.index(("bound", "C")) < kinds.index(("done", "A"))
    _pool1, jobs1 = asyncio.run(run_pool(specs[2:], devices=1))
    assert fingerprint(c) == fingerprint(jobs1[0])


def test_deadline_job_is_bound_before_a_best_effort_job():
    """Ready order is earliest deadline first, then best effort by
    priority: a deadline job overtakes a higher-priority best-effort
    job that arrived before it."""
    async def scenario():
        pool = make_pool(devices=1)
        await pool.start()
        sub = pool.subscribe()
        pool.submit(tiny_job("busy", count=400))
        pool.submit(tiny_job("besteffort", priority=2))
        pool.submit(tiny_job("deadline", deadline_us=50.0))
        await bounded_drain(pool)
        return drain_events(sub)

    bound = [e["job"] for e in asyncio.run(scenario()) if e["event"] == "bound"]
    assert bound == ["busy", "deadline", "besteffort"]
