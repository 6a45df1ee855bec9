"""The pool's live observability plane, end to end.

Cross-bridge trace stitching (golden byte-stable gated timeline,
worker-count invariance), streaming telemetry (snapshot aggregation
into ``live_metrics``), flight-recorder dumps on loss/quarantine, and
the server's ``/events`` + ``/debug`` endpoints.
"""

import asyncio
import json
from dataclasses import replace

import pytest

from repro.core.params import SystemParameters
from repro.pool import (
    ClientError,
    DevicePool,
    PoolServer,
    post_json,
    run_jobs,
    stream_events,
)
from repro.runtime import ExecutorConfig
from repro.runtime.jobs import SourceSpec, StageSpec, StreamJob

FAST = replace(SystemParameters.prototype(), pr_speedup=20_000.0)
CONFIG = ExecutorConfig(quantum_us=5.0, idle_streak=1, max_us=100_000.0)


def tiny_job(name, stages=1, count=8):
    return StreamJob(
        name=name,
        stages=[StageSpec("passthrough") for _ in range(stages)],
        source=SourceSpec("ramp", count=count),
    )


def make_pool(devices=2, **kwargs):
    kwargs.setdefault("params", FAST)
    kwargs.setdefault("config", CONFIG)
    kwargs.setdefault("use_processes", False)
    return DevicePool(devices=devices, **kwargs)


async def run_pool(specs, devices=2, pool_kwargs=None, mid_run=None):
    pool = make_pool(devices=devices, **(pool_kwargs or {}))
    await pool.start()
    jobs = [pool.submit(spec) for spec in specs]
    if mid_run is not None:
        await mid_run(pool)
    await pool.drain()
    await pool.stop(drain=False)
    return pool, jobs


def stitched_bytes(pool):
    return json.dumps(
        pool.stitched_trace(), sort_keys=True, separators=(",", ":")
    )


def trace_shape(trace):
    """Per-(process, thread) event-kind sequences, wall stamps dropped.

    The invariant the stitcher guarantees: the *sequence* of events on
    each (trace, track) is placement-independent even though timestamps
    and device attrs are not.
    """
    processes, threads = {}, {}
    for r in trace["traceEvents"]:
        if r.get("ph") != "M":
            continue
        if r["name"] == "process_name":
            processes[r["pid"]] = r["args"]["name"]
        elif r["name"] == "thread_name":
            threads[(r["pid"], r["tid"])] = r["args"]["name"]
    shape = {}
    for r in trace["traceEvents"]:
        if r.get("ph") == "M":
            continue
        key = (processes[r["pid"]], threads[(r["pid"], r["tid"])])
        shape.setdefault(key, []).append((r["ph"], r["name"]))
    return shape


# ----------------------------------------------------------------------
# tentpole layer 1: cross-process trace stitching
# ----------------------------------------------------------------------
def steal_scenario_trace():
    """A gated two-device scenario, under a constant clock.

    Device 0's bridge dispatch is held, so its first job cannot run;
    device 1 works through every other job from the ready queue, and
    only then is the gate opened.  Every submission happens before the
    first worker event, so the logical history -- which job each device
    takes and when -- is deterministic, and the constant clock zeroes
    every pool-side timestamp: the stitched trace must come out
    byte-identical run over run.
    """
    specs = [tiny_job(f"s{i}", count=6) for i in range(6)]

    async def scenario():
        pool = make_pool(devices=2, clock=lambda: 0.0)
        await pool.start()
        held, gate_open = [], False
        real_submit = pool.bridge.submit

        def gated_submit(worker_id, *dispatch):
            if worker_id == 0 and not gate_open:
                held.append((worker_id, *dispatch))
            else:
                real_submit(worker_id, *dispatch)

        pool.bridge.submit = gated_submit
        jobs = [pool.submit(spec) for spec in specs]
        for _ in range(2000):
            if all(job.state == "done" for job in jobs[1:]):
                break
            await asyncio.sleep(0.005)
        gate_open = True
        for args in held:
            real_submit(*args)
        await pool.drain()
        await pool.stop(drain=False)
        return pool, jobs

    return asyncio.run(scenario())


def test_stolen_job_stitches_into_one_byte_stable_timeline():
    pool_a, jobs_a = steal_scenario_trace()
    pool_b, jobs_b = steal_scenario_trace()
    assert [j.device_id for j in jobs_a] == [0, 1, 1, 1, 1, 1]
    assert stitched_bytes(pool_a) == stitched_bytes(pool_b)

    trace = pool_a.stitched_trace()
    shape = trace_shape(trace)
    for job in jobs_a:
        label = f"trace:{job.trace_id}"
        pool_track = shape[(label, f"job/{job.spec.name}/pool")]
        # admission span brackets the grant instant; execute follows
        assert pool_track.index(("B", "admission")) < pool_track.index(
            ("i", "placed")
        ) < pool_track.index(("E", "admission")) < pool_track.index(
            ("B", "execute")
        )
        assert ("i", "done") in pool_track
        # the device-side shard landed in the same trace (other tracks)
        device_tracks = [
            t for (p, t) in shape if p == label and not t.endswith("/pool")
        ]
        assert device_tracks, "final snapshot shard missing from the trace"


def test_trace_shape_is_invariant_across_worker_counts():
    specs = [tiny_job(f"inv{i}", count=6) for i in range(8)]
    pool1, jobs1 = asyncio.run(run_pool(specs, devices=1))
    pool4, jobs4 = asyncio.run(run_pool(specs, devices=4))
    assert all(j.state == "done" for j in jobs1 + jobs4)
    shape1 = trace_shape(pool1.stitched_trace())
    shape4 = trace_shape(pool4.stitched_trace())
    assert shape1 == shape4
    # and it is a real trace: one process per job, pool + device tracks
    labels = {p for (p, _t) in shape1}
    assert labels == {f"trace:{j.trace_id}" for j in jobs1}
    assert len({t for (_p, t) in shape1}) > len(labels)  # device tracks


# ----------------------------------------------------------------------
# tentpole layer 2: streaming telemetry
# ----------------------------------------------------------------------
def test_periodic_snapshots_feed_live_metrics():
    specs = [tiny_job(f"lv{i}", count=48) for i in range(4)]

    async def watch(pool):
        for _ in range(2000):
            if pool.aggregator.snapshots > 0:
                break
            await asyncio.sleep(0.005)
        assert pool.aggregator.snapshots > 0

    pool, jobs = asyncio.run(run_pool(
        specs, devices=2,
        pool_kwargs={"snapshot_every_quanta": 1}, mid_run=watch,
    ))
    assert all(j.state == "done" for j in jobs)
    agg = pool.aggregator
    # one final per job, plus periodic snapshots in between
    assert agg.finals == len(jobs)
    assert agg.snapshots > agg.finals
    assert agg.live_devices() == []  # nothing in flight after drain
    assert pool.snapshots_total == agg.snapshots

    live = pool.live_metrics()
    # pool-side families (base registry)
    assert live.value(
        "repro_pool_jobs_completed_total", {"tenant": "default"}
    ) == len(jobs)
    assert live.value("repro_pool_snapshots_total") == agg.snapshots
    # device-side families only snapshots can deliver: the executor
    # binds unlabelled fragmentation gauges inside each worker
    assert live.get("repro_prr_free_total") is not None
    # the merge didn't leak device registries into the base
    assert pool.metrics.get("repro_prr_free_total") is None

    stats = pool.stats()["live"]
    assert stats["snapshots"] == agg.snapshots
    assert stats["live_devices"] == []
    assert stats["flight_dumps"] == 0
    assert stats["trace_events"] > 0


def test_latency_histograms_count_every_job():
    specs = [tiny_job(f"h{i}") for i in range(5)]
    pool, jobs = asyncio.run(run_pool(specs, devices=2))
    labels = {"tenant": "default"}
    for family in (
        "repro_pool_queue_seconds",
        "repro_pool_admission_wait_seconds",
        "repro_pool_exec_seconds",
    ):
        hist = pool.metrics.get(family, labels)
        assert hist is not None, family
        assert hist.count == len(jobs), family
    assert pool.metrics.value(
        "repro_pool_jobs_submitted_total", labels
    ) == len(jobs)


# ----------------------------------------------------------------------
# tentpole layer 3: flight recorder
# ----------------------------------------------------------------------
def test_flight_dumps_on_quarantine_and_device_loss():
    async def scenario():
        pool = make_pool(devices=2)
        await pool.start()
        jobs = [pool.submit(tiny_job(f"f{i}", count=6)) for i in range(4)]
        pool.quarantine_prr(0, "rsb0.prr0")  # device 0 survives on prr1
        pool.mark_device_lost(1, reason="cable")
        await pool.drain()
        await pool.stop(drain=False)
        return pool, jobs

    pool, jobs = asyncio.run(scenario())
    assert all(j.state == "done" for j in jobs)
    reasons = [(d["device"], d["reason"]) for d in pool.flight_dumps]
    assert reasons == [(0, "quarantine:rsb0.prr0"), (1, "device_lost:cable")]
    for dump in pool.flight_dumps:
        assert dump["flightrecorder"] == 1
        assert dump["events"], "ring should hold the lifecycle leading in"
    # the loss dump recorded the device's own story, not device 0's
    loss_kinds = {e["kind"] for e in pool.flight_dumps[1]["events"]}
    assert "device_lost" in loss_kinds
    assert pool.stats()["live"]["flight_dumps"] == 2


def test_full_quarantine_dumps_once_as_device_loss():
    async def scenario():
        pool = make_pool(devices=2)
        await pool.start()
        pool.quarantine_prr(0, "rsb0.prr0")
        pool.quarantine_prr(0, "rsb0.prr1")  # second one loses the device
        await pool.stop(drain=False)
        return pool

    pool = asyncio.run(scenario())
    reasons = [d["reason"] for d in pool.flight_dumps if d["device"] == 0]
    assert reasons == ["quarantine:rsb0.prr0", "device_lost:quarantine"]


def test_flight_ring_is_bounded():
    async def scenario():
        pool = make_pool(devices=1, flight_capacity=8)
        await pool.start()
        jobs = [pool.submit(tiny_job(f"b{i}")) for i in range(6)]
        await pool.drain()
        await pool.stop(drain=False)
        return pool, jobs

    pool, jobs = asyncio.run(scenario())
    recorder = pool.flight_recorder(0)
    assert len(recorder) <= 8
    assert recorder.dropped > 0  # 6 jobs x ~6 lifecycle events >> 8


# ----------------------------------------------------------------------
# front door: /events firehose, /debug endpoints, obs_dir artifacts
# ----------------------------------------------------------------------
async def start_server(devices=2, obs_dir=None, **pool_kwargs):
    pool = make_pool(devices=devices, **pool_kwargs)
    server = PoolServer(pool, "127.0.0.1", 0, obs_dir=obs_dir)
    await server.start()
    return server


def test_events_firehose_and_debug_endpoints():
    async def scenario():
        server = await start_server(devices=2)
        host, port = server.host, server.port
        try:
            firehose = []

            async def tail():
                async for event in stream_events(host, port, limit=12):
                    firehose.append(event)

            tail_task = asyncio.get_running_loop().create_task(tail())
            await asyncio.sleep(0)  # let the firehose connect first
            summary = await run_jobs(
                host, port, [tiny_job(f"e{i}") for i in range(3)]
            )
            await asyncio.wait_for(tail_task, timeout=30)

            dumps = await post_json(host, port, "/debug/flightrecorder")
            lost = await post_json(
                host, port, "/debug/lose-device?device=1"
            )
            with pytest.raises(ClientError, match="400"):
                await post_json(host, port, "/debug/lose-device?device=no")
            with pytest.raises(ClientError, match="400"):
                await post_json(host, port, "/debug/lose-device")
            return summary, firehose, dumps, lost, server.pool
        finally:
            await server.aclose()

    summary, firehose, dumps, lost, pool = asyncio.run(scenario())
    assert summary["ok"] and summary["states"] == {"done": 3}
    # the firehose saw all tenants' lifecycle events, unfiltered
    assert len(firehose) == 12
    kinds = {e["event"] for e in firehose}
    assert "submitted" in kinds
    assert all("t" in e for e in firehose)
    # one dump per device, on demand
    assert [d["device"] for d in dumps] == [0, 1]
    assert all(d["reason"] == "request" for d in dumps)
    assert lost == {"ok": True, "device": 1, "lost": True}
    assert pool.devices[1].lost and pool.devices[1].lost_reason == "debug"


def test_live_metrics_endpoint_has_help_and_device_families():
    async def scenario():
        server = await start_server(
            devices=2, snapshot_every_quanta=1
        )
        try:
            await run_jobs(
                server.host, server.port,
                [tiny_job(f"m{i}", count=48) for i in range(4)],
                tenant="alpha",
            )
            reader, writer = await asyncio.open_connection(
                server.host, server.port
            )
            writer.write(
                b"GET /metrics HTTP/1.1\r\nConnection: close\r\n\r\n"
            )
            await writer.drain()
            raw = await reader.read()
            writer.close()
            return raw.decode()
        finally:
            await server.aclose()

    metrics = asyncio.run(scenario())
    assert "# HELP repro_pool_jobs_completed_total " in metrics
    assert "# TYPE repro_pool_queue_seconds histogram" in metrics
    assert 'repro_pool_jobs_completed_total{tenant="alpha"} 4' in metrics
    # device-side family, visible only through the snapshot plane
    assert "repro_prr_free_total" in metrics
    assert "repro_pool_snapshots_total" in metrics


def test_obs_dir_artifacts_written_on_shutdown(tmp_path):
    from repro.pool import request_shutdown

    async def scenario():
        server = await start_server(devices=2, obs_dir=tmp_path / "obs")
        run_task = asyncio.get_running_loop().create_task(
            server.run_until_shutdown()
        )
        summary = await run_jobs(
            server.host, server.port,
            [tiny_job(f"a{i}") for i in range(4)],
        )
        await request_shutdown(server.host, server.port)
        await asyncio.wait_for(run_task, timeout=30)
        return summary

    summary = asyncio.run(scenario())
    assert summary["ok"]
    obs = tmp_path / "obs"
    assert (obs / "pool-trace.json").exists()
    assert (obs / "stitched-trace.json").exists()
    shards = sorted(p.name for p in obs.glob("device*-trace.json"))
    assert shards  # at least one device produced a shard
    # the committed artifacts stitch back to the same canonical trace
    from repro.obs.live import stitch_chrome_trace_files

    restitched = stitch_chrome_trace_files(
        [obs / "pool-trace.json", *sorted(obs.glob("device*-trace.json"))]
    )
    saved = json.loads((obs / "stitched-trace.json").read_text())
    labels = lambda t: sorted(  # noqa: E731
        r["args"]["name"] for r in t["traceEvents"]
        if r.get("ph") == "M" and r["name"] == "process_name"
    )
    assert labels(restitched) == labels(saved)


def test_cli_obs_stitch_merges_shards(tmp_path, capsys):
    from repro.__main__ import main
    from repro.obs import dump_chrome_trace
    from repro.obs.live import tag_events
    from repro.obs.spans import Tracer

    tracer = Tracer(time_fn=lambda: 0, wall_clock=False)
    tracer.instant("hello", track="job/a/pool")
    shard1 = dump_chrome_trace(
        tag_events(tracer.events, "aaaa0001"), tmp_path / "s1.json"
    )
    tracer2 = Tracer(time_fn=lambda: 0, wall_clock=False)
    tracer2.instant("world", track="job/b/pool")
    shard2 = dump_chrome_trace(
        tag_events(tracer2.events, "aaaa0002"), tmp_path / "s2.json"
    )
    out = tmp_path / "stitched.json"
    rc = main([
        "obs", "stitch", str(shard1), str(shard2), "--output", str(out),
    ])
    assert rc == 0
    printed = capsys.readouterr().out
    assert "stitched 2 shard(s)" in printed
    trace = json.loads(out.read_text())
    names = sorted(
        r["args"]["name"] for r in trace["traceEvents"]
        if r.get("ph") == "M" and r["name"] == "process_name"
    )
    assert names == ["trace:aaaa0001", "trace:aaaa0002"]
