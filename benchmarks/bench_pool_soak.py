"""Experiment RT-POOL: overcommitted device-pool soak.

Floods a 4-device pool (overcommit 2.0) with the shared tiny-job soak
batch from :mod:`repro.bench.workloads`, keeping every job in flight at
once: all submissions are accepted up front (granted vPRRs or
pool-pending), then the pool drains.  Measured:

* **admission throughput** -- jobs submitted (placed or queued) per
  second of wall-clock submission time,
* **completion throughput** -- jobs finished per second over the drain,
* **p50/p99 submit-to-first-sample latency** -- from ``submitted_t`` to
  the worker's first streamed sample, per job.

Asserts zero sample loss across the whole soak and that the peak
in-flight count really was the whole batch (the overcommit grant layer
must never reject a submission the pool has capacity to queue).

``REPRO_POOL_SOAK_JOBS`` sizes the batch.  The default (1200) keeps CI
wall-clock reasonable while still exceeding the 1k-concurrent
acceptance bar; the full experiment documented in EXPERIMENTS.md uses
10_000.  Workers run inline (threads) -- a 1-core CI host gains nothing
from process workers, and the soak targets the scheduling/bridge
machinery, not simulator parallelism.
"""

import asyncio
import os
from time import perf_counter

from repro.bench.workloads import soak_config, soak_jobs, soak_params

JOBS = int(os.environ.get("REPRO_POOL_SOAK_JOBS", "1200"))
DEVICES = 4
OVERCOMMIT = 2.0


def percentile(values, fraction):
    ordered = sorted(values)
    index = min(len(ordered) - 1, int(fraction * len(ordered)))
    return ordered[index]


def run_soak():
    from repro.pool import DevicePool

    async def scenario():
        pool = DevicePool(
            devices=DEVICES,
            params=soak_params(),
            config=soak_config(),
            overcommit=OVERCOMMIT,
            use_processes=False,
        )
        await pool.start()
        submit_start = perf_counter()
        jobs = [pool.submit(spec) for spec in soak_jobs(JOBS)]
        submit_elapsed = perf_counter() - submit_start
        in_flight = sum(
            1 for job in jobs if job.state not in ("done", "failed")
        )
        drain_start = perf_counter()
        await pool.drain()
        drain_elapsed = perf_counter() - drain_start
        await pool.stop(drain=False)
        return pool, jobs, submit_elapsed, in_flight, drain_elapsed

    return asyncio.run(scenario())


def test_pool_soak(benchmark):
    pool, jobs, submit_s, in_flight, drain_s = benchmark.pedantic(
        run_soak, rounds=1, iterations=1
    )

    summary = pool.summary()
    assert summary["states"] == {"done": JOBS}, summary["states"]
    assert summary["words_lost"] == 0, "sample loss during soak"
    assert in_flight == JOBS, (
        f"only {in_flight}/{JOBS} jobs were concurrently in flight"
    )

    latencies = [
        (job.first_sample_t - job.submitted_t) * 1e3 for job in jobs
    ]
    admission_rate = JOBS / submit_s
    completion_rate = JOBS / drain_s
    p50 = percentile(latencies, 0.50)
    p99 = percentile(latencies, 0.99)

    print()
    print(
        f"RT-POOL: {JOBS} jobs, {DEVICES} devices, "
        f"overcommit {OVERCOMMIT}"
    )
    print(f"  admission:  {admission_rate:,.0f} jobs/s "
          f"(all {in_flight} in flight)")
    print(f"  completion: {completion_rate:,.0f} jobs/s "
          f"({drain_s:.2f}s drain)")
    print(f"  submit->first-sample: p50 {p50:,.0f} ms, p99 {p99:,.0f} ms")
    benchmark.extra_info["RT-POOL:jobs"] = JOBS
    benchmark.extra_info["RT-POOL:devices"] = DEVICES
    benchmark.extra_info["RT-POOL:overcommit"] = OVERCOMMIT
    benchmark.extra_info["RT-POOL:admission_jobs_per_s"] = admission_rate
    benchmark.extra_info["RT-POOL:completion_jobs_per_s"] = completion_rate
    benchmark.extra_info["RT-POOL:first_sample_p50_ms"] = p50
    benchmark.extra_info["RT-POOL:first_sample_p99_ms"] = p99
    benchmark.extra_info["RT-POOL:words_lost"] = summary["words_lost"]
