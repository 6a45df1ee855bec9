"""Differential tests: fast path vs event heap on full system scenarios.

These are the acceptance tests for the compiled-schedule engine: the
complete Figure 5 switching methodology, a runtime fleet batch, a tiny
one-stage job, a short multi-cycle stream and a realtime-plus-compaction
lifecycle run are executed twice -- once with the fast path, once on the
pure event heap -- and every externally observable result must be
identical: received words and their timestamps, methodology steps, words
lost, job telemetry, final simulation time, the processed-event count and
the sequence counter.  The last three scenarios are mostly idle clock
edges, so they also pin that quiescence skip-ahead advances most of
their edges, and the tiny job and the lifecycle run pin that windows run
software and completion events inside them.
"""

from dataclasses import replace

from repro.compact import churn_jobs, churn_params
from repro.core.params import SystemParameters
from repro.core.switching import ModuleSwitcher
from repro.modules import Iom, MovingAverage
from repro.modules.base import staged
from repro.modules.sources import sine_wave
from repro.realtime.edf import EdfExecutor
from repro.realtime.workloads import generate_workload
from repro.runtime import (
    ExecutorConfig,
    JobExecutor,
    SourceSpec,
    StageSpec,
    StreamJob,
)
from repro.sim import fastpath as fastpath_engine


def run_fig5(fastpath):
    params = replace(SystemParameters.prototype(), pr_speedup=1000.0)
    from repro.core.system import VapresSystem

    system = VapresSystem(params)
    system.sim.set_fastpath(fastpath)
    iom = Iom("io0", source=sine_wave(count=10_000_000))
    system.attach_iom("rsb0.iom0", iom)
    system.place_module_directly(MovingAverage("filterA", window=4), "rsb0.prr0")
    ch_in = system.open_stream("rsb0.iom0", "rsb0.prr0")
    ch_out = system.open_stream("rsb0.prr0", "rsb0.iom0")
    system.register_module(
        "filterB", lambda: staged(MovingAverage("filterB", window=4))
    )
    system.repository.preload_to_sdram("filterB", "rsb0.prr1")
    system.run_for_us(20)
    report = system.microblaze.run_to_completion(
        ModuleSwitcher(system).switch(
            old_prr="rsb0.prr0",
            new_prr="rsb0.prr1",
            new_module="filterB",
            upstream_slot="rsb0.iom0",
            downstream_slot="rsb0.iom0",
            input_channel=ch_in,
            output_channel=ch_out,
        ),
        "switch",
    )
    system.run_for_us(20)
    return {
        "received": list(iom.received),
        "receive_times": list(iom.receive_times),
        "emit_times": list(iom.emit_times),
        "steps": [s for s, _, _ in report.steps],
        "words_lost": report.words_lost,
        "state_words": list(report.state_words),
        "reconfig_seconds": report.reconfig_seconds,
        "now": system.sim.now,
        "events_processed": system.sim.events_processed,
        "cycles": system.system_clock.cycles,
    }


def test_fig5_switch_identical_under_fastpath():
    heap = run_fig5(fastpath=False)
    fast = run_fig5(fastpath=True)
    assert fast == heap
    assert heap["steps"] == list(range(1, 10))
    assert heap["words_lost"] == 0


def run_fleet(fastpath):
    params = replace(SystemParameters.prototype(), pr_speedup=1000.0)
    config = ExecutorConfig(quantum_us=25.0, max_us=100_000.0)
    executor = JobExecutor(params=params, config=config)
    executor.system.sim.set_fastpath(fastpath)
    jobs = [
        StreamJob(
            name="j0",
            stages=[StageSpec("moving_average", {"window": 4})],
            source=SourceSpec("sine", count=300, params={"period": 64}),
        ),
        StreamJob(
            name="j1",
            stages=[StageSpec("delta_encoder")],
            source=SourceSpec("sine", count=300, params={"period": 64}),
        ),
    ]
    report = executor.run(jobs)
    data = report.to_dict()
    data.pop("wall_seconds", None)
    for job in data.get("jobs", []):
        job.pop("wall_seconds", None)
    return data, executor.system.sim


def without_wall_times(data):
    """A report dict minus its host wall-clock fields."""
    data.pop("wall_seconds", None)
    for job in data.get("jobs", []):
        job.pop("wall_seconds", None)
    return data


def sim_state(sim):
    """The kernel observables both twins must agree on."""
    return {
        "now": sim.now,
        "events_processed": sim.events_processed,
        "next_seq": next(sim._seq),
    }


def assert_mostly_skipped(*sims):
    edges = sum(sim.fastpath_stats["edges"] for sim in sims)
    skipped = sum(sim.fastpath_stats["skipped"] for sim in sims)
    assert 2 * skipped > edges


def test_fleet_serving_identical_under_fastpath():
    heap, sim_h = run_fleet(fastpath=False)
    fast, sim_f = run_fleet(fastpath=True)
    assert fast == heap
    assert sim_f.now == sim_h.now
    assert sim_f.events_processed == sim_h.events_processed
    assert sim_f.fastpath_stats["edges"] > 0
    assert sim_h.fastpath_stats["edges"] == 0


def run_tiny_job(fastpath):
    """One 8-word, one-stage job: the pool front door's job shape."""
    params = replace(SystemParameters.prototype(), pr_speedup=1000.0)
    config = ExecutorConfig(quantum_us=25.0, max_us=100_000.0)
    executor = JobExecutor(params=params, config=config)
    executor.system.sim.set_fastpath(fastpath)
    report = executor.run([
        StreamJob(
            name="tiny",
            stages=[StageSpec("moving_average", {"window": 4})],
            source=SourceSpec("sine", count=8, params={"period": 64}),
        )
    ])
    sim = executor.system.sim
    return without_wall_times(report.to_dict()), sim_state(sim), sim


def test_tiny_job_identical_and_mostly_skipped():
    heap, heap_state, sim_h = run_tiny_job(fastpath=False)
    fast, fast_state, sim_f = run_tiny_job(fastpath=True)
    assert fast == heap
    assert fast_state == heap_state
    assert heap["jobs"][0]["words_out"] == 8
    assert sim_h.fastpath_stats["edges"] == 0
    assert_mostly_skipped(sim_f)
    assert sim_f.fastpath_stats["inlined"] > 0


def run_short_stream(fastpath):
    """IOM -> 7-cycle filter -> 3-cycle filter -> IOM, one short stream
    run in 1 us windows, so stream ends and multi-cycle samples land at
    many offsets from a quiescence check."""
    from repro.core.system import VapresSystem

    params = replace(SystemParameters.prototype(), pr_speedup=1000.0)
    system = VapresSystem(params)
    system.sim.set_fastpath(fastpath)
    iom = Iom("io0", source=sine_wave(count=29))
    system.attach_iom("rsb0.iom0", iom)
    modules = [
        MovingAverage("slow", window=4, cycles_per_sample=7),
        MovingAverage("quick", window=2, cycles_per_sample=3),
    ]
    system.place_module_directly(modules[0], "rsb0.prr0")
    system.place_module_directly(modules[1], "rsb0.prr1")
    system.open_stream("rsb0.iom0", "rsb0.prr0")
    system.open_stream("rsb0.prr0", "rsb0.prr1")
    system.open_stream("rsb0.prr1", "rsb0.iom0")
    for _ in range(30):
        system.run_for_us(1.0)
    sim = system.sim
    return {
        "received": list(iom.received),
        "receive_times": list(iom.receive_times),
        "module_counters": [
            (m.lcd_cycles, m.stall_cycles, m.samples_out) for m in modules
        ],
        "iom_cycles": iom.cycles,
        "cycles": system.system_clock.cycles,
        **sim_state(sim),
    }, sim


def test_identical_when_quiescence_is_checked_every_other_pass(
    monkeypatch,
):
    """Checking at the earliest exact cadence puts checks on the last
    words in flight and on multi-cycle samples, where a component that
    wrongly claimed quiescence would freeze them."""
    monkeypatch.setattr(fastpath_engine, "SKIP_CHECK_PASSES", 2)
    heap, _ = run_short_stream(fastpath=False)
    fast, sim_f = run_short_stream(fastpath=True)
    assert fast == heap
    assert len(heap["received"]) == 29
    assert_mostly_skipped(sim_f)
    assert run_fleet(fastpath=True)[0] == run_fleet(fastpath=False)[0]


def run_lifecycle(fastpath):
    """EDF checkpoint suspend/resume, then a compacting churn batch."""
    rt_params = replace(SystemParameters.prototype(), pr_speedup=20_000.0)
    rt = EdfExecutor(
        params=rt_params,
        config=ExecutorConfig(max_us=20_000.0, quantum_us=5.0, idle_streak=2),
    )
    rt.system.sim.set_fastpath(fastpath)
    rt_report = rt.run_realtime(
        generate_workload(
            seed=7, jobs=3, utilization=0.6, params=rt_params,
            deadline_factor=3.0,
        )
    )
    churn = JobExecutor(
        params=churn_params(),
        config=ExecutorConfig(
            quantum_us=25.0, max_us=20_000.0, compaction="on",
        ),
    )
    churn.system.sim.set_fastpath(fastpath)
    churn_report = churn.run(
        churn_jobs(waves=1, long_words=2_000, short_deadline_us=None)
    )
    rt_data = rt_report.to_dict()
    rt_data["fleet"] = without_wall_times(rt_report.fleet.to_dict())
    data = {
        "realtime": rt_data,
        "churn": without_wall_times(churn_report.to_dict()),
        "realtime_sim": sim_state(rt.system.sim),
        "churn_sim": sim_state(churn.system.sim),
    }
    return data, (rt.system.sim, churn.system.sim)


def test_lifecycle_identical_and_mostly_skipped():
    heap, _ = run_lifecycle(fastpath=False)
    fast, sims = run_lifecycle(fastpath=True)
    assert fast == heap
    assert heap["realtime"]["suspensions_total"] > 0
    assert heap["churn"]["compaction_moves"] > 0
    assert_mostly_skipped(*sims)
    assert all(sim.fastpath_stats["inlined"] > 0 for sim in sims)
