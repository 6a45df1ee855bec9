"""End-to-end tests for the colocated executor and batch serving.

These run real simulations (MicroBlaze software, ICAP reconfiguration,
switch-box channels), so sources are kept small.
"""

from dataclasses import replace

import pytest

from repro.core.params import SystemParameters
from repro.obs.export import prometheus_text
from repro.pool import run_batch
from repro.runtime import (
    ExecutorConfig,
    JobError,
    JobExecutor,
    JobState,
    SourceSpec,
    StageSpec,
    StreamJob,
)

FAST = replace(SystemParameters.prototype(), pr_speedup=20_000.0)
FAST_FIG7 = replace(SystemParameters.figure7(), pr_speedup=20_000.0)
CONFIG = ExecutorConfig(quantum_us=10.0, max_us=5_000.0)


def ramp_job(name, count=120, **kwargs):
    return StreamJob(
        name=name,
        stages=kwargs.pop("stages", [StageSpec("passthrough")]),
        source=SourceSpec("ramp", count=count),
        **kwargs,
    )


def run_colocated(jobs, params=FAST, **kwargs):
    executor = JobExecutor(params=params, config=CONFIG, **kwargs)
    return executor.run(jobs), executor


# ----------------------------------------------------------------------
def test_single_job_runs_to_done():
    report, executor = run_colocated([ramp_job("solo")])
    job = report.job("solo")
    assert job.state == "DONE"
    assert job.words_out == 120
    assert job.throughput_words_per_s > 0
    assert not job.interrupted
    assert report.ok
    assert 0 < report.icap_busy_fraction <= 1.0


def test_multi_stage_chain_produces_output():
    report, _ = run_colocated([
        ramp_job("twostage", stages=[StageSpec("abs"), StageSpec("scaler")]),
    ])
    job = report.job("twostage")
    assert job.state == "DONE"
    assert job.stages == 2
    assert job.words_out > 0


def test_two_jobs_share_system_serially():
    """One IOM: the second job waits for the first to finish."""
    report, _ = run_colocated([
        ramp_job("front", count=150),
        ramp_job("back", count=100),
    ])
    assert report.states == {"DONE": 2}
    back = report.job("back")
    assert back.queue_wait_us > 0  # had to wait for the IOM


def test_preemption_evicts_and_preserves_survivor():
    """Figure-5 drain: the victim is evicted mid-stream, the surviving
    high-priority stream sees no interruption."""
    jobs = [
        StreamJob(
            name="keeper", priority=5, preemptible=False,
            stages=[StageSpec("moving_average")],
            source=SourceSpec("sine", count=4000),
        ),
        StreamJob(
            name="victim", priority=1,
            stages=[StageSpec("crc32")],
            source=SourceSpec("ramp", count=4000),
        ),
        StreamJob(
            name="urgent", priority=5, arrival_us=25.0,
            stages=[StageSpec("passthrough")],
            source=SourceSpec("ramp", count=200),
        ),
    ]
    executor = JobExecutor(params=FAST_FIG7, config=CONFIG)
    report = executor.run(jobs)
    assert executor.preemptions == 1
    victim = report.job("victim")
    assert victim.state == "EVICTED"
    assert victim.evictions == 1
    assert victim.drained  # went through the Figure-5 drain path
    assert victim.state_words == 1  # crc32 checkpointed its register
    assert "evicted by higher-priority job 'urgent'" in victim.failure_reason
    keeper = report.job("keeper")
    assert keeper.state == "DONE"
    assert not keeper.interrupted  # zero-interruption survivor
    assert report.job("urgent").state == "DONE"


def test_requeue_on_eviction_runs_again():
    jobs = [
        StreamJob(
            name="patient", priority=1, requeue_on_eviction=True,
            stages=[StageSpec("passthrough")],
            source=SourceSpec("ramp", count=2500),
        ),
        StreamJob(
            name="vip", priority=9, arrival_us=15.0,
            stages=[StageSpec("passthrough")],
            source=SourceSpec("ramp", count=150),
        ),
    ]
    report, executor = run_colocated(jobs)  # prototype: single IOM
    assert executor.preemptions == 1
    patient = report.job("patient")
    assert patient.state == "DONE"  # evicted, requeued, finished
    assert patient.evictions == 1
    assert report.job("vip").state == "DONE"


def test_deadline_miss_fails_job():
    report, _ = run_colocated([
        ramp_job("rushed", count=50_000, deadline_us=60.0),
    ])
    job = report.job("rushed")
    assert job.state == "FAILED"
    assert "deadline" in job.failure_reason
    assert not report.ok


def test_infeasible_job_rejected_not_hung():
    report, _ = run_colocated([
        ramp_job("whale", stages=[StageSpec("abs")] * 3),  # 3 > 2 PRRs
        ramp_job("minnow", count=80),
    ])
    whale = report.job("whale")
    assert whale.state == "FAILED"
    assert "rejected at admission" in whale.failure_reason
    assert report.job("minnow").state == "DONE"


def test_budget_exhaustion_fails_stragglers():
    config = ExecutorConfig(quantum_us=10.0, max_us=120.0)
    executor = JobExecutor(params=FAST, config=config)
    report = executor.run([ramp_job("endless", count=1_000_000)])
    job = report.job("endless")
    assert job.state == "FAILED"
    assert "budget" in job.failure_reason


def test_executor_config_validation():
    with pytest.raises(JobError):
        ExecutorConfig(quantum_us=0.0)
    with pytest.raises(JobError):
        ExecutorConfig.from_dict({"quantum_us": 10.0, "warp": 9})


# ----------------------------------------------------------------------
# fleet
# ----------------------------------------------------------------------
def test_fleet_merges_in_submission_order():
    jobs = [ramp_job(f"job{i}", count=80 + 10 * i) for i in range(5)]
    report = run_batch(
        jobs, 3, params=FAST, config=CONFIG, use_processes=False
    )
    assert [j.name for j in report.jobs] == [f"job{i}" for i in range(5)]
    assert [j.index for j in report.jobs] == list(range(5))
    assert report.states == {"DONE": 5}


def test_fleet_rejects_duplicate_names():
    with pytest.raises(JobError, match="unique"):
        run_batch([ramp_job("dup"), ramp_job("dup")], 2, params=FAST,
                  use_processes=False)


def test_fleet_worker_count_is_clamped():
    report = run_batch([ramp_job("only", count=60)], 8, params=FAST,
                       config=CONFIG, use_processes=False)
    assert report.workers == 1  # one job, one worker
    with pytest.raises(JobError):
        run_batch([ramp_job("only")], 0)


def test_fleet_real_processes_match_inline():
    """Real multiprocessing returns the same reports as in-process."""
    jobs = [ramp_job(f"p{i}", count=60) for i in range(4)]
    inline = run_batch(
        jobs, 2, params=FAST, config=CONFIG, use_processes=False
    )
    forked = run_batch(
        jobs, 2, params=FAST, config=CONFIG, use_processes=True
    )
    for a, b in zip(inline.jobs, forked.jobs):
        da, db = a.to_dict(), b.to_dict()
        assert da == db


def test_fleet_four_processes_equal_one_inline_worker():
    """Every FleetReport field but wall-clock and worker count is the
    same at 4 worker processes as at 1 inline worker -- including the
    FAILED report of a job too wide for the 2-PRR device."""
    jobs = [
        ramp_job(f"w{i}", count=60 + 20 * i,
                 stages=[StageSpec("passthrough")] * (1 + i % 2))
        for i in range(5)
    ]
    jobs.append(ramp_job("too-wide", stages=[StageSpec("abs")] * 3))
    one = run_batch(jobs, 1, params=FAST, config=CONFIG)
    four = run_batch(jobs, 4, params=FAST, config=CONFIG)
    assert (one.workers, four.workers) == (1, 4)
    wide = four.job("too-wide")
    assert wide.state == "FAILED" and wide.index == 5
    assert "needs 3 PRRs" in wide.failure_reason
    assert four.states == {"DONE": 5, "FAILED": 1}

    def fields(report):
        data = report.to_dict()
        del data["wall_seconds"], data["workers"]
        return data

    def spans(report):
        return [(e.kind, e.name, e.track, e.time_ps, e.attrs)
                for e in report.span_events]

    def metrics(report):  # minus the wall-clock quantum histogram
        return [line for line in prometheus_text(report.metrics).splitlines()
                if "quantum_seconds" not in line]

    assert fields(one) == fields(four)
    assert spans(one) == spans(four)
    assert metrics(one) == metrics(four)


# ----------------------------------------------------------------------
# fail-fast and the first-sample hook
# ----------------------------------------------------------------------
def test_fail_fast_colocate_aborts_remaining_jobs():
    jobs = [
        ramp_job("rushed", count=500_000, deadline_us=30.0),
        ramp_job("casualty", count=4000),
    ]
    config = replace(CONFIG, fail_fast=True)
    executor = JobExecutor(params=FAST, config=config)
    report = executor.run(jobs)
    assert report.job("rushed").state == "FAILED"
    casualty = report.job("casualty")
    assert casualty.state == "FAILED"
    assert "aborted by fail-fast" in casualty.failure_reason
    assert "rushed" in casualty.failure_reason
    assert not report.strict_ok


def test_fail_fast_fleet_skips_rest_of_shard():
    jobs = [
        ramp_job("rushed", count=500_000, deadline_us=30.0),
        ramp_job("never-ran", count=100),
    ]
    config = replace(CONFIG, fail_fast=True)
    report = run_batch(
        jobs, 1, params=FAST, config=config, use_processes=False
    )
    skipped = report.job("never-ran")
    assert skipped.state == "FAILED"
    assert "aborted by fail-fast" in skipped.failure_reason
    assert skipped.words_out == 0  # synthesised report; job never ran


def test_without_fail_fast_survivors_complete():
    jobs = [
        ramp_job("rushed", count=500_000, deadline_us=30.0),
        ramp_job("survivor", count=100),
    ]
    report = run_batch(
        jobs, 1, params=FAST, config=CONFIG, use_processes=False
    )
    assert report.job("rushed").state == "FAILED"
    assert report.job("survivor").state == "DONE"


def test_strict_ok_counts_terminal_eviction_as_failure():
    jobs = [
        StreamJob(
            name="keeper", priority=5, preemptible=False,
            stages=[StageSpec("moving_average")],
            source=SourceSpec("sine", count=4000),
        ),
        StreamJob(
            name="victim", priority=1,
            stages=[StageSpec("crc32")],
            source=SourceSpec("ramp", count=4000),
        ),
        StreamJob(
            name="urgent", priority=5, arrival_us=25.0,
            stages=[StageSpec("passthrough")],
            source=SourceSpec("ramp", count=200),
        ),
    ]
    executor = JobExecutor(params=FAST_FIG7, config=CONFIG)
    report = executor.run(jobs)
    assert report.job("victim").state == "EVICTED"
    assert report.ok          # eviction is policy...
    assert not report.strict_ok  # ...but strict callers refuse it


def test_on_first_sample_hook_fires_once_per_job():
    seen = []
    executor = JobExecutor(params=FAST, config=CONFIG)
    executor.on_first_sample = lambda job: seen.append(job.spec.name)
    report = executor.run([ramp_job("a", count=200), ramp_job("b", count=200)])
    assert report.states == {"DONE": 2}
    assert sorted(seen) == ["a", "b"]


# ----------------------------------------------------------------------
# vacate: no exit from the fabric leaves words for the next tenant
# ----------------------------------------------------------------------
class ScriptedExecutor(JobExecutor):
    """Fires ``(words, op)`` actions, in order, against the first job.

    ``op(executor, job)`` runs once the job's live incarnation has
    delivered ``words`` output words -- a deterministic way to drive
    suspend/evict sequences from the polling loop.
    """

    def __init__(self, actions, **kwargs):
        super().__init__(**kwargs)
        self.actions = list(actions)

    def _poll_running(self):
        job = self._jobs[0]
        if (
            self.actions
            and job.state is JobState.RUNNING
            and len(job.iom.received) >= self.actions[0][0]
        ):
            self.actions.pop(0)[1](self, job)
        super()._poll_running()


def fault_evict(executor, job):
    executor._evict_for_fault(job, None, "injected")


def suspend(executor, job):
    assert executor.suspend_job(job)


def outputs(executor):
    return {job.spec.name: job.output_words for job in executor._jobs}


def test_fault_eviction_leaves_no_words_for_the_slots_next_tenant():
    """A fault-evicted stream must not leak into the next job on its IOM
    slot: the detached IOM's source is frozen before the drain."""
    tenant = StreamJob(
        name="b", arrival_us=5.0,
        stages=[StageSpec("passthrough")],
        source=SourceSpec("sine", count=300),
    )
    executor = ScriptedExecutor(
        [(500, fault_evict)], params=FAST, config=CONFIG
    )
    report = executor.run([ramp_job("a", count=3000), tenant])
    assert report.job("a").state == "FAILED"  # no fault retries configured
    assert report.job("b").state == "DONE"
    solo = JobExecutor(params=FAST, config=CONFIG)
    solo.run([tenant])
    assert outputs(executor)["b"] == outputs(solo)["b"]
    assert report.job("b").words_out == 300


def test_deadline_kill_leaves_no_words_for_the_prrs_next_tenant():
    """Failure teardown resets the stage FIFOs as well as the IOM slot's:
    a job killed mid-stream must not leave words in its PRR for the
    next module placed there."""
    tenant = StreamJob(
        name="next", arrival_us=5.0, prrs=["rsb0.prr0"],
        stages=[StageSpec("passthrough")],
        source=SourceSpec("sine", count=300),
    )
    executor = JobExecutor(params=FAST, config=CONFIG)
    report = executor.run([
        ramp_job("rushed", count=50_000, deadline_us=60.0,
                 prrs=["rsb0.prr0"]),
        tenant,
    ])
    assert report.job("rushed").state == "FAILED"
    solo = JobExecutor(params=FAST, config=CONFIG)
    solo.run([tenant])
    assert outputs(executor)["next"] == outputs(solo)["next"]
    assert report.job("next").words_out == 300


def test_requeue_from_zero_after_resume_drops_earlier_output():
    """suspend -> resume -> fault-evict with a retry: the restart replays
    the source from word zero, so no earlier incarnation's output may
    survive into the final stream."""
    from repro.faults.model import CampaignConfig

    config = replace(
        CONFIG,
        faults=CampaignConfig(seed=1, duration_us=50.0, max_fault_retries=1),
    )
    job = ramp_job("hop", count=1500)
    executor = ScriptedExecutor(
        [(400, suspend), (300, fault_evict)], params=FAST, config=config
    )
    report = executor.run([job])
    hop = report.job("hop")
    assert hop.state == "DONE"
    assert hop.suspensions == 1 and hop.fault_evictions == 1
    solo = JobExecutor(params=FAST, config=config)
    solo.run([job])
    assert outputs(executor)["hop"] == outputs(solo)["hop"]
    assert hop.words_out == 1500


def test_attach_fails_job_on_stale_words_in_iom_slot():
    executor = JobExecutor(params=FAST, config=CONFIG)
    slot = executor.system.iom_slots[0]
    for word in range(7):
        slot.producers[0].module_write(word)
    report = executor.run([ramp_job("late")])
    job = report.job("late")
    assert job.state == "FAILED"
    assert job.failure_reason == (
        f"stale words in IOM slot {slot.name} at attach"
    )
    metrics = executor.system.sim.metrics
    assert metrics.value("repro_attach_stale_words_total") == 7
    # the failed attach scrubbed the slot: the next tenant starts clean
    assert all(
        len(interface.fifo) == 0
        for interface in [*slot.producers, *slot.consumers]
    )


def test_lane_contention_retry_matches_solo_output():
    """A placement attempt that loses a switch-box lane unwinds and backs
    off; its IOM must not fill the slot meanwhile, so the retry attaches
    to a clean slot and streams exactly the solo output."""
    job = ramp_job(
        "contended", count=600,
        stages=[StageSpec("abs"), StageSpec("scaler")],
    )
    executor = JobExecutor(params=FAST, config=CONFIG)
    api = executor.system.api
    establish = api.vapres_establish_channel
    calls = []

    def contended(*args, **kwargs):
        # the second hop of the first attempt finds its lanes taken
        calls.append(args)
        if len(calls) == 2:
            return None
        return (yield from establish(*args, **kwargs))

    api.vapres_establish_channel = contended
    report = executor.run([job])
    contended_job = report.job("contended")
    assert contended_job.state == "DONE", contended_job.failure_reason
    assert len(calls) == 5  # two hops, then all three on the retry
    assert executor.system.sim.metrics.value(
        "repro_attach_stale_words_total"
    ) == 0
    solo = JobExecutor(params=FAST, config=CONFIG)
    solo.run([job])
    assert outputs(executor)["contended"] == outputs(solo)["contended"]
    assert contended_job.words_out == 600
