"""End-to-end live compaction: executor relocations, zero-loss
differentials, trigger discipline.

The churn scenario (repro.compact.workloads) parks two pinned long
tenants mid-bus so their chains lane-block the middle IOM; an unpinned
short job is then fragmentation-blocked although four PRRs sit free.
With ``compaction="on"`` the executor relocates each tenant next to
its own IOM over the Figure-5 drain-switch path and the short admits.
"""

import pytest

from repro.compact import churn_jobs, churn_params
from repro.runtime.executor import (
    COMPACTION_BUCKETS,
    ExecutorConfig,
    JobExecutor,
)
from repro.runtime.jobs import (
    JobError,
    SourceSpec,
    StageSpec,
    StreamJob,
)


def config(compaction="off"):
    return ExecutorConfig(
        quantum_us=25.0, max_us=20_000.0, compaction=compaction
    )


def jobs():
    # no deadline: every job runs to DONE in both arms, so the on/off
    # differential isolates the relocations themselves
    return churn_jobs(waves=1, long_words=8_000, short_deadline_us=None)


@pytest.fixture(scope="module")
def churn_runs():
    """One churn run per mode, plus each job's output words."""
    runs = {}
    for mode in ("off", "on"):
        executor = JobExecutor(params=churn_params(), config=config(mode))
        report = executor.run(jobs())
        outputs = {
            job.spec.name: list(job.output_words)
            for job in executor._jobs
        }
        runs[mode] = (executor, report, outputs)
    return runs


# ----------------------------------------------------------------------
# configuration surface
# ----------------------------------------------------------------------
def test_compaction_defaults_off_and_validates():
    assert ExecutorConfig().compaction == "off"
    with pytest.raises(JobError, match="compaction"):
        ExecutorConfig(compaction="maybe")
    assert ExecutorConfig.from_dict({"compaction": "on"}).compaction == "on"


# ----------------------------------------------------------------------
# executor behaviour under churn
# ----------------------------------------------------------------------
def test_off_run_never_relocates(churn_runs):
    _, report, _ = churn_runs["off"]
    assert report.compaction_runs == 0
    assert report.compaction_moves == 0
    assert all(j.relocations == 0 for j in report.jobs)


def test_on_run_relocates_both_tenants_with_zero_loss(churn_runs):
    _, report, _ = churn_runs["on"]
    assert report.compaction_runs == 1
    assert report.compaction_moves == 2
    assert report.compaction_words_lost == 0
    relocated = [j for j in report.jobs if j.relocations > 0]
    assert sorted(j.name for j in relocated) == ["long-0a", "long-0b"]
    for job in relocated:
        assert job.words_lost == 0
    # every job -- longs, shorts -- still runs to completion
    assert all(j.state == "DONE" for j in report.jobs)


def test_relocated_outputs_match_undisturbed_runs(churn_runs):
    """The zero-loss contract, byte-for-byte: a relocated job's output
    equals the same job's output in the run that never moved it."""
    _, _, off_outputs = churn_runs["off"]
    _, report, on_outputs = churn_runs["on"]
    for job in report.jobs:
        if job.state == "DONE":
            assert on_outputs[job.name] == off_outputs[job.name], job.name


class TargetTakingExecutor(JobExecutor):
    """Takes each compaction target's input lane behind admission's back
    while the move reconfigures it (Figure-5 step 3), and gives it back
    once the move returns."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.refused = 0
        self.released_by_refusals = 0
        self.taken = []
        self.switcher.on_step.append(self._take_target_input)

    def _take_target_input(self, step, when, text):
        if step == 3:
            self.taken.append(
                self.system.open_stream(self.target, self.target)
            )

    def move_stage(self, job, old_prr, new_prr, reason):
        self.target = new_prr
        moved = super().move_stage(job, old_prr, new_prr, reason)
        if not moved:
            self.refused += 1
            self.released_by_refusals += sum(
                channel.released for channel in job.channels
            )
        while self.taken:
            self.system.close_stream(self.taken.pop())
        return moved


def test_refused_compaction_move_keeps_every_word(churn_runs):
    """A move whose switch refuses at step 4 stops the compaction pass
    and leaves its job streaming where it was: every job still ends
    DONE with the output of the run that never compacted."""
    _, _, off_outputs = churn_runs["off"]
    executor = TargetTakingExecutor(params=churn_params(), config=config("on"))
    report = executor.run(jobs())
    assert executor.refused >= 1
    assert executor.released_by_refusals == 0
    assert report.compaction_runs >= 1
    assert report.compaction_moves == 0
    assert all(j.state == "DONE" and j.words_lost == 0 for j in report.jobs)
    for job in executor._jobs:
        assert list(job.output_words) == off_outputs[job.spec.name]


def test_compaction_observability(churn_runs):
    executor, _, _ = churn_runs["on"]
    metrics = executor.system.sim.metrics
    moves = metrics.counter(
        "repro_compaction_moves_total", {"tenant": "default"}
    )
    assert moves.value == 2
    assert metrics.counter("repro_compaction_runs_total").value == 1
    # the canonical layout fragments 4 free PRRs into runs of 3+1
    # (ratio 0.25) and compaction coalesces them into one run of 4
    before = metrics.gauge("repro_compaction_frag_ratio_before").value
    after = metrics.gauge("repro_compaction_frag_ratio_after").value
    assert before == pytest.approx(0.25)
    assert after == 0.0
    latency = metrics.histogram(
        "repro_compaction_latency_us", buckets=COMPACTION_BUCKETS
    )
    assert latency.count == 2
    events = executor.system.sim.tracer.events
    compact_spans = [
        e for e in events if e.name == "compact" and e.kind == "B"
    ]
    assert len(compact_spans) == 1
    span = compact_spans[0]
    assert span.attrs["trigger"].startswith("short-")
    assert span.attrs["moves_planned"] == 2
    relocated = [e for e in events if e.name == "relocated"]
    assert len(relocated) == 2
    assert all(e.attrs["words_lost"] == 0 for e in relocated)


def test_capacity_block_never_triggers_compaction():
    """The trigger is fragmentation-gated: a job waiting on a held IOM
    is a capacity block and must not cause planner churn."""
    specs = [
        StreamJob(
            name="holder",
            stages=[StageSpec("passthrough")],
            source=SourceSpec("ramp", count=2_000),
            iom="rsb0.iom0",
            preemptible=False,
        ),
        StreamJob(
            name="waiter",
            stages=[StageSpec("passthrough")],
            source=SourceSpec("ramp", count=200),
            iom="rsb0.iom0",
            arrival_us=10.0,
            preemptible=False,
        ),
    ]
    executor = JobExecutor(params=churn_params(), config=config("on"))
    report = executor.run(specs)
    assert all(j.state == "DONE" for j in report.jobs)
    assert report.compaction_runs == 0
    assert report.compaction_moves == 0
