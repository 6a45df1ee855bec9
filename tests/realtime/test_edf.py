"""EDF scheduling: deadlines, checkpoint swaps, the ablation claim."""

from dataclasses import replace

import pytest

from repro.core.params import SystemParameters
from repro.realtime.edf import (
    EdfExecutor,
    output_fingerprint,
    run_priority_baseline,
)
from repro.realtime.workloads import generate_workload
from repro.runtime.executor import ExecutorConfig


@pytest.fixture(scope="module")
def params():
    # the benchmark convention: module restores cost a few simulated us
    return replace(SystemParameters.prototype(), pr_speedup=20_000.0)


@pytest.fixture(scope="module")
def config():
    # realtime needs tight reaction: a 25us quantum with a 3-poll
    # completion streak burns most of a period per rotation
    return ExecutorConfig(max_us=20_000.0, quantum_us=5.0, idle_streak=2)


@pytest.fixture(scope="module")
def feasible(params):
    return generate_workload(
        seed=7, jobs=3, utilization=0.6, params=params, deadline_factor=3.0
    )


@pytest.fixture(scope="module")
def feasible_report(params, config, feasible):
    return EdfExecutor(params=params, config=config).run_realtime(feasible)


def test_feasible_workload_hits_every_deadline(feasible_report):
    report = feasible_report
    assert report.ok
    assert report.hit_rate == 1.0
    assert report.frames_total == 15
    # three jobs on two PRRs: time-sharing is mandatory, and swaps go
    # through the checkpoint path, not the restart path: every attempt
    # after the first is a resume, and no job is ever evicted
    assert report.preemptions > 0
    assert report.suspensions_total > 0
    for job in report.fleet.jobs:
        assert job.state == "DONE"
        assert job.evictions == 0
        assert job.attempts == job.suspensions + 1


def test_preempted_output_matches_solo_run(params, config, feasible,
                                           feasible_report):
    """Acceptance: suspend/resume is invisible in the output stream."""
    shared = feasible_report
    for job, outcome in zip(feasible, shared.jobs):
        assert outcome.suspensions > 0 or job.name == "rt2"
        solo = EdfExecutor(params=params, config=config).run_realtime([job])
        assert solo.jobs[0].fingerprint == outcome.fingerprint
        assert solo.jobs[0].words_out == outcome.words_out


def test_edf_beats_priority_at_overload(params, config):
    """Acceptance: >= 1.0 offered utilization, EDF sustains more hits.

    At 1.2x aggregate demand the utilization-bound admission sheds the
    latest-deadline job and the admitted set stays schedulable; the
    priority baseline thrashes everyone through restarts.
    """
    jobs = generate_workload(
        seed=7, jobs=4, utilization=1.2, params=params, deadline_factor=3.0
    )
    edf = EdfExecutor(
        params=params, config=config, utilization_bound=0.75
    ).run_realtime(jobs)
    prio = run_priority_baseline(jobs, params=params, config=config)
    assert edf.frames_total == prio.frames_total == 20
    assert edf.hits_total >= prio.hits_total + 3
    assert edf.hit_rate >= 1.5 * prio.hit_rate


def test_admission_bound_rejects_excess_demand(params, config):
    jobs = generate_workload(
        seed=7, jobs=2, utilization=1.0, params=params, deadline_factor=3.0
    )
    report = EdfExecutor(
        params=params, config=config, utilization_bound=0.3
    ).run_realtime(jobs)
    reasons = [job.failure_reason for job in report.fleet.jobs]
    assert any("utilization bound" in reason for reason in reasons)


def test_priority_baseline_never_suspends(params, config, feasible):
    report = run_priority_baseline(feasible, params=params, config=config)
    assert report.scheduler == "priority"
    assert report.suspensions_total == 0


def test_fingerprint_is_stable_and_order_sensitive():
    assert output_fingerprint([1, 2, 3]) == output_fingerprint([1, 2, 3])
    assert output_fingerprint([1, 2, 3]) != output_fingerprint([3, 2, 1])
    assert len(output_fingerprint([])) == 8


def test_report_serializes(feasible_report):
    report = feasible_report
    data = report.to_dict()
    assert data["scheduler"] == "edf"
    assert len(data["jobs"]) == 3
    for entry in data["jobs"]:
        assert {"name", "fingerprint", "hits", "misses"} <= set(entry)
    text = report.render_text()
    assert "frames" in text and "rt0" in text
