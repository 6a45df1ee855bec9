"""Unit tests for job specs, the lifecycle state machine and jobfiles."""

import json

import pytest

from repro.runtime.jobs import (
    Job,
    JobError,
    JobState,
    RetryPolicy,
    SourceSpec,
    StageSpec,
    StreamJob,
    load_jobfile,
)


# ----------------------------------------------------------------------
# specs
# ----------------------------------------------------------------------
def test_stage_spec_from_string_and_dict():
    assert StageSpec.from_value("abs").kind == "abs"
    spec = StageSpec.from_value({"kind": "moving_average", "window": 8})
    assert spec.params == {"window": 8}
    module = spec.build("m")
    assert module.name == "m"


def test_stage_spec_rejects_unknown_kind():
    with pytest.raises(JobError, match="unknown stage kind"):
        StageSpec("warp_drive")
    with pytest.raises(JobError, match="needs a 'kind'"):
        StageSpec.from_value({"window": 4})


def test_source_spec_builds_iterators():
    words = list(SourceSpec("ramp", count=5, params={"step": 2}).build())
    assert words == [0, 2, 4, 6, 8]
    constant = list(SourceSpec("constant", count=3, params={"value": 7}).build())
    assert constant == [7, 7, 7]


def test_seeded_source_uses_job_seed_fallback():
    spec = SourceSpec("noise", count=16)
    assert list(spec.build(default_seed=1)) != list(spec.build(default_seed=2))
    assert list(spec.build(default_seed=1)) == list(spec.build(default_seed=1))


def test_source_spec_rejects_bad_input():
    with pytest.raises(JobError, match="unknown source kind"):
        SourceSpec("tape_deck")
    with pytest.raises(JobError, match="count must be"):
        SourceSpec("ramp", count=0)
    for kind in ("sine", "noisy_sine"):
        with pytest.raises(JobError, match="period must not be 0"):
            SourceSpec(kind, params={"period": 0})
    with pytest.raises(JobError, match="amplitude must be >= 0"):
        SourceSpec("noise", params={"amplitude": -5})
    with pytest.raises(JobError, match="noise_amplitude must be >= 0"):
        SourceSpec("noisy_sine", params={"noise_amplitude": -1})
    # a negative period is a mirrored wave, not an error
    assert len(list(SourceSpec("sine", count=4, params={"period": -8}).build())) == 4


def test_job_seed_is_stable_name_hash():
    a = StreamJob(name="alpha")
    assert a.seed == StreamJob(name="alpha").seed
    assert a.seed != StreamJob(name="beta").seed


def test_stream_job_validation():
    with pytest.raises(JobError, match="needs a name"):
        StreamJob(name="")
    with pytest.raises(JobError, match="at least one stage"):
        StreamJob(name="x", stages=[])
    with pytest.raises(JobError, match="unknown reconfig path"):
        StreamJob(name="x", reconfig_path="jtag")
    with pytest.raises(JobError, match="lcd_select"):
        StreamJob(name="x", lcd_select=3)
    with pytest.raises(JobError, match="one PRR per stage"):
        StreamJob(name="x", prrs=["rsb0.prr0", "rsb0.prr1"])


def test_stream_job_round_trips_through_dict():
    job = StreamJob(
        name="roundtrip",
        stages=[StageSpec("fir", {"taps": [1, 2, 1]}), StageSpec("abs")],
        source=SourceSpec("sine", count=64, params={"period": 16}),
        priority=3,
        deadline_us=500.0,
        lcd_select=1,
        retry=RetryPolicy(max_attempts=2, backoff_us=50.0),
        requeue_on_eviction=True,
    )
    clone = StreamJob.from_dict(job.to_dict())
    assert clone == job


def test_from_dict_rejects_unknown_keys():
    with pytest.raises(JobError, match="unknown keys"):
        StreamJob.from_dict({"name": "x", "color": "red"})


def test_retry_policy_backoff_is_bounded():
    policy = RetryPolicy(
        max_attempts=5, backoff_us=100.0, factor=2.0, max_backoff_us=300.0
    )
    assert policy.backoff_for(1) == pytest.approx(100.0)
    assert policy.backoff_for(2) == pytest.approx(200.0)
    assert policy.backoff_for(3) == pytest.approx(300.0)  # clamped
    assert policy.backoff_for(10) == pytest.approx(300.0)


# ----------------------------------------------------------------------
# lifecycle state machine
# ----------------------------------------------------------------------
def test_job_happy_path_transitions():
    job = Job(StreamJob(name="ok"))
    for state in (JobState.ADMITTED, JobState.PLACING, JobState.RUNNING,
                  JobState.DRAINING, JobState.DONE):
        job.transition(state, now_us=1.0)
    assert job.terminal
    assert job.finished_us == 1.0


def test_job_rejects_illegal_transition():
    job = Job(StreamJob(name="bad"))
    with pytest.raises(JobError, match="illegal transition"):
        job.transition(JobState.RUNNING, now_us=0.0)
    job.transition(JobState.ADMITTED, now_us=0.0)
    with pytest.raises(JobError, match="illegal transition"):
        job.transition(JobState.DONE, now_us=0.0)


def test_job_eviction_and_requeue_paths():
    job = Job(StreamJob(name="evictee"))
    job.transition(JobState.ADMITTED, 0.0)
    job.transition(JobState.PLACING, 1.0)
    job.transition(JobState.RUNNING, 2.0)
    job.reset_for_requeue()
    job.transition(JobState.QUEUED, 3.0)  # requeue-on-eviction
    job.transition(JobState.ADMITTED, 4.0)
    job.transition(JobState.EVICTED, 5.0)  # final eviction
    assert job.terminal


def test_terminal_states_are_sinks():
    job = Job(StreamJob(name="done"))
    job.fail("broke", 1.0)
    assert job.state is JobState.FAILED
    with pytest.raises(JobError):
        job.transition(JobState.QUEUED, 2.0)


# ----------------------------------------------------------------------
# jobfiles
# ----------------------------------------------------------------------
def write_jobfile(tmp_path, payload):
    path = tmp_path / "jobs.json"
    path.write_text(json.dumps(payload))
    return path


def test_load_jobfile_defaults(tmp_path):
    path = write_jobfile(tmp_path, {"jobs": [{"name": "a"}]})
    jobfile = load_jobfile(path)
    assert jobfile.mode == "fleet"
    assert jobfile.workers == 1
    assert jobfile.params.pr_speedup == 1000.0  # serving default
    assert jobfile.jobs[0].stages[0].kind == "passthrough"


def test_load_jobfile_explicit_speedup_kept(tmp_path):
    path = write_jobfile(tmp_path, {
        "system": {"preset": "prototype", "pr_speedup": 7.0},
        "jobs": [{"name": "a"}],
    })
    assert load_jobfile(path).params.pr_speedup == 7.0


@pytest.mark.parametrize("payload, message", [
    ({"jobs": []}, "non-empty list"),
    ({"mode": "warp", "jobs": [{"name": "a"}]}, "mode must be"),
    ({"jobs": [{"name": "a"}, {"name": "a"}]}, "names must be unique"),
    ({"system": {"preset": "nope"}, "jobs": [{"name": "a"}]},
     "bad system spec"),
])
def test_load_jobfile_rejects_bad_files(tmp_path, payload, message):
    path = write_jobfile(tmp_path, payload)
    with pytest.raises(JobError, match=message):
        load_jobfile(path)


def test_load_jobfile_rejects_bad_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(JobError, match="not valid JSON"):
        load_jobfile(path)


def test_example_jobfiles_parse():
    small = load_jobfile("examples/jobfiles/small.json")
    assert small.mode == "fleet"
    assert len(small.jobs) == 4
    preempt = load_jobfile("examples/jobfiles/preempt.json")
    assert preempt.mode == "colocate"
    priorities = {j.name: j.priority for j in preempt.jobs}
    assert priorities["alarm-hi"] > priorities["logger-lo"]


# ----------------------------------------------------------------------
# job sources
# ----------------------------------------------------------------------
def test_queue_job_source_streams_until_closed():
    import queue

    from repro.runtime.jobs import QueueJobSource

    source = QueueJobSource(queue.Queue())
    source.put(StreamJob(name="first"))
    source.put(StreamJob(name="second"))
    source.close()
    assert [j.name for j in source] == ["first", "second"]
