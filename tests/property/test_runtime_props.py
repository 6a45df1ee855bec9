"""Property tests: batch serving is deterministic in the worker count.

The contract of ``repro.pool.run_batch`` is that spreading jobs over
workers is a pure wall-clock optimisation: every job runs single-tenant
on a fresh simulated system seeded from its own name, so the same job
list must yield bit-identical per-job telemetry (outputs, final states,
gap statistics) whether it is served by one worker or four.
"""

from dataclasses import replace

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.params import SystemParameters
from repro.pool import run_batch
from repro.runtime import (
    ExecutorConfig,
    SourceSpec,
    StageSpec,
    StreamJob,
)

FAST = replace(SystemParameters.prototype(), pr_speedup=20_000.0)
CONFIG = ExecutorConfig(quantum_us=10.0, max_us=5_000.0)

stage_specs = st.sampled_from([
    StageSpec("passthrough"),
    StageSpec("abs"),
    StageSpec("moving_average", {"window": 4}),
    StageSpec("scaler", {"gain": 3}),
    StageSpec("delta_encoder"),
])

source_specs = st.builds(
    SourceSpec,
    kind=st.sampled_from(["ramp", "sine", "noise"]),
    count=st.integers(min_value=20, max_value=120),
)


@st.composite
def job_lists(draw):
    n = draw(st.integers(min_value=1, max_value=4))
    return [
        StreamJob(
            name=f"job{i}",
            stages=[draw(stage_specs)],
            source=draw(source_specs),
            priority=draw(st.integers(min_value=0, max_value=3)),
        )
        for i in range(n)
    ]


def comparable(report):
    """Per-job telemetry (everything but wall-clock must match)."""
    return [job.to_dict() for job in report.jobs]


@settings(max_examples=8, deadline=None)
@given(jobs=job_lists())
def test_worker_count_never_changes_results(jobs):
    single = run_batch(
        jobs, 1, params=FAST, config=CONFIG, use_processes=False
    )
    quad = run_batch(
        jobs, 4, params=FAST, config=CONFIG, use_processes=False
    )
    assert comparable(single) == comparable(quad)
    assert all(job.state == "DONE" for job in single.jobs)


@settings(max_examples=6, deadline=None)
@given(
    count=st.integers(min_value=20, max_value=100),
    seed_name=st.text(
        alphabet=st.characters(whitelist_categories=("Ll",)),
        min_size=1, max_size=8,
    ),
)
def test_seeded_sources_depend_only_on_job_name(count, seed_name):
    """A noise-fed job's output is a function of its name, not its worker."""
    job = StreamJob(
        name=seed_name,
        stages=[StageSpec("passthrough")],
        source=SourceSpec("noise", count=count),
    )
    runs = [
        run_batch(
            [job], w, params=FAST, config=CONFIG, use_processes=False
        )
        for w in (1, 2)
    ]
    first, second = (comparable(r) for r in runs)
    assert first == second
