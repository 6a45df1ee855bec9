"""Property tests: compaction plans stay sound against the real ledger.

The planner works on one live admission controller; its four
load-bearing promises are

* a move sequence is *applicable*: every move's target PRR is free at
  the moment that move runs (no two live modules ever share a PRR),
* a non-empty plan pays for itself: replayed against the controller it
  was planned from, the largest free PRR run strictly grows and no free
  capacity is lost,
* planning leaves no trace: the controller's ledger and its exported
  metrics are exactly as they were before the plan,
* relocation is invisible to the data path: a job moved mid-stream
  produces exactly the words it produces when nothing moves it.

Ledgers come from a *real* :class:`AdmissionController` on the churn
layout -- random pinned residents admitted through the normal
enqueue/decide/occupy path -- so the state the planner sees here is
exactly the state it sees in production.
"""

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.compact import churn_jobs, churn_params
from repro.compact.planner import plan_compaction
from repro.obs.export import prometheus_text
from repro.obs.metrics import MetricsRegistry
from repro.runtime.admission import AdmissionController, AdmissionDecision
from repro.runtime.executor import ExecutorConfig, JobExecutor
from repro.runtime.jobs import (
    Job,
    JobState,
    SourceSpec,
    StageSpec,
    StreamJob,
)

PRRS = [f"rsb0.prr{i}" for i in range(6)]
IOMS = [f"rsb0.iom{i}" for i in range(3)]


def pinned_job(name, iom, prr, index):
    spec = StreamJob(
        name=name,
        stages=[StageSpec("passthrough")],
        source=SourceSpec("ramp", count=100),
        iom=iom,
        prrs=[prr],
        preemptible=False,
    )
    return Job(spec, index=index)


@st.composite
def admitted_ledgers(draw):
    """A live controller with 1-3 randomly pinned residents.

    Each candidate goes through the production admission path; a
    pinning the lane model cannot route stays queued (residents are only
    added, so it never becomes assignable), and every drawn ledger is a
    reachable serving state, never a synthetic one.
    """
    count = draw(st.integers(min_value=1, max_value=3))
    prrs = draw(st.permutations(PRRS))[:count]
    ioms = draw(st.permutations(IOMS))[:count]
    controller = AdmissionController(churn_params())
    residents = {}
    for i, (iom, prr) in enumerate(zip(ioms, prrs)):
        job = pinned_job(f"job{i}", iom, prr, i)
        result = controller.enqueue(job, 0.0)
        if result.decision is not AdmissionDecision.QUEUE:
            continue
        pick = controller.next_decision(0.0, [])
        if pick is None:
            continue
        picked, decision = pick
        controller.occupy(picked, decision.assignment)
        picked.assignment = decision.assignment
        picked.transition(JobState.ADMITTED, 0.0)
        residents[picked.spec.name] = picked
    assume(residents)
    return controller, residents


@settings(max_examples=60, deadline=None)
@given(data=admitted_ledgers())
def test_moves_never_overlap_two_live_modules(data):
    """Replaying the move list over an occupancy model, every target is
    free when its move runs and every source matches the mover's actual
    placement at that point in the sequence."""
    controller, residents = data
    plan = plan_compaction(controller, residents.values())
    occupied = {
        prr
        for job in residents.values()
        for prr in job.assignment.prrs
    }
    location = {
        name: list(job.assignment.prrs)
        for name, job in residents.items()
    }
    for move in plan.moves:
        assert move.job in residents
        assert move.new_prr not in occupied
        assert location[move.job][move.stage] == move.old_prr
        occupied.discard(move.old_prr)
        occupied.add(move.new_prr)
        location[move.job][move.stage] = move.new_prr


@settings(max_examples=60, deadline=None)
@given(data=admitted_ledgers())
def test_nonempty_plans_strictly_grow_the_largest_run(data):
    """Applied to the controller it was planned from, move by move, a
    non-empty plan lands exactly on its predicted stats: same free
    total, strictly larger largest run."""
    controller, residents = data
    plan = plan_compaction(controller, residents.values())
    before = controller.free_run_stats()
    assert plan.before == before
    if plan.empty:
        assert plan.after == before
        return
    for move in plan.moves:
        controller.relocate(residents[move.job], move.old_prr, move.new_prr)
    after = controller.free_run_stats()
    assert after == plan.after
    assert after[1] > before[1]
    assert after[0] == before[0]


def ledger_state(controller):
    """Everything planning could disturb: grants, free set, lanes."""
    return (
        {
            name: (a.rsb, a.iom, list(a.prrs))
            for name, a in getattr(controller, "_resident").items()
        },
        sorted(getattr(controller, "_free_prrs")),
        [
            (list(state.right_used), list(state.left_used))
            for state in controller.rsb_states
        ],
    )


@settings(max_examples=60, deadline=None)
@given(data=admitted_ledgers())
def test_planning_leaves_ledger_and_metrics_untouched(data):
    """Trial moves are undone: the ledger and every exported gauge read
    byte-for-byte what they read before the planner ran."""
    controller, residents = data
    registry = MetricsRegistry()
    controller.bind_metrics(registry)
    text = prometheus_text(registry)
    state = ledger_state(controller)
    plan_compaction(controller, residents.values())
    assert prometheus_text(registry) == text
    assert ledger_state(controller) == state


CONFIG = dict(quantum_us=25.0, max_us=20_000.0)


@settings(max_examples=3, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_relocated_jobs_match_their_solo_fingerprints(seed):
    """Zero loss, end to end: whatever churn shape the seed draws, every
    job compaction relocates emits the words it emits when it runs alone
    on an undisturbed system."""
    specs = churn_jobs(
        waves=1,
        seed=seed,
        long_words=1_500,
        short_words=400,
        short_deadline_us=None,
    )
    executor = JobExecutor(
        params=churn_params(),
        config=ExecutorConfig(compaction="on", **CONFIG),
    )
    report = executor.run(specs)
    outputs = {
        job.spec.name: list(job.output_words) for job in executor._jobs
    }
    relocated = [j.name for j in report.jobs if j.relocations > 0]
    states = {j.name: j.state for j in report.jobs}
    for spec in specs:
        if spec.name not in relocated:
            continue
        assert states[spec.name] == "DONE"
        solo = JobExecutor(
            params=churn_params(),
            config=ExecutorConfig(compaction="off", **CONFIG),
        )
        solo.run([spec])
        (job,) = solo._jobs
        assert outputs[spec.name] == list(job.output_words), spec.name
