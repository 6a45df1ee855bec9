"""Unit tests for the compaction planner (repro.compact.planner).

Everything runs against live admission controllers on the canonical
fragmentation-prone layout from
:func:`repro.compact.workloads.churn_params`: six PRRs at bus positions
1,2,3,5,6,7 interleaved with three IOMs at 0,4,8 and a single lane per
direction.  Two pinned long tenants parked mid-bus (prr3 from iom0,
prr4 from iom2) split the free pool into runs of 3 and 1; compacting
each next to its own IOM coalesces a run of 4.  Residents are admitted
through enqueue/next_decision/occupy, so every ledger is a reachable
serving state.
"""

from dataclasses import replace

from repro.compact import churn_params
from repro.compact.planner import Relocation, plan_compaction
from repro.runtime.admission import AdmissionController
from repro.runtime.jobs import Job, JobState, SourceSpec, StageSpec, StreamJob


def controller_for(kr=1, kl=1):
    params = churn_params()
    rsb = replace(params.rsbs[0], kr=kr, kl=kl)
    return AdmissionController(replace(params, rsbs=[rsb]))


def admit(controller, name, iom, prr):
    """Admit one pinned single-stage resident, as the executor would."""
    job = Job(
        StreamJob(
            name=name,
            stages=[StageSpec("passthrough")],
            source=SourceSpec("ramp", count=100),
            iom=iom,
            prrs=[prr],
        ),
        index=0,
    )
    controller.enqueue(job, 0.0)
    picked, decision = controller.next_decision(0.0, [])
    assert picked is job
    controller.occupy(job, decision.assignment)
    job.assignment = decision.assignment
    job.transition(JobState.ADMITTED, 0.0)
    return job


def churn_ledger(**kwargs):
    """The canonical fragmented ledger: both long tenants movable."""
    controller = controller_for(**kwargs)
    long_a = admit(controller, "long-a", "rsb0.iom0", "rsb0.prr3")
    long_b = admit(controller, "long-b", "rsb0.iom2", "rsb0.prr4")
    return controller, long_a, long_b


# ----------------------------------------------------------------------
# planning on the canonical layout
# ----------------------------------------------------------------------
def test_plan_compacts_both_tenants_toward_their_ioms():
    controller, long_a, long_b = churn_ledger()
    plan = plan_compaction(controller, [long_a, long_b])
    assert plan.moves == [
        Relocation("long-a", "rsb0", 0, "rsb0.prr3", "rsb0.prr0"),
        Relocation("long-b", "rsb0", 0, "rsb0.prr4", "rsb0.prr5"),
    ]
    assert plan.before == (4, 3)
    assert plan.after == (4, 4)
    assert plan.gain == 1
    assert not plan.empty
    # planning left the ledger as it found it
    assert long_a.assignment.prrs == ["rsb0.prr3"]
    assert controller.free_run_stats() == (4, 3)


def test_plan_targets_are_free_when_their_move_runs():
    controller, long_a, long_b = churn_ledger()
    plan = plan_compaction(controller, [long_a, long_b])
    occupied = {"rsb0.prr3", "rsb0.prr4"}
    for move in plan.moves:
        assert move.new_prr not in occupied
        occupied.discard(move.old_prr)
        occupied.add(move.new_prr)


def test_already_compact_layout_yields_empty_plan():
    controller = controller_for()
    long_a = admit(controller, "long-a", "rsb0.iom0", "rsb0.prr0")
    long_b = admit(controller, "long-b", "rsb0.iom2", "rsb0.prr5")
    plan = plan_compaction(controller, [long_a, long_b])
    assert plan.empty
    assert plan.before == plan.after


def test_no_movable_jobs_yields_empty_plan():
    controller, _long_a, _long_b = churn_ledger()
    assert plan_compaction(controller, []).empty


# ----------------------------------------------------------------------
# constraints: health, holds, vetoes, lanes
# ----------------------------------------------------------------------
def test_unhealthy_prr_is_never_a_move_target():
    controller, long_a, long_b = churn_ledger()
    controller.mark_faulted("rsb0.prr0")
    plan = plan_compaction(controller, [long_a, long_b])
    assert plan.moves  # compaction still possible via prr1
    assert all(m.new_prr != "rsb0.prr0" for m in plan.moves)
    assert plan.moves[0] == Relocation(
        "long-a", "rsb0", 0, "rsb0.prr3", "rsb0.prr1"
    )
    assert plan.after[1] > plan.before[1]


def test_held_prr_is_never_a_move_target():
    # kr=kl=2 so the held tenant's chain does not lane-block the moves
    controller, long_a, long_b = churn_ledger(kr=2, kl=2)
    admit(controller, "held", "rsb0.iom1", "rsb0.prr0")
    plan = plan_compaction(controller, [long_a, long_b])
    assert plan.moves
    assert all(m.new_prr != "rsb0.prr0" for m in plan.moves)
    # before: prr1+prr2 run of 2; after: prr2,prr3,prr4 run of 3
    assert plan.before[1] == 2
    assert plan.after[1] == 3


def test_move_ok_veto_prunes_every_move():
    controller, long_a, long_b = churn_ledger()
    plan = plan_compaction(
        controller, [long_a, long_b], move_ok=lambda job, old, new: False
    )
    assert plan.empty


def test_held_chain_can_make_a_move_lane_infeasible():
    # long-a sits right of iom1 and its nearest healthy free PRR (prr1)
    # lies left of it; the held tenant's chain iom0 -> prr2 owns the
    # single lane pair across segment 2, so the move cannot route
    controller = controller_for()
    admit(controller, "held", "rsb0.iom0", "rsb0.prr2")
    long_a = admit(controller, "long-a", "rsb0.iom1", "rsb0.prr5")
    controller.mark_faulted("rsb0.prr3")
    assert "lanes" in controller.move_refusal(long_a, "rsb0.prr5", "rsb0.prr1")
    assert plan_compaction(controller, [long_a]).empty


def test_plan_refuses_churn_that_does_not_raise_largest_run():
    # long-b pinned in place: relocating long-a alone shuffles the free
    # pool but the largest run stays 3, so the plan is discarded
    controller, long_a, _long_b = churn_ledger()
    plan = plan_compaction(controller, [long_a])
    assert plan.empty
    assert plan.before == plan.after
