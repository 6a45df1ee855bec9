"""Unit tests for the admission controller: feasibility, budgets,
priority queueing, backfill and preemption planning."""


from repro.compact import churn_params
from repro.core.params import RsbParameters, SystemParameters
from repro.runtime.admission import AdmissionController, AdmissionDecision
from repro.runtime.jobs import Job, JobState, StageSpec, StreamJob


def make_controller(preset="prototype", **kwargs):
    params = getattr(SystemParameters, preset)()
    return AdmissionController(params, **kwargs)


def make_job(name, stages=1, index=0, **spec_kwargs):
    spec = StreamJob(
        name=name,
        stages=[StageSpec("passthrough") for _ in range(stages)],
        **spec_kwargs,
    )
    return Job(spec, index=index)


def admit(controller, job, now=0.0):
    """enqueue + next_decision + occupy, as the executor would."""
    result = controller.enqueue(job, now)
    assert result.decision is AdmissionDecision.QUEUE
    pick = controller.next_decision(now, [])
    assert pick is not None and pick[0] is job
    controller.occupy(job, pick[1].assignment)
    job.assignment = pick[1].assignment
    job.transition(JobState.ADMITTED, now)
    return pick[1].assignment


# ----------------------------------------------------------------------
# feasibility (REJECT at enqueue)
# ----------------------------------------------------------------------
def test_rejects_job_with_more_stages_than_prrs():
    controller = make_controller()  # prototype: 2 PRRs
    result = controller.enqueue(make_job("big", stages=3))
    assert result.decision is AdmissionDecision.REJECT
    assert "3 PRRs" in result.reason


def test_rejects_unknown_slots():
    controller = make_controller()
    result = controller.enqueue(
        make_job("ghost", prrs=["rsb9.prr9"], iom=None)
    )
    assert result.decision is AdmissionDecision.REJECT
    assert "unknown PRR" in result.reason
    result = controller.enqueue(make_job("ghost2", iom="rsb9.iom0"))
    assert "unknown IOM" in result.reason


def test_rejects_oversized_stage_demand():
    controller = make_controller()
    result = controller.enqueue(make_job("huge", slices_per_stage=10_000_000))
    assert result.decision is AdmissionDecision.REJECT


def test_rejects_pinned_prr_smaller_than_the_stage():
    params = SystemParameters(
        board="ML402",
        rsbs=[
            RsbParameters(name="rsb0", prr_slices=640),
            RsbParameters(name="rsb1", prr_slices=320),
        ],
    )
    controller = AdmissionController(params)
    result = controller.enqueue(
        make_job("wide", prrs=["rsb1.prr0"], slices_per_stage=600)
    )
    assert result.decision is AdmissionDecision.REJECT
    assert result.reason.startswith("capacity:")
    assert "'rsb1.prr0' has 320 slices" in result.reason
    assert "needs 600" in result.reason
    # the same stage pinned to a PRR it fits is admitted
    admit(controller, make_job("fits", prrs=["rsb0.prr0"], slices_per_stage=600))


# ----------------------------------------------------------------------
# assignment
# ----------------------------------------------------------------------
def test_assigns_nearest_free_prr_and_iom():
    controller = make_controller()
    assignment = admit(controller, make_job("a"))
    assert assignment.iom == "rsb0.iom0"
    assert assignment.prrs == ["rsb0.prr0"]  # position 1, next to the IOM
    assert assignment.chain == ["rsb0.iom0", "rsb0.prr0", "rsb0.iom0"]


def test_honours_explicit_placement():
    controller = make_controller()
    assignment = admit(
        controller, make_job("pinned", prrs=["rsb0.prr1"], iom="rsb0.iom0")
    )
    assert assignment.prrs == ["rsb0.prr1"]


def test_multi_stage_chain_spans_prrs():
    controller = make_controller()
    assignment = admit(controller, make_job("chain", stages=2))
    assert assignment.prrs == ["rsb0.prr0", "rsb0.prr1"]
    assert assignment.chain[0] == assignment.chain[-1] == "rsb0.iom0"


def test_queue_blocks_when_iom_busy_and_frees_on_release():
    controller = make_controller()  # prototype has a single IOM
    first = make_job("first")
    admit(controller, first)
    second = make_job("second", index=1)
    controller.enqueue(second)
    assert controller.next_decision(0.0, [first]) is None
    controller.release(first)
    pick = controller.next_decision(0.0, [])
    assert pick is not None and pick[0] is second


def test_arrival_time_gates_admission():
    controller = make_controller()
    late = make_job("late", arrival_us=100.0)
    controller.enqueue(late, 0.0)
    assert controller.next_decision(50.0, []) is None
    assert controller.next_decision(150.0, []) is not None


def test_priority_orders_queue_and_backfill():
    controller = make_controller(preset="figure7")
    blocker_hi = make_job("hi", stages=4, priority=9)  # wants all 4 PRRs
    resident = make_job("res", index=1)
    admit(controller, resident)  # occupies one PRR + one IOM
    controller.enqueue(blocker_hi)
    small_lo = make_job("lo", index=2, priority=1)
    controller.enqueue(small_lo)
    # head-of-line high-priority job cannot fit; the small job backfills
    pick = controller.next_decision(0.0, [resident])
    assert pick is not None
    assert pick[0] is small_lo
    assert pick[1].decision is AdmissionDecision.ADMIT


# ----------------------------------------------------------------------
# preemption planning
# ----------------------------------------------------------------------
def test_preemption_names_lower_priority_victims():
    controller = make_controller()  # single IOM forces the conflict
    victim = make_job("victim", priority=1)
    admit(controller, victim)
    victim.transition(JobState.PLACING, 0.0)
    victim.transition(JobState.RUNNING, 0.0)
    urgent = make_job("urgent", index=1, priority=5)
    controller.enqueue(urgent)
    pick = controller.next_decision(1.0, [victim])
    assert pick is not None
    job, result = pick
    assert job is urgent
    assert result.decision is AdmissionDecision.PREEMPT
    assert result.victims == [victim]
    # after the executor evicts+releases, the urgent job admits
    controller.release(victim)
    pick = controller.next_decision(1.0, [])
    assert pick[0] is urgent
    assert pick[1].decision is AdmissionDecision.ADMIT


def test_no_preemption_of_equal_or_higher_priority():
    controller = make_controller()
    resident = make_job("resident", priority=5)
    admit(controller, resident)
    rival = make_job("rival", index=1, priority=5)
    controller.enqueue(rival)
    assert controller.next_decision(0.0, [resident]) is None


def test_unpreemptible_jobs_are_safe():
    controller = make_controller()
    shielded = make_job("shielded", priority=0, preemptible=False)
    admit(controller, shielded)
    urgent = make_job("urgent", index=1, priority=9)
    controller.enqueue(urgent)
    assert controller.next_decision(0.0, [shielded]) is None


def test_preemption_disabled_by_flag():
    controller = make_controller(allow_preemption=False)
    victim = make_job("victim", priority=1)
    admit(controller, victim)
    urgent = make_job("urgent", index=1, priority=5)
    controller.enqueue(urgent)
    assert controller.next_decision(0.0, [victim]) is None


def test_victim_set_is_minimal():
    controller = make_controller(preset="figure7")  # 2 IOMs
    old = make_job("old", priority=1)
    admit(controller, old, now=0.0)
    young = make_job("young", index=1, priority=2)
    admit(controller, young, now=5.0)
    urgent = make_job("urgent", index=2, priority=9)
    controller.enqueue(urgent, 10.0)
    pick = controller.next_decision(10.0, [old, young])
    assert pick is not None
    _, result = pick
    assert result.decision is AdmissionDecision.PREEMPT
    assert len(result.victims) == 1  # one freed IOM suffices
    assert result.victims[0] is old  # lowest priority goes first


# ----------------------------------------------------------------------
# budget accounting
# ----------------------------------------------------------------------
def test_release_returns_resources():
    controller = make_controller()
    job = make_job("cycle")
    for _ in range(3):  # admit/release must not leak lanes or slots
        assignment = admit(controller, job)
        assert assignment is not None
        controller.release(job)
        job = Job(job.spec, index=job.index)  # fresh lifecycle

def test_used_vector_tracks_residency():
    controller = make_controller()
    before = controller.used.slices
    job = make_job("acct", slices_per_stage=100)
    admit(controller, job)
    assert controller.used.slices == before + 100
    controller.release(job)
    assert controller.used.slices == before


# ----------------------------------------------------------------------
# quarantine release (scrub-verified recovery)
# ----------------------------------------------------------------------
def test_release_quarantine_restores_capacity_and_free_pool():
    controller = make_controller()
    prr = controller.prr_names[0]
    full = controller.capacity
    controller.quarantine(prr)
    assert controller.capacity.slices < full.slices
    assert prr in controller.quarantined_prrs
    assert controller.release_quarantine(prr)
    assert controller.capacity == full
    assert prr not in controller.quarantined_prrs
    # assignable again: a 2-stage job needs both prototype PRRs
    assignment = admit(controller, make_job("wide", stages=2))
    assert prr in assignment.prrs


def test_release_quarantine_noop_cases():
    controller = make_controller()
    assert not controller.release_quarantine("rsb0.prr0")  # never retired
    assert not controller.release_quarantine("rsb9.prr9")  # unknown
    controller.quarantine("rsb0.prr0")
    assert controller.release_quarantine("rsb0.prr0")
    assert not controller.release_quarantine("rsb0.prr0")  # not idempotent


def test_release_quarantine_keeps_faulted_prr_unassignable():
    controller = make_controller()
    prr = controller.prr_names[0]
    controller.quarantine(prr)
    controller.mark_faulted(prr)
    assert controller.release_quarantine(prr)
    # budget is back but the PRR still needs a frame repair first
    result = controller.enqueue(make_job("wide", stages=2))
    assert result.decision is AdmissionDecision.QUEUE
    assert controller.next_decision(0.0, []) is None
    controller.mark_repaired(prr)
    assert controller.next_decision(0.0, []) is not None


def test_release_quarantine_does_not_free_resident_prr():
    controller = make_controller()
    job = make_job("tenant")
    assignment = admit(controller, job)
    prr = assignment.prrs[0]
    controller.quarantine(prr)
    assert controller.release_quarantine(prr)
    # the PRR is still occupied by the resident job, not free
    assert prr not in getattr(controller, "_free_prrs")
    controller.release(job)
    assert prr in getattr(controller, "_free_prrs")


# ----------------------------------------------------------------------
# block classification (capacity vs fragmentation) and reject reasons
# ----------------------------------------------------------------------
def churn_controller():
    return AdmissionController(churn_params())


def test_classify_block_none_when_assignable():
    controller = make_controller()
    assert controller.classify_block(make_job("fits")) is None


def test_classify_block_capacity_on_busy_iom():
    controller = churn_controller()
    admit(controller, make_job("holder", iom="rsb0.iom0"))
    waiter = make_job("waiter", index=1, iom="rsb0.iom0")
    block = controller.classify_block(waiter)
    assert block is not None
    assert block.kind == "capacity"
    assert block.detail.startswith("capacity:")
    assert "rsb0.iom0" in block.detail
    assert "largest free PRR run" in block.detail


def test_classify_block_capacity_on_busy_pinned_prr():
    controller = churn_controller()
    admit(
        controller,
        make_job("tenant", iom="rsb0.iom0", prrs=["rsb0.prr3"]),
    )
    rival = make_job(
        "rival", index=1, iom="rsb0.iom1", prrs=["rsb0.prr3"]
    )
    block = controller.classify_block(rival)
    assert block is not None
    assert block.kind == "capacity"
    assert "pinned PRR" in block.detail
    assert "largest free PRR run" in block.detail


def test_classify_block_fragmentation_on_lane_blocked_churn_layout():
    controller = churn_controller()
    admit(controller, make_job("long-a", iom="rsb0.iom0", prrs=["rsb0.prr3"]))
    admit(
        controller,
        make_job("long-b", index=1, iom="rsb0.iom2", prrs=["rsb0.prr4"]),
    )
    short = make_job("short", index=2)
    block = controller.classify_block(short)
    assert block is not None
    assert block.kind == "fragmentation"
    assert "no routable" in block.detail
    # four PRRs sit free, but the largest contiguous run is only three
    assert block.free_total == 4
    assert block.largest_free_run == 3


def test_reject_reason_names_cause_and_largest_free_run():
    controller = churn_controller()
    result = controller.enqueue(make_job("oversized", stages=7))
    assert result.decision is AdmissionDecision.REJECT
    assert result.reason.startswith("capacity:")
    assert "largest free PRR run: 6" in result.reason


# ----------------------------------------------------------------------
# planned relocation (the compaction ledger motion)
# ----------------------------------------------------------------------
def test_relocate_moves_grant_and_frees_old_prr():
    controller = churn_controller()
    job = make_job("tenant", iom="rsb0.iom0", prrs=["rsb0.prr3"])
    admit(controller, job)
    assert controller.free_run_stats() == (5, 3)
    controller.relocate(job, "rsb0.prr3", "rsb0.prr0")
    assert job.assignment.prrs == ["rsb0.prr0"]
    assert "rsb0.prr3" in getattr(controller, "_free_prrs")
    assert "rsb0.prr0" not in getattr(controller, "_free_prrs")
    assert controller.free_run_stats() == (5, 5)


def test_relocate_keeps_quarantined_old_prr_out_of_free_pool():
    controller = churn_controller()
    job = make_job("tenant", iom="rsb0.iom0", prrs=["rsb0.prr3"])
    admit(controller, job)
    controller.quarantine("rsb0.prr3")
    controller.relocate(job, "rsb0.prr3", "rsb0.prr0")
    assert "rsb0.prr3" not in getattr(controller, "_free_prrs")
    # the vacated-but-quarantined PRR breaks the free run at position 3
    assert controller.free_run_stats() == (4, 2)


# ----------------------------------------------------------------------
# the move rule (compaction and healing both ask move_refusal)
# ----------------------------------------------------------------------
def line_controller(kr=1, kl=1, num_prrs=3):
    """One RSB: the IOM at position 0, then ``num_prrs`` PRRs."""
    return AdmissionController(
        SystemParameters(
            board="ML402",
            rsbs=[
                RsbParameters(
                    name="rsb0", num_prrs=num_prrs, num_ioms=1,
                    iom_positions=[0], kr=kr, kl=kl,
                )
            ],
        )
    )


def test_move_rule_refuses_interior_stages():
    controller = line_controller(kr=2, kl=2, num_prrs=4)
    job = make_job("pipe", stages=2, prrs=["rsb0.prr0", "rsb0.prr1"])
    admit(controller, job)
    refusal = controller.move_refusal(job, "rsb0.prr0", "rsb0.prr2")
    assert "not an IOM" in refusal and "step 8" in refusal
    assert controller.move_refusal(job, "rsb0.prr1", "rsb0.prr2") == ""
    # healing asks the same rule: an interior stage names the refusal
    # even though free spares exist; the last stage gets the first one
    assert controller.find_replacement(job, "rsb0.prr0") == (None, refusal)
    assert controller.find_replacement(job, "rsb0.prr1") == ("rsb0.prr2", "")


def test_move_rule_checks_the_mid_switch_lanes():
    # chain iom -> prr2 -> prr1 -> iom on one lane per direction: moving
    # the last stage to prr0 fits when finished, but while prr1 drains
    # its old output hop and the new input hop both need left segment 1
    controller = line_controller()
    job = make_job("zigzag", stages=2, prrs=["rsb0.prr2", "rsb0.prr1"])
    admit(controller, job)
    refusal = controller.move_refusal(job, "rsb0.prr1", "rsb0.prr0")
    assert "steps 4-8" in refusal
    assert controller.find_replacement(job, "rsb0.prr1") == (None, refusal)


def test_move_rule_refuses_busy_unhealthy_and_small_targets():
    controller = line_controller(kr=2, kl=2, num_prrs=4)
    job = make_job(
        "pipe", stages=2, prrs=["rsb0.prr0", "rsb0.prr1"],
        slices_per_stage=300,
    )
    admit(controller, job)
    busy = controller.move_refusal(job, "rsb0.prr1", "rsb0.prr0")
    assert "occupied or unhealthy" in busy
    controller.mark_faulted("rsb0.prr2")
    assert "occupied or unhealthy" in controller.move_refusal(
        job, "rsb0.prr1", "rsb0.prr2"
    )
    # a floorplanned PRR smaller than the stage's slice demand
    getattr(controller, "_prr_slices")["rsb0.prr3"] = 200
    assert "has 200 slices but the stage needs 300" in (
        controller.move_refusal(job, "rsb0.prr1", "rsb0.prr3")
    )
    controller.mark_faulted("rsb0.prr3")
    assert controller.find_replacement(job, "rsb0.prr1") == (
        None, "no healthy spare PRR for replacement"
    )
