"""Compaction planning on the live admission ledger.

The planner answers one question: *which live-module relocations would
coalesce the free PRR pool enough to admit work that fragmentation is
currently blocking?*  It never touches hardware -- it reads one
:class:`~repro.runtime.admission.AdmissionController` and emits a
:class:`CompactionPlan`, an ordered move list the executor replays over
the Figure-5 drain-switch path.

The controller answers every feasibility question: which PRRs are free
and healthy, and whether one stage may move
(:meth:`~repro.runtime.admission.AdmissionController.move_refusal`, the
same rule fault healing asks -- only a chain's last stage moves, and
both the mid-switch and the final lane state must fit).  The planner
keeps only its policy -- greedy span-shortening:

* movable residents are visited per RSB, in IOM-position order;
* a job's targets are the free PRRs nearest its own IOM (the same
  ``(distance, position)`` ranking admission itself uses), so a
  compacted job's channels cross as few switch-box segments as possible;
* a placement is used only if it strictly shortens the job's span, and
  a plan is kept only if it strictly raises the largest free run -- the
  planner never proposes useless churn.

Each accepted move is applied to the controller as a trial
(:meth:`~repro.runtime.admission.AdmissionController.relocate`), so
later decisions see it; every trial is undone, in reverse order, before
the plan is returned.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, List, Optional, Tuple

#: ``move_ok(job, old_prr, new_prr)`` -- extra per-move veto supplied by
#: the caller (floorplan relocation compatibility, ...).
MoveCheck = Callable[[str, str, str], bool]


@dataclass(frozen=True)
class Relocation:
    """One planned live-module move: ``job``'s stage ``stage`` hops PRRs."""

    job: str
    rsb: str
    stage: int
    old_prr: str
    new_prr: str


@dataclass
class CompactionPlan:
    """Ordered relocation sequence plus the free-run stats it earns."""

    moves: List[Relocation] = field(default_factory=list)
    #: ``(free_total, largest_free_run)`` before / after the sequence
    before: Tuple[int, int] = (0, 0)
    after: Tuple[int, int] = (0, 0)

    @property
    def empty(self) -> bool:
        return not self.moves

    @property
    def gain(self) -> int:
        """Largest-free-run improvement the full sequence achieves."""
        return self.after[1] - self.before[1]


def plan_compaction(
    controller,
    movable: Iterable,
    move_ok: Optional[MoveCheck] = None,
) -> CompactionPlan:
    """Compute a minimal relocation sequence that coalesces free runs.

    ``movable`` lists the resident jobs the planner may relocate (the
    executor passes the RUNNING set -- jobs still placing have no live
    module to drain-switch); every other resident stays where it is.
    The controller is left exactly as it was found.

    Returns an empty plan when no sequence of valid moves would
    *strictly* raise the largest free run -- callers can treat
    ``plan.empty`` as "compaction cannot help".
    """
    check: MoveCheck = move_ok or (lambda job, old, new: True)
    movable = list(movable)
    before = controller.free_run_stats()
    plan = CompactionPlan(before=before, after=before)
    trials: List[Tuple[object, Relocation]] = []
    try:
        for state in controller.rsb_states:
            jobs = sorted(
                (j for j in movable if j.assignment.rsb == state.name),
                key=lambda j: (state.position(j.assignment.iom), j.spec.name),
            )
            for job in jobs:
                _compact_job(controller, state, job, check, trials)
        after = controller.free_run_stats()
    finally:
        for job, move in reversed(trials):
            controller.relocate(job, move.new_prr, move.old_prr)
    if trials and after[1] > before[1]:
        plan.moves = [move for _job, move in trials]
        plan.after = after
    return plan


def _span(state, iom: str, prrs: List[str]) -> int:
    """Segment crossings of the chain ``iom -> prrs -> iom``."""
    chain = [iom] + prrs + [iom]
    return sum(
        abs(state.position(a) - state.position(b))
        for a, b in zip(chain, chain[1:])
    )


def _compact_job(controller, state, job, check: MoveCheck, trials) -> None:
    """Pull one job's stages toward its IOM, applying each move as a trial."""
    iom = job.assignment.iom
    iom_pos = state.position(iom)
    current = list(job.assignment.prrs)
    position = state.prr_position
    free = {name for name in position if controller.prr_free(name)}
    # ideal targets: nearest candidates among free PRRs and the job's
    # own, position-sorted so stage order stays a clean monotone chain
    candidates = sorted(
        set(current) | free,
        key=lambda n: (abs(position[n] - iom_pos), position[n]),
    )
    targets = sorted(candidates[: len(current)], key=position.get)
    if targets == current:
        return
    if _span(state, iom, targets) >= _span(state, iom, current):
        return

    # emit stage moves in an order where each target is free when its
    # move runs (a later stage may be vacating an earlier stage's
    # target); both lists are position-sorted, so no cycles arise
    pending = [
        (stage, old, new)
        for stage, (old, new) in enumerate(zip(current, targets))
        if old != new
    ]
    progressed = True
    while pending and progressed:
        progressed = False
        for item in list(pending):
            stage, old, new = item
            if not controller.prr_free(new):
                continue
            pending.remove(item)
            if not check(job.spec.name, old, new):
                continue
            if controller.move_refusal(job, old, new):
                continue
            controller.relocate(job, old, new)
            trials.append(
                (job, Relocation(job.spec.name, state.name, stage, old, new))
            )
            progressed = True
