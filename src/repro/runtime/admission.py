"""Admission control: resource accounting, priority queueing, preemption.

The admission controller is the runtime's gatekeeper.  It mirrors the
fabric's real capacity constraints *before* any hardware is touched:

* **PRRs** -- each chain stage needs one free PRR (whose floorplan
  placement must physically fit the stage's slice demand);
* **IOMs** -- each job owns one IOM slot for its source/sink while it
  runs;
* **switch-box lanes** -- a chain's channels occupy directional lane
  segments between attachment positions (``kr`` rightward / ``kl``
  leftward per segment, the paper's Figure 7 parameters), tracked per
  segment exactly as the channel router allocates them;
* **device budget** -- aggregate slice/BRAM demand of all resident jobs
  is checked against the device's :func:`~repro.fabric.resources`
  capacity so the fleet can never over-commit the part.

Jobs that can *never* fit are rejected outright; jobs that merely do not
fit *now* wait in a priority queue.  When preemption is allowed, a
waiting job may evict strictly-lower-priority resident jobs -- the
executor performs the eviction through the Figure-5 drain path
(:meth:`repro.core.switching.ModuleSwitcher.drain`), never by yanking a
live stream.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.params import SystemParameters
from repro.fabric.floorplan import Floorplan
from repro.fabric.resources import ResourceVector, device_capacity
from repro.obs.metrics import MetricsRegistry
from repro.runtime.jobs import Job, JobState

#: BRAM18 blocks one PRR's interface FIFOs + FSL pair occupy (the
#: prototype's 512x33 FIFOs each fit one 18K block; ki+ko stream FIFOs
#: plus the t/r FSL pair).
_BRAMS_PER_STAGE = 4


class AdmissionDecision(enum.Enum):
    ADMIT = "admit"
    PREEMPT = "preempt"
    QUEUE = "queue"
    REJECT = "reject"


@dataclass
class Assignment:
    """Concrete resources granted to an admitted job."""

    rsb: str
    iom: str
    prrs: List[str]
    demand: ResourceVector = field(default_factory=ResourceVector)

    @property
    def chain(self) -> List[str]:
        """Slot names along the stream path (IOM -> stages -> IOM)."""
        return [self.iom] + list(self.prrs) + [self.iom]


@dataclass
class AdmissionResult:
    decision: AdmissionDecision
    assignment: Optional[Assignment] = None
    victims: List[Job] = field(default_factory=list)
    reason: str = ""


@dataclass(frozen=True)
class BlockReason:
    """Why a queued (or rejected) job cannot start right now.

    ``kind`` separates the two operationally different cases: a
    **capacity** block needs resources to be released (or the job to
    shrink), while a **fragmentation** block would clear if the free
    pool were repacked -- exactly the trigger for
    :mod:`repro.compact`.  ``detail`` always names the largest free
    run so operators can see how much contiguous room is actually
    left.
    """

    kind: str  # "capacity" | "fragmentation"
    detail: str
    free_total: int
    largest_free_run: int


class _RsbState:
    """Mutable occupancy of one RSB: slots and lane segments."""

    def __init__(self, name: str, prrs, ioms, kr: int, kl: int,
                 attachment_count: int) -> None:
        self.name = name
        self.prr_position: Dict[str, int] = dict(prrs)
        self.iom_position: Dict[str, int] = dict(ioms)
        self.kr = kr
        self.kl = kl
        # lane segment i sits between attachment i and i+1
        self.segments = max(0, attachment_count - 1)
        self.right_used = [0] * self.segments
        self.left_used = [0] * self.segments

    def position(self, slot: str) -> int:
        if slot in self.prr_position:
            return self.prr_position[slot]
        return self.iom_position[slot]

    # ------------------------------------------------------------------
    def hops(self, chain: List[str]) -> List[Tuple[str, range]]:
        """Directional lane segments a slot chain occupies, per hop."""
        hops = []
        for src, dst in zip(chain, chain[1:]):
            a, b = self.position(src), self.position(dst)
            if a < b:
                hops.append(("right", range(a, b)))
            else:
                hops.append(("left", range(b, a)))
        return hops

    def fits(self, hops: List[Tuple[str, range]]) -> bool:
        """True when ``hops`` fit the lanes left over by the residents."""
        right_need = [0] * self.segments
        left_need = [0] * self.segments
        for direction, segs in hops:
            used, need, cap = (
                (self.right_used, right_need, self.kr)
                if direction == "right"
                else (self.left_used, left_need, self.kl)
            )
            for seg in segs:
                need[seg] += 1
                if used[seg] + need[seg] > cap:
                    return False
        return True

    def apply(self, hops: List[Tuple[str, range]], sign: int) -> None:
        """Occupy (``sign=+1``) or release (``-1``) the lanes of ``hops``."""
        for direction, segs in hops:
            used = self.right_used if direction == "right" else self.left_used
            for seg in segs:
                used[seg] += sign


class AdmissionController:
    """Accounts fabric resources and decides who runs next."""

    def __init__(
        self,
        params: SystemParameters,
        floorplan: Optional[Floorplan] = None,
        allow_preemption: bool = True,
    ) -> None:
        self.params = params
        self.floorplan = floorplan
        self.allow_preemption = allow_preemption
        from repro.fabric.device import get_board

        self.device = get_board(params.board).device
        self.capacity = device_capacity(self.device)
        self.used = ResourceVector()
        self._rsbs: List[_RsbState] = []
        for rsb in params.rsbs:
            iom_positions = rsb.resolved_iom_positions()
            prr_positions = rsb.prr_positions()
            prrs = [
                (f"{rsb.name}.prr{i}", pos)
                for i, pos in enumerate(prr_positions)
            ]
            ioms = [
                (f"{rsb.name}.iom{i}", pos)
                for i, pos in enumerate(sorted(iom_positions))
            ]
            self._rsbs.append(
                _RsbState(
                    rsb.name, prrs, ioms, rsb.kr, rsb.kl,
                    rsb.attachment_count,
                )
            )
        self._free_prrs = {
            name for state in self._rsbs for name in state.prr_position
        }
        self._free_ioms = {
            name for state in self._rsbs for name in state.iom_position
        }
        self._pending: List[Job] = []
        self._resident: Dict[str, Assignment] = {}  # job name -> grant
        # fault-aware health state (repro.faults): faulted PRRs are
        # temporarily unassignable (until their frames are rewritten);
        # quarantined PRRs are retired and shrink the device budget
        self._faulted: set = set()
        self._quarantined: set = set()
        self._prr_slices: Dict[str, int] = {}
        for state, rsb in zip(self._rsbs, params.rsbs):
            for name in state.prr_position:
                if floorplan is not None and name in floorplan.prrs:
                    self._prr_slices[name] = floorplan.prrs[name].slices
                else:
                    self._prr_slices[name] = rsb.prr_slices
        self._metrics: Optional[MetricsRegistry] = None
        self._metric_labels: Optional[Dict[str, str]] = None

    # ------------------------------------------------------------------
    # fragmentation metrics (ROADMAP item 3: feeds a future compaction
    # planner, per the Amorphous-DPR free-run analysis)
    # ------------------------------------------------------------------
    def bind_metrics(
        self,
        registry: MetricsRegistry,
        labels: Optional[Dict[str, str]] = None,
    ) -> None:
        """Export PRR free-run fragmentation gauges into ``registry``.

        Updated on every free-set mutation (occupy/release, fault,
        quarantine, relocate).  ``labels`` distinguishes controllers
        sharing a registry.
        """
        registry.describe(
            "repro_prr_free_total",
            "Free (healthy, unoccupied) physical PRRs",
        )
        registry.describe(
            "repro_prr_largest_free_run",
            "Largest contiguous run of free physical PRRs",
        )
        registry.describe(
            "repro_prr_fragmentation_ratio",
            "1 - largest contiguous free PRR run over total free PRRs",
        )
        self._metrics = registry
        self._metric_labels = dict(labels) if labels else None
        self._update_fragmentation()

    def free_run_stats(self) -> Tuple[int, int]:
        """``(free_total, largest_free_run)`` over all RSBs.

        A *run* is a maximal set of free, healthy PRRs that are adjacent
        in attachment-position order within one RSB (static IOM slots in
        between do not break a run) -- the longest chain a new job could
        land without hopping occupied or unhealthy slots.
        """
        total = 0
        largest = 0
        for state in self._rsbs:
            ordered = sorted(
                state.prr_position, key=lambda n: state.prr_position[n]
            )
            run = 0
            for name in ordered:
                if self.prr_free(name):
                    total += 1
                    run += 1
                    largest = max(largest, run)
                else:
                    run = 0
        return total, largest

    def _update_fragmentation(self) -> None:
        if self._metrics is None:
            return
        total, largest = self.free_run_stats()
        ratio = 0.0 if total == 0 else 1.0 - largest / total
        labels = self._metric_labels
        self._metrics.gauge(
            "repro_prr_free_total", labels=labels
        ).set(total)
        self._metrics.gauge(
            "repro_prr_largest_free_run", labels=labels
        ).set(largest)
        self._metrics.gauge(
            "repro_prr_fragmentation_ratio", labels=labels
        ).set(ratio)

    # ------------------------------------------------------------------
    # queueing
    # ------------------------------------------------------------------
    def enqueue(self, job: Job, now_us: float = 0.0) -> AdmissionResult:
        """Accept a job into the wait queue, or reject it outright."""
        reason = self._never_fits(job)
        if reason:
            # a static infeasibility is always a capacity problem --
            # no amount of repacking makes the job fit.  Say so, and
            # name the largest free run, so the rejection cannot be
            # mistaken for recoverable fragmentation.
            _total, largest = self.free_run_stats()
            return AdmissionResult(
                AdmissionDecision.REJECT,
                reason=(
                    f"capacity: {reason} "
                    f"(largest free PRR run: {largest})"
                ),
            )
        job.enqueued_us = now_us if job.enqueued_us is None else job.enqueued_us
        self._pending.append(job)
        self._pending.sort(key=self._queue_key)
        return AdmissionResult(AdmissionDecision.QUEUE)

    @staticmethod
    def _queue_key(job: Job):
        return (-job.spec.priority, job.spec.arrival_us, job.index)

    @property
    def queue_depth(self) -> int:
        return len(self._pending)

    def pending_jobs(self) -> List[Job]:
        return list(self._pending)

    @property
    def prr_names(self) -> List[str]:
        """All PRR slot names this controller accounts, healthy or not."""
        return sorted(self._prr_slices)

    @property
    def rsb_states(self) -> List[_RsbState]:
        """Per-RSB slot positions and lane counters, in parameter order.

        Read-only for callers: the compaction planner walks slots by
        position here and changes the ledger only through
        :meth:`relocate`.
        """
        return self._rsbs

    def prr_healthy(self, prr: str) -> bool:
        """True when ``prr`` is neither faulted nor quarantined."""
        return (
            prr in self._prr_slices
            and prr not in self._faulted
            and prr not in self._quarantined
        )

    def prr_capacity(self, prr: str) -> int:
        """Floorplanned slice capacity of one PRR."""
        return self._prr_slices[prr]

    # ------------------------------------------------------------------
    # block classification (feeds the compaction trigger)
    # ------------------------------------------------------------------
    def classify_block(self, job: Job) -> Optional[BlockReason]:
        """Why ``job`` cannot start *now*; None when it actually can.

        ``fragmentation`` means every hard resource the job needs is
        free -- enough healthy PRRs of sufficient size, a free IOM,
        device budget -- yet no routable chain exists, so repacking the
        residents (:mod:`repro.compact`) could admit it.  Everything
        else is ``capacity``: some resource is genuinely exhausted and
        only a release (or preemption) helps.
        """
        if self._try_assign(job) is not None:
            return None
        total, largest = self.free_run_stats()

        def capacity(detail: str) -> BlockReason:
            return BlockReason(
                kind="capacity",
                detail=(
                    f"capacity: {detail} "
                    f"(largest free PRR run: {largest})"
                ),
                free_total=total,
                largest_free_run=largest,
            )

        never = self._never_fits(job)
        if never:
            return capacity(never)
        spec = job.spec
        demand = self._job_demand(job)
        if not (self.used + demand).fits_in(self.capacity):
            return capacity(
                "device budget exhausted "
                f"({self.used.slices}/{self.capacity.slices} slices "
                "held by residents)"
            )
        if spec.iom is not None and spec.iom not in self._free_ioms:
            return capacity(f"IOM {spec.iom!r} is held by a resident job")
        if not self._free_ioms:
            return capacity("no free IOM slot")
        need = self._stage_slices(job)
        if spec.prrs is not None:
            busy = [p for p in spec.prrs if not self.prr_free(p)]
            if busy:
                return capacity(
                    f"pinned PRR {busy[0]!r} is occupied or unhealthy"
                )
        else:
            # compaction moves modules within an RSB, so at least one
            # RSB must hold enough free, fitting PRRs on its own
            best = max(
                (
                    sum(
                        1
                        for name in state.prr_position
                        if self.prr_free(name)
                        and self._prr_slices[name] >= need
                    )
                    for state in self._rsbs
                ),
                default=0,
            )
            if best < len(spec.stages):
                return capacity(
                    f"no RSB has {len(spec.stages)} free PRRs fitting "
                    f"the per-stage demand (best: {best})"
                )
        return BlockReason(
            kind="fragmentation",
            detail=(
                f"fragmentation: {total} PRRs free (largest free PRR "
                f"run: {largest}) but no routable "
                f"{len(spec.stages)}-stage chain from a free IOM"
            ),
            free_total=total,
            largest_free_run=largest,
        )

    # ------------------------------------------------------------------
    # feasibility
    # ------------------------------------------------------------------
    def _never_fits(self, job: Job) -> str:
        spec = job.spec
        stages = len(spec.stages)
        all_prrs = set(self._prr_slices) - self._quarantined
        all_ioms = {n for s in self._rsbs for n in s.iom_position}
        demand = self._stage_slices(job)
        if spec.iom is not None and spec.iom not in all_ioms:
            return f"unknown IOM slot {spec.iom!r}"
        if spec.prrs is not None:
            unknown = set(spec.prrs) - set(self._prr_slices)
            if unknown:
                return f"unknown PRR slots {sorted(unknown)}"
            retired = sorted(set(spec.prrs) & self._quarantined)
            if retired:
                return (
                    f"PRR {retired[0]!r} is quarantined after repeated "
                    "configuration faults"
                )
            small = [p for p in spec.prrs if self._prr_slices[p] < demand]
            if small:
                return (
                    f"pinned PRR {small[0]!r} has "
                    f"{self._prr_slices[small[0]]} slices but each stage "
                    f"needs {demand}"
                )
        if stages > len(all_prrs):
            return (
                f"needs {stages} PRRs but the system has {len(all_prrs)} "
                "healthy"
            )
        if not all_ioms:
            return "system has no IOM slots"
        if all(demand > s for s in self._prr_slices.values()):
            return (
                f"per-stage demand of {demand} slices exceeds every "
                "PRR placement"
            )
        if not self._job_demand(job).fits_in(self.capacity):
            return "job demand exceeds total device capacity"
        return ""

    def _stage_slices(self, job: Job) -> int:
        if job.spec.slices_per_stage is not None:
            return job.spec.slices_per_stage
        return 0  # "one PRR per stage", whatever its floorplanned size

    def _job_demand(self, job: Job) -> ResourceVector:
        stages = len(job.spec.stages)
        per_stage = self._stage_slices(job) or min(self._prr_slices.values())
        return ResourceVector(
            slices=per_stage * stages,
            bram18=_BRAMS_PER_STAGE * stages,
            bufr=stages,
        )

    # ------------------------------------------------------------------
    # assignment
    # ------------------------------------------------------------------
    def _try_assign(self, job: Job) -> Optional[Assignment]:
        spec = job.spec
        stages = len(spec.stages)
        demand = self._job_demand(job)
        if not (self.used + demand).fits_in(self.capacity):
            return None
        need_slices = self._stage_slices(job)
        for state in self._rsbs:
            free_prrs = [
                (pos, name)
                for name, pos in state.prr_position.items()
                if self.prr_free(name)
                and self._prr_slices[name] >= need_slices
            ]
            if spec.prrs is not None:
                if any(not self.prr_free(p) for p in spec.prrs):
                    continue
                if any(p not in state.prr_position for p in spec.prrs):
                    continue
            elif len(free_prrs) < stages:
                continue
            iom_candidates = [
                (pos, name)
                for name, pos in state.iom_position.items()
                if name in self._free_ioms
            ]
            if spec.iom is not None:
                iom_candidates = [
                    (pos, name) for pos, name in iom_candidates
                    if name == spec.iom
                ]
            for iom_pos, iom_name in sorted(iom_candidates):
                if spec.prrs is not None:
                    chosen = list(spec.prrs)
                else:
                    # nearest free PRRs keep channels short (lane-frugal)
                    ranked = sorted(
                        free_prrs, key=lambda e: (abs(e[0] - iom_pos), e[0])
                    )
                    chosen = [name for _, name in ranked[:stages]]
                    # stream order: traverse outward-sorted for a clean
                    # rightward (or leftward) chain
                    chosen.sort(key=lambda n: state.prr_position[n])
                assignment = Assignment(
                    rsb=state.name, iom=iom_name, prrs=chosen, demand=demand
                )
                if state.fits(state.hops(assignment.chain)):
                    return assignment
        return None

    def occupy(self, job: Job, assignment: Assignment) -> None:
        state = self._state(assignment.rsb)
        self._free_ioms.discard(assignment.iom)
        for prr in assignment.prrs:
            self._free_prrs.discard(prr)
        state.apply(state.hops(assignment.chain), +1)
        self.used = self.used + assignment.demand
        self._resident[job.spec.name] = assignment
        self._update_fragmentation()

    def release(self, job: Job) -> None:
        assignment = self._resident.pop(job.spec.name, None)
        if assignment is None:
            return
        state = self._state(assignment.rsb)
        self._free_ioms.add(assignment.iom)
        for prr in assignment.prrs:
            if prr not in self._quarantined:
                self._free_prrs.add(prr)
        state.apply(state.hops(assignment.chain), -1)
        self.used = self.used - assignment.demand
        self._update_fragmentation()

    # ------------------------------------------------------------------
    # PRR health (repro.faults)
    # ------------------------------------------------------------------
    def prr_free(self, prr: str) -> bool:
        """True when ``prr`` is unoccupied and healthy: assignable now."""
        return (
            prr in self._free_prrs
            and prr not in self._faulted
            and prr not in self._quarantined
        )

    @property
    def quarantined_prrs(self) -> List[str]:
        return sorted(self._quarantined)

    def mark_faulted(self, prr: str) -> None:
        """Exclude ``prr`` from new assignments until repaired."""
        if prr in self._prr_slices:
            self._faulted.add(prr)
            self._update_fragmentation()

    def mark_repaired(self, prr: str) -> None:
        """Frames are clean again; the PRR may be assigned once free."""
        self._faulted.discard(prr)
        if prr in self._quarantined or prr not in self._prr_slices:
            return
        resident = any(
            prr in assignment.prrs for assignment in self._resident.values()
        )
        if not resident:
            self._free_prrs.add(prr)
        self._update_fragmentation()

    def quarantine(self, prr: str) -> None:
        """Retire ``prr``: never assignable again, budget shrinks."""
        if prr in self._quarantined or prr not in self._prr_slices:
            return
        self._quarantined.add(prr)
        self._faulted.discard(prr)
        self._free_prrs.discard(prr)
        self.capacity = self.capacity - ResourceVector(
            slices=self._prr_slices[prr],
            bram18=_BRAMS_PER_STAGE,
            bufr=1,
        )
        self._update_fragmentation()

    def release_quarantine(self, prr: str) -> bool:
        """Reverse :meth:`quarantine` after a scrub-verified recovery.

        A quarantined PRR whose frames have since been rewritten and
        readback-verified (``repro.faults`` scrub path) regains its
        budget and rejoins the free pool, so a healed device grows back
        instead of shrinking forever.  Returns True when the PRR was
        actually un-quarantined; unknown or never-quarantined PRRs are
        a no-op.
        """
        if prr not in self._quarantined or prr not in self._prr_slices:
            return False
        self._quarantined.discard(prr)
        self.capacity = self.capacity + ResourceVector(
            slices=self._prr_slices[prr],
            bram18=_BRAMS_PER_STAGE,
            bufr=1,
        )
        resident = any(
            prr in assignment.prrs for assignment in self._resident.values()
        )
        if not resident and prr not in self._faulted:
            self._free_prrs.add(prr)
        self._update_fragmentation()
        return True

    def move_refusal(self, job: Job, old_prr: str, new_prr: str) -> str:
        """Why the stage of resident ``job`` on ``old_prr`` may not
        live-move to ``new_prr`` now; ``""`` when it may.

        The one move rule: compaction planning and fault healing both
        ask it.  A live move is one Figure-5 switch.  Step 8 waits for
        the downstream *IOM* to report end-of-stream, so only a chain's
        last stage can move.  Step 4 re-points the stage's input hop
        while the old output hop stays up until step 9, so the transient
        chain must fit the lanes as well as the final one.
        """
        assignment = self._resident[job.spec.name]
        stage = assignment.prrs.index(old_prr)
        if stage != len(assignment.prrs) - 1:
            return (
                f"stage {stage} of {job.spec.name!r} on {old_prr!r} feeds "
                f"PRR {assignment.prrs[stage + 1]!r}, not an IOM: a "
                "Figure-5 switch needs the IOM's end-of-stream report "
                "(step 8)"
            )
        if not self.prr_free(new_prr):
            return f"PRR {new_prr!r} is occupied or unhealthy"
        need = self._stage_slices(job)
        if self._prr_slices[new_prr] < need:
            return (
                f"PRR {new_prr!r} has {self._prr_slices[new_prr]} slices "
                f"but the stage needs {need}"
            )
        state = self._state(assignment.rsb)
        trial = [new_prr if p == old_prr else p for p in assignment.prrs]
        old_hops = state.hops(assignment.chain)
        new_hops = state.hops([assignment.iom] + trial + [assignment.iom])
        state.apply(old_hops, -1)
        try:
            # steps 4-8: the old chain minus the stage's input hop, plus
            # that hop re-pointed at the new PRR
            transient = (
                old_hops[:stage] + [new_hops[stage]] + old_hops[stage + 1:]
            )
            if not state.fits(transient):
                return (
                    f"no switch-box lanes for {new_prr!r} while "
                    f"{old_prr!r} drains (Figure-5 steps 4-8)"
                )
            if not state.fits(new_hops):
                return f"no switch-box lanes for the chain through {new_prr!r}"
        finally:
            state.apply(old_hops, +1)
        return ""

    def find_replacement(
        self, job: Job, faulted_prr: str
    ) -> Tuple[Optional[str], str]:
        """Where the stage on ``faulted_prr`` can be re-landed.

        Returns ``(prr, "")`` for the first PRR, in position order, that
        passes :meth:`move_refusal`, else ``(None, reason)``: the
        refusal of the last free candidate, the stage's own refusal when
        it is not the chain's last, or "no healthy spare PRR" when no
        PRR is free.
        """
        assignment = self._resident[job.spec.name]
        state = self._state(assignment.rsb)
        last = assignment.prrs[-1] == faulted_prr
        refusal = "no healthy spare PRR for replacement"
        for name in sorted(state.prr_position, key=state.prr_position.get):
            reason = self.move_refusal(job, faulted_prr, name)
            if not reason:
                return name, ""
            if self.prr_free(name) or not last:
                refusal = reason
        return None, refusal

    def relocate(self, job: Job, old_prr: str, new_prr: str) -> None:
        """Swap one PRR of a resident grant: the ledger side of a move.

        The vacated PRR rejoins the free pool unless it is faulted or
        quarantined; a heal marks it faulted first, so it stays out
        until :meth:`mark_repaired` confirms its frames are clean.
        """
        assignment = self._resident[job.spec.name]
        state = self._state(assignment.rsb)
        state.apply(state.hops(assignment.chain), -1)
        self._free_prrs.discard(new_prr)
        assignment.prrs = [
            new_prr if p == old_prr else p for p in assignment.prrs
        ]
        state.apply(state.hops(assignment.chain), +1)
        if old_prr not in self._faulted and old_prr not in self._quarantined:
            self._free_prrs.add(old_prr)
        self._update_fragmentation()

    def _state(self, rsb_name: str) -> _RsbState:
        for state in self._rsbs:
            if state.name == rsb_name:
                return state
        raise KeyError(rsb_name)

    # ------------------------------------------------------------------
    # the decision loop
    # ------------------------------------------------------------------
    def next_decision(
        self, now_us: float, resident_jobs: List[Job]
    ) -> Optional[Tuple[Job, AdmissionResult]]:
        """Pick the next arrived job that can start (or could preempt).

        Scans the priority queue in order; the first job with an
        immediate assignment is admitted (lower-priority jobs may
        backfill around a blocked head-of-line job).  If a blocked job
        could run by evicting strictly-lower-priority resident jobs, a
        PREEMPT result names the minimal victim set; the caller evicts
        (draining via the Figure-5 path), releases, and calls again.
        """
        preempt_plan: Optional[Tuple[Job, List[Job]]] = None
        for job in self._pending:
            if job.spec.arrival_us > now_us:
                continue
            if job.next_attempt_us > now_us:
                continue
            assignment = self._try_assign(job)
            if assignment is not None:
                self._pending.remove(job)
                return job, AdmissionResult(
                    AdmissionDecision.ADMIT, assignment=assignment
                )
            if self.allow_preemption and preempt_plan is None:
                victims = self._plan_preemption(job, resident_jobs)
                if victims:
                    preempt_plan = (job, victims)
        if preempt_plan is not None:
            job, victims = preempt_plan
            return job, AdmissionResult(
                AdmissionDecision.PREEMPT, victims=victims,
                reason=f"preempting {[v.spec.name for v in victims]}",
            )
        return None

    def _plan_preemption(
        self, job: Job, resident_jobs: List[Job]
    ) -> List[Job]:
        """Smallest set of lower-priority residents whose eviction lets
        ``job`` fit.  Victims are chosen cheapest-first: lowest priority,
        then most recently admitted."""
        candidates = [
            resident
            for resident in resident_jobs
            if resident.spec.preemptible
            and resident.spec.priority < job.spec.priority
            and resident.spec.name in self._resident
            and resident.state in (
                JobState.ADMITTED, JobState.PLACING, JobState.RUNNING,
            )
        ]
        if not candidates:
            return []
        candidates.sort(
            key=lambda v: (v.spec.priority, -(v.admitted_us or 0.0), -v.index)
        )
        victims: List[Job] = []
        for victim in candidates:
            victims.append(victim)
            if self._fits_after_evicting(job, victims):
                return victims
        return []

    def _fits_after_evicting(self, job: Job, victims: List[Job]) -> bool:
        """Trial assignment with the victims' grants transiently freed."""
        grants = [(v, self._resident[v.spec.name]) for v in victims]
        for victim, _grant in grants:
            self.release(victim)
        try:
            return self._try_assign(job) is not None
        finally:
            for victim, grant in grants:
                self.occupy(victim, grant)
