"""vPRR placement over an overcommitted device pool, plus work stealing.

The scheduler sees devices only through the small read-only
:class:`DeviceView` facts each :class:`~repro.pool.devices.PooledDevice`
publishes -- healthy PRRs, vPRR capacity, vPRRs granted, queue depth --
so it can be unit- and property-tested without building a single
simulator.

Two decisions live here:

* **placement** -- which device a newly submitted job's vPRRs land on.
  A device may grant up to ``floor(overcommit x healthy_physical_prrs)``
  vPRRs, so more jobs are *admitted* (queued on the device) than can
  *run* at once.  Grants are accounting only: the pool dispatches one
  job at a time to a device's idle worker, and physical PRRs are
  assigned only there, by the worker's own
  :class:`~repro.runtime.admission.AdmissionController`, which is never
  overcommitted.
* **rebalance** -- when queue depths skew (a device lost capacity to
  quarantine, or placement raced a burst), queued jobs are stolen from
  the deepest backlog into the emptiest device with spare grant
  capacity.  Only queued (not yet dispatched) jobs move, and job
  *results* are unaffected: every job runs single-tenant with a seed
  derived from its own name, whichever device executes it.

Both decisions are deterministic (stable tie-breaks on device id) so a
given submission order always produces the same placement history.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence


@dataclass(frozen=True)
class DeviceView:
    """What the scheduler may know about one device."""

    device_id: int
    #: healthy physical PRRs (quarantine shrinks this, release restores)
    physical_prrs: int
    #: grant ceiling: floor(overcommit x physical_prrs)
    vprr_capacity: int
    #: vPRRs currently granted (queued + dispatched)
    vprr_granted: int
    #: jobs queued on the device, not yet dispatched to its worker
    queue_depth: int
    #: a lost device accepts no new work and is drained
    lost: bool = False

    @property
    def vprr_free(self) -> int:
        return max(0, self.vprr_capacity - self.vprr_granted)


@dataclass(frozen=True)
class StealMove:
    """One planned migration of a queued job's vPRR grant."""

    source: int
    target: int


class PoolScheduler:
    """Deterministic placement + rebalance policy for a device pool."""

    def __init__(self, overcommit: float = 2.0, steal_threshold: int = 2):
        if overcommit < 1.0:
            raise ValueError(
                f"overcommit must be >= 1.0 (1.0 disables it), "
                f"got {overcommit}"
            )
        if steal_threshold < 2:
            raise ValueError(
                "steal_threshold must be >= 2: moving a job across a "
                "skew of 1 merely flips the imbalance (the leveling "
                "loop would ping-pong forever)"
            )
        self.overcommit = overcommit
        #: minimum queue-depth skew (deepest minus shallowest) before a
        #: steal is worth the migration bookkeeping
        self.steal_threshold = steal_threshold

    # ------------------------------------------------------------------
    def vprr_capacity(self, physical_prrs: int) -> int:
        """Grant ceiling for a device with ``physical_prrs`` healthy PRRs."""
        if physical_prrs <= 0:
            return 0
        return int(self.overcommit * physical_prrs)

    # ------------------------------------------------------------------
    def place(
        self, vprrs_needed: int, devices: Sequence[DeviceView]
    ) -> Optional[int]:
        """Device to grant a new job's vPRRs on, or None (pool-queue it).

        Candidates must be healthy, have grant headroom for the whole
        job, and -- so the job can eventually *run* -- enough healthy
        physical PRRs to host all its stages at once.  Among candidates the most
        headroom wins (spreads load); ties go to the lowest id
        (determinism).
        """
        best: Optional[DeviceView] = None
        for view in devices:
            if view.lost:
                continue
            if view.physical_prrs < vprrs_needed:
                continue
            if view.vprr_free < vprrs_needed:
                continue
            if best is None or view.vprr_free > best.vprr_free:
                best = view
        return None if best is None else best.device_id

    # ------------------------------------------------------------------
    def plan_steals(self, devices: Sequence[DeviceView]) -> List[StealMove]:
        """Migrations that level queue depths across the pool.

        Repeatedly moves one queued job from the deepest backlog to the
        shallowest device with spare grant capacity, until the skew
        drops below ``steal_threshold`` or no receiver has headroom.
        The plan assumes single-vPRR granularity for headroom checks;
        the pool validates each move against the actual job's width
        before executing it (a too-wide job simply is not stolen).
        """
        depth = {v.device_id: v.queue_depth for v in devices}
        free = {v.device_id: v.vprr_free for v in devices if not v.lost}
        granted = {v.device_id: v.vprr_granted for v in devices}
        moves: List[StealMove] = []
        while True:
            donors = [d for d in depth if depth[d] > 0]
            receivers = [d for d in free if free[d] > 0]
            if not donors or not receivers:
                break
            source = max(donors, key=lambda d: (depth[d], -d))
            target = min(
                receivers, key=lambda d: (depth.get(d, 0), granted[d], d)
            )
            if source == target:
                break
            if depth[source] - depth.get(target, 0) < self.steal_threshold:
                break
            moves.append(StealMove(source=source, target=target))
            depth[source] -= 1
            depth[target] = depth.get(target, 0) + 1
            free[target] -= 1
            granted[target] += 1
            if source in free:
                free[source] += 1
                granted[source] -= 1
        return moves
