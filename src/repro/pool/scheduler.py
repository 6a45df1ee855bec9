"""The pool's one scheduling policy: ready order, vPRR grant, assignment.

A :class:`~repro.pool.devices.DevicePool` keeps one pool-wide ready
list: the accepted jobs no worker has yet.  Like a VAPRES PRR, which the
runtime fills only once it is free, a pooled device is bound a job only
at the moment its worker is idle; nothing is reserved on a device in
advance.  Three decisions, written as plain methods over
:class:`~repro.pool.devices.PooledDevice` and
:class:`~repro.pool.devices.PoolJob` objects, so they can be unit- and
property-tested without building a single simulator:

* **order** (:func:`ready_key`) -- deadline jobs first, by absolute
  deadline (``arrival_us + deadline_us``) then id; best-effort jobs
  after them, by ``(-priority, arrival_us, id)``, the order the
  worker's own admission serves its queue in.
* **grant** (:meth:`PoolScheduler.grant`) -- virtual PRRs are granted
  against one pool-wide bound, ``floor(overcommit x healthy PRRs of
  every non-lost device)``, in ready order with strict head-of-line
  blocking.  The granted width is the granted ready jobs plus the jobs
  running on non-lost devices; a job draining on a lost device holds no
  grant.  Grants are accounting only: physical PRRs are assigned by the
  worker's :class:`~repro.runtime.admission.AdmissionController`, which
  is never overcommitted.
* **assignment** (:meth:`PoolScheduler.assign`) -- each idle, non-lost
  device, in id order, takes the first granted ready job that fits its
  healthy PRRs.

All three are deterministic, and none can change a job's results: every
job runs single-tenant with a seed derived from its own name, whichever
device executes it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Sequence, Tuple

if TYPE_CHECKING:
    from repro.pool.devices import PooledDevice, PoolJob


def ready_key(job: "PoolJob") -> Tuple:
    """Ready-list order: earliest absolute deadline, then best effort.

    ``arrival_us`` orders jobs but is not waited for: the pool runs on
    wall-clock time, and arrival pacing is honoured inside the worker
    run, where simulated time exists.
    """
    spec = job.spec
    if spec.deadline_us is not None:
        return (0, spec.arrival_us + spec.deadline_us, job.id)
    return (1, -spec.priority, spec.arrival_us, job.id)


class PoolScheduler:
    """Deterministic grant + assignment policy for a device pool."""

    def __init__(self, overcommit: float = 2.0):
        if overcommit < 1.0:
            raise ValueError(
                f"overcommit must be >= 1.0 (1.0 disables it), "
                f"got {overcommit}"
            )
        self.overcommit = overcommit

    # ------------------------------------------------------------------
    def bound(self, devices: Sequence["PooledDevice"]) -> int:
        """Pool-wide grant bound over the healthy PRRs of non-lost
        devices."""
        return int(
            self.overcommit
            * sum(d.healthy_prrs for d in devices if not d.lost)
        )

    @staticmethod
    def granted_width(
        ready: Sequence["PoolJob"], devices: Sequence["PooledDevice"]
    ) -> int:
        """vPRRs held: granted ready jobs + jobs on non-lost devices."""
        return sum(job.width for job in ready if job.granted) + sum(
            d.running.width
            for d in devices
            if not d.lost and d.running is not None
        )

    @staticmethod
    def widest(devices: Sequence["PooledDevice"]) -> int:
        """Most healthy PRRs on one non-lost device (0 if none)."""
        return max((d.healthy_prrs for d in devices if not d.lost), default=0)

    # ------------------------------------------------------------------
    def grant(
        self, ready: Sequence["PoolJob"], devices: Sequence["PooledDevice"]
    ) -> List["PoolJob"]:
        """Ungranted jobs to grant now, from ``ready`` in ready order.

        Stops at the first job whose width does not fit under the bound
        (strict head-of-line blocking), so a wide urgent job is never
        overtaken by narrower jobs behind it.
        """
        room = self.bound(devices) - self.granted_width(ready, devices)
        granted: List["PoolJob"] = []
        for job in ready:
            if job.granted:
                continue
            if job.width > room:
                break
            room -= job.width
            granted.append(job)
        return granted

    @staticmethod
    def assign(
        ready: Sequence["PoolJob"], devices: Sequence["PooledDevice"]
    ) -> List[Tuple["PooledDevice", "PoolJob"]]:
        """``(device, job)`` dispatches for this instant.

        Each idle, non-lost device, in id order, takes the first granted
        job of ``ready`` (in ready order) that fits its healthy PRRs.
        """
        left = [job for job in ready if job.granted]
        pairs: List[Tuple["PooledDevice", "PoolJob"]] = []
        for device in devices:
            if device.lost or device.running is not None:
                continue
            job = next(
                (j for j in left if j.width <= device.healthy_prrs), None
            )
            if job is not None:
                left.remove(job)
                pairs.append((device, job))
        return pairs
