"""Property tests for the pool scheduler and the dispatch invariant.

The contracts the virtualization layer stakes everything on:

* **overcommit is a grant-side fiction** -- however many vPRRs are
  granted pool-wide, a device dispatches at most one job at a time to
  its worker, whose own admission controller places the stages, so two
  live vPRRs never share a physical PRR at the same instant;
* **the ready queue is work-conserving** -- no idle, non-lost device is
  left beside a granted ready job that fits it;
* **scheduling is deterministic** -- the same ready list and devices
  always yield the same grants and assignments.
"""

import bisect

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.params import SystemParameters
from repro.pool.devices import PooledDevice, PoolJob
from repro.pool.scheduler import PoolScheduler, ready_key
from repro.runtime.jobs import StageSpec, StreamJob

PARAMS = SystemParameters.prototype()  # 2 physical PRRs per device

overcommits = st.sampled_from([1.0, 1.5, 2.0, 3.0])
deadlines = st.sampled_from([None, None, 20.0, 50.0])


def make_job(job_id, width, priority=0, arrival_us=0.0, deadline_us=None):
    spec = StreamJob(
        name=f"prop-{job_id}",
        stages=[StageSpec("passthrough") for _ in range(width)],
        priority=priority,
        arrival_us=arrival_us,
        deadline_us=deadline_us,
    )
    return PoolJob(id=job_id, spec=spec, tenant="prop", submitted_t=0.0)


def test_ready_key_puts_deadlines_first_then_priority():
    jobs = [
        make_job(0, 1, priority=2),
        make_job(1, 1, deadline_us=50.0, arrival_us=10.0),
        make_job(2, 1, priority=0),
        make_job(3, 1, deadline_us=50.0),
        make_job(4, 1, priority=2, arrival_us=5.0),
    ]
    assert [j.id for j in sorted(jobs, key=ready_key)] == [3, 1, 0, 4, 2]


# ----------------------------------------------------------------------
# one scheduling step: grant, then assignment
# ----------------------------------------------------------------------
device_data = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=2),   # quarantined PRRs
        st.booleans(),                           # lost
        st.integers(min_value=0, max_value=2),   # running width (0: idle)
    ),
    min_size=1, max_size=5,
)
ready_data = st.lists(
    st.tuples(
        st.integers(min_value=1, max_value=3),   # width
        st.integers(min_value=0, max_value=2),   # priority
        deadlines,
        st.booleans(),                           # already granted
    ),
    max_size=10,
)


@settings(max_examples=200, deadline=None)
@given(device_data, ready_data, overcommits)
def test_place_respects_capacity_width_and_loss(
    dev_data, job_data, overcommit
):
    """Grants are a head-of-line prefix within the pool-wide bound;
    each idle, non-lost device takes the first granted job that fits
    its healthy PRRs, and no job goes to two devices."""
    scheduler = PoolScheduler(overcommit=overcommit)
    devices = []
    next_id = 0
    for i, (quarantined, lost, running) in enumerate(dev_data):
        device = PooledDevice(i, PARAMS)
        device.quarantined.update(device.prr_names[:quarantined])
        device.lost = lost
        if running:
            device.running = make_job(next_id, running)
            next_id += 1
        devices.append(device)
    ready = []
    for width, priority, deadline, granted in job_data:
        job = make_job(next_id, width, priority, deadline_us=deadline)
        job.state = "placed" if granted else "submitted"
        ready.append(job)
        next_id += 1
    ready.sort(key=ready_key)

    room = scheduler.bound(devices) - scheduler.granted_width(ready, devices)
    new = scheduler.grant(ready, devices)
    assert new == scheduler.grant(ready, devices)  # pure function
    ungranted = [j for j in ready if not j.granted]
    assert new == ungranted[: len(new)]  # a prefix, in ready order
    room -= sum(j.width for j in new)
    assert room >= 0 or not new  # never grants past the bound
    if len(new) < len(ungranted):
        assert ungranted[len(new)].width > room  # head-of-line blocking
    for job in new:
        job.state = "placed"

    pairs = scheduler.assign(ready, devices)
    assert pairs == scheduler.assign(ready, devices)  # pure function
    got = {device.device_id: job for device, job in pairs}
    assert len({job.id for job in got.values()}) == len(got)
    left = [j for j in ready if j.granted]
    for device in devices:
        if device.lost or device.running is not None:
            assert device.device_id not in got
            continue
        fits = [j for j in left if j.width <= device.healthy_prrs]
        expected = fits[0] if fits else None
        assert got.get(device.device_id) is expected
        if expected is not None:
            left.remove(expected)


# ----------------------------------------------------------------------
# operation sequences against real pooled devices
# ----------------------------------------------------------------------
class ToyPool:
    """DevicePool's scheduling step, minus the bridge and the events."""

    def __init__(self, devices, overcommit):
        self.scheduler = PoolScheduler(overcommit=overcommit)
        self.devices = [PooledDevice(i, PARAMS) for i in range(devices)]
        self.ready = []
        self.next_id = 0

    def submit(self, width, priority, arrival_us, deadline_us):
        bisect.insort(
            self.ready,
            make_job(self.next_id, width, priority, arrival_us, deadline_us),
        )
        self.next_id += 1

    def schedule(self):
        """Fail too-wide jobs, grant, assign; return (granted, pairs)."""
        widest = self.scheduler.widest(self.devices)
        self.ready = [j for j in self.ready if j.width <= widest]
        granted = self.scheduler.grant(self.ready, self.devices)
        for job in granted:
            job.state = "placed"
        pairs = self.scheduler.assign(self.ready, self.devices)
        for device, job in pairs:
            self.ready.remove(job)
            device.running = job
            job.device_id = device.device_id
            job.state = "bound"
        return granted, pairs

    def idle_devices(self):
        return [
            d for d in self.devices if not d.lost and d.running is None
        ]


ops = st.lists(
    st.one_of(
        st.tuples(
            st.just("submit"),
            st.integers(1, 2),                   # width
            st.integers(0, 2),                   # priority
            st.sampled_from([0.0, 5.0, 10.0]),   # arrival_us
            deadlines,
        ),
        st.tuples(st.just("finish"), st.integers(0, 2)),
        st.tuples(st.just("lose"), st.integers(0, 2)),
        st.tuples(st.just("quarantine"), st.integers(0, 2), st.integers(0, 1)),
    ),
    min_size=1, max_size=40,
)


def apply(pool, op, args):
    """One operation on the toy pool; True if it shrank the bound."""
    if op == "submit":
        pool.submit(*args)
        return False
    device = pool.devices[args[0] % len(pool.devices)]
    if op == "finish":
        if device.running is not None:
            device.release(device.running)
        return False
    if op == "lose":
        device.lost = True
        return True
    device.quarantined.add(device.prr_names[args[1]])
    if device.healthy_prrs == 0:
        device.lost = True
    return True


def drive(sequence, devices, overcommit, check):
    pool = ToyPool(devices, overcommit)
    shrunk = False
    for op, *args in sequence:
        shrunk |= apply(pool, op, args)
        granted, pairs = pool.schedule()
        check(pool, granted, pairs, shrunk)


@settings(max_examples=150, deadline=None)
@given(ops, st.integers(1, 3), overcommits)
def test_no_two_live_vprrs_share_a_physical_prr(sequence, devices, overcommit):
    """A device has at most one job dispatched to its worker at any
    instant, and only one that fits its healthy PRRs, so no two live
    vPRRs can share a physical PRR; grants respect the pool-wide
    overcommit bound."""
    def check(pool, granted, pairs, shrunk):
        assert pool.ready == sorted(pool.ready, key=ready_key)
        for device, job in pairs:
            assert job.width <= device.healthy_prrs
        running = [d.running for d in pool.devices if d.running is not None]
        assert len({id(job) for job in running}) == len(running)
        assert not any(job in pool.ready for job in running)
        width = pool.scheduler.granted_width(pool.ready, pool.devices)
        bound = pool.scheduler.bound(pool.devices)
        # a loss or quarantine shrinks the bound without revoking grants
        if granted or not shrunk:
            assert width <= bound

    drive(sequence, devices, overcommit, check)


@settings(max_examples=150, deadline=None)
@given(ops, st.integers(1, 3), overcommits)
def test_ready_queue_is_work_conserving(sequence, devices, overcommit):
    """No idle, non-lost device is left beside a granted ready job that
    fits it.  Without quarantine every device has the same width, and
    strict head-of-line grants leave none beside *any* ready job."""
    quarantine_free = all(op != "quarantine" for op, *_ in sequence)

    def check(pool, granted, pairs, shrunk):
        for device in pool.idle_devices():
            waiting = [
                j for j in pool.ready if j.width <= device.healthy_prrs
            ]
            assert not [j for j in waiting if j.granted]
            if quarantine_free:
                assert not waiting

    drive(sequence, devices, overcommit, check)
