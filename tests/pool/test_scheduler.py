"""Property tests for the pool scheduler and the dispatch invariant.

The two contracts the virtualization layer stakes everything on:

* **overcommit is a grant-side fiction** -- however many vPRRs are
  granted, a device dispatches at most one job at a time to its
  worker, whose own admission controller places the stages, so two
  live vPRRs never share a physical PRR at the same instant;
* **scheduling is deterministic** -- the same view sequence always
  yields the same placements and steal plans.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.params import SystemParameters
from repro.pool.scheduler import DeviceView, PoolScheduler
from repro.pool.devices import PooledDevice, PoolJob
from repro.runtime.jobs import StageSpec, StreamJob

PARAMS = SystemParameters.prototype()  # 2 physical PRRs per device


def make_views(data):
    views = []
    for i, (prrs, granted, depth, lost) in enumerate(data):
        cap = int(2.0 * prrs)
        views.append(DeviceView(
            device_id=i, physical_prrs=prrs, vprr_capacity=cap,
            vprr_granted=min(granted, cap), queue_depth=depth, lost=lost,
        ))
    return views


view_data = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=4),   # healthy physical PRRs
        st.integers(min_value=0, max_value=8),   # granted
        st.integers(min_value=0, max_value=6),   # queue depth
        st.booleans(),                           # lost
    ),
    min_size=1, max_size=6,
)


@settings(max_examples=200, deadline=None)
@given(view_data, st.integers(min_value=1, max_value=3))
def test_place_respects_capacity_width_and_loss(data, need):
    scheduler = PoolScheduler(overcommit=2.0)
    views = make_views(data)
    target = scheduler.place(need, views)
    if target is None:
        # no candidate really had room
        for v in views:
            assert (
                v.lost or v.physical_prrs < need or v.vprr_free < need
            )
        return
    chosen = next(v for v in views if v.device_id == target)
    assert not chosen.lost
    assert chosen.physical_prrs >= need
    assert chosen.vprr_free >= need
    # most-headroom-wins with lowest-id tie-break (determinism)
    for v in views:
        if v.lost or v.physical_prrs < need or v.vprr_free < need:
            continue
        assert (v.vprr_free, -v.device_id) <= (
            chosen.vprr_free, -chosen.device_id
        )
    assert scheduler.place(need, views) == target  # pure function


@settings(max_examples=200, deadline=None)
@given(view_data)
def test_plan_steals_levels_without_overflowing(data):
    scheduler = PoolScheduler(overcommit=2.0, steal_threshold=2)
    views = make_views(data)
    moves = scheduler.plan_steals(views)
    assert moves == scheduler.plan_steals(views)  # deterministic
    depth = {v.device_id: v.queue_depth for v in views}
    granted = {v.device_id: v.vprr_granted for v in views}
    cap = {v.device_id: v.vprr_capacity for v in views}
    lost = {v.device_id: v.lost for v in views}
    before_total = sum(depth.values())
    for move in moves:
        assert move.source != move.target
        assert not lost[move.target]  # never steal onto a lost device
        depth[move.source] -= 1
        depth[move.target] += 1
        granted[move.source] -= 1
        granted[move.target] += 1
        assert depth[move.source] >= 0
        assert granted[move.target] <= cap[move.target]  # grant ceiling
    assert sum(depth.values()) == before_total  # jobs conserved


# ----------------------------------------------------------------------
# the dispatch invariant, against the real pooled device
# ----------------------------------------------------------------------
def _mk_pool_job(job_id, width, priority, arrival_us):
    spec = StreamJob(
        name=f"prop-{job_id}",
        stages=[StageSpec("passthrough") for _ in range(width)],
        priority=priority,
        arrival_us=arrival_us,
    )
    return PoolJob(id=job_id, spec=spec, tenant="prop", submitted_t=0.0)


def _admission_order(job):
    return (-job.spec.priority, job.spec.arrival_us, job.id)


ops = st.lists(
    st.one_of(
        st.tuples(
            st.just("submit"),
            st.integers(1, 2),                   # width
            st.integers(0, 2),                   # priority
            st.sampled_from([0.0, 5.0, 10.0]),   # arrival_us
        ),
        st.tuples(st.just("dispatch")),
        st.tuples(st.just("finish")),
    ),
    min_size=1, max_size=40,
)


@settings(max_examples=150, deadline=None)
@given(ops, st.sampled_from([1.0, 1.5, 2.0, 3.0]))
def test_no_two_live_vprrs_share_a_physical_prr(sequence, overcommit):
    """Drive one device through grant/dispatch/finish.  A device has at
    most one job dispatched to its worker at any instant, so no two
    live vPRRs can share a physical PRR; the grant count must respect
    the overcommit ceiling, and jobs dispatch in admission order."""
    scheduler = PoolScheduler(overcommit=overcommit)
    device = PooledDevice(0, PARAMS, scheduler)
    submitted = finished = 0
    live = []
    for op, *args in sequence:
        if op == "submit":
            width, priority, arrival_us = args
            if scheduler.place(width, [device.view()]) != 0:
                continue  # grant ceiling reached; pool would hold it
            device.queue.append(
                _mk_pool_job(submitted, width, priority, arrival_us)
            )
            submitted += 1
        elif op == "dispatch":
            queued = list(device.queue)
            job = device.dispatch_next()
            if live or not queued:
                assert job is None
            else:
                assert job is min(queued, key=_admission_order)
                live.append(job)
        elif op == "finish" and live:
            device.release(live.pop())
            finished += 1
        # --- invariants, checked after every operation ---
        assert len(live) <= 1, "two jobs dispatched to one worker"
        assert device.running is (live[0] if live else None)
        assert device.running not in device.queue
        assert len(device.queue) + len(live) + finished == submitted
        assert device.vprr_granted == sum(
            job.width for job in device.queue + live
        )
        assert device.vprr_granted <= device.vprr_capacity
