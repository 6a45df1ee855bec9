"""Property tests: router allocation invariants under random workloads."""

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.comm.channel import SwitchFabric
from repro.comm.interfaces import ConsumerInterface, ProducerInterface
from repro.comm.router import ChannelRouter
from repro.comm.switchbox import LEFT, MODULE_OUT, RIGHT, SwitchBox


def build(n, kr, kl):
    boxes = [SwitchBox(i, kr, kl, 1, 1) for i in range(n)]
    return ChannelRouter(boxes, SwitchFabric()), boxes


def endpoints():
    return ProducerInterface("p"), ConsumerInterface("c")


requests = st.lists(
    st.tuples(st.integers(0, 5), st.integers(0, 5), st.booleans()),
    max_size=40,
)


@given(
    n=st.integers(2, 6),
    kr=st.integers(1, 3),
    kl=st.integers(1, 3),
    reqs=requests,
)
@settings(max_examples=80, deadline=None)
def test_establish_succeeds_iff_comm_state_says_so(n, kr, kl, reqs):
    """`can_route` on a fresh snapshot exactly predicts establishment."""
    router, boxes = build(n, kr, kl)
    live = []
    for src, dst, release_one in reqs:
        src %= n
        dst %= n
        predicted = router.comm_state().can_route(src, dst)
        channel = router.try_establish(src, dst, *endpoints())
        assert (channel is not None) == predicted
        if channel is not None:
            live.append(channel)
        if release_one and live:
            router.release(live.pop(0))


@given(
    n=st.integers(2, 6),
    kr=st.integers(1, 3),
    kl=st.integers(1, 3),
    reqs=requests,
)
@settings(max_examples=80, deadline=None)
def test_lane_ownership_is_exclusive_and_conserved(n, kr, kl, reqs):
    router, boxes = build(n, kr, kl)
    live = []
    for src, dst, release_one in reqs:
        channel = router.try_establish(src % n, dst % n, *endpoints())
        if channel is not None:
            live.append(channel)
        if release_one and live:
            router.release(live.pop())
        # every owned lane belongs to exactly one live channel
        owned = {}
        for box in boxes:
            for direction in (RIGHT, LEFT, MODULE_OUT):
                limit = {RIGHT: box.kr, LEFT: box.kl, MODULE_OUT: box.ki}[
                    direction
                ]
                for lane in range(limit):
                    owner = box.owner_of(direction, lane)
                    if owner is not None:
                        owned.setdefault(owner, []).append(
                            (box.index, direction, lane)
                        )
        live_ids = {c.channel_id for c in live}
        assert set(owned) == live_ids
        for channel in live:
            hop_keys = {(h.box, h.direction, h.lane) for h in channel.hops}
            assert hop_keys == set(owned[channel.channel_id])


@given(n=st.integers(2, 6), reqs=requests)
@settings(max_examples=60, deadline=None)
def test_release_everything_restores_full_capacity(n, reqs):
    router, boxes = build(n, 2, 2)
    live = []
    for src, dst, _ in reqs:
        channel = router.try_establish(src % n, dst % n, *endpoints())
        if channel is not None:
            live.append(channel)
    for channel in live:
        router.release(channel)
    state = router.comm_state()
    assert state.free_right == [2] * n
    assert state.free_left == [2] * n
    assert state.free_module_out == [1] * n
    assert all(box.utilization() == 0.0 for box in boxes)


@given(n=st.integers(2, 6), src=st.integers(0, 5), dst=st.integers(0, 5))
@settings(max_examples=60, deadline=None)
def test_path_shape_is_minimal(n, src, dst):
    """Paths use exactly |src-dst| directional hops plus one module-out."""
    router, _ = build(n, 3, 3)
    src %= n
    dst %= n
    channel = router.establish(src, dst, *endpoints())
    assert channel.d == abs(src - dst) + 1
    assert channel.hops[-1].direction == MODULE_OUT
    directional = channel.hops[:-1]
    expected_direction = RIGHT if src < dst else LEFT
    assert all(h.direction == expected_direction for h in directional)
    assert [h.box for h in channel.hops[:-1]] == (
        list(range(src, dst)) if src < dst else list(range(src, dst, -1))
    )


@given(
    n=st.integers(3, 6),
    kr=st.integers(1, 3),
    kl=st.integers(1, 3),
    ends=st.tuples(st.integers(0, 5), st.integers(0, 5), st.integers(0, 5)),
    reqs=requests,
)
@settings(max_examples=120, deadline=None)
def test_new_input_never_changes_the_new_outputs_route(n, kr, kl, ends, reqs):
    """A Figure-5 switch counts its new output's lanes without its new
    input: the input (up -> new) and the output (new -> down) never
    compete for a lane, so establishing the one never changes
    `can_route` for the other.  In one direction their spans [up, new)
    and [new, down) are disjoint, in opposite directions they draw on
    different lane pools, and their module-out lanes sit in different
    boxes."""
    up, new, down = (end % n for end in ends)
    assume(new not in (up, down))
    router, _ = build(n, kr, kl)
    for src, dst, _ in reqs:
        router.try_establish(src % n, dst % n, *endpoints())
    before = router.comm_state().can_route(new, down)
    if router.try_establish(up, new, *endpoints()) is not None:
        assert router.comm_state().can_route(new, down) == before
