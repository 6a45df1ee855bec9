"""Unit tests for the channel router."""

import pytest

from repro.comm.channel import SwitchFabric
from repro.comm.interfaces import ConsumerInterface, ProducerInterface
from repro.comm.router import ChannelRouter, RoutingError
from repro.comm.switchbox import LEFT, MODULE_OUT, RIGHT, SwitchBox


def make_router(n=4, kr=2, kl=2, ki=1, ko=1):
    boxes = [SwitchBox(i, kr, kl, ki, ko) for i in range(n)]
    fabric = SwitchFabric()
    return ChannelRouter(boxes, fabric), boxes, fabric


def endpoints():
    producer = ProducerInterface("p")
    consumer = ConsumerInterface("c")
    return producer, consumer


def test_router_needs_boxes():
    with pytest.raises(RoutingError):
        ChannelRouter([], SwitchFabric())


def test_rightward_path_hops():
    router, boxes, _ = make_router()
    producer, consumer = endpoints()
    channel = router.establish(0, 3, producer, consumer)
    assert channel.d == 4
    directions = [h.direction for h in channel.hops]
    assert directions == [RIGHT, RIGHT, RIGHT, MODULE_OUT]
    assert [h.box for h in channel.hops] == [0, 1, 2, 3]


def test_leftward_path_hops():
    router, _, _ = make_router()
    producer, consumer = endpoints()
    channel = router.establish(3, 1, producer, consumer)
    assert channel.d == 3
    assert [h.direction for h in channel.hops] == [LEFT, LEFT, MODULE_OUT]
    assert [h.box for h in channel.hops] == [3, 2, 1]


def test_same_box_loopback():
    router, _, _ = make_router()
    producer, consumer = endpoints()
    channel = router.establish(2, 2, producer, consumer)
    assert channel.d == 1
    assert channel.hops[0].direction == MODULE_OUT


def test_out_of_range_indices():
    router, _, _ = make_router()
    producer, consumer = endpoints()
    with pytest.raises(RoutingError, match="out of range"):
        router.establish(0, 9, producer, consumer)


def test_lane_exhaustion_and_rollback():
    router, boxes, _ = make_router(n=3, kr=1, kl=1)
    # consume the single rightward lane on box 0
    router.establish(0, 1, *endpoints())
    producer, consumer = endpoints()
    with pytest.raises(RoutingError):
        router.establish(0, 2, producer, consumer)
    # rollback: nothing extra must remain allocated on box 1/2
    assert boxes[1].free_lanes(RIGHT) == [0]
    assert boxes[2].free_lanes(MODULE_OUT) == [0]


def test_try_establish_returns_none_on_failure():
    router, _, _ = make_router(n=2, kr=1, kl=1)
    assert router.try_establish(0, 1, *endpoints()) is not None
    assert router.try_establish(0, 1, *endpoints()) is None


def test_parallel_channels_use_distinct_lanes():
    router, boxes, _ = make_router(kr=2)
    ch1 = router.establish(0, 2, *endpoints())
    ch2 = router.establish(0, 1, *endpoints())
    lanes_box0 = {h.lane for h in ch1.hops + ch2.hops if h.box == 0}
    assert lanes_box0 == {0, 1}


def test_release_frees_all_hops():
    router, boxes, fabric = make_router()
    channel = router.establish(0, 3, *endpoints())
    assert router.established_count == 1
    router.release(channel)
    assert router.established_count == 0
    for box in boxes:
        assert box.utilization() == 0.0
    assert channel.channel_id not in fabric.channels
    # a new channel can reuse the lanes
    assert router.try_establish(0, 3, *endpoints()) is not None


def test_release_unknown_channel_raises():
    router, _, _ = make_router()
    channel = router.establish(0, 1, *endpoints())
    router.release(channel)
    with pytest.raises(RoutingError):
        router.release(channel)


def test_channels_added_to_fabric():
    router, _, fabric = make_router()
    channel = router.establish(0, 2, *endpoints())
    assert fabric.channels[channel.channel_id] is channel


def test_specific_ports():
    router, boxes, _ = make_router(ki=2, ko=2)
    producer, consumer = endpoints()
    channel = router.establish(0, 1, producer, consumer, src_port=1, dst_port=1)
    assert channel.hops[-1].lane == 1
    # the first hop's mux reads module input 1
    source = boxes[0].mux_source(RIGHT, channel.hops[0].lane)
    assert source.lane == 1


def test_comm_state_snapshot_and_feasibility():
    router, _, _ = make_router(n=3, kr=1, kl=1)
    state = router.comm_state()
    assert state.free_right == [1, 1, 1]
    assert state.can_route(0, 2)
    router.establish(0, 2, *endpoints())
    state = router.comm_state()
    assert state.free_right == [0, 0, 1]
    assert not state.can_route(0, 2)
    assert not state.can_route(0, 1)
    assert state.can_route(2, 0)  # leftward lanes untouched
    assert not state.can_route(1, 2)  # module_out at 2 is taken


def test_comm_state_same_box():
    router, _, _ = make_router(n=2, ki=1)
    state = router.comm_state()
    assert state.can_route(1, 1)
    router.establish(1, 1, *endpoints())
    assert not router.comm_state().can_route(1, 1)


def test_hops_of_released_channel_empty():
    router, _, _ = make_router()
    channel = router.establish(0, 1, *endpoints())
    assert len(router.hops_of(channel)) == 2
    router.release(channel)
    assert router.hops_of(channel) == []


def test_comm_state_counts_freeing_lanes_as_free():
    router, _, _ = make_router(n=3, kr=1, kl=1)
    old = router.establish(0, 2, *endpoints())
    assert not router.comm_state().can_route(0, 1)
    state = router.comm_state(freeing=[old, None])
    assert state.free_right == [1, 1, 1]
    assert state.can_route(0, 1)


def test_claim_refuses_only_conflicting_establishes():
    router, _, _ = make_router(n=4, kr=1, kl=1, ki=2)
    old = router.establish(0, 1, *endpoints())
    claim = router.claim(0, 3, 0, freeing=[old])
    assert claim is not None
    # would take box 2's only right lane, which the claimed route needs
    with pytest.raises(RoutingError, match="claimed"):
        router.establish(2, 3, *endpoints(), dst_port=1)
    # would take the claimed consumer lane, although another is free
    with pytest.raises(RoutingError, match="claimed"):
        router.establish(3, 3, *endpoints(), dst_port=0)
    assert router.try_establish(3, 0, *endpoints()) is not None  # leftward
    assert router.established_count == 2
    router.release(old)
    router.drop_claim(claim)
    assert router.try_establish(0, 3, *endpoints()) is not None


def test_claim_of_an_unroutable_route_is_refused():
    router, _, _ = make_router(n=3, kr=1, kl=1)
    router.establish(0, 2, *endpoints())
    assert router.claim(0, 2, 0) is None
    assert router.claim(2, 0, 0) is not None
