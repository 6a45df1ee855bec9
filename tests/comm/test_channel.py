"""Unit tests for streaming channels and the switch fabric."""

import pytest

from repro.comm.channel import StreamingChannel, SwitchFabric
from repro.comm.interfaces import ConsumerInterface, ProducerInterface
from repro.comm.switchbox import MODULE_OUT, RIGHT, LaneRef


def make_channel(d=3, depth=32):
    producer = ProducerInterface("p", depth=depth)
    consumer = ConsumerInterface("c", depth=depth)
    producer.fifo_ren = True
    consumer.fifo_wen = True
    hops = [LaneRef(i, RIGHT, 0) for i in range(d - 1)]
    hops.append(LaneRef(d - 1, MODULE_OUT, 0))
    channel = StreamingChannel(0, producer, consumer, hops)
    return channel, producer, consumer


def tick(channel, n=1):
    for _ in range(n):
        channel.sample()


def test_channel_requires_hops():
    producer = ProducerInterface("p")
    consumer = ConsumerInterface("c")
    with pytest.raises(ValueError):
        StreamingChannel(0, producer, consumer, [])


def test_pipeline_latency_is_d_plus_one_cycles():
    """d switch-box registers plus the consumer FIFO write edge."""
    channel, producer, consumer = make_channel(d=4)
    producer.module_write(99)
    tick(channel, 4)
    assert not consumer.module_can_read  # still in flight
    tick(channel, 1)
    assert consumer.module_read() == 99


@pytest.mark.parametrize("d", [1, 3, 6])
def test_each_sample_moves_a_word_one_register(d):
    """One sample() is a whole fabric cycle: n calls move a word n
    registers, with no separate commit phase."""
    channel, producer, consumer = make_channel(d=d)
    producer.module_write(7)
    for n in range(1, d + 1):
        channel.sample()
        assert [valid for valid, _ in channel._forward] == [
            index == n - 1 for index in range(d)
        ]
        assert not consumer.module_can_read
    channel.sample()
    assert channel.in_flight == 0
    assert consumer.module_read() == 7


def test_one_word_per_cycle_throughput():
    channel, producer, consumer = make_channel(d=2)
    for value in range(20):
        producer.module_write(value)
    tick(channel, 22)
    received = []
    while consumer.module_can_read:
        received.append(consumer.module_read())
    assert received == list(range(20))


def test_backpressure_slack_set_to_2d():
    channel, _, consumer = make_channel(d=5)
    assert consumer.fifo.almost_full_slack == 10


def test_no_words_lost_with_slow_consumer():
    """The 2*d feedback threshold guarantees zero discards even though the
    consumer FIFO is tiny and the producer streams flat out."""
    channel, producer, consumer = make_channel(d=3, depth=8)
    sent = 0
    drained = []
    for _ in range(200):
        if producer.module_can_write and sent < 100:
            producer.module_write(sent)
            sent += 1
        tick(channel)
        # consumer drains only every 4th cycle (slower than the producer)
        if channel.words_delivered % 4 == 0 and consumer.module_can_read:
            drained.append(consumer.module_read())
    while consumer.module_can_read:
        drained.append(consumer.module_read())
    assert consumer.words_discarded == 0
    assert drained == list(range(len(drained)))


def test_in_flight_count():
    channel, producer, _ = make_channel(d=4)
    for value in range(3):
        producer.module_write(value)
    tick(channel, 2)
    assert channel.in_flight == 2


def test_release_reports_lost_words():
    channel, producer, _ = make_channel(d=4)
    for value in range(3):
        producer.module_write(value)
    tick(channel, 2)
    lost = channel.release()
    assert lost == 2
    assert channel.released
    assert channel.in_flight == 0


def test_released_channel_ignores_ticks():
    channel, producer, consumer = make_channel(d=2)
    producer.module_write(1)
    channel.release()
    tick(channel, 5)
    assert not consumer.module_can_read


def test_release_empty_channel_loses_nothing():
    channel, _, _ = make_channel(d=2)
    tick(channel, 3)
    assert channel.release() == 0


# ----------------------------------------------------------------------
# SwitchFabric
# ----------------------------------------------------------------------
def test_fabric_ticks_all_channels():
    fabric = SwitchFabric()
    ch_a, prod_a, cons_a = make_channel(d=1)
    ch_b, prod_b, cons_b = make_channel(d=1)
    ch_b.channel_id = 1
    fabric.add(ch_a)
    fabric.add(ch_b)
    prod_a.module_write(10)
    prod_b.module_write(20)
    fabric.sample()
    fabric.commit()
    fabric.sample()
    fabric.commit()
    assert cons_a.module_read() == 10
    assert cons_b.module_read() == 20


def test_fabric_remove():
    fabric = SwitchFabric()
    channel, producer, consumer = make_channel(d=1)
    fabric.add(channel)
    fabric.remove(channel.channel_id)
    producer.module_write(1)
    fabric.sample()
    fabric.commit()
    assert not consumer.module_can_read
    fabric.remove(999)  # removing unknown ids is a no-op


def test_active_channels_excludes_released():
    fabric = SwitchFabric()
    channel, _, _ = make_channel(d=1)
    fabric.add(channel)
    assert fabric.active_channels == [channel]
    channel.release()
    assert fabric.active_channels == []


# ----------------------------------------------------------------------
# quiescence (fast-path skip-ahead contract)
# ----------------------------------------------------------------------
def test_idle_channel_is_quiescent():
    channel, producer, _ = make_channel(d=3)
    assert channel.quiescent()
    producer.fifo_ren = False
    producer.module_write(7)
    assert channel.quiescent()  # data parked behind a cleared FIFO_ren
    producer.fifo_ren = True
    assert not channel.quiescent()  # would drive a word this edge


def test_word_in_flight_is_not_quiescent():
    channel, producer, consumer = make_channel(d=3)
    producer.module_write(7)
    tick(channel)
    for _ in range(3):
        assert not channel.quiescent()
        tick(channel)
    assert consumer.module_read() == 7
    assert channel.quiescent()


def fill_to_feedback(channel, producer, consumer):
    """Fill the consumer FIFO until the feedback-full signal asserts."""
    producer.fifo_ren = False
    for value in range(5):  # depth 8, remaining 3 <= slack 2*d = 4
        consumer.receive(True, value)
    assert consumer.full_feedback


def test_feedback_in_flight_is_not_quiescent():
    channel, producer, consumer = make_channel(d=2, depth=8)
    fill_to_feedback(channel, producer, consumer)
    for _ in range(2):
        assert not channel.quiescent()
        tick(channel)
    assert channel.quiescent()


def test_backpressured_stall_is_quiescent_and_counted():
    """idle_advance(n) counts what n real edges would: n stall cycles."""
    stalls = []
    for advance in (tick, lambda channel, n: channel.idle_advance(n)):
        channel, producer, consumer = make_channel(d=2, depth=8)
        fill_to_feedback(channel, producer, consumer)
        tick(channel, 2)
        producer.fifo_ren = True
        producer.module_write(9)
        assert channel.quiescent()
        advance(channel, 5)
        assert len(producer.fifo) == 1
        stalls.append(channel.stall_cycles)
    assert stalls == [5, 5]


def test_fabric_is_quiescent_only_when_every_channel_is():
    fabric = SwitchFabric()
    idle, _, _ = make_channel(d=2)
    busy, producer, _ = make_channel(d=2)
    fabric.add(idle)
    assert fabric.quiescent()
    busy.channel_id = 1
    fabric.add(busy)
    producer.module_write(1)
    assert not fabric.quiescent()
    busy.release()
    assert fabric.quiescent()
