"""Property tests: streaming channels never lose, duplicate or reorder
words regardless of pipeline depth, FIFO sizing or consumer pacing.

This is the invariant behind the paper's 2*d feedback-full threshold
(Section III.B): the consumer FIFO always has room for the words already
in flight when back-pressure asserts.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.comm.channel import StreamingChannel
from repro.comm.interfaces import ConsumerInterface, ProducerInterface
from repro.comm.switchbox import MODULE_OUT, RIGHT, LaneRef


def build_channel(d, depth):
    producer = ProducerInterface("p", depth=max(depth, 4))
    consumer = ConsumerInterface("c", depth=depth)
    producer.fifo_ren = True
    consumer.fifo_wen = True
    hops = [LaneRef(i, RIGHT, 0) for i in range(d - 1)]
    hops.append(LaneRef(max(0, d - 1), MODULE_OUT, 0))
    return StreamingChannel(0, producer, consumer, hops), producer, consumer


@given(
    d=st.integers(1, 8),
    # consumer FIFO must hold the in-flight window: depth > 2*d
    extra_depth=st.integers(1, 32),
    word_count=st.integers(1, 150),
    drain_period=st.integers(1, 7),
    seed=st.randoms(use_true_random=False),
)
@settings(max_examples=60, deadline=None)
def test_channel_lossless_in_order_any_pacing(
    d, extra_depth, word_count, drain_period, seed
):
    depth = 2 * d + extra_depth
    channel, producer, consumer = build_channel(d, depth)
    sent = 0
    received = []
    for cycle in range(word_count * (drain_period + 2) + 4 * d + 16):
        if sent < word_count and producer.module_can_write:
            producer.module_write(sent)
            sent += 1
        channel.sample()
        if cycle % drain_period == 0:
            while consumer.module_can_read and seed.random() < 0.8:
                received.append(consumer.module_read())
    while consumer.module_can_read:
        received.append(consumer.module_read())
    assert consumer.words_discarded == 0
    assert received == list(range(word_count))


@given(d=st.integers(1, 8), burst=st.integers(1, 64))
@settings(max_examples=40, deadline=None)
def test_backpressure_keeps_occupancy_bounded(d, burst):
    """With no drain at all, the consumer FIFO never overflows and the
    producer eventually stops being served."""
    depth = 2 * d + 2
    channel, producer, consumer = build_channel(d, depth)
    for value in range(burst):
        producer.module_write(value)
    for _ in range(burst + 10 * d + 20):
        channel.sample()
    assert consumer.words_discarded == 0
    assert len(consumer.fifo) <= depth


@given(d=st.integers(1, 8), inflight=st.integers(0, 8))
@settings(max_examples=40, deadline=None)
def test_release_accounts_for_all_words(d, inflight):
    """sent == delivered + in_flight at any instant."""
    channel, producer, consumer = build_channel(d, 64)
    for value in range(inflight):
        producer.module_write(value)
    for _ in range(inflight):
        channel.sample()
    total = producer.words_sent
    lost = channel.release()
    assert total == consumer.words_received + lost
