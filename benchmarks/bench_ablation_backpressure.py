"""Experiment X-BP (paper Section III.B): the 2*d feedback-full threshold.

The consumer interface asserts its feedback FIFO-full signal while the
FIFO's remaining space can still absorb the words in flight on the
pipelined channel (2*d: d forward, d for the feedback to arrive).  This
ablation sweeps the switch distance d and shows

* with the paper's threshold: zero discarded words at every distance;
* with an under-provisioned threshold (the ablation): words are lost as
  soon as d exceeds what the slack covers.
"""

from repro.analysis.report import format_table
from repro.comm.channel import StreamingChannel
from repro.comm.interfaces import ConsumerInterface, ProducerInterface
from repro.comm.switchbox import MODULE_OUT, RIGHT, LaneRef

WORDS = 400


def run_channel(d, slack_override=None, depth=None):
    producer = ProducerInterface("p", depth=64)
    consumer = ConsumerInterface("c", depth=depth or (2 * d + 4))
    producer.fifo_ren = True
    consumer.fifo_wen = True
    hops = [LaneRef(i, RIGHT, 0) for i in range(d - 1)]
    hops.append(LaneRef(max(0, d - 1), MODULE_OUT, 0))
    channel = StreamingChannel(0, producer, consumer, hops)
    if slack_override is not None:
        consumer.set_backpressure_slack(slack_override)
    sent = 0
    received = 0
    for cycle in range(WORDS * 6 + 8 * d + 40):
        if sent < WORDS and producer.module_can_write:
            producer.module_write(sent)
            sent += 1
        channel.sample()
        # consumer drains slowly: 1 word every 5 cycles
        if cycle % 5 == 0 and consumer.module_can_read:
            consumer.module_read()
            received += 1
    received += len(consumer.fifo)
    return received, consumer.words_discarded


def test_backpressure_threshold_sweep(benchmark):
    def sweep():
        rows = []
        for d in (1, 2, 4, 6, 8):
            _, drops_paper = run_channel(d)
            _, drops_halved = run_channel(d, slack_override=max(0, d - 1))
            rows.append((d, drops_paper, drops_halved))
        return rows

    rows = benchmark(sweep)
    print()
    print(format_table(
        ["switch distance d", "drops @ slack=2d (paper)",
         "drops @ slack=d-1 (ablated)"],
        rows,
        title="Section III.B: feedback-full threshold ablation",
    ))
    for d, paper, ablated in rows:
        assert paper == 0, f"paper threshold lost words at d={d}"
    # the ablated threshold must fail somewhere in the sweep, proving the
    # 2*d margin is necessary, not conservative bookkeeping
    assert any(ablated > 0 for _, _, ablated in rows)
    benchmark.extra_info["X-BP:paper_drops"] = 0
    benchmark.extra_info["X-BP:ablated_drops"] = sum(r[2] for r in rows)


def test_all_words_delivered_with_paper_threshold(benchmark):
    def deliver_all():
        results = []
        for d in (1, 3, 8):
            received, drops = run_channel(d)
            results.append((d, received, drops))
        return results

    results = benchmark(deliver_all)
    for d, received, drops in results:
        assert received == WORDS
        assert drops == 0


def test_minimum_fifo_depth_is_2d_plus_one(benchmark):
    """With depth exactly 2*d+1 the channel still never overflows."""
    def tight():
        outcomes = []
        for d in (2, 5, 8):
            received, drops = run_channel(d, depth=2 * d + 1)
            outcomes.append((d, received, drops))
        return outcomes

    outcomes = benchmark(tight)
    rows = [[d, 2 * d + 1, received, drops] for d, received, drops in outcomes]
    print()
    print(format_table(
        ["d", "FIFO depth", "words delivered", "drops"], rows,
        title="tightest consumer FIFO that is still loss-free",
    ))
    for _, received, drops in outcomes:
        assert drops == 0
        assert received == WORDS
