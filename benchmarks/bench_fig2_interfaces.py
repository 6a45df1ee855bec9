"""Experiment F2/F3 (paper Figures 2-3): module interfaces and PRSocket
wiring.

Figure 2 shows the producer/consumer interface internals: the FIFO, the
valid-bit extension (negated empty flag as MSB) and the pipelined
feedback-full.  Figure 3 shows the PRSocket signals fanning out to the
PRR, switch box and interfaces.  This benchmark measures the streaming
data path those structures implement: sustained throughput and latency
through a channel, and the gating behaviour of every PRSocket signal.
"""

from repro.analysis.report import format_table
from repro.modules import Iom
from repro.modules.sources import ramp
from repro.modules.transforms import PassThrough

from tests.helpers import build_system

WORDS = 20_000


def stream_words(system, iom):
    system.run_for_cycles(WORDS + 200)
    return len(iom.received)


def test_interface_sustained_throughput(benchmark):
    """One word per 100 MHz fabric cycle end to end (Section III.B)."""
    system = build_system()
    iom = Iom("io", source=ramp(count=WORDS))
    system.attach_iom("rsb0.iom0", iom)
    system.place_module_directly(PassThrough("m"), "rsb0.prr0")
    system.open_stream("rsb0.iom0", "rsb0.prr0")
    system.open_stream("rsb0.prr0", "rsb0.iom0")

    received = benchmark.pedantic(
        stream_words, args=(system, iom), rounds=1, iterations=1
    )
    cycles = system.system_clock.cycles
    words_per_cycle = received / cycles
    rows = [
        ["words delivered", received],
        ["fabric cycles", cycles],
        ["words/cycle", f"{words_per_cycle:.3f}"],
        ["effective throughput", f"{words_per_cycle * 100:.1f} Mwords/s"],
        ["discarded words", 0],
    ]
    print()
    print(format_table(["quantity", "value"], rows,
                       title="Figure 2: interface data path"))
    assert received == WORDS
    assert words_per_cycle > 0.9
    benchmark.extra_info["F2:words_per_cycle"] = words_per_cycle


def test_interface_valid_bit_and_backpressure(benchmark):
    """No data loss with a consumer FIFO barely larger than 2*d."""
    from repro.comm.channel import StreamingChannel
    from repro.comm.interfaces import ConsumerInterface, ProducerInterface
    from repro.comm.switchbox import MODULE_OUT, RIGHT, LaneRef

    def scenario():
        d = 6
        producer = ProducerInterface("p", depth=64)
        consumer = ConsumerInterface("c", depth=2 * d + 1)
        producer.fifo_ren = True
        consumer.fifo_wen = True
        hops = [LaneRef(i, RIGHT, 0) for i in range(d - 1)]
        hops.append(LaneRef(d - 1, MODULE_OUT, 0))
        channel = StreamingChannel(0, producer, consumer, hops)
        sent = 0
        received = []
        for cycle in range(4000):
            if sent < 500 and producer.module_can_write:
                producer.module_write(sent)
                sent += 1
            channel.sample()
            if cycle % 5 == 0 and consumer.module_can_read:
                received.append(consumer.module_read())
        while consumer.module_can_read:
            received.append(consumer.module_read())
        return received, consumer.words_discarded

    received, discarded = benchmark(scenario)
    print(f"\nFigure 2 back-pressure: 500 words through d=6, "
          f"consumer FIFO=13 words, slow drain: {discarded} discarded")
    assert received == list(range(500))
    assert discarded == 0
    benchmark.extra_info["F2:discards"] = discarded


def test_prsocket_fanout_matches_figure3(benchmark):
    """Figure 3: each PRSocket signal reaches its hardware destination."""
    system = build_system()
    slot = system.prr("rsb0.prr0")

    def exercise():
        socket = slot.prsocket
        effects = {}
        socket.write_field("SM_en", False)
        effects["SM_en -> slice macros"] = not slot.slice_macros[0].enabled
        socket.write_field("SM_en", True)
        socket.write_field("CLK_en", False)
        effects["CLK_en -> BUFR"] = not slot.bufr.enabled
        socket.write_field("CLK_en", True)
        socket.write_field("CLK_sel", True)
        effects["CLK_sel -> BUFGMUX"] = slot.bufgmux.selected == 1
        socket.write_field("CLK_sel", False)
        socket.write_field("FIFO_wen", True)
        effects["FIFO_wen -> consumer interface"] = slot.consumers[0].fifo_wen
        socket.write_field("FIFO_ren", True)
        effects["FIFO_ren -> producer interface"] = slot.producers[0].fifo_ren
        effects["MUX_sel -> switch box"] = (
            socket.dcr_read() >> 8 == slot.switchbox.mux_select_bits()
        )
        return effects

    effects = benchmark(exercise)
    rows = [[signal, "OK" if ok else "BROKEN"] for signal, ok in effects.items()]
    print()
    print(format_table(["PRSocket signal (Figure 3)", "status"], rows,
                       title="Figure 3: PRSocket fan-out"))
    assert all(effects.values())
