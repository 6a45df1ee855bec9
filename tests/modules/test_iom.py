"""Unit tests for I/O modules."""

import pytest

from repro.comm.fsl import FslLink
from repro.comm.interfaces import ConsumerInterface, ProducerInterface
from repro.modules.base import EOS_WORD, ModulePorts
from repro.modules.iom import MSG_EOS, Iom, _stamp
from repro.modules.state import to_u32
from repro.sim.fastpath import Replay


def harness(iom, depth=64):
    consumer = ConsumerInterface("c", depth=depth)
    producer = ProducerInterface("p", depth=depth)
    consumer.fifo_wen = True
    ports = ModulePorts([consumer], [producer], FslLink("t"), FslLink("r"))
    iom.bind(ports)
    return consumer, producer, ports


def tick(iom, n=1):
    for _ in range(n):
        iom.commit()


def test_source_streams_into_producer():
    iom = Iom("io", source=iter([1, 2, 3]))
    _, producer, _ = harness(iom)
    tick(iom, 5)
    assert iom.words_emitted == 3
    assert iom.source_exhausted
    assert [producer.fifo.pop() for _ in range(3)] == [1, 2, 3]


def test_source_respects_producer_capacity():
    iom = Iom("io", source=iter(range(100)))
    _, producer, _ = harness(iom, depth=4)
    tick(iom, 10)
    assert len(producer.fifo) == 4
    assert iom.words_emitted == 4  # nothing lost, just paced


def test_push_interval_rate_limits():
    iom = Iom("io", source=iter(range(100)), push_interval=4)
    harness(iom)
    tick(iom, 16)
    assert iom.words_emitted == 4


def test_words_per_push_bursts():
    iom = Iom("io", source=iter(range(100)), words_per_push=3)
    harness(iom)
    tick(iom, 2)
    assert iom.words_emitted == 6


def test_invalid_rate_params():
    with pytest.raises(ValueError):
        Iom("io", push_interval=0)
    with pytest.raises(ValueError):
        Iom("io", words_per_push=0)


def test_sink_collects_received_words():
    iom = Iom("io")
    consumer, _, _ = harness(iom)
    for value in (5, -6):
        consumer.receive(True, to_u32(value))
    tick(iom, 3)
    assert iom.received == [5, -6]


def test_eos_detection_notifies_microblaze_when_armed():
    """Step 8 of the switching methodology (one-shot, armed detector)."""
    iom = Iom("io")
    consumer, _, ports = harness(iom)
    iom.arm_eos()
    consumer.receive(True, to_u32(7))
    consumer.receive(True, EOS_WORD)
    consumer.receive(True, to_u32(8))
    tick(iom, 5)
    assert iom.received == [7, 8]  # EOS word is not data
    assert iom.eos_count == 1
    assert not iom.eos_armed  # one-shot
    assert ports.fsl_out.slave_read() == (MSG_EOS, True)


def test_eos_word_is_plain_data_when_disarmed():
    """In-band hazard regression: 0xFFFFFFFF == -1 must survive normal
    streaming without terminating anything."""
    iom = Iom("io")
    consumer, _, ports = harness(iom)
    consumer.receive(True, to_u32(-1))
    consumer.receive(True, EOS_WORD)
    tick(iom, 4)
    assert iom.received == [-1, -1]
    assert iom.eos_count == 0
    assert not ports.fsl_out.can_read


def test_arm_eos_via_fsl_command():
    """The MicroBlaze arms the detector with CMD_ARM_EOS on the t-FSL."""
    from repro.modules.iom import CMD_ARM_EOS

    iom = Iom("io")
    consumer, _, ports = harness(iom)
    ports.fsl_in.master_write(CMD_ARM_EOS, control=True)
    tick(iom, 1)
    assert iom.eos_armed
    consumer.receive(True, EOS_WORD)
    tick(iom, 2)
    assert iom.eos_count == 1


def test_receive_timestamps_recorded_with_sim():
    from repro.sim.kernel import Simulator

    iom = Iom("io")
    iom.sim = Simulator()
    consumer, _, _ = harness(iom)
    consumer.receive(True, 1)
    tick(iom)
    assert len(iom.receive_times) == 1


def test_set_source_replaces_stream():
    iom = Iom("io", source=iter([1]))
    _, producer, _ = harness(iom)
    tick(iom, 3)
    assert iom.source_exhausted
    iom.set_source(iter([10, 11]))
    tick(iom, 3)
    assert not producer.fifo.empty
    assert iom.words_emitted == 3


def test_unbound_iom_is_inert():
    iom = Iom("io", source=iter([1]))
    tick(iom, 3)
    assert iom.words_emitted == 0


# ----------------------------------------------------------------------
# quiescence (fast-path skip-ahead contract)
# ----------------------------------------------------------------------
def test_iom_quiescent_only_without_work():
    assert Iom("unbound").quiescent()
    iom = Iom("io", source=iter([1, 2]))
    consumer, producer, ports = harness(iom)
    assert not iom.quiescent()  # a source word could be pushed
    tick(iom, 2)
    assert not iom.quiescent()  # exhaustion is only seen on the next pull
    tick(iom)
    assert iom.source_exhausted and iom.quiescent()
    consumer.receive(True, 5)
    assert not iom.quiescent()
    tick(iom)
    ports.fsl_in.master_write(0, control=True)
    assert not iom.quiescent()


def test_iom_with_full_producer_is_quiescent():
    iom = Iom("io", source=iter(range(100)))
    _, producer, _ = harness(iom, depth=4)
    tick(iom, 4)
    assert iom.quiescent()
    before = iom.cycles
    tick(iom, 3)
    assert iom.words_emitted == 4
    iom.idle_advance(3)
    assert iom.cycles == before + 6


def stamp_per_period(times, per_period, replay):
    """The per-period loop ``_stamp`` replaced, kept as its reference."""
    last = times[-per_period:]
    span = replay.span
    for k in range(1, replay.periods + 1):
        shift = k * span
        times.extend([t + shift for t in last])


@pytest.mark.parametrize("per_period", [1, 2, 3, 4])
@pytest.mark.parametrize("periods", [1, 2, 7, 2048])
def test_stamp_matches_per_period_loop(per_period, periods):
    # more than one period already stamped, at uneven offsets
    times = [1_000 + 37 * i + (i % 3) * 5 for i in range(3 * per_period + 1)]
    expected = list(times)
    replay = Replay(periods, 10_000, {}, {})
    stamp_per_period(expected, per_period, replay)
    _stamp(times, per_period, replay)
    assert times == expected
    assert len(times) == 3 * per_period + 1 + periods * per_period
