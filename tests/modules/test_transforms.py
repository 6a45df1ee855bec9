"""Unit tests for the transform module library."""

import zlib

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.comm.fsl import FslLink
from repro.comm.interfaces import ConsumerInterface, ProducerInterface
from repro.modules.base import ModulePorts
from repro.modules.filters import q15
from repro.modules.state import from_u32, to_u32
from repro.modules.transforms import (
    Crc32,
    Decimator,
    DeltaDecoder,
    DeltaEncoder,
    MinMaxTracker,
    PassThrough,
    Scaler,
    StreamMerger,
    StreamSplitter,
    ThresholdDetector,
)


def run_module(module, samples, inputs=1, outputs=1, ticks=None):
    consumers = [ConsumerInterface(f"c{i}", depth=1024) for i in range(inputs)]
    producers = [ProducerInterface(f"p{i}", depth=1024) for i in range(outputs)]
    for consumer in consumers:
        consumer.fifo_wen = True
    module.bind(ModulePorts(consumers, producers, FslLink("t"), FslLink("r")))
    if inputs == 1:
        for sample in samples:
            consumers[0].receive(True, to_u32(sample))
    else:
        for port, sample in samples:
            consumers[port].receive(True, to_u32(sample))
    for _ in range(ticks or (len(samples) * 2 + 6)):
        module.commit()
    results = []
    for producer in producers:
        out = []
        while not producer.fifo.empty:
            out.append(from_u32(producer.fifo.pop()))
        results.append(out)
    return results if outputs > 1 else results[0]


def test_passthrough_identity():
    assert run_module(PassThrough("p"), [1, -2, 3]) == [1, -2, 3]


def test_scaler_q15_gain():
    scaler = Scaler("s", gain=q15(0.5))
    assert run_module(scaler, [100, -100, 7]) == [50, -50, 3]


def test_scaler_gain_survives_reset():
    scaler = Scaler("s", gain=q15(2.0))
    scaler.reset()
    assert scaler.gain == q15(2.0)


def test_threshold_filters_small_samples():
    detector = ThresholdDetector("t", threshold=50)
    out = run_module(detector, [10, 60, -70, 20, 50])
    assert out == [60, -70, 50]
    assert detector.exceed_count == 3


def test_threshold_monitor_value():
    detector = ThresholdDetector("t", threshold=1)
    run_module(detector, [5, 5])
    assert detector.monitor_value() == 2
    detector.reset()
    assert detector.exceed_count == 0


def test_decimator_keeps_every_nth():
    decimator = Decimator("d", factor=3)
    out = run_module(decimator, list(range(9)))
    assert out == [0, 3, 6]


def test_decimator_phase_is_state():
    decimator = Decimator("d", factor=3)
    run_module(decimator, [0, 1])
    assert decimator.phase == 2
    clone = Decimator("d2", factor=3)
    clone.restore_state(decimator.save_state())
    assert clone.phase == 2


def test_decimator_validation():
    with pytest.raises(ValueError):
        Decimator("d", 0)


def test_delta_codec_roundtrip():
    stream = [5, 9, 3, 3, -10, 40]
    encoded = run_module(DeltaEncoder("e"), stream)
    decoded = run_module(DeltaDecoder("d"), encoded)
    assert decoded == stream


def test_delta_encoder_first_delta_from_zero():
    assert run_module(DeltaEncoder("e"), [7]) == [7]


def test_crc32_matches_zlib():
    samples = [1, 2, 3, 0x7FFFFFFF]
    crc_module = Crc32("crc")
    out = run_module(crc_module, samples)
    assert out == samples  # passthrough
    data = b"".join(to_u32(s).to_bytes(4, "little") for s in samples)
    assert crc_module.crc == (zlib.crc32(data) ^ 0xFFFFFFFF)


def crc_bit_loop(crc, words):
    """The bitwise register update ``Crc32`` once ran per word, kept as
    the reference for its one ``zlib.crc32`` call per block."""
    crc = to_u32(crc)
    for word in words:
        word = to_u32(word)
        for _ in range(4):
            crc ^= word & 0xFF
            word >>= 8
            for _ in range(8):
                crc = (crc >> 1) ^ (0xEDB88320 if crc & 1 else 0)
    return crc


@given(
    start=st.integers(0, 2**32 - 1),
    words=st.lists(
        st.one_of(st.sampled_from([0x7FFFFFFF, 0x80000000, 0xFFFFFFFF]),
                  st.integers(-(2**33), 2**33)),
        max_size=24,
    ),
)
def test_crc32_block_equals_bit_loop(start, words):
    module = Crc32("crc")
    module.restore_state([start])
    assert module.process_block(words) == [from_u32(w) for w in words]
    assert module.crc == crc_bit_loop(start, words)


def test_crc32_state_transplant_continues_checksum():
    samples = list(range(10))
    whole = Crc32("whole")
    run_module(whole, samples)
    first = Crc32("a")
    run_module(first, samples[:4])
    second = Crc32("b")
    second.restore_state(first.save_state())
    run_module(second, samples[4:])
    assert second.crc == whole.crc


def test_minmax_tracker():
    tracker = MinMaxTracker("mm")
    run_module(tracker, [5, -3, 10, 2])
    assert tracker.seen_min == -3
    assert tracker.seen_max == 10
    tracker.reset()
    assert tracker.seen_min > tracker.seen_max


def test_merger_interleaves_two_inputs():
    merger = StreamMerger("m")
    samples = [(0, 1), (1, 100), (0, 2), (1, 200)]
    out = run_module(merger, samples, inputs=2)
    assert sorted(out) == [1, 2, 100, 200]
    # fairness: never two consecutive words from one stream while both have data
    assert out[0] in (1, 100) and out[1] in (1, 100)


def test_merger_drains_single_active_input():
    merger = StreamMerger("m")
    out = run_module(merger, [(0, 1), (0, 2), (0, 3)], inputs=2)
    assert out == [1, 2, 3]


def test_splitter_alternates_outputs():
    splitter = StreamSplitter("s")
    out0, out1 = run_module(splitter, [1, 2, 3, 4], outputs=2)
    assert out0 == [1, 3]
    assert out1 == [2, 4]


def test_splitter_phase_is_state():
    splitter = StreamSplitter("s")
    run_module(splitter, [1], outputs=2)
    assert splitter.phase == 1
