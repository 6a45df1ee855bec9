"""Unit tests for the hardware-module wrapper FSM."""

import pytest

from repro.comm.fsl import FslLink
from repro.comm.interfaces import ConsumerInterface, ProducerInterface
from repro.modules.base import (
    CMD_FLUSH,
    CMD_START,
    EOS_WORD,
    HardwareModule,
    ModuleError,
    ModulePorts,
    staged,
)
from repro.modules.state import to_u32


class Doubler(HardwareModule):
    state_register_names = ("total",)

    def __init__(self, name="doubler", **kw):
        super().__init__(name)
        for key, value in kw.items():
            setattr(self, key, value)
        self.total = 0

    def process(self, sample):
        self.total += 1
        return sample * 2

    def on_reset(self):
        self.total = 0


def harness(module, depth=16, out_depth=None):
    consumer = ConsumerInterface("c", depth=depth)
    producer = ProducerInterface("p", depth=out_depth or depth)
    consumer.fifo_wen = True
    fsl_in = FslLink("t")
    fsl_out = FslLink("r")
    module.bind(ModulePorts([consumer], [producer], fsl_in, fsl_out))
    return consumer, producer, fsl_in, fsl_out


def feed(consumer, values):
    for value in values:
        consumer.receive(True, to_u32(value))


def collect(producer):
    words = []
    producer.fifo_ren = True
    while not producer.fifo.empty:
        words.append(producer.fifo.pop())
    return words


def tick(module, n=1):
    for _ in range(n):
        module.commit()


def test_process_not_implemented():
    module = HardwareModule("abstract")
    harness(module)
    module.ports.consumers[0].receive(True, 1)
    with pytest.raises(NotImplementedError):
        tick(module)


def test_basic_processing():
    module = Doubler()
    consumer, producer, _, _ = harness(module)
    feed(consumer, [1, 2, 3])
    tick(module, 5)
    assert collect(producer) == [2, 4, 6]
    assert module.samples_in == 3
    assert module.samples_out == 3


def test_one_cycle_module_sustains_one_word_per_cycle():
    module = Doubler()
    consumer, producer, _, _ = harness(module, depth=64)
    feed(consumer, range(10))
    tick(module, 10)
    assert module.samples_out == 10


def test_multi_cycle_latency():
    module = Doubler(cycles_per_sample=3)
    consumer, producer, _, _ = harness(module)
    feed(consumer, [5])
    tick(module, 2)
    assert module.samples_out == 0
    tick(module, 1)
    assert collect(producer) == [10]


def test_blocking_read_stalls_without_input():
    module = Doubler()
    harness(module)
    tick(module, 4)
    assert module.samples_in == 0
    assert module.stall_cycles == 4


def test_blocking_write_stalls_on_full_output():
    module = Doubler()
    consumer, producer, _, _ = harness(module, depth=16, out_depth=2)
    feed(consumer, range(6))
    tick(module, 10)  # producer FIFO (depth 2) fills; module must hold words
    produced_before = module.samples_out
    assert produced_before <= 3
    collect(producer)  # drain
    tick(module, 10)
    assert module.samples_out > produced_before
    assert consumer.words_discarded == 0


def test_reset_restores_power_on_state():
    module = Doubler()
    consumer, _, _, _ = harness(module)
    feed(consumer, [1])
    tick(module, 2)
    module.total = 99
    module.reset()
    assert module.total == 0
    assert not module.flushing
    assert not module.halted


def test_in_reset_freezes_fsm():
    module = Doubler()
    consumer, _, _, _ = harness(module)
    module.in_reset = True
    feed(consumer, [1])
    tick(module, 3)
    assert module.samples_in == 0


def test_state_save_restore_roundtrip():
    module = Doubler()
    module.total = -5
    words = module.save_state()
    fresh = Doubler()
    fresh.restore_state(words)
    assert fresh.total == -5


def test_restore_wrong_length_raises():
    with pytest.raises(ModuleError, match="expected"):
        Doubler().restore_state([1, 2])


def test_flush_emits_eos_then_state_then_halts():
    module = Doubler()
    consumer, producer, fsl_in, fsl_out = harness(module)
    feed(consumer, [1, 2])
    fsl_in.master_write(CMD_FLUSH, control=True)
    tick(module, 10)
    words = collect(producer)
    assert words == [2, 4, EOS_WORD]
    assert module.halted
    assert module.flush_complete
    # exactly one state word with the control bit set
    assert fsl_out.slave_read() == (to_u32(2), True)
    assert not fsl_out.can_read


def test_flush_drains_before_eos():
    """Words already buffered are fully processed before EOS (step 5)."""
    module = Doubler()
    consumer, producer, fsl_in, _ = harness(module, depth=32)
    feed(consumer, range(8))
    fsl_in.master_write(CMD_FLUSH, control=True)
    tick(module, 20)
    words = collect(producer)
    assert words[:-1] == [2 * v for v in range(8)]
    assert words[-1] == EOS_WORD


def test_staged_module_waits_for_start():
    module = staged(Doubler())
    consumer, producer, fsl_in, _ = harness(module)
    feed(consumer, [1])
    tick(module, 3)
    assert module.samples_in == 0  # buffered, not processed
    fsl_in.master_write(CMD_START, control=True)
    tick(module, 3)
    assert module.samples_in == 1


def test_staged_module_accepts_state_before_start():
    module = staged(Doubler())
    _, _, fsl_in, _ = harness(module)
    fsl_in.master_write(to_u32(-7), control=False)  # state word (step 7)
    fsl_in.master_write(CMD_START, control=True)
    tick(module, 2)
    assert module.total == -7
    assert module.started


def test_stateless_staged_module_start():
    class Stateless(HardwareModule):
        def process(self, sample):
            return sample

    module = staged(Stateless("s"))
    _, _, fsl_in, _ = harness(module)
    fsl_in.master_write(CMD_START, control=True)
    tick(module, 1)
    assert module.started


def test_state_words_block_until_fsl_has_space():
    """A monitoring-flooded r-FSL must not lose state words (steps 6-7):
    the module retries and halts only after the last word is out."""
    module = Doubler()
    consumer, producer, fsl_in, fsl_out = harness(module)
    # flood the r-FSL completely
    while fsl_out.master_write(0xAAAA):
        pass
    feed(consumer, [1])
    fsl_in.master_write(CMD_FLUSH, control=True)
    tick(module, 10)
    assert not module.halted  # state word still pending
    # the MicroBlaze drains one monitoring word -> one state word lands
    fsl_out.slave_read()
    tick(module, 3)
    assert module.halted
    words = []
    while fsl_out.can_read:
        words.append(fsl_out.slave_read())
    assert words[-1] == (to_u32(1), True)  # the state word, control-marked


def test_monitoring_words_emitted_periodically():
    module = Doubler(monitor_interval=2)
    consumer, producer, _, fsl_out = harness(module, depth=64)
    feed(consumer, range(6))
    tick(module, 8)
    monitors = []
    while fsl_out.can_read:
        monitors.append(fsl_out.slave_read())
    assert len(monitors) == 3  # every 2nd of 6 samples
    assert all(not control for _, control in monitors)


def test_unknown_command_ignored():
    module = Doubler()
    consumer, _, fsl_in, _ = harness(module)
    fsl_in.master_write(0x7F, control=True)
    feed(consumer, [1])
    tick(module, 2)
    assert module.samples_in == 1


def test_missing_port_raises_module_error():
    module = Doubler()
    module.bind(ModulePorts([], [], None, None))

    class Fetch1(Doubler):
        def select_input(self):
            return 1

    bad = Fetch1()
    consumer, _, _, _ = harness(bad)
    with pytest.raises(ModuleError, match="no consumer port 1"):
        bad._consumer(1)


def test_eos_waits_for_output_space():
    module = Doubler()
    consumer, producer, fsl_in, _ = harness(module, depth=1)
    feed(consumer, [1])
    fsl_in.master_write(CMD_FLUSH, control=True)
    tick(module, 5)
    assert not module.halted  # EOS cannot be written yet (FIFO holds 2)
    assert producer.fifo.pop() == 2
    tick(module, 3)
    assert producer.fifo.pop() == EOS_WORD
    assert module.halted


# ----------------------------------------------------------------------
# quiescence (fast-path skip-ahead contract)
# ----------------------------------------------------------------------
def test_mid_sample_and_pending_work_are_not_quiescent():
    module = Doubler(cycles_per_sample=3)
    consumer, producer, fsl_in, _ = harness(module, out_depth=1)
    assert module.quiescent()
    feed(consumer, [5, 6])
    assert not module.quiescent()  # readable input
    tick(module)
    consumer.module_read()
    assert not module.quiescent()  # busy mid-sample
    tick(module, 2)
    assert producer.fifo.full
    feed(consumer, [7])
    tick(module, 3)
    assert module._pending_out and not module.quiescent()  # blocked emit
    collect(producer)
    tick(module)
    assert module.quiescent()
    fsl_in.master_write(CMD_FLUSH, control=True)
    assert not module.quiescent()  # command waiting
    tick(module)
    assert not module.quiescent()  # flushing


def test_idle_advance_matches_idle_commits():
    counters = []
    for started in (True, False):
        stepped = Doubler() if started else staged(Doubler())
        advanced = Doubler() if started else staged(Doubler())
        harness(stepped)
        harness(advanced)
        assert stepped.quiescent() and advanced.quiescent()
        tick(stepped, 6)
        advanced.idle_advance(6)
        counters.append(
            [(m.lcd_cycles, m.stall_cycles) for m in (stepped, advanced)]
        )
    assert counters == [[(6, 6), (6, 6)], [(6, 0), (6, 0)]]


def test_module_in_reset_is_quiescent_without_counting():
    module = Doubler()
    harness(module)
    module.in_reset = True
    assert module.quiescent()
    module.idle_advance(4)
    assert module.lcd_cycles == 0
