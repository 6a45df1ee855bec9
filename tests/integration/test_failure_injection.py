"""Failure-injection tests: protocol misuse and adverse timing.

Exercises the defensive edges of the system: reconfiguring live PRRs,
contending for the single ICAP without the scheduler, under-reading state
words, driving channels before enabling consumers, and monitoring-word
overflow.  Each failure must either be contained with a defined
behaviour or raise a precise error -- never corrupt unrelated state.
"""

import pytest

from repro.core.switching import ModuleSwitcher
from repro.modules import Iom, MovingAverage, PassThrough
from repro.modules.base import CMD_START, staged
from repro.modules.sources import ramp, sine_wave
from repro.pr.reconfig import ReconfigError

from tests.helpers import build_system


def test_reconfiguring_a_streaming_prr_buffers_safely():
    """PR on a PRR whose input channel stays live: words accumulate in the
    (static-region) consumer FIFO during the write and are processed by
    the new module afterwards -- nothing is lost, nothing crashes."""
    system = build_system()
    iom = Iom("io", source=ramp(count=400))
    system.attach_iom("rsb0.iom0", iom)
    system.place_module_directly(PassThrough("old"), "rsb0.prr0")
    system.open_stream("rsb0.iom0", "rsb0.prr0")
    system.open_stream("rsb0.prr0", "rsb0.iom0")
    system.register_module("new", lambda: PassThrough("new"))
    system.repository.preload_to_sdram("new", "rsb0.prr0")
    system.run_for_cycles(100)
    received_before = len(iom.received)
    system.engine.array2icap("new", "rsb0.prr0")
    system.run_for_ms(0.2)  # reconfig (scaled) completes mid-stream
    system.run_for_cycles(1000)
    slot = system.prr("rsb0.prr0")
    assert slot.module.name == "new"
    assert slot.consumers[0].words_discarded == 0
    # the words emitted during reconfiguration were buffered and processed
    assert len(iom.received) == 400 - (400 - len(iom.received))
    assert len(iom.received) > received_before
    total_through = received_before + slot.module.samples_out
    assert total_through <= 400


def test_unscheduled_concurrent_reconfig_raises_cleanly():
    system = build_system()
    system.register_module("m", lambda: PassThrough("m"))
    for prr in ("rsb0.prr0", "rsb0.prr1"):
        system.repository.preload_to_sdram("m", prr)
    system.engine.array2icap("m", "rsb0.prr0")
    with pytest.raises(ReconfigError, match="busy"):
        system.engine.array2icap("m", "rsb0.prr1")
    # the rejected PRR was never isolated
    assert system.prr("rsb0.prr1").slice_macros[0].enabled
    system.sim.run()
    assert system.prr("rsb0.prr0").module is not None


def test_incomplete_state_restore_is_contained():
    """Sending fewer state words than the module expects, then starting:
    the module starts with its power-on state (partial words pending);
    defined, observable, and non-corrupting."""
    system = build_system()
    module = staged(MovingAverage("m", window=2))
    slot = system.place_module_directly(module, "rsb0.prr0")
    slot.fsl_to_module.master_write(1234)  # 1 of 4 expected words
    slot.fsl_to_module.master_write(CMD_START, control=True)
    system.run_for_cycles(20)
    assert module.started
    assert module.w0 == 0  # restore never applied
    assert len(module._restore_buffer) == 1


def test_gated_consumer_counts_lost_words():
    """Driving a channel whose consumer was never enabled: words are
    dropped at the gate and the counter exposes the software bug."""
    system = build_system()
    iom = Iom("io", source=ramp(count=50))
    system.attach_iom("rsb0.iom0", iom)
    system.place_module_directly(PassThrough("m"), "rsb0.prr0")
    channel = system.rsbs[0].router.establish(
        0, 1,
        system.iom_slot("rsb0.iom0").producers[0],
        system.prr("rsb0.prr0").consumers[0],
    )
    system.iom_slot("rsb0.iom0").producers[0].fifo_ren = True
    # FIFO_wen deliberately left low
    system.run_for_cycles(100)
    consumer = system.prr("rsb0.prr0").consumers[0]
    assert consumer.words_received == 0
    assert consumer.words_gated == 50


def test_monitoring_overflow_is_best_effort():
    """With nobody draining the r-FSL, monitoring words saturate the link
    and are dropped silently; the data path is unaffected."""
    system = build_system()
    iom = Iom("io", source=ramp(count=3000))
    system.attach_iom("rsb0.iom0", iom)
    module = MovingAverage("m", window=2, monitor_interval=1)
    system.place_module_directly(module, "rsb0.prr0")
    system.open_stream("rsb0.iom0", "rsb0.prr0")
    system.open_stream("rsb0.prr0", "rsb0.iom0")
    system.run_for_cycles(6000)
    slot = system.prr("rsb0.prr0")
    assert len(slot.fsl_to_processor.fifo) == 512  # saturated
    assert len(iom.received) == 3000  # stream unharmed


def test_switch_with_wrong_channel_handles_are_rejected():
    """Passing a released channel into the switcher is refused before
    step 1 (VAP303): nothing is written and the output stays routed."""
    from repro.verify.diagnostics import VerificationError

    system = build_system(pr_speedup=1000.0)
    iom = Iom("io", source=sine_wave(count=100_000))
    system.attach_iom("rsb0.iom0", iom)
    system.place_module_directly(MovingAverage("a", window=2), "rsb0.prr0")
    ch_in = system.open_stream("rsb0.iom0", "rsb0.prr0")
    ch_out = system.open_stream("rsb0.prr0", "rsb0.iom0")
    system.register_module(
        "b", lambda: staged(MovingAverage("b", window=2))
    )
    system.repository.preload_to_sdram("b", "rsb0.prr1")
    system.close_stream(ch_in)  # sabotage: handle already released
    system.run_for_us(5)
    writes, icap_bytes = system.dcr_bus.writes, system.icap.bytes_written
    with pytest.raises(VerificationError, match="VAP303.*already released"):
        system.microblaze.run_to_completion(
            ModuleSwitcher(system).switch(
                old_prr="rsb0.prr0",
                new_prr="rsb0.prr1",
                new_module="b",
                upstream_slot="rsb0.iom0",
                downstream_slot="rsb0.iom0",
                input_channel=ch_in,
                output_channel=ch_out,
            ),
            "bad-switch",
        )
    assert system.dcr_bus.writes == writes
    assert system.icap.bytes_written == icap_bytes
    assert not ch_out.released
    assert ch_out.channel_id in system.rsbs[0].fabric.channels


def test_module_exception_is_attributed():
    """A module whose process() raises produces a traceback at the clock
    edge naming the module -- the simulation fails fast, not silently."""

    class Broken(PassThrough):
        def process(self, sample):
            raise RuntimeError("stuck-at fault in multiplier")

    system = build_system()
    iom = Iom("io", source=ramp(count=10))
    system.attach_iom("rsb0.iom0", iom)
    system.place_module_directly(Broken("broken"), "rsb0.prr0")
    system.open_stream("rsb0.iom0", "rsb0.prr0")
    with pytest.raises(RuntimeError, match="stuck-at fault"):
        system.run_for_cycles(50)
