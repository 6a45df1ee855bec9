"""Unit tests for the 9-step switching methodology (paper Figure 5)."""

import pytest

from repro.analysis.metrics import interruption_report
from repro.core.switching import ModuleSwitcher
from repro.modules import Iom, MovingAverage
from repro.modules.base import staged
from repro.modules.sources import sine_wave
from repro.verify.diagnostics import VerificationError

from tests.helpers import build_system


def make_scenario(window=4, source_count=100_000, params=None,
                  target="rsb0.prr1"):
    """Filter A in prr0 streaming IOM->A->IOM; filter B registered for
    ``target``."""
    system = build_system(pr_speedup=500.0, params=params)
    iom = Iom("io0", source=sine_wave(count=source_count))
    system.attach_iom("rsb0.iom0", iom)
    filter_a = MovingAverage("filterA", window=window)
    system.place_module_directly(filter_a, "rsb0.prr0")
    ch_in = system.open_stream("rsb0.iom0", "rsb0.prr0")
    ch_out = system.open_stream("rsb0.prr0", "rsb0.iom0")
    system.register_module(
        "filterB", lambda: staged(MovingAverage("filterB", window=window))
    )
    system.repository.preload_to_sdram("filterB", target)
    return system, iom, filter_a, ch_in, ch_out


def run_switch(system, ch_in, ch_out, observer=None, **overrides):
    switcher = ModuleSwitcher(system)
    if observer is not None:
        switcher.on_step.append(observer)
    kwargs = dict(
        old_prr="rsb0.prr0",
        new_prr="rsb0.prr1",
        new_module="filterB",
        upstream_slot="rsb0.iom0",
        downstream_slot="rsb0.iom0",
        input_channel=ch_in,
        output_channel=ch_out,
    )
    kwargs.update(overrides)
    return system.microblaze.run_to_completion(
        switcher.switch(**kwargs), "switch"
    )


def test_switch_completes_all_nine_steps():
    system, iom, _, ch_in, ch_out = make_scenario()
    system.run_for_us(30)
    report = run_switch(system, ch_in, ch_out)
    assert [step for step, _, _ in report.steps] == list(range(1, 10))
    times = [ps for _, ps, _ in report.steps]
    assert times == sorted(times)


def test_switch_loses_no_words():
    system, iom, _, ch_in, ch_out = make_scenario()
    system.run_for_us(30)
    report = run_switch(system, ch_in, ch_out)
    assert report.words_lost == 0
    system.run_for_us(30)
    discards = [
        consumer.words_discarded
        for slot in system.rsbs[0].slots
        for consumer in slot.consumers
    ]
    assert discards == [0, 0, 0]


def test_switch_transfers_state(monkeypatch=None):
    system, iom, filter_a, ch_in, ch_out = make_scenario(window=4)
    system.run_for_us(30)
    report = run_switch(system, ch_in, ch_out)
    new_module = system.prr("rsb0.prr1").module
    assert new_module.name == "filterB"
    # state registers were carried over verbatim (step 6 -> 7)
    assert len(report.state_words) == filter_a.state_word_count
    assert filter_a.save_state() == new_module.save_state() or (
        new_module.samples_in > 0  # B already advanced past the handoff
    )


def test_switch_output_is_seamless():
    """The headline claim: no stream interruption despite reconfiguration."""
    system, iom, _, ch_in, ch_out = make_scenario()
    system.run_for_us(30)
    report = run_switch(system, ch_in, ch_out)
    system.run_for_us(30)
    nominal = 1 / system.system_clock.frequency_hz
    stats = interruption_report(iom.receive_times, nominal)
    # reconfiguration took ~144 us (scaled); the output gap must be tiny
    assert report.reconfig_seconds > 1e-4
    assert stats.max_gap_s < report.reconfig_seconds / 10
    assert stats.max_gap_s < 5e-6


def never_switched(count, window=4):
    """The IOM output of a reference filter that is never switched."""
    from repro.modules.state import from_u32, to_u32

    reference = MovingAverage("ref", window=window)
    return [
        from_u32(to_u32(reference.process(to_u32(sample))))
        for sample in sine_wave(count=count)
    ]


def test_switch_output_values_continuous():
    """Output across the boundary equals a never-switched reference run."""
    count = 3000
    system, iom, _, ch_in, ch_out = make_scenario(source_count=count)
    system.run_for_us(10)
    run_switch(system, ch_in, ch_out)
    system.run_for_us(60)
    switched_output = list(iom.received)
    assert switched_output == never_switched(count)[: len(switched_output)]
    assert len(switched_output) > 2000


def test_switch_via_cf_path():
    system, iom, _, ch_in, ch_out = make_scenario()
    system.run_for_us(10)
    report = run_switch(system, ch_in, ch_out, reconfig_path="cf2icap")
    assert report.reconfig_seconds == pytest.approx(1.043 / 500, rel=0.02)
    assert report.words_lost == 0


def test_switch_requires_resident_module():
    system, _, _, ch_in, ch_out = make_scenario()
    system.prr("rsb0.prr0").unload()
    switcher = ModuleSwitcher(system)
    with pytest.raises(VerificationError, match="VAP304.*no module"):
        system.microblaze.run_to_completion(
            switcher.switch(
                old_prr="rsb0.prr0",
                new_prr="rsb0.prr1",
                new_module="filterB",
                upstream_slot="rsb0.iom0",
                downstream_slot="rsb0.iom0",
                input_channel=ch_in,
                output_channel=ch_out,
            ),
            "switch",
        )


def test_switch_refuses_at_step_4_when_lanes_go_during_reconfiguration():
    """A stream opened during step 3 takes the target's input lane: the
    switch refuses at step 4, before the upstream pause, powers the
    target down and leaves the old module streaming without a gap."""
    count = 3000
    system, iom, filter_a, ch_in, ch_out = make_scenario(source_count=count)
    system.run_for_us(10)
    steps = []

    def take_target_input(step, when, text):
        steps.append(step)
        if step == 3:
            system.open_stream("rsb0.prr1", "rsb0.prr1")

    with pytest.raises(VerificationError, match="VAP303.*new input channel"):
        run_switch(system, ch_in, ch_out, observer=take_target_input)
    assert steps == [1, 2, 3]
    assert not ch_in.released and not ch_out.released
    assert ch_in.producer.fifo_ren  # the upstream was never paused
    assert not system.prr("rsb0.prr1").bufr.enabled  # target powered down
    assert system.rsbs[0].router._claims == []
    assert system.prr("rsb0.prr0").module is filter_a
    system.run_for_us(60)
    output = list(iom.received)
    assert output == never_switched(count)[: len(output)]
    assert len(output) > 2000
    nominal = 1 / system.system_clock.frequency_hz
    assert interruption_report(iom.receive_times, nominal).max_gap_s < 5e-6


def test_switch_claims_its_output_lanes_until_step_9():
    """Streams opened at step 5 that would leave the new output channel
    no lane (kl=1: each takes the one left lane of a box the new output
    crosses) are refused; the switch completes losing no word."""
    from repro.comm.router import RoutingError
    from repro.core.params import RsbParameters, SystemParameters

    params = SystemParameters(rsbs=[RsbParameters(
        name="rsb0", num_prrs=4, num_ioms=1, iom_positions=[0], kr=2, kl=1,
    )])
    count = 3000
    system, iom, _, ch_in, ch_out = make_scenario(
        source_count=count, params=params, target="rsb0.prr3"
    )
    system.run_for_us(10)
    refused = []

    def take_output_lanes(step, when, text):
        if step == 5:
            for src, dst in (("rsb0.prr1", "rsb0.prr0"),
                             ("rsb0.prr2", "rsb0.prr1")):
                with pytest.raises(RoutingError, match="claimed"):
                    system.open_stream(src, dst)
                refused.append((src, dst))

    report = run_switch(
        system, ch_in, ch_out, observer=take_output_lanes,
        new_prr="rsb0.prr3",
    )
    assert len(refused) == 2
    assert [step for step, _, _ in report.steps] == list(range(1, 10))
    assert report.words_lost == 0
    assert system.rsbs[0].router._claims == []  # dropped by step 9
    system.run_for_us(60)
    output = list(iom.received)
    assert output == never_switched(count)[: len(output)]
    assert len(output) > 2000


def test_switch_and_drain_refuse_a_downstream_without_an_iom():
    # step 8 waits for an IOM's end-of-stream report; a PRR never sends
    # one, so both refuse before step 1: no DCR write, no ICAP transfer
    system, _, _, ch_in, ch_out = make_scenario()
    system.run_for_us(5)
    writes, icap_bytes = system.dcr_bus.writes, system.icap.bytes_written
    with pytest.raises(ValueError, match="no attached IOM"):
        run_switch(system, ch_in, ch_out, downstream_slot="rsb0.prr1")
    with pytest.raises(ValueError, match="no attached IOM"):
        run_drain(system, ch_in, ch_out, downstream_slot="rsb0.prr1")
    assert system.dcr_bus.writes == writes
    assert system.icap.bytes_written == icap_bytes
    assert system.prr("rsb0.prr0").module is not None


def test_switch_unknown_reconfig_path():
    """An unknown reconfiguration path is refused before step 1, so the
    switch opens no span and marks no step."""
    system, _, filter_a, ch_in, ch_out = make_scenario()
    system.run_for_us(5)
    steps = []
    with pytest.raises(VerificationError, match="VAP302.*unknown reconfig path"):
        run_switch(system, ch_in, ch_out, reconfig_path="bogus",
                   observer=lambda step, when, text: steps.append(step))
    assert steps == []
    assert system.sim.tracer.open_spans("prr/rsb0.prr0") == ()
    assert system.prr("rsb0.prr0").module is filter_a


def test_old_prr_powered_down_after_switch():
    system, _, _, ch_in, ch_out = make_scenario()
    system.run_for_us(10)
    run_switch(system, ch_in, ch_out)
    old_slot = system.prr("rsb0.prr0")
    assert not old_slot.bufr.enabled  # clock gated (housekeeping)
    assert old_slot.producers[0].fifo.empty  # FIFOs reset


def test_report_describe_readable():
    system, _, _, ch_in, ch_out = make_scenario()
    system.run_for_us(10)
    report = run_switch(system, ch_in, ch_out)
    text = report.describe()
    assert "step 9" in text
    assert "filterB" in text
    assert report.duration_seconds > 0


# ----------------------------------------------------------------------
# drain (eviction variant of the Figure-5 path) and step observers
# ----------------------------------------------------------------------
def run_drain(system, ch_in, ch_out, **overrides):
    switcher = ModuleSwitcher(system)
    kwargs = dict(
        prr="rsb0.prr0",
        upstream_slot="rsb0.iom0",
        downstream_slot="rsb0.iom0",
        input_channel=ch_in,
        output_channel=ch_out,
    )
    kwargs.update(overrides)
    return switcher, system.microblaze.run_to_completion(
        switcher.drain(**kwargs), "drain"
    )


def test_drain_flushes_and_powers_down():
    system, iom, filter_a, ch_in, ch_out = make_scenario()
    system.start()
    system.run_for_us(20)
    words_before = len(iom.received)
    _, report = run_drain(system, ch_in, ch_out)
    assert report.prr == "rsb0.prr0"
    assert report.words_lost == 0
    assert len(iom.received) >= words_before  # buffered words delivered
    assert filter_a.halted
    assert not system.prr("rsb0.prr0").bufr.enabled
    assert report.duration_seconds > 0


def test_drain_captures_state_words():
    system, iom, _, ch_in, ch_out = make_scenario()
    system.start()
    system.run_for_us(20)
    _, report = run_drain(system, ch_in, ch_out)
    # MovingAverage checkpoints its window; count matches the module's
    assert len(report.state_words) == MovingAverage("tmp", window=4).state_word_count


def test_drain_requires_resident_module():
    system, *_ = make_scenario()
    switcher = ModuleSwitcher(system)
    with pytest.raises(ValueError, match="no module to drain"):
        next(switcher.drain(
            "rsb0.prr1",  # empty PRR
            upstream_slot="rsb0.iom0",
            downstream_slot="rsb0.iom0",
            input_channel=None,
            output_channel=None,
        ))


def test_step_observers_fire_for_switch_and_drain():
    system, iom, _, ch_in, ch_out = make_scenario()
    system.start()
    system.run_for_us(20)
    seen = []
    switcher = ModuleSwitcher(system)
    switcher.on_step.append(lambda step, when, text: seen.append(step))
    system.microblaze.run_to_completion(
        switcher.drain(
            "rsb0.prr0",
            upstream_slot="rsb0.iom0",
            downstream_slot="rsb0.iom0",
            input_channel=ch_in,
            output_channel=ch_out,
        ),
        "drain",
    )
    assert seen == [4, 5, 6, 8, 9]
