"""Unit tests for the compiled-schedule fast path.

The contract under test: with the fast path enabled, every observable of
the simulation -- callback order, clock cycle counts, ``now``,
``events_processed`` and the global sequence counter -- is bit-identical
to the event-heap kernel.  Differential twins (one heap, one fast) run
the same scenario and their full logs are compared.
"""

import pytest

from repro.baselines.shared_bus import SharedBus
from repro.comm.fsl import FslLink
from repro.comm.interfaces import ConsumerInterface, ProducerInterface
from repro.modules.adapters import FslToStream, StreamToFsl
from repro.modules.base import ModulePorts
from repro.modules.transforms import PassThrough
from repro.sim import fastpath
from repro.sim.clock import Bufgmux, Clock, ClockedComponent, FixedSource
from repro.sim.fastpath import FastPathEngine
from repro.sim.fifo import SyncFifo
from repro.sim.kernel import PRIORITY_COMMIT, PRIORITY_SAMPLE, Simulator


class Recorder(ClockedComponent):
    """Appends every sample/commit call to a shared log."""

    def __init__(self, log, sim, name):
        self.log = log
        self.sim = sim
        self.name = name

    def sample(self):
        self.log.append((self.sim.now, "s", self.name))

    def commit(self):
        self.log.append((self.sim.now, "c", self.name))


def build_twin(freqs, fastpath):
    """One sim with a recorder-carrying clock per frequency."""
    sim = Simulator(use_fastpath=fastpath)
    log = []
    clocks = []
    for i, freq in enumerate(freqs):
        clk = Clock(sim, freq_hz=freq, name=f"clk{i}")
        clk.attach(Recorder(log, sim, f"clk{i}"))
        clk.start()
        clocks.append(clk)
    return sim, clocks, log


def drawn_seq(sim):
    """How many sequence numbers the sim has handed out so far."""
    return sim.schedule(0, lambda: None).seq


def assert_equivalent(freqs, horizon_ps, mutate=None):
    sim_h, clocks_h, log_h = build_twin(freqs, fastpath=False)
    sim_f, clocks_f, log_f = build_twin(freqs, fastpath=True)
    assert sim_f.fastpath_enabled and not sim_h.fastpath_enabled
    if mutate:
        mutate(sim_h, clocks_h)
        mutate(sim_f, clocks_f)
    sim_h.run_until(horizon_ps)
    sim_f.run_until(horizon_ps)
    assert log_f == log_h
    assert sim_f.now == sim_h.now
    assert sim_f.events_processed == sim_h.events_processed
    assert [c.cycles for c in clocks_f] == [c.cycles for c in clocks_h]
    assert drawn_seq(sim_f) == drawn_seq(sim_h)
    return sim_f.fastpath_stats


def test_single_clock_equivalence():
    assert_equivalent([100e6], 500_000)


def test_harmonic_clocks_equivalence():
    assert_equivalent([100e6, 50e6, 25e6], 500_000)


def test_coprime_periods_fall_back_to_scan_mode():
    # 100 MHz (10_000 ps) and 33 MHz (30_303 ps): the hyperperiod table
    # would blow past MAX_TABLE_EDGES, forcing the per-instant scan mode
    assert_equivalent([100e6, 33e6], 400_000)


def test_normal_event_limits_the_window():
    def mutate(sim, clocks):
        hits = []
        sim.schedule(123_456, lambda: hits.append(sim.now))

    assert_equivalent([100e6, 50e6], 300_000, mutate)


def test_event_scheduled_from_sample_bails_identically():
    class Scheduler(ClockedComponent):
        def __init__(self, sim, log):
            self.sim = sim
            self.log = log

        def sample(self):
            if self.sim.now == 60_000:
                self.sim.schedule(5_000, lambda: self.log.append("fired"))

        def commit(self):
            pass

    def mutate(sim, clocks):
        clocks[0].attach(Scheduler(sim, []))

    assert_equivalent([100e6, 50e6], 300_000, mutate)


def test_midwindow_gating_equivalence():
    def mutate(sim, clocks):
        sim.schedule(95_000, lambda: clocks[1].set_enabled(False))
        sim.schedule(205_000, lambda: clocks[1].set_enabled(True))

    assert_equivalent([100e6, 50e6], 400_000, mutate)


def test_gating_from_commit_callback_equivalence():
    class Gater(ClockedComponent):
        def __init__(self, sim, victim):
            self.sim = sim
            self.victim = victim

        def sample(self):
            pass

        def commit(self):
            if self.sim.now == 100_000:
                self.victim.set_enabled(False)
            elif self.sim.now == 200_000:
                self.victim.set_enabled(True)

    def mutate(sim, clocks):
        clocks[0].attach(Gater(sim, clocks[1]))

    assert_equivalent([100e6, 50e6], 400_000, mutate)


def test_bufgmux_retune_midrun_equivalence():
    def build(fastpath):
        sim = Simulator(use_fastpath=fastpath)
        mux = Bufgmux(FixedSource(100e6), FixedSource(40e6))
        clk = Clock(sim, source=mux, name="lcd")
        fixed = Clock(sim, freq_hz=100e6, name="sys")
        log = []
        clk.attach(Recorder(log, sim, "lcd"))
        fixed.attach(Recorder(log, sim, "sys"))
        clk.start()
        fixed.start()
        sim.schedule(150_000, lambda: mux.select(1))
        sim.schedule(330_000, lambda: mux.select(0))
        return sim, (clk, fixed), log

    sim_h, clocks_h, log_h = build(False)
    sim_f, clocks_f, log_f = build(True)
    sim_h.run_until(500_000)
    sim_f.run_until(500_000)
    assert log_f == log_h
    assert sim_f.events_processed == sim_h.events_processed
    assert [c.cycles for c in clocks_f] == [c.cycles for c in clocks_h]
    assert drawn_seq(sim_f) == drawn_seq(sim_h)


def test_retune_from_commit_callback_equivalence():
    """CLOCK_EPOCH bump from inside a dispatch instant forces a re-read."""

    class Retuner(ClockedComponent):
        def __init__(self, sim, mux):
            self.sim = sim
            self.mux = mux

        def sample(self):
            pass

        def commit(self):
            if self.sim.now == 100_000:
                self.mux.select(1)

    def build(fastpath):
        sim = Simulator(use_fastpath=fastpath)
        mux = Bufgmux(FixedSource(100e6), FixedSource(50e6))
        clk = Clock(sim, source=mux, name="lcd")
        sysclk = Clock(sim, freq_hz=100e6, name="sys")
        log = []
        clk.attach(Recorder(log, sim, "lcd"))
        sysclk.attach(Recorder(log, sim, "sys"))
        sysclk.attach(Retuner(sim, mux))
        clk.start()
        sysclk.start()
        return sim, (clk, sysclk), log

    sim_h, clocks_h, log_h = build(False)
    sim_f, clocks_f, log_f = build(True)
    sim_h.run_until(400_000)
    sim_f.run_until(400_000)
    assert log_f == log_h
    assert sim_f.events_processed == sim_h.events_processed
    assert [c.cycles for c in clocks_f] == [c.cycles for c in clocks_h]


def test_retune_reorders_ties_after_the_first_pass():
    """A slowed clock's pending edge keeps the seq it drew before the
    retune.  At the first shared instant it follows the clock that drew
    before it; from then on the longer period leads.  The compiled slot
    plan must not impose the later order on that first pass."""

    def build(fastpath):
        sim = Simulator(use_fastpath=fastpath)
        mux = Bufgmux(FixedSource(100e6), FixedSource(50e6))
        sysclk = Clock(sim, freq_hz=100e6, name="sys")
        lcd = Clock(sim, source=mux, name="lcd")
        log = []
        sysclk.attach(Recorder(log, sim, "sys"))
        lcd.attach(Recorder(log, sim, "lcd"))
        sysclk.start()  # draws its first seq before the lcd does
        lcd.start()
        sim.schedule(5_000, lambda: mux.select(1))
        return sim, (sysclk, lcd), log

    sim_h, clocks_h, log_h = build(False)
    sim_f, clocks_f, log_f = build(True)
    sim_h.run_until(200_000)
    sim_f.run_until(200_000)
    samples = [(t, name) for t, phase, name in log_h if phase == "s"]
    assert samples[:2] == [(10_000, "sys"), (10_000, "lcd")]
    assert (30_000, "lcd") in samples
    assert samples.index((30_000, "lcd")) < samples.index((30_000, "sys"))
    assert log_f == log_h
    assert sim_f.events_processed == sim_h.events_processed
    assert [c.cycles for c in clocks_f] == [c.cycles for c in clocks_h]
    assert drawn_seq(sim_f) == drawn_seq(sim_h)


def test_phase_probe_suppresses_fastpath():
    calls = []

    class Probe:
        def begin(self, component, phase, now):
            calls.append((phase, now))

        def end(self):
            pass

    sim, clocks, log = build_twin([100e6], fastpath=True)
    sim.phase_probe = Probe()
    sim.run_until(100_000)
    assert calls  # the probe saw phases: the heap path ran them
    assert sim.fastpath_stats["edges"] == 0


def test_fast_forward_stops_before_normal_event():
    sim, clocks, log = build_twin([100e6], fastpath=True)
    fired = []
    sim.schedule(55_000, lambda: fired.append(sim.now))
    assert sim.fast_forward()
    assert not fired  # the normal event is for the caller's step() loop
    assert clocks[0].cycles == 5
    assert sim.now <= 55_000


def test_fast_forward_disabled_returns_false():
    sim, clocks, log = build_twin([100e6], fastpath=False)
    assert sim.fast_forward() is False


def test_stats_and_runtime_toggle():
    sim, clocks, log = build_twin([100e6], fastpath=True)
    sim.run_until(200_000)
    stats = sim.fastpath_stats
    assert stats["windows"] >= 1
    assert stats["edges"] == 20
    assert stats["bails"] == 0
    assert stats["inlined"] == 0
    sim.set_fastpath(False)
    assert not sim.fastpath_enabled
    assert sim.fastpath_stats == {
        "windows": 0, "edges": 0, "bails": 0, "skipped": 0, "inlined": 0
    }
    before = sim.events_processed
    sim.run_until(300_000)
    assert sim.events_processed == before + 20  # heap path still correct
    sim.set_fastpath(True)
    assert sim.fastpath_enabled
    sim.run_until(400_000)
    assert clocks[0].cycles == 40


def test_events_processed_accounting_matches_heap_exactly():
    sim_f, clocks_f, _ = build_twin([100e6, 50e6], fastpath=True)
    sim_h, clocks_h, _ = build_twin([100e6, 50e6], fastpath=False)
    for horizon in range(50_000, 500_001, 50_000):
        sim_f.run_until(horizon)
        sim_h.run_until(horizon)
        assert sim_f.events_processed == sim_h.events_processed


# ----------------------------------------------------------------------
# foreign events run inside a window
# ----------------------------------------------------------------------
class Idle(ClockedComponent):
    """Quiescent: a window may skip its edges."""

    def quiescent(self):
        return True


def note(sim, clocks, tag):
    """A callback that logs ``tag`` at the current time to the twin's log."""
    log = clocks[0].components[0].log
    return lambda: log.append((sim.now, "e", tag))


def test_event_at_an_edge_instant_runs_after_its_phases():
    def mutate(sim, clocks):
        sim.schedule(50_000, note(sim, clocks, "at-edge"))
        sim.schedule(50_000, note(sim, clocks, "at-edge-2"))
        sim.schedule(75_000, note(sim, clocks, "between"))
        sim.schedule(80_000, note(sim, clocks, "commit"), PRIORITY_COMMIT)
        sim.schedule(120_000, note(sim, clocks, "sample"), PRIORITY_SAMPLE)

    stats = assert_equivalent([100e6, 50e6], 300_000, mutate)
    assert stats["inlined"] >= 3


def test_chain_of_delay_zero_events_runs_inline():
    def mutate(sim, clocks):
        def link(left):
            note(sim, clocks, f"link{left}")()
            if left:
                sim.schedule(0, lambda: link(left - 1))
            else:
                sim.schedule(33_000, note(sim, clocks, "after"))

        sim.schedule(45_000, lambda: link(5))

    stats = assert_equivalent([100e6, 50e6], 300_000, mutate)
    assert stats["inlined"] == 7
    assert stats["bails"] == 0


def test_event_gating_an_adopted_clock_ends_the_window():
    def mutate(sim, clocks):
        sim.schedule(35_000, note(sim, clocks, "before"))
        sim.schedule(95_000, lambda: clocks[1].set_enabled(False))
        sim.schedule(205_000, lambda: clocks[1].set_enabled(True))

    stats = assert_equivalent([100e6, 50e6], 400_000, mutate)
    assert stats["inlined"] >= 2
    assert stats["bails"] >= 1


def test_event_enabling_an_unadopted_clock_ends_the_window():
    def mutate(sim, clocks):
        clocks[2].set_enabled(False)
        sim.schedule(35_000, note(sim, clocks, "before"))
        sim.schedule(75_000, lambda: clocks[2].set_enabled(True))

    stats = assert_equivalent([100e6, 50e6, 25e6], 400_000, mutate)
    assert stats["inlined"] >= 2
    assert stats["bails"] >= 1


def test_bufgmux_select_from_an_event_ends_the_window():
    def build(fastpath):
        sim = Simulator(use_fastpath=fastpath)
        mux = Bufgmux(FixedSource(100e6), FixedSource(40e6))
        clk = Clock(sim, source=mux, name="lcd")
        fixed = Clock(sim, freq_hz=100e6, name="sys")
        log = []
        clk.attach(Recorder(log, sim, "lcd"))
        fixed.attach(Recorder(log, sim, "sys"))
        clk.start()
        fixed.start()
        sim.schedule(40_000, lambda: log.append((sim.now, "e", "before")))
        sim.schedule(150_000, lambda: mux.select(1))
        return sim, (clk, fixed), log

    sim_h, clocks_h, log_h = build(False)
    sim_f, clocks_f, log_f = build(True)
    sim_h.run_until(500_000)
    sim_f.run_until(500_000)
    assert log_f == log_h
    assert sim_f.now == sim_h.now
    assert sim_f.events_processed == sim_h.events_processed
    assert [c.cycles for c in clocks_f] == [c.cycles for c in clocks_h]
    assert drawn_seq(sim_f) == drawn_seq(sim_h)
    assert sim_f.fastpath_stats["inlined"] >= 2
    assert sim_f.fastpath_stats["bails"] >= 1


def test_phase_probe_installed_from_an_event_ends_the_window():
    class Probe:
        def __init__(self, log):
            self.log = log

        def begin(self, component, phase, now):
            self.log.append((now, phase, "probe"))

        def end(self):
            pass

    def mutate(sim, clocks):
        log = clocks[0].components[0].log
        sim.schedule(35_000, note(sim, clocks, "before"))

        def install():
            sim.phase_probe = Probe(log)

        sim.schedule(85_000, install)

    stats = assert_equivalent([100e6, 50e6], 300_000, mutate)
    assert stats["inlined"] >= 2
    assert stats["bails"] >= 1


def test_cancelled_events_inside_the_window_are_dropped():
    def mutate(sim, clocks):
        # cancelled while a live event ahead of it bounds the window, so
        # it falls due between two instants
        doomed = sim.schedule(75_000, note(sim, clocks, "doomed"))
        sim.schedule(65_000, note(sim, clocks, "never")).cancel()
        sim.schedule(45_000, doomed.cancel)
        sim.schedule(70_000, note(sim, clocks, "ahead"))
        sim.schedule(95_000, note(sim, clocks, "after"))

    stats = assert_equivalent([100e6, 50e6], 300_000, mutate)
    assert stats["inlined"] == 3
    assert stats["windows"] == 1


def test_event_raising_inside_the_window_leaves_the_heap_kernels_state():
    def boom():
        raise RuntimeError("boom")

    def run(fastpath):
        sim, clocks, log = build_twin([100e6, 50e6], fastpath)
        sim.schedule(35_000, lambda: log.append((sim.now, "e", "before")))
        sim.schedule(75_000, boom)
        with pytest.raises(RuntimeError):
            sim.run_until(300_000)
        raised = (sim.now, sim.events_processed)
        sim.run_until(300_000)
        state = (
            log, raised, sim.now, sim.events_processed, drawn_seq(sim),
            [c.cycles for c in clocks],
        )
        return state, sim.fastpath_stats

    heap, _ = run(fastpath=False)
    fast, stats = run(fastpath=True)
    assert fast == heap
    assert heap[1] == (75_000, 21)
    assert stats["inlined"] == 1


def run_phased_idle(fastpath):
    """Two idle 100 MHz clocks 3 ns apart and a timer every 9.7 cycles,
    so events land mid-pass between windows of skipped edges."""
    sim = Simulator(use_fastpath=fastpath)
    clocks = [Clock(sim, freq_hz=100e6, name=f"clk{i}") for i in range(2)]
    for clock in clocks:
        clock.attach(Idle())
    clocks[0].start()
    sim.schedule(3_000, clocks[1].start)
    log = []

    def tick(left):
        log.append(sim.now)
        if left:
            sim.schedule(97_000, lambda: tick(left - 1))

    sim.schedule(11_500, lambda: tick(40))
    sim.run_until(5_000_000)
    state = (
        log, sim.now, sim.events_processed, drawn_seq(sim),
        [c.cycles for c in clocks],
    )
    return state, sim.fastpath_stats


def test_same_period_clocks_at_two_phases_with_events_mid_pass():
    heap, _ = run_phased_idle(fastpath=False)
    fast, stats = run_phased_idle(fastpath=True)
    assert fast == heap
    assert len(heap[0]) == 41
    assert stats["inlined"] == 41
    assert 2 * stats["skipped"] > stats["edges"]


def run_until_flag(fastpath):
    """A caller that steps until an event sets a flag, fast-forwarding
    with ``stop`` in between, as ``Microblaze.run_to_completion`` does."""
    sim, clocks, log = build_twin([100e6, 50e6], fastpath)
    flag = []
    for k in range(1, 6):
        sim.schedule(k * 13_000, lambda: log.append((sim.now, "e", "tick")))
    sim.schedule(71_000, lambda: flag.append(sim.now))
    sim.schedule(90_000, lambda: log.append((sim.now, "e", "late")))
    while not flag:
        sim.fast_forward(lambda: bool(flag))
        if not flag:
            assert sim.step()
    state = (
        log, flag, sim.now, sim.events_processed, drawn_seq(sim),
        [c.cycles for c in clocks],
    )
    return state, sim.fastpath_stats


def test_stop_ends_the_window_after_its_event():
    heap, _ = run_until_flag(fastpath=False)
    fast, stats = run_until_flag(fastpath=True)
    assert fast == heap
    assert heap[2] == 71_000
    assert stats["inlined"] == 6
    assert stats["windows"] == 1


# ----------------------------------------------------------------------
# quiescence skip-ahead: which components may be skipped
# ----------------------------------------------------------------------
class OwnCommit(PassThrough):
    """A HardwareModule subclass that changes the edge, not quiescent()."""

    def commit(self):
        super().commit()


def bound(module):
    """``module`` bound to empty interfaces and FSLs: idle, started."""
    module.bind(
        ModulePorts(
            [ConsumerInterface("c", depth=8)],
            [ProducerInterface("p", depth=8)],
            FslLink("t", depth=4),
            FslLink("r", depth=4),
        )
    )
    return module


def test_default_component_is_never_quiescent():
    assert ClockedComponent().quiescent() is False
    assert Recorder([], None, "r").quiescent() is False


@pytest.mark.parametrize(
    "component",
    [
        bound(StreamToFsl("s2f")),
        bound(FslToStream("f2s")),
        bound(OwnCommit("own")),
        SharedBus(),
    ],
    ids=["StreamToFsl", "FslToStream", "HardwareModule-subclass", "SharedBus"],
)
def test_commit_override_without_quiescent_is_never_skipped(component):
    assert component.quiescent() is False


def test_subclass_defining_quiescent_keeps_it():
    class Idle(OwnCommit):
        def quiescent(self):
            return True

    assert Idle("idle").quiescent() is True


def test_default_component_is_never_replayed():
    assert ClockedComponent().steady_key() is None
    assert Recorder([], None, "r").steady_key() is None


@pytest.mark.parametrize(
    "component",
    [
        bound(StreamToFsl("s2f")),
        bound(FslToStream("f2s")),
        bound(OwnCommit("own")),
        SharedBus(),
    ],
    ids=["StreamToFsl", "FslToStream", "HardwareModule-subclass", "SharedBus"],
)
def test_commit_override_without_steady_key_is_never_replayed(component):
    assert component.steady_key() is None


def test_subclass_defining_steady_key_keeps_it():
    class Keyed(OwnCommit):
        def steady_key(self):
            return 0

    assert Keyed("keyed").steady_key() == 0
    assert Keyed("keyed").quiescent() is False


def run_idle_module(module_factory, fastpath):
    sim = Simulator(use_fastpath=fastpath)
    clk = Clock(sim, freq_hz=100e6, name="lcd")
    module = bound(module_factory())
    clk.attach(module)
    clk.start()
    sim.schedule(3_000_000, lambda: None)
    sim.run_until(5_000_000)
    counters = (module.lcd_cycles, module.stall_cycles, clk.cycles)
    return counters, sim.events_processed, drawn_seq(sim), sim


def test_idle_module_is_skipped_bit_identically():
    heap = run_idle_module(lambda: PassThrough("pt"), fastpath=False)
    fast = run_idle_module(lambda: PassThrough("pt"), fastpath=True)
    assert fast[:3] == heap[:3]
    assert heap[0][0] == 500
    assert fast[3].fastpath_stats["skipped"] > 400


def test_never_quiescent_module_is_dispatched_every_edge():
    heap = run_idle_module(lambda: StreamToFsl("s2f"), fastpath=False)
    fast = run_idle_module(lambda: StreamToFsl("s2f"), fastpath=True)
    assert fast[:3] == heap[:3]
    assert fast[3].fastpath_stats["skipped"] == 0


class Counting(ClockedComponent):
    """Never repeats: its count is its key."""

    def __init__(self):
        self.count = 0

    def commit(self):
        self.count += 1

    def steady_key(self):
        return self.count


def test_never_repeating_window_observes_a_bounded_number_of_passes(
    monkeypatch,
):
    observed = []
    observe = FastPathEngine._observe

    def counting(self, *args):
        observed.append(args[1])
        return observe(self, *args)

    monkeypatch.setattr(FastPathEngine, "_observe", counting)
    sim = Simulator(use_fastpath=True)
    clk = Clock(sim, freq_hz=100e6, name="clk")
    component = Counting()
    clk.attach(component)
    clk.start()
    cycles = 100_000
    sim.run_until(cycles * clk.period_ps)
    assert component.count == cycles
    assert sim.fastpath_stats["skipped"] == 0
    # observations back off by doubling, each at most OBSERVE_PASSES long
    checks = cycles // fastpath.SKIP_CHECK_PASSES
    assert 0 < len(observed) <= fastpath.OBSERVE_PASSES * checks.bit_length()


@pytest.mark.parametrize(
    "metrics, drift, low, high, top, periods",
    [
        (False, 1, 10, 12, 12, 47),  # up to the feedback-full threshold
        (False, -1, 10, 12, 12, 9),  # down to one word left
        (False, 1, 10, 12, 30, 18),  # up to the maximum so far
        (False, 2, 58, 59, 59, 0),  # already at feedback-full
        (True, 1, 10, 12, 12, 4),  # up to the 16-word bucket bound
        (True, -1, 10, 12, 12, 1),  # down to the 8-word bucket bound
        (True, 1, 7, 10, 10, 0),  # the excursion spans a bucket bound
    ],
)
def test_drift_bound_stops_short_of_every_threshold(
    metrics, drift, low, high, top, periods
):
    from repro.obs.metrics import MetricsRegistry

    fifo = SyncFifo(64, almost_full_slack=4)
    if metrics:
        fifo.bind_metrics(MetricsRegistry())
    fifo.max_occupancy = top
    topped = top == high
    assert fastpath._drift_bound(fifo, drift, low, high, topped) == periods
