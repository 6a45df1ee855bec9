"""Property tests: the compiled-schedule fast path is observationally
identical to the event-heap kernel.

Twin simulations (fast path on / off) run randomly generated clock sets
with random mid-run retunes, gating toggles and interloping
PRIORITY_NORMAL events; the complete callback streams -- every sample and
commit with its timestamp, plus final time, cycle counts,
``events_processed`` and the sequence counter -- must match exactly.
Coprime period sets overflow the hyperperiod table and exercise the
per-instant scan mode; harmonic sets exercise the table mode.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.clock import Bufgmux, Clock, ClockedComponent, FixedSource
from repro.sim.kernel import Simulator

#: Pool of clock periods in ps.  Mixes harmonic values (table mode) with
#: primes (scan-mode fallback via huge hyperperiods).
PERIOD_POOL = [
    10_000, 20_000, 40_000, 7_000, 13_000, 9_973, 12_500, 30_303, 5_000,
]

PS = 1_000_000_000_000


class Recorder(ClockedComponent):
    def __init__(self, log, sim, name):
        self.log = log
        self.sim = sim
        self.name = name

    def sample(self):
        self.log.append((self.sim.now, "s", self.name))

    def commit(self):
        self.log.append((self.sim.now, "c", self.name))


def build(periods, retunes, gates, noise, fastpath):
    """One sim wired with the generated clock set and scheduled actions.

    ``retunes``: (time, sel) pairs applied to a BUFGMUX-fed extra clock.
    ``gates``: (time, clock_index, enabled) toggles.
    ``noise``: times at which a do-nothing PRIORITY_NORMAL event fires.
    """
    sim = Simulator(use_fastpath=fastpath)
    log = []
    clocks = []
    for i, period in enumerate(periods):
        clk = Clock(sim, freq_hz=PS / period, name=f"clk{i}")
        clk.attach(Recorder(log, sim, f"clk{i}"))
        clk.start()
        clocks.append(clk)
    mux = Bufgmux(FixedSource(PS / periods[0]), FixedSource(PS / 17_000))
    lcd = Clock(sim, source=mux, name="lcd")
    lcd.attach(Recorder(log, sim, "lcd"))
    lcd.start()
    clocks.append(lcd)
    for time, sel in retunes:
        sim.schedule_at(time, lambda sel=sel: mux.select(sel))
    for time, index, enabled in gates:
        clk = clocks[index % len(clocks)]
        sim.schedule_at(
            time, lambda clk=clk, e=enabled: clk.set_enabled(e)
        )
    for time in noise:
        sim.schedule_at(time, lambda: log.append((sim.now, "n", "noise")))
    return sim, clocks, log


@given(
    periods=st.lists(st.sampled_from(PERIOD_POOL), min_size=1, max_size=3),
    retunes=st.lists(
        st.tuples(st.integers(1, 400_000), st.integers(0, 1)), max_size=3
    ),
    gates=st.lists(
        st.tuples(
            st.integers(1, 400_000), st.integers(0, 3), st.booleans()
        ),
        max_size=4,
    ),
    noise=st.lists(st.integers(1, 400_000), max_size=4),
    horizon=st.integers(50_000, 500_000),
)
@settings(max_examples=40, deadline=None)
def test_fastpath_heap_equivalence(periods, retunes, gates, noise, horizon):
    sim_h, clocks_h, log_h = build(periods, retunes, gates, noise, False)
    sim_f, clocks_f, log_f = build(periods, retunes, gates, noise, True)
    sim_h.run_until(horizon)
    sim_f.run_until(horizon)
    assert log_f == log_h
    assert sim_f.now == sim_h.now
    assert sim_f.events_processed == sim_h.events_processed
    assert [c.cycles for c in clocks_f] == [c.cycles for c in clocks_h]
    # the sequence counter must agree too: scheduling parity means a
    # heap-mode continuation of either sim stays identical
    assert (
        sim_f.schedule(0, lambda: None).seq
        == sim_h.schedule(0, lambda: None).seq
    )


@given(
    periods=st.lists(st.sampled_from(PERIOD_POOL), min_size=1, max_size=3),
    horizon=st.integers(50_000, 400_000),
    resume=st.integers(50_000, 400_000),
)
@settings(max_examples=20, deadline=None)
def test_fastpath_resumes_identically_after_window(periods, horizon, resume):
    """Two run_until calls (window split) never change the stream."""
    sim_h, clocks_h, log_h = build(periods, [], [], [], False)
    sim_f, clocks_f, log_f = build(periods, [], [], [], True)
    sim_h.run_until(horizon)
    sim_h.run_until(horizon + resume)
    sim_f.run_until(horizon)
    sim_f.run_until(horizon + resume)
    assert log_f == log_h
    assert sim_f.events_processed == sim_h.events_processed
    assert [c.cycles for c in clocks_f] == [c.cycles for c in clocks_h]


# ----------------------------------------------------------------------
# quiescence skip-ahead
# ----------------------------------------------------------------------
#: Harmonic period pool (one hyperperiod table, no scan fallback).
HARMONIC_POOL = [5_000, 10_000, 20_000, 40_000]


class Worker(ClockedComponent):
    """Idle until its inbox holds a burst; then busy for that many cycles.

    Every third busy cycle passes a one-cycle burst to the next worker
    (possibly on another clock), so activity ripples across domains.
    A busy cycle writes the log, which no replay stage carries, so the
    busy count is part of the steady key: idle cycles are the only thing
    steady-state replay may advance arithmetically.
    """

    def __init__(self, log, sim, name, inbox, outbox):
        self.log = log
        self.sim = sim
        self.name = name
        self.inbox = inbox
        self.outbox = outbox
        self.burst = 0
        self.busy_cycles = 0
        self.idle_cycles = 0

    def commit(self):
        if self.burst:
            self.burst -= 1
            self.busy_cycles += 1
            self.log.append((self.sim.now, self.name, self.burst))
            if self.outbox is not None and self.burst % 3 == 0:
                self.outbox.append(1)
        elif self.inbox:
            self.burst = self.inbox.pop(0)
        else:
            self.idle_cycles += 1

    def steady_key(self):
        return (self.burst, tuple(self.inbox), self.busy_cycles)

    def steady_counters(self):
        return ((self, ("idle_cycles",)),)


def build_workers(clock_specs, kicks, retunes, gates, noise, fastpath):
    """Twin sim for the skip-ahead property.

    ``clock_specs``: (period, start_offset, workers) per clock; a clock
    with 0 workers ticks with no components.  ``kicks``: (time, worker,
    burst) NORMAL events feeding a worker's inbox.  The last clock is fed
    by a BUFGMUX that ``retunes`` reselect.
    """
    sim = Simulator(use_fastpath=fastpath)
    log = []
    clocks = []
    workers = []
    inboxes = []
    mux = Bufgmux(
        FixedSource(PS / clock_specs[-1][0]), FixedSource(PS / 20_000)
    )
    for i, (period, offset, count) in enumerate(clock_specs):
        if i == len(clock_specs) - 1:
            clk = Clock(sim, source=mux, name=f"clk{i}")
        else:
            clk = Clock(sim, freq_hz=PS / period, name=f"clk{i}")
        for j in range(count):
            inbox = []
            inboxes.append(inbox)
            worker = Worker(log, sim, f"w{i}.{j}", inbox, None)
            clk.attach(worker)
            workers.append(worker)
        sim.schedule_at(offset, clk.start)
        clocks.append(clk)
    if len(workers) > 1:
        for index, worker in enumerate(workers):
            worker.outbox = inboxes[(index + 1) % len(inboxes)]
    for time, index, burst in kicks if inboxes else ():
        inbox = inboxes[index % len(inboxes)]
        sim.schedule_at(time, lambda i=inbox, b=burst: i.append(b))
    for time, sel in retunes:
        sim.schedule_at(time, lambda sel=sel: mux.select(sel))
    for time, index, enabled in gates:
        clk = clocks[index % len(clocks)]
        sim.schedule_at(time, lambda c=clk, e=enabled: c.set_enabled(e))
    for time in noise:
        sim.schedule_at(time, lambda: log.append((sim.now, "noise", 0)))
    return sim, clocks, workers, log


HORIZON = 3_000_000


def test_skip_ahead_matches_heap():
    """Twin runs agree on everything; at least one example replays."""
    replayed = []

    @given(
        clock_specs=st.lists(
            st.tuples(
                st.sampled_from(HARMONIC_POOL),
                st.integers(0, 40_000),
                st.integers(0, 2),
            ),
            min_size=1,
            max_size=4,
        ),
        kicks=st.lists(
            st.tuples(
                st.integers(1, HORIZON), st.integers(0, 7), st.integers(1, 40)
            ),
            max_size=6,
        ),
        retunes=st.lists(
            st.tuples(st.integers(1, HORIZON), st.integers(0, 1)), max_size=2
        ),
        gates=st.lists(
            st.tuples(
                st.integers(1, HORIZON), st.integers(0, 3), st.booleans()
            ),
            max_size=3,
        ),
        noise=st.lists(st.integers(1, HORIZON), max_size=3),
        horizon=st.integers(HORIZON // 3, HORIZON),
    )
    @settings(max_examples=40, deadline=None)
    def check(clock_specs, kicks, retunes, gates, noise, horizon):
        args = (clock_specs, kicks, retunes, gates, noise)
        sim_h, clocks_h, workers_h, log_h = build_workers(*args, False)
        sim_f, clocks_f, workers_f, log_f = build_workers(*args, True)
        sim_h.run_until(horizon)
        sim_f.run_until(horizon)
        assert log_f == log_h
        assert sim_f.now == sim_h.now
        assert sim_f.events_processed == sim_h.events_processed
        assert next(sim_f._seq) == next(sim_h._seq)
        assert [c.cycles for c in clocks_f] == [c.cycles for c in clocks_h]
        assert [
            (w.busy_cycles, w.idle_cycles, w.burst) for w in workers_f
        ] == [(w.busy_cycles, w.idle_cycles, w.burst) for w in workers_h]
        replayed.append(sim_f.fastpath_stats["skipped"])

    check()
    assert any(replayed)
