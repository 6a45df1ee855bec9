"""Steady-state replay engages where it should, refuses where it must,
and stays bit-identical to the event-heap kernel either way.

Bit-identity alone would also hold if replay never ran, so each scenario
asserts how many edges the fast path advanced without dispatching them
(``fastpath_stats["skipped"]``).
"""

from dataclasses import replace

import pytest

from repro.core import SystemParameters, VapresSystem
from repro.modules import Iom, MovingAverage
from repro.modules.filters import MedianFilter
from repro.modules.sources import ramp, sine_wave
from repro.modules.transforms import Decimator

from tests.property.test_replay_fuzz import snapshot

#: The ``fig5_switch`` benchmark's steady slice.
STEADY_CYCLES = 16_000


def steady_system(
    fastpath,
    module=None,
    source=None,
    metrics=False,
    push_interval=1,
    words_per_push=1,
):
    """IOM -> module -> IOM on the prototype, as in ``fig5_switch``;
    ``module`` and ``source`` are factories."""
    params = replace(SystemParameters.prototype(), pr_speedup=500.0)
    system = VapresSystem(params)
    system.sim.set_fastpath(fastpath)
    if metrics:
        system.bind_metrics()
    iom = Iom(
        "io0",
        source=source() if source else sine_wave(
            amplitude=5000, period=40, count=10_000_000
        ),
        push_interval=push_interval,
        words_per_push=words_per_push,
    )
    system.attach_iom("rsb0.iom0", iom)
    module = module() if module else MovingAverage("filterA", window=4)
    system.place_module_directly(module, "rsb0.prr0")
    channels = (
        system.open_stream("rsb0.iom0", "rsb0.prr0"),
        system.open_stream("rsb0.prr0", "rsb0.iom0"),
    )
    return system, iom, module, channels


def replayed_share(system, cycles):
    """Share of the edges of a ``cycles`` run advanced without dispatch
    (0 on the heap kernel, which dispatches every edge)."""
    before = dict(system.sim.fastpath_stats)
    system.run_for_cycles(cycles)
    after = system.sim.fastpath_stats
    edges = after["edges"] - before["edges"]
    return (after["skipped"] - before["skipped"]) / max(edges, 1)


def twins(cycles, warmup=2_000, arm=None, **kw):
    """Heap and fast runs of one steady system; their snapshots and the
    fast run's replayed share of the ``cycles`` after ``warmup``."""
    results = []
    for fastpath in (False, True):
        system, iom, module, channels = steady_system(fastpath, **kw)
        system.run_for_cycles(warmup)
        if arm is not None:
            arm(system, iom, module, channels)
        share = replayed_share(system, cycles)
        results.append((snapshot(system, iom, [module]), share))
    (heap, _), (fast, share) = results
    return heap, fast, share


def test_fig5_steady_stream_is_replayed():
    heap, fast, share = twins(STEADY_CYCLES)
    assert fast == heap
    assert len(heap["received"]) > STEADY_CYCLES
    assert share >= 0.95


def test_signature_watchdog_refuses_replay():
    def arm(system, iom, module, channels):
        for channel in channels:
            channel.enable_signature_check()

    heap, fast, share = twins(STEADY_CYCLES, arm=arm)
    assert fast == heap
    assert share == 0


@pytest.mark.parametrize(
    "arm",
    [
        lambda system, iom, module, channels: setattr(
            module, "monitor_interval", 64
        ),
        lambda system, iom, module, channels: iom.arm_eos(),
        lambda system, iom, module, channels: system.slot(
            "rsb0.prr0"
        ).consumers[0].fifo.enable_ecc(),
        lambda system, iom, module, channels: setattr(
            channels[1].producer, "fault_or", 0x10
        ),
    ],
    ids=["monitor", "armed-eos", "ecc", "fault-or"],
)
def test_armed_hooks_refuse_replay_while_words_move(arm):
    heap, fast, share = twins(2_000, arm=arm)
    assert fast == heap
    assert share == 0


def test_variable_rate_and_subclassed_modules_refuse_replay():
    class Offset(MovingAverage):
        def process(self, sample):
            return super().process(sample) + 1

    assert MovingAverage.fixed_rate and not Offset.fixed_rate
    assert not Decimator.fixed_rate
    for make in (lambda: Offset("off", window=2), lambda: Decimator("d", 2)):
        heap, fast, share = twins(2_000, module=make)
        assert fast == heap
        assert share == 0


def test_multi_cycle_module_and_bound_histograms_replay():
    """A source pushing every other cycle into a 2-cycle median filter:
    a period of two passes with a word in flight at every other
    boundary.  Both warm-up parities, so one replay starts with the word
    in flight; it and the occupancy histograms replay."""
    for warmup in (2_000, 2_001):
        heap, fast, share = twins(
            6_000,
            warmup=warmup,
            module=lambda: MedianFilter("median", window=3),
            metrics=True,
            push_interval=2,
        )
        assert fast == heap
        assert share >= 0.9


def test_source_running_dry_mid_replay_matches_heap():
    """Two words per two-cycle period from an odd-length source: the
    replay step that drains it pulls one word more than whole periods
    use, and must hand it back so the heap kernel's last edges see it."""
    heap, fast, share = twins(
        6_000,
        warmup=100,
        source=lambda: ramp(count=3_001),
        metrics=True,
        push_interval=2,
        words_per_push=2,
    )
    assert fast == heap
    assert heap["iom"][2] and len(heap["received"]) == 3_001
    assert share >= 0.9


def test_gated_consumer_counts_words_without_pushing():
    def arm(system, iom, module, channels):
        system.slot("rsb0.prr0").consumers[0].fifo_wen = False

    heap, fast, share = twins(4_000, arm=arm)
    assert fast == heap
    assert heap["channels"][0][6] > 3_000  # words_gated on the way in
    assert share >= 0.9
