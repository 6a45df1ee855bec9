"""Golden snapshots of the per-cycle word path.

The fast-path differential tests run the same component code on both
kernels, so a change to a channel, interface, FIFO or module that alters
behaviour identically on both sides slips past them.  These tests pin the
word path itself: three scenarios are run to a fixed point and every
observable counter is compared with literal values recorded from the
reference implementation.

* a steady IOM -> ``MovingAverage`` -> IOM stream,
* a backpressured chain through a multi-cycle module whose consumer FIFO
  fills, so the feedback-full signal throttles the IOM,
* a Figure-5 switch on a system whose FIFOs are bound to a metrics
  registry, pinning the ``repro_fifo_occupancy`` exposition text.

Each scenario runs on both kernels (fast path and event heap); the
values are the same on both.
"""

import re
import zlib
from array import array

import pytest

from repro.core.switching import ModuleSwitcher
from repro.modules import Iom, MovingAverage, Scaler
from repro.modules.base import staged
from repro.modules.filters import q15
from repro.modules.sources import ramp, sine_wave
from repro.obs.export import prometheus_text

from tests.helpers import build_system


def _fifos(system):
    for rsb in system.rsbs:
        for slot in rsb.slots:
            for interface in (*slot.consumers, *slot.producers):
                yield interface.fifo
            yield slot.fsl_to_module.fifo
            yield slot.fsl_to_processor.fifo


def snapshot(system, iom, modules):
    """Every word-path counter of ``system``; idle FIFOs are left out
    of ``fifos`` but counted in ``idle_fifos``."""
    fifos = {}
    idle = 0
    for fifo in _fifos(system):
        row = (fifo.pushes, fifo.pops, fifo.drops, fifo.max_occupancy)
        if row == (0, 0, 0, 0):
            idle += 1
        else:
            fifos[fifo.name] = row
    channels = {
        channel.channel_id: (channel.words_delivered, channel.stall_cycles)
        for rsb in system.rsbs
        for channel in rsb.fabric.channels.values()
    }
    return {
        "received": len(iom.received),
        "crc": zlib.crc32(array("q", iom.received).tobytes()),
        "emitted": iom.words_emitted,
        "iom_cycles": iom.cycles,
        "fifos": fifos,
        "idle_fifos": idle,
        "channels": channels,
        "modules": {
            module.name: (
                module.lcd_cycles,
                module.stall_cycles,
                module.samples_in,
                module.samples_out,
            )
            for module in modules
        },
        "events": system.sim.events_processed,
        "now": system.sim.now,
    }


def occupancy(system):
    """The ``repro_fifo_occupancy`` exposition: a CRC of its text, and per
    FIFO that saw a push its cumulative bucket counts, sum and count."""
    lines = [
        line
        for line in prometheus_text(system.sim.metrics).splitlines()
        if line.startswith("repro_fifo_occupancy")
    ]
    series = {}
    for line in lines:
        fifo = re.search(r'fifo="([^"]+)"', line).group(1)
        series.setdefault(fifo, []).append(line.rsplit(" ", 1)[1])
    active = {
        fifo: (" ".join(values[:-2]), values[-2], values[-1])
        for fifo, values in series.items()
        if values[-1] != "0"
    }
    return zlib.crc32("\n".join(lines).encode()), len(series), active


@pytest.fixture(params=[True, False], ids=["fastpath", "heap"])
def new_system(request):
    def make():
        system = build_system()
        system.sim.set_fastpath(request.param)
        return system

    return make


# ----------------------------------------------------------------------
def test_steady_stream_golden(new_system):
    system = new_system()
    iom = Iom("io0", source=sine_wave(amplitude=5000, period=40, count=100_000))
    system.attach_iom("rsb0.iom0", iom)
    module = MovingAverage("avg", window=4)
    system.place_module_directly(module, "rsb0.prr0")
    system.open_stream("rsb0.iom0", "rsb0.prr0")
    system.open_stream("rsb0.prr0", "rsb0.iom0")
    system.run_for_cycles(3000)
    assert snapshot(system, iom, [module]) == STEADY


def test_backpressured_chain_golden(new_system):
    system = new_system()
    iom = Iom("io0", source=ramp(count=5000), words_per_push=2)
    system.attach_iom("rsb0.iom0", iom)
    slow = MovingAverage("slow", window=2, cycles_per_sample=3)
    slow.monitor_interval = 64
    gain = Scaler("gain", gain=q15(0.5))
    system.place_module_directly(slow, "rsb0.prr0")
    system.place_module_directly(gain, "rsb0.prr1")
    system.open_stream("rsb0.iom0", "rsb0.prr0")
    system.open_stream("rsb0.prr0", "rsb0.prr1")
    system.open_stream("rsb0.prr1", "rsb0.iom0")
    system.run_for_cycles(4000)
    assert snapshot(system, iom, [slow, gain]) == BACKPRESSURED


def test_figure5_switch_metrics_golden(new_system):
    system = new_system()
    system.bind_metrics()
    iom = Iom("io0", source=sine_wave(count=10_000_000))
    system.attach_iom("rsb0.iom0", iom)
    old = MovingAverage("filterA", window=4)
    system.place_module_directly(old, "rsb0.prr0")
    ch_in = system.open_stream("rsb0.iom0", "rsb0.prr0")
    ch_out = system.open_stream("rsb0.prr0", "rsb0.iom0")
    system.register_module(
        "filterB", lambda: staged(MovingAverage("filterB", window=4))
    )
    system.repository.preload_to_sdram("filterB", "rsb0.prr1")
    system.run_for_us(20)
    report = system.microblaze.run_to_completion(
        ModuleSwitcher(system).switch(
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
    system.run_for_us(20)
    assert report.words_lost == 0
    new = system.rsbs[0].prr_slots[1].module
    assert snapshot(system, iom, [old, new]) == FIGURE5
    assert occupancy(system) == FIGURE5_OCCUPANCY


# ----------------------------------------------------------------------
# golden values
# ----------------------------------------------------------------------
STEADY = {
    "received": 2994,
    "crc": 2386640426,
    "emitted": 3000,
    "iom_cycles": 3000,
    "fifos": {
        "rsb0.iom0.c0.fifo": (2994, 2994, 0, 1),
        "rsb0.iom0.p0.fifo": (3000, 2999, 0, 1),
        "rsb0.prr0.c0.fifo": (2997, 2997, 0, 1),
        "rsb0.prr0.p0.fifo": (2997, 2996, 0, 1),
    },
    "idle_fifos": 8,
    "channels": {0: (2997, 0), 1: (2994, 0)},
    "modules": {"avg": (3000, 3, 2997, 2997)},
    "events": 18000,
    "now": 30000000,
}

BACKPRESSURED = {
    "received": 1330,
    "crc": 1398318825,
    "emitted": 2352,
    "iom_cycles": 4000,
    "fifos": {
        "rsb0.iom0.c0.fifo": (1330, 1330, 0, 1),
        "rsb0.iom0.p0.fifo": (2352, 1840, 0, 512),
        "rsb0.prr0.c0.fifo": (1840, 1333, 0, 510),
        "rsb0.prr0.p0.fifo": (1332, 1332, 0, 1),
        "rsb0.prr0.r.fifo": (20, 0, 0, 20),
        "rsb0.prr1.c0.fifo": (1331, 1331, 0, 1),
        "rsb0.prr1.p0.fifo": (1331, 1331, 0, 1),
    },
    "idle_fifos": 5,
    "channels": {0: (1840, 2159), 1: (1331, 0), 2: (1330, 0)},
    "modules": {
        "slow": (4000, 3, 1333, 1332),
        "gain": (4000, 2669, 1331, 1331),
    },
    "events": 24000,
    "now": 40000000,
}

FIGURE5 = {
    "received": 11289,
    "crc": 1423427017,
    "emitted": 11483,
    "iom_cycles": 11483,
    "fifos": {
        "rsb0.iom0.c0.fifo": (11290, 11290, 0, 1),
        "rsb0.iom0.p0.fifo": (11483, 11404, 0, 79),
        "rsb0.iom0.t.fifo": (1, 1, 0, 1),
        "rsb0.iom0.r.fifo": (1, 1, 0, 1),
        "rsb0.prr0.c0.fifo": (9252, 9252, 0, 1),
        "rsb0.prr0.p0.fifo": (9253, 9253, 0, 1),
        "rsb0.prr0.t.fifo": (1, 1, 0, 1),
        "rsb0.prr0.r.fifo": (6, 6, 0, 6),
        "rsb0.prr1.c0.fifo": (2149, 2104, 0, 46),
        "rsb0.prr1.p0.fifo": (2104, 2040, 0, 64),
        "rsb0.prr1.t.fifo": (7, 7, 0, 1),
    },
    "idle_fifos": 1,
    "channels": {2: (2149, 0), 3: (2037, 0)},
    "modules": {
        "filterA": (9354, 101, 9252, 9252),
        "filterB": (2230, 0, 2104, 2104),
    },
    "events": 50491,
    "now": 114839916,
}

FIGURE5_OCCUPANCY = (
    2094273974,
    6,
    {
        "rsb0.iom0.c0.fifo": (
            "11290 11290 11290 11290 11290 11290 11290 11290 11290 11290 "
            "11290 11290",
            "11290",
            "11290",
        ),
        "rsb0.iom0.p0.fifo": (
            "9253 9254 9256 9260 9268 9284 9316 11483 11483 11483 11483 "
            "11483",
            "182420",
            "11483",
        ),
        "rsb0.prr0.c0.fifo": (
            "9252 9252 9252 9252 9252 9252 9252 9252 9252 9252 9252 9252",
            "9252",
            "9252",
        ),
        "rsb0.prr0.p0.fifo": (
            "9253 9253 9253 9253 9253 9253 9253 9253 9253 9253 9253 9253",
            "9253",
            "9253",
        ),
        "rsb0.prr1.c0.fifo": (
            "1 2 4 8 16 32 2149 2149 2149 2149 2149 2149",
            "97819",
            "2149",
        ),
        "rsb0.prr1.p0.fifo": (
            "1 2 4 8 16 32 2104 2104 2104 2104 2104 2104",
            "132640",
            "2104",
        ),
    },
)
