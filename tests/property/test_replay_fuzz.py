"""Word-path fuzzer: random streaming systems on both kernels.

Each example builds an IOM -> stage -> ... -> IOM chain on a prototype
RSB with up to four PRRs and runs it in segments.  Between segments it
may gate or ungate a PRR's local clock, reselect its BUFGMUX, or drop the
IOM consumer's ``FIFO_wen`` (a gated consumer).  Inside segments a
MicroBlaze task sleeps for random ``Delay`` cycles and writes PRR
PRSockets over DCR -- each socket's current value again, or that value
with ``CLK_en`` or ``CLK_sel`` flipped -- so software effects land at
random offsets among the clock edges; after the last segment
``run_to_completion`` runs one more such task.  The chain mixes
fixed-rate modules (one word out per word in, 1-3 cycles per sample)
with an optional variable-rate one, a finite source of random length
runs dry part-way through, and small FIFOs plus slow stages behind fast
ones force backpressure.

Three oracles:

* the event-heap kernel (``Simulator.set_fastpath(False)``), which never
  skips or replays an edge: the fast path must match it on every word,
  timestamp, FIFO/channel/module/IOM counter and payload, the
  ``repro_fifo_occupancy`` exposition, ``events_processed``, the
  sequence counter and ``now``;
* a functional one: the output equals each stage's ``process``
  composed over the source words, minus the words the gated consumer
  discarded;
* a conservation one: every FIFO holds ``pushes - pops`` words (no
  example clears a FIFO once words move).

Random examples rarely run a slow stage long enough to fill a FIFO, so
:data:`BACKPRESSURED` adds fixed chains that do: a source pushing every
cycle into 2- and 3-cycle stages, at FIFO depths 16 and 512, and a
``select`` that halves a PRR's local clock mid-stream.

Tier-1 runs :data:`FUZZ_EXAMPLES` examples; a hypothesis profile with a
larger ``max_examples`` (``--hypothesis-profile=nightly``, registered in
``tests/conftest.py``) raises the count.
"""

import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.control.microblaze import DcrWrite, Delay
from repro.control.prsocket import BIT_CLK_EN, BIT_CLK_SEL
from repro.core import SystemParameters, VapresSystem
from repro.modules import Iom
from repro.modules.conditioning import AbsValue, NoiseGate, PeakHold
from repro.modules.filters import BiquadIir, FirFilter, MedianFilter, MovingAverage
from repro.modules.sources import from_samples
from repro.modules.state import from_u32, to_u32
from repro.modules.transforms import (
    Crc32,
    Decimator,
    DeltaDecoder,
    DeltaEncoder,
    MinMaxTracker,
    PassThrough,
    Scaler,
    ThresholdDetector,
)
from repro.obs.export import prometheus_text

#: Examples per tier-1 run (well under 0.5 s each).
FUZZ_EXAMPLES = 60


def _examples() -> int:
    """Tier-1 count, or the loaded profile's when that asks for more."""
    loaded = settings.default.max_examples
    return loaded if loaded > 100 else FUZZ_EXAMPLES


FIXED_RATE = {
    "avg": lambda n, p: MovingAverage(n, window=1 + p % 5),
    "fir": lambda n, p: FirFilter(n, [p % 7 - 3, 1 + p % 5, 2]),
    "scale": lambda n, p: Scaler(n, gain=(p * 977) % 65536 - 32768),
    "pass": lambda n, p: PassThrough(n),
    "crc": lambda n, p: Crc32(n),
    "denc": lambda n, p: DeltaEncoder(n),
    "ddec": lambda n, p: DeltaDecoder(n),
    "abs": lambda n, p: AbsValue(n),
    "median": lambda n, p: MedianFilter(n, window=1 + p % 4),
    "minmax": lambda n, p: MinMaxTracker(n),
    "biquad": lambda n, p: BiquadIir(
        n, [p * 331 % 40000 - 20000, 16384, p % 9 - 4], [p * 97 % 30000 - 15000, 900]
    ),
    "peak": lambda n, p: PeakHold(n, decay_shift=p % 6),
    "gate": lambda n, p: NoiseGate(n, open_at=(p * 2_000_003) % 2**31),
}
VARIABLE_RATE = {
    "decim": lambda n, p: Decimator(n, factor=2 + p % 3),
    "thresh": lambda n, p: ThresholdDetector(n, threshold=(p * 131) % 4000),
}
FACTORIES = {**FIXED_RATE, **VARIABLE_RATE}

stage_st = st.tuples(
    st.sampled_from(sorted(FIXED_RATE)), st.integers(0, 99), st.integers(1, 3)
)
variable_st = st.tuples(
    st.sampled_from(sorted(VARIABLE_RATE)), st.integers(0, 99), st.integers(1, 3)
)
action_st = st.one_of(
    st.tuples(st.just("none")),
    st.tuples(st.just("gate"), st.integers(0, 3), st.booleans()),
    st.tuples(st.just("select"), st.integers(0, 3), st.integers(0, 1)),
    st.tuples(st.just("wen"), st.booleans()),
)
#: the PRSocket bit each kind of software DCR write flips
FLIPS = {"rewrite": 0, "clk": 1 << BIT_CLK_EN, "sel": 1 << BIT_CLK_SEL}
#: (Delay cycles, kind, PRR) per DCR write of a software task
software_st = st.lists(
    st.tuples(
        st.integers(0, 600), st.sampled_from(sorted(FLIPS)), st.integers(0, 3)
    ),
    max_size=6,
)


def build_stage(spec, name):
    kind, param, cycles = spec
    module = FACTORIES[kind](name, param)
    module.cycles_per_sample = cycles
    return module


def source_words(seed, length):
    rng = random.Random(seed)
    return [rng.randint(-(2**31), 2**31 - 1) for _ in range(length)]


def build(scenario, fastpath):
    stages, depth, seed, length, per_push, interval = scenario[:6]
    params = SystemParameters.prototype().with_rsb(
        num_prrs=len(stages), fifo_depth=depth
    )
    system = VapresSystem(replace(params, board="ML402", pr_speedup=1000.0))
    system.sim.set_fastpath(fastpath)
    system.bind_metrics()
    iom = Iom(
        "io",
        source=from_samples(source_words(seed, length)),
        words_per_push=per_push,
        push_interval=interval,
    )
    system.attach_iom("rsb0.iom0", iom)
    modules = [build_stage(spec, f"s{i}") for i, spec in enumerate(stages)]
    for i, module in enumerate(modules):
        system.place_module_directly(module, f"rsb0.prr{i}")
    names = ["rsb0.iom0", *(f"rsb0.prr{i}" for i in range(len(stages)))]
    for upstream, downstream in zip(names, names[1:] + ["rsb0.iom0"]):
        system.open_stream(upstream, downstream)
    return system, iom, modules


def software(system, writes, stages):
    """A MicroBlaze task: per write, a ``Delay``, then a DCR write of a
    PRR PRSocket's current value with the write kind's :data:`FLIPS` bit
    flipped."""
    for delay, kind, prr in writes:
        yield Delay(delay)
        socket = system.prr(f"rsb0.prr{prr % stages}").prsocket
        yield DcrWrite(socket, socket.dcr_read() ^ FLIPS[kind])


def run(scenario, fastpath):
    """Run ``scenario``; returns the snapshot and the gated blocks."""
    stages = scenario[0]
    during, after = scenario[7:] or ((), ())
    system, iom, modules = build(scenario, fastpath)
    consumer = system.slot("rsb0.iom0").consumers[0]
    blocks = []  # [words_received at gate start, words_gated at start]
    system.microblaze.spawn(software(system, during, len(stages)), "during")
    for action, cycles in scenario[6]:
        if action[0] == "gate":
            system.prr(f"rsb0.prr{action[1] % len(stages)}").bufr.set_enabled(
                action[2]
            )
        elif action[0] == "select":
            system.prr(f"rsb0.prr{action[1] % len(stages)}").bufgmux.select(
                action[2]
            )
        elif action[0] == "wen" and action[1] != consumer.fifo_wen:
            consumer.fifo_wen = action[1]
            if action[1]:
                blocks[-1][1] = consumer.words_gated - blocks[-1][1]
            else:
                blocks.append([consumer.words_received, consumer.words_gated])
        system.run_for_cycles(cycles)
    system.microblaze.run_to_completion(
        software(system, after, len(stages)), "after"
    )
    if not consumer.fifo_wen:
        blocks[-1][1] = consumer.words_gated - blocks[-1][1]
    return snapshot(system, iom, modules), blocks


def snapshot(system, iom, modules):
    sim = system.sim
    rsb = system.rsbs[0]
    fifos = []
    for slot in rsb.slots:
        for fifo in (
            *(port.fifo for port in (*slot.consumers, *slot.producers)),
            slot.fsl_to_module.fifo,
            slot.fsl_to_processor.fifo,
        ):
            fifos.append((
                fifo.name, fifo.pushes, fifo.pops, fifo.drops,
                fifo.max_occupancy, list(fifo._data),
            ))
    channels = [
        (
            channel.words_delivered, channel.stall_cycles,
            list(channel._forward), list(channel._backward),
            channel.producer.words_sent, channel.consumer.words_received,
            channel.consumer.words_gated, channel.consumer.words_discarded,
        )
        for channel in rsb.fabric.channels.values()
    ]
    return {
        "received": list(iom.received),
        "emit_times": list(iom.emit_times),
        "receive_times": list(iom.receive_times),
        "iom": (iom.cycles, iom.words_emitted, iom.source_exhausted),
        "fifos": fifos,
        "channels": channels,
        "modules": [
            (
                m.lcd_cycles, m.samples_in, m.samples_out, m.stall_cycles,
                m._busy_cycles, m._in_flight, list(m._pending_out),
                m.save_state(),
            )
            for m in modules
        ],
        "clocks": [system.system_clock.cycles]
        + [slot.lcd_clock.cycles for slot in system.prr_slots],
        "occupancy": [
            line
            for line in prometheus_text(sim.metrics).splitlines()
            if line.startswith("repro_fifo_occupancy")
        ],
        "events": sim.events_processed,
        "seq": next(sim._seq),
        "now": sim.now,
    }


def composed(scenario):
    """Each stage's ``process`` applied in order to the source words."""
    stages, _, seed, length = scenario[:4]
    words = [to_u32(w) for w in source_words(seed, length)]
    for i, spec in enumerate(stages):
        module = build_stage(spec, f"s{i}")
        out = []
        for word in words:
            result = module.process(word)
            if result is None:
                continue
            if isinstance(result, int):
                out.append(to_u32(result))
            else:
                out.extend(to_u32(w) for _, w in result)
        words = out
    return [from_u32(w) for w in words]


def check(scenario):
    """Both kernels on ``scenario``, against each other and the functional
    and conservation oracles; returns the heap kernel's snapshot."""
    heap, blocks = run(scenario, fastpath=False)
    fast, fast_blocks = run(scenario, fastpath=True)
    assert fast == heap
    assert fast_blocks == blocks
    expected = without_gated(composed(scenario), blocks)
    received = heap["received"]
    assert received == expected[: len(received)]
    for name, pushes, pops, _, _, words in heap["fifos"]:
        assert len(words) == pushes - pops, name
    return heap


def without_gated(expected, blocks):
    """``expected`` minus the words each gated block discarded."""
    kept = []
    index = 0
    for received, gated in blocks:
        take = received - len(kept)
        kept += expected[index : index + take]
        index += take + gated
    return kept + expected[index:]


@st.composite
def scenarios(draw):
    stages = draw(st.lists(stage_st, min_size=1, max_size=3))
    if draw(st.booleans()):
        stages.insert(draw(st.integers(0, len(stages))), draw(variable_st))
    per_push = draw(st.integers(1, 2))
    if draw(st.booleans()):
        # paced: the source is no faster than the slowest stage, so the
        # stream settles into a short period instead of backpressure
        interval = min(4, per_push * max(cycles for _, _, cycles in stages))
    else:
        interval = draw(st.integers(1, 3))
    return (
        stages,
        draw(st.sampled_from([16, 24, 64, 512])),
        draw(st.integers(0, 2**16)),
        draw(st.integers(0, 3000)),
        per_push,
        interval,
        draw(
            st.lists(
                st.tuples(action_st, st.integers(40, 2500)),
                min_size=1,
                max_size=4,
            )
        ),
        draw(software_st),
        draw(software_st),
    )


@given(scenario=scenarios())
@settings(max_examples=_examples(), deadline=None)
def test_fast_path_matches_heap_and_composition(scenario):
    check(scenario)


#: Chains whose source outpaces a stage long enough to fill a FIFO of
#: ``depth`` words inside one segment.
BACKPRESSURED = {
    "median-2cyc-depth16": (
        [("median", 2, 2)], 16, 1, 3000, 1, 1, [(("none",), 2500)],
    ),
    "avg-3cyc-depth512": (
        [("avg", 1, 3)], 512, 2, 3000, 1, 1, [(("none",), 2500)],
    ),
    "fir-2cyc-behind-pass-depth512": (
        [("pass", 0, 1), ("fir", 3, 2)], 512, 3, 3000, 1, 1,
        [(("none",), 1200), (("none",), 2500)],
    ),
    "halved-lcd-depth16": (
        [("avg", 0, 1)], 16, 4, 2000, 1, 1, [(("select", 0, 1), 2500)],
    ),
    "halved-then-restored-lcd-depth512": (
        [("abs", 0, 1), ("crc", 0, 1)], 512, 5, 3000, 1, 1,
        [(("select", 1, 1), 2500), (("select", 1, 0), 1000)],
    ),
}


@pytest.mark.parametrize("name", sorted(BACKPRESSURED))
def test_backpressured_chain_fills_a_fifo_and_matches_heap(name):
    scenario = BACKPRESSURED[name]
    heap = check(scenario)
    depth = scenario[1]
    assert any(fifo[4] == depth for fifo in heap["fifos"])
