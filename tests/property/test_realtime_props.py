"""Property tests for the realtime checkpoint/restore machinery.

Two contracts carry the EDF scheduler's correctness story:

* the CMD_CHECKPOINT protocol itself -- quiesce a module mid-stream,
  read its state words off the r-FSL (closed by MSG_CKPT), restore them
  into a fresh *staged* module incarnation, and the concatenated output
  is bit-exact with an uninterrupted run (no EOS ever appears);
* the end-to-end scheduler -- a job that was suspended and resumed
  arbitrarily often under contention produces a byte-identical output
  fingerprint to the same job running alone.
"""

from dataclasses import replace

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.comm.fsl import FslLink
from repro.comm.interfaces import ConsumerInterface, ProducerInterface
from repro.core.params import SystemParameters
from repro.modules.base import (
    CMD_CHECKPOINT,
    CMD_START,
    MSG_CKPT,
    ModulePorts,
    staged,
)
from repro.modules.filters import Q15_ONE, FirFilter, MovingAverage
from repro.modules.state import from_u32, to_u32
from repro.modules.transforms import Crc32, DeltaEncoder, MinMaxTracker
from repro.realtime.edf import EdfExecutor
from repro.realtime.workloads import generate_workload
from repro.runtime.executor import ExecutorConfig

FACTORIES = [
    lambda: FirFilter("fir", [Q15_ONE // 4, Q15_ONE // 2, Q15_ONE // 4]),
    lambda: MovingAverage("avg", window=3),
    lambda: DeltaEncoder("delta"),
    lambda: Crc32("crc"),
    lambda: MinMaxTracker("mm"),
]

samples = st.lists(st.integers(-(2**20), 2**20), min_size=1, max_size=50)


def bind(module):
    consumer = ConsumerInterface("c", depth=4096)
    producer = ProducerInterface("p", depth=4096)
    consumer.fifo_wen = True
    ports = ModulePorts(
        [consumer], [producer], FslLink("t"), FslLink("r")
    )
    module.bind(ports)
    return ports


def feed_and_settle(module, ports, words):
    for word in words:
        ports.consumers[0].receive(True, to_u32(word))
    for _ in range(len(words) * (module.cycles_per_sample + 1) + 8):
        module.commit()


def collect(ports):
    out = []
    while not ports.producers[0].fifo.empty:
        out.append(from_u32(ports.producers[0].fifo.pop()))
    return out


def checkpoint_over_fsl(module, ports):
    """Drive the CMD_CHECKPOINT drain and return the state words."""
    ports.fsl_in.master_write(CMD_CHECKPOINT, control=True)
    for _ in range(4096):
        if module.checkpoint_complete:
            break
        module.commit()
        # the harness plays MicroBlaze: keep the r-FSL drained so the
        # state push never stalls behind monitoring words
    assert module.checkpoint_complete, "checkpoint never completed"
    words = []
    while ports.fsl_out.can_read:
        data, control = ports.fsl_out.slave_read()
        if control:
            words.append(data)
    assert words and words[-1] == MSG_CKPT
    return words[:-1]


@given(
    stream=samples,
    cut=st.integers(0, 50),
    factory_index=st.integers(0, len(FACTORIES) - 1),
)
@settings(max_examples=60, deadline=None)
def test_checkpoint_protocol_roundtrip_is_bit_exact(
    stream, cut, factory_index
):
    factory = FACTORIES[factory_index]
    cut = min(cut, len(stream))

    reference = factory()
    ref_ports = bind(reference)
    feed_and_settle(reference, ref_ports, stream)
    expected = collect(ref_ports)

    first = factory()
    first_ports = bind(first)
    feed_and_settle(first, first_ports, stream[:cut])
    head = collect(first_ports)
    state = checkpoint_over_fsl(first, first_ports)
    assert first.halted and not first.flush_complete  # no EOS path

    second = staged(factory())
    second_ports = bind(second)
    # restored state arrives as pre-start FSL data words (step 7)
    for word in state:
        second_ports.fsl_in.master_write(word)
    second.commit()
    second_ports.fsl_in.master_write(CMD_START, control=True)
    feed_and_settle(second, second_ports, stream[cut:])
    tail = collect(second_ports)

    assert head + tail == expected


@given(seed=st.sampled_from([3, 11]))
@settings(max_examples=2, deadline=None)
def test_preempted_fingerprint_equals_solo_run(seed):
    """A suspended/resumed job's output stream is indistinguishable."""
    params = replace(SystemParameters.prototype(), pr_speedup=20_000.0)
    config = ExecutorConfig(max_us=20_000.0, quantum_us=5.0, idle_streak=2)
    jobs = generate_workload(
        seed=seed, jobs=3, utilization=0.6, params=params,
        deadline_factor=3.0, frames=3,
    )
    shared = EdfExecutor(params=params, config=config).run_realtime(jobs)
    assert shared.suspensions_total > 0
    for job, outcome in zip(jobs, shared.jobs):
        solo = EdfExecutor(params=params, config=config).run_realtime([job])
        assert solo.jobs[0].fingerprint == outcome.fingerprint
        assert solo.jobs[0].words_out == outcome.words_out
