"""Block datapaths: ``process_block`` is ``process`` run word by word.

Steady-state replay hands each fixed-rate module a whole block of words
in one ``process_block`` call.  For every fixed-rate module of the
library -- found by walking ``repro.modules``, not from a list kept here
-- any split of a word stream into blocks must give the outputs and the
final state registers of a per-word ``process`` run over the same words,
from any restored state -- a window index or fill out of range included.
A checkpoint at any word boundary must not change the stream.  A
subclass that overrides ``process`` alone must get the per-word block
default, never its parent's block method.

Tier-1 runs the default example count; ``--hypothesis-profile=nightly``
(registered in ``tests/conftest.py``) raises it.
"""

import importlib
import inspect
import pkgutil
import statistics

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.modules
from repro.modules import HardwareModule, MedianFilter, MovingAverage
from repro.modules.sources import sine_wave
from repro.modules.state import to_u32

from tests.integration.test_steady_replay import twins


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def fixed_rate_modules():
    """Every fixed-rate ``HardwareModule`` subclass in ``repro.modules``."""
    for info in pkgutil.iter_modules(repro.modules.__path__):
        importlib.import_module(f"repro.modules.{info.name}")
    found = {
        cls
        for cls in _subclasses(HardwareModule)
        if cls.fixed_rate and cls.__module__.startswith("repro.modules.")
    }
    return sorted(found, key=lambda cls: cls.__name__)


MODULES = fixed_rate_modules()

coefficient = st.integers(-(2**17), 2**17)
#: a strategy per constructor parameter the library's fixed-rate modules
#: take; a new parameter without a default needs an entry here
PARAMETERS = {
    "window": st.integers(1, 6),
    "taps": st.lists(coefficient, min_size=1, max_size=5),
    "gain": coefficient,
    "b": st.lists(coefficient, min_size=3, max_size=3),
    "a": st.lists(coefficient, min_size=2, max_size=2),
    "decay_shift": st.integers(0, 8),
    "open_at": st.integers(0, 2**31),
    "cycles_per_sample": st.integers(1, 3),
}

#: registers that index the window: drawn near its bounds as well as
#: anywhere, so both in-range and out-of-range values occur
WINDOW_INDEX = ("widx", "wfill")

word_st = st.one_of(
    st.sampled_from([0, 1, 0x7FFFFFFF, 0x80000000, 0xFFFFFFFF]),
    st.integers(0, 2**32 - 1),
)


@st.composite
def constructed(draw, cls):
    """A builder of ``cls`` with drawn arguments: every module it builds
    is a twin of the others."""
    kwargs = {}
    for name, param in inspect.signature(cls).parameters.items():
        if name == "name" or param.kind in (param.VAR_POSITIONAL, param.VAR_KEYWORD):
            continue
        if name in PARAMETERS:
            kwargs[name] = draw(PARAMETERS[name])
        else:
            assert param.default is not param.empty, (
                f"{cls.__name__}: no strategy for parameter {name!r}"
            )
    return lambda name: cls(name, **kwargs)


@st.composite
def restored_state(draw, module):
    """Random words for every state register; the window's index and
    fill are not reduced into range."""
    words = []
    for register in module.state_register_names:
        if register in WINDOW_INDEX:
            near = st.integers(-1, module.window + 1).map(to_u32)
            words.append(draw(st.one_of(near, word_st)))
        else:
            words.append(draw(word_st))
    return words


@st.composite
def stream(draw):
    """Words and sorted cut points; few cuts, so blocks are often longer
    than twice the widest window."""
    words = draw(st.lists(word_st, max_size=80))
    cuts = sorted(draw(st.lists(st.integers(0, len(words)), max_size=4)))
    return words, cuts


def test_enumeration_finds_the_library():
    names = {cls.__name__ for cls in MODULES}
    assert {
        "AbsValue", "BiquadIir", "Crc32", "DeltaDecoder", "DeltaEncoder",
        "FirFilter", "MedianFilter", "MinMaxTracker", "MovingAverage",
        "NoiseGate", "PassThrough", "PeakHold", "Scaler",
    } <= names
    assert "Decimator" not in names and "ThresholdDetector" not in names


@pytest.mark.parametrize("cls", MODULES, ids=lambda cls: cls.__name__)
@given(data=st.data())
@settings(deadline=None)
def test_blocks_equal_per_word_process(cls, data):
    build = data.draw(constructed(cls))
    per_word, blocked = build("a"), build("b")
    if data.draw(st.booleans()):
        state = data.draw(restored_state(per_word))
        per_word.restore_state(state)
        blocked.restore_state(state)
    words, cuts = data.draw(stream())

    expected = [per_word.process(word) for word in words]
    got = []
    for start, end in zip([0, *cuts], [*cuts, len(words)]):
        got += blocked.process_block(words[start:end])

    assert all(type(value) is int for value in expected)
    assert got == expected
    assert blocked.save_state() == per_word.save_state()
    if words:
        assert to_u32(blocked.monitor_value()) == to_u32(per_word.monitor_value())


@pytest.mark.parametrize("cls", MODULES, ids=lambda cls: cls.__name__)
@given(data=st.data())
@settings(deadline=None)
def test_checkpoint_is_transparent(cls, data):
    """Saving the state registers at a word boundary and restoring them
    into a fresh twin continues the stream exactly."""
    build = data.draw(constructed(cls))
    straight, checkpointed = build("a"), build("b")
    if data.draw(st.booleans()):
        state = data.draw(restored_state(straight))
        straight.restore_state(state)
        checkpointed.restore_state(state)
    words, cuts = data.draw(stream())
    at = data.draw(st.integers(0, len(words)))

    expected = straight.process_block(words)
    got = checkpointed.process_block(words[:at])
    resumed = build("c")
    resumed.restore_state(checkpointed.save_state())
    got += resumed.process_block(words[at:])

    assert got == expected
    assert resumed.save_state() == straight.save_state()


@pytest.mark.parametrize(
    "state",
    [
        [1, 2, 3, 3, 3],  # index past the window, window full
        [1, 2, 3, 0, 4],  # fill past the window
        [1, 2, 3, 0xFFFFFFFF, 3],  # index -1
        [1, 2, 3, 0xFFFFFFFF, 0xFFFFFFFF],  # fill -1
    ],
)
@pytest.mark.parametrize("cls", [MovingAverage, MedianFilter])
def test_window_registers_out_of_range(cls, state):
    """A window index outside the window names no slot; a fill outside
    it is clamped.  The output is over the filled slots."""
    module = cls("m", window=3)
    module.restore_state(state)
    assert 0 <= module.wfill <= 3
    slots = [module.w0, module.w1, module.w2]
    if 0 <= module.widx < 3:
        slots[module.widx] = 5
    filled = slots[: min(module.wfill + 1, 3)]
    if cls is MovingAverage:
        expected = sum(filled) // len(filled)
    else:
        expected = int(statistics.median(filled))

    assert module.process_block([5]) == [expected]
    assert [module.w0, module.w1, module.w2] == slots
    assert 0 <= module.widx < 3


class Offset(MovingAverage):
    """Overrides ``process`` and restates the rate, so replay may move
    words through it -- but only through its own ``process``."""

    fixed_rate = True

    def process(self, sample):
        return super().process(sample) + 1


def test_subclass_process_gets_per_word_block_default():
    assert Offset.process_block is HardwareModule.process_block
    module = Offset("off", window=2)
    assert module.process_block([4, 8]) == [5, 7]
    assert (module.widx, module.wfill, module.w0, module.w1) == (0, 2, 4, 8)


def test_subclass_process_runs_under_replay():
    heap, fast, share = twins(4_000, module=lambda: Offset("off", window=4))
    assert fast == heap
    assert share >= 0.9
    received = fast["received"]
    assert len(received) > 3_000
    # the default source of ``twins``
    source = sine_wave(amplitude=5000, period=40, count=len(received))
    reference = MovingAverage("ref", window=4)
    assert received == [reference.process(to_u32(x)) + 1 for x in source]
