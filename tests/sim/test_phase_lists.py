"""Unit tests for a clock's per-edge phase lists.

``Clock.samplers`` and ``Clock.committers`` hold the bound phase methods
an edge calls.  A phase a ``ClockedComponent`` subclass inherits
unchanged (the base no-op) is left out; duck-typed components keep both.
A phase probe still sees every attached component in both phases.
"""

import pytest

from repro.sim.clock import Clock, ClockedComponent
from repro.sim.kernel import Simulator


class Both(ClockedComponent):
    def __init__(self):
        self.calls = []

    def sample(self):
        self.calls.append("sample")

    def commit(self):
        self.calls.append("commit")


class SampleOnly(ClockedComponent):
    def __init__(self):
        self.samples = 0

    def sample(self):
        self.samples += 1


class CommitOnly(ClockedComponent):
    def __init__(self):
        self.commits = 0

    def commit(self):
        self.commits += 1


class Inert(ClockedComponent):
    """Inherits both no-op phases."""


class DuckTyped:
    """A ``Clocked`` object without the base class."""

    def __init__(self):
        self.calls = []

    def sample(self):
        self.calls.append("sample")

    def commit(self):
        self.calls.append("commit")


class RecordingProbe:
    def __init__(self):
        self.seen = []

    def begin(self, component, phase, now):
        self.seen.append((phase, component))

    def end(self):
        pass


def owners(phase_list):
    return [method.__self__ for method in phase_list]


@pytest.fixture
def clock():
    return Clock(Simulator(use_fastpath=False), freq_hz=100e6)


def test_attach_and_detach_rebuild_the_tuples(clock):
    first, second = Both(), Both()
    assert clock.samplers == () and clock.committers == ()
    clock.attach(first)
    clock.attach(second)
    assert isinstance(clock.samplers, tuple)
    assert owners(clock.samplers) == [first, second]
    assert owners(clock.committers) == [first, second]
    clock.detach(first)
    assert owners(clock.samplers) == [second]
    assert owners(clock.committers) == [second]


def test_inherited_noop_phases_are_dropped(clock):
    inert = Inert()
    clock.attach(inert)
    assert clock.components == [inert]
    assert clock.samplers == () and clock.committers == ()


def test_sample_only_override_appears_only_in_samplers(clock):
    sampler, committer = SampleOnly(), CommitOnly()
    clock.attach(sampler)
    clock.attach(committer)
    assert owners(clock.samplers) == [sampler]
    assert owners(clock.committers) == [committer]


def test_duck_typed_component_appears_in_both(clock):
    duck = DuckTyped()
    clock.attach(duck)
    assert owners(clock.samplers) == [duck]
    assert owners(clock.committers) == [duck]


@pytest.mark.parametrize("fastpath", [True, False], ids=["fastpath", "heap"])
def test_edges_call_the_phase_lists(fastpath):
    sim = Simulator(use_fastpath=fastpath)
    clock = Clock(sim, freq_hz=100e6)
    sampler, committer, duck = SampleOnly(), CommitOnly(), DuckTyped()
    for component in (sampler, Inert(), committer, duck):
        clock.attach(component)
    clock.start()
    sim.run_until(50_000)  # five 10 ns edges
    assert clock.cycles == 5
    assert sampler.samples == 5 and committer.commits == 5
    assert duck.calls == ["sample", "commit"] * 5


def test_phase_probe_brackets_every_component_in_both_phases(clock):
    components = [Both(), SampleOnly(), CommitOnly(), Inert(), DuckTyped()]
    for component in components:
        clock.attach(component)
    probe = RecordingProbe()
    clock.sim.phase_probe = probe
    clock.start()
    clock.sim.run_until(10_000)  # one edge
    assert probe.seen == [("sample", c) for c in components] + [
        ("commit", c) for c in components
    ]
