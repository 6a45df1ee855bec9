"""Clocks and Virtex-4 clocking primitives.

VAPRES gives every PRR its own *local clock domain* (LCD, paper Section
III.B.2): a DCM (plus PMCD dividers) generates a set of candidate
frequencies, a BUFGMUX selects one of them under control of the PRSocket
``CLK_sel`` DCR bit, and a regional clock buffer (BUFR) drives the clock nets
of the (up to three) local clock regions the PRR occupies.  The PRSocket
``CLK_en`` bit gates the BUFR.

This module models that chain behaviourally:

* :class:`ClockSource` subclasses form a frequency-derivation graph
  (:class:`FixedSource` -> :class:`Dcm` -> :class:`Pmcd` ->
  :class:`Bufgmux` -> :class:`Bufr`).
* :class:`Clock` is a leaf that actually schedules edges on the simulator
  and drives attached components with sample/commit phases.

Frequency selection (``Bufgmux.select``) and gating (``Bufr.set_enabled``)
take effect on the next edge, as on the real primitives.
"""

from __future__ import annotations

from typing import (
    Any,
    Callable,
    Hashable,
    List,
    Optional,
    Protocol,
    Sequence,
    Tuple,
    runtime_checkable,
)

from repro.sim.kernel import (
    CLOCK_EPOCH,
    PRIORITY_COMMIT,
    PRIORITY_SAMPLE,
    SimulationError,
    Simulator,
    freq_hz_to_period_ps,
)


@runtime_checkable
class Clocked(Protocol):
    """Protocol for components attached to a :class:`Clock`.

    ``sample`` runs for every component at an edge before any ``commit``
    runs, giving register semantics.  Either method may be a no-op; a
    phase a :class:`ClockedComponent` subclass inherits unchanged (the
    base class's no-op) is never called at all.
    """

    def sample(self) -> None: ...

    def commit(self) -> None: ...


class ClockedComponent:
    """Convenience base class with no-op clock phases.

    :class:`Clock` leaves an inherited no-op phase out of its per-edge
    phase lists, so a component that only commits costs nothing in the
    sample phase (and vice versa).

    The fast path advances a periodic window whole periods at a time
    (steady-state replay, see :mod:`repro.sim.fastpath`).  Two methods
    serve its idle shortcut: ``quiescent()`` may return True only when,
    as long as every other component on every adopted clock is quiescent
    too, each ``sample``/``commit`` would change nothing but the counters
    ``idle_advance(n)`` then adds for ``n`` such edges.  Three serve the
    general case:

    * ``steady_key()`` is the component's control state without payload:
      FSM phase, busy countdowns, valid bits, the
      :meth:`~repro.sim.fifo.SyncFifo.steady_key` of every FIFO it
      touches.  A key may hold a FIFO's occupancy only through that
      method, which stands the FIFO in for it; the replay engine reads
      the occupancies beside the key.  Its contract: while every adopted
      component's key repeats after P passes, and every FIFO occupancy
      either repeats too or moves by the same amount d every period
      (drift), each edge of the next P passes makes the same decisions,
      moves words only as delay lines through the ``steady_stages()``
      and changes nothing else but the ``steady_counters()``, each by
      the same amount every period.  An edge may read an occupancy only
      against the FIFO's thresholds -- empty, full, the feedback-full
      ``capacity - almost_full_slack`` -- so that a drifted occupancy
      decides alike until it crosses one; no counter may steer a
      decision unless it is part of the key.  None (the default) means
      never replay.
    * ``steady_counters()`` lists ``(object, attribute names)`` pairs of
      the integer counters an edge may advance.
    * ``steady_stages()`` lists the :class:`~repro.sim.fastpath.Stage`
      payload movers the component owns.

    A subclass that overrides ``sample`` or ``commit`` without defining
    its own ``quiescent`` or ``steady_key`` falls back to the default
    (False, None) for it.
    """

    def sample(self) -> None:  # pragma: no cover - trivially overridden
        pass

    def commit(self) -> None:  # pragma: no cover - trivially overridden
        pass

    def quiescent(self) -> bool:
        """True when an edge would change nothing but cycle counters."""
        return False

    def idle_advance(self, cycles: int) -> None:
        """Apply the counter updates of ``cycles`` quiescent edges."""

    def steady_key(self) -> Optional[Hashable]:
        """Control state without payload, or None to refuse replay."""
        return None

    def steady_counters(self) -> Sequence[Tuple[Any, Tuple[str, ...]]]:
        """``(object, counter attribute names)`` an edge may advance."""
        return ()

    def steady_stages(self) -> Sequence[Any]:
        """The payload movers (:class:`~repro.sim.fastpath.Stage`)."""
        return ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        own = cls.__dict__
        if "sample" in own or "commit" in own:
            # What the parent says about its edge does not describe this
            # one: never skip or replay the subclass unless it says so.
            for name in ("quiescent", "steady_key"):
                if name not in own:
                    setattr(cls, name, ClockedComponent.__dict__[name])


class ClockSource:
    """A node in the clock-derivation graph.

    Subclasses define :attr:`frequency_hz`.  Sources propagate enable state
    to the :class:`Clock` leaves attached (directly or transitively) below
    them so that gating a BUFR stops exactly the clocks it drives.
    """

    def __init__(self, name: str = "clksrc") -> None:
        self.name = name
        self._clocks: List["Clock"] = []
        self._children: List["ClockSource"] = []

    @property
    def frequency_hz(self) -> float:
        raise NotImplementedError

    def attach_clock(self, clock: "Clock") -> None:
        self._clocks.append(clock)

    def attach_child(self, child: "ClockSource") -> None:
        self._children.append(child)

    def _all_clocks(self) -> List["Clock"]:
        clocks = list(self._clocks)
        for child in self._children:
            clocks.extend(child._all_clocks())
        return clocks

    @property
    def period_ps(self) -> int:
        return freq_hz_to_period_ps(self.frequency_hz)


class FixedSource(ClockSource):
    """A board oscillator or other constant-frequency source."""

    def __init__(self, freq_hz: float, name: str = "osc") -> None:
        super().__init__(name)
        if freq_hz <= 0:
            raise SimulationError("oscillator frequency must be positive")
        self._freq_hz = float(freq_hz)

    @property
    def frequency_hz(self) -> float:
        return self._freq_hz


class _Derived(ClockSource):
    """A source whose frequency is a ratio of its parent's."""

    def __init__(
        self, parent: ClockSource, multiply: float, divide: float, name: str
    ) -> None:
        super().__init__(name)
        if divide <= 0 or multiply <= 0:
            raise SimulationError("clock ratios must be positive")
        self.parent = parent
        self.multiply = float(multiply)
        self.divide = float(divide)
        parent.attach_child(self)

    @property
    def frequency_hz(self) -> float:
        return self.parent.frequency_hz * self.multiply / self.divide


class Dcm:
    """Virtex-4 Digital Clock Manager.

    Exposes the classic DCM outputs as derived :class:`ClockSource` nodes:
    ``clk0`` (pass-through), ``clk2x``, ``clkdv`` (integer or half-integer
    divide) and ``clkfx`` (M/D synthesis, 2 <= M <= 32, 1 <= D <= 32).
    """

    CLKFX_M_RANGE = (2, 32)
    CLKFX_D_RANGE = (1, 32)

    def __init__(self, input_source: ClockSource, name: str = "dcm") -> None:
        self.name = name
        self.input_source = input_source
        self.clk0 = _Derived(input_source, 1, 1, f"{name}.clk0")
        self.clk2x = _Derived(input_source, 2, 1, f"{name}.clk2x")

    def clkdv(self, divide: float) -> ClockSource:
        """Return the CLKDV output for the given divisor (1.5 .. 16)."""
        if not 1.5 <= divide <= 16:
            raise SimulationError(f"DCM CLKDV divide {divide} out of range [1.5,16]")
        return _Derived(self.input_source, 1, divide, f"{self.name}.clkdv{divide:g}")

    def clkfx(self, multiply: int, divide: int) -> ClockSource:
        """Return a synthesized CLKFX output at ``Fin * multiply / divide``."""
        if not self.CLKFX_M_RANGE[0] <= multiply <= self.CLKFX_M_RANGE[1]:
            raise SimulationError(f"DCM CLKFX M={multiply} out of range")
        if not self.CLKFX_D_RANGE[0] <= divide <= self.CLKFX_D_RANGE[1]:
            raise SimulationError(f"DCM CLKFX D={divide} out of range")
        return _Derived(
            self.input_source, multiply, divide, f"{self.name}.fx{multiply}_{divide}"
        )


class Pmcd:
    """Virtex-4 Phase Matched Clock Divider.

    Produces phase-aligned divide-by-1/2/4/8 copies of its input clock; the
    paper uses DCM+PMCD to build the candidate frequency set feeding each
    PRR's BUFGMUX.
    """

    DIVISORS = (1, 2, 4, 8)

    def __init__(self, input_source: ClockSource, name: str = "pmcd") -> None:
        self.name = name
        self.input_source = input_source
        self.clka1 = _Derived(input_source, 1, 1, f"{name}.clka1")
        self.clkdiv2 = _Derived(input_source, 1, 2, f"{name}.div2")
        self.clkdiv4 = _Derived(input_source, 1, 4, f"{name}.div4")
        self.clkdiv8 = _Derived(input_source, 1, 8, f"{name}.div8")

    def outputs(self) -> List[ClockSource]:
        return [self.clka1, self.clkdiv2, self.clkdiv4, self.clkdiv8]


class Bufgmux(ClockSource):
    """Glitch-free 2:1 clock multiplexer.

    The PRSocket DCR ``CLK_sel`` bit drives :meth:`select`; the change takes
    effect at the next edge of the downstream clock, modelling the
    glitch-free switchover of the hardware primitive.
    """

    def __init__(
        self, i0: ClockSource, i1: ClockSource, name: str = "bufgmux"
    ) -> None:
        super().__init__(name)
        self.i0 = i0
        self.i1 = i1
        self._sel = 0
        i0.attach_child(self)
        i1.attach_child(self)

    def select(self, sel: int) -> None:
        if sel not in (0, 1):
            raise SimulationError(f"BUFGMUX select must be 0 or 1, got {sel}")
        if sel != self._sel:
            self._sel = sel
            # Downstream clock periods just changed: force the fast path to
            # re-read them before dispatching any further edges.
            CLOCK_EPOCH[0] += 1

    @property
    def selected(self) -> int:
        return self._sel

    @property
    def frequency_hz(self) -> float:
        return (self.i1 if self._sel else self.i0).frequency_hz


class Bufr(ClockSource):
    """Virtex-4 regional clock buffer.

    A BUFR drives the clock nets of its own local clock region plus the two
    adjacent regions (``MAX_REGION_SPAN`` = 3); the floorplanner in
    :mod:`repro.fabric.floorplan` enforces the resulting 48-CLB PRR height
    limit.  The BUFR's clock-enable input implements the PRSocket ``CLK_en``
    gating bit.
    """

    MAX_REGION_SPAN = 3
    DIVIDE_RANGE = (1, 8)

    def __init__(
        self, input_source: ClockSource, divide: int = 1, name: str = "bufr"
    ) -> None:
        super().__init__(name)
        if not self.DIVIDE_RANGE[0] <= divide <= self.DIVIDE_RANGE[1]:
            raise SimulationError(f"BUFR divide {divide} out of range [1,8]")
        self.input_source = input_source
        self.divide = divide
        self.enabled = True
        input_source.attach_child(self)

    @property
    def frequency_hz(self) -> float:
        return self.input_source.frequency_hz / self.divide

    def set_enabled(self, enabled: bool) -> None:
        """Gate (or ungate) every clock this buffer drives."""
        self.enabled = bool(enabled)
        for clock in self._all_clocks():
            clock.set_enabled(self.enabled)


class Clock:
    """A leaf clock that schedules edges and drives attached components.

    Each edge runs two phases at the same timestamp: all attached
    components' ``sample`` (priority ``PRIORITY_SAMPLE``) then all
    ``commit`` (priority ``PRIORITY_COMMIT``), through the
    :attr:`samplers`/:attr:`committers` phase lists.  A phase probe sees
    every component in both phases, no-ops included.  The period is
    re-read from the source at every edge, so BUFGMUX reselects and BUFR
    divides apply on the following edge exactly as in hardware.
    """

    def __init__(
        self,
        sim: Simulator,
        source: Optional[ClockSource] = None,
        freq_hz: Optional[float] = None,
        name: str = "clk",
    ) -> None:
        if (source is None) == (freq_hz is None):
            raise SimulationError("provide exactly one of source / freq_hz")
        self.sim = sim
        self.name = name
        self.source = source if source is not None else FixedSource(freq_hz, name)
        self.source.attach_clock(self)
        self.components: List[Clocked] = []
        #: bound ``sample``/``commit`` methods an edge calls, in attach
        #: order; rebuilt by attach/detach (see :meth:`_rebuild_phases`)
        self.samplers: Tuple[Callable[[], None], ...] = ()
        self.committers: Tuple[Callable[[], None], ...] = ()
        self.cycles = 0
        self._enabled = True
        self._started = False
        self._next_edge_event = None

    # ------------------------------------------------------------------
    @property
    def frequency_hz(self) -> float:
        return self.source.frequency_hz

    @property
    def period_ps(self) -> int:
        return freq_hz_to_period_ps(self.source.frequency_hz)

    @property
    def enabled(self) -> bool:
        return self._enabled

    def attach(self, component: Clocked) -> None:
        """Register a component to be driven by this clock."""
        self.components.append(component)
        self._rebuild_phases()

    def detach(self, component: Clocked) -> None:
        self.components.remove(component)
        self._rebuild_phases()

    def _rebuild_phases(self) -> None:
        """Recompute :attr:`samplers` and :attr:`committers`.

        A phase a :class:`ClockedComponent` subclass inherits unchanged
        is the base class's no-op and is left out; duck-typed
        :class:`Clocked` objects keep both phases.
        """
        samplers = []
        committers = []
        for component in self.components:
            cls = type(component)
            if getattr(cls, "sample", None) is not ClockedComponent.sample:
                samplers.append(component.sample)
            if getattr(cls, "commit", None) is not ClockedComponent.commit:
                committers.append(component.commit)
        self.samplers = tuple(samplers)
        self.committers = tuple(committers)

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Begin ticking; the first edge occurs one period from now."""
        if self._started:
            return
        self._started = True
        if self._enabled:
            self._schedule_next_edge()

    def set_enabled(self, enabled: bool) -> None:
        """Gate or ungate the clock (PRSocket ``CLK_en`` semantics)."""
        enabled = bool(enabled)
        if enabled == self._enabled:
            return
        self._enabled = enabled
        fastpath = self.sim._fastpath
        if fastpath is not None and fastpath.owns(self):
            # Mid-window gating: the pending edge is virtual, so the fast
            # path updates its shadow state instead of heap events.
            fastpath.on_gate(self, enabled)
            return
        if not enabled:
            if self._next_edge_event is not None:
                self._next_edge_event.cancel()
                self._next_edge_event = None
        elif self._started:
            self._schedule_next_edge()

    # ------------------------------------------------------------------
    def _schedule_next_edge(self) -> None:
        event = self.sim.schedule(
            self.period_ps, self._edge, priority=PRIORITY_SAMPLE
        )
        event.clock = self
        self._next_edge_event = event

    def _edge(self) -> None:
        self._next_edge_event = None
        self.cycles += 1
        probe = self.sim.phase_probe
        if probe is None:
            for sample in self.samplers:
                sample()
        else:
            for component in self.components:
                probe.begin(component, "sample", self.sim.now)
                try:
                    component.sample()
                finally:
                    probe.end()
        self.sim.schedule(0, self._commit_phase, priority=PRIORITY_COMMIT)
        if self._enabled:
            self._schedule_next_edge()

    def _commit_phase(self) -> None:
        probe = self.sim.phase_probe
        if probe is None:
            for commit in self.committers:
                commit()
        else:
            for component in self.components:
                probe.begin(component, "commit", self.sim.now)
                try:
                    component.commit()
                finally:
                    probe.end()

    def __repr__(self) -> str:
        mhz = self.frequency_hz / 1e6
        state = "on" if self._enabled else "gated"
        return f"Clock({self.name}, {mhz:g} MHz, {state}, {self.cycles} cycles)"
