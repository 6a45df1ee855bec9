"""Compiled-schedule fast path for pure clock-edge run windows.

The event-heap kernel spends most of a steady-state cycle on bookkeeping:
per edge it pops a sample :class:`~repro.sim.kernel.Event`, allocates and
pushes a commit event plus the next edge event, draws three sequence
numbers and re-reads the clock's period through the full derivation-graph
property chain.  None of that is observable behaviour -- only the order in
which component ``sample``/``commit`` callbacks run is.

:class:`FastPathEngine` exploits that: when the head of the queue is a
periodic clock edge, it *adopts* every pending edge event (removing them
from the heap), compiles the merged edge schedule of all adopted clocks
into a hyperperiod slot table (integer-ps offsets), and dispatches the
sample-then-commit phases instant by instant in a tight loop.  The engine
reproduces the heap kernel bit for bit:

* sequence numbers are drawn from the simulator's own counter in exactly
  the order ``Clock._edge`` would draw them (commit seq, then next-edge
  seq, per clock in pending-edge seq order),
* ``events_processed`` advances by one per virtual sample and one per
  virtual commit,
* clocks due at the same instant dispatch in pending-edge seq order, and
* the moment anything non-periodic intrudes -- a callback schedules an
  event, a clock is gated/ungated, a BUFGMUX reselect bumps
  :data:`~repro.sim.kernel.CLOCK_EPOCH`, or a phase probe appears -- the
  engine reconstructs the exact heap state the classic kernel would have
  had at that point and returns control to it.

An instant calls each due clock's phase lists
(:attr:`~repro.sim.clock.Clock.samplers`, then
:attr:`~repro.sim.clock.Clock.committers`), so inherited no-op phases
cost nothing.  Once a window's pass order has settled (see
:meth:`FastPathEngine._plan`), each slot's group of clocks is compiled
once, in dispatch order, instead of being filtered and sorted at every
instant.

Windows bounded by a ``run_until`` target or by the earliest non-edge
event never dispatch past either bound, so ``PRIORITY_NORMAL`` timers,
DMA/ICAP completions and software steps interleave with clock edges in
the same total order as before.

Out-of-band frequency mutation (anything other than ``Bufgmux.select``)
must bump ``CLOCK_EPOCH[0]`` or the fast path may keep dispatching on the
stale period; all shipped clocking primitives do this already.

Steady-state replay.  Many windows are periodic: during a Section V
reconfiguration the RSB clocks tick with nothing to do, and a steady
stream moves one word per cycle through registered switch boxes, which
makes the whole path a delay line.  Every :data:`SKIP_CHECK_PASSES`
whole passes the table dispatcher checks first whether every adopted
component is ``quiescent()``: if so, the idle window is skipped at once
(all but the last whole pass, each component's ``idle_advance`` adding
its idle counters).  Otherwise it may start an *observation* -- at the
first such check, then after twice as many checks each time one fails.
At each pass boundary an observation records the tuple of every adopted
component's ``steady_key()`` (its control state without payload; see
:class:`~repro.sim.clock.ClockedComponent` for the contract) plus a flat
snapshot of the counters they declare.  When the tuple repeats after
P <= :data:`MAX_PERIOD_PASSES` passes, the counter deltas over those P
passes are one period's, and all but the last whole period left before
the window limit are *replayed* in one step; that last period and any
partial tail are dispatched normally.  Replaying K periods applies
exactly what dispatching them would have:

* payload moves through :class:`Stage` delay lines, each writer before
  its reader: a FIFO or a channel's forward registers pass on the oldest
  K x delta of (current contents + words entering) and keep the rest in
  the same valid positions; a module runs ``process`` over its input in
  order behind its in-flight word and ahead of its pending outputs; a
  source pulls its words before anything else mutates and hands back
  any surplus, so the source runs dry on the edge the heap kernel sees;
* every declared counter, histogram bucket included, advances by
  K x delta;
* per pending edge a time shift of K x P hyperperiods and a seq shift of
  K x P x D, where D = 2 x (edges per pass) is what one pass draws; the
  same draws, two events per edge and the edge count on the simulator
  and on this engine; and ``now`` at the last replayed instant.

An idle window is the zero-word P = 1 case of the same step; the
``quiescent()`` shortcut only reaches it sooner and cheaper (one check,
no observed pass), and ``_advance`` does the kernel arithmetic of both.
The seq shift is exact: an undisturbed pass dispatches the same
edges every time, and ties at a shared instant sort by the seq each
clock drew at its previous edge -- for clocks of different periods that
is the order of those edges' times, and same-period, same-phase clocks
keep the order they started in -- so every pass after the first draws
its sequence numbers in the same pattern.  The first observation comes
after ``SKIP_CHECK_PASSES`` >= 2 passes, once every pending seq was drawn
inside the window, so the period a replay extrapolates from is always a
periodic one.  Components without ``steady_key``/``quiescent``
(duck-typed ones), and subclasses that override ``sample`` or ``commit``
without redefining them, are never replayed or skipped.
"""

from __future__ import annotations

from heapq import heapify, heappush
from itertools import count
from math import gcd
from operator import attrgetter
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

from repro.sim.kernel import (
    CLOCK_EPOCH,
    PRIORITY_COMMIT,
    PRIORITY_SAMPLE,
    Event,
    SimulationError,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle is runtime-lazy
    from repro.sim.clock import Clock
    from repro.sim.fifo import SyncFifo
    from repro.sim.kernel import Simulator

#: Hyperperiod tables with more merged edges than this fall back to the
#: scan dispatcher (min over live next-edge times each instant).  Keeps
#: pathological frequency ratios from compiling megabyte tables.
MAX_TABLE_EDGES = 4096

#: Whole hyperperiods dispatched between two quiescence checks, each of
#: which may start a replay observation.  The first check therefore
#: comes after the second full pass of a window, once the pass order is
#: periodic (see the module docstring).
SKIP_CHECK_PASSES = 16

#: Longest period, in passes, an observation looks for.
MAX_PERIOD_PASSES = 4

#: Periods a replay applies per step; bounds its payload lists.
REPLAY_CHUNK = 2048

_BY_SEQ = attrgetter("seq")


class Stage(NamedTuple):
    """One payload mover of steady-state replay.

    ``replay(r)`` moves the words of ``r.periods`` periods from the FIFO
    ``reads`` (None for a source) through the owner's own delay lines into
    ``writes`` (None for a sink), using :meth:`Replay.take` and
    :meth:`Replay.feed`.  A source also has ``pull(r)``: it fetches its
    words for ``r.periods`` periods before anything mutates and returns
    how many whole periods it could supply; the engine lowers
    ``r.periods`` to the least of them, and ``replay`` hands any surplus
    back to the source.
    """

    reads: Optional["SyncFifo"]
    writes: Optional["SyncFifo"]
    replay: Callable[["Replay"], None]
    pull: Optional[Callable[["Replay"], int]] = None


class Replay:
    """What a :class:`Stage` sees of one replay step."""

    __slots__ = ("periods", "span", "_delta", "_moves", "_fed")

    def __init__(
        self,
        periods: int,
        span: int,
        delta: Dict[Tuple[int, str], int],
        moves: Dict[Any, int],
    ) -> None:
        #: whole periods this step replays
        self.periods = periods
        #: length of one period in ps
        self.span = span
        self._delta = delta
        self._moves = moves
        self._fed: Dict[Any, List[Any]] = {}

    def per_period(self, obj: Any, name: str) -> int:
        """One period's delta of the declared counter ``obj.name``."""
        return self._delta.get((id(obj), name), 0)

    def feed(self, fifo: "SyncFifo", words: List[Any]) -> None:
        """The words a writer pushes into ``fifo``, oldest first."""
        self._fed[fifo] = words

    def take(self, fifo: "SyncFifo") -> List[Any]:
        """The words leaving ``fifo`` while the fed ones enter it."""
        words = self._fed.pop(fifo, [])
        if len(words) != self.periods * self._moves.get(fifo, 0):
            raise SimulationError(
                f"steady replay fed {len(words)} words into {fifo.name}, "
                f"expected {self.periods * self._moves.get(fifo, 0)}"
            )
        return fifo.replay(words)


class _Layout:
    """The replay view of the adopted components, built as an
    observation starts."""

    __slots__ = ("keys", "fields", "hists", "fifo_at", "stages", "_order")

    def __init__(self) -> None:
        #: bound ``steady_key`` of every adopted component
        self.keys: List[Callable[[], Any]] = []
        #: ``(object, attribute)`` of every counter, flat
        self.fields: List[Tuple[Any, str]] = []
        #: bound occupancy histograms of the stage FIFOs (their ``count``
        #: and ``sum`` are in :attr:`fields`)
        self.hists: List[Any] = []
        #: each stage FIFO and the index of its ``pushes`` (``pops``
        #: follows)
        self.fifo_at: List[Tuple[Any, int]] = []
        #: every component's stages
        self.stages: List[Stage] = []
        self._order: Any = None

    def order(self, moves: Dict[Any, int]) -> Optional[List[Stage]]:
        """:attr:`stages` with each FIFO's writer before its reader, or
        None when there is no such order (a cycle, two writers or readers
        on one FIFO) or a FIFO in ``moves`` lacks a writer or a reader."""
        if self._order is None:
            self._order = _writers_first(self.stages)
        if not self._order:
            return None
        order, linked = self._order
        if any(fifo not in linked for fifo in moves):
            return None
        return order

    @classmethod
    def build(cls, states: List["_ClockState"]) -> Optional["_Layout"]:
        layout = cls()
        stages: List[Stage] = []
        for st in states:
            for component in st.clock.components:
                key = getattr(component, "steady_key", None)
                if key is None:
                    return None
                layout.keys.append(key)
                for obj, names in component.steady_counters():
                    layout.fields.extend((obj, name) for name in names)
                stages.extend(component.steady_stages())
        layout.stages = stages
        fifos: Dict[Any, None] = {}
        for stage in stages:
            for fifo in (stage.reads, stage.writes):
                if fifo is not None:
                    fifos[fifo] = None
        fields = layout.fields
        for fifo in fifos:
            layout.fifo_at.append((fifo, len(fields)))
            fields += [(fifo, "pushes"), (fifo, "pops")]
            hist = fifo._occ_hist
            if hist is not None:
                layout.hists.append(hist)
                fields += [(hist, "count"), (hist, "sum")]
        return layout


def _writers_first(stages: List[Stage]) -> Any:
    """``(order, linked)``: ``stages`` with each FIFO's writer before its
    reader, and the FIFOs that have both; False when there is no order."""
    writer: Dict[Any, Stage] = {}
    reader: Dict[Any, Stage] = {}
    for stage in stages:
        for fifo, ends in ((stage.writes, writer), (stage.reads, reader)):
            if fifo is not None:
                if fifo in ends:
                    return False
                ends[fifo] = stage
    order: List[Stage] = []
    placed: set = set()
    pending = list(stages)
    while pending:
        waiting = []
        for stage in pending:
            upstream = writer.get(stage.reads)
            if upstream is None or id(upstream) in placed:
                order.append(stage)
                placed.add(id(stage))
            else:
                waiting.append(stage)
        if len(waiting) == len(pending):
            return False  # a cycle
        pending = waiting
    return order, {fifo for fifo in writer if fifo in reader}


class _ClockState:
    """Mutable fast-path shadow of one adopted clock's pending edge."""

    __slots__ = ("clock", "next_time", "seq", "period", "commit_seq", "enabled")

    def __init__(
        self, clock: "Clock", next_time: int, seq: int, period: int
    ) -> None:
        self.clock = clock
        #: Absolute time of the pending (virtual) edge event.
        self.next_time = next_time
        #: Sequence number the pending edge event holds / would hold.
        self.seq = seq
        #: Cached ``clock.period_ps``; refreshed when CLOCK_EPOCH moves.
        self.period = period
        #: Seq drawn for the commit phase of the instant being dispatched.
        self.commit_seq = 0
        self.enabled = True


class FastPathEngine:
    """Dispatches pure clock-edge windows without touching the event heap.

    One engine is owned by at most one :class:`Simulator`; it is inert
    (and free) until :meth:`try_run` finds an adoptable window.
    """

    __slots__ = (
        "sim",
        "_active",
        "_states",
        "_bail_flag",
        "_windows",
        "_edges",
        "_bails",
        "_skipped",
        "_layout",
        "_memo_key",
        "_memo_slots",
        "_memo_hyper",
    )

    def __init__(self, sim: "Simulator") -> None:
        self.sim = sim
        self._active = False
        self._states: List[_ClockState] = []
        self._bail_flag = False
        self._windows = 0
        self._edges = 0
        self._bails = 0
        self._skipped = 0
        #: the running observation's :class:`_Layout`, False when some
        #: adopted component cannot be replayed
        self._layout: Any = False
        self._memo_key: Optional[Tuple[Tuple[int, int], ...]] = None
        self._memo_slots: Optional[List[Tuple[int, List[int]]]] = None
        self._memo_hyper = 0

    # ------------------------------------------------------------------
    # public surface used by Simulator / Clock
    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, int]:
        """Counters: windows adopted, edges dispatched, early bails, and
        how many of those edges steady-state replay advanced without
        dispatching them (idle ones and ones that moved words)."""
        return {
            "windows": self._windows,
            "edges": self._edges,
            "bails": self._bails,
            "skipped": self._skipped,
        }

    def owns(self, clock: Any) -> bool:
        """True while ``clock``'s pending edge lives inside this engine."""
        if not self._active:
            return False
        for st in self._states:
            if st.clock is clock:
                return True
        return False

    def on_gate(self, clock: Any, enabled: bool) -> None:
        """Handle ``Clock.set_enabled`` for an adopted clock mid-window.

        Mirrors the heap kernel exactly: disabling drops the pending
        (virtual) edge; enabling draws a fresh sequence number and
        schedules the next edge one freshly-read period from now.  Either
        way the compiled slot table is stale, so the window bails once the
        current instant completes.
        """
        sim = self.sim
        for st in self._states:
            if st.clock is clock:
                if enabled:
                    st.seq = next(sim._seq)
                    st.period = clock.period_ps
                    st.next_time = sim._now + st.period
                    st.enabled = True
                else:
                    st.enabled = False
                self._bail_flag = True
                return

    # ------------------------------------------------------------------
    # window entry
    # ------------------------------------------------------------------
    def try_run(self, target: Optional[int]) -> bool:
        """Adopt and dispatch a clock-edge window, if one exists.

        ``target`` bounds the window (inclusive); ``None`` means run until
        the earliest non-edge event intrudes (used by
        :meth:`Simulator.fast_forward`).  Returns True if at least one
        edge was dispatched; on False the queue is untouched.
        """
        sim = self.sim
        if self._active or sim.phase_probe is not None:
            return False
        queue = sim._queue
        edge_events: List[Event] = []
        horizon: Optional[int] = None
        for event in queue:
            if event.cancelled:
                continue
            if event.clock is not None:
                edge_events.append(event)
            elif horizon is None or event.time < horizon:
                horizon = event.time
        if not edge_events:
            return False
        if horizon is not None:
            limit = horizon - 1 if target is None else min(int(target), horizon - 1)
        elif target is None:
            return False  # unbounded window with nothing to stop it
        else:
            limit = int(target)
        first_edge = min(event.time for event in edge_events)
        if first_edge > limit:
            return False

        # Adopt: strip the edge events (and any cancelled carcasses) from
        # the heap; everything else stays put and bounds the window.
        queue[:] = [e for e in queue if e.clock is None and not e.cancelled]
        heapify(queue)
        states = []
        for event in edge_events:
            clock = event.clock
            clock._next_edge_event = None
            states.append(
                _ClockState(clock, event.time, event.seq, clock.period_ps)
            )
        states.sort(key=_BY_SEQ)
        self._states = states
        self._active = True
        self._bail_flag = False
        self._windows += 1
        try:
            slots, hyper = self._compile(states, first_edge)
            if slots is None:
                self._scan_window(limit)
            else:
                self._table_window(limit, slots, hyper, first_edge)
        finally:
            self._active = False
            self._states = []
        return True

    # ------------------------------------------------------------------
    # schedule compilation
    # ------------------------------------------------------------------
    def _compile(
        self, states: List[_ClockState], t0: int
    ) -> Tuple[Optional[List[Tuple[int, List[int]]]], int]:
        """Merge the adopted clocks' edge grids into one hyperperiod table.

        Returns ``(slots, hyperperiod)`` where ``slots`` is a sorted list
        of ``(offset_from_t0, state_indices)``; ``(None, 0)`` selects the
        scan dispatcher for oversized tables.  Clock ``i`` fires exactly at
        times congruent to ``next_time_i`` modulo ``period_i``, so the
        per-index ``(period, (next_time - t0) % period)`` pairs fully
        determine the table -- they double as a memo key so back-to-back
        windows of an unchanged clock set skip recompilation.
        """
        key = tuple(
            (st.period, (st.next_time - t0) % st.period) for st in states
        )
        if key == self._memo_key:
            return self._memo_slots, self._memo_hyper
        hyper = 1
        for st in states:
            hyper = hyper * st.period // gcd(hyper, st.period)
        total_edges = sum(hyper // st.period for st in states)
        if total_edges > MAX_TABLE_EDGES:
            self._memo_key = None
            return None, 0
        slot_map: Dict[int, List[int]] = {}
        for index, st in enumerate(states):
            offset = (st.next_time - t0) % st.period
            for k in range(hyper // st.period):
                slot_map.setdefault(offset + k * st.period, []).append(index)
        slots = sorted(slot_map.items())
        self._memo_key = key
        self._memo_slots = slots
        self._memo_hyper = hyper
        return slots, hyper

    # ------------------------------------------------------------------
    # dispatchers
    # ------------------------------------------------------------------
    def _table_window(
        self,
        limit: int,
        slots: List[Tuple[int, List[int]]],
        hyper: int,
        t0: int,
    ) -> None:
        """Hot loop: walk the slot table cycle by cycle up to ``limit``.

        Each pass dispatches the compiled groups of :meth:`_plan` once it
        returns them; until then every instant filters and sorts its due
        clocks.

        Every :data:`SKIP_CHECK_PASSES` whole passes, if all adopted
        components are quiescent, all but the last whole pass left before
        ``limit`` are skipped by :meth:`_skip_idle`.  Otherwise an
        observation may start (:meth:`_observe`): at the first such check,
        then after twice as many checks each time one fails.  When it
        finds a period, all but the last whole period left are replayed.
        """
        states = self._states
        last_offset = slots[-1][0]
        cycle = t0
        passes = 0
        checks = 0
        backoff = 1
        watch: Optional[List[Any]] = None
        plan = None
        while True:
            if watch is None and passes == SKIP_CHECK_PASSES:
                passes = 0
                whole = (limit - cycle + 1) // hyper
                if whole > 1 and self._quiescent():
                    self._skip_idle(whole - 1, cycle, hyper, last_offset)
                    cycle += (whole - 1) * hyper
                else:
                    checks += 1
                    if checks >= backoff and whole > 2:
                        checks = 0
                        watch = []
            if watch is not None:
                advanced = self._observe(watch, cycle, hyper, limit, last_offset)
                if advanced:
                    watch = None
                    if advanced > 0:
                        cycle += advanced * hyper
                    else:
                        backoff *= 2
            passes += 1
            if plan is None:
                plan = self._plan(slots, cycle)
            if plan is not None:
                for offset, group in plan:
                    t = cycle + offset
                    if t > limit:
                        self._finish([])
                        return
                    if not self._dispatch_instant(t, group):
                        return
                cycle += hyper
                continue
            for offset, indices in slots:
                t = cycle + offset
                if t > limit:
                    self._finish([])
                    return
                due = [
                    states[i]
                    for i in indices
                    if states[i].enabled and states[i].next_time == t
                ]
                if len(due) > 1:
                    due.sort(key=_BY_SEQ)
                if due and not self._dispatch_instant(t, due):
                    return
            cycle += hyper

    def _plan(
        self, slots: List[Tuple[int, List[int]]], cycle: int
    ) -> Optional[List[Tuple[int, Tuple[_ClockState, ...]]]]:
        """Compile each slot's dispatch group for the pass starting at
        ``cycle``, or None while the per-instant filter is still needed.

        A pending edge's seq is drawn at its clock's previous edge, one
        period before it fires.  So at an instant shared by several
        clocks, the clock of the longest period drew first, and clocks of
        equal period (hence equal phase) keep the order they are in now.
        That makes each slot's group and order fixed for the rest of an
        undisturbed window -- any gate or epoch change ends it -- provided
        that every clock's next edge falls in this pass (so every slot of
        the pass finds it due) and that the seqs drawn before this pass
        are ordered like the times ``next_time - period`` they were drawn
        at (not so after a BUFGMUX reselect changed a pending period).
        """
        states = self._states
        for st in states:
            if not (st.enabled and cycle <= st.next_time < cycle + st.period):
                return None
        drawn = [st.next_time - st.period for st in sorted(states, key=_BY_SEQ)]
        if any(later < earlier for earlier, later in zip(drawn, drawn[1:])):
            return None
        return [
            (
                offset,
                tuple(
                    sorted(
                        (states[i] for i in indices),
                        key=lambda st: (-st.period, st.seq),
                    )
                ),
            )
            for offset, indices in slots
        ]

    # ------------------------------------------------------------------
    # steady-state replay
    # ------------------------------------------------------------------
    def _quiescent(self) -> bool:
        """True when every component on every adopted clock is idle."""
        for st in self._states:
            for component in st.clock.components:
                quiescent = getattr(component, "quiescent", None)
                if quiescent is None or not quiescent():
                    return False
        return True

    def _skip_idle(
        self, passes: int, cycle: int, hyper: int, last_offset: int
    ) -> None:
        """The zero-word shortcut: ``passes`` quiescent hyperperiods from
        ``cycle``, with each component's idle counters advanced by
        ``idle_advance``."""
        span = passes * hyper
        for st in self._states:
            for component in st.clock.components:
                component.idle_advance(span // st.period)
        self._advance(passes, cycle, hyper, last_offset)

    def _observe(
        self,
        watch: List[Any],
        cycle: int,
        hyper: int,
        limit: int,
        last_offset: int,
    ) -> int:
        """Record the pass boundary at ``cycle``; replay if periodic.

        Returns the passes replayed (> 0), 0 to keep watching, or -1 when
        the observation failed.
        """
        if not watch:
            self._layout = _Layout.build(self._states) or False
        layout = self._layout
        if not layout:
            return -1
        keys = tuple([key() for key in layout.keys])
        if None in keys:
            return -1
        values = [getattr(obj, name) for obj, name in layout.fields]
        buckets = [tuple(hist.counts) for hist in layout.hists]
        watch.append((keys, values, buckets))
        last = len(watch) - 1
        for first in range(last - 1, max(-1, last - 1 - MAX_PERIOD_PASSES), -1):
            if watch[first][0] == keys:
                return self._replay(
                    layout, watch[first], watch[last], last - first,
                    cycle, hyper, limit, last_offset,
                )
        if last >= MAX_PERIOD_PASSES or (limit - cycle + 1) // hyper < 2:
            return -1
        return 0

    def _replay(
        self,
        layout: _Layout,
        then: Tuple[Any, List[int], List[Tuple[int, ...]]],
        now: Tuple[Any, List[int], List[Tuple[int, ...]]],
        period: int,
        cycle: int,
        hyper: int,
        limit: int,
        last_offset: int,
    ) -> int:
        """Replay all but the last whole ``period``-pass period left
        before ``limit``, given the boundary records one period apart.
        Returns the passes replayed, or -1 when there is nothing to do or
        the words move where no stage can carry them."""
        span = period * hyper
        total = (limit - cycle + 1) // span - 1
        if total < 1:
            return -1
        fields = layout.fields
        delta = [b - a for a, b in zip(then[1], now[1])]
        moves: Dict[Any, int] = {}
        for fifo, at in layout.fifo_at:
            if delta[at] or delta[at + 1]:
                if delta[at] != delta[at + 1]:
                    return -1
                moves[fifo] = delta[at]
        stages: List[Stage] = []
        if moves:
            order = layout.order(moves)
            if order is None:
                return -1
            stages = order
        steps = [(obj, name, d) for (obj, name), d in zip(fields, delta) if d]
        bucket_steps = [
            (hist.counts, [b - a for a, b in zip(old, new)])
            for hist, old, new in zip(layout.hists, then[2], now[2])
            if old != new
        ]
        lookup = {(id(obj), name): d for obj, name, d in steps} if moves else {}
        done = 0
        while done < total:
            periods = total - done
            if moves:  # in steps, so the payload lists stay bounded
                want = min(REPLAY_CHUNK, periods)
                step = Replay(want, span, lookup, moves)
                for stage in stages:
                    if stage.pull is not None:
                        step.periods = min(step.periods, stage.pull(step))
                for stage in stages:
                    stage.replay(step)
                periods = step.periods
                if periods < want:
                    total = done + periods  # a source ran dry
            for obj, name, d in steps:
                setattr(obj, name, getattr(obj, name) + periods * d)
            for counts, diffs in bucket_steps:
                for index, d in enumerate(diffs):
                    if d:
                        counts[index] += periods * d
            done += periods
        if not done:
            return -1
        self._advance(done * period, cycle, hyper, last_offset)
        return done * period

    def _advance(
        self, passes: int, cycle: int, hyper: int, last_offset: int
    ) -> None:
        """Move the schedule ``passes`` hyperperiods on from ``cycle``.

        Applies what dispatching them would have to the kernel: per clock
        its cycles; per pending edge a time shift of ``passes * hyper``
        and a seq shift of ``passes * D``, where D = 2 x edges per pass
        is what one pass draws; the same draws, two events per edge and
        the edge count on the simulator and on this engine; and ``now``
        at the last advanced instant.
        """
        sim = self.sim
        span = passes * hyper
        edges = sum(span // st.period for st in self._states)
        draws = 2 * edges
        for st in self._states:
            st.clock.cycles += span // st.period
            st.next_time += span
            st.seq += draws
        sim._seq = count(next(sim._seq) + draws)
        sim.events_processed += draws
        sim._now = cycle + span - hyper + last_offset
        self._edges += edges
        self._skipped += edges

    def _scan_window(self, limit: int) -> None:
        """Fallback dispatcher: find each next instant by scanning states."""
        states = self._states
        while True:
            t = -1
            for st in states:
                if st.enabled and (t < 0 or st.next_time < t):
                    t = st.next_time
            if t < 0 or t > limit:
                self._finish([])
                return
            due = [st for st in states if st.enabled and st.next_time == t]
            if len(due) > 1:
                due.sort(key=_BY_SEQ)
            if not self._dispatch_instant(t, due):
                return

    def _dispatch_instant(self, t: int, due: Sequence[_ClockState]) -> bool:
        """Run one merged instant ``t`` exactly as the heap kernel would.

        ``due`` holds the states whose virtual edge fires at ``t`` (a
        compiled slot group or the filtered list), in pending-seq order.
        Returns False when the window bailed (heap state already
        reconstructed), True to keep dispatching.
        """
        sim = self.sim
        queue = sim._queue
        base_len = len(queue)
        seq_counter = sim._seq
        epoch = CLOCK_EPOCH
        window_epoch = epoch[0]
        sim._now = t
        pending: List[_ClockState] = []
        samples_run = 0
        for st in due:
            # Re-check: an earlier callback this instant may have gated or
            # re-phased this clock (heap kernel: cancelled its edge event).
            if not st.enabled or st.next_time != t:
                continue
            clock = st.clock
            clock.cycles += 1
            samplers = clock.samplers
            for sample in samplers:
                sample()
            st.commit_seq = next(seq_counter)
            if st.enabled:  # a sample callback may have gated *this* clock
                st.seq = next(seq_counter)
                if epoch[0] != window_epoch:
                    # BUFGMUX reselect mid-instant: Clock._edge would read
                    # the new period when scheduling the next edge.
                    st.period = clock.period_ps
                    self._bail_flag = True
                st.next_time = t + st.period
            pending.append(st)
            samples_run += 1
            if samplers and len(queue) != base_len:
                self._edges += samples_run
                sim.events_processed += samples_run
                self._bail(t, pending)
                return False
        self._edges += samples_run
        if sim.phase_probe is not None:
            # A sample callback attached a probe; commits must run
            # bracketed, which only the heap kernel does.
            sim.events_processed += samples_run
            self._bail(t, pending)
            return False
        commits_run = 0
        for index, st in enumerate(pending):
            committers = st.clock.committers
            for commit in committers:
                commit()
            commits_run += 1
            if committers and len(queue) != base_len:
                sim.events_processed += samples_run + commits_run
                self._bail(t, pending[index + 1 :])
                return False
        sim.events_processed += samples_run + commits_run
        if self._bail_flag or epoch[0] != window_epoch:
            self._bail(t, [])
            return False
        return True

    # ------------------------------------------------------------------
    # heap-state reconstruction
    # ------------------------------------------------------------------
    def _bail(self, t: int, pending: List[_ClockState]) -> None:
        self._bails += 1
        self._finish(pending, t)

    def _finish(
        self, pending: List[_ClockState], t: Optional[int] = None
    ) -> None:
        """Rebuild the exact heap the classic kernel would have right now.

        ``pending`` lists states whose sample phase ran at instant ``t``
        but whose commit has not -- their commit events are pushed with the
        sequence numbers already drawn for them.  Every live state gets its
        pending edge event back (same time, same seq), re-linking
        ``Clock._next_edge_event`` so heap-path gating works again.
        """
        queue = self.sim._queue
        for st in pending:
            heappush(
                queue,
                Event(t, PRIORITY_COMMIT, st.commit_seq, st.clock._commit_phase),
            )
        for st in self._states:
            clock = st.clock
            if st.enabled:
                event = Event(
                    st.next_time, PRIORITY_SAMPLE, st.seq, clock._edge
                )
                event.clock = clock
                heappush(queue, event)
                clock._next_edge_event = event
            else:
                clock._next_edge_event = None
