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

Quiescence skip-ahead.  Many edges in a window move nothing: during a
Section V reconfiguration the RSB clocks keep ticking, and executor
quanta end in idle tails.  Every :data:`SKIP_CHECK_PASSES` whole passes
the table dispatcher asks each component on each adopted clock whether it
is ``quiescent()``.  If all are, it advances every whole pass but the last
one before the window limit in one arithmetic step; that last pass and
any partial tail are dispatched normally.  The step stays bit-identical:

* ``quiescent()`` guarantees that, while every other adopted component
  is quiescent too, the component's ``sample``/``commit`` change nothing
  but the counters ``idle_advance(n)`` applies for ``n`` edges, and that
  its answer does not depend on those counters, so one check covers every
  skipped edge.  Components without the method, and subclasses that
  override ``sample`` or ``commit`` without redefining it, are never
  skipped (see :class:`~repro.sim.clock.ClockedComponent`).
* The seq shift over one pass is exact.  An undisturbed pass dispatches
  the same edges every time, and ties at a shared instant sort by the seq
  each clock drew at its previous edge: for clocks of different periods
  that is the order of those edges' times, and same-period, same-phase
  clocks keep the order they started in.  So every pass after the first
  draws its D = 2 x (edges per pass) sequence numbers in the same
  pattern, and skipping k passes adds k*D to each pending edge's seq and
  to the simulator's counter (plus k*D events processed).
* Skipping starts only after one full pass.  The first pass of a window
  may order ties by seqs drawn before the window (a clock ungated from a
  commit callback, say); once it has run, every pending seq was drawn
  inside the window.  The first check comes after
  ``SKIP_CHECK_PASSES`` >= 2 passes, so the pass a skip extrapolates
  from is always a periodic one.
"""

from __future__ import annotations

from heapq import heapify, heappush
from itertools import count
from math import gcd
from operator import attrgetter
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence, Tuple

from repro.sim.kernel import (
    CLOCK_EPOCH,
    PRIORITY_COMMIT,
    PRIORITY_SAMPLE,
    Event,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle is runtime-lazy
    from repro.sim.clock import Clock
    from repro.sim.kernel import Simulator

#: Hyperperiod tables with more merged edges than this fall back to the
#: scan dispatcher (min over live next-edge times each instant).  Keeps
#: pathological frequency ratios from compiling megabyte tables.
MAX_TABLE_EDGES = 4096

#: Whole hyperperiods dispatched between two quiescence checks.  The
#: first check therefore comes after the second full pass of a window,
#: once the pass order is periodic (see the module docstring).
SKIP_CHECK_PASSES = 16

_BY_SEQ = attrgetter("seq")


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
        self._memo_key: Optional[Tuple[Tuple[int, int], ...]] = None
        self._memo_slots: Optional[List[Tuple[int, List[int]]]] = None
        self._memo_hyper = 0

    # ------------------------------------------------------------------
    # public surface used by Simulator / Clock
    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, int]:
        """Counters: windows adopted, edges dispatched, early bails, and
        how many of those edges skip-ahead advanced arithmetically."""
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
        ``limit`` are advanced arithmetically by :meth:`_skip_ahead`.
        """
        states = self._states
        cycle = t0
        passes = 0
        plan = None
        while True:
            if passes == SKIP_CHECK_PASSES:
                passes = 0
                skip = (limit - cycle + 1) // hyper - 1
                if skip > 0 and self._quiescent():
                    self._skip_ahead(skip, cycle, hyper, slots[-1][0])
                    cycle += skip * hyper
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

    def _quiescent(self) -> bool:
        """True when every component on every adopted clock is idle."""
        for st in self._states:
            for component in st.clock.components:
                quiescent = getattr(component, "quiescent", None)
                if quiescent is None or not quiescent():
                    return False
        return True

    def _skip_ahead(
        self, passes: int, cycle: int, hyper: int, last_offset: int
    ) -> None:
        """Advance ``passes`` quiescent hyperperiods from ``cycle`` at once.

        Applies exactly what dispatching them would have: per clock its
        cycles and its components' idle counters; per pending edge a time
        shift of ``passes * hyper`` and a seq shift of ``passes * D``,
        where D = 2 x edges per pass is what one pass draws; the same
        draws, two events per edge and the edge count on the simulator
        and on this engine; and ``now`` at the last skipped instant.
        """
        sim = self.sim
        span = passes * hyper
        edges = sum(span // st.period for st in self._states)
        draws = 2 * edges
        for st in self._states:
            clock = st.clock
            ticks = span // st.period
            clock.cycles += ticks
            for component in clock.components:
                component.idle_advance(ticks)
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
