"""Compiled-schedule fast path for clock-edge run windows.

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
* the moment anything non-periodic intrudes -- an edge callback schedules
  an event, a clock is gated/ungated, a BUFGMUX reselect bumps
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

Foreign events.  The events left in the heap -- ``PRIORITY_NORMAL``
timers, DMA/ICAP completions, MicroBlaze software steps -- do not end a
window.  Before dispatching an instant, the engine pops and runs every
live one due before it, in heap order, each after the sample and commit
phases of its own instant, with ``now`` at its time and one more
processed event; the events it schedules bound the window anew.  A
window ends at its ``run_until`` target (or, for
:meth:`~repro.sim.kernel.Simulator.fast_forward`, once its ``stop``
predicate holds after an event, or when no event is left), and before
any event that sorts among the edge phases of an instant (a
``PRIORITY_SAMPLE``/``PRIORITY_COMMIT`` callback) or that the caller
wants to run itself (``fast_forward`` without ``stop``).  An event that
gates an adopted clock, bumps ``CLOCK_EPOCH``, installs a phase probe or
starts a clock the window did not adopt ends it, with the heap rebuilt,
right after that event.  The slot table and the compiled plan outlive the
events: none of them changes a pending edge's time or the order of the
pending seqs.  A callback must not run the simulator itself
(``run_until``, ``step``): inside a window the adopted edges are not in
the heap.

Out-of-band frequency mutation (anything other than ``Bufgmux.select``)
must bump ``CLOCK_EPOCH[0]`` or the fast path may keep dispatching on the
stale period; all shipped clocking primitives do this already.

Steady-state replay.  Many windows are periodic: during a Section V
reconfiguration the RSB clocks tick with nothing to do, and a steady
stream moves one word per cycle through registered switch boxes, which
makes the whole path a delay line.  Two whole passes after a window
starts and after each foreign event, and then every
:data:`SKIP_CHECK_PASSES` whole passes, the table dispatcher checks
whether every adopted component is ``quiescent()``: if so, the idle
stretch up to the next event or the target is skipped at once (all but
the last whole pass, each component's ``idle_advance`` adding its idle
counters).  Otherwise each of the later checks may start an
*observation* -- the first one, then after twice as many checks each
time one fails.  A foreign event ends an observation and restarts this
cadence, so no replayed period contains one.

*Period search.*  At each pass boundary an observation records the tuple
of every adopted component's ``steady_key()`` (its control state without
payload; see :class:`~repro.sim.clock.ClockedComponent` for the
contract), each FIFO's occupancy and a flat snapshot of the counters the
components declare.  A key holds a FIFO's occupancy only as the FIFO
itself (:meth:`~repro.sim.fifo.SyncFifo.steady_key`), so the tuple is
the *control* part of the state and the occupancies are read beside it.
The observation maps each tuple to the pass it was seen at last; every
earlier pass with the same tuple, at most :data:`MAX_PERIOD_PASSES`
back, is a candidate period P, shortest first.  It holds only the last
:data:`HISTORY_PASSES` records, sliding forward past a start-up
transient instead of giving up, and fails after :data:`OBSERVE_PASSES`
passes without a replay.

*Drift.*  When every occupancy is also equal P passes apart the state
repeats, and all but the last whole period left before the window
limit are *replayed* in one step.  Otherwise each FIFO's occupancy
moves by some d_i per period -- a slow stage filling its input, a
source filling its FIFO against back-pressure, a chain draining.  Such a
period is accepted when the control part and every d_i, counter delta
and histogram-bucket delta repeat over two periods, and only FIFOs a
stage carries words through drift.  It is the periodic case with a
shift: as long as no edge sees an occupancy on the other side of a
threshold it reads, every edge decides as it did one period earlier.

*Bounds.*  So a drifting replay stops early.  Within each pass of the
last period a FIFO's occupancy stays within the pass boundary's minus
that pass's pops and plus its pushes; each replayed period repeats that
excursion d_i further on.  K periods are replayed only while every
drifting FIFO's excursions stay between the same two of its
thresholds: empty, the feedback-full threshold
(``capacity - almost_full_slack``), full and each
``repro_fifo_occupancy`` bucket bound (see :func:`_drift_bound`).
After a replay cut short by such a bound, dispatching resumes and the
observation starts over, so the next segment of a ramp replays too.

Replaying K periods applies exactly what dispatching them would have:

* payload moves through :class:`Stage` delay lines, each writer before
  its reader: a FIFO takes K x pushes words at its tail and gives up
  its K x pops oldest; a channel's forward registers pass on the oldest
  words of (in-flight + words entering) and keep the rest in the same
  valid positions; a module runs ``process`` over its input in order
  behind its in-flight word and ahead of its pending outputs; a source
  pulls its words before anything else mutates and hands back any
  surplus, so the source runs dry on the edge the heap kernel sees;
* every declared counter and histogram bucket advances by K x delta; a
  histogram's ``sum`` by K x its last period's delta plus
  d x pushes x K(K+1)/2, since each period's pushes land d words
  higher; a rising FIFO that raised its ``max_occupancy`` in the last
  period raises it by K x d;
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
its sequence numbers in the same pattern.  A foreign event that lands
mid-pass draws seqs of its own, so the pending seqs follow that pattern
again only once a whole pass has run after it.  Every check therefore
comes at least two whole passes after the window started or after the
last event (the first observation after ``SKIP_CHECK_PASSES`` >= 2), so
the period a replay extrapolates from is always a periodic one.
Components without ``steady_key``/``quiescent`` (duck-typed ones), and
subclasses that override ``sample`` or ``commit`` without redefining
them, are never replayed or skipped.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from heapq import heapify, heappop, heappush
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
from repro.sim.fifo import SyncFifo

if TYPE_CHECKING:  # pragma: no cover - import cycle is runtime-lazy
    from repro.sim.clock import Clock
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

#: Longest period, in passes, an observation looks for.  A credit loop
#: held at its feedback-full threshold repeats every 14 passes.
MAX_PERIOD_PASSES = 16

#: Pass records an observation holds: enough to see two periods of the
#: longest length, as a drifting period needs.  Older ones slide out.
HISTORY_PASSES = 2 * MAX_PERIOD_PASSES + 1

#: Passes an observation sees without a replay before it gives up (and
#: the next one waits twice as many checks).
OBSERVE_PASSES = 4 * MAX_PERIOD_PASSES

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
        moves: Dict[Any, Tuple[int, int]],
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
        """The words leaving ``fifo`` while the fed ones enter it; a
        drifting FIFO lets a different number leave than enter."""
        words = self._fed.pop(fifo, [])
        pushes, pops = self._moves.get(fifo, (0, 0))
        if len(words) != self.periods * pushes:
            raise SimulationError(
                f"steady replay fed {len(words)} words into {fifo.name}, "
                f"expected {self.periods * pushes}"
            )
        return fifo.replay(words, self.periods * pops)


class _Layout:
    """The replay view of the adopted components, built as an
    observation starts."""

    __slots__ = (
        "keys", "fields", "fifos", "tracked", "checked", "fifo_at", "hists",
        "hist_of", "stages", "_order",
    )

    def __init__(self) -> None:
        #: bound ``steady_key`` of every adopted component
        self.keys: List[Callable[[], Any]] = []
        #: ``(object, attribute)`` of every counter, flat: the declared
        #: ones, then each stage FIFO's ``pushes`` and ``pops``, then each
        #: occupancy histogram's ``count`` (its ``sum`` drifts, see
        #: :meth:`FastPathEngine._replay`)
        self.fields: List[Tuple[Any, str]] = []
        #: every FIFO whose occupancy a key holds or a stage moves words
        #: through, stage FIFOs first; a key holds it as the FIFO itself
        #: (:meth:`~repro.sim.fifo.SyncFifo.steady_key`)
        self.fifos: List["SyncFifo"] = []
        self.tracked: set = set()
        #: key tuples seen to hold no FIFO outside :attr:`tracked`
        self.checked: set = set()
        #: each stage FIFO's index in :attr:`fifos` and the index of its
        #: ``pushes`` in :attr:`fields` (``pops`` follows)
        self.fifo_at: List[Tuple[int, int]] = []
        #: the bound occupancy histograms, each once
        self.hists: List[Any] = []
        #: per FIFO, the index of its histogram in :attr:`hists` or -1
        self.hist_of: List[int] = []
        #: every component's stages
        self.stages: List[Stage] = []
        self._order: Any = None

    def order(self, moves: Dict[Any, Tuple[int, int]]) -> Optional[List[Stage]]:
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
        for index, fifo in enumerate(fifos):
            layout.fifo_at.append((index, len(fields)))
            fields += [(fifo, "pushes"), (fifo, "pops")]
        keys = tuple([key() for key in layout.keys])
        fifos.update(_fifos_in(keys, {}))
        layout.checked.add(keys)
        layout.fifos = list(fifos)
        layout.tracked = set(fifos)
        hists: Dict[int, int] = {}
        for fifo in layout.fifos:
            hist = fifo._occ_hist
            if hist is None:
                layout.hist_of.append(-1)
                continue
            if id(hist) not in hists:
                hists[id(hist)] = len(layout.hists)
                layout.hists.append(hist)
                fields.append((hist, "count"))
            layout.hist_of.append(hists[id(hist)])
        return layout


def _fifos_in(key: Any, found: Dict[Any, None]) -> Dict[Any, None]:
    """Add to ``found`` every FIFO a (nested tuple) key holds."""
    for part in key:
        if type(part) is tuple:
            _fifos_in(part, found)
        elif isinstance(part, SyncFifo):
            found[part] = None
    return found


class _Record(NamedTuple):
    """One pass boundary as an observation saw it."""

    #: every component's ``steady_key()``, FIFOs standing in for their
    #: occupancies
    keys: Tuple[Any, ...]
    #: occupancy and ``max_occupancy`` of each :attr:`_Layout.fifos`
    occupancy: List[int]
    tops: List[int]
    #: :attr:`_Layout.fields` values
    values: List[int]
    #: bucket counts and ``sum`` of each :attr:`_Layout.hists`
    buckets: List[Tuple[int, ...]]
    sums: List[Any]
    #: the pass this key was seen at last, or -1
    prev: int


class _Watch:
    """A running observation: the pass records of the last
    :data:`HISTORY_PASSES` passes, and where each key was seen last."""

    __slots__ = ("layout", "passes", "records", "seen", "resume")

    def __init__(self) -> None:
        self.layout: Any = None
        #: passes observed since the observation (re)started
        self.passes = 0
        self.records: Dict[int, _Record] = {}
        self.seen: Dict[Any, int] = {}
        #: whether the last replay stopped at a FIFO bound, so the
        #: observation goes on after it
        self.resume = False

    def restart(self) -> None:
        self.passes = 0
        self.records = {}
        self.seen = {}


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


def _deltas(old: List[Any], new: List[Any]) -> List[Any]:
    return [b - a for a, b in zip(old, new)]


def _bucket_deltas(old: _Record, new: _Record) -> List[List[int]]:
    return [_deltas(a, b) for a, b in zip(old.buckets, new.buckets)]


def _excursion(passes: List[_Record], index: int, at: int) -> Tuple[int, int]:
    """Bounds on the occupancy of stage FIFO ``index`` (``pushes`` at
    field ``at``) at any instant of the period whose pass boundaries are
    ``passes``: within a pass it starts at the boundary's and moves by at
    most that pass's pushes up and pops down."""
    low = high = passes[0].occupancy[index]
    for begin, end in zip(passes, passes[1:]):
        occupancy = begin.occupancy[index]
        pushes = end.values[at] - begin.values[at]
        pops = end.values[at + 1] - begin.values[at + 1]
        low = min(low, occupancy - pops)
        high = max(high, occupancy + pushes)
    return max(0, low), high


def _drift_bound(
    fifo: "SyncFifo", drift: int, low: int, high: int, topped: bool
) -> int:
    """The most periods a FIFO whose occupancy moves by ``drift`` per
    period may be replayed, given that it stayed within ``[low, high]``
    during the last period, and whether that period raised its
    ``max_occupancy``.

    Each later period repeats the last one's excursion ``drift`` further
    on.  Every edge decides the same as long as all those occupancies lie
    between the same two thresholds: empty, the feedback-full threshold
    (``capacity - almost_full_slack``), full, each
    ``repro_fifo_occupancy`` bucket bound, and -- rising without having
    raised ``max_occupancy`` in the last period -- the maximum so far.
    0 when the last period's excursion already spans one.
    """
    capacity = fifo.capacity
    floor = 0
    ceiling = capacity
    for edge in (1, capacity - fifo.almost_full_slack, capacity):
        if edge <= low:
            floor = max(floor, edge)
        else:
            ceiling = min(ceiling, edge - 1)
    if fifo._occ_hist is not None:
        table = fifo._occ_buckets
        bucket = table[low]
        floor = max(floor, bisect_left(table, bucket))
        ceiling = min(ceiling, bisect_right(table, bucket) - 1)
    if drift > 0 and not topped:
        ceiling = min(ceiling, fifo.max_occupancy)
    if high > ceiling:
        return 0
    if drift > 0:
        return (ceiling - high) // drift
    return (low - floor) // -drift


def _limit(
    head: Optional[Event], target: Optional[int], inline: bool
) -> Optional[int]:
    """The last instant a window may dispatch before the earliest live
    foreign event ``head`` runs: ``head``'s own instant when it is run
    inline and sorts after that instant's edge phases, else the instant
    before; never past ``target``.  None when nothing bounds the window."""
    if head is None:
        return target
    bound = head.time
    if not inline or head.priority <= PRIORITY_COMMIT:
        bound -= 1
    return bound if target is None else min(target, bound)


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
    """Dispatches clock-edge windows from a slot table, not the event heap.

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
        "_inlined",
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
        self._inlined = 0
        self._memo_key: Optional[Tuple[Tuple[int, int], ...]] = None
        self._memo_slots: Optional[List[Tuple[int, List[int]]]] = None
        self._memo_hyper = 0

    # ------------------------------------------------------------------
    # public surface used by Simulator / Clock
    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, int]:
        """Counters: windows adopted, edges dispatched, early bails, how
        many of those edges steady-state replay advanced without
        dispatching them (idle ones and ones that moved words), and the
        foreign events run inside a window."""
        return {
            "windows": self._windows,
            "edges": self._edges,
            "bails": self._bails,
            "skipped": self._skipped,
            "inlined": self._inlined,
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
    def try_run(
        self,
        target: Optional[int],
        stop: Optional[Callable[[], bool]] = None,
    ) -> bool:
        """Adopt and dispatch a clock-edge window, if one exists.

        ``target`` bounds the window (inclusive).  With a target or a
        ``stop`` predicate, the window runs the foreign (non-edge) events
        that fall due inside it in their heap order (see
        :meth:`_run_foreign`) and ends early once ``stop()`` is true
        after one of them; with neither it ends before the earliest
        foreign event (:meth:`Simulator.fast_forward` without ``stop``).
        Returns True if at least one edge was dispatched; on False the
        queue is untouched.
        """
        sim = self.sim
        if self._active or sim.phase_probe is not None:
            return False
        queue = sim._queue
        edge_events: List[Event] = []
        head: Optional[Event] = None
        for event in queue:
            if event.cancelled:
                continue
            if event.clock is not None:
                edge_events.append(event)
            elif head is None or event < head:
                head = event
        if not edge_events:
            return False
        limit = _limit(head, target, target is not None or stop is not None)
        if limit is None:
            return False  # unbounded window with nothing to stop it
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
                self._scan_window(limit, target, stop)
            else:
                self._table_window(limit, slots, hyper, first_edge, target, stop)
        finally:
            self._active = False
            self._states = []
        return True

    def _run_foreign(
        self, t: int, target: Optional[int], stop: Optional[Callable[[], bool]]
    ) -> int:
        """Run every foreign event due before instant ``t`` of the window.

        Called when ``t`` lies past the window's limit.  Each event runs
        as the heap kernel's ``step`` would run it, with ``now`` at its
        time and one more processed event, and in heap order: the window
        dispatched an instant at an event's own time only if the event
        sorts after that instant's edge phases (see :func:`_limit`).
        Cancelled carcasses are dropped.  Returns the new limit, or -1
        once the window ended with the heap state rebuilt: at the target,
        without a target or ``stop``, or when an event gated an adopted
        clock, bumped ``CLOCK_EPOCH``, installed a phase probe, started a
        clock the window did not adopt, or made ``stop()`` true.
        """
        sim = self.sim
        queue = sim._queue
        if (target is None and stop is None) or (
            target is not None and t > target
        ):
            self._finish([])
            return -1
        while queue and queue[0].time < t:
            event = heappop(queue)
            if event.cancelled:
                continue
            epoch = CLOCK_EPOCH[0]
            sim._now = event.time
            try:
                event.callback()
            except BaseException:
                self._finish([])
                raise
            sim.events_processed += 1
            self._inlined += 1
            if (
                self._bail_flag
                or CLOCK_EPOCH[0] != epoch
                or sim.phase_probe is not None
                or any(e.clock is not None for e in queue)
            ):
                self._bail(event.time, [])
                return -1
            if stop is not None and stop():
                self._finish([])
                return -1
        while queue and queue[0].cancelled:
            heappop(queue)
        limit = _limit(queue[0] if queue else None, target, True)
        if limit is None or limit < t:
            self._finish([])
            return -1
        return limit

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
        target: Optional[int],
        stop: Optional[Callable[[], bool]],
    ) -> None:
        """Hot loop: walk the slot table cycle by cycle.

        Each pass dispatches the compiled groups of :meth:`_plan` once it
        returns them; until then every instant filters and sorts its due
        clocks.  An instant past ``limit`` first runs the foreign events
        due before it (:meth:`_run_foreign`), which moves the limit on or
        ends the window.

        Two whole passes after the window starts and after each foreign
        event, and then every :data:`SKIP_CHECK_PASSES` whole passes, if
        all adopted components are quiescent, all but the last whole pass
        left before ``limit`` are skipped by :meth:`_skip_idle`.
        Otherwise each of the later checks may start an observation
        (:meth:`_observe`): the first one, then after twice as many checks
        each time one fails.  When it finds a period, all but the last
        whole period left are replayed, or fewer when a FIFO drifts,
        after which the observation goes on.  A foreign event ends the
        observation and restarts this cadence, so no replayed period
        contains one.
        """
        states = self._states
        last_offset = slots[-1][0]
        cycle = t0
        passes = 0
        probed = False
        checks = 0
        backoff = 1
        watch: Optional[_Watch] = None
        plan = None
        while True:
            if watch is None and (
                passes >= SKIP_CHECK_PASSES or (passes == 2 and not probed)
            ):
                probed = True
                whole = (limit - cycle + 1) // hyper
                if whole > 1 and self._quiescent():
                    self._skip_idle(whole - 1, cycle, hyper, last_offset)
                    cycle += (whole - 1) * hyper
                    passes = 0
                elif passes >= SKIP_CHECK_PASSES:
                    passes = 0
                    checks += 1
                    if checks >= backoff and whole > 2:
                        checks = 0
                        watch = _Watch()
            if watch is not None:
                advanced = self._observe(watch, cycle, hyper, limit, last_offset)
                if advanced > 0:
                    cycle += advanced * hyper
                    if not watch.resume:
                        watch = None
                elif advanced < 0:
                    watch = None
                    backoff *= 2
            passes += 1
            if plan is None:
                plan = self._plan(slots, cycle)
            groups = plan
            if groups is None:
                groups = [
                    (offset, tuple([states[i] for i in indices]))
                    for offset, indices in slots
                ]
            for offset, group in groups:
                t = cycle + offset
                if t > limit:
                    limit = self._run_foreign(t, target, stop)
                    if limit < 0:
                        return
                    # seqs drawn before the event are off the pass
                    # pattern until one whole pass has run
                    passes = checks = 0
                    backoff = 1
                    probed = False
                    watch = None
                if plan is None:
                    group = tuple(
                        sorted(
                            [st for st in group if st.enabled and st.next_time == t],
                            key=_BY_SEQ,
                        )
                    )
                    if not group:
                        continue
                if not self._dispatch_instant(t, group):
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
        watch: _Watch,
        cycle: int,
        hyper: int,
        limit: int,
        last_offset: int,
    ) -> int:
        """Record the pass boundary at ``cycle``; replay if periodic.

        Looks the keys up among the passes the observation still holds;
        each earlier pass with the same keys, at most
        :data:`MAX_PERIOD_PASSES` back, is a candidate period (shortest
        first) for :meth:`_replay`.  Returns the passes replayed (> 0), 0
        to keep watching, or -1 when the observation failed: it saw
        :data:`OBSERVE_PASSES` passes without a replay, or fewer than two
        whole passes are left.
        """
        layout = watch.layout
        if layout is None:
            layout = watch.layout = _Layout.build(self._states) or False
        if not layout:
            return -1
        keys = tuple([key() for key in layout.keys])
        if None in keys:
            return -1
        fifos = layout.fifos
        hists = layout.hists
        records = watch.records
        n = watch.passes
        first = watch.seen.get(keys, -1)
        now = _Record(
            keys,
            [len(fifo._data) for fifo in fifos],
            [fifo.max_occupancy for fifo in fifos],
            [getattr(obj, name) for obj, name in layout.fields],
            [tuple(hist.counts) for hist in hists],
            [hist.sum for hist in hists],
            first,
        )
        records[n] = now
        records.pop(n - HISTORY_PASSES, None)
        watch.seen[keys] = n
        watch.passes = n + 1
        while first >= 0 and n - first <= MAX_PERIOD_PASSES:
            advanced, bounded = self._replay(
                layout, records, first, n, cycle, hyper, limit, last_offset
            )
            if advanced:
                watch.resume = bounded
                if bounded:
                    watch.restart()
                return advanced
            first = records[first].prev
        if watch.passes >= OBSERVE_PASSES or (limit - cycle + 1) // hyper < 2:
            return -1
        return 0

    def _replay(
        self,
        layout: _Layout,
        records: Dict[int, _Record],
        first: int,
        last: int,
        cycle: int,
        hyper: int,
        limit: int,
        last_offset: int,
    ) -> Tuple[int, bool]:
        """Replay K whole periods of P = ``last - first`` passes, given
        the records of every pass from ``first`` to ``last`` (whose keys
        are equal) and of the pass a period before ``first``, if the
        observation still holds it.

        With every occupancy equal at ``then`` and ``now`` the state
        repeats, and K is all but the last whole period left before
        ``limit``.  Otherwise the FIFOs drift: the period is accepted
        only when ``earlier`` has the same keys and every occupancy,
        counter and bucket moved by the same amount over both periods,
        and K is further bounded by :func:`_drift_bound`.  Returns the
        passes replayed -- 0 when this is no period to replay (yet), -1
        when there is nothing to do or the words move where no stage can
        carry them -- and whether a drift bound cut the replay short.
        """
        period = last - first
        then = records[first]
        now = records[last]
        earlier = records.get(first - period)
        fifos = layout.fifos
        drift = [b - a for a, b in zip(then.occupancy, now.occupancy)]
        drifting = any(drift)
        if drifting and (
            earlier is None
            or earlier.keys != now.keys
            or drift != [b - a for a, b in zip(earlier.occupancy, then.occupancy)]
            or _deltas(earlier.values, then.values)
            != _deltas(then.values, now.values)
            or _bucket_deltas(earlier, then) != _bucket_deltas(then, now)
        ):
            return 0, False
        if now.keys not in layout.checked:
            # a key's shape can change inside a window (a module halts)
            if not _fifos_in(now.keys, {}).keys() <= layout.tracked:
                return -1, False
            layout.checked.add(now.keys)
        span = period * hyper
        total = (limit - cycle + 1) // span - 1
        if total < 1:
            return -1, False
        fields = layout.fields
        delta = _deltas(then.values, now.values)
        moves: Dict[Any, Tuple[int, int]] = {}
        pushes = [0] * len(fifos)
        for index, at in layout.fifo_at:
            push, pop = delta[at], delta[at + 1]
            if push - pop != drift[index]:
                return -1, False  # cleared, or moved by something else
            if push or pop:
                moves[fifos[index]] = (push, pop)
                pushes[index] = push
        if any(drift[len(layout.fifo_at) :]):
            return -1, False  # words pile up where no stage carries them
        # a histogram's sum grows by d x pushes more in each period
        bounded = False
        growth = [0] * len(layout.hists)
        for index, hist in enumerate(layout.hist_of):
            if hist >= 0:
                growth[hist] += drift[index] * pushes[index]
        sums = _deltas(then.sums, now.sums)
        if drifting:
            if _deltas(_deltas(earlier.sums, then.sums), sums) != growth:
                return 0, False
            passes = [records[p] for p in range(first, last + 1)]
            for index, at in layout.fifo_at:
                d = drift[index]
                if d:
                    low, high = _excursion(passes, index, at)
                    bound = _drift_bound(
                        fifos[index], d, low, high,
                        now.tops[index] > then.tops[index],
                    )
                    if bound < total:
                        total = bound
                        bounded = True
            if total < 1:
                return 0, False
        stages: List[Stage] = []
        if moves:
            order = layout.order(moves)
            if order is None:
                return -1, False
            stages = order
        steps = [(obj, name, d) for (obj, name), d in zip(fields, delta) if d]
        lookup = {(id(obj), name): d for obj, name, d in steps} if moves else {}
        done = 0
        while moves and done < total:  # in steps, so payload lists stay bounded
            want = min(REPLAY_CHUNK, total - done)
            step = Replay(want, span, lookup, moves)
            for stage in stages:
                if stage.pull is not None:
                    step.periods = min(step.periods, stage.pull(step))
            for stage in stages:
                stage.replay(step)
            done += step.periods
            if step.periods < want:
                total = done  # a source ran dry
                bounded = False
        if not moves:
            done = total
        if not done:
            return -1, False
        for obj, name, d in steps:
            setattr(obj, name, getattr(obj, name) + done * d)
        for hist, old, new, base, more in zip(
            layout.hists, then.buckets, now.buckets, sums, growth
        ):
            if old != new:
                counts = hist.counts
                for index, (a, b) in enumerate(zip(old, new)):
                    if a != b:
                        counts[index] += done * (b - a)
            if base or more:
                hist.sum += done * base + more * done * (done + 1) // 2
        for index, d in enumerate(drift):
            if d > 0 and now.tops[index] > then.tops[index]:
                fifos[index].max_occupancy += done * d
        self._advance(done * period, cycle, hyper, last_offset)
        return done * period, bounded

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

    def _scan_window(
        self, limit: int, target: Optional[int], stop: Optional[Callable[[], bool]]
    ) -> None:
        """Fallback dispatcher: find each next instant by scanning states,
        running foreign events as :meth:`_table_window` does."""
        states = self._states
        while True:
            t = -1
            for st in states:
                if st.enabled and (t < 0 or st.next_time < t):
                    t = st.next_time
            if t < 0:
                self._finish([])
                return
            if t > limit:
                limit = self._run_foreign(t, target, stop)
                if limit < 0:
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
