"""Helpers shared by the runner, the sweep and the compare tool.

Every end-to-end timed value is reported in *reference seconds* by one
rule (the per-layer timers of a traced run stay in raw CPU time).  While
a workload is measured, a daemon thread runs a fixed probe every
``TICK_S`` (:class:`Timeline`).  A value measured over an interval is
scaled by the mean probe speed of the ticks around and inside it, one
tick before to one tick after, against :data:`PROBE_REF`::

    reference seconds = raw seconds x mean(probe speeds around it) / PROBE_REF

On the shared 2-vCPU host the seed numbers come from, other tenants slow
the CPU by up to 1.8x, switching within a second, which moves raw times
by 15-35% from run to run.  The probe is a JSON round trip of a small
job report (:func:`probe_rate`).  Of the probes tried, it is the one
whose speed every workload's follows: across runs, the log-log slope of
a workload's raw time on the probe's speed is 0.90-1.05 (1 is exact
tracking), where a tight attribute-and-list loop gets 0.79-0.98.

The raw clock is the process CPU clock (:func:`cpu_clock`) for slices
that only compute, so that time the host gives to other tenants does not
count, and the wall clock for slices that wait on threads or sockets
(the HTTP workload), because waiting is part of what a client sees.
Either way the interval is located on the wall clock to pick its ticks,
and the time the probe itself ran inside it is taken out first: the
process is pinned to one CPU and holds one interpreter lock, so the
program stands still while the probe runs.  Left in, a tick landing
inside an HTTP job added 1.4-3.8 ms to its median latency, and such
jobs, a sixth of all, made up 38-52% of those beyond the p90.

The probe lives here rather than being imported from ``repro.bench``:
every commit has to be measured with the same yardstick, so nothing the
benchmark normalises by may come from the code under test.
"""

from __future__ import annotations

import contextlib
import gc
import json
import resource
import statistics
import threading
from bisect import bisect_left, bisect_right
from pathlib import Path
from time import monotonic, process_time, thread_time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

HERE = Path(__file__).resolve().parent
SPEC_PATH = HERE.parent / "BENCHMARK.json"

#: JSON round trips of one probe (~1 ms, so a tick barely delays the
#: work it interrupts).  Fixed: changing it changes every reference value.
PROBE_ROUND_TRIPS = 10
#: Wall seconds between probes.
TICK_S = 0.1
#: Wall seconds between probes while a workload sets up, which takes a
#: tenth of a second to a second: enough ticks to average.
SETUP_TICK_S = 0.02
#: Round trips per CPU second that define one reference second: the
#: full-speed probe rate of the host the seed numbers were taken on, so
#: values there read close to raw times.  Fixed for the same reason.
PROBE_REF = 10_000.0
#: The probe's document: a batch report of 20 jobs, each with a short
#: list of output words, as the serving stack writes them.
_PROBE_DOC = {
    "jobs": [
        {"name": f"job-{i}", "state": "DONE", "words_lost": 0,
         "words": list(range(i, i + 20))}
        for i in range(20)
    ]
}


def load_spec() -> Dict:
    """The benchmark definition (``BENCHMARK.json`` beside this package)."""
    return json.loads(SPEC_PATH.read_text())


def cpu_clock() -> float:
    """CPU seconds used by this process's threads and reaped children."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return process_time() + children.ru_utime + children.ru_stime


def probe_rate() -> float:
    """Current host speed in JSON round trips per CPU second of this thread."""
    start = thread_time()
    for _ in range(PROBE_ROUND_TRIPS):
        json.loads(json.dumps(_PROBE_DOC))
    return PROBE_ROUND_TRIPS / max(thread_time() - start, 1e-9)


class Timeline:
    """The host's speed over (wall) time, probed by a daemon thread.

    Read :meth:`scale` once the ``with`` block has ended, so that every
    interval has its closing tick.
    """

    def __init__(self, tick_s: float = TICK_S) -> None:
        self.tick_s = tick_s
        #: wall start and end of every tick, and the probe speed it read
        self._starts: List[float] = []
        self._times: List[float] = []
        self._rates: List[float] = []
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    def __enter__(self) -> "Timeline":
        self._tick()
        self._thread = threading.Thread(
            target=self._run, name="perfbench-timeline", daemon=True
        )
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()
        self._tick()

    def _run(self) -> None:
        while not self._stop.wait(self.tick_s):
            self._tick()

    def _tick(self) -> None:
        start = monotonic()
        rate = probe_rate()
        self._starts.append(start)
        self._times.append(monotonic())
        self._rates.append(rate)

    def busy(self, start: float, end: float) -> float:
        """Wall seconds of ``[start, end]`` in which the probe ran."""
        total = 0.0
        for tick in range(bisect_right(self._times, start), len(self._times)):
            if self._starts[tick] >= end:
                break
            total += min(self._times[tick], end) - max(self._starts[tick], start)
        return total

    def scale(self, start: float, end: float) -> float:
        """Reference seconds per raw second over the wall interval
        ``[start, end]``: the mean speed of the ticks from one before it
        to one after it, over ``PROBE_REF``."""
        first = max(bisect_left(self._times, start) - 1, 0)
        last = bisect_right(self._times, end) + 1
        return statistics.fmean(self._rates[first:last]) / PROBE_REF


class Meter:
    """Times slices of work against a :class:`Timeline`.

    ``slice()`` collects garbage, then times its block on ``clock`` and
    on the wall clock; the span it yields gets its reference ``seconds``
    when the meter's ``with`` block ends, as does :meth:`reference`.
    """

    def __init__(self) -> None:
        self.timeline = Timeline()
        self._spans: List[dict] = []
        #: reference seconds of every slice (the trace-overhead base)
        self.ref_s = 0.0
        #: wall seconds of the same slices, for the record only
        self.wall_s = 0.0

    def __enter__(self) -> "Meter":
        self.timeline.__enter__()
        return self

    def __exit__(self, *exc) -> None:
        self.timeline.__exit__(*exc)
        for span in self._spans:
            span["seconds"] = self.reference(
                span["start"], span["end"], span["raw"]
            )
            self.ref_s += span["seconds"]
            self.wall_s += span["end"] - span["start"]

    def reference(self, start: float, end: float,
                  raw: Optional[float] = None) -> float:
        """Reference seconds of the wall interval ``[start, end]``, timed
        ``raw`` seconds on its own clock (by default the wall clock)."""
        if raw is None:
            raw = end - start
        timeline = self.timeline
        return (raw - timeline.busy(start, end)) * timeline.scale(start, end)

    def discard(self, span: dict) -> None:
        """Leave a slice that is run again out of the totals."""
        self._spans.remove(span)

    @contextlib.contextmanager
    def slice(self, clock: Callable[[], float] = cpu_clock):
        gc.collect()
        span = {"start": monotonic()}
        begin = clock()
        yield span
        span["raw"] = clock() - begin
        span["end"] = monotonic()
        self._spans.append(span)


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def tail(values: Sequence[float]) -> Tuple[float, float]:
    """The highest percentile, at most p90, with at least ten samples
    beyond it, and which one.

    Capping at p90 keeps a tenth of the samples beyond the tail however
    many there are, so a larger count steadies the value instead of
    pushing it further out.  With fewer than eleven samples no such
    percentile exists; the maximum (percentile 100) stands in, which only
    smoke-sized runs hit.
    """
    ordered = sorted(values)
    count = len(ordered)
    if count < 11:
        return float(ordered[-1]), 100.0
    beyond = max(10, count // 10)
    return float(ordered[count - 1 - beyond]), 100.0 * (count - beyond) / count


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(q1, median, q3) exactly as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) < 2:
        value = float(values[0])
        return value, value, value
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3
