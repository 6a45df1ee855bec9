"""Per-layer attribution for traced runs, taken from outside the program.

Nothing in ``src/repro`` is edited.  Two sources feed the layer metrics:

* **A stack sampler.**  A daemon thread reads every other thread's
  Python stack every millisecond (``sys._current_frames``).  Each
  thread-sample goes to the package of its innermost ``repro/<pkg>/``
  frame, so stdlib code called from a layer counts to that layer.  A
  thread blocked in a select, a queue get, a lock or condition wait or a
  join counts as ``wait``.  Samples with no ``repro`` frame go to
  ``harness`` (this benchmark's own code), ``asyncio`` (event-loop
  dispatch) or ``stdlib``.  Unlike ``cProfile`` it sees every thread and
  adds no per-call cost, so the shares are not skewed toward call-heavy
  code.  While the main thread computes, the sampler only gets the
  interpreter lock every switch interval, which a traced run lowers from
  the default 5 ms to ``SWITCH_INTERVAL_S`` so that a 10 s run gets a few
  thousand samples (~300 ticks/s).
* **Entry-point timers.**  A fixed list of public entry points is
  wrapped on the class or module attribute callers look up, recording
  each outermost call's inclusive CPU time on the calling thread (so a
  device thread waiting for the interpreter lock is not billed); the
  simulator's run methods also record the events and fast-path windows
  they processed.

Workload outcomes supply the rest: counts from the program's own
reports and the pool's NDJSON event stamps.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import threading
from collections import Counter
from time import thread_time
from typing import Callable, Dict, List, Optional, Tuple

from common import HERE, median, tail

#: Packages of ``src/repro`` reported as layers of their own.
LAYERS = (
    "sim", "comm", "modules", "control", "pr", "core", "fabric",
    "runtime", "realtime", "compact", "pool", "obs",
)
#: Every bucket a thread-sample can land in; their shares sum to 1.
#: ``cli`` is ``repro/__main__.py``; ``other`` the remaining packages.
BUCKETS = LAYERS + ("cli", "other", "harness", "asyncio", "stdlib", "wait")

#: Innermost frames of a thread that is blocked rather than running.
_WAIT_FRAMES = frozenset({
    ("threading.py", "wait"),
    ("threading.py", "_wait_for_tstate_lock"),
    ("queue.py", "get"),
    ("selectors.py", "select"),
})
#: asyncio's callback dispatch: reaching it before any repro frame means
#: the sample is event-loop machinery.
_LOOP_FRAMES = frozenset({("events.py", "_run"), ("base_events.py", "_run_once")})

_HARNESS_DIR = str(HERE) + os.sep

#: The interpreter's thread switch interval while tracing.
SWITCH_INTERVAL_S = 0.002

#: (module, class or None, attribute, timer) -- outermost calls only, so
#: an override calling ``super()`` under the same timer counts once.
ENTRY_POINTS = (
    ("repro.core.system", "VapresSystem", "__init__", "core.build"),
    ("repro.pr.reconfig", "ReconfigurationEngine", "array2icap", "pr.reconfig"),
    ("repro.pr.reconfig", "ReconfigurationEngine", "cf2icap", "pr.reconfig"),
    ("repro.runtime.executor", "JobExecutor", "run", "runtime.job_run"),
    ("repro.runtime.admission", "AdmissionController", "enqueue",
     "runtime.admission"),
    ("repro.runtime.admission", "AdmissionController", "next_decision",
     "runtime.admission"),
    ("repro.runtime.executor", "JobExecutor", "suspend_job",
     "realtime.suspend"),
    ("repro.realtime.edf", "EdfExecutor", "suspend_job", "realtime.suspend"),
    ("repro.compact.planner", None, "plan_compaction", "compact.plan"),
    ("repro.pool.devices", "DevicePool", "submit", "pool.submit"),
)
#: Entry points that advance a simulator (the instance, or its ``sim``).
SIM_ENTRY_POINTS = (
    ("repro.sim.kernel", "Simulator", "run_until"),
    ("repro.sim.kernel", "Simulator", "run"),
    ("repro.control.microblaze", "Microblaze", "run_to_completion"),
)


def classify_file(path: str) -> Optional[str]:
    """The layer a source file belongs to, or None outside repro/harness."""
    if path.startswith(_HARNESS_DIR):
        return "harness"
    parts = path.replace("\\", "/").split("/")
    if "repro" not in parts:
        return None
    rest = parts[len(parts) - parts[::-1].index("repro"):]
    if len(rest) == 1:
        return "cli" if rest[0] == "__main__.py" else "other"
    return rest[0]


def classify(frame, cache: Dict[str, Optional[str]]) -> str:
    """File one thread's stack (innermost ``frame``) under a layer name."""
    code = frame.f_code
    if (os.path.basename(code.co_filename), code.co_name) in _WAIT_FRAMES:
        return "wait"
    while frame is not None:
        code = frame.f_code
        path = code.co_filename
        if path not in cache:
            cache[path] = classify_file(path)
        layer = cache[path]
        if layer is not None:
            return layer
        if (
            (os.path.basename(path), code.co_name) in _LOOP_FRAMES
            and "asyncio" in path
        ):
            return "asyncio"
        frame = frame.f_back
    return "stdlib"


def bucket(layer: str) -> str:
    return layer if layer in BUCKETS else "other"


class StackSampler:
    """Counts thread-samples per layer on a daemon thread."""

    def __init__(self, interval_s: float = 0.001) -> None:
        self.interval_s = interval_s
        self.counts: Counter = Counter()
        self.ticks = 0
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    def start(self) -> None:
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._run, name="perfbench-sampler", daemon=True
        )
        self._thread.start()

    def stop(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join()
            self._thread = None

    def _run(self) -> None:
        cache: Dict[str, Optional[str]] = {}
        while not self._stop.wait(self.interval_s):
            # this benchmark's own threads (the sampler, the timeline's
            # probe) are not the program's
            harness = {
                thread.ident for thread in threading.enumerate()
                if thread.name.startswith("perfbench-")
            }
            for ident, frame in sys._current_frames().items():
                if ident not in harness:
                    self.counts[classify(frame, cache)] += 1
            self.ticks += 1


class LayerTrace:
    """Sampler plus entry-point timers, installed for one ``with`` block."""

    def __init__(self) -> None:
        self.sampler = StackSampler()
        #: timer -> inclusive thread CPU seconds of each outermost call
        self.calls: Dict[str, List[float]] = {}
        #: (seconds, events, fast-path windows, fast-path bails) per
        #: outermost simulator run
        self.sim_runs: List[Tuple[float, int, int, int]] = []
        self._local = threading.local()
        self._restore: List[Tuple[object, str, object]] = []

    def __enter__(self) -> "LayerTrace":
        for module, owner, attr, key in ENTRY_POINTS:
            self._patch(module, owner, attr,
                        lambda fn, key=key: self._timed(key, fn))
        for module, owner, attr in SIM_ENTRY_POINTS:
            self._patch(module, owner, attr, self._sim_timed)
        self._switch_interval = sys.getswitchinterval()
        sys.setswitchinterval(SWITCH_INTERVAL_S)
        self.sampler.start()
        return self

    def __exit__(self, *exc) -> None:
        self.sampler.stop()
        sys.setswitchinterval(self._switch_interval)
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _patch(self, module: str, owner: Optional[str], attr: str,
               wrap: Callable) -> None:
        target = importlib.import_module(module)
        if owner is not None:
            target = getattr(target, owner)
        original = vars(target)[attr]
        self._restore.append((target, attr, original))
        setattr(target, attr, wrap(original))

    def _active(self) -> set:
        active = getattr(self._local, "active", None)
        if active is None:
            active = self._local.active = set()
        return active

    def _timed(self, key: str, fn: Callable) -> Callable:
        samples = self.calls.setdefault(key, [])

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            active = self._active()
            if key in active:
                return fn(*args, **kwargs)
            active.add(key)
            start = thread_time()
            try:
                return fn(*args, **kwargs)
            finally:
                samples.append(thread_time() - start)
                active.discard(key)

        return wrapper

    def _sim_timed(self, fn: Callable) -> Callable:
        runs = self.sim_runs

        @functools.wraps(fn)
        def wrapper(owner, *args, **kwargs):
            active = self._active()
            if "sim.run" in active:
                return fn(owner, *args, **kwargs)
            sim = getattr(owner, "sim", owner)
            events = sim.events_processed
            stats = sim.fastpath_stats
            active.add("sim.run")
            start = thread_time()
            try:
                return fn(owner, *args, **kwargs)
            finally:
                elapsed = thread_time() - start
                active.discard("sim.run")
                after = sim.fastpath_stats
                runs.append((
                    elapsed,
                    sim.events_processed - events,
                    after["windows"] - stats["windows"],
                    after["bails"] - stats["bails"],
                ))

        return wrapper

    # ------------------------------------------------------------------
    def metrics(self, info: Dict, ref_s: float,
                untraced_ref_s: float) -> Dict[str, float]:
        """Every per-layer metric, named as in ``BENCHMARK.json``.

        ``ref_s`` and ``untraced_ref_s`` time the traced and untraced
        measurements; their ratio is the tracing overhead.
        """
        shares = Counter()
        for layer, count in self.sampler.counts.items():
            shares[bucket(layer)] += count
        samples = sum(shares.values()) or 1
        out = {f"layer.{name}.share": shares[name] / samples
               for name in BUCKETS}

        def p50(values: List[float], scale: float) -> float:
            return median(values) * scale if values else 0.0

        def tail_of(values: List[float]) -> float:
            return tail(values)[0] if values else 0.0

        def timer(key: str) -> List[float]:
            return self.calls.get(key, [])

        seconds = sum(run[0] for run in self.sim_runs)
        events = sum(run[1] for run in self.sim_runs)
        windows = sum(run[2] for run in self.sim_runs)
        bails = sum(run[3] for run in self.sim_runs)
        out.update({
            "sim.events": float(events),
            "sim.host_ns_per_event": seconds * 1e9 / events if events else 0.0,
            "sim.fastpath_bail_ratio": bails / windows if windows else 0.0,
            "core.builds": float(len(timer("core.build"))),
            "core.build_ms.p50": p50(timer("core.build"), 1e3),
            "pr.reconfigs": float(len(timer("pr.reconfig"))),
            "runtime.job_runs": float(len(timer("runtime.job_run"))),
            "runtime.job_run_ms.p50": p50(timer("runtime.job_run"), 1e3),
            "runtime.admission_us.p50": p50(timer("runtime.admission"), 1e6),
            "realtime.suspensions": float(info.get("suspensions", 0)),
            "realtime.suspend_ms.p50": p50(timer("realtime.suspend"), 1e3),
            "compact.plans": float(len(timer("compact.plan"))),
            "compact.plan_ms.p50": p50(timer("compact.plan"), 1e3),
            "compact.moves": float(info.get("compaction_moves", 0)),
            "pool.submit_us.p50": p50(timer("pool.submit"), 1e6),
            "pool.queue_wait_ms.p50": p50(info.get("queue_wait_ms", []), 1.0),
            "pool.queue_wait_ms.tail": tail_of(info.get("queue_wait_ms", [])),
            "pool.exec_ms.p50": p50(info.get("exec_ms", []), 1.0),
            "pool.exec_ms.tail": tail_of(info.get("exec_ms", [])),
            "pool.transit_ms.p50": p50(info.get("transit_ms", []), 1.0),
            "bench.samples": float(self.sampler.ticks),
            "bench.trace_overhead": ref_s / untraced_ref_s,
            "bench.late_ms.tail": tail_of(info.get("late_ms", [])),
        })
        return out
