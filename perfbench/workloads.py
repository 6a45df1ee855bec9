"""The benchmark's workloads.

Each workload turns ``--seed`` into its inputs (stream contents, stage
parameters, job mix -- never sizes), sets up, runs a fixed number of
timed operations sized from ``--seconds``, checks every output and
returns an :class:`Outcome`.  Only public entry points of the program are
driven: the ``repro.__main__.main`` CLI, ``DevicePool`` + ``PoolServer``
+ ``PoolClient``, and ``VapresSystem`` + ``ModuleSwitcher``.  Inputs are
built here rather than by ``repro.bench`` helpers so that a change to the
program cannot silently change what the benchmark feeds it.

An *operation* is what the workload's ``op_ms`` metric times, in
reference milliseconds (see ``common``):

* ``fig5_switch`` -- one Figure-5 module switch (CPU clock);
* ``batch_stream`` -- one ``serve`` invocation of a 2-job batch (CPU clock);
* ``lifecycle_churn`` -- one ``realtime run`` plus one compacting ``serve``
  (CPU clock);
* ``listen_http`` -- one job over HTTP, from the time its open-loop
  submission was due to the client's receipt of its ``done`` event (wall
  clock).
"""

from __future__ import annotations

import asyncio
import contextlib
import copy
import io
import json
import math
import random
import statistics
import zlib
from array import array
from collections import Counter, deque
from dataclasses import dataclass, field, replace
from itertools import islice
from pathlib import Path
from time import monotonic
from typing import Callable, Dict, Iterable, List, Optional, Sequence

from common import Meter, tail

#: Figure-5 demo scaling of simulated PR time (the CLI ``demo`` default).
FIG5_SPEEDUP = 500.0
#: Paper, Section V: one array2icap PRR reconfiguration takes 71.94 ms.
PAPER_RECONFIG_MS = 71.94
#: System-clock cycles per steady-state streaming slice.
STEADY_CYCLES = 16_000
#: Words per job in the HTTP workloads (the pool-soak job shape).
LISTEN_WORDS = 8


def scaled(per_second: float, seconds: float) -> int:
    """Operations to run for a ``seconds`` budget (at least one)."""
    return max(1, round(per_second * seconds))


def crc_words(words: Iterable[int]) -> int:
    return zlib.crc32(array("q", words).tobytes())


def digest_of(items: Sequence) -> str:
    """CRC-32 of the canonical JSON of a workload's simulated results."""
    text = json.dumps(items, sort_keys=True, separators=(",", ":"))
    return f"{zlib.crc32(text.encode()):08x}"


def cli(argv: List[str]) -> tuple:
    """Run ``python -m repro ARGV`` in-process; (exit code, stdout)."""
    from repro.__main__ import main

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


def _report_row(job: Dict) -> List:
    """The simulated per-job fields every digest covers."""
    return [
        job["name"], job["state"], job["words_out"], job["words_lost"],
        job["run_us"], job["max_gap_us"],
    ]


def _source(rng: random.Random) -> Dict:
    """A seeded sine or ramp source; both cost the same per word."""
    if rng.random() < 0.5:
        return {"kind": "sine", "amplitude": rng.randint(1_000, 20_000),
                "period": rng.randint(8, 128)}
    return {"kind": "ramp", "start": rng.randint(-5_000, 5_000),
            "step": rng.randint(1, 9)}


@dataclass
class Outcome:
    """What one workload measured and checked."""

    #: per-operation latency, ms (see the module docstring)
    op_ms: List[float] = field(default_factory=list)
    #: per-slice throughput, output words per reference second
    words_per_s: List[float] = field(default_factory=list)
    #: output words per reference second over all throughput slices
    throughput: float = 0.0
    attempted: int = 0
    failed: int = 0
    #: failed checks, one line each
    problems: List[str] = field(default_factory=list)
    #: simulated results, JSON-able; hashed into :attr:`digest`
    items: List = field(default_factory=list)
    #: reference seconds of the timed slices (the trace-overhead base)
    ref_s: float = 0.0
    #: wall seconds of the same slices, for the record only
    wall_s: float = 0.0
    #: counts and timing samples the trace run turns into layer metrics
    info: Dict = field(default_factory=dict)

    @property
    def digest(self) -> str:
        return digest_of(self.items)

    def take(self, meter: Meter, ops: List[Dict],
             streams: List[tuple]) -> None:
        """Adopt a finished measurement: ``ops`` are the operations'
        slices, ``streams`` (slice, output words) pairs."""
        self.op_ms = [span["seconds"] * 1e3 for span in ops]
        self.words_per_s = [words / span["seconds"] for span, words in streams]
        self.throughput = (sum(words for _, words in streams)
                           / sum(span["seconds"] for span, _ in streams))
        self.ref_s, self.wall_s = meter.ref_s, meter.wall_s

    def check(self, ok: bool, problem: str) -> bool:
        if not ok:
            self.problems.append(problem)
        return ok


class Workload:
    name = ""

    def __init__(self, seed: int, seconds: float, workdir: Path) -> None:
        self.workdir = workdir

    def setup(self) -> None:
        """Everything before the first timed operation, warm-up included."""

    def measure(self) -> Outcome:
        raise NotImplementedError

    def verify(self, outcome: Outcome) -> None:
        """Output checks too slow to run inside the timed (traced) phase."""

    def close(self) -> None:
        """Stop everything the workload started."""


# ----------------------------------------------------------------------
# fig5_switch
# ----------------------------------------------------------------------
def _moving_average(samples: Iterable[int], window: int = 4) -> List[int]:
    """Reference for the ``MovingAverage`` module's output stream."""
    out: List[int] = []
    buf: deque = deque()
    total = 0
    for x in samples:
        buf.append(x)
        total += x
        if len(buf) > window:
            total -= buf.popleft()
        out.append(total // len(buf))
    return out


class Fig5Switch(Workload):
    """The paper's core path: Figure-5 switching on the prototype.

    Each operation builds a fresh system, streams 30 us, switches the
    filter to a preloaded twin in another PRR through the 9-step
    methodology and streams 30 us more.  Between operations a long-lived
    system streams one steady-state slice (IOM -> MovingAverage -> IOM),
    which gives ``words_per_s``; interleaving spreads both over the whole
    run.  Every output stream must equal a moving average of the seeded
    input with no word lost, duplicated or reset across the switch.
    """

    name = "fig5_switch"

    def __init__(self, seed: int, seconds: float, workdir: Path) -> None:
        super().__init__(seed, seconds, workdir)
        rng = random.Random(seed)
        switches = scaled(2.2, seconds)
        # (amplitude, period, phase) of each system's sine input; the
        # first feeds the steady-state system
        self.waves = [
            (rng.randint(2_000, 20_000), rng.randint(16, 128),
             rng.uniform(0.0, 2 * math.pi))
            for _ in range(1 + switches)
        ]
        self.steady = None

    @staticmethod
    def _system(wave):
        from repro.core import SystemParameters, VapresSystem
        from repro.modules import Iom, MovingAverage
        from repro.modules.base import staged
        from repro.modules.sources import sine_wave

        amplitude, period, phase = wave
        params = replace(SystemParameters.prototype(), pr_speedup=FIG5_SPEEDUP)
        system = VapresSystem(params)
        iom = Iom("io0", source=sine_wave(
            amplitude=amplitude, period=period, phase=phase,
            count=10_000_000,
        ))
        system.attach_iom("rsb0.iom0", iom)
        system.place_module_directly(
            MovingAverage("filterA", window=4), "rsb0.prr0"
        )
        ch_in = system.open_stream("rsb0.iom0", "rsb0.prr0")
        ch_out = system.open_stream("rsb0.prr0", "rsb0.iom0")
        system.register_module(
            "filterB", lambda: staged(MovingAverage("filterB", window=4))
        )
        system.repository.preload_to_sdram("filterB", "rsb0.prr1")
        return system, iom, ch_in, ch_out

    def setup(self) -> None:
        # imported here so that the first switch does not pay for it
        from repro.core.switching import ModuleSwitcher  # noqa: F401

        self.steady = self._system(self.waves[0])
        self.steady[0].run_for_cycles(2_000)  # fill pipelines, compile fast path

    def measure(self) -> Outcome:
        from repro.core.switching import ModuleSwitcher

        result = Outcome()
        steady, steady_iom, _, _ = self.steady
        switches: List[Dict] = []
        streams: List[tuple] = []
        reconfig_ms = 0.0
        count = crc = 0

        def drain() -> int:
            """Fold the steady system's new output into its running count
            and CRC and drop it, so that the heap, and with it the
            collector's work per slice, stays flat over the run."""
            nonlocal count, crc
            words = steady_iom.received
            new = len(words)
            count += new
            crc = zlib.crc32(array("q", words).tobytes(), crc)
            words.clear()
            steady_iom.receive_times.clear()
            steady_iom.emit_times.clear()
            return new

        drain()  # the warm-up's output
        with Meter() as meter:
            for wave in self.waves[1:]:
                with meter.slice() as span:
                    steady.run_for_cycles(STEADY_CYCLES)
                streams.append((span, drain()))
                system, iom, ch_in, ch_out = self._system(wave)
                system.run_for_us(30)
                task = ModuleSwitcher(system).switch(
                    old_prr="rsb0.prr0",
                    new_prr="rsb0.prr1",
                    new_module="filterB",
                    upstream_slot="rsb0.iom0",
                    downstream_slot="rsb0.iom0",
                    input_channel=ch_in,
                    output_channel=ch_out,
                )
                with meter.slice() as span:
                    report = system.microblaze.run_to_completion(task, "switch")
                switches.append(span)
                system.run_for_us(30)
                result.attempted += 1
                reconfig_ms = report.reconfig_seconds * FIG5_SPEEDUP * 1e3
                steps = [step for step, _, _ in report.steps]
                ok = result.check(
                    report.words_lost == 0,
                    f"switch lost {report.words_lost} words",
                )
                ok &= result.check(
                    steps == list(range(1, 10)), f"switch ran steps {steps}"
                )
                ok &= result.check(
                    abs(reconfig_ms / PAPER_RECONFIG_MS - 1) <= 1e-3,
                    f"reconfiguration took {reconfig_ms:.3f} ms, paper "
                    f"{PAPER_RECONFIG_MS} ms",
                )
                result.failed += not ok
                result.items.append([
                    len(iom.received), crc_words(iom.received),
                    [ps for _, ps, _ in report.steps], report.state_words,
                ])
        result.take(meter, switches, streams)
        result.items.insert(0, [count, crc])
        result.info.update(
            switches=len(self.waves) - 1, reconfig_ms_unscaled=reconfig_ms,
        )
        return result

    def verify(self, outcome: Outcome) -> None:
        from repro.modules.sources import sine_wave

        # items[0] is the steady-state stream, then one per switch, each
        # starting (word count, CRC of the words)
        for wave, item in zip(self.waves, outcome.items):
            count, crc = item[:2]
            amplitude, period, phase = wave
            expected = _moving_average(sine_wave(
                amplitude=amplitude, period=period, phase=phase, count=count,
            ))
            if not outcome.check(
                crc_words(expected) == crc,
                f"output stream of wave {wave} is not the moving average "
                "of its input",
            ):
                outcome.failed += 1

    def close(self) -> None:
        self.steady = None


# ----------------------------------------------------------------------
# batch_stream
# ----------------------------------------------------------------------
class BatchStream(Workload):
    """The batch ``serve`` path with long streams, datapath-dominated.

    Each operation serves a fresh 2-job jobfile (two 2-stage chains that
    between them use every RT-FLEET stage kind) with one worker.  Per-job
    system construction is a small share, so an optimisation of it should
    not move this workload.
    """

    name = "batch_stream"
    WORDS = 6_000

    def __init__(self, seed: int, seconds: float, workdir: Path) -> None:
        super().__init__(seed, seconds, workdir)
        rng = random.Random(seed)
        self.batches = [self._batch(rng, k, self.WORDS)
                        for k in range(scaled(1.8, seconds))]
        self.warmup = self._batch(rng, -1, 200)
        self.paths: List[Path] = []

    @staticmethod
    def _batch(rng: random.Random, index: int, words: int) -> Dict:
        chains = (
            [{"kind": "moving_average", "window": rng.randint(2, 8)},
             {"kind": "abs"}],
            [{"kind": "delta_encoder"},
             {"kind": "scaler", "gain": rng.randint(2, 7)}],
        )
        return {
            "schema_version": 2,
            "name": f"batch-{index}",
            "system": {"preset": "prototype", "pr_speedup": 1000.0},
            "mode": "fleet",
            "executor": {"quantum_us": 25.0, "max_us": 100_000.0},
            "jobs": [
                {"name": f"b{index}-{tag}", "stages": chain,
                 "source": {**_source(rng), "count": words}}
                for tag, chain in zip("xy", chains)
            ],
        }

    def setup(self) -> None:
        self.paths = []
        for batch in [self.warmup] + self.batches:
            path = self.workdir / f"{batch['name']}.json"
            path.write_text(json.dumps(batch))
            self.paths.append(path)
        self._serve(self.paths[0])

    @staticmethod
    def _serve(path: Path) -> tuple:
        return cli(["serve", str(path), "--workers", "1", "--json"])

    def measure(self) -> Outcome:
        result = Outcome()
        spans: List[Dict] = []
        words: List[int] = []
        with Meter() as meter:
            for path, batch in zip(self.paths[1:], self.batches):
                with meter.slice() as span:
                    code, text = self._serve(path)
                spans.append(span)
                words.append(self._check(batch, code, text, result))
        result.take(meter, spans, list(zip(spans, words)))
        return result

    @staticmethod
    def _check(batch: Dict, code: int, text: str, result: Outcome) -> int:
        """Check one ``serve`` run; returns the words it output."""
        result.attempted += len(batch["jobs"])
        jobs = json.loads(text)["jobs"] if code in (0, 1) else []
        result.check(code == 0, f"{batch['name']}: serve exited {code}")
        words = 0
        for spec, job in zip(batch["jobs"], jobs):
            words += job["words_out"]
            result.failed += not result.check(
                job["state"] == "DONE"
                and job["words_lost"] == 0
                and job["words_out"] == spec["source"]["count"],
                f"{job['name']}: {job['state']}, "
                f"{job['words_out']}/{spec['source']['count']} words, "
                f"{job['words_lost']} lost",
            )
            result.items.append(_report_row(job))
        result.failed += len(batch["jobs"]) - len(jobs)
        return words


# ----------------------------------------------------------------------
# lifecycle_churn
# ----------------------------------------------------------------------
#: The fragmentation-prone churn layout of ``repro.compact`` as a jobfile
#: system spec: six PRRs, three IOMs along the bus, one lane each way.
CHURN_SYSTEM = {
    "board": "ML402",
    "pr_speedup": 20_000.0,
    "rsbs": [{"name": "rsb0", "num_prrs": 6, "num_ioms": 3,
              "iom_positions": [0, 4, 8], "kr": 1, "kl": 1}],
}


class LifecycleChurn(Workload):
    """The executor's vacate and move paths, through the CLI.

    Each operation runs ``realtime run`` on three periodic pipelines that
    time-share the prototype's two PRRs under EDF (CMD_CHECKPOINT
    suspend/resume), then ``serve --compaction on`` on a churn batch where
    two lane-blocked short jobs force Figure-5 relocations of two pinned
    long tenants.  Suspended pipelines must reproduce their solo-run
    output fingerprints.
    """

    name = "lifecycle_churn"
    RT_KINDS = ("moving_average", "median", "fir")
    RT_FRAMES = 3
    RT_FRAME_WORDS = 512
    RT_UTILIZATION = 0.6
    RT_SPEEDUP = 20_000.0
    LONG_WORDS = 2_500
    SHORT_WORDS = 300

    def __init__(self, seed: int, seconds: float, workdir: Path) -> None:
        super().__init__(seed, seconds, workdir)
        rng = random.Random(seed)
        self.rounds = [
            (self._realtime(rng, k), self._churn(rng, k))
            for k in range(scaled(1.8, seconds))
        ]
        self.paths: List[tuple] = []
        self.solo_ref: Dict[str, tuple] = {}

    def _realtime(self, rng: random.Random, index: int) -> Dict:
        from repro.core.params import SystemParameters
        from repro.realtime import RealtimeJob, StageNode, workload_to_dict

        params = replace(
            SystemParameters.prototype(), pr_speedup=self.RT_SPEEDUP
        )
        share = (self.RT_UTILIZATION * params.total_prrs
                 / len(self.RT_KINDS))
        jobs = []
        for position, kind in enumerate(self.RT_KINDS):
            source = _source(rng)
            shape = dict(
                name=f"rt{position}",
                stages=(StageNode(id="s0", kind=kind),),
                frames=self.RT_FRAMES,
                frame_words=self.RT_FRAME_WORDS,
                tenant=f"tenant{position % 2}",
                priority=len(self.RT_KINDS) - position,
                source_kind=source.pop("kind"),
                source_params=source,
            )
            probe = RealtimeJob(period_us=1.0, deadline_us=1.0, **shape)
            period = probe.service_us_per_frame(params) / share
            jobs.append(RealtimeJob(
                period_us=period, deadline_us=3.0 * period, **shape
            ))
        return workload_to_dict(
            jobs, name=f"rt-{index}", pr_speedup=self.RT_SPEEDUP
        )

    def _churn(self, rng: random.Random, index: int) -> Dict:
        jobs = [
            {"name": f"long-{tag}", "stages": ["passthrough"],
             "source": {**_source(rng), "count": self.LONG_WORDS},
             "iom": iom, "prrs": [prr], "preemptible": False}
            for tag, iom, prr in (("a", "rsb0.iom0", "rsb0.prr3"),
                                  ("b", "rsb0.iom2", "rsb0.prr4"))
        ]
        jobs += [
            {"name": f"short-{k}", "stages": ["passthrough"],
             "source": {**_source(rng), "count": self.SHORT_WORDS},
             "arrival_us": 40.0 + 10.0 * k, "preemptible": False}
            for k in range(2)
        ]
        return {
            "schema_version": 2,
            "name": f"churn-{index}",
            "system": CHURN_SYSTEM,
            "mode": "colocate",
            "executor": {"quantum_us": 25.0, "max_us": 20_000.0},
            "jobs": jobs,
        }

    def setup(self) -> None:
        self.paths = []
        for realtime, churn in self.rounds:
            pair = []
            for doc in (realtime, churn):
                path = self.workdir / f"{doc['name']}.json"
                path.write_text(json.dumps(doc))
                pair.append(path)
            self.paths.append(tuple(pair))
        self._round(*self.paths[0])  # warm-up

    @staticmethod
    def _round(realtime: Path, churn: Path) -> tuple:
        return (
            cli(["realtime", "run", str(realtime), "--json"]),
            cli(["serve", str(churn), "--compaction", "on", "--json"]),
        )

    def measure(self) -> Outcome:
        result = Outcome()
        totals: Counter = Counter()
        spans: List[Dict] = []
        words: List[int] = []
        with Meter() as meter:
            for index, (paths, docs) in enumerate(zip(self.paths, self.rounds)):
                with meter.slice() as span:
                    outputs = self._round(*paths)
                spans.append(span)
                words.append(self._check(index, docs, outputs, result, totals))
        result.take(meter, spans, list(zip(spans, words)))
        result.check(totals["suspensions"] > 0, "no pipeline was ever suspended")
        result.info.update(totals)
        return result

    def _check(self, index: int, docs: tuple, outputs: tuple,
               result: Outcome, totals: Counter) -> int:
        """Check one round; returns the words it output."""
        realtime, churn = docs
        (rt_code, rt_text), (churn_code, churn_text) = outputs
        rt_jobs = realtime["realtime"]["jobs"]
        result.attempted += len(rt_jobs) + len(churn["jobs"])
        words = 0
        rt = json.loads(rt_text)["edf"] if rt_code in (0, 1) else {
            "jobs": [], "suspensions_total": 0, "hits_total": 0,
            "frames_total": 0,
        }
        result.check(rt_code == 0, f"{realtime['name']}: exit {rt_code}")
        for spec, job in zip(rt_jobs, rt["jobs"]):
            expected = spec["frames"] * spec["frame_words"]
            words += job["words_out"]
            result.failed += not result.check(
                job["state"] == "DONE" and job["words_lost"] == 0
                and job["words_out"] == expected,
                f"{realtime['name']}/{job['name']}: {job['state']}, "
                f"{job['words_out']}/{expected} words, "
                f"{job['words_lost']} lost",
            )
            result.items.append([
                job["name"], job["state"], job["hits"], job["misses"],
                job["suspensions"], job["words_out"], job["words_lost"],
                job["fingerprint"],
            ])
        result.failed += len(rt_jobs) - len(rt["jobs"])
        totals["suspensions"] += rt["suspensions_total"]
        totals["deadline_hits"] += rt["hits_total"]
        totals["deadline_frames"] += rt["frames_total"]
        if index == 0:
            self.solo_ref = {
                job["name"]: (job["fingerprint"], job["words_out"])
                for job in rt["jobs"]
            }
        report = json.loads(churn_text) if churn_code in (0, 1) else {
            "jobs": [], "compaction_moves": 0, "compaction_words_lost": 0,
        }
        result.check(churn_code == 0, f"{churn['name']}: exit {churn_code}")
        result.check(
            report["compaction_moves"] > 0
            and report["compaction_words_lost"] == 0,
            f"{churn['name']}: {report['compaction_moves']} compaction "
            f"moves, {report['compaction_words_lost']} words lost",
        )
        for spec, job in zip(churn["jobs"], report["jobs"]):
            words += job["words_out"]
            result.failed += not result.check(
                job["state"] == "DONE" and job["words_lost"] == 0
                and job["words_out"] == spec["source"]["count"],
                f"{churn['name']}/{job['name']}: {job['state']}, "
                f"{job['words_out']}/{spec['source']['count']} words",
            )
            result.items.append(_report_row(job) + [job["relocations"]])
        result.failed += len(churn["jobs"]) - len(report["jobs"])
        totals["compaction_moves"] += report["compaction_moves"]
        result.items.append(["moves", report["compaction_moves"]])
        return words

    def verify(self, outcome: Outcome) -> None:
        """Each first-round pipeline, run alone (so never suspended), must
        produce the same output as it did time-shared."""
        realtime = self.rounds[0][0]
        for job in realtime["realtime"]["jobs"]:
            solo = copy.deepcopy(realtime)
            solo["realtime"]["jobs"] = [job]
            path = self.workdir / f"solo-{job['name']}.json"
            path.write_text(json.dumps(solo))
            code, text = cli(["realtime", "run", str(path), "--json"])
            alone = json.loads(text)["edf"]["jobs"][0] if code == 0 else {}
            if not outcome.check(
                (alone.get("fingerprint"), alone.get("words_out"))
                == self.solo_ref.get(job["name"]),
                f"{job['name']}: time-shared output differs from its solo run",
            ):
                outcome.failed += 1


# ----------------------------------------------------------------------
# listen_http
# ----------------------------------------------------------------------
class ListenHttp(Workload):
    """The ``serve --listen`` front door, end to end over loopback HTTP.

    An in-process ``DevicePool`` (2 devices, inline workers, live
    snapshots every 8 quanta) behind ``PoolServer``, driven by
    ``PoolClient`` with many tiny jobs, so per-job overhead dominates:
    system build, executor set-up, pool scheduling, asyncio and NDJSON.
    The server runs in-process so the trace can see it.

    Open-loop slices offer ``RATE`` evenly spaced jobs per *reference*
    second: the generator spaces its submissions by the host's speed over
    the last second, so a host running at two-thirds speed is offered
    two-thirds of the jobs per wall second and the pool runs at the same
    utilisation whatever the host's speed.  (Poisson arrivals would show
    queueing well below capacity, but their bursts doubled the
    run-to-run spread of the latency tail.)  A job's latency is the wall
    time from when its submission was due to the client's receipt of its
    ``done`` event, scaled like every other timed value.  Not the first
    sample: a device thread emits that mid-job and keeps computing, so the
    event loop waits for the interpreter lock until the switch interval
    (5 ms) forces a hand-off, and the first-sample tail measures that
    interval more than the program.  A slice in which the generator itself
    ran late (p95 over ``LATE_LIMIT_MS``) is run again with the same jobs:
    the host stalled the process or something blocked the event loop, and
    either would put the stall, not the program, into the latencies.  Once
    there have been as many repeats as open-loop slices, a late slice is
    kept and counted in the record (``late_slices_kept``): lateness is the
    host's, not a wrong output, so it does not fail the run.  Closed-loop
    slices with ``INFLIGHT`` jobs in flight give capacity.  Every slice
    runs on one connection.
    """

    name = "listen_http"
    #: open-loop jobs per reference second: about two-fifths of the
    #: closed-loop capacity
    RATE = 40.0
    #: jobs per open-loop slice (one second at ``RATE``)
    OPEN_SLICE_JOBS = 40
    INFLIGHT = 32
    CLOSED_SLICE_JOBS = 60
    WARMUP_JOBS = 40
    LATE_LIMIT_MS = 10.0

    def __init__(self, seed: int, seconds: float, workdir: Path) -> None:
        super().__init__(seed, seconds, workdir)
        rng = random.Random(seed)
        self.warmup = [self._job(rng, f"warm-{i:03d}", i)
                       for i in range(self.WARMUP_JOBS)]
        self.open_slices, self.closed_slices = (
            [[self._job(rng, f"{kind}{s}-{i:03d}", i) for i in range(size)]
             for s in range(scaled(per_second, seconds))]
            for kind, size, per_second in (
                ("open", self.OPEN_SLICE_JOBS, 0.8),
                ("closed", self.CLOSED_SLICE_JOBS, 0.6),
            )
        )
        self.loop: Optional[asyncio.AbstractEventLoop] = None
        self.server = None

    @staticmethod
    def _job(rng: random.Random, name: str, index: int) -> Dict:
        stage = rng.choice([
            {"kind": "passthrough"},
            {"kind": "scaler", "gain": rng.randint(2, 7)},
            {"kind": "crc32"},
            {"kind": "moving_average", "window": rng.randint(2, 8)},
            {"kind": "abs"},
        ])
        return {"name": name, "priority": index % 3, "stages": [stage],
                "source": {**_source(rng), "count": LISTEN_WORDS}}

    # -- lifecycle ----------------------------------------------------
    def setup(self) -> None:
        self.loop = asyncio.new_event_loop()
        self.loop.run_until_complete(self._start())

    async def _start(self) -> None:
        from repro.core.params import SystemParameters
        from repro.pool import DevicePool, PoolServer
        from repro.runtime import ExecutorConfig

        pool = DevicePool(
            devices=2,
            params=replace(SystemParameters.prototype(), pr_speedup=20_000.0),
            config=ExecutorConfig(
                quantum_us=5.0, idle_streak=1, max_us=100_000.0
            ),
            overcommit=2.0,
            use_processes=False,
            snapshot_every_quanta=8,
        )
        self.server = PoolServer(pool, "127.0.0.1", 0)
        await self.server.start()
        await self._closed_loop(self.warmup, {}, Outcome())

    def close(self) -> None:
        if self.loop is None:
            return
        if self.server is not None:
            self.server.request_shutdown()
            self.loop.run_until_complete(self.server.run_until_shutdown())
            self.server = None
        self.loop.run_until_complete(self.loop.shutdown_default_executor())
        self.loop.close()
        self.loop = None

    # -- traffic ------------------------------------------------------
    async def _read(self, client, log: Dict, result: Outcome, on_end=None):
        """Consume one connection's events into ``log`` until batch_done.

        ``on_end`` runs after each of this connection's jobs ends (the
        closed loop refills from it).
        """
        async for event in client.events():
            now = monotonic()
            kind = event.get("event")
            if kind == "batch_done":
                result.check(
                    event.get("ok", False),
                    f"batch not ok: {event.get('states')} "
                    f"{event.get('failures')}",
                )
                return
            if kind == "reject":
                result.check(False, f"rejected: {event.get('error')}")
                continue
            record = log.get(event.get("job"))
            if record is None:
                continue  # pool-level telemetry
            record[kind] = (event["t"], now)
            if kind in ("done", "failed"):
                record["report"] = event.get("report")
                if on_end is not None:
                    await on_end()
        result.check(False, "connection closed before batch_done")

    async def _open_loop(self, jobs: List[Dict], log: Dict, result: Outcome,
                         speed: Callable[[], float]) -> List[float]:
        """Submit ``jobs`` at ``RATE`` per reference second regardless of
        completions: each waits ``1 / (RATE x speed())`` wall seconds after
        the one before was due.  Returns how late (ms) each submission was."""
        from repro.pool import PoolClient

        client = PoolClient(self.server.host, self.server.port)
        await client.open(tenant="open")
        late: List[float] = []

        async def feed() -> None:
            due = monotonic()
            for job in jobs:
                delay = due - monotonic()
                if delay > 0:
                    await asyncio.sleep(delay)
                late.append((monotonic() - due) * 1e3)
                log[job["name"]] = {"due": due}
                await client.submit(job)
                due += 1.0 / (self.RATE * speed())
            await client.finish_submissions()

        feeder = asyncio.get_running_loop().create_task(feed())
        try:
            await self._read(client, log, result)
            await feeder
        finally:
            if not feeder.done():
                feeder.cancel()
                with contextlib.suppress(asyncio.CancelledError):
                    await feeder
            await client.close()
        return late

    async def _closed_loop(self, jobs: List[Dict], log: Dict,
                           result: Outcome) -> None:
        """Keep ``INFLIGHT`` jobs in flight until ``jobs`` are all done."""
        from repro.pool import PoolClient

        client = PoolClient(self.server.host, self.server.port)
        await client.open(tenant="closed")
        pending = iter(jobs)
        left = [len(jobs)]

        async def submit(batch) -> None:
            for job in batch:
                log[job["name"]] = {}
                await client.submit(job)
                left[0] -= 1
                if not left[0]:
                    await client.finish_submissions()

        try:
            await submit(islice(pending, self.INFLIGHT))
            await self._read(
                client, log, result,
                on_end=lambda: submit(islice(pending, 1)),
            )
        finally:
            await client.close()

    # -- measurement --------------------------------------------------
    def measure(self) -> Outcome:
        result = Outcome()
        opened: Dict[str, Dict] = {}  # the kept open-loop slices' jobs
        closed: Dict[str, Dict] = {}
        closed_slices: List[tuple] = []
        late: List[float] = []
        repeats = late_kept = 0
        with Meter() as meter:
            for jobs in self.open_slices:
                attempt = 0
                while True:
                    sent = [dict(job, name=f"{job['name']}~{attempt}")
                            for job in jobs] if attempt else jobs
                    log: Dict[str, Dict] = {}
                    with meter.slice(clock=monotonic) as span:
                        slice_late = self.loop.run_until_complete(self._open_loop(
                            sent, log, result, lambda: meter.timeline.scale(
                                monotonic() - 1.0, monotonic()
                            ),
                        ))
                    p95 = statistics.quantiles(slice_late, n=20)[-1]
                    if (p95 <= self.LATE_LIMIT_MS
                            or repeats == len(self.open_slices)):
                        break
                    meter.discard(span)
                    self._account(log, result, digest=False)
                    attempt += 1
                    repeats += 1
                late_kept += p95 > self.LATE_LIMIT_MS
                late += slice_late
                for job, sent_job in zip(jobs, sent):
                    opened[job["name"]] = log.get(sent_job["name"], {})
            for jobs in self.closed_slices:
                with meter.slice(clock=monotonic) as span:
                    self.loop.run_until_complete(
                        self._closed_loop(jobs, closed, result)
                    )
                closed_slices.append((span, LISTEN_WORDS * len(jobs)))
        result.take(meter, [], closed_slices)
        for record in opened.values():
            if "done" in record:
                due, received = record["due"], record["done"][1]
                result.op_ms.append(meter.reference(due, received) * 1e3)
        self._account({**opened, **closed}, result, digest=True)
        # the open loop's jobs only: closed-loop queueing is by design
        result.info.update(self._pool_timings(opened))
        result.info.update(late_ms=late, late_ms_tail=tail(late)[0],
                           repeated_slices=repeats, late_slices_kept=late_kept)
        return result

    @staticmethod
    def _account(log: Dict[str, Dict], result: Outcome, digest: bool) -> None:
        """Check every job's outcome; add the kept ones to the digest."""
        for name in sorted(log):
            record = log[name]
            report = record.get("report") or {}
            result.attempted += 1
            ok = (
                report.get("state") == "DONE"
                and report.get("words_out") == LISTEN_WORDS
                and report.get("words_lost") == 0
                and "first_sample" in record
            )
            result.failed += not result.check(
                ok, f"{name}: {report.get('state')}, "
                    f"{report.get('words_out')} words, "
                    f"{report.get('words_lost')} lost",
            )
            if digest and report:
                result.items.append([name] + _report_row(report)[1:])

    @staticmethod
    def _pool_timings(log: Dict[str, Dict]) -> Dict[str, List[float]]:
        """Wall ms of each job's pool phases, from the events' ``t``
        stamps: submitted -> running -> done, and event -> receipt."""
        done = [r for r in log.values() if {"submitted", "running", "done"} <= set(r)]
        return {
            "queue_wait_ms": [(r["running"][0] - r["submitted"][0]) * 1e3
                              for r in done],
            "exec_ms": [(r["done"][0] - r["running"][0]) * 1e3 for r in done],
            "transit_ms": [(r[kind][1] - r[kind][0]) * 1e3 for r in done
                           for kind in ("running", "first_sample", "done")
                           if kind in r],
        }


WORKLOADS = {
    cls.name: cls
    for cls in (Fig5Switch, BatchStream, LifecycleChurn, ListenHttp)
}
