"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload fig5_switch --seed 1 \\
        --seconds 14 --trace 0 [--out result.json]

The program under test is ``src/repro`` of the current directory; the
benchmark definition is the ``BENCHMARK.json`` beside this package.  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: every ``end_to_end`` metric
with ``--trace 0``, every ``per_layer`` metric with ``--trace 1``.  A
traced run measures the workload twice, untraced then traced, and fails
unless both produce the same simulated-result digest.  ``--out`` also
writes the full record (digest, counts, every sample).  Exit status is 0
when the run completed, even if a check failed (then ``correct`` is
false); 2 when it could not run at all.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import signal
import subprocess
import sys
import tempfile
import threading
from pathlib import Path
from time import monotonic, process_time
from typing import Dict, List

from common import HERE, SETUP_TICK_S, Timeline, load_spec, median, tail

#: When this run started, for the record's ``run_wall_s``.
STARTED = monotonic()

#: Extra fresh interpreters that only set up, per untraced run; with the
#: measuring interpreter's own set-up they give the samples ``setup_s``
#: is the median of.
SETUP_CHILDREN = 2
#: A set-up child that takes longer than this is killed.
SETUP_TIMEOUT_S = 120.0


class RunError(Exception):
    """The benchmark could not run (missing program, failed set-up)."""


def load_workload(name: str):
    """Put the checkout's ``src`` on the path; return the workload class."""
    src = Path.cwd() / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise RunError(f"no program to measure: {src}/repro is missing")
    sys.path.insert(0, str(src))
    from workloads import WORKLOADS

    return WORKLOADS[name]


@contextlib.contextmanager
def scratch():
    """A scratch directory inside the checkout, removed afterwards."""
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=Path.cwd()) as path:
        yield Path(path)


def pin_to_one_cpu() -> None:
    """Run this process and its children on one CPU, so the probes
    measure the CPU the work runs on."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def timed_setup(workload) -> float:
    """Set ``workload`` up; reference seconds of CPU this interpreter has
    used since it started, less the probe's, all of it scaled like the
    set-up itself."""
    with Timeline(SETUP_TICK_S) as timeline:
        start = monotonic()
        workload.setup()
        cpu = process_time()
        ready = monotonic()
    cpu -= timeline.busy(float("-inf"), ready)
    return cpu * timeline.scale(start, ready)


def setup_child(args: argparse.Namespace) -> None:
    """Set up once in this fresh interpreter; print the time it took."""
    cls = load_workload(args.workload)
    with scratch() as path:
        workload = cls(args.seed, args.seconds, path)
        try:
            seconds = timed_setup(workload)
        finally:
            workload.close()
    print(f"ready {seconds!r}", flush=True)


def time_setups(args: argparse.Namespace) -> List[float]:
    """Reference seconds from interpreter start to ready, per child."""
    seconds = []
    for _ in range(SETUP_CHILDREN):
        child = subprocess.Popen(
            [sys.executable, str(HERE / "run.py"), "--setup-child",
             "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds)],
            stdout=subprocess.PIPE,
        )
        watchdog = threading.Timer(SETUP_TIMEOUT_S, child.kill)
        watchdog.start()
        try:
            line = child.stdout.read()
            child.wait()
        finally:
            watchdog.cancel()
            if child.poll() is None:
                child.kill()
                child.wait()
            child.stdout.close()
        word, _, value = line.decode().partition(" ")
        if word != "ready" or child.returncode != 0:
            raise RunError(
                f"set-up child exited {child.returncode} before ready"
            )
        seconds.append(float(value))
    return seconds


def run_workload(cls, args: argparse.Namespace, path: Path, trace=None):
    """Set up, measure (under ``trace`` if given), verify and close.

    The outcome's ``info["setup_s"]`` is the set-up time (see
    :func:`timed_setup`; from interpreter start only on a first call).
    """
    workload = cls(args.seed, args.seconds, path)
    try:
        setup_s = timed_setup(workload)
        if trace is None:
            outcome = workload.measure()
        else:
            with trace:
                outcome = workload.measure()
    finally:
        workload.close()
    workload.verify(outcome)
    outcome.info["setup_s"] = setup_s
    return outcome


def end_to_end(outcome, setup_s: List[float]) -> Dict[str, float]:
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": median(setup_s),
        "peak_rss_mb": peak_kib / 1024.0,
        "words_per_s": outcome.throughput,
        "op_ms.p50": median(outcome.op_ms),
        "op_ms.tail": tail(outcome.op_ms)[0],
    }


def measure(args: argparse.Namespace, spec: Dict):
    """(outcome, metric values, wanted metric specs, record extras)."""
    cls = load_workload(args.workload)
    with scratch() as path:
        if args.trace:
            import layertrace

            plain = run_workload(cls, args, path)
            trace = layertrace.LayerTrace()
            outcome = run_workload(cls, args, path, trace)
            outcome.check(
                outcome.digest == plain.digest,
                f"traced digest {outcome.digest} != untraced {plain.digest}",
            )
            outcome.problems += plain.problems
            outcome.attempted += plain.attempted
            outcome.failed += plain.failed
            values = trace.metrics(outcome.info, outcome.ref_s, plain.ref_s)
            return outcome, values, spec["per_layer"], {}
        outcome = run_workload(cls, args, path)
    setup_s = [outcome.info["setup_s"]] + time_setups(args)
    return (outcome, end_to_end(outcome, setup_s), spec["end_to_end"],
            {"setup_s": setup_s})


def main(argv=None) -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, help="also write the full record")
    parser.add_argument("--setup-child", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    # on SIGTERM, unwind: kill set-up children, stop servers, remove scratch
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    pin_to_one_cpu()
    try:
        if args.setup_child:
            setup_child(args)
            return 0
        outcome, values, wanted, extras = measure(args, spec)
    except RunError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2
    if set(values) != {metric["name"] for metric in wanted}:
        print("perfbench: metrics differ from BENCHMARK.json", file=sys.stderr)
        return 2
    result = {
        "correct": not outcome.problems,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            metric["name"]: {"value": values[metric["name"]],
                             "unit": metric["unit"]}
            for metric in wanted
        },
    }
    for problem in outcome.problems:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)
    print(
        f"perfbench: {args.workload} seed {args.seed}: digest "
        f"{outcome.digest}, {len(outcome.op_ms)} ops (tail = p"
        f"{tail(outcome.op_ms)[1]:.0f}), {len(outcome.words_per_s)} "
        "throughput slices",
        file=sys.stderr,
    )
    if args.out is not None:
        args.out.write_text(json.dumps({
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "result": result,
            "digest": outcome.digest,
            "problems": outcome.problems,
            **extras,
            "op_ms": outcome.op_ms,
            "words_per_s": outcome.words_per_s,
            "ref_s": outcome.ref_s,
            "wall_s": outcome.wall_s,
            "run_wall_s": monotonic() - STARTED,
            "info": {key: value for key, value in outcome.info.items()
                     if not isinstance(value, list)},
        }, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
