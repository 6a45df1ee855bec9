"""Self-tests of the benchmark; run with ``python3 -m pytest perfbench``.

They run every workload at a smoke size.  They are not part of the
repository's tier-1 suite (``testpaths = tests``), so CI does not run
them: run them by hand after changing the benchmark or an entry point it
drives.
"""

from __future__ import annotations

import json
import queue
import shutil
import subprocess
import sys
import threading
import time
from argparse import Namespace
from pathlib import Path

import pytest

import compare
import layertrace
import run
from common import HERE, Meter, load_spec, tail
from workloads import WORKLOADS, Outcome

SPEC = load_spec()
ROOT = HERE.parent


def names(section: str) -> set:
    return {metric["name"] for metric in SPEC[section]}


def smoke(workload: str, tmp_path: Path, trace=None, seconds: float = 0.5):
    args = Namespace(seed=1, seconds=seconds)
    return run.run_workload(WORKLOADS[workload], args, tmp_path, trace)


def test_workloads_match_benchmark_json():
    assert set(WORKLOADS) == {w["name"] for w in SPEC["workloads"]}


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_workload_runs_clean_at_smoke_size(workload, tmp_path):
    outcome = smoke(workload, tmp_path)
    assert outcome.problems == []
    assert outcome.attempted >= 1 and outcome.failed == 0
    assert outcome.op_ms and outcome.words_per_s
    metrics = run.end_to_end(outcome, [0.5])
    assert set(metrics) == names("end_to_end")
    assert all(value > 0 for value in metrics.values())


def test_trace_run_names_shares_and_digest(tmp_path):
    plain = smoke("fig5_switch", tmp_path)
    trace = layertrace.LayerTrace()
    traced = smoke("fig5_switch", tmp_path, trace)
    assert traced.digest == plain.digest
    metrics = trace.metrics(traced.info, traced.ref_s, plain.ref_s)
    assert set(metrics) == names("per_layer")
    shares = [v for k, v in metrics.items() if k.endswith(".share")]
    assert sum(shares) == pytest.approx(1.0, abs=0.01)
    assert metrics["layer.sim.share"] > 0 and metrics["bench.samples"] > 0


def test_runner_prints_result_last(tmp_path):
    out = tmp_path / "record.json"
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "fig5_switch",
         "--seconds", "0.3", "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["end_to_end"]
    }
    assert json.loads(out.read_text())["result"] == result
    assert len(json.loads(out.read_text())["setup_s"]) == 1 + run.SETUP_CHILDREN
    assert not list(ROOT.glob(".perfbench-*")), "scratch directory left behind"


def test_runner_fails_without_the_program(tmp_path):
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    shutil.copytree(HERE, tmp_path / "perfbench")
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fig5_switch"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


def test_rejected_job_counts_as_failed(tmp_path):
    workload = WORKLOADS["listen_http"](1, 0.2, tmp_path)
    workload.open_slices[0][0]["stages"] = [{"kind": "no-such-stage"}]
    try:
        workload.setup()
        outcome = workload.measure()
    finally:
        workload.close()
    assert outcome.failed >= 1
    assert any("rejected" in problem for problem in outcome.problems)


def test_late_open_loop_slice_is_repeated_then_kept(tmp_path, monkeypatch):
    cls = WORKLOADS["listen_http"]
    monkeypatch.setattr(cls, "LATE_LIMIT_MS", -1.0)  # every slice is late
    workload = cls(1, 0.2, tmp_path)
    jobs = sum(len(jobs) for jobs in workload.open_slices + workload.closed_slices)
    try:
        workload.setup()
        outcome = workload.measure()
    finally:
        workload.close()
    assert outcome.info["repeated_slices"] == len(workload.open_slices)
    assert outcome.info["late_slices_kept"] == len(workload.open_slices)
    assert outcome.problems == []
    # the repeated slice's jobs ran and were checked, but only the kept
    # attempt's latencies and digest rows count
    assert outcome.attempted == jobs + len(workload.open_slices[0])
    assert outcome.failed == 0
    assert len(outcome.op_ms) == len(workload.open_slices[0])
    assert len(outcome.items) == jobs


def _inputs(workload) -> object:
    return {
        "fig5_switch": lambda w: w.waves,
        "batch_stream": lambda w: w.batches,
        "lifecycle_churn": lambda w: w.rounds,
    }.get(workload.name, lambda w: [w.open_slices, w.closed_slices])(workload)


def _sizes(value) -> object:
    """The input's shape: word/frame counts and list lengths only."""
    if isinstance(value, dict):
        shape = {}
        for key, item in value.items():
            if key in ("count", "frames", "frame_words"):
                shape[key] = item
            elif key == "source":
                shape[key] = item.get("count")
            elif key == "stages":
                shape[key] = len(item)
            else:
                shape[key] = _sizes(item)
        return shape
    if isinstance(value, (list, tuple)):
        return [_sizes(item) for item in value]
    return None


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_seeds_change_inputs_not_sizes(workload, tmp_path):
    one, two = (WORKLOADS[workload](seed, 20, tmp_path) for seed in (1, 2))
    assert _inputs(one) != _inputs(two)
    assert _inputs(one) == _inputs(WORKLOADS[workload](1, 20, tmp_path))
    assert json.dumps(_sizes(_inputs(one))) == json.dumps(_sizes(_inputs(two)))


def test_sampler_files_fake_layer_and_waits():
    namespace: dict = {}
    exec(compile(
        "def spin(stop):\n"
        "    while not stop.is_set():\n"
        "        sum(range(100))\n",
        "/elsewhere/repro/fakepkg/busy.py", "exec",
    ), namespace)
    stop = threading.Event()
    inbox: queue.Queue = queue.Queue()
    busy = threading.Thread(target=namespace["spin"], args=(stop,))
    blocked = threading.Thread(target=inbox.get)
    sampler = layertrace.StackSampler()
    busy.start()
    blocked.start()
    try:
        time.sleep(0.05)
        frames = sys._current_frames()
        assert layertrace.classify(frames[busy.ident], {}) == "fakepkg"
        assert layertrace.classify(frames[blocked.ident], {}) == "wait"
        sampler.start()
        time.sleep(0.2)
        sampler.stop()
    finally:
        stop.set()
        inbox.put(None)
        busy.join(timeout=10)
        blocked.join(timeout=10)
    assert not busy.is_alive() and not blocked.is_alive()
    assert sampler.counts["fakepkg"] > 0 and sampler.counts["wait"] > 0
    assert layertrace.bucket("fakepkg") == "other"


def test_verdicts_follow_bound_and_pair_rule():
    base = {seed: 100.0 + seed % 3 for seed in range(10)}
    faster = {seed: value * 0.8 for seed, value in base.items()}
    slower = {seed: value * 1.2 for seed, value in base.items()}
    noisy = {seed: 100.0 * (1 + (seed % 2)) for seed in range(10)}
    assert compare.verdict(base, faster, 0.1, lower_better=True) == "improved"
    assert compare.verdict(base, slower, 0.1, lower_better=True) == "regressed"
    assert compare.verdict(base, dict(base), 0.1, True) == "no-worse"
    assert compare.verdict(base, noisy, 0.1, lower_better=True) == "unresolved"


def test_tail_keeps_ten_samples_or_a_tenth_beyond():
    assert tail(range(18)) == (7.0, pytest.approx(100 * 8 / 18))
    assert tail(range(100)) == (89.0, 90.0)
    assert tail(range(320)) == (287.0, 90.0)
    assert tail([3.0, 1.0]) == (3.0, 100.0)


def test_timed_values_leave_out_the_probe():
    with Meter() as meter:
        with meter.slice() as cpu:
            time.sleep(1.0)  # the probe ticks about ten times meanwhile
        with meter.slice(clock=time.monotonic) as wall:
            start = time.thread_time()
            while time.thread_time() - start < 1.0:  # the probe waits its turn
                pass
            spun = time.thread_time() - start
    timeline = meter.timeline
    assert timeline.busy(cpu["start"], cpu["end"]) > 0.005
    assert abs(cpu["seconds"]) < 0.003
    probed = timeline.busy(wall["start"], wall["end"])
    assert probed > 0.005
    assert wall["raw"] - probed >= spun - 0.005  # only the probe's time goes
    assert wall["seconds"] == pytest.approx(
        (wall["raw"] - probed) * timeline.scale(wall["start"], wall["end"])
    )


def test_discarded_slice_is_not_measured():
    with Meter() as meter:
        with meter.slice(clock=time.monotonic) as kept:
            time.sleep(0.05)
        with meter.slice(clock=time.monotonic) as repeated:
            time.sleep(0.05)
        meter.discard(repeated)
    assert meter.ref_s == kept["seconds"] > 0


def test_throughput_is_words_over_all_slices():
    outcome = Outcome()
    outcome.take(Meter(), [], [({"seconds": 1.0}, 300), ({"seconds": 3.0}, 100)])
    assert outcome.words_per_s == [300.0, 100 / 3.0]
    assert outcome.throughput == 100.0


def test_outcome_digest_is_canonical():
    one, two = Outcome(items=[{"b": 1, "a": 2}]), Outcome(items=[{"a": 2, "b": 1}])
    assert one.digest == two.digest
