"""Observability wired through the kernel, executors, telemetry and CLI."""

import json

import pytest

from repro.__main__ import main
from repro.obs.export import load_chrome_trace
from repro.pool import run_batch
from repro.runtime import (
    ExecutorConfig,
    SourceSpec,
    StreamJob,
)
from repro.runtime.telemetry import (
    SCHEMA_VERSION,
    FleetReport,
    JobReport,
    TelemetrySchemaError,
)
from repro.sim.kernel import Simulator


# ----------------------------------------------------------------------
# kernel integration (satellite: bounded Simulator trace)
# ----------------------------------------------------------------------
def test_simulator_trace_is_ring_buffered():
    sim = Simulator(trace_capacity=16)
    for index in range(50):
        sim.log("cat", f"m{index}", n=index)
    trace = sim.trace
    assert len(trace) == 16
    assert sim.dropped_events == 34
    assert trace[0].message == "m34"
    assert trace[-1].message == "m49"
    # stable (time, seq) total order survives the shim
    assert [t.seq for t in trace] == sorted(t.seq for t in trace)


def test_simulator_set_tracing_capacity():
    sim = Simulator()
    assert sim.trace_capacity == Simulator.DEFAULT_TRACE_CAPACITY
    sim.set_tracing(True, capacity=8)
    assert sim.trace_capacity == 8
    sim.set_tracing(False)
    sim.log("cat", "ignored")
    assert sim.trace == []
    assert sim.trace_by_category("cat") == []


# ----------------------------------------------------------------------
# telemetry schema (satellite)
# ----------------------------------------------------------------------
def test_job_and_fleet_reports_carry_schema_version():
    report = FleetReport(jobs=[JobReport(name="j")])
    data = report.to_dict()
    assert data["schema_version"] == SCHEMA_VERSION
    assert data["jobs"][0]["schema_version"] == SCHEMA_VERSION
    restored = FleetReport.from_json(report.to_json())
    assert restored.jobs[0].name == "j"


def test_job_report_loads_dumps_with_the_retired_shard_field():
    data = JobReport(name="j", index=3).to_dict()
    assert "shard" not in data
    restored = JobReport.from_dict({**data, "shard": 2})
    assert restored == JobReport(name="j", index=3)


def test_loaders_reject_unknown_schema_version():
    data = FleetReport().to_dict()
    data["schema_version"] = 99
    with pytest.raises(TelemetrySchemaError, match="schema_version=99"):
        FleetReport.from_dict(data)
    with pytest.raises(TelemetrySchemaError):
        JobReport.from_dict({"name": "x", "schema_version": 0})


# ----------------------------------------------------------------------
# fleet merge determinism
# ----------------------------------------------------------------------
def _specs():
    return [
        StreamJob(name=f"job{i}",
                  source=SourceSpec("ramp", count=40 + 10 * i))
        for i in range(3)
    ]


def _run(workers: int) -> FleetReport:
    from dataclasses import replace

    from repro.core.params import SystemParameters

    params = replace(SystemParameters.prototype(), pr_speedup=20000.0)
    config = ExecutorConfig(quantum_us=10.0, max_us=5000.0)
    return run_batch(
        _specs(), workers, params=params, config=config, use_processes=False
    )


def test_fleet_metrics_merge_is_worker_count_invariant():
    one, two = _run(1), _run(2)
    for report in (one, two):
        assert report.metrics.value("repro_icap_transfers_total") == 3
    t1 = [(e.kind, e.name, e.track, e.time_ps) for e in one.span_events]
    t2 = [(e.kind, e.name, e.track, e.time_ps) for e in two.span_events]
    assert t1 == t2
    assert one.jobs[0].span_track == "job/job0"
    # shared-infrastructure tracks were qualified per job in fleet mode
    tracks = {e.track for e in one.span_events}
    assert any(t.startswith("job/job0/icap") for t in tracks)


def test_job_lifecycle_spans_present():
    report = _run(1)
    by_job = [
        (e.kind, e.name) for e in report.span_events
        if e.track == "job/job1"
    ]
    assert ("I", "queued") in by_job
    assert ("I", "admitted") in by_job
    assert ("B", "place") in by_job
    assert ("B", "run") in by_job
    assert ("I", "done") in by_job
    # every begun span was closed
    assert sum(1 for k, _ in by_job if k == "B") == sum(
        1 for k, _ in by_job if k == "E"
    )


# ----------------------------------------------------------------------
# CLI round-trips
# ----------------------------------------------------------------------
@pytest.fixture()
def tiny_jobfile(tmp_path):
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps({
        "system": {"preset": "prototype", "pr_speedup": 20000.0},
        "mode": "fleet",
        "executor": {"quantum_us": 10.0, "max_us": 5000.0},
        "jobs": [
            {"name": "a", "source": {"kind": "ramp", "count": 60}},
            {"name": "b", "stages": ["abs"],
             "source": {"kind": "sine", "count": 80}},
        ],
    }))
    return str(path)


def test_serve_trace_out_round_trip(tiny_jobfile, tmp_path, capsys):
    t1, t2 = tmp_path / "t1.json", tmp_path / "t2.json"
    assert main(["serve", tiny_jobfile, "--trace-out", str(t1)]) == 0
    assert main(["serve", tiny_jobfile, "--trace-out", str(t2)]) == 0
    # acceptance: byte-identical across runs
    assert t1.read_bytes() == t2.read_bytes()
    records = load_chrome_trace(t1)
    payload = [r for r in records if r["ph"] != "M"]
    assert payload
    for record in payload:
        assert record["ph"] in ("B", "E", "i")
        assert record["pid"] == 1 and record["tid"] >= 1
    assert [r["ts"] for r in payload] == sorted(r["ts"] for r in payload)
    capsys.readouterr()


def test_serve_metrics_out(tiny_jobfile, tmp_path, capsys):
    m = tmp_path / "m.prom"
    assert main(["serve", tiny_jobfile, "--metrics-out", str(m)]) == 0
    text = m.read_text()
    assert "# TYPE repro_icap_transfers_total counter" in text
    assert "repro_icap_transfers_total 2" in text
    assert "repro_executor_quantum_seconds_count" in text
    capsys.readouterr()


def test_obs_subcommand_renders_saved_trace(tiny_jobfile, tmp_path, capsys):
    t = tmp_path / "t.json"
    assert main(["serve", tiny_jobfile, "--trace-out", str(t)]) == 0
    capsys.readouterr()
    assert main(["obs", str(t), "--limit", "5"]) == 0
    out = capsys.readouterr().out
    assert "trace timeline" in out
    assert len([l for l in out.splitlines() if "|" in l]) <= 6  # header + 5
    assert main(["obs", str(t), "--summary"]) == 0
    assert "span path" in capsys.readouterr().out
    assert main(["obs", str(t), "--track", "job/a"]) == 0
    out = capsys.readouterr().out
    assert "job/b" not in out


def test_obs_subcommand_bad_file(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{}")
    assert main(["obs", str(bad)]) == 2
    assert "cannot render" in capsys.readouterr().err
