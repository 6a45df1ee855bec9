"""CLI tests for ``python -m repro serve``."""

import json

import pytest

from repro.__main__ import main


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


def test_serve_text_report(tiny_jobfile, capsys):
    assert main(["serve", tiny_jobfile]) == 0
    out = capsys.readouterr().out
    assert "mode=fleet" in out
    assert "DONE=2" in out


def test_serve_json_report(tiny_jobfile, capsys):
    assert main(["serve", tiny_jobfile, "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["states"] == {"DONE": 2}
    names = [job["name"] for job in report["jobs"]]
    assert names == ["a", "b"]
    assert all(job["throughput_words_per_s"] > 0 for job in report["jobs"])
    assert all(job["max_gap_us"] >= 0 for job in report["jobs"])


def test_serve_saves_report(tiny_jobfile, tmp_path, capsys):
    out_path = tmp_path / "report.json"
    assert main(["serve", tiny_jobfile, "--output", str(out_path)]) == 0
    saved = json.loads(out_path.read_text())
    assert saved["states"] == {"DONE": 2}


def test_serve_mode_and_workers_overrides(tiny_jobfile, capsys):
    assert main(["serve", tiny_jobfile, "--mode", "colocate"]) == 0
    assert "mode=colocate" in capsys.readouterr().out


def test_serve_missing_jobfile_is_a_usage_error(capsys):
    assert main(["serve", "no/such/file.json"]) == 2
    assert "cannot load" in capsys.readouterr().err


def test_serve_failed_job_sets_exit_code(tmp_path, capsys):
    path = tmp_path / "fail.json"
    path.write_text(json.dumps({
        "system": {"preset": "prototype", "pr_speedup": 20000.0},
        "executor": {"quantum_us": 10.0, "max_us": 5000.0},
        "jobs": [
            {"name": "rushed", "deadline_us": 30.0,
             "source": {"kind": "ramp", "count": 500000}},
        ],
    }))
    assert main(["serve", str(path)]) == 1
    assert "deadline" in capsys.readouterr().out


# ----------------------------------------------------------------------
# strict exit codes: terminal eviction and --fail-fast
# ----------------------------------------------------------------------
def _eviction_jobfile(tmp_path, requeue):
    path = tmp_path / "evict.json"
    path.write_text(json.dumps({
        "system": {"preset": "figure7", "pr_speedup": 20000.0},
        "mode": "colocate",
        "executor": {"quantum_us": 10.0, "max_us": 5000.0},
        "jobs": [
            {"name": "keeper", "priority": 5, "preemptible": False,
             "stages": [{"kind": "moving_average", "window": 4}],
             "source": {"kind": "sine", "count": 4000}},
            {"name": "victim", "priority": 1,
             "requeue_on_eviction": requeue,
             "stages": ["crc32"],
             "source": {"kind": "ramp", "count": 4000}},
            {"name": "urgent", "priority": 5, "arrival_us": 25.0,
             "source": {"kind": "ramp", "count": 200}},
        ],
    }))
    return str(path)


def test_serve_terminal_eviction_exits_nonzero(tmp_path, capsys):
    jobfile = _eviction_jobfile(tmp_path, requeue=False)
    assert main(["serve", jobfile]) == 1
    err = capsys.readouterr().err
    assert "requeue_on_eviction" in err  # the fix is named in the hint


def test_serve_requeued_eviction_exits_zero(tmp_path, capsys):
    jobfile = _eviction_jobfile(tmp_path, requeue=True)
    assert main(["serve", jobfile]) == 0
    assert "DONE=3" in capsys.readouterr().out


def test_serve_fail_fast_flag_aborts_run(tmp_path, capsys):
    path = tmp_path / "ff.json"
    path.write_text(json.dumps({
        "system": {"preset": "prototype", "pr_speedup": 20000.0},
        "mode": "fleet",
        "executor": {"quantum_us": 10.0, "max_us": 5000.0},
        "jobs": [
            {"name": "rushed", "deadline_us": 30.0,
             "source": {"kind": "ramp", "count": 500000}},
            {"name": "casualty", "source": {"kind": "ramp", "count": 100}},
        ],
    }))
    assert main(["serve", str(path), "--json", "--fail-fast"]) == 1
    report = json.loads(capsys.readouterr().out)
    by_name = {job["name"]: job for job in report["jobs"]}
    assert "aborted by fail-fast" in by_name["casualty"]["failure_reason"]
    # without the flag the healthy job completes (and the exit code
    # still reflects the failed one)
    assert main(["serve", str(path), "--json"]) == 1
    report = json.loads(capsys.readouterr().out)
    by_name = {job["name"]: job for job in report["jobs"]}
    assert by_name["casualty"]["state"] == "DONE"


# ----------------------------------------------------------------------
# submit (front-door client) usage errors
# ----------------------------------------------------------------------
def test_submit_bad_address_is_usage_error(tiny_jobfile, capsys):
    assert main(["submit", tiny_jobfile, "--connect", "nowhere"]) == 2
    assert "HOST:PORT" in capsys.readouterr().err


def test_submit_connection_refused_is_reported(tiny_jobfile, capsys):
    # an ephemeral port nothing listens on
    assert main(["submit", tiny_jobfile, "--connect", "127.0.0.1:9"]) == 2
    assert "127.0.0.1:9" in capsys.readouterr().err


def test_serve_listen_rejects_bad_hostport(tiny_jobfile, capsys):
    assert main(["serve", tiny_jobfile, "--listen", "8080"]) == 2
    assert "HOST:PORT" in capsys.readouterr().err


def test_serve_listen_rejects_fail_fast(tiny_jobfile, capsys):
    # fail-fast stops a worker after one failed job; on a long-lived
    # server that would disable a device for good
    args = ["serve", tiny_jobfile, "--listen", "127.0.0.1:0", "--fail-fast"]
    assert main(args) == 2
    assert "--fail-fast" in capsys.readouterr().err
