"""Benchmark execution: calibration, case runs, schema-versioned reports.

Raw rates vary with host speed, so the regression gate never sees them:
each case publishes a dimensionless *normalized* figure -- the median of
per-slice rate/probe ratios computed inside :mod:`repro.bench.cases` --
that is comparable across machines and robust to CPU throttling.  The
report additionally records a whole-run *calibration score* (probe
iterations/second) as context for reading the raw rates.
"""

from __future__ import annotations

import json
import subprocess
import time
from pathlib import Path
from time import perf_counter
from typing import Any, Dict, Iterable, Optional

from repro.bench.cases import CASES, CaseResult, probe_rate

#: Bump on any incompatible change to the report layout.
SCHEMA_VERSION = 1

#: Iterations of the whole-run calibration measurement (informational).
_CALIBRATION_ITERS = 300_000


class BenchError(Exception):
    """A benchmark run or comparison could not proceed."""


def calibrate() -> Dict[str, float]:
    """Measure the whole-run machine-calibration score (iterations/sec)."""
    start = perf_counter()
    score = probe_rate(_CALIBRATION_ITERS)
    return {
        "score": score,
        "elapsed_s": perf_counter() - start,
        "iterations": float(_CALIBRATION_ITERS),
    }


# ----------------------------------------------------------------------
# revision / output naming
# ----------------------------------------------------------------------
def detect_revision() -> str:
    """``git`` short revision of the CWD checkout, ``unknown`` outside one."""
    try:
        rev = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
            check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    try:
        dirty = subprocess.run(
            ["git", "status", "--porcelain"],
            capture_output=True,
            text=True,
            timeout=10,
            check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        dirty = ""
    return f"{rev}-dirty" if dirty else rev


def default_output_name(revision: str) -> str:
    return f"BENCH_{revision}.json"


# ----------------------------------------------------------------------
# running
# ----------------------------------------------------------------------
def run_bench(
    quick: bool = False,
    cases: Optional[Iterable[str]] = None,
    revision: Optional[str] = None,
) -> Dict[str, Any]:
    """Run the selected benchmark ``cases`` and return the report dict."""
    selected = list(cases) if cases is not None else list(CASES)
    unknown = [name for name in selected if name not in CASES]
    if unknown:
        raise BenchError(
            f"unknown benchmark case(s): {', '.join(unknown)}; "
            f"available: {', '.join(CASES)}"
        )
    calibration = calibrate()
    results: Dict[str, Dict[str, Any]] = {}
    for name in selected:
        result: CaseResult = CASES[name](quick)
        results[name] = {
            "metric": result.metric,
            "value": result.value,
            "normalized": result.normalized,
            "elapsed_s": result.elapsed_s,
            "extra": dict(result.extra),
        }
    report: Dict[str, Any] = {
        "schema_version": SCHEMA_VERSION,
        "kind": "repro-bench",
        "revision": revision if revision is not None else detect_revision(),
        "mode": "quick" if quick else "full",
        "generated_unix": int(time.time()),
        "calibration": calibration,
        "cases": results,
        "derived": derive_ratios(results),
    }
    return report


def derive_ratios(results: Dict[str, Dict[str, Any]]) -> Dict[str, float]:
    """Cross-case ratios: live fast-path speedup per scenario pair."""
    derived: Dict[str, float] = {}
    for fast, heap, key in (
        ("fig5_steady_state", "fig5_steady_state_heap", "fig5_fastpath_speedup"),
        (
            "multirate_steady_state",
            "multirate_steady_state_heap",
            "multirate_fastpath_speedup",
        ),
        (
            "fleet_steady_state",
            "fleet_steady_state_heap",
            "fleet_fastpath_speedup",
        ),
    ):
        if fast in results and heap in results and results[heap]["value"] > 0:
            derived[key] = results[fast]["value"] / results[heap]["value"]
    return derived


def write_report(report: Dict[str, Any], path: Path) -> Path:
    path = Path(path)
    path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return path


def load_report(path: Path) -> Dict[str, Any]:
    path = Path(path)
    try:
        data = json.loads(path.read_text())
    except OSError as exc:
        raise BenchError(f"cannot read benchmark report {path}: {exc}") from exc
    except ValueError as exc:
        raise BenchError(f"malformed benchmark report {path}: {exc}") from exc
    if not isinstance(data, dict) or data.get("kind") != "repro-bench":
        raise BenchError(f"{path} is not a repro-bench report")
    if data.get("schema_version") != SCHEMA_VERSION:
        raise BenchError(
            f"{path} has schema_version {data.get('schema_version')!r}, "
            f"this runner expects {SCHEMA_VERSION}"
        )
    return data
