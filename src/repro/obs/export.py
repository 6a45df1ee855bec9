"""Trace and metrics exporters.

* :func:`to_chrome_trace` / :func:`dump_chrome_trace` -- the Chrome
  trace-event JSON format (the ``traceEvents`` array flavour), loadable
  in Perfetto (https://ui.perfetto.dev) and ``chrome://tracing``.  One
  *thread* per tracer track (clock domain, PRR, ICAP, job), ``ts`` in
  microseconds of **simulated** time.  Events are ordered by
  ``(simulated time, track, seq)`` and wall-clock stamps are excluded,
  so a deterministic simulation produces byte-identical files.
* :func:`flame_summary` -- a text flamegraph-style rollup of span
  durations by track and nesting path.
* :func:`prometheus_text` -- the Prometheus text exposition format for a
  :class:`~repro.obs.metrics.MetricsRegistry`.
* :func:`load_chrome_trace` / :func:`render_trace_file` -- read a saved
  trace back and render it as the ``python -m repro obs`` timeline
  table.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Sequence, Union

from repro.obs.metrics import Histogram, MetricsRegistry
from repro.obs.spans import BEGIN, END, INSTANT, SpanEvent

_PID = 1


def _json_safe(value: Any) -> Any:
    if isinstance(value, (bool, int, float, str)) or value is None:
        return value
    return str(value)


def _sorted_events(events: Iterable[SpanEvent]) -> List[SpanEvent]:
    return sorted(events, key=lambda e: (e.time_ps, e.track, e.seq))


def chrome_trace_events(
    events: Iterable[SpanEvent],
    process_name: str = "repro",
) -> List[Dict[str, Any]]:
    """Build the ``traceEvents`` array for a set of span events."""
    ordered = _sorted_events(events)
    tracks = sorted({event.track for event in ordered})
    tids = {track: index + 1 for index, track in enumerate(tracks)}
    out: List[Dict[str, Any]] = [
        {
            "ph": "M",
            "pid": _PID,
            "tid": 0,
            "ts": 0,
            "name": "process_name",
            "args": {"name": process_name},
        }
    ]
    for track in tracks:
        out.append({
            "ph": "M",
            "pid": _PID,
            "tid": tids[track],
            "ts": 0,
            "name": "thread_name",
            "args": {"name": track},
        })
        out.append({
            "ph": "M",
            "pid": _PID,
            "tid": tids[track],
            "ts": 0,
            "name": "thread_sort_index",
            "args": {"sort_index": tids[track]},
        })
    for event in ordered:
        record: Dict[str, Any] = {
            "name": event.name,
            "cat": event.category or "default",
            "ph": event.kind,
            "ts": event.time_ps / 1e6,
            "pid": _PID,
            "tid": tids[event.track],
        }
        if event.kind == INSTANT:
            record["ph"] = "i"
            record["s"] = "t"
        if event.attrs:
            record["args"] = {
                key: _json_safe(value)
                for key, value in sorted(event.attrs.items())
            }
        out.append(record)
    return out


def to_chrome_trace(
    events: Iterable[SpanEvent],
    process_name: str = "repro",
) -> Dict[str, Any]:
    """The complete Chrome trace JSON object."""
    return {
        "displayTimeUnit": "ms",
        "traceEvents": chrome_trace_events(events, process_name),
    }


def dump_chrome_trace(
    events: Iterable[SpanEvent],
    path: Union[str, Path],
    process_name: str = "repro",
) -> Path:
    """Write a byte-stable Chrome trace JSON file; returns the path."""
    path = Path(path)
    payload = json.dumps(
        to_chrome_trace(events, process_name),
        sort_keys=True,
        separators=(",", ":"),
    )
    path.write_text(payload + "\n")
    return path


def load_chrome_trace(path: Union[str, Path]) -> List[Dict[str, Any]]:
    """Read a saved trace's ``traceEvents`` array back."""
    data = json.loads(Path(path).read_text())
    if isinstance(data, dict):
        events = data.get("traceEvents")
    else:
        events = data  # bare-array flavour
    if not isinstance(events, list):
        raise ValueError(f"{path}: not a Chrome trace-event file")
    return events


def spans_from_chrome(records: Iterable[Dict[str, Any]]) -> List[SpanEvent]:
    """Rebuild :class:`SpanEvent` objects from a loaded ``traceEvents`` array.

    The inverse of :func:`chrome_trace_events` up to the information the
    format keeps (no ``seq``/``depth``/``wall_ns``); enough for
    :func:`flame_summary` over a saved trace.
    """
    names: Dict[int, str] = {}
    for record in records:
        if record.get("ph") == "M" and record.get("name") == "thread_name":
            names[record.get("tid", 0)] = record["args"]["name"]
    events: List[SpanEvent] = []
    for seq, record in enumerate(records):
        phase = record.get("ph")
        if phase not in ("B", "E", "i", "I"):
            continue
        tid = record.get("tid", 0)
        events.append(
            SpanEvent(
                kind=INSTANT if phase in ("i", "I") else phase,
                name=record.get("name", ""),
                category=record.get("cat", ""),
                track=names.get(tid, f"tid{tid}"),
                time_ps=int(round(float(record.get("ts", 0.0)) * 1e6)),
                seq=seq,
                attrs=dict(record.get("args") or {}),
            )
        )
    return events


# ----------------------------------------------------------------------
# flamegraph-style text summary
# ----------------------------------------------------------------------
def flame_summary(
    events: Iterable[SpanEvent], top: Optional[int] = None
) -> str:
    """Aggregate span durations by ``track;outer;inner`` path.

    Unmatched begins/ends (possible after ring-buffer eviction) are
    skipped rather than guessed at.
    """
    totals: Dict[str, List[float]] = {}
    stacks: Dict[str, List[SpanEvent]] = {}
    for event in _sorted_events(events):
        if event.kind == BEGIN:
            stacks.setdefault(event.track, []).append(event)
        elif event.kind == END:
            stack = stacks.get(event.track)
            if not stack or stack[-1].name != event.name:
                continue
            begin = stack.pop()
            path = ";".join(
                [event.track] + [frame.name for frame in stack]
                + [event.name]
            )
            entry = totals.setdefault(path, [0.0, 0.0])
            entry[0] += (event.time_ps - begin.time_ps) / 1e6
            entry[1] += 1
    rows = sorted(totals.items(), key=lambda item: (-item[1][0], item[0]))
    if top is not None:
        rows = rows[:top]
    if not rows:
        return "(no completed spans)"
    width = max(len(path) for path, _ in rows)
    lines = [f"{'span path':<{width}} {'total us':>12} {'count':>7}"]
    for path, (total_us, count) in rows:
        lines.append(f"{path:<{width}} {total_us:>12.3f} {int(count):>7}")
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Prometheus text format
# ----------------------------------------------------------------------
#: ``# HELP`` docstrings for the metric families the stack emits; a
#: registry-attached description (``MetricsRegistry.describe``) takes
#: precedence, then this table, then a generic fallback.
_DEFAULT_HELP: Dict[str, str] = {
    "repro_executor_quantum_seconds": (
        "Wall time spent per executor scheduling quantum"
    ),
    "repro_icap_transfers_total": "Completed ICAP bitstream transfers",
    "repro_lane_utilization": "Fraction of RSB lane segments in use",
    "repro_pool_admission_wait_seconds": (
        "Submission to dispatch latency per tenant"
    ),
    "repro_pool_exec_seconds": (
        "Device execution latency (running to done) per tenant"
    ),
    "repro_pool_jobs_completed_total": "Pool jobs finished successfully",
    "repro_pool_jobs_failed_total": "Pool jobs finished in failure",
    "repro_pool_jobs_submitted_total": "Jobs accepted by the pool",
    "repro_pool_overcommit_pressure": (
        "Granted vPRRs over healthy physical PRRs"
    ),
    "repro_pool_pending_jobs": (
        "Ready-queue jobs still waiting for a pool-wide vPRR grant"
    ),
    "repro_pool_queue_seconds": (
        "Submission to vPRR grant latency per tenant"
    ),
    "repro_pool_snapshots_total": "Device telemetry snapshots ingested",
    "repro_pool_tenant_queue_depth": "Ready-queue jobs per tenant",
    "repro_pool_vprr_capacity": (
        "Pool-wide vPRR grant bound (overcommit x healthy PRRs)"
    ),
    "repro_pool_vprr_occupancy": (
        "vPRRs in use per pooled device (its running job's stages)"
    ),
    "repro_prr_form_factor": "PRR slices per region",
    "repro_prr_fragmentation_ratio": (
        "1 - largest contiguous free PRR run over total free PRRs"
    ),
    "repro_prr_free_total": "Free (healthy, unoccupied) physical PRRs",
    "repro_prr_largest_free_run": (
        "Largest contiguous run of free physical PRRs"
    ),
    "repro_prr_lcd_frequency_hz": "Per-PRR local clock domain frequency",
    "repro_switch_step_latency_us": (
        "Figure-5 module switch/drain step latency"
    ),
}


def _escape_label(value: str) -> str:
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


def _escape_help(text: str) -> str:
    return str(text).replace("\\", "\\\\").replace("\n", "\\n")


def _label_str(labels, extra: str = "") -> str:
    parts = [f'{key}="{_escape_label(value)}"' for key, value in labels]
    if extra:
        parts.append(extra)
    return "{" + ",".join(parts) + "}" if parts else ""


def _help_for(registry: MetricsRegistry, name: str) -> str:
    text = registry.help_text(name) or _DEFAULT_HELP.get(name)
    return text or f"{name} (repro metric)"


def prometheus_text(registry: Optional[MetricsRegistry]) -> str:
    """Render a registry in the Prometheus text exposition format.

    Conformant with the 0.0.4 text format: each family gets ``# HELP``
    and ``# TYPE`` header lines (once), histograms expose ``_bucket``,
    ``_sum`` and ``_count`` series, and label values are escaped.
    """
    if registry is None:
        return "# (no metrics collected)\n"
    lines: List[str] = []
    typed: set = set()
    for metric in registry.metrics():
        if metric.name not in typed:
            lines.append(
                f"# HELP {metric.name} "
                f"{_escape_help(_help_for(registry, metric.name))}"
            )
            lines.append(f"# TYPE {metric.name} {metric.kind}")
            typed.add(metric.name)
        if isinstance(metric, Histogram):
            for bound, cumulative in metric.cumulative():
                labels = _label_str(metric.labels, f'le="{bound}"')
                lines.append(
                    f"{metric.name}_bucket{labels} {cumulative}"
                )
            suffix = _label_str(metric.labels)
            lines.append(f"{metric.name}_sum{suffix} {metric.sum:g}")
            lines.append(f"{metric.name}_count{suffix} {metric.count}")
        else:
            lines.append(
                f"{metric.name}{_label_str(metric.labels)} "
                f"{metric.value:g}"
            )
    return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
# saved-trace rendering (the `python -m repro obs` subcommand)
# ----------------------------------------------------------------------
def render_trace_file(
    path: Union[str, Path],
    limit: Optional[int] = None,
    tail: bool = False,
    tracks: Optional[Sequence[str]] = None,
) -> str:
    """Render a saved Chrome trace as a step/timeline table."""
    from repro.analysis.report import format_table  # deferred: heavier deps

    raw = load_chrome_trace(path)
    names: Dict[int, str] = {}
    for record in raw:
        if record.get("ph") == "M" and record.get("name") == "thread_name":
            names[record.get("tid", 0)] = record["args"]["name"]
    rows = []
    open_ts: Dict[int, List[float]] = {}
    for record in raw:
        phase = record.get("ph")
        if phase == "M":
            continue
        tid = record.get("tid", 0)
        track = names.get(tid, f"tid{tid}")
        if tracks and track not in tracks:
            continue
        ts = float(record.get("ts", 0.0))
        detail = ""
        if phase == "B":
            open_ts.setdefault(tid, []).append(ts)
            kind = "begin"
        elif phase == "E":
            kind = "end"
            stack = open_ts.get(tid)
            if stack:
                detail = f"dur={ts - stack.pop():.3f}us"
        else:
            kind = "event"
        args = record.get("args") or {}
        if args:
            attrs = " ".join(f"{k}={v}" for k, v in sorted(args.items()))
            detail = f"{detail} {attrs}".strip()
        rows.append(
            [f"{ts:.3f}", track, kind, record.get("name", ""), detail]
        )
    if limit is not None:
        rows = rows[-limit:] if tail else rows[:limit]
    return format_table(
        ["time (us)", "track", "ev", "name", "detail"],
        rows,
        title=f"trace timeline: {path}",
    )
