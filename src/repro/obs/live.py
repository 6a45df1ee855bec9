"""Live observability plane: trace context, snapshots, flight recorder.

The batch exporters in :mod:`repro.obs.export` only see a run after it
finishes; this module holds the primitives the serving stack uses to
observe a pool *while it runs*:

* :func:`trace_id_for` / :class:`TraceContext` -- a deterministic
  per-job trace identity (derived from the job name exactly like the
  per-job RNG seed) that the pool propagates across the worker bridge
  so device-side spans can be stitched back onto the submitting job's
  timeline.
* :class:`DeviceSnapshot` / :class:`SnapshotAggregator` -- the picklable
  unit a device worker periodically posts over the bridge outbox
  (a copy of its :class:`~repro.obs.metrics.MetricsRegistry` plus a
  short tail of recent span events), and the pool-side fold that keeps
  ``GET /metrics`` live.  Live snapshots are *eventually consistent*:
  the merged view is "all finished jobs (exact) + the latest snapshot
  per in-flight device (stale by at most one snapshot interval)".
  Final snapshots replace -- never double-count -- the live entry.
* :class:`FlightRecorder` -- a bounded per-device ring of recent
  lifecycle/span events with a byte-stable JSON dump, written on device
  loss, quarantine, or on demand for post-mortems.
* :func:`stitch_span_events` / :func:`stitch_chrome_trace_files` --
  merge trace shards into one Perfetto file with one *process* per
  ``trace_id`` (threads = tracks).  The merge is canonical: the same
  shard set produces byte-identical output regardless of input order.

Standard-library only, like the rest of :mod:`repro.obs`.
"""

from __future__ import annotations

import json
import zlib
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Sequence, Union

from repro.obs.export import _json_safe
from repro.obs.metrics import MetricsRegistry
from repro.obs.spans import INSTANT, SpanEvent

#: How many trailing span events a periodic snapshot carries (feeds the
#: flight recorder; the full shard only ships with the final snapshot).
SNAPSHOT_EVENT_TAIL = 32

#: Default flight-recorder ring capacity (events per device).
FLIGHT_CAPACITY = 256


def trace_id_for(name: str) -> str:
    """Deterministic trace id for a job name (stable across runs and
    worker counts -- same derivation family as ``StreamJob.seed``)."""
    return f"{zlib.crc32(name.encode('utf-8')):08x}"


@dataclass(frozen=True)
class TraceContext:
    """Parent-span context propagated across the pool bridge."""

    trace_id: str
    tenant: str = ""
    parent: str = ""

    def to_attrs(self) -> Dict[str, str]:
        attrs = {"trace_id": self.trace_id}
        if self.tenant:
            attrs["tenant"] = self.tenant
        if self.parent:
            attrs["parent"] = self.parent
        return attrs


def tag_events(
    events: Iterable[SpanEvent], trace_id: str
) -> List[SpanEvent]:
    """Copies of ``events`` with ``trace_id`` stamped into ``attrs``."""
    tagged = []
    for event in events:
        attrs = dict(event.attrs)
        attrs.setdefault("trace_id", trace_id)
        tagged.append(replace(event, attrs=attrs))
    return tagged


def qualify_tracks(
    events: Iterable[SpanEvent], job_name: str
) -> List[SpanEvent]:
    """Prefix shared-infrastructure tracks with the owning job
    (``icap`` -> ``job/<name>/icap``), so that merged device shards of
    jobs run on separate simulators do not collide."""
    out = []
    for event in events:
        if event.track.startswith("job/"):
            out.append(event)
        else:
            out.append(
                replace(event, track=f"job/{job_name}/{event.track}")
            )
    return out


def copy_registry(registry: MetricsRegistry) -> MetricsRegistry:
    """A point-in-time copy safe to ship while the source keeps
    mutating (merge into an empty registry copies all values)."""
    snapshot = MetricsRegistry()
    snapshot.merge(registry)
    return snapshot


# ----------------------------------------------------------------------
# device snapshots
# ----------------------------------------------------------------------
@dataclass
class DeviceSnapshot:
    """One periodic (or final) telemetry snapshot from a device worker.

    Picklable: crosses the bridge outbox as the payload of a
    ``"snapshot"`` worker event.  ``events`` is a short recent tail for
    periodic snapshots and the *complete* track-qualified shard for the
    final one.
    """

    device_id: int
    job_id: int
    seq: int
    final: bool
    sim_us: float = 0.0
    metrics: Optional[MetricsRegistry] = None
    events: List[SpanEvent] = field(default_factory=list)


class SnapshotAggregator:
    """Pool-side incremental fold of device snapshots.

    ``merged()`` = finished-job registries (exact, counters add) plus
    the latest live registry per in-flight device (replaced, never
    added, so nothing is double-counted when the final arrives).
    """

    def __init__(self) -> None:
        self._completed = MetricsRegistry()
        self._live: Dict[int, MetricsRegistry] = {}
        self.snapshots = 0
        self.finals = 0

    def ingest(self, snapshot: DeviceSnapshot) -> None:
        self.snapshots += 1
        if snapshot.metrics is None:
            return
        if snapshot.final:
            self._completed.merge(snapshot.metrics)
            self._live.pop(snapshot.device_id, None)
            self.finals += 1
        else:
            self._live[snapshot.device_id] = snapshot.metrics

    def discard_live(self, device_id: int) -> None:
        """Drop a device's in-flight snapshot (worker errored: no final
        will arrive to supersede it)."""
        self._live.pop(device_id, None)

    def live_devices(self) -> List[int]:
        return sorted(self._live)

    def merged(
        self, base: Optional[MetricsRegistry] = None
    ) -> MetricsRegistry:
        out = MetricsRegistry()
        if base is not None:
            out.merge(base)
        out.merge(self._completed)
        for device_id in sorted(self._live):
            out.merge(self._live[device_id])
        return out


# ----------------------------------------------------------------------
# flight recorder
# ----------------------------------------------------------------------
class FlightRecorder:
    """Bounded ring of a device's recent events, dumpable post-mortem.

    Entries are small JSON-safe dicts; the ring keeps the newest
    ``capacity`` and counts what it evicted.  ``dump_json`` is
    byte-stable: the same recorded sequence always serialises to the
    same bytes (sorted keys, compact separators, no wall stamps added
    at dump time).
    """

    def __init__(
        self, device_id: int, capacity: int = FLIGHT_CAPACITY
    ) -> None:
        if capacity <= 0:
            raise ValueError("flight recorder capacity must be positive")
        self.device_id = device_id
        self.capacity = capacity
        self._entries: List[Dict[str, Any]] = []
        self._seq = 0
        self.dropped = 0

    def record(self, kind: str, **attrs: Any) -> None:
        entry: Dict[str, Any] = {"seq": self._seq, "kind": kind}
        entry.update(attrs)
        self._seq += 1
        self._entries.append(entry)
        if len(self._entries) > self.capacity:
            del self._entries[0]
            self.dropped += 1

    def record_span(self, event: SpanEvent) -> None:
        self.record(
            f"span:{event.kind}",
            name=event.name,
            track=event.track,
            time_ps=event.time_ps,
        )

    def __len__(self) -> int:
        return len(self._entries)

    def dump(self, reason: str) -> Dict[str, Any]:
        return {
            "flightrecorder": 1,
            "device": self.device_id,
            "reason": reason,
            "recorded": self._seq,
            "dropped": self.dropped,
            "events": [dict(entry) for entry in self._entries],
        }

    def dump_json(self, reason: str) -> str:
        return json.dumps(
            self.dump(reason), sort_keys=True, separators=(",", ":")
        )


# ----------------------------------------------------------------------
# trace stitching
# ----------------------------------------------------------------------
def _attrs_fingerprint(attrs: Dict[str, Any]) -> str:
    return json.dumps(attrs, sort_keys=True, default=str)


def _stitch_key(event: SpanEvent):
    # Per-trace, per-track ordering: device shards carry deterministic
    # simulated time while pool lifecycle spans carry wall time, so the
    # canonical order groups each trace's tracks and orders within a
    # track -- the *sequence* of events per (trace, track) is then
    # invariant across worker counts even though wall stamps differ.
    # The trailing fields break cross-shard ties independent of the
    # shard input order.
    return (
        event.track,
        event.time_ps,
        event.seq,
        event.kind,
        event.name,
        _attrs_fingerprint(event.attrs),
    )


def stitch_span_events(
    events: Iterable[SpanEvent],
    untraced_name: str = "untraced",
) -> Dict[str, Any]:
    """Merge span events into one Chrome trace, one *process* per
    ``trace_id`` (read from each event's attrs).

    Events without a ``trace_id`` group under a trailing
    ``untraced`` process.  Output is canonical: any permutation of the
    same event set produces the same object.
    """
    by_trace: Dict[str, List[SpanEvent]] = {}
    for event in events:
        trace_id = str(event.attrs.get("trace_id", ""))
        by_trace.setdefault(trace_id, []).append(event)
    trace_ids = sorted(tid for tid in by_trace if tid)
    if "" in by_trace:
        trace_ids.append("")
    records: List[Dict[str, Any]] = []
    for pid, trace_id in enumerate(trace_ids, start=1):
        ordered = sorted(by_trace[trace_id], key=_stitch_key)
        tracks = sorted({event.track for event in ordered})
        tids = {track: index + 1 for index, track in enumerate(tracks)}
        label = f"trace:{trace_id}" if trace_id else untraced_name
        records.append({
            "ph": "M", "pid": pid, "tid": 0, "ts": 0,
            "name": "process_name", "args": {"name": label},
        })
        records.append({
            "ph": "M", "pid": pid, "tid": 0, "ts": 0,
            "name": "process_sort_index", "args": {"sort_index": pid},
        })
        for track in tracks:
            records.append({
                "ph": "M", "pid": pid, "tid": tids[track], "ts": 0,
                "name": "thread_name", "args": {"name": track},
            })
            records.append({
                "ph": "M", "pid": pid, "tid": tids[track], "ts": 0,
                "name": "thread_sort_index",
                "args": {"sort_index": tids[track]},
            })
        for event in ordered:
            record: Dict[str, Any] = {
                "name": event.name,
                "cat": event.category or "default",
                "ph": event.kind,
                "ts": event.time_ps / 1e6,
                "pid": pid,
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
            records.append(record)
    return {"displayTimeUnit": "ms", "traceEvents": records}


def stitch_chrome_trace_files(
    paths: Sequence[Union[str, Path]],
) -> Dict[str, Any]:
    """Load per-device trace shards and stitch them by ``trace_id``."""
    from repro.obs.export import load_chrome_trace, spans_from_chrome

    events: List[SpanEvent] = []
    for path in paths:
        events.extend(spans_from_chrome(load_chrome_trace(path)))
    return stitch_span_events(events)


def dump_stitched_trace(
    trace: Dict[str, Any], path: Union[str, Path]
) -> Path:
    """Write a stitched trace byte-stably; returns the path."""
    path = Path(path)
    payload = json.dumps(trace, sort_keys=True, separators=(",", ":"))
    path.write_text(payload + "\n")
    return path


def stitched_summary(trace: Dict[str, Any]) -> List[Dict[str, Any]]:
    """Per-trace ``{trace_id, tracks, events}`` rows for CLI output."""
    names: Dict[int, str] = {}
    counts: Dict[int, int] = {}
    tracks: Dict[int, set] = {}
    for record in trace.get("traceEvents", []):
        pid = record.get("pid", 0)
        if record.get("ph") == "M":
            if record.get("name") == "process_name":
                names[pid] = record["args"]["name"]
            continue
        counts[pid] = counts.get(pid, 0) + 1
        tracks.setdefault(pid, set()).add(record.get("tid"))
    return [
        {
            "trace": names.get(pid, f"pid{pid}"),
            "tracks": len(tracks.get(pid, ())),
            "events": counts.get(pid, 0),
        }
        for pid in sorted(names)
    ]
