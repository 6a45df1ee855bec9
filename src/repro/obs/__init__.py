"""repro.obs: unified observability for the VAPRES reproduction.

Three pieces, deliberately free of any dependency on the simulation so
that :mod:`repro.sim.kernel` can build on them without an import cycle:

* :mod:`~repro.obs.spans` -- hierarchical begin/end/instant spans with
  simulated-time *and* wall-time stamps, a bounded ring buffer with a
  drop counter, and a near-zero-cost disabled path.  Every
  :class:`~repro.sim.kernel.Simulator` owns one
  :class:`~repro.obs.spans.Tracer`; ``Simulator.log`` is a thin shim
  recording instant events on it.
* :mod:`~repro.obs.metrics` -- a process-local registry of counters,
  gauges and fixed-bucket histograms that is picklable and mergeable
  across :mod:`repro.pool` device workers.
* :mod:`~repro.obs.export` -- Chrome trace-event JSON (loadable in
  Perfetto / ``chrome://tracing``), a text flamegraph-style summary,
  and a Prometheus text-format metrics dump.  Exports are ordered by
  simulated time and contain no wall-clock stamps, so a deterministic
  simulation yields byte-identical trace files across runs.
* :mod:`~repro.obs.live` -- the live plane for the serving stack:
  deterministic per-job trace ids and cross-bridge
  :class:`~repro.obs.live.TraceContext` propagation, periodic
  :class:`~repro.obs.live.DeviceSnapshot` telemetry with a pool-side
  :class:`~repro.obs.live.SnapshotAggregator`, a per-device
  :class:`~repro.obs.live.FlightRecorder` ring, and trace-shard
  stitching by ``trace_id`` into one byte-stable Perfetto file.

Layering: ``obs`` sits above :mod:`repro.sim` conceptually (the kernel
only uses the standalone :class:`Tracer`/:class:`MetricsRegistry`
containers) and below :mod:`repro.analysis` and :mod:`repro.runtime`,
which consume its exports.
"""

from repro.obs.export import (
    chrome_trace_events,
    dump_chrome_trace,
    flame_summary,
    load_chrome_trace,
    prometheus_text,
    render_trace_file,
    spans_from_chrome,
    to_chrome_trace,
)
from repro.obs.live import (
    DeviceSnapshot,
    FlightRecorder,
    SnapshotAggregator,
    TraceContext,
    dump_stitched_trace,
    qualify_tracks,
    stitch_chrome_trace_files,
    stitch_span_events,
    stitched_summary,
    tag_events,
    trace_id_for,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsError,
    MetricsRegistry,
)
from repro.obs.spans import (
    BEGIN,
    END,
    INSTANT,
    SpanError,
    SpanEvent,
    Tracer,
)

__all__ = [
    "BEGIN",
    "END",
    "INSTANT",
    "Counter",
    "DeviceSnapshot",
    "FlightRecorder",
    "Gauge",
    "Histogram",
    "MetricsError",
    "MetricsRegistry",
    "SnapshotAggregator",
    "SpanError",
    "SpanEvent",
    "TraceContext",
    "Tracer",
    "chrome_trace_events",
    "dump_chrome_trace",
    "dump_stitched_trace",
    "flame_summary",
    "spans_from_chrome",
    "load_chrome_trace",
    "prometheus_text",
    "qualify_tracks",
    "render_trace_file",
    "stitch_chrome_trace_files",
    "stitch_span_events",
    "stitched_summary",
    "tag_events",
    "to_chrome_trace",
    "trace_id_for",
]
