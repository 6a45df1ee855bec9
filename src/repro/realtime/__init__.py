"""Deadline-driven time-shared PRR scheduling (ROADMAP item 4).

The realtime layer turns the serving runtime's priority-preemptive
executor into a periodic, deadline-aware one:

* :mod:`repro.realtime.specs` -- periodic/deadline job specs (period,
  relative deadline, stage DAG) with a schema-versioned JSON form and
  the frame-accounting math (which output words are due when);
* :mod:`repro.realtime.edf` -- a preemptive earliest-deadline-first
  scheduler on top of :class:`~repro.runtime.executor.JobExecutor`,
  with a utilization-bound admission test.  A preempted job is
  suspended instead of restarted: the executor's quiescent drain
  captures its module state words and source offset in a
  :class:`~repro.runtime.jobs.ResumeState`, and a later placement
  restores them bit-exactly on any PRR large enough for the stage;
* :mod:`repro.realtime.workloads` -- a seeded vision-pipeline workload
  generator emitting realtime jobfiles at a target utilization.
"""

from repro.realtime.edf import (
    DeadlineAdmission,
    EdfExecutor,
    RealtimeReport,
    run_priority_baseline,
)
from repro.realtime.specs import (
    REALTIME_SCHEMA_VERSION,
    FrameOutcome,
    RealtimeError,
    RealtimeJob,
    RealtimeJobFile,
    StageNode,
    frame_outcomes,
    load_realtime_jobfile,
)
from repro.realtime.workloads import generate_workload, workload_to_dict

__all__ = [
    "DeadlineAdmission",
    "EdfExecutor",
    "RealtimeReport",
    "run_priority_baseline",
    "REALTIME_SCHEMA_VERSION",
    "FrameOutcome",
    "RealtimeError",
    "RealtimeJob",
    "RealtimeJobFile",
    "StageNode",
    "frame_outcomes",
    "load_realtime_jobfile",
    "generate_workload",
    "workload_to_dict",
]
