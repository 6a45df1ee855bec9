"""Defragmenting floorplanner: live PRR compaction (ROADMAP item 3).

Long-running multi-tenant fleets fragment the PRR pool until admission
refuses jobs that would fit if regions were repacked.  This package
plans minimal live-module relocation sequences over the zero-loss
Figure-5 drain-switch path:

* :mod:`repro.compact.planner` -- the planning policy: the greedy
  span-shortener over one live admission controller, and the plan data
  types;
* :mod:`repro.compact.workloads` -- churn workloads that reproduce the
  fragmented state (and the X-COMPACT ablation scenario).

The admission controller decides which moves are feasible (the same
move rule fault healing uses); the executor plans and applies moves
between scheduling quanta
(:meth:`repro.runtime.executor.JobExecutor.compact`), and ``python -m
repro serve --compaction on`` switches the whole stack on.
"""

from repro.compact.planner import CompactionPlan, Relocation, plan_compaction
from repro.compact.workloads import churn_jobs, churn_params

__all__ = [
    "CompactionPlan",
    "Relocation",
    "churn_jobs",
    "churn_params",
    "plan_compaction",
]
