"""Reproducible fault campaigns and the JSON resilience report.

A campaign serves a batch of stream jobs while the
:class:`~repro.faults.plant.FaultPlant` injects the configured fault
mix, then distills the outcome into a *resilience report*: injection /
detection / repair counts per fault class, MTTD/MTTR, scrub activity,
Figure-5 recoveries (with the headline ``samples_lost`` number -- 0
when the zero-interruption path handled every replacement) and per-job
degradation.

Determinism contract: the same ``(seed, config, jobs, params)`` produce
a **byte-identical** report across runs and, in fleet mode, across any
worker count.  Everything in the report is therefore sourced from the
simulation (merged metrics registry + job reports); wall-clock and the
worker count never appear.  Latencies are observed as integer
microseconds, so histogram sums are exact and merge-order-independent.
``sim_us`` is only meaningful for a single shared simulator and is
``None`` in fleet mode (there it would sum separate simulators).

Campaigns inherit the kernel fast path through
:class:`~repro.runtime.executor.ExecutorConfig` (``use_fastpath``, on by
default); the determinism contract is unaffected because the fast path
replays the heap kernel's event order bit-identically.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

from repro.core.params import SystemParameters
from repro.faults.model import ALL_FAULT_CLASSES, CampaignConfig
from repro.pool.batch import run_batch
from repro.runtime.executor import ExecutorConfig, JobExecutor
from repro.runtime.jobs import JobError, StreamJob, load_jobfile
from repro.runtime.telemetry import FleetReport

#: Version of the resilience-report JSON layout (independent of the
#: runtime telemetry schema).
REPORT_SCHEMA_VERSION = 1


# ----------------------------------------------------------------------
# campaign input loading
# ----------------------------------------------------------------------
@dataclass
class CampaignInput:
    """Resolved input of one campaign: system + jobs + executor tuning."""

    name: str
    params: SystemParameters
    jobs: List[StreamJob]
    mode: str = "colocate"
    workers: int = 1
    executor: ExecutorConfig = field(default_factory=ExecutorConfig)


def load_campaign_input(path: str) -> CampaignInput:
    """Load a campaign target: a jobfile, a sysdef, or a preset name.

    * a ``repro serve`` jobfile (JSON object with a ``"jobs"`` list)
      supplies jobs, system parameters and executor tuning directly;
    * a sysdef JSON (or a preset name such as ``prototype``) supplies
      only the architecture -- a default single-stage passthrough job is
      synthesised so the fault plant has a victim stream to exercise.
    """
    from repro.verify.loader import PRESETS, LoaderError, build_params

    if path in PRESETS:
        params = build_params({"preset": path})
        if params.pr_speedup == 1.0:
            # campaigns care about protocol ordering, not PR wall time
            params = replace(params, pr_speedup=1000.0)
        return CampaignInput(
            name=path, params=params, jobs=[_default_job()],
        )
    file_path = Path(path)
    try:
        spec = json.loads(file_path.read_text())
    except OSError as exc:
        raise JobError(f"cannot read {file_path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise JobError(f"{file_path} is not valid JSON: {exc}") from exc
    if not isinstance(spec, dict):
        raise JobError(f"{file_path} must contain a JSON object")
    if "jobs" in spec:
        jobfile = load_jobfile(file_path)
        return CampaignInput(
            name=jobfile.name,
            params=jobfile.params,
            jobs=list(jobfile.jobs),
            mode=jobfile.mode,
            workers=jobfile.workers,
            executor=ExecutorConfig.from_dict(jobfile.executor),
        )
    try:
        params = build_params(spec)
    except LoaderError as exc:
        raise JobError(f"{file_path}: bad system spec: {exc}") from exc
    if "pr_speedup" not in spec and params.pr_speedup == 1.0:
        # campaigns care about protocol ordering, not PR wall time
        params = replace(params, pr_speedup=1000.0)
    return CampaignInput(
        name=spec.get("name", file_path.stem),
        params=params,
        jobs=[_default_job()],
    )


def _default_job() -> StreamJob:
    """The synthesised victim stream for sysdef/preset campaigns."""
    from repro.runtime.jobs import SourceSpec, StageSpec

    # long enough (~2.5ms of streaming) to keep a live victim stream
    # through the default 2ms injection window
    return StreamJob(
        name="campaign-victim",
        stages=[StageSpec("passthrough")],
        source=SourceSpec(kind="ramp", count=50_000),
        requeue_on_eviction=True,
    )


# ----------------------------------------------------------------------
# the campaign runner
# ----------------------------------------------------------------------
@dataclass
class CampaignResult:
    """Outcome of one campaign run."""

    fleet: FleetReport
    resilience: Dict[str, Any]

    def to_json(self) -> str:
        # sort_keys + fixed indent => byte-stable serialisation
        return json.dumps(self.resilience, indent=2, sort_keys=True)

    @property
    def ok(self) -> bool:
        return self.fleet.ok


class FaultCampaign:
    """A reproducible fault-injection campaign over a job batch."""

    def __init__(
        self,
        config: CampaignConfig,
        jobs: Sequence[StreamJob],
        params: Optional[SystemParameters] = None,
        mode: str = "colocate",
        workers: int = 1,
        executor: Optional[ExecutorConfig] = None,
        use_processes: bool = True,
    ) -> None:
        if mode not in ("colocate", "fleet"):
            raise JobError(
                f"campaign mode must be 'colocate' or 'fleet', got {mode!r}"
            )
        if not jobs:
            raise JobError("a campaign needs at least one job")
        self.config = config
        self.jobs = list(jobs)
        if params is None:
            # same default as the campaign loaders: campaigns care about
            # protocol ordering, not PR wall time
            params = replace(
                SystemParameters.prototype(), pr_speedup=1000.0
            )
        self.params = params
        self.mode = mode
        self.workers = workers
        self.executor = executor or ExecutorConfig()
        self.use_processes = use_processes

    # ------------------------------------------------------------------
    def run(self) -> CampaignResult:
        exec_config = replace(self.executor, faults=self.config)
        plant_summary: Optional[Dict[str, Any]] = None
        if self.mode == "colocate":
            runner = JobExecutor(params=self.params, config=exec_config)
            fleet = runner.run(self.jobs)
            if runner.plant is not None:
                plant_summary = runner.plant.summary()
        else:
            fleet = run_batch(
                self.jobs,
                self.workers,
                params=self.params,
                config=exec_config,
                use_processes=self.use_processes,
            )
        resilience = resilience_report(fleet, self.config, plant_summary)
        return CampaignResult(fleet=fleet, resilience=resilience)


def run_campaign(
    config: CampaignConfig,
    jobs: Sequence[StreamJob],
    params: Optional[SystemParameters] = None,
    mode: str = "colocate",
    workers: int = 1,
    executor: Optional[ExecutorConfig] = None,
    use_processes: bool = True,
) -> CampaignResult:
    """Convenience wrapper: build a :class:`FaultCampaign` and run it."""
    return FaultCampaign(
        config,
        jobs,
        params=params,
        mode=mode,
        workers=workers,
        executor=executor,
        use_processes=use_processes,
    ).run()


# ----------------------------------------------------------------------
# the resilience report
# ----------------------------------------------------------------------
def _latency_stats(metrics, name: str) -> Dict[str, Any]:
    """``{count, mean_us}`` from a latency histogram (exact integer sum)."""
    metric = metrics.get(name) if metrics is not None else None
    if metric is None or metric.count == 0:
        return {"count": 0, "mean_us": 0.0}
    return {"count": metric.count, "mean_us": metric.sum / metric.count}


def resilience_report(
    fleet: FleetReport,
    config: CampaignConfig,
    plant_summary: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """Distill a fault-campaign run into the resilience report dict.

    Counts come from the (merged) metrics registry so colocate and fleet
    runs share one code path; job-level degradation comes from the
    per-job reports.  ``plant_summary`` (colocate only -- the plant
    lives in this process) adds the event ledger and quarantined-PRR
    names.  Nothing here depends on wall-clock or worker count.
    """
    metrics = fleet.metrics

    def count(name: str, labels: Optional[Dict[str, str]] = None) -> int:
        if metrics is None:
            return 0
        return int(metrics.value(name, labels))

    def per_class(name: str) -> Dict[str, int]:
        return {
            fault_class.value: count(
                name, {"class": fault_class.value}
            )
            for fault_class in ALL_FAULT_CLASSES
        }

    report: Dict[str, Any] = {
        "schema_version": REPORT_SCHEMA_VERSION,
        "campaign": config.to_dict(),
        "mode": fleet.mode,
        # only one shared simulator has a meaningful end time; a fleet
        # run's total is a sum over separate simulators, so it is omitted
        "sim_us": (
            int(fleet.sim_us) if fleet.mode == "colocate" else None
        ),
        "faults": {
            "injected": per_class("repro_faults_injected_total"),
            "detected": per_class("repro_faults_detected_total"),
            "repaired": per_class("repro_faults_repaired_total"),
            "detect_latency_us": _latency_stats(
                metrics, "repro_fault_detect_latency_us"
            ),
            "repair_latency_us": _latency_stats(
                metrics, "repro_fault_repair_latency_us"
            ),
        },
        "scrub": {
            "passes": count("repro_scrub_passes_total"),
            "frames_scrubbed": count("repro_scrub_frames_total"),
            "repairs": count("repro_scrub_repairs_total"),
        },
        "figure5": {
            "recoveries": count("repro_fault_fig5_recoveries_total"),
            "samples_lost": count("repro_fault_fig5_lost_words_total"),
        },
        "quarantined": count("repro_prr_quarantined_total"),
        "icap": {
            "aborted_transfers": count("repro_icap_aborted_total"),
            "reconfigs_submitted": count("repro_reconfig_submitted_total"),
        },
        "jobs": {
            "total": len(fleet.jobs),
            "states": fleet.states,
            "fault_evictions": sum(j.fault_evictions for j in fleet.jobs),
            "fault_recoveries": sum(j.fault_recoveries for j in fleet.jobs),
            "words_out": sum(j.words_out for j in fleet.jobs),
            "words_lost": sum(j.words_lost for j in fleet.jobs),
            "degraded": sorted(
                j.name for j in fleet.jobs
                if j.fault_evictions or j.fault_recoveries
            ),
            "failed": sorted(
                j.name for j in fleet.jobs if j.state == "FAILED"
            ),
        },
    }
    if plant_summary is not None:
        report["scrub"]["skipped_ticks"] = (
            plant_summary["scrub"]["skipped_ticks"]
        )
        report["injector_dropped"] = plant_summary["injector_dropped"]
        report["quarantined_prrs"] = plant_summary["quarantined_prrs"]
        report["events"] = plant_summary["events"]
    return report
