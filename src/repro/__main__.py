"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``info``
    Print the Virtex-4 device catalogue (or one device's details).
``flows``
    Run the base system flow for a parameterised system and print the
    resource summary plus the floorplan; optionally write the MHS/MSS/UCF
    system definition files to a directory.
``demo``
    Run the Figure 5 module-switch demo and print the step table.
``experiments``
    Regenerate the headline Section V.B numbers (resources and
    reconfiguration times) and print the paper-vs-measured table.
``verify``
    Statically verify a JSON system definition (or a named preset):
    floorplan DRC, CDC lint, credit-loop analysis, switching
    preconditions and kernel determinism checks.  ``--json`` emits a
    machine-readable report; the exit code is non-zero when any
    error-severity diagnostic is found.
``serve``
    Load a JSON jobfile and serve its stream jobs: ``fleet`` mode
    serves independent jobs through a ``repro.pool`` device pool with
    one worker process per ``--workers`` (one simulated VAPRES
    instance per job), ``colocate`` mode multi-tenants them on a
    single instance with admission control and priority preemption.
    Prints per-job and fleet telemetry; ``--json`` emits the report as
    JSON, ``--output`` saves it.  ``--trace-out`` writes the run's span
    trace as Chrome trace-event JSON (open in Perfetto or
    ``chrome://tracing``), ``--metrics-out`` dumps the merged metrics
    registry in Prometheus text format.  Exit code is non-zero when any
    job ends FAILED or terminally EVICTED (no retry budget left);
    ``--fail-fast`` aborts the run on the first such job (in fleet
    mode, the rest of that worker's jobs).

    With ``--listen HOST:PORT`` the jobfile supplies only the system
    parameters and executor config, and ``serve`` becomes a long-lived
    network front door instead of a batch run: a ``repro.pool``
    device pool (``--devices``, ``--overcommit``) accepts streaming
    NDJSON job submissions over HTTP (``POST /jobs``) from many
    tenants at once and streams lifecycle events back.  SIGTERM (or
    ``POST /shutdown``) drains gracefully.  See README "Serving" for
    the protocol.
``submit``
    Send a jobfile's jobs to a running ``serve --listen`` server over
    the bundled client, stream the lifecycle events, and exit non-zero
    unless every job completed.
``obs``
    Render a saved Chrome trace (from ``serve --trace-out``) as a
    timeline table; ``--summary`` prints a flamegraph-style aggregation
    of span self-times instead.  Two extra modes drive the live plane:
    ``obs stitch SHARD...`` merges per-device trace shards (written by
    ``serve --listen --obs-dir``) into one byte-stable Perfetto file
    with one process per ``trace_id``, and ``obs tail --connect
    HOST:PORT`` streams the ``GET /events`` NDJSON firehose of a
    running pool server to stdout.
``bench``
    Run the curated performance benchmark suite (kernel event
    throughput, Figure-5 steady-state and switch, fleet serving), write
    a schema-versioned ``BENCH_<rev>.json`` report with
    machine-calibrated normalized rates, and -- with ``--compare`` --
    gate against a committed baseline: exit 1 when any case regresses
    beyond ``--threshold``.  ``--quick`` runs CI-sized workloads;
    ``--update-baseline`` refreshes the committed baseline in place
    (preserving its informational ``reference_seed`` section).
``realtime``
    Deadline-driven time-shared PRR scheduling (``repro.realtime``).
    ``realtime gen`` emits a seeded periodic-pipeline jobfile at a
    target aggregate PRR utilization; ``realtime run`` executes a
    realtime jobfile under the preemptive EDF scheduler (checkpoint/
    restore swaps via the CMD_CHECKPOINT drain), the static-priority
    restart baseline, or ``both`` for the ablation table.  Frames are
    judged offline from the output timeline by one shared ruler;
    ``--fail-on-miss`` makes any missed frame deadline fatal (the CI
    smoke gate).  Exit code is non-zero when a job fails outright.
``faults``
    Run a seeded fault-injection campaign (SEU frame upsets, stuck
    lanes, FIFO bit errors, ICAP corruption) against a jobfile, sysdef
    or preset, with ICAP scrubbing and self-healing recovery enabled,
    and emit a resilience report (detection/repair latency, scrub
    activity, Figure-5 recoveries and stream-sample loss).  The report
    is byte-identical for the same seed and config.  ``--seed`` is
    mandatory; the VAP5xx determinism lint rejects nondeterministic
    inputs.  Exit code is non-zero when any job ends FAILED.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace
from pathlib import Path


def cmd_info(args: argparse.Namespace) -> int:
    from repro.fabric.device import BOARDS, DEVICES, get_device

    if args.device:
        device = get_device(args.device)
        print(device)
        print(f"  clock regions : {device.clock_region_count} "
              f"({device.clock_region_bands} bands x 2 halves)")
        print(f"  BUFRs         : {device.bufr_count}")
        print(f"  flip-flops    : {device.flipflops}")
        print(f"  4-input LUTs  : {device.luts}")
        return 0
    print("Virtex-4 LX devices:")
    for device in DEVICES.values():
        print(f"  {device}")
    print("boards:")
    for board in BOARDS.values():
        print(f"  {board.name}: {board.device_name}, "
              f"{board.sdram_bytes // (1 << 20)} MB SDRAM")
    return 0


def cmd_flows(args: argparse.Namespace) -> int:
    from repro.core.params import ParameterError, RsbParameters, SystemParameters
    from repro.fabric.floorplan import FloorplanError
    from repro.flows.base_system import BaseSystemFlow, FlowError

    try:
        params = SystemParameters(
            name=args.name,
            board=args.board,
            rsbs=[
                RsbParameters(
                    num_prrs=args.prrs,
                    num_ioms=args.ioms,
                    iom_positions=list(range(args.ioms)),
                    channel_width=args.width,
                    kr=args.lanes,
                    kl=args.lanes,
                    prr_slices=args.prr_slices,
                )
            ],
        )
        build = BaseSystemFlow(params).run()
    except (FlowError, FloorplanError, ParameterError, KeyError) as error:
        print(f"base system flow failed: {error}", file=sys.stderr)
        return 1
    print(build.summary())
    print()
    print(build.floorplan.render_ascii())
    if args.output:
        out = Path(args.output)
        out.mkdir(parents=True, exist_ok=True)
        (out / f"{params.name}.mhs").write_text(build.mhs)
        (out / f"{params.name}.mss").write_text(build.mss)
        (out / f"{params.name}.ucf").write_text(build.ucf)
        print(f"\nsystem definition files written to {out}/")
    return 0


def cmd_demo(args: argparse.Namespace) -> int:
    from repro.analysis.metrics import interruption_report
    from repro.analysis.trace import switch_step_table
    from repro.core import SystemParameters, VapresSystem
    from repro.core.switching import ModuleSwitcher
    from repro.modules import Iom, MovingAverage
    from repro.modules.base import staged
    from repro.modules.sources import sine_wave

    params = replace(SystemParameters.prototype(), pr_speedup=args.speedup)
    system = VapresSystem(params)
    iom = Iom("io", source=sine_wave(count=50_000_000))
    system.attach_iom("rsb0.iom0", iom)
    system.place_module_directly(MovingAverage("filterA", window=4), "rsb0.prr0")
    ch_in = system.open_stream("rsb0.iom0", "rsb0.prr0")
    ch_out = system.open_stream("rsb0.prr0", "rsb0.iom0")
    system.register_module(
        "filterB", lambda: staged(MovingAverage("filterB", window=4))
    )
    system.repository.preload_to_sdram("filterB", "rsb0.prr1")
    system.run_for_us(30)
    report = system.microblaze.run_to_completion(
        ModuleSwitcher(system).switch(
            old_prr="rsb0.prr0",
            new_prr="rsb0.prr1",
            new_module="filterB",
            upstream_slot="rsb0.iom0",
            downstream_slot="rsb0.iom0",
            input_channel=ch_in,
            output_channel=ch_out,
        ),
        "demo-switch",
    )
    system.run_for_us(30)
    print(switch_step_table(report))
    stats = interruption_report(
        iom.receive_times, 1 / system.system_clock.frequency_hz
    )
    print(f"\noutput stream: {stats}")
    print(f"reconfiguration: {report.reconfig_seconds * 1e3:.3f} ms "
          f"(scaled x{args.speedup:g}); words lost: {report.words_lost}")
    return 0


def cmd_experiments(args: argparse.Namespace) -> int:
    from repro.analysis.report import PaperComparison, comparison_table
    from repro.core import SystemParameters, VapresSystem
    from repro.fabric.device import get_device
    from repro.flows.estimate import (
        comm_architecture_slices,
        static_region_resources,
    )
    from repro.modules.transforms import PassThrough

    params = SystemParameters.prototype()
    device = get_device("XC4VLX25")

    # Section V.B resources
    static = static_region_resources(params).slices
    comm = comm_architecture_slices(params.rsbs[0])

    # Section V.B reconfiguration times, measured with the xps_timer
    system = VapresSystem(params)
    system.register_module("mod", lambda: PassThrough("mod"))
    system.timer.start()
    system.engine.cf2icap("mod", "rsb0.prr0")
    system.sim.run()
    cf_cycles = system.timer.stop()
    system.repository.preload_to_sdram("mod", "rsb0.prr1")
    system.timer.start()
    system.engine.array2icap("mod", "rsb0.prr1")
    system.sim.run()
    array_cycles = system.timer.stop()
    hz = system.system_clock.frequency_hz
    bitstream = system.repository.lookup("mod", "rsb0.prr0")
    split = system.engine.cf2icap_breakdown(bitstream)
    cf_share = split["cf_to_buffer"] / sum(split.values())

    comparisons = [
        PaperComparison("E-RES", "static region slices", 9421, static,
                        "slices", tolerance=0.0),
        PaperComparison("E-RES", "comm architecture slices", 1020, comm,
                        "slices", tolerance=0.0),
        PaperComparison("E-RT", "cf2icap time", 1.043, cf_cycles / hz, "s",
                        tolerance=0.01),
        PaperComparison("E-RT", "CF transfer share", 0.953, cf_share, "",
                        tolerance=0.01),
        PaperComparison("E-RT", "array2icap time", 0.07194,
                        array_cycles / hz, "s", tolerance=0.01),
    ]
    print(comparison_table(
        comparisons,
        title="VAPRES Section V.B: paper vs this reproduction "
              f"({bitstream.size_bytes}-byte bitstream, 640-slice PRR)",
    ))
    print("\nfull experiment index: DESIGN.md; all results: EXPERIMENTS.md;")
    print("run `pytest benchmarks/ --benchmark-only -s` for every table "
          "and figure.")
    return 0 if all(c.within_tolerance for c in comparisons) else 1


def cmd_verify(args: argparse.Namespace) -> int:
    from repro.verify.loader import PRESETS, LoaderError, build_system, load_sysdef
    from repro.verify.runner import verify_system

    try:
        if args.sysdef in PRESETS:
            loaded = build_system({"preset": args.sysdef})
        else:
            loaded = load_sysdef(args.sysdef)
    except LoaderError as error:
        print(f"verify: cannot load {args.sysdef!r}: {error}", file=sys.stderr)
        if "/" not in args.sysdef and not args.sysdef.endswith(".json"):
            print(f"(known presets: {', '.join(sorted(PRESETS))})",
                  file=sys.stderr)
        return 2
    report = verify_system(
        loaded.system,
        probe_cycles=args.probe_cycles,
        switch_plans=loaded.switch_plans,
    )
    if loaded.name:
        report.subject = loaded.name
    if args.json:
        print(report.to_json())
    else:
        print(report.render_text(include_info=not args.quiet))
    return 0 if report.ok else 1


def _parse_hostport(value: str):
    host, sep, port = value.rpartition(":")
    if not sep or not host:
        raise ValueError(
            f"--listen wants HOST:PORT (port 0 = ephemeral), got {value!r}"
        )
    return host, int(port)


def _serve_listen(args: argparse.Namespace, jobfile, config) -> int:
    import asyncio

    from repro.pool import DevicePool, PoolServer

    try:
        host, port = _parse_hostport(args.listen)
    except ValueError as error:
        print(f"serve: {error}", file=sys.stderr)
        return 2
    if jobfile.jobs:
        print(
            f"serve: --listen ignores the jobfile's {len(jobfile.jobs)} "
            "job(s); submit them with `python -m repro submit`",
            file=sys.stderr,
        )

    async def run() -> int:
        pool = DevicePool(
            devices=args.devices,
            params=jobfile.params,
            config=config,
            overcommit=args.overcommit,
            use_processes=not args.inline,
            snapshot_every_quanta=args.snapshot_every,
            compaction=config.compaction,
        )
        server = PoolServer(pool, host, port, obs_dir=args.obs_dir)
        await server.start()
        server.install_signal_handlers()
        print(
            f"serve: listening on {server.host}:{server.port} "
            f"({args.devices} devices, overcommit {args.overcommit:g}, "
            f"{'inline' if args.inline else 'process'} workers)",
            flush=True,
        )
        await server.run_until_shutdown()
        summary = pool.summary()
        import json as _json

        print(f"serve: drained; {_json.dumps(summary, sort_keys=True)}")
        return 0 if pool.strict_ok else 1

    return asyncio.run(run())


def cmd_serve(args: argparse.Namespace) -> int:
    from repro.runtime import (
        ExecutorConfig,
        JobError,
        JobExecutor,
        load_jobfile,
    )

    try:
        jobfile = load_jobfile(args.jobfile)
        config = ExecutorConfig.from_dict(jobfile.executor)
    except JobError as error:
        print(f"serve: cannot load {args.jobfile!r}: {error}",
              file=sys.stderr)
        return 2
    if args.fail_fast:
        config = replace(config, fail_fast=True)
    if args.compaction is not None:
        config = replace(config, compaction=args.compaction)
    if args.listen:
        if args.fail_fast:
            # under fail-fast a worker stops serving after one failed
            # job, which would disable a device for the server's lifetime
            print("serve: --fail-fast applies to batch runs only, "
                  "not to --listen", file=sys.stderr)
            return 2
        return _serve_listen(args, jobfile, config)
    mode = args.mode or jobfile.mode
    workers = args.workers if args.workers is not None else jobfile.workers
    try:
        if mode == "colocate":
            executor = JobExecutor(params=jobfile.params, config=config)
            report = executor.run(jobfile.jobs)
        else:
            from repro.pool import run_batch

            report = run_batch(
                jobfile.jobs, workers, params=jobfile.params, config=config
            )
    except JobError as error:
        print(f"serve: {error}", file=sys.stderr)
        return 2
    rendered = report.to_json() if args.json else report.render_text()
    print(rendered)
    if args.output:
        Path(args.output).write_text(report.to_json() + "\n")
        print(f"report saved to {args.output}", file=sys.stderr)
    if args.trace_out:
        from repro.obs.export import dump_chrome_trace

        dump_chrome_trace(report.span_events, args.trace_out)
        print(
            f"trace ({len(report.span_events)} events) saved to "
            f"{args.trace_out}",
            file=sys.stderr,
        )
    if args.metrics_out:
        from repro.obs.export import prometheus_text

        Path(args.metrics_out).write_text(prometheus_text(report.metrics))
        print(f"metrics saved to {args.metrics_out}", file=sys.stderr)
    if not report.strict_ok:
        for job in report.jobs:
            if job.state == "EVICTED":
                print(
                    f"serve: job {job.name!r} was preempted with no retry "
                    "budget (set requeue_on_eviction to requeue instead)",
                    file=sys.stderr,
                )
    return 0 if report.strict_ok else 1


def cmd_submit(args: argparse.Namespace) -> int:
    import json

    from repro.pool import ClientError, run_jobs_sync
    from repro.runtime import JobError, load_jobfile

    try:
        jobfile = load_jobfile(args.jobfile)
    except JobError as error:
        print(f"submit: cannot load {args.jobfile!r}: {error}",
              file=sys.stderr)
        return 2
    try:
        host, port = _parse_hostport(args.connect)
    except ValueError as error:
        print(f"submit: {error}", file=sys.stderr)
        return 2
    on_event = None
    if args.events:
        on_event = lambda event: print(json.dumps(event), flush=True)  # noqa: E731
    try:
        summary = run_jobs_sync(
            host, port, jobfile.jobs, tenant=args.tenant, on_event=on_event
        )
    except (ClientError, ConnectionError, OSError) as error:
        print(f"submit: {host}:{port}: {error}", file=sys.stderr)
        return 2
    if not args.events:
        print(json.dumps(summary, sort_keys=True))
    return 0 if summary.get("ok") else 1


def _realtime_gen(args: argparse.Namespace) -> int:
    import json

    from repro.realtime import RealtimeError, generate_workload
    from repro.realtime.workloads import workload_to_dict
    from repro.verify.loader import LoaderError, build_params

    system_spec = {"preset": args.preset, "pr_speedup": args.pr_speedup}
    try:
        params = build_params(system_spec)
        jobs = generate_workload(
            seed=args.seed,
            jobs=args.jobs,
            utilization=args.utilization,
            params=params,
            deadline_factor=args.deadline_factor,
            frames=args.frames,
            max_stages=args.max_stages,
        )
    except (LoaderError, RealtimeError, ValueError) as error:
        print(f"realtime gen: {error}", file=sys.stderr)
        return 2
    data = workload_to_dict(
        jobs,
        name=f"generated-seed{args.seed}",
        scheduler=args.scheduler,
        utilization_bound=args.utilization_bound,
        pr_speedup=args.pr_speedup,
        preset=args.preset,
    )
    text = json.dumps(data, indent=2, sort_keys=True)
    if args.out:
        Path(args.out).write_text(text + "\n")
        print(f"realtime jobfile ({len(jobs)} jobs, target utilization "
              f"{args.utilization:g}) written to {args.out}",
              file=sys.stderr)
    else:
        print(text)
    return 0


def _realtime_run(args: argparse.Namespace) -> int:
    import json

    from repro.realtime import (
        EdfExecutor,
        RealtimeError,
        load_realtime_jobfile,
        run_priority_baseline,
    )
    from repro.runtime import ExecutorConfig, JobError

    try:
        jobfile = load_realtime_jobfile(args.jobfile)
        # realtime swaps live or die on reaction latency: a 25us quantum
        # with a 3-poll completion streak burns a frame's worth of dead
        # time per rotation, so the realtime default is tighter than the
        # batch executor's (a jobfile 'executor' section still wins)
        config = ExecutorConfig.from_dict(
            {"quantum_us": 5.0, "idle_streak": 2, **jobfile.executor}
        )
    except (RealtimeError, JobError) as error:
        print(f"realtime run: cannot load {args.jobfile!r}: {error}",
              file=sys.stderr)
        return 2
    scheduler = args.scheduler or jobfile.scheduler
    reports = {}
    try:
        if scheduler in ("edf", "both"):
            executor = EdfExecutor(
                params=jobfile.params,
                config=config,
                utilization_bound=jobfile.utilization_bound,
                min_resident_us=jobfile.min_resident_us,
            )
            reports["edf"] = executor.run_realtime(jobfile.jobs)
        if scheduler in ("priority", "both"):
            reports["priority"] = run_priority_baseline(
                jobfile.jobs, params=jobfile.params, config=config
            )
    except (RealtimeError, JobError) as error:
        print(f"realtime run: {error}", file=sys.stderr)
        return 2
    if args.json:
        payload = {name: rep.to_dict() for name, rep in reports.items()}
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for report in reports.values():
            print(report.render_text())
        if len(reports) == 2:
            edf, prio = reports["edf"], reports["priority"]
            print(f"\nablation: EDF {edf.hits_total}/{edf.frames_total} "
                  f"vs priority {prio.hits_total}/{prio.frames_total} "
                  "frames hit")
    if args.output:
        payload = {name: rep.to_dict() for name, rep in reports.items()}
        Path(args.output).write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n"
        )
        print(f"report saved to {args.output}", file=sys.stderr)
    judged = reports.get("edf") or reports["priority"]
    if args.fail_on_miss and judged.misses_total:
        print(f"realtime run: {judged.misses_total} frame deadline(s) "
              "missed", file=sys.stderr)
        return 1
    return 0 if judged.ok else 1


def cmd_realtime(args: argparse.Namespace) -> int:
    if args.action == "gen":
        return _realtime_gen(args)
    return _realtime_run(args)


def cmd_faults(args: argparse.Namespace) -> int:
    import json

    from repro.faults.campaign import load_campaign_input, run_campaign
    from repro.faults.model import CampaignConfig
    from repro.runtime.jobs import JobError
    from repro.verify.determinism import check_config_determinism

    if args.seed is None:
        print(
            "faults: an explicit integer --seed is required (VAP502: "
            "campaigns must be reproducible)",
            file=sys.stderr,
        )
        return 2
    config_dict = {
        "seed": args.seed,
        "duration_us": args.duration_us,
        "seu_frames": args.seu,
        "lane_stuck": args.lane_stuck,
        "fifo_bit": args.fifo_bit,
        "icap_corrupt": args.icap_corrupt,
        "scrub_period_us": args.scrub_period_us,
        "escalate_after": args.escalate_after,
        "quarantine_after": args.quarantine_after,
    }
    # VAP5xx lint: the campaign dict plus the target spec itself (a
    # jobfile can smuggle in unseeded noise sources or placeholders)
    lint_specs = [("campaign", config_dict)]
    target_path = Path(args.target)
    if target_path.is_file():
        try:
            lint_specs.append(
                (target_path.name, json.loads(target_path.read_text()))
            )
        except (OSError, json.JSONDecodeError):
            pass  # load_campaign_input reports the real error below
    findings = []
    for subject, spec in lint_specs:
        findings.extend(check_config_determinism(spec, subject=subject))
    for finding in findings:
        print(f"faults: {finding}", file=sys.stderr)
    if any(str(f.severity) == "error" for f in findings):
        return 2
    try:
        config = CampaignConfig.from_dict(config_dict)
        loaded = load_campaign_input(args.target)
        mode = args.mode or loaded.mode
        workers = args.workers if args.workers is not None else loaded.workers
        result = run_campaign(
            config,
            loaded.jobs,
            params=loaded.params,
            mode=mode,
            workers=workers,
            executor=loaded.executor,
        )
    except JobError as error:
        print(f"faults: {error}", file=sys.stderr)
        return 2
    if args.json:
        print(result.to_json())
    else:
        r = result.resilience
        injected = sum(r["faults"]["injected"].values())
        detected = sum(r["faults"]["detected"].values())
        repaired = sum(r["faults"]["repaired"].values())
        print(f"campaign: seed={config.seed} mode={r['mode']} "
              f"jobs={r['jobs']['total']}")
        print(f"faults: injected={injected} detected={detected} "
              f"repaired={repaired}")
        print(f"  detect latency: mean "
              f"{r['faults']['detect_latency_us']['mean_us']:.1f}us "
              f"over {r['faults']['detect_latency_us']['count']}")
        print(f"  repair latency: mean "
              f"{r['faults']['repair_latency_us']['mean_us']:.1f}us "
              f"over {r['faults']['repair_latency_us']['count']}")
        print(f"scrub: passes={r['scrub']['passes']} "
              f"frames={r['scrub']['frames_scrubbed']} "
              f"repairs={r['scrub']['repairs']}")
        print(f"figure5: recoveries={r['figure5']['recoveries']} "
              f"samples_lost={r['figure5']['samples_lost']}")
        print(f"jobs: states={r['jobs']['states']} "
              f"words_out={r['jobs']['words_out']} "
              f"words_lost={r['jobs']['words_lost']} "
              f"degraded={r['jobs']['degraded']}")
        if r["quarantined"]:
            print(f"quarantined PRRs: {r['quarantined']}")
    if args.output:
        Path(args.output).write_text(result.to_json() + "\n")
        print(f"resilience report saved to {args.output}", file=sys.stderr)
    return 0 if result.ok else 1


def cmd_bench(args: argparse.Namespace) -> int:
    import json

    from repro.bench import (
        BenchError,
        compare_reports,
        default_output_name,
        render_compare,
        run_bench,
    )
    from repro.bench.runner import derive_ratios, load_report, write_report

    cases = args.cases.split(",") if args.cases else None
    try:
        report = run_bench(quick=args.quick, cases=cases)
    except BenchError as error:
        print(f"bench: {error}", file=sys.stderr)
        return 2
    out = Path(args.output or default_output_name(report["revision"]))
    write_report(report, out)
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        print(f"benchmark report ({report['mode']} mode, "
              f"rev {report['revision']}) written to {out}")
        for name, case in report["cases"].items():
            print(f"  {name:<26} {case['value']:>14,.0f} {case['metric']}"
                  f"  (normalized {case['normalized']:.4f})")
        for key, value in report["derived"].items():
            print(f"  {key:<26} {value:>13.2f}x")
    if not args.compare:
        return 0
    try:
        baseline = load_report(Path(args.compare))
        result = compare_reports(report, baseline, threshold=args.threshold)
        if not result.ok and not args.no_rerun:
            # one retry of just the regressed cases rules out a
            # throttling burst on the runner; a real code regression
            # reproduces and still fails
            regressed = [r["case"] for r in result.rows if r["regressed"]]
            if regressed:
                print(
                    "bench: re-running regressed case(s) to rule out host "
                    f"noise: {', '.join(regressed)}",
                    file=sys.stderr,
                )
                retry = run_bench(quick=args.quick, cases=regressed)
                report["cases"].update(retry["cases"])
                report["derived"] = derive_ratios(report["cases"])
                write_report(report, out)
                result = compare_reports(
                    report, baseline, threshold=args.threshold
                )
    except BenchError as error:
        print(f"bench: {error}", file=sys.stderr)
        return 2
    print()
    print(render_compare(result, threshold=args.threshold))
    if args.update_baseline:
        # keep the baseline's informational pre-fast-path reference
        if "reference_seed" in baseline:
            report = dict(report)
            report["reference_seed"] = baseline["reference_seed"]
        write_report(report, Path(args.compare))
        print(f"baseline {args.compare} refreshed", file=sys.stderr)
        return 0
    return 0 if result.ok else 1


def _obs_stitch(args: argparse.Namespace, shards) -> int:
    import json

    from repro.obs.live import (
        dump_stitched_trace,
        stitch_chrome_trace_files,
        stitched_summary,
    )

    if not shards:
        print("obs stitch: need at least one trace shard", file=sys.stderr)
        return 2
    try:
        trace = stitch_chrome_trace_files(shards)
    except (OSError, ValueError, KeyError) as error:
        print(f"obs stitch: {error}", file=sys.stderr)
        return 2
    out = args.output or "stitched-trace.json"
    dump_stitched_trace(trace, out)
    rows = stitched_summary(trace)
    print(f"stitched {len(shards)} shard(s) -> {out}")
    for row in rows:
        print(json.dumps(row, sort_keys=True))
    return 0


def _obs_tail(args: argparse.Namespace) -> int:
    import asyncio
    import json

    from repro.pool import ClientError, stream_events

    if not args.connect:
        print("obs tail: --connect HOST:PORT is required", file=sys.stderr)
        return 2
    try:
        host, port = _parse_hostport(args.connect)
    except ValueError as error:
        print(f"obs tail: {error}", file=sys.stderr)
        return 2

    async def tail() -> int:
        async for event in stream_events(host, port, limit=args.limit):
            print(json.dumps(event, sort_keys=True), flush=True)
        return 0

    try:
        return asyncio.run(tail())
    except (ClientError, ConnectionError, OSError) as error:
        print(f"obs tail: {host}:{port}: {error}", file=sys.stderr)
        return 2


def cmd_obs(args: argparse.Namespace) -> int:
    from repro.obs.export import (
        flame_summary,
        load_chrome_trace,
        render_trace_file,
        spans_from_chrome,
    )

    if args.trace[0] == "stitch":
        return _obs_stitch(args, args.trace[1:])
    if args.trace[0] == "tail":
        return _obs_tail(args)
    if len(args.trace) > 1:
        print(
            "obs: multiple traces only make sense with `obs stitch`",
            file=sys.stderr,
        )
        return 2
    trace_path = args.trace[0]
    try:
        if args.summary:
            events = spans_from_chrome(load_chrome_trace(trace_path))
            print(flame_summary(events, top=args.limit))
        else:
            tracks = args.track or None
            print(
                render_trace_file(
                    trace_path, limit=args.limit, tail=args.tail,
                    tracks=tracks,
                )
            )
    except (OSError, ValueError, KeyError) as error:
        print(f"obs: cannot render {trace_path!r}: {error}", file=sys.stderr)
        return 2
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="VAPRES (DATE 2010) behavioural reproduction",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    info = sub.add_parser("info", help="device catalogue")
    info.add_argument("--device", help="show one device's details")
    info.set_defaults(func=cmd_info)

    flows = sub.add_parser("flows", help="run the base system flow")
    flows.add_argument("--name", default="vapres-custom")
    flows.add_argument("--board", default="ML401")
    flows.add_argument("--prrs", type=int, default=2)
    flows.add_argument("--ioms", type=int, default=1)
    flows.add_argument("--width", type=int, default=32)
    flows.add_argument("--lanes", type=int, default=2)
    flows.add_argument("--prr-slices", type=int, default=640)
    flows.add_argument("--output", help="directory for MHS/MSS/UCF files")
    flows.set_defaults(func=cmd_flows)

    demo = sub.add_parser("demo", help="run the Figure 5 switching demo")
    demo.add_argument("--speedup", type=float, default=500.0,
                      help="PR rate scaling (ratios preserved)")
    demo.set_defaults(func=cmd_demo)

    experiments = sub.add_parser(
        "experiments", help="regenerate the Section V.B headline numbers"
    )
    experiments.set_defaults(func=cmd_experiments)

    verify = sub.add_parser(
        "verify", help="statically verify a JSON system definition"
    )
    verify.add_argument(
        "sysdef",
        help="path to a JSON sysdef file, or a preset name "
             "(prototype, figure7)",
    )
    verify.add_argument(
        "--json", action="store_true",
        help="emit a machine-readable JSON report",
    )
    verify.add_argument(
        "--quiet", action="store_true",
        help="omit info-severity diagnostics from the text report",
    )
    verify.add_argument(
        "--probe-cycles", type=int, default=0, metavar="N",
        help="also run the kernel determinism probe for N system-clock "
             "cycles (advances simulated time)",
    )
    verify.set_defaults(func=cmd_verify)

    serve = sub.add_parser(
        "serve", help="serve a jobfile of stream jobs (fleet or colocated)"
    )
    serve.add_argument("jobfile", help="path to a JSON jobfile")
    serve.add_argument(
        "--mode", choices=("fleet", "colocate"),
        help="override the jobfile's execution mode",
    )
    serve.add_argument(
        "--workers", type=int, metavar="N",
        help="fleet worker processes (default: jobfile's, else 1)",
    )
    serve.add_argument(
        "--json", action="store_true",
        help="emit the telemetry report as JSON",
    )
    serve.add_argument(
        "--output", metavar="FILE", help="also save the JSON report here"
    )
    serve.add_argument(
        "--trace-out", metavar="FILE",
        help="write the run's span trace as Chrome trace-event JSON "
             "(Perfetto-loadable)",
    )
    serve.add_argument(
        "--metrics-out", metavar="FILE",
        help="write the run's metrics in Prometheus text format",
    )
    serve.add_argument(
        "--fail-fast", action="store_true",
        help="abort the run when any job ends FAILED or terminally "
             "EVICTED",
    )
    serve.add_argument(
        "--compaction", choices=("off", "on"),
        help="override the jobfile's live-PRR-compaction policy: 'on' "
             "relocates resident modules (zero-loss Figure-5 switches; "
             "ledger repacks with --listen) when a queued job is "
             "blocked by fragmentation rather than capacity",
    )
    serve.add_argument(
        "--listen", metavar="HOST:PORT",
        help="serve a repro.pool device pool over NDJSON/HTTP instead of "
             "running the jobfile's jobs (the jobfile supplies system and "
             "executor config; port 0 picks an ephemeral port)",
    )
    serve.add_argument(
        "--devices", type=int, default=4, metavar="N",
        help="pool size with --listen (default 4)",
    )
    serve.add_argument(
        "--overcommit", type=float, default=2.0, metavar="RATIO",
        help="vPRR grant ceiling per device as a multiple of its healthy "
             "physical PRRs (default 2.0; 1.0 disables overcommit)",
    )
    serve.add_argument(
        "--inline", action="store_true",
        help="with --listen: run device workers as threads instead of "
             "processes (tests, single-core hosts)",
    )
    serve.add_argument(
        "--obs-dir", metavar="DIR",
        help="with --listen: write the drained pool's trace shards, the "
             "stitched trace and flight-recorder dumps to this directory",
    )
    serve.add_argument(
        "--snapshot-every", type=int, default=8, metavar="QUANTA",
        help="with --listen: device telemetry snapshot interval in "
             "executor quanta (0 disables live snapshots; default 8)",
    )
    serve.set_defaults(func=cmd_serve)

    submit = sub.add_parser(
        "submit",
        help="send a jobfile to a running `serve --listen` pool server",
    )
    submit.add_argument("jobfile", help="path to a JSON jobfile")
    submit.add_argument(
        "--connect", metavar="HOST:PORT", required=True,
        help="address of the pool server",
    )
    submit.add_argument(
        "--tenant", default="cli",
        help="tenant name for these submissions (default 'cli')",
    )
    submit.add_argument(
        "--events", action="store_true",
        help="stream every NDJSON lifecycle event to stdout instead of "
             "just the batch summary",
    )
    submit.set_defaults(func=cmd_submit)

    realtime = sub.add_parser(
        "realtime",
        help="deadline-driven PRR time-sharing: generate or run a "
             "periodic-pipeline jobfile (EDF with checkpoint/restore)",
    )
    realtime_sub = realtime.add_subparsers(dest="action", required=True)
    rt_gen = realtime_sub.add_parser(
        "gen", help="emit a seeded realtime jobfile at a target utilization"
    )
    rt_gen.add_argument("--seed", type=int, required=True,
                        help="workload seed (same seed, same jobfile)")
    rt_gen.add_argument("--jobs", type=int, default=3, metavar="N",
                        help="periodic pipelines to generate (default 3)")
    rt_gen.add_argument(
        "--utilization", type=float, default=0.6, metavar="U",
        help="target aggregate PRR utilization; >1.0 guarantees overload "
             "(default 0.6)",
    )
    rt_gen.add_argument("--deadline-factor", type=float, default=3.0,
                        help="relative deadline as a multiple of the "
                             "period (default 3.0)")
    rt_gen.add_argument("--frames", type=int, default=5,
                        help="frames per job (default 5)")
    rt_gen.add_argument("--max-stages", type=int, default=1,
                        help="max pipeline depth (default 1)")
    rt_gen.add_argument("--scheduler", choices=("edf", "priority"),
                        default="edf", help="scheduler the jobfile pins")
    rt_gen.add_argument("--utilization-bound", type=float, default=1.0,
                        help="EDF admission bound (default 1.0)")
    rt_gen.add_argument("--preset", default="prototype",
                        help="system preset (default prototype)")
    rt_gen.add_argument("--pr-speedup", type=float, default=20_000.0,
                        help="PR rate scaling (default 20000)")
    rt_gen.add_argument("--out", metavar="FILE",
                        help="write the jobfile here (default stdout)")
    rt_gen.set_defaults(func=cmd_realtime)
    rt_run = realtime_sub.add_parser(
        "run", help="run a realtime jobfile and judge frame deadlines"
    )
    rt_run.add_argument("jobfile", help="path to a realtime JSON jobfile")
    rt_run.add_argument(
        "--scheduler", choices=("edf", "priority", "both"),
        help="override the jobfile's scheduler; 'both' prints the "
             "EDF-vs-priority ablation",
    )
    rt_run.add_argument("--json", action="store_true",
                        help="emit the report(s) as JSON")
    rt_run.add_argument("--output", metavar="FILE",
                        help="also save the JSON report here")
    rt_run.add_argument(
        "--fail-on-miss", action="store_true",
        help="exit non-zero when any frame deadline is missed "
             "(CI smoke gate)",
    )
    rt_run.set_defaults(func=cmd_realtime)

    faults = sub.add_parser(
        "faults",
        help="run a reproducible fault-injection campaign "
             "(SEU / scrub / self-healing)",
    )
    faults.add_argument(
        "target",
        help="a jobfile, a sysdef JSON, or a preset name (prototype, "
             "figure7); non-jobfiles get a synthesised victim stream",
    )
    faults.add_argument(
        "--seed", type=int, default=None,
        help="campaign seed (required; campaigns must be reproducible)",
    )
    faults.add_argument("--duration-us", type=float, default=2000.0,
                        help="injection window in simulated microseconds")
    faults.add_argument("--seu", type=int, default=0, metavar="N",
                        help="SEU frame upsets to inject")
    faults.add_argument("--lane-stuck", type=int, default=0, metavar="N",
                        help="stuck-at switch-box lane faults to inject")
    faults.add_argument("--fifo-bit", type=int, default=0, metavar="N",
                        help="transient FIFO bit errors to inject")
    faults.add_argument("--icap-corrupt", type=int, default=0, metavar="N",
                        help="ICAP transfer corruptions to inject")
    faults.add_argument("--scrub-period-us", type=float, default=200.0,
                        help="frame-readback scrub period")
    faults.add_argument("--escalate-after", type=int, default=2,
                        help="frame faults on a PRR before module "
                             "replacement instead of rewrite")
    faults.add_argument("--quarantine-after", type=int, default=3,
                        help="frame faults on a PRR before it is retired")
    faults.add_argument(
        "--mode", choices=("fleet", "colocate"),
        help="override the jobfile's execution mode (default: colocate "
             "for sysdefs/presets)",
    )
    faults.add_argument("--workers", type=int, metavar="N",
                        help="fleet worker processes")
    faults.add_argument("--json", action="store_true",
                        help="emit the resilience report as JSON")
    faults.add_argument("--output", metavar="FILE",
                        help="also save the JSON resilience report here")
    faults.set_defaults(func=cmd_faults)

    bench = sub.add_parser(
        "bench",
        help="run the benchmark suite; optionally gate against a baseline",
    )
    bench.add_argument(
        "--quick", action="store_true",
        help="CI-sized workloads (the committed baseline is quick-mode)",
    )
    bench.add_argument(
        "--cases", metavar="A,B,...",
        help="comma-separated subset of cases to run",
    )
    bench.add_argument(
        "--compare", metavar="BASELINE",
        help="compare against this baseline report; exit 1 on regression",
    )
    bench.add_argument(
        "--threshold", type=float, default=0.15, metavar="FRAC",
        help="regression threshold on normalized rates (default 0.15)",
    )
    bench.add_argument(
        "--output", metavar="FILE",
        help="report path (default: BENCH_<rev>.json in the CWD)",
    )
    bench.add_argument(
        "--update-baseline", action="store_true",
        help="with --compare: overwrite the baseline with this run",
    )
    bench.add_argument(
        "--no-rerun", action="store_true",
        help="fail immediately on regression instead of re-measuring the "
             "regressed cases once",
    )
    bench.add_argument(
        "--json", action="store_true",
        help="also print the full report as JSON",
    )
    bench.set_defaults(func=cmd_bench)

    obs = sub.add_parser(
        "obs",
        help="render a saved Chrome trace as a timeline table; also "
             "`obs stitch SHARD...` and `obs tail --connect HOST:PORT`",
    )
    obs.add_argument(
        "trace", nargs="+",
        help="trace JSON from `serve --trace-out`; or `stitch` followed "
             "by per-device shard files; or `tail` with --connect",
    )
    obs.add_argument(
        "--limit", type=int, metavar="N", help="show at most N events"
    )
    obs.add_argument(
        "--output", metavar="FILE",
        help="with `stitch`: output path (default stitched-trace.json)",
    )
    obs.add_argument(
        "--connect", metavar="HOST:PORT",
        help="with `tail`: address of a running pool server",
    )
    obs.add_argument(
        "--tail", action="store_true",
        help="with --limit, show the last N events instead of the first",
    )
    obs.add_argument(
        "--track", action="append", metavar="NAME",
        help="only show these tracks (repeatable)",
    )
    obs.add_argument(
        "--summary", action="store_true",
        help="print a flamegraph-style span aggregation instead",
    )
    obs.set_defaults(func=cmd_obs)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # `obs stitch`/`obs tail` stream records to stdout and are meant
        # to be piped (e.g. into head); a closed reader is not an error.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0


if __name__ == "__main__":
    sys.exit(main())
