"""The hardware-module switching methodology (paper Section III.B.3).

Replaces a running hardware module with a new one **without stream
processing interruption** by overlapping the new module's partial
reconfiguration with continued operation of the old module, then handing
the stream over through a drain protocol (Figure 5, steps 1-9):

1. the RSPS operates normally (old module processing);
2. the old module streams monitoring words to the MicroBlaze;
3. the MicroBlaze reconfigures a *different* PRR with the new module while
   the old one keeps processing;
4. the input channel is re-pointed: the channel into the old module is
   drained and released, and a new channel from the upstream producer to
   the new module's consumer FIFO is established (the new module is not
   started yet -- its FIFO simply buffers);
5. the old module drains the words remaining in its consumer FIFO and
   emits the end-of-stream word downstream;
6. the old module pushes its state registers to the MicroBlaze (FSL);
7. the MicroBlaze initialises the new module with those state registers
   and starts it;
8. the downstream IOM sees the EOS word and notifies the MicroBlaze;
9. the MicroBlaze connects the new module's producer to the downstream
   consumer, completing the switch.

The controller below is MicroBlaze software (a generator of effects); it
returns a :class:`SwitchReport` with per-step timestamps.  Step 4 differs
from a literal mux re-pointing in one deliberate way: the upstream
producer is paused for ``2*d`` fabric cycles so the channel pipeline
drains into the old module before release -- in hardware the in-flight
registered words would keep flowing to the old consumer, in this model a
released channel drops them, so the explicit drain keeps the protocol
loss-free (the report asserts zero lost words).

The switch is failure-atomic: it either refuses with nothing paused or
released, or completes.  It refuses before step 1 on any error-severity
precondition finding (``repro.verify``, ``VAP3xx``), and at step 4 --
after step 3's reconfiguration, before the upstream pause -- when the
switch-box lanes for the new input or output channel have been taken
meanwhile (``VAP303``).  Step 4 claims both new routes in the router,
which then refuses any other channel that would take their lanes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Generator, List, Optional, Tuple

from repro.comm.channel import StreamingChannel
from repro.control.microblaze import Delay, FslGet, FslPut
from repro.core.rsb import IomSlot
from repro.modules.base import CMD_FLUSH, CMD_START
from repro.modules.iom import CMD_ARM_EOS, MSG_EOS

#: Observer signature for switch/drain progress: ``(step, time_ps, text)``.
StepObserver = Callable[[int, int, str], None]


class _Steps:
    """Timing of a report's ``steps``: ``(step, time_ps, text)`` tuples."""

    @property
    def start_ps(self) -> int:
        return self.steps[0][1] if self.steps else 0

    @property
    def end_ps(self) -> int:
        return self.steps[-1][1] if self.steps else 0

    @property
    def duration_seconds(self) -> float:
        return (self.end_ps - self.start_ps) / 1e12


@dataclass
class SwitchReport(_Steps):
    """Outcome of one module switch."""

    old_prr: str
    new_prr: str
    new_module: str
    steps: List[Tuple[int, int, str]] = field(default_factory=list)  # (step, ps, text)
    reconfig_seconds: float = 0.0
    state_words: List[int] = field(default_factory=list)
    words_lost: int = 0
    input_channel: Optional[StreamingChannel] = None
    output_channel: Optional[StreamingChannel] = None

    def describe(self) -> str:
        lines = [
            f"switch {self.old_prr} -> {self.new_module}@{self.new_prr} "
            f"({self.duration_seconds * 1e3:.3f} ms total, "
            f"{self.reconfig_seconds * 1e3:.3f} ms reconfiguration, "
            f"{self.words_lost} words lost)"
        ]
        for step, ps, text in self.steps:
            lines.append(f"  step {step}: [{ps / 1e6:10.3f} us] {text}")
        return "\n".join(lines)


@dataclass
class DrainReport(_Steps):
    """Outcome of draining a stream out of a PRR (eviction path).

    The runtime's preemption uses the same Figure 5 machinery as a switch
    -- pause/drain/re-point (step 4), flush with in-band EOS (step 5),
    state extraction (step 6) and EOS-arrival detection (step 8) -- but
    stops there: no replacement module is started, the vacated PRR is
    powered down and its captured state returned for a later resume.
    """

    prr: str
    steps: List[Tuple[int, int, str]] = field(default_factory=list)
    state_words: List[int] = field(default_factory=list)
    words_lost: int = 0


def _require_eos_detector(downstream, name: str) -> None:
    """Refuse a switch or drain whose step 8 could never complete.

    Step 8 waits for the downstream IOM to report the end-of-stream
    word; any other slot never sends that report, so the MicroBlaze
    would wait forever.  Raised before step 1, so nothing is written.
    """
    if not isinstance(downstream, IomSlot) or downstream.iom is None:
        raise ValueError(
            f"downstream slot {name!r} has no attached IOM to report "
            "end-of-stream (Figure-5 step 8)"
        )


class ModuleSwitcher:
    """Runs the 9-step methodology on a :class:`VapresSystem`.

    The replacement target may be a single PRR or a multi-PRR spanning
    region (Section IV.A); spanning targets are addressed by their
    region name (``"rsb0.prr1+rsb0.prr2"``) and stream through their
    primary slot's interfaces.
    """

    def __init__(self, system) -> None:
        self.system = system
        self.api = system.api
        #: progress observers called per protocol step with
        #: ``(step, time_ps, text)``; the runtime's telemetry subscribes
        #: here to attribute switch latency to jobs
        self.on_step: List[StepObserver] = []

    def _resolve_target(self, name: str):
        try:
            return self.system.spanning_region(name)
        except Exception:
            return self.system.prr(name)

    def _marker(self, report, prr: str, label: str) -> Callable[[int, str], None]:
        """``mark(step, text)``: record a Figure 5 step of ``report``.

        Each step becomes a span covering the interval since the previous
        step (backdated begin: the boundary is only known once the step
        completes), a latency sample, a log line and an observer call.
        """
        sim = self.system.sim
        track = f"prr/{prr}"
        start_ps = sim.now

        def mark(step: int, text: str) -> None:
            prev = report.steps[-1][1] if report.steps else start_ps
            report.steps.append((step, sim.now, text))
            sim.log("switch", f"{label} {step}: {text}", prr=prr)
            sim.tracer.begin(
                f"step {step}", category="switch", track=track,
                attrs={"text": text}, time_ps=prev,
            )
            sim.tracer.end_if_open(f"step {step}", track=track)
            sim.metrics.histogram(
                "repro_switch_step_latency_us", labels={"step": str(step)}
            ).observe((sim.now - prev) / 1e6)
            for observer in self.on_step:
                observer(step, sim.now, text)

        return mark

    def _log_and_raise(self, location: str, diagnostics) -> None:
        """Log ``diagnostics`` to the trace; raise on any error."""
        from repro.verify.diagnostics import VerifyReport

        for diagnostic in diagnostics:
            self.system.sim.log("verify", str(diagnostic))
        VerifyReport(location, list(diagnostics)).raise_on_errors()

    def switch(
        self,
        old_prr: str,
        new_prr: str,
        new_module: str,
        upstream_slot: str,
        downstream_slot: str,
        input_channel: StreamingChannel,
        output_channel: StreamingChannel,
        reconfig_path: str = "array2icap",
        upstream_port: int = 0,
        downstream_port: int = 0,
    ) -> Generator:
        """MicroBlaze software performing the switch.

        ``input_channel`` currently feeds the old module from
        ``upstream_slot``; ``output_channel`` carries the old module's
        output to ``downstream_slot``.  Returns a :class:`SwitchReport`,
        or raises :class:`~repro.verify.diagnostics.VerificationError`
        before step 1 or at step 4 with nothing paused or released.
        """
        # deferred import: verify imports core types
        from repro.verify.switching import SwitchPlan, check_switch, no_lanes

        # Figure 5 precondition check (VAP3xx) before step 1
        plan = SwitchPlan(
            old_prr, new_prr, new_module, upstream_slot, downstream_slot,
            input_channel, output_channel, reconfig_path,
        )
        location = plan.location
        self._log_and_raise(location, check_switch(self.system, plan))
        sim = self.system.sim
        old_slot = self.system.prr(old_prr)
        new_slot = self._resolve_target(new_prr)
        upstream = self.system.slot(upstream_slot)
        downstream = self.system.slot(downstream_slot)
        old_module = old_slot.module
        _require_eos_detector(downstream, downstream_slot)
        report = SwitchReport(old_prr=old_prr, new_prr=new_prr, new_module=new_module)
        track = f"prr/{old_prr}"
        span_name = f"switch {location}"
        sim.tracer.begin(span_name, category="switch", track=track)
        mark = self._marker(report, old_prr, "step")

        mark(1, f"RSPS operating through {old_module.name} in {old_prr}")
        mark(2, "monitoring words flowing to the MicroBlaze")

        # ---- step 3: reconfigure the spare PRR while A keeps working --
        # the precheck refused any path but these two (VAP302)
        if reconfig_path == "array2icap":
            transfer = yield from self.api.vapres_array2icap(new_module, new_prr)
        else:
            transfer = yield from self.api.vapres_cf2icap(new_module, new_prr)
        report.reconfig_seconds = transfer.duration_seconds
        mark(3, f"{new_prr} reconfigured with {new_module} "
                f"({transfer.duration_seconds * 1e3:.2f} ms, overlapped)")

        # for a spanning target, streaming endpoints use its primary slot
        new_endpoint = getattr(new_slot, "primary", new_slot)

        # ---- step 4: claim both new routes, re-point the input ---------
        # lanes taken during step 3 refuse the switch here, before the
        # upstream pause: the old module keeps streaming and the target
        # PRR powers down; the claims keep lanes from going later
        router = upstream.rsb.router
        input_claim = router.claim(
            upstream.position, new_endpoint.position, 0, [input_channel]
        )
        output_claim = router.claim(
            new_endpoint.position, downstream.position, downstream_port,
            [input_channel, output_channel],
        )
        if input_claim is None or output_claim is None:
            routes = (
                (input_claim, f"input channel {upstream_slot} -> {new_prr}"),
                (output_claim, f"output channel {new_prr} -> {downstream_slot}"),
            )
            for claim, _ in routes:
                if claim is not None:
                    router.drop_claim(claim)
            yield from self._power_down(new_endpoint)
            sim.tracer.end_if_open(span_name, track=track)
            self._log_and_raise(location, [
                no_lanes(route, location)
                for claim, route in routes if claim is None
            ])
        # pause the upstream producer and let the pipeline drain into the
        # old consumer so that releasing the channel loses nothing
        yield from self.api.vapres_fifo_control(upstream.module_id, ren=False)
        yield Delay(2 * input_channel.d + 4)
        report.words_lost += yield from self.api.vapres_release_channel(input_channel)
        router.drop_claim(input_claim)
        report.input_channel = yield from self.api.vapres_establish_channel(
            None,
            upstream_slot,
            new_endpoint.name,
            src_port=upstream_port,
            dst_port=0,
        )
        yield from self.api.vapres_fifo_control(upstream.module_id, ren=True)
        mark(4, f"input re-pointed: {upstream_slot} now feeds {new_prr} "
                f"(buffering; {new_module} not yet started)")

        # ---- step 5: tell A to drain and emit the end-of-stream word ---
        # arm the downstream IOM's one-shot EOS detector first (the EOS
        # word is in-band, so detection only runs while a switch expects it)
        yield FslPut(downstream.fsl_to_module, CMD_ARM_EOS, True)
        yield FslPut(old_slot.fsl_to_module, CMD_FLUSH, True)
        mark(5, f"{old_module.name} draining its consumer FIFO, "
                "EOS word will follow the last result")

        # ---- step 6: collect A's state registers -----------------------
        state_count = old_module.state_word_count
        report.state_words = yield from self.api.read_state_words(
            old_slot.module_id, state_count
        )
        mark(6, f"received {state_count} state words from {old_module.name}")

        # ---- step 7: initialise and start B -----------------------------
        yield from self.api.send_state_words(
            new_endpoint.module_id, report.state_words
        )
        yield FslPut(new_endpoint.fsl_to_module, CMD_START, True)
        mark(7, f"{new_module} initialised with {state_count} state words "
                "and started")

        # ---- step 8: wait for the IOM to report the EOS arrival --------
        while True:
            data, control = yield FslGet(downstream.fsl_to_processor)
            if control and data == MSG_EOS:
                break
        mark(8, f"{downstream_slot} reported end-of-stream from {old_prr}")

        # ---- step 9: connect B's output, completing the switch ---------
        report.words_lost += yield from self.api.vapres_release_channel(
            output_channel
        )
        router.drop_claim(output_claim)
        report.output_channel = yield from self.api.vapres_establish_channel(
            None,
            new_endpoint.name,
            downstream_slot,
            src_port=0,
            dst_port=downstream_port,
        )
        mark(9, f"{new_prr} connected to {downstream_slot}; switch complete")

        # housekeeping: power down the vacated PRR (not a numbered step)
        yield from self._power_down(old_slot)
        sim.tracer.end_if_open(span_name, track=track)
        return report

    def _power_down(self, slot) -> Generator:
        """Gate ``slot``'s clock and reset its interface FIFOs."""
        yield from self.api.vapres_module_clock(slot.module_id, False)
        yield from self.api.vapres_fifo_reset(slot.module_id)

    # ------------------------------------------------------------------
    # eviction: Figure 5 drain path without a replacement module
    # ------------------------------------------------------------------
    def drain(
        self,
        prr: str,
        upstream_slot: str,
        downstream_slot: str,
        input_channel: StreamingChannel,
        output_channel: StreamingChannel,
        pause_upstream: bool = True,
    ) -> Generator:
        """MicroBlaze software draining a stream out of ``prr``.

        The runtime's preemptive eviction path: the module in ``prr``
        finishes the words buffered in its consumer FIFO, emits the
        in-band EOS word, hands its state registers to the MicroBlaze and
        halts; the downstream IOM confirms EOS arrival before the output
        channel is released and the PRR powered down.  Streams of other
        applications sharing the RSB are untouched -- that is the
        zero-interruption property preemption inherits from Figure 5.

        ``pause_upstream=False`` skips the step-4 upstream pause (used
        when the upstream producer was already gated by the caller).
        Returns a :class:`DrainReport`.
        """
        sim = self.system.sim
        slot = self.system.prr(prr)
        upstream = self.system.slot(upstream_slot)
        downstream = self.system.slot(downstream_slot)
        module = slot.module
        if module is None:
            raise ValueError(f"PRR {prr!r} has no module to drain")
        _require_eos_detector(downstream, downstream_slot)
        report = DrainReport(prr=prr)
        track = f"prr/{prr}"
        span_name = f"drain {prr}"
        sim.tracer.begin(span_name, category="switch", track=track)
        mark = self._marker(report, prr, "drain step")

        # ---- step 4 (drain variant): stop and release the input --------
        if pause_upstream:
            yield from self.api.vapres_fifo_control(
                upstream.module_id, ren=False
            )
        yield Delay(2 * input_channel.d + 4)
        report.words_lost += yield from self.api.vapres_release_channel(
            input_channel
        )
        mark(4, f"input stopped: {upstream_slot} no longer feeds {prr}")

        # ---- step 5: flush -- drain the consumer FIFO, emit EOS --------
        yield FslPut(downstream.fsl_to_module, CMD_ARM_EOS, True)
        yield FslPut(slot.fsl_to_module, CMD_FLUSH, True)
        mark(5, f"{module.name} draining its consumer FIFO, "
                "EOS word will follow the last result")

        # ---- step 6: capture the evicted module's state ----------------
        state_count = module.state_word_count
        report.state_words = yield from self.api.read_state_words(
            slot.module_id, state_count
        )
        mark(6, f"received {state_count} state words from {module.name}")

        # ---- step 8: wait for the IOM to report the EOS arrival --------
        while True:
            data, control = yield FslGet(downstream.fsl_to_processor)
            if control and data == MSG_EOS:
                break
        mark(8, f"{downstream_slot} reported end-of-stream from {prr}")

        report.words_lost += yield from self.api.vapres_release_channel(
            output_channel
        )

        # housekeeping: power down the vacated PRR
        yield from self._power_down(slot)
        mark(9, f"{prr} drained and powered down")
        sim.tracer.end_if_open(span_name, track=track)
        return report
