"""Switching-protocol precondition checker (``VAP3xx``).

:class:`~repro.core.switching.ModuleSwitcher` runs the paper's Figure 5
nine-step methodology.  It runs this pass before step 1 and refuses on
any error-severity finding, so a switch never starts against a violated
precondition:

* the replacement module fits the target PRR / spanning region (``VAP301``),
* its partial bitstream is in the repository and the reconfiguration
  path is one the switch can take (``VAP302``),
* the drain/re-route path exists -- free switch-box lanes for the new
  input and output channels, counting the lanes the released channels
  give back (``VAP303``),
* the source PRR actually hosts a module (``VAP304``),
* the target is available, i.e. not mid-reconfiguration and not a
  member of an undissolved spanning region (``VAP305``),
* a module factory is registered so the behavioural module can be
  instantiated after PR (``VAP306``, warning),
* the downstream slot can detect the in-band end-of-stream word
  (``VAP307``, warning),
* the target is empty -- a resident module would be overwritten
  (``VAP308``, warning).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.core.rsb import IomSlot, PrrSlot
from repro.verify.diagnostics import Diagnostic, diag

ANALYZER = "switching"


def _d(code: str, message: str, location: str = "") -> Diagnostic:
    return diag(code, message, location=location, analyzer=ANALYZER)


@dataclass
class SwitchPlan:
    """The arguments of one planned :meth:`ModuleSwitcher.switch` call."""

    old_prr: str
    new_prr: str
    new_module: str
    upstream_slot: str
    downstream_slot: str
    input_channel: object = None
    output_channel: object = None
    reconfig_path: str = "array2icap"

    @property
    def location(self) -> str:
        return f"{self.old_prr}->{self.new_module}@{self.new_prr}"


def no_lanes(route: str, location: str) -> Diagnostic:
    """``VAP303``: no free switch-box lanes for the new channel ``route``."""
    return _d("VAP303", f"no free switch-box lanes for the new {route}", location)


def check_switch(system, plan: SwitchPlan) -> List[Diagnostic]:
    """Statically check the Figure 5 preconditions for one planned switch."""
    out: List[Diagnostic] = []
    loc = plan.location

    # ---- source PRR (VAP304) -----------------------------------------
    try:
        old_slot = system.prr(plan.old_prr)
    except Exception as exc:
        out.append(_d("VAP304", f"unknown source PRR: {exc}", loc))
        old_slot = None
    if old_slot is not None and old_slot.module is None:
        out.append(_d(
            "VAP304",
            f"source PRR {plan.old_prr!r} hosts no module to replace",
            loc,
        ))

    # ---- replacement target (VAP305/VAP308) --------------------------
    target: Optional[object]
    try:
        target = system.spanning_region(plan.new_prr)
    except Exception:
        try:
            target = system.prr(plan.new_prr)
        except Exception as exc:
            out.append(_d("VAP305", f"unknown replacement target: {exc}", loc))
            target = None
    endpoint = getattr(target, "primary", target)
    if isinstance(endpoint, PrrSlot):
        if endpoint.reconfiguring:
            out.append(_d(
                "VAP305",
                f"target {plan.new_prr!r} is mid-reconfiguration",
                loc,
            ))
        # targeting a member PRR of a span directly is illegal; targeting
        # the span itself (endpoint is its primary) is the supported path
        if endpoint is target and endpoint.spanned_by is not None:
            out.append(_d(
                "VAP305",
                f"target {plan.new_prr!r} belongs to spanning region "
                f"{endpoint.spanned_by.name!r}; address the span instead",
                loc,
            ))
        if endpoint.module is not None:
            out.append(_d(
                "VAP308",
                f"target {plan.new_prr!r} currently hosts "
                f"{endpoint.module.name!r}, which reconfiguration will "
                "overwrite",
                loc,
            ))

    # ---- bitstream + factory (VAP302/VAP306) -------------------------
    if plan.reconfig_path not in ("array2icap", "cf2icap"):
        out.append(_d(
            "VAP302",
            f"unknown reconfig path {plan.reconfig_path!r}; the bitstream "
            "is loaded by 'array2icap' or 'cf2icap'",
            loc,
        ))
    if not system.repository.has(plan.new_module, plan.new_prr):
        out.append(_d(
            "VAP302",
            f"no partial bitstream for module {plan.new_module!r} in "
            f"{plan.new_prr!r}; run the application flow / "
            "register_module first",
            loc,
        ))
    elif (
        plan.reconfig_path == "array2icap"
        and not system.repository.is_preloaded(plan.new_module, plan.new_prr)
    ):
        out.append(_d(
            "VAP302",
            f"bitstream for {plan.new_module!r} in {plan.new_prr!r} is not "
            "preloaded to SDRAM; array2icap would fail (preload_to_sdram "
            "or use cf2icap)",
            loc,
        ))
    try:
        system.repository.factory(plan.new_module)
    except Exception:
        out.append(_d(
            "VAP306",
            f"no module factory registered for {plan.new_module!r}; the "
            "behavioural module cannot be instantiated when PR completes",
            loc,
        ))

    # ---- module fit (VAP301) -----------------------------------------
    out.extend(_check_fit(system, plan, target, loc))

    # ---- drain / re-route path (VAP303) ------------------------------
    out.extend(_check_paths(system, plan, endpoint, loc))

    # ---- EOS detection (VAP307) --------------------------------------
    try:
        downstream = system.slot(plan.downstream_slot)
    except Exception:
        downstream = None  # reported by _check_paths
    if downstream is not None:
        if not isinstance(downstream, IomSlot) or downstream.iom is None:
            out.append(_d(
                "VAP307",
                f"downstream slot {plan.downstream_slot!r} has no attached "
                "IOM to detect the end-of-stream word; step 8 would never "
                "complete",
                loc,
            ))
    return out


def _check_fit(system, plan: SwitchPlan, target, loc: str) -> List[Diagnostic]:
    out: List[Diagnostic] = []
    if target is None:
        return out
    try:
        factory = system.repository.factory(plan.new_module)
        module = factory()
    except Exception:
        return out  # no factory: VAP306 already reported, cannot size
    from repro.flows.estimate import module_slice_estimate

    required = module_slice_estimate(module)
    if hasattr(target, "slices"):  # spanning region
        capacity = target.slices
    else:
        placement = system.floorplan.prrs.get(target.name)
        if placement is None:
            return out
        capacity = placement.slices
    if required > capacity:
        out.append(_d(
            "VAP301",
            f"module {plan.new_module!r} needs ~{required} slices but "
            f"{plan.new_prr!r} provides {capacity}",
            loc,
        ))
    return out


def _check_paths(system, plan: SwitchPlan, endpoint, loc: str) -> List[Diagnostic]:
    out: List[Diagnostic] = []
    try:
        upstream = system.slot(plan.upstream_slot)
        downstream = system.slot(plan.downstream_slot)
    except Exception as exc:
        out.append(_d("VAP303", f"cannot plan drain path: {exc}", loc))
        return out
    if endpoint is None or not hasattr(endpoint, "position"):
        return out
    for name, channel in (
        ("input", plan.input_channel),
        ("output", plan.output_channel),
    ):
        if channel is not None and getattr(channel, "released", False):
            out.append(_d(
                "VAP303",
                f"{name} channel is already released; there is nothing to "
                "drain and re-point",
                loc,
            ))
    router = upstream.rsb.router
    if endpoint.rsb is not upstream.rsb or downstream.rsb is not upstream.rsb:
        out.append(_d(
            "VAP303",
            "switch endpoints span multiple RSBs; streaming channels "
            "cannot cross RSBs",
            loc,
        ))
        return out
    # step 4 re-establishes the input while the old *output* channel still
    # holds its lanes; only the released input channel's lanes come back
    state_in = router.comm_state(freeing=[plan.input_channel])
    if not state_in.can_route(upstream.position, endpoint.position):
        out.append(no_lanes(
            f"input channel {plan.upstream_slot} -> {plan.new_prr}", loc
        ))
    # step 9 runs after the old output channel is released too.  The new
    # input (upstream -> new) established in between never competes with
    # the new output (new -> downstream) for a lane: in one direction
    # their spans [u, n) and [n, d) are disjoint, in opposite directions
    # they draw on different lane pools, and their module-out lanes sit
    # in different boxes -- so counting without it is exact
    state_out = router.comm_state(
        freeing=[plan.input_channel, plan.output_channel]
    )
    if not state_out.can_route(endpoint.position, downstream.position):
        out.append(no_lanes(
            f"output channel {plan.new_prr} -> {plan.downstream_slot}", loc
        ))
    return out
