"""Golden tests for the VAP3xx switching-precondition checker."""

import pytest

from repro.modules import PassThrough
from repro.verify.diagnostics import VerificationError
from repro.verify.switching import SwitchPlan, check_switch

from tests.helpers import build_pipeline


def codes(diagnostics):
    return {d.code for d in diagnostics}


def make_plan(ch_in, ch_out, **overrides):
    plan = dict(
        old_prr="rsb0.prr0",
        new_prr="rsb0.prr1",
        new_module="filterB",
        upstream_slot="rsb0.iom0",
        downstream_slot="rsb0.iom0",
        input_channel=ch_in,
        output_channel=ch_out,
    )
    plan.update(overrides)
    return SwitchPlan(**plan)


@pytest.fixture
def ready():
    """Pipeline plus a fully prepared replacement module ``filterB``."""
    system, iom, module, ch_in, ch_out = build_pipeline()
    system.register_module("filterB", lambda: PassThrough("filterB"))
    system.repository.preload_to_sdram("filterB", "rsb0.prr1")
    return system, ch_in, ch_out


def test_prepared_switch_is_clean(ready):
    system, ch_in, ch_out = ready
    assert check_switch(system, make_plan(ch_in, ch_out)) == []


def test_vap304_source_prr_empty(ready):
    system, ch_in, ch_out = ready
    plan = make_plan(ch_in, ch_out, old_prr="rsb0.prr1", new_prr="rsb0.prr0")
    assert "VAP304" in codes(check_switch(system, plan))


def test_vap304_unknown_source_prr(ready):
    system, ch_in, ch_out = ready
    plan = make_plan(ch_in, ch_out, old_prr="rsb9.prr9")
    assert "VAP304" in codes(check_switch(system, plan))


def test_vap305_unknown_target(ready):
    system, ch_in, ch_out = ready
    plan = make_plan(ch_in, ch_out, new_prr="rsb0.prr7")
    assert "VAP305" in codes(check_switch(system, plan))


def test_vap305_target_mid_reconfiguration(ready):
    system, ch_in, ch_out = ready
    system.prr("rsb0.prr1").reconfiguring = True
    found = check_switch(system, make_plan(ch_in, ch_out))
    assert "VAP305" in codes(found)


def test_vap302_no_bitstream_registered(ready):
    system, ch_in, ch_out = ready
    plan = make_plan(ch_in, ch_out, new_module="ghost")
    found = check_switch(system, plan)
    assert "VAP302" in codes(found)
    assert "VAP306" in codes(found)  # no factory either


def test_vap302_bitstream_not_preloaded_for_array2icap(ready):
    system, ch_in, ch_out = ready
    system.register_module("filterC", lambda: PassThrough("filterC"))
    plan = make_plan(ch_in, ch_out, new_module="filterC")
    found = [d for d in check_switch(system, plan) if d.code == "VAP302"]
    assert len(found) == 1
    assert "preload" in found[0].message


def test_cf2icap_needs_no_preload(ready):
    system, ch_in, ch_out = ready
    system.register_module("filterC", lambda: PassThrough("filterC"))
    plan = make_plan(ch_in, ch_out, new_module="filterC",
                     reconfig_path="cf2icap")
    assert "VAP302" not in codes(check_switch(system, plan))


def test_vap303_released_input_channel(ready):
    system, ch_in, ch_out = ready
    system.close_stream(ch_in)
    found = [d for d in check_switch(system, make_plan(ch_in, ch_out))
             if d.code == "VAP303"]
    assert any("released" in d.message for d in found)


def test_vap307_downstream_cannot_detect_eos(ready):
    system, ch_in, ch_out = ready
    plan = make_plan(ch_in, ch_out, downstream_slot="rsb0.prr1")
    found = [d for d in check_switch(system, plan) if d.code == "VAP307"]
    assert found and found[0].severity == "warning"


def test_vap308_target_already_occupied(ready):
    system, ch_in, ch_out = ready
    system.place_module_directly(PassThrough("tenant"), "rsb0.prr1")
    found = [d for d in check_switch(system, make_plan(ch_in, ch_out))
             if d.code == "VAP308"]
    assert found and "tenant" in found[0].message


def test_switcher_precheck_logs_to_trace(ready):
    from repro.core.switching import ModuleSwitcher

    system, ch_in, ch_out = ready
    switcher = ModuleSwitcher(system)
    generator = switcher.switch(
        old_prr="rsb0.prr1",  # empty: VAP304
        new_prr="rsb0.prr0",
        new_module="filterB",
        upstream_slot="rsb0.iom0",
        downstream_slot="rsb0.iom0",
        input_channel=ch_in,
        output_channel=ch_out,
    )
    # the precheck logs every finding, then refuses on the error
    with pytest.raises(VerificationError, match="VAP304"):
        next(generator)
    assert any(
        entry.category == "verify" and "VAP304" in entry.message
        for entry in system.sim.trace
    )
