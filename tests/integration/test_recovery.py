"""Fault injection: the Appendix A claims, validated empirically.

With parity detection and Penny recovery:
- single-bit register faults NEVER produce silent data corruption,
- they never require in-region detection (the fault may sit dormant across
  many regions until the register is finally read),
- recovery re-executes and the program output matches the golden run.
"""

import pytest

from repro.bench import get_benchmark
from repro.coding import SecdedCode
from repro.core.pipeline import LaunchConfig, PennyCompiler, PennyConfig
from repro.core.schemes import SCHEME_PENNY, scheme_config
from repro.gpusim import FaultCampaign, FaultOutcome, FaultPlan
from repro.gpusim.executor import Executor, Launch
from repro.gpusim.faults import ComposedFaultPlan
from repro.gpusim.memory import MemoryImage

#: a structurally diverse subset: in-place loops, shared memory + barriers,
#: divergence, local-memory arrays, atomics
CAMPAIGN_APPS = ["STC", "BO", "FW", "GAU", "NW", "TPACF"]


def _campaign(abbr, config=None):
    bench = get_benchmark(abbr)
    wl = bench.workload()
    result = PennyCompiler(config or scheme_config(SCHEME_PENNY)).compile(
        bench.fresh_kernel(), wl.launch_config
    )
    mem, addrs, out = wl.make()
    return FaultCampaign(
        result.kernel,
        wl.launch,
        wl.make_memory,
        out,
    )


@pytest.mark.parametrize("abbr", CAMPAIGN_APPS)
def test_single_bit_faults_never_corrupt(abbr):
    campaign = _campaign(abbr)
    report = campaign.run_random(40, seed=2020, bits_per_fault=1)
    summary = report.summary()
    assert summary["sdc"] == 0, summary
    assert summary["due"] == 0, summary
    assert summary["masked"] + summary["recovered"] == 40


def test_faults_are_actually_detected_and_recovered():
    """At least some injections must exercise the recovery path (not all
    masked), otherwise the campaign proves nothing."""
    campaign = _campaign("STC")
    report = campaign.run_random(60, seed=77, bits_per_fault=1)
    assert report.count(FaultOutcome.RECOVERED) > 0


def test_detection_can_cross_region_boundaries():
    """Corrupt a register that is not read until several regions later —
    the lack of in-region detection must not break recovery (§4)."""
    bench = get_benchmark("STC")
    wl = bench.workload()
    result = PennyCompiler(scheme_config(SCHEME_PENNY)).compile(
        bench.fresh_kernel(), wl.launch_config
    )
    campaign = FaultCampaign(
        result.kernel, wl.launch, wl.make_memory, wl.output_region()
    )
    golden = campaign.golden_output()
    # corrupt the loop-bound register right after it is defined; it is only
    # read at the loop test of each iteration (later regions)
    plan = FaultPlan(ctaid=0, tid=3, after_instructions=12, reg_name=None,
                     bits=(5,), rng_seed=9)
    outcome = campaign.run_one(plan)
    assert FaultOutcome(outcome.outcome) in (
        FaultOutcome.RECOVERED, FaultOutcome.MASKED
    )


def test_double_bit_fault_escapes_parity():
    """Two flips are invisible to single parity — the Table 1 rationale for
    matching the code to the expected error magnitude."""
    campaign = _campaign("STC")
    report = campaign.run_random(60, seed=11, bits_per_fault=2)
    summary = report.summary()
    # Parity cannot see an even number of flips: some injections slip
    # through as silent corruption or crash on a corrupted address (DUE).
    # The contrast with test_double_bit_fault_detected_by_secded_rf below
    # is exactly Table 1's point.
    assert summary["sdc"] + summary["due"] > 0


def test_double_bit_fault_detected_by_secded_rf():
    """With a SECDED-protected RF used detection-only (Penny's 3-bit
    detector), double faults are caught and recovered."""
    bench = get_benchmark("STC")
    wl = bench.workload()
    result = PennyCompiler(scheme_config(SCHEME_PENNY)).compile(
        bench.fresh_kernel(), wl.launch_config
    )
    campaign = FaultCampaign(
        result.kernel,
        wl.launch,
        wl.make_memory,
        wl.output_region(),
        rf_code_factory=lambda: SecdedCode(32),
    )
    report = campaign.run_random(40, seed=13, bits_per_fault=2)
    summary = report.summary()
    assert summary["sdc"] == 0, summary
    assert summary["due"] == 0, summary


def test_unprotected_kernel_cannot_recover():
    """Without a recovery table, a detected fault is fatal (DUE)."""
    bench = get_benchmark("STC")
    wl = bench.workload()
    kernel = bench.fresh_kernel()  # no Penny transformation
    campaign = FaultCampaign(
        kernel, wl.launch, wl.make_memory, wl.output_region()
    )
    report = campaign.run_random(30, seed=3, bits_per_fault=1)
    summary = report.summary()
    assert summary["recovered"] == 0
    assert summary["due"] > 0


def test_fault_in_checkpoint_base_register_recovers():
    """The codegen-introduced checkpoint base pointers are live across the
    whole kernel; their recovery slices must restore them."""
    bench = get_benchmark("BO")
    wl = bench.workload()
    result = PennyCompiler(scheme_config(SCHEME_PENNY)).compile(
        bench.fresh_kernel(), wl.launch_config
    )
    campaign = FaultCampaign(
        result.kernel, wl.launch, wl.make_memory, wl.output_region()
    )
    golden = campaign.golden_output()
    hit_base = 0
    for inst_idx in range(20, 200, 15):
        for reg in ("%ckb_s", "%ckb_g"):
            plan = FaultPlan(
                ctaid=0, tid=1, after_instructions=inst_idx,
                reg_name=reg, bits=(4,),
            )
            outcome = campaign.run_one(plan)
            if plan.injected:
                hit_base += 1
                assert FaultOutcome(outcome.outcome) in (
                    FaultOutcome.RECOVERED,
                    FaultOutcome.MASKED,
                ), outcome.outcome
    assert hit_base > 0


def test_multiple_faults_in_one_run():
    """Several independent single-bit faults across different threads."""
    bench = get_benchmark("GAU")
    wl = bench.workload()
    result = PennyCompiler(scheme_config(SCHEME_PENNY)).compile(
        bench.fresh_kernel(), wl.launch_config
    )

    campaign = FaultCampaign(
        result.kernel, wl.launch, wl.make_memory, wl.output_region()
    )
    golden = campaign.golden_output()
    plans = [
        FaultPlan(ctaid=0, tid=2, after_instructions=9, bits=(3,), rng_seed=1),
        FaultPlan(ctaid=1, tid=7, after_instructions=21, bits=(12,), rng_seed=2),
        FaultPlan(ctaid=0, tid=11, after_instructions=33, bits=(30,), rng_seed=3),
    ]
    mem = wl.make_memory()
    Executor(result.kernel, fault_plan=ComposedFaultPlan(plans=plans)).run(
        wl.launch, mem
    )
    assert mem.download(*wl.output_region()) == golden
