"""Property-based fault injection: Appendix A as a hypothesis invariant.

For *any* single-bit flip on *any* register of *any* thread at *any*
dynamic point, the Penny-protected kernel produces the golden output.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.bench import get_benchmark
from repro.core.pipeline import PennyCompiler
from repro.core.schemes import SCHEME_PENNY, scheme_config
from repro.gpusim import FaultCampaign, FaultOutcome, FaultPlan


def _prepare(abbr):
    bench = get_benchmark(abbr)
    wl = bench.workload()
    result = PennyCompiler(scheme_config(SCHEME_PENNY)).compile(
        bench.fresh_kernel(), wl.launch_config
    )
    campaign = FaultCampaign(
        result.kernel, wl.launch, wl.make_memory, wl.output_region()
    )
    campaign.golden_output()  # warm the golden cache
    return campaign


CAMPAIGNS = {}


def campaign_for(abbr):
    if abbr not in CAMPAIGNS:
        CAMPAIGNS[abbr] = _prepare(abbr)
    return CAMPAIGNS[abbr]


@settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    tid=st.integers(0, 31),
    ctaid=st.integers(0, 1),
    point=st.integers(1, 80),
    bit=st.integers(0, 32),
    reg_seed=st.integers(0, 2**16),
)
def test_stc_single_bit_invariant(tid, ctaid, point, bit, reg_seed):
    campaign = campaign_for("STC")
    plan = FaultPlan(
        ctaid=ctaid,
        tid=tid,
        after_instructions=point,
        bits=(bit,),
        rng_seed=reg_seed,
    )
    result = campaign.run_one(plan)
    assert FaultOutcome(result.outcome) in (
        FaultOutcome.MASKED,
        FaultOutcome.RECOVERED,
        FaultOutcome.NOT_INJECTED,
    ), result.outcome


@settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    tid=st.integers(0, 31),
    point=st.integers(1, 300),
    bit=st.integers(0, 32),
    reg_seed=st.integers(0, 2**16),
)
def test_bo_single_bit_invariant(tid, point, bit, reg_seed):
    """BO exercises local-memory anti-dependences and inner-loop regions."""
    campaign = campaign_for("BO")
    plan = FaultPlan(
        ctaid=0,
        tid=tid,
        after_instructions=point,
        bits=(bit,),
        rng_seed=reg_seed,
    )
    result = campaign.run_one(plan)
    assert FaultOutcome(result.outcome) in (
        FaultOutcome.MASKED,
        FaultOutcome.RECOVERED,
        FaultOutcome.NOT_INJECTED,
    ), result.outcome


@settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    tid=st.integers(0, 31),
    point=st.integers(1, 120),
    bit=st.integers(0, 32),
    reg_seed=st.integers(0, 2**16),
)
def test_fw_single_bit_invariant(tid, point, bit, reg_seed):
    """FW exercises shared-memory butterflies with barriers."""
    campaign = campaign_for("FW")
    plan = FaultPlan(
        ctaid=0,
        tid=tid,
        after_instructions=point,
        bits=(bit,),
        rng_seed=reg_seed,
    )
    result = campaign.run_one(plan)
    assert FaultOutcome(result.outcome) in (
        FaultOutcome.MASKED,
        FaultOutcome.RECOVERED,
        FaultOutcome.NOT_INJECTED,
    ), result.outcome
