"""Fast-forward and early exit leave every campaign record unchanged.

An injection resumes at its target CTA from the golden run's state at
that boundary, and stops after its last target CTA when global memory
equals the golden run's there.  The reference below is the injection as
the campaign ran it before either: a fresh memory image and a full
launch from CTA 0.  Each injection must give the same record, field for
field, the same :class:`ExecutionResult`, and (when it ran to the end or
to a DUE) the same global and const memory.
"""

import dataclasses

import pytest

import repro.gpusim.campaign as campaign
import repro.obs as obs
from repro.gpusim import make_executor
from repro.gpusim.campaign import (
    CampaignSpec,
    InjectionRecord,
    _CampaignState,
    _plan_detail,
)
from repro.gpusim.executor import SimulationError
from repro.gpusim.faults import FaultOutcome, classify_due
from repro.gpusim.memory import MemoryError32
from tests.golden.campaign_digests import CONFIGS, largest_golden_lane

INJECTIONS = 24

#: (benchmark, configuration, backend) of each campaign compared
CAMPAIGNS = [
    ("GAU", "penny-rf", "vector"),
    ("GAU", "penny-all", "vector"),
    ("STC", "bolt-global-all", "vector"),
    ("NN", "none-rf2", "vector"),
] + [
    ("HS", config, backend)
    for config in CONFIGS
    for backend in ("vector", "scalar")
]


def _reference(state, index):
    """The injection before fast-forward: a fresh memory image and a full
    launch from CTA 0.  Returns the record, the result (``None`` for a
    DUE) and the final memory."""
    surface, seed, plan = state.plan_for_index(index)
    mem = state.wl.make_memory()
    executor = make_executor(
        state.kernel,
        backend=state.spec.backend,
        rf_code_factory=state.code_factory,
        max_instructions_per_thread=state.spec.max_instructions,
        max_recoveries_per_thread=state.spec.max_recoveries,
        fault_plan=plan,
    )
    injection_obs = obs.Tracer(record_spans=False)
    try:
        with injection_obs:
            result = executor.run(state.wl.launch, mem)
    except (SimulationError, MemoryError32) as exc:
        injection_obs.counters.inc(f"campaign.due.{classify_due(exc).value}")
        record = InjectionRecord(
            index=index,
            surface=surface,
            outcome=FaultOutcome.DUE.value,
            due_cause=classify_due(exc).value,
            detections=-1,
            recoveries=-1,
            instructions=-1,
            seed=seed,
            detail=str(exc),
            counters=injection_obs.counters.to_dict(),
        )
        return record, None, mem
    output = mem.download(*state.out)
    if not plan.injected:
        outcome = FaultOutcome.NOT_INJECTED
    elif output == state.golden:
        outcome = (
            FaultOutcome.RECOVERED
            if result.recoveries > 0
            else FaultOutcome.MASKED
        )
    else:
        outcome = FaultOutcome.SDC
    injection_obs.counters.inc(f"campaign.outcome.{outcome.value}")
    record = InjectionRecord(
        index=index,
        surface=surface,
        outcome=outcome.value,
        detections=result.detections,
        recoveries=result.recoveries,
        instructions=result.instructions,
        seed=seed,
        detail=_plan_detail(plan),
        counters=injection_obs.counters.to_dict(),
    )
    return record, result, mem


def _fast(state, index, monkeypatch):
    """``state.run_index(index)`` plus the memory and result of its
    launch, and the ambient ``campaign.*`` counters it reported."""
    seen = {}
    driver = campaign.run_launch

    def spy(engine, launch, mem, **kwargs):
        seen["mem"] = mem
        seen["result"] = driver(engine, launch, mem, **kwargs)
        return seen["result"]

    with monkeypatch.context() as patch:
        patch.setattr(campaign, "run_launch", spy)
        with obs.Tracer(record_spans=False) as tracer:
            record = state.run_index(index)
    return record, seen.get("result"), seen["mem"], tracer.counters.counts


def _compare(state, indices, monkeypatch):
    """Assert that fast and reference agree on every index; returns the
    outcomes and the summed ``campaign.*`` counters."""
    outcomes, skipped, exits = [], 0, 0
    for index in indices:
        want, want_result, want_mem = _reference(state, index)
        got, got_result, got_mem, counts = _fast(state, index, monkeypatch)
        assert dataclasses.asdict(got) == dataclasses.asdict(want), index
        if want_result is not None:
            assert got_result == want_result, index
        if not counts.get("campaign.early_exits"):
            assert got_mem.same_contents(want_mem), index
        outcomes.append(want.outcome)
        skipped += counts.get("campaign.ctas_skipped", 0)
        exits += counts.get("campaign.early_exits", 0)
    return outcomes, skipped, exits


def _state(bench, backend="vector", **fields):
    return _CampaignState(
        CampaignSpec(
            benchmark=bench,
            num_injections=INJECTIONS,
            backend=backend,
            **fields,
        )
    )


@pytest.mark.parametrize(
    "bench,config,backend",
    CAMPAIGNS,
    ids=["/".join(c) for c in CAMPAIGNS],
)
def test_records_equal_full_simulation(bench, config, backend, monkeypatch):
    state = _state(bench, backend, **CONFIGS[config])
    assert state.fast_forward
    outcomes, skipped, exits = _compare(
        state, range(INJECTIONS), monkeypatch
    )
    # Every injection skips the CTAs before its target, and masked or
    # recovered ones targeting CTA 0 skip the rest as well.
    assert skipped >= exits > 0
    if config == "none-rf2" and bench == "NN":
        assert "sdc" in outcomes and "due" in outcomes


@pytest.mark.parametrize("below", [0, 1])
def test_budget_boundary(below, monkeypatch):
    """At the largest golden lane count CTAs are skipped; one below it a
    full run hits the watchdog in a CTA the injection does not target,
    so nothing may be skipped."""
    budget = largest_golden_lane("GAU") - below
    state = _state("GAU", max_instructions=budget)
    assert state.fast_forward == (below == 0)
    outcomes, skipped, exits = _compare(
        state, range(INJECTIONS), monkeypatch
    )
    if below:
        assert skipped == exits == 0
        assert set(outcomes) == {"due"}
    else:
        assert exits > 0


def test_resume_does_not_rerun_the_prologue(monkeypatch):
    """Bolt/Global keeps checkpoints in a global area the launch prologue
    reserves once; a resumed injection must write the golden run's."""
    state = _state("STC", **CONFIGS["bolt-global-all"])
    golden_mem = state.boundaries[-1][0]
    assert golden_mem.ckpt_global_words > 0
    for index in range(4):
        _, _, mem, _ = _fast(state, index, monkeypatch)
        assert mem.ckpt_global_base == golden_mem.ckpt_global_base
        assert (
            mem.global_mem._alloc_ptr == golden_mem.global_mem._alloc_ptr
        )
