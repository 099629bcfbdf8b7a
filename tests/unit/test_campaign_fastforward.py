"""Fast-forward, early exit and the dead-strike exit leave every
campaign record unchanged.

An injection resumes at its target CTA from the golden run's state at
that boundary, and stops after its last target CTA when global memory
equals the golden run's there, or right after a plain rf strike that
flipped a register dead at the struck lane's next pc.  The reference
below is the injection as the campaign ran it before any of these: a
fresh memory image and a full launch from CTA 0.  Each injection must
give the same record, field for field, the same :class:`ExecutionResult`
and the same global and const memory (the golden run's final memory for
an injection that exited early).
"""

import dataclasses

import pytest

import repro.bench
import repro.gpusim.campaign as campaign
import repro.obs as obs
from repro.bench import Benchmark, Workload
from repro.gpusim import make_executor
from repro.gpusim.campaign import (
    CampaignSpec,
    InjectionRecord,
    _CampaignState,
    _plan_detail,
)
from repro.gpusim.executor import SimulationError
from repro.gpusim.faults import FaultOutcome, FaultPlan, classify_due
from repro.gpusim.memory import MemoryError32
from repro.ir.parser import parse_kernel
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
    launch, and the ambient ``campaign.*`` counters it reported.  The
    result is the one whose ``sim.*`` counters the record carries: the
    launch's, or the golden one a dead-strike exit published."""
    seen = {}
    driver = campaign.run_launch
    publish = campaign._publish_counters

    def spy(engine, launch, mem, **kwargs):
        seen["mem"] = mem
        seen["result"] = driver(engine, launch, mem, **kwargs)
        return seen["result"]

    def spy_publish(result):
        seen["result"] = result
        publish(result)

    with monkeypatch.context() as patch:
        patch.setattr(campaign, "run_launch", spy)
        patch.setattr(campaign, "_publish_counters", spy_publish)
        with obs.Tracer(record_spans=False) as tracer:
            record = state.run_index(index)
    return record, seen.get("result"), seen["mem"], tracer.counters.counts


def _compare(state, indices, monkeypatch):
    """Assert that fast and reference agree on every index; returns the
    outcomes, the summed ``campaign.*`` counters and the target CTA of
    every dead-strike exit."""
    outcomes, skipped, exits, dead_ctas = [], 0, 0, []
    final_mem = state.boundaries[-1][0]
    for index in indices:
        want, want_result, want_mem = _reference(state, index)
        got, got_result, got_mem, counts = _fast(state, index, monkeypatch)
        assert dataclasses.asdict(got) == dataclasses.asdict(want), index
        if want_result is not None:
            assert got_result == want_result, index
        if counts.get("campaign.early_exits") or counts.get(
            "campaign.dead_exits"
        ):
            assert want_mem.same_contents(final_mem), index
        else:
            assert got_mem.same_contents(want_mem), index
        if counts.get("campaign.dead_exits"):
            assert want.outcome == "masked", index
            dead_ctas.append(state.plan_for_index(index)[2].ctaid)
        outcomes.append(want.outcome)
        skipped += counts.get("campaign.ctas_skipped", 0)
        exits += counts.get("campaign.early_exits", 0)
    return outcomes, skipped, exits, dead_ctas


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
    outcomes, skipped, exits, dead_ctas = _compare(
        state, range(INJECTIONS), monkeypatch
    )
    # Every injection skips the CTAs before its target, and masked or
    # recovered ones targeting CTA 0 skip the rest as well: recovered
    # ones by an early exit, and most masked ones by a dead strike.
    assert skipped >= exits
    assert dead_ctas
    if config != "none-rf2":
        assert exits > 0
    if bench == "HS":
        # dead strikes in the first and in the last CTA, on both backends
        assert {0, state.wl.launch.grid - 1} <= set(dead_ctas)
    if config == "none-rf2" and bench == "NN":
        assert "sdc" in outcomes and "due" in outcomes


@pytest.mark.parametrize("below", [0, 1])
def test_budget_boundary(below, monkeypatch):
    """At the largest golden lane count CTAs are skipped; one below it a
    full run hits the watchdog in a CTA the injection does not target,
    so nothing may be skipped and no dead strike may end a run."""
    budget = largest_golden_lane("GAU") - below
    state = _state("GAU", max_instructions=budget)
    assert state.fast_forward == (below == 0)
    outcomes, skipped, exits, dead_ctas = _compare(
        state, range(INJECTIONS), monkeypatch
    )
    if below:
        assert skipped == exits == len(dead_ctas) == 0
        assert set(outcomes) == {"due"}
    else:
        assert exits > 0 and dead_ctas


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


#: ``%x`` is dead on the fall-through of the guarded branch (``FALL``
#: redefines it) and live at its target (``TAKEN`` reads it); odd lanes
#: take the branch, and the branch is every lane's 8th instruction
BRANCHY = """
.entry branchy (.param .ptr OUT) {
ENTRY:
  mov.u32 %t, %tid.x;
  mov.u32 %c, %ctaid.x;
  mov.u32 %n, %ntid.x;
  ld.param.u32 %o, [OUT];
  mov.u32 %x, 5;
  and.u32 %b, %t, 1;
  setp.eq.u32 %p, %b, 1;
  @%p bra TAKEN;
FALL:
  mov.u32 %x, 9;
  bra JOIN;
TAKEN:
  add.u32 %x, %x, 1;
JOIN:
  mad.u32 %g, %c, %n, %t;
  shl.u32 %g, %g, 2;
  add.u32 %a, %o, %g;
  st.global.u32 [%a], %x;
  ret;
}
"""


@pytest.mark.parametrize("backend", ["vector", "scalar"])
def test_strike_right_after_a_branch(backend, monkeypatch):
    """The next pc of a lane that took a branch is the branch target: a
    strike there on a register live only at the target must run on
    (and end in a DUE, with no recovery runtime), while the same strike
    on a lane that fell through ends the run at once."""
    bench = Benchmark(
        abbr="BRANCHY",
        name="branchy",
        suite="test",
        build=lambda: parse_kernel(BRANCHY),
        workload=lambda: Workload(
            grid=2,
            block=4,
            buffers=[("out", 8, None)],
            params={"OUT": "&out"},
            output="out",
        ),
    )
    monkeypatch.setattr(repro.bench, "get_benchmark", lambda abbr: bench)
    state = _state("BRANCHY", backend, scheme="none")
    targets = [(ctaid, tid) for ctaid in (0, 1) for tid in range(4)]

    def plan_for_index(index):
        ctaid, tid = targets[index]
        return "rf", index, FaultPlan(
            ctaid=ctaid, tid=tid, after_instructions=8, reg_name="%x"
        )

    monkeypatch.setattr(state, "plan_for_index", plan_for_index)
    outcomes, _, _, dead_ctas = _compare(
        state, range(len(targets)), monkeypatch
    )
    assert outcomes == ["masked", "due"] * 4
    assert dead_ctas == [0, 0, 1, 1]
