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
import random

import pytest

import repro.bench
import repro.gpusim.campaign as campaign
import repro.obs as obs
from repro.bench import Benchmark, Workload
from repro.core.pipeline import LaunchConfig, PennyCompiler
from repro.core.schemes import SCHEME_PENNY, scheme_config
from repro.fuzz.generator import generate_case
from repro.gpusim import make_executor
from repro.gpusim.campaign import (
    CampaignSpec,
    FaultCampaign,
    InjectionRecord,
    _CampaignState,
    _plan_detail,
)
from repro.gpusim.executor import Launch, SimulationError
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


def _reference(fc, make_memory, plan, **fields):
    """``plan`` as ``fc`` ran it before fast-forward: a fresh memory image
    from ``make_memory`` and a full launch from CTA 0.  ``fields`` are
    the record's ``index``, ``surface`` and ``seed``.  Returns the record,
    the result (``None`` for a DUE) and the final memory."""
    mem = make_memory()
    executor = make_executor(
        fc.kernel,
        backend=fc.backend,
        rf_code_factory=fc.code_factory,
        max_instructions_per_thread=fc.max_instructions,
        max_recoveries_per_thread=fc.max_recoveries,
        fault_plan=plan,
    )
    injection_obs = obs.Tracer(record_spans=False)
    try:
        with injection_obs:
            result = executor.run(fc.launch, mem)
    except (SimulationError, MemoryError32) as exc:
        injection_obs.counters.inc(f"campaign.due.{classify_due(exc).value}")
        record = InjectionRecord(
            **fields,
            outcome=FaultOutcome.DUE.value,
            due_cause=classify_due(exc).value,
            detections=-1,
            recoveries=-1,
            instructions=-1,
            detail=str(exc),
            counters=injection_obs.counters.to_dict(),
        )
        return record, None, mem
    output = mem.download(*fc.out)
    if not plan.injected:
        outcome = FaultOutcome.NOT_INJECTED
    elif output == fc.golden:
        outcome = (
            FaultOutcome.RECOVERED
            if result.recoveries > 0
            else FaultOutcome.MASKED
        )
    else:
        outcome = FaultOutcome.SDC
    injection_obs.counters.inc(f"campaign.outcome.{outcome.value}")
    record = InjectionRecord(
        **fields,
        outcome=outcome.value,
        detections=result.detections,
        recoveries=result.recoveries,
        instructions=result.instructions,
        detail=_plan_detail(plan),
        counters=injection_obs.counters.to_dict(),
    )
    return record, result, mem


def _fast(fc, plan, monkeypatch, **fields):
    """``fc.run_one(plan, **fields)`` plus the memory and result of its
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
            record = fc.run_one(plan, **fields)
    return record, seen.get("result"), seen["mem"], tracer.counters.counts


def _compare(fc, make_memory, draw, indices, monkeypatch):
    """Assert that fast and reference agree on every index, ``draw(index)``
    giving its ``(surface, seed, plan)`` with a fresh plan each call;
    returns the outcomes, the summed ``campaign.*`` counters and the
    target CTA of every dead-strike exit."""
    outcomes, skipped, exits, dead_ctas = [], 0, 0, []
    final_mem = fc.boundaries[-1][0]
    for index in indices:
        surface, seed, plan = draw(index)
        fields = dict(index=index, surface=surface, seed=seed)
        want, want_result, want_mem = _reference(
            fc, make_memory, plan, **fields
        )
        got, got_result, got_mem, counts = _fast(
            fc, draw(index)[2], monkeypatch, **fields
        )
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
            dead_ctas.append(plan.ctaid)
        outcomes.append(want.outcome)
        skipped += counts.get("campaign.ctas_skipped", 0)
        exits += counts.get("campaign.early_exits", 0)
    return outcomes, skipped, exits, dead_ctas


def _compare_state(state, indices, monkeypatch):
    """:func:`_compare` on a spec's campaign and its own plans."""
    return _compare(
        state, state.wl.make_memory, state.plan_for_index, indices, monkeypatch
    )


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
    outcomes, skipped, exits, dead_ctas = _compare_state(
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
    outcomes, skipped, exits, dead_ctas = _compare_state(
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
        plan = state.plan_for_index(index)[2]
        _, _, mem, _ = _fast(state, plan, monkeypatch)
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
    outcomes, _, _, dead_ctas = _compare_state(
        state, range(len(targets)), monkeypatch
    )
    assert outcomes == ["masked", "due"] * 4
    assert dead_ctas == [0, 0, 1, 1]


#: fuzz-generator seeds whose cases launch 2 CTAs; among their drawn
#: plans are recovered, SDC and DUE outcomes, SDCs in CTA 0 among them
FUZZ_SEEDS = [0, 5, 9, 10, 16, 20, 21, 38]


@pytest.mark.parametrize("backend", ["vector", "scalar"])
@pytest.mark.parametrize("seed", FUZZ_SEEDS)
def test_generated_kernels_equal_full_simulation(seed, backend, monkeypatch):
    """``run_one`` on random 1- and 2-bit rf plans equals a full launch
    on generated multi-CTA kernels under Penny; the output is the whole
    window of global memory the case allocates."""
    case = generate_case(seed)
    assert case.grid == 2
    kernel = PennyCompiler(scheme_config(SCHEME_PENNY)).compile(
        case.kernel(),
        LaunchConfig(threads_per_block=case.block, num_blocks=case.grid),
    ).kernel

    def make_memory():
        return case.make_memory()[0]

    out_map = case.make_memory()[1]
    window = (0, max(addr // 4 + words for addr, words in out_map.values()))
    fc = FaultCampaign(
        kernel,
        Launch(grid=case.grid, block=case.block),
        make_memory,
        window,
        backend=backend,
    )
    assert fc.fast_forward

    def draw(index):
        rng = random.Random(seed * 1000 + index)
        ctaid, tid = fc.keys[rng.randrange(len(fc.keys))]
        plan = FaultPlan(
            ctaid=ctaid,
            tid=tid,
            after_instructions=rng.randrange(1, fc.lifetimes[(ctaid, tid)]),
            bits=tuple(rng.sample(range(33), rng.choice((1, 2)))),
            rng_seed=rng.getrandbits(30),
        )
        return "rf", seed, plan

    outcomes, _, exits, dead_ctas = _compare(
        fc, make_memory, draw, range(16), monkeypatch
    )
    assert exits > 0 and dead_ctas
    assert "recovered" in outcomes
    assert {"sdc", "due"} & set(outcomes)
