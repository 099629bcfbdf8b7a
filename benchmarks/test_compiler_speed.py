"""Compile-time benchmarks: the paper claims near-linear optimal pruning
(O(mn) with no SCCs in practice) and polynomial bimodal placement.  The
pruning benchmarks scale three shapes: a straight-line chain of regions,
where every value has one definition; a chain of two-way diamonds, where
the value reaching the end depends on 2^k paths through k joins, so a
validator that walked paths instead of definitions would blow up; and a
ring of loop-carried registers, each checkpointed, where a validator that
kept walking a merge after an INVALID input would walk the whole ring
from every checkpoint (quadratic).

Timings go through the :mod:`repro.perf` repeater (warmup discard, GC
isolation, CI-driven stopping), so the recorded medians carry
confidence intervals instead of being one lucky — or unlucky — run."""

import pytest

from conftest import record_table

from repro.analysis import CFG, AliasAnalysis, LoopInfo, ReachingDefs
from repro.analysis.postdom import ControlDependence
from repro.bench import get_benchmark
from repro.core import PennyCompiler, SCHEME_PENNY, scheme_config
from repro.core.checkpoints import eager_plan
from repro.core.hazards import materialize_instances
from repro.core.liveins import analyze_liveins
from repro.core.pddg import PddgValidator
from repro.core.pruning import prune_optimal
from repro.core.regions import form_regions
from repro.ir import KernelBuilder
from repro.perf import RepeatConfig, repeat

_COMPILE_CFG = RepeatConfig(
    warmup=1, min_reps=5, max_reps=15, target_rel_ci=0.10,
    wall_budget_s=60.0,
)


def _timed_compile(abbr: str):
    bench = get_benchmark(abbr)
    launch = bench.workload().launch_config
    last = {}

    def compile_once():
        result = PennyCompiler(scheme_config(SCHEME_PENNY)).compile(
            bench.fresh_kernel(), launch
        )
        last["result"] = result

    rep = repeat(compile_once, _COMPILE_CFG)
    return rep, last["result"]


@pytest.mark.parametrize("abbr", ["STC", "TPACF"])
def test_full_penny_compile(abbr):
    rep, result = _timed_compile(abbr)
    if abbr == "STC":
        assert result.stats["checkpoints_total"] > 0
    s = rep.summary
    assert s.n >= 1
    assert s.ci_lo <= s.median <= s.ci_hi
    record_table(
        f"penny compile ({abbr})",
        f"full Penny compile of {abbr}: median {s.median*1e3:.2f}ms "
        f"CI [{s.ci_lo*1e3:.2f}, {s.ci_hi*1e3:.2f}]ms over {s.n} reps "
        f"(stopped: {rep.stop_reason.value})",
    )


def _chain_kernel(n_regions: int):
    """A long chain of anti-dependent regions with recomputable live-ins:
    pruning workload scales linearly in n_regions."""
    b = KernelBuilder("chain", params=[("A", "ptr")])
    tid = b.special_u32("%tid.x")
    a = b.ld_param("A")
    x = b.mov(tid, dst=b.reg("u32", "%x"))
    for i in range(n_regions):
        off = b.shl(tid, 2)
        addr = b.add(a, off)
        b.ld("global", addr, dtype="u32")
        b.add(x, i + 1, dst=b.reg("u32", f"%x{i}"))
        x = b.reg("u32", f"%x{i}")
        b.st("global", addr, x)
    b.ret()
    return b.finish()


def _diamond_kernel(n_diamonds: int):
    """``n_diamonds`` chained two-way diamonds over one register,
    ``x = p ? x + 1 : x + 2``, live into the region of the final store."""
    b = KernelBuilder("diamonds", params=[("A", "ptr")])
    tid = b.special_u32("%tid.x")
    a = b.ld_param("A")
    addr = b.add(a, b.shl(tid, 2))
    b.ld("global", addr, dtype="u32")
    x = b.mov(tid, dst=b.reg("u32", "%x"))
    for i in range(n_diamonds):
        p = b.setp("lt", tid, i + 1)
        b.bra(f"THEN{i}", pred=p)
        b.add(x, 2, dst=x)
        b.bra(f"JOIN{i}")
        b.label(f"THEN{i}")
        b.add(x, 1, dst=x)
        b.label(f"JOIN{i}")
    b.st("global", addr, x)
    b.ret()
    return b.finish()


def _ring_kernel(n_regs: int):
    """``n_regs`` registers carried around a loop, ``r_j = r_(j+1) + 1``,
    each first loaded from ``A[tid]``; the loop loads and stores
    ``A[tid]``, so its region cut leaves every register live."""
    b = KernelBuilder("ring", params=[("A", "ptr"), ("n", "u32")])
    tid = b.special_u32("%tid.x")
    n = b.ld_param("n")
    addr = b.add(b.ld_param("A"), b.shl(tid, 2))
    regs = [
        b.ld("global", addr, dst=b.reg("u32", f"%r{j}"))
        for j in range(n_regs)
    ]
    i = b.mov(0, dst=b.reg("u32", "%i"))
    b.label("LOOP")
    v = b.ld("global", addr, dtype="u32")
    for j in range(n_regs):
        b.add(regs[(j + 1) % n_regs], 1, dst=regs[j])
    b.st("global", addr, b.add(v, regs[0]))
    b.add(i, 1, dst=i)
    b.bra("LOOP", pred=b.setp("lt", i, n))
    b.label("EXIT")
    b.ret()
    return b.finish()


def _pruning_median(kernel) -> float:
    form_regions(kernel)
    cfg = CFG(kernel)
    rdefs = ReachingDefs(cfg)
    liveins = analyze_liveins(kernel, kernel.meta["region_info"], cfg=cfg,
                              rdefs=rdefs)
    alias = AliasAnalysis(cfg, rdefs)
    loops = LoopInfo(cfg)
    cdeps = ControlDependence(cfg)
    last = {}

    def prune_once():
        plan = eager_plan(liveins)
        instances = materialize_instances(plan, cfg)
        validator = PddgValidator(
            cfg, rdefs, plan, instances, alias, loops, cdeps, None
        )
        prune_optimal(plan, validator)
        last["plan"] = plan

    rep = repeat(
        prune_once,
        RepeatConfig(
            warmup=1, min_reps=5, max_reps=20, target_rel_ci=0.10,
            wall_budget_s=60.0,
        ),
    )
    assert last["plan"].stats["undecided_cycles"] == 0  # no SCCs, as found
    return rep.summary.median


_SHAPES = {
    "regions": _chain_kernel,
    "diamonds": _diamond_kernel,
    "ring": _ring_kernel,
}
#: the largest growth allowed for a 4x size: ~quadratic, generously, on a
#: noisy box; the ring, which a quadratic walk would hit, at half that
_MAX_GROWTH = {"regions": 16.0, "diamonds": 16.0, "ring": 8.0}


@pytest.mark.parametrize("shape", sorted(_SHAPES))
def test_optimal_pruning_scales(shape):
    make = _SHAPES[shape]
    small, large = _pruning_median(make(8)), _pruning_median(make(32))
    growth = large / small
    record_table(
        f"optimal pruning scaling ({shape})",
        f"prune_optimal: 8 {shape} {small*1e3:.2f}ms -> "
        f"32 {shape} {large*1e3:.2f}ms ({growth:.1f}x for 4x {shape})",
    )
    assert growth < _MAX_GROWTH[shape], (
        f"pruning grew {growth:.1f}x for a 4x {shape} increase "
        f"({small*1e3:.2f}ms -> {large*1e3:.2f}ms)"
    )
