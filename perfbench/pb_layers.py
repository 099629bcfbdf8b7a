"""Per-layer metrics of the traced run.

Two sources, both reached through public names:

- spans and counters the program already emits, recorded by a public
  ``repro.obs.Tracer`` installed around each op and folded by
  ``pb_math.fold``;
- the benchmark's own timing of each layer's public functions on the
  workload's inputs (``probe_metrics``).

A metric of a layer the workload does no work in reads 0.
"""

from __future__ import annotations

import statistics
import time
from collections import Counter
from pathlib import Path
from typing import Callable, Dict, Iterable, Sequence, Tuple

from repro.analysis import CFG, AliasAnalysis, Liveness, LoopInfo, ReachingDefs, find_memory_antideps
from repro.analysis.postdom import ControlDependence
from repro.core.storage import StorageBudget
from repro.ir.parser import parse_kernel
from repro.ir.printer import print_kernel
from repro.serve import CompileCache
from repro.serve.key import compile_cache_key

import pb_speed
from pb_common import Op, Side
from pb_math import Fold, attributed

#: self time per compile of each existing span
CORE_SPANS = {
    "core.clone_ms": "pass.clone",
    "core.regions_ms": "pass.regions",
    "core.liveins_ms": "pass.liveins",
    "core.policy_ms": "pass.policy",
    "core.plan_ms": "pass.plan",
    "core.hazards_ms": "pass.hazards",
    "core.renaming_ms": "pass.renaming",
    "core.placement_self_ms": "pass.placement",
    "core.coloring_ms": "pass.coloring",
    "core.pddg_ms": "pass.pddg",
    "core.pruning_ms": "pass.pruning",
    "core.recovery_table_ms": "pass.recovery_table",
    "core.storage_ms": "pass.storage",
    "core.codegen_ms": "pass.codegen",
    "core.candidate_self_ms": "compile.candidate",
    "core.compile_self_ms": "compile",
}

#: existing ``compile.*`` counters, per compile
CORE_COUNTERS = {
    "core.checkpoints_placed": "compile.checkpoints_placed",
    "core.checkpoints_pruned": "compile.checkpoints_pruned",
    "core.checkpoints_committed": "compile.checkpoints_committed",
    "core.rename_rounds": "compile.rename_rounds",
    "core.regions_cut": "compile.regions_cut",
    "core.address_insts": "compile.address_insts",
}

#: every per-layer metric: (name, unit, better)
PER_LAYER: Tuple[Tuple[str, str, str], ...] = (
    *((name, "ms", "lower") for name in CORE_SPANS),
    *((name, "count", "lower") for name in CORE_COUNTERS),
    ("core.prune_ratio", "ratio", "higher"),
    ("analysis.cfg_ms", "ms", "lower"),
    ("analysis.liveness_ms", "ms", "lower"),
    ("analysis.reachingdefs_ms", "ms", "lower"),
    ("analysis.alias_ms", "ms", "lower"),
    ("analysis.loops_ms", "ms", "lower"),
    ("analysis.ctrldep_ms", "ms", "lower"),
    ("analysis.reaching_query_us", "us", "lower"),
    ("ir.parse_ms", "ms", "lower"),
    ("ir.print_ms", "ms", "lower"),
    ("campaign.compile_ms", "ms", "lower"),
    ("campaign.golden_ms", "ms", "lower"),
    ("campaign.inject_ms", "ms", "lower"),
    ("gpusim.sim_kinst_per_s", "1/s", "higher"),
    ("gpusim.recoveries_per_inj", "count", "lower"),
    ("campaign.masked_share", "ratio", "higher"),
    ("campaign.recovered_share", "ratio", "higher"),
    ("serve.hit_ms", "ms", "lower"),
    ("serve.miss_ms", "ms", "lower"),
    ("serve.wire_ms", "ms", "lower"),
    ("serve.miss_overhead_ms", "ms", "lower"),
    ("serve.hit_ratio", "ratio", "higher"),
    ("serve.request_self_ms", "ms", "lower"),
    ("cache.lookup_ms", "ms", "lower"),
    ("cache.store_ms", "ms", "lower"),
    ("serve.key_ms", "ms", "lower"),
    ("cache.get_us", "us", "lower"),
    ("cache.put_ms", "ms", "lower"),
    ("runtime.restarts", "count", "lower"),
    ("runtime.crashes", "count", "lower"),
    ("serve.busy_rejections", "count", "lower"),
    ("serve.timeouts", "count", "lower"),
    ("cache.store_errors", "count", "lower"),
    ("obs.trace_overhead_pct", "%", "lower"),
    ("obs.unattributed_pct", "%", "lower"),
)


def core_metrics(folded: Dict[str, Fold], counters: Counter) -> Dict[str, Tuple[float, str]]:
    compiles = folded["compile"].count if "compile" in folded else 0
    if not compiles:
        return {}
    out = {
        metric: (1e3 * folded[span].self_time / compiles if span in folded else 0.0, "ms")
        for metric, span in CORE_SPANS.items()
    }
    out.update(
        {metric: (counters[name] / compiles, "count") for metric, name in CORE_COUNTERS.items()}
    )
    placed = counters["compile.checkpoints_placed"]
    out["core.prune_ratio"] = (counters["compile.checkpoints_pruned"] / placed if placed else 0.0, "ratio")
    return out


def unattributed_pct(ops: Iterable[Op]) -> float:
    """Mean share of an op's wall time that no span accounts for."""
    shares = [(op.wall - attributed(op.spans)) / op.wall for op in ops]
    return 100.0 * sum(shares) / len(shares)


def per_call(fn: Callable[[], object], reps: int = 5) -> float:
    """Median reference seconds of ``reps`` calls."""
    before = pb_speed.loop_seconds()
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times) * pb_speed.scale(before, pb_speed.loop_seconds())


def probe_metrics(programs: Sequence, workdir: Path) -> Dict[str, Tuple[float, str]]:
    """The benchmark's own timing of public ``analysis``, ``ir`` and cache
    functions on the workload's kernels and compiled programs."""
    kernels = {p.bench.abbr: p.kernel for p, _ in programs}
    sums: Dict[str, float] = {}
    queries = query_seconds = 0

    def add(name: str, seconds: float) -> None:
        sums[name] = sums.get(name, 0.0) + seconds

    for kernel in kernels.values():
        cfg = CFG(kernel)
        rdefs = ReachingDefs(cfg)
        add("analysis.cfg_ms", per_call(lambda: CFG(kernel)))
        add("analysis.liveness_ms", per_call(lambda: Liveness(cfg)))
        add("analysis.reachingdefs_ms", per_call(lambda: ReachingDefs(cfg)))
        # the constructor is lazy: time it with the anti-dependence scan
        # that region formation runs on it
        add(
            "analysis.alias_ms",
            per_call(lambda: find_memory_antideps(cfg, AliasAnalysis(cfg, rdefs=rdefs))),
        )
        add("analysis.loops_ms", per_call(lambda: LoopInfo(cfg)))
        add("analysis.ctrldep_ms", per_call(lambda: ControlDependence(cfg)))
        sites = [(b.label, i) for b in cfg.blocks for i in range(len(b.instructions))]
        queries += len(sites)
        query_seconds += per_call(lambda: [rdefs.defs_reaching_use(label, i) for label, i in sites])
        text = print_kernel(kernel)
        add("ir.print_ms", per_call(lambda: print_kernel(kernel)))
        add("ir.parse_ms", per_call(lambda: parse_kernel(text)))
    out = {name: (1e3 * s / len(kernels), "ms") for name, s in sums.items()}
    out["analysis.reaching_query_us"] = (1e6 * query_seconds / queries, "us")

    cache = CompileCache(directory=str(workdir / "probe-cache"))
    budget = StorageBudget()
    keys = []
    key_s = put_s = get_s = 0.0
    for program, result in programs:
        launch = program.workload.launch_config
        key_s += per_call(
            lambda: compile_cache_key(program.kernel, program.config, launch=launch, budget=budget)
        )
        key = compile_cache_key(program.kernel, program.config, launch=launch, budget=budget)
        put_s += per_call(lambda: cache.put(key, result))
        keys.append(key)
    for key in keys:
        get_s += per_call(lambda: cache.get(key))
    n = len(programs)
    out["serve.key_ms"] = (1e3 * key_s / n, "ms")
    out["cache.put_ms"] = (1e3 * put_s / n, "ms")
    out["cache.get_us"] = (1e6 * get_s / n, "us")
    return out


#: the share of op wall time the spans may leave unexplained
UNATTRIBUTED_LIMIT_PCT = 5.0


def per_layer(wl, sides: Dict[bool, Side], workdir: Path):
    """Every per-layer metric of one traced run, the folded spans the
    span-derived ones came from, and the problems found: the spans must
    account for the ops' wall time within ``UNATTRIBUTED_LIMIT_PCT``."""
    metrics = {name: (0.0, unit) for name, unit, _ in PER_LAYER}
    folded, counters = wl.trace(sides)
    metrics.update(core_metrics(folded, counters))
    metrics.update(probe_metrics(wl.layer_programs(), workdir))
    metrics["gpusim.sim_kinst_per_s"] = (wl.fig9.kinst_per_s(), "1/s")
    traced, plain = sides[True], sides[False]
    metrics["obs.trace_overhead_pct"] = (
        100.0 * ((traced.seconds / len(traced.ops)) / (plain.seconds / len(plain.ops)) - 1.0),
        "%",
    )
    metrics["obs.unattributed_pct"] = (
        unattributed_pct(op for op in traced.ops if op.error is None),
        "%",
    )
    metrics.update(wl.layer_metrics(sides))
    unattributed = metrics["obs.unattributed_pct"][0]
    problems = []
    if abs(unattributed) > UNATTRIBUTED_LIMIT_PCT:
        problems.append(
            f"spans leave {unattributed:.1f}% of op wall time unattributed "
            f"(limit {UNATTRIBUTED_LIMIT_PCT}%)"
        )
    return metrics, folded, problems
