"""One dataflow engine, checked against the code it replaced.

:class:`repro.analysis.dataflow.Solver` is a worklist over cached
instruction-point values, and ``Liveness`` and ``ReachingDefs`` are
analyses on it.  The references here are what came before:

- the hand-rolled round-robin fixpoints of ``Liveness`` and
  ``ReachingDefs`` (:class:`_RefLiveness`, :class:`_RefReachingDefs`);
- a round-robin solve with a per-block replay for the other analyses
  (:func:`_round_robin`);
- the exposure scores accrued over a liveness of register names, the
  way ``register_vulnerability`` worked before it read
  ``Liveness.live_points`` (:func:`_ref_vulnerability`);
- naive dominator sets, ``dom(n) = {n} ∪ ⋂ dom(p)``, for the
  Cooper-Harvey-Kennedy trees and control dependence.

The inputs are the 25 benchmark kernels and every CFG the pipeline
builds while compiling them under Penny and Bolt/Global, the same for
30 fuzz cases, and derandomized loop kernels.  The last two tests show
that the comparison fails for a solver that never re-queues a block and
for reaching definitions that let a guarded def kill.
"""

import copy
import heapq
import types
from typing import Dict, FrozenSet, List, Optional, Set

import pytest
from hypothesis import HealthCheck, given, settings

from repro.analysis import dataflow, reachingdefs
from repro.analysis.cfg import CFG
from repro.analysis.dataflow import Analysis, Direction, Solver
from repro.analysis.dominators import Dominators
from repro.analysis.liveness import Liveness
from repro.analysis.loops import LoopInfo
from repro.analysis.postdom import ControlDep, ControlDependence, PostDominators
from repro.analysis.reachingdefs import DefSite, ReachingDefs
from repro.analysis.vuln import (
    AddressCriticality,
    _class_weights,
    register_vulnerability,
)
from repro.bench import ALL_BENCHMARKS
from repro.core.pipeline import LaunchConfig, PennyCompiler, PennyConfig
from repro.core.schemes import SCHEME_BOLT_GLOBAL, SCHEME_PENNY, scheme_config
from repro.fuzz.generator import generate_case
from repro.gpusim.config import FERMI_C2050
from repro.gpusim.executor import _classify
from repro.ir.instructions import Bra
from repro.ir.parser import parse_kernel
from repro.ir.printer import print_kernel
from repro.ir.types import Reg
from repro.lint.dataflow import DefiniteAssignment, SymbolTaint, ThreadTaint
from repro.lint.rules_post import CKPT_SYMBOLS
from tests.property.test_loop_kernel_props import loop_kernels

# -- references ---------------------------------------------------------------


class _RefLiveness:
    """The block-level use/def fixpoint ``Liveness`` used to run."""

    def __init__(self, cfg: CFG):
        self.cfg = cfg
        self.live_in: Dict[str, Set[Reg]] = {}
        self.live_out: Dict[str, Set[Reg]] = {}
        self._use: Dict[str, Set[Reg]] = {}
        self._def: Dict[str, Set[Reg]] = {}

        for blk in cfg.blocks:
            use: Set[Reg] = set()
            defs: Set[Reg] = set()
            for inst in blk.instructions:
                for r in inst.reg_uses():
                    if r not in defs:
                        use.add(r)
                for r in inst.defs():
                    if inst.guard is None:
                        defs.add(r)
            self._use[blk.label] = use
            self._def[blk.label] = defs
            self.live_in[blk.label] = set()
            self.live_out[blk.label] = set()

        changed = True
        while changed:
            changed = False
            for blk in reversed(cfg.blocks):
                label = blk.label
                out: Set[Reg] = set()
                for succ in cfg.successors(label):
                    out |= self.live_in[succ]
                new_in = self._use[label] | (out - self._def[label])
                if out != self.live_out[label] or new_in != self.live_in[label]:
                    self.live_out[label] = out
                    self.live_in[label] = new_in
                    changed = True

    def live_points(self, label: str) -> List[Set[Reg]]:
        blk = self.cfg.block(label)
        n = len(blk.instructions)
        points: List[Set[Reg]] = [set() for _ in range(n + 1)]
        points[n] = set(self.live_out[label])
        for i in range(n - 1, -1, -1):
            inst = blk.instructions[i]
            live = set(points[i + 1])
            if inst.guard is None:
                live -= set(inst.defs())
            live |= set(inst.reg_uses())
            points[i] = live
        return points


class _RefReachingDefs:
    """The block-level gen/kill fixpoint ``ReachingDefs`` used to run, and
    its query, which replays the block prefix."""

    def __init__(self, cfg: CFG):
        self.cfg = cfg
        self.defs_of: Dict[Reg, List[DefSite]] = {}
        gen: Dict[str, Dict[Reg, Set[DefSite]]] = {}
        kill_regs: Dict[str, Set[Reg]] = {}
        for blk in cfg.blocks:
            bgen: Dict[Reg, Set[DefSite]] = {}
            bkill: Set[Reg] = set()
            for i, inst in enumerate(blk.instructions):
                for r in inst.defs():
                    site = DefSite(blk.label, i, r)
                    self.defs_of.setdefault(r, []).append(site)
                    if inst.guard is None:
                        bgen[r] = {site}
                        bkill.add(r)
                    else:
                        bgen.setdefault(r, set()).add(site)
            gen[blk.label] = bgen
            kill_regs[blk.label] = bkill

        self.in_sets: Dict[str, Dict[Reg, Set[DefSite]]] = {
            blk.label: {} for blk in cfg.blocks
        }
        self.out_sets: Dict[str, Dict[Reg, Set[DefSite]]] = {
            blk.label: {} for blk in cfg.blocks
        }
        changed = True
        order = cfg.reverse_postorder()
        while changed:
            changed = False
            for label in order:
                in_map: Dict[Reg, Set[DefSite]] = {}
                for pred in cfg.predecessors(label):
                    for reg, sites in self.out_sets[pred].items():
                        in_map.setdefault(reg, set()).update(sites)
                out_map = {
                    reg: set(sites) if reg not in kill_regs[label] else set()
                    for reg, sites in in_map.items()
                }
                for reg, sites in gen[label].items():
                    out_map.setdefault(reg, set()).update(sites)
                out_map = {r: s for r, s in out_map.items() if s}
                if (
                    in_map != self.in_sets[label]
                    or out_map != self.out_sets[label]
                ):
                    self.in_sets[label] = in_map
                    self.out_sets[label] = out_map
                    changed = True

    def reaching_at(self, label: str, index: int, reg: Reg) -> FrozenSet:
        blk = self.cfg.block(label)
        sites: Set[DefSite] = set(self.in_sets[label].get(reg, set()))
        may_be_entry = not sites and label == self.cfg.entry
        for i in range(index):
            inst = blk.instructions[i]
            for r in inst.defs():
                if r == reg:
                    if inst.guard is None:
                        sites = {DefSite(label, i, reg)}
                        may_be_entry = False
                    else:
                        sites.add(DefSite(label, i, reg))
        if may_be_entry and not sites:
            return frozenset({DefSite(label, DefSite.ENTRY_INDEX, reg)})
        return frozenset(sites)


def _replay(cfg: CFG, an: Analysis, label: str, incoming) -> list:
    """Transfer ``incoming`` through the block: every point, in
    execution order."""
    insts = cfg.block(label).instructions
    points = [incoming] * (len(insts) + 1)
    if an.direction is Direction.FORWARD:
        for i, inst in enumerate(insts):
            points[i + 1] = an.transfer(label, i, inst, points[i])
    else:
        for i in range(len(insts) - 1, -1, -1):
            points[i] = an.transfer(label, i, insts[i], points[i + 1])
    return points


def _round_robin(cfg: CFG, an: Analysis) -> Dict[str, list]:
    """Points of every block at the fixed point found by re-running every
    block in (reverse) RPO until nothing changes."""
    forward = an.direction is Direction.FORWARD
    order = cfg.reverse_postorder()
    if not forward:
        order.reverse()
    edges_in = cfg.preds if forward else cfg.succs
    start = {label: an.init() for label in order}
    result = dict(start)
    changed = True
    while changed:
        changed = False
        for label in order:
            incoming = None
            for src in edges_in[label]:
                v = result[src]
                incoming = v if incoming is None else an.meet(incoming, v)
            if incoming is None:
                incoming = an.boundary()
            out = _replay(cfg, an, label, incoming)[-1 if forward else 0]
            if incoming != start[label] or out != result[label]:
                start[label], result[label] = incoming, out
                changed = True
    return {label: _replay(cfg, an, label, start[label]) for label in order}


class _LiveNames(Analysis):
    """Liveness over register names, the analysis the vulnerability
    ranking used to solve for itself."""

    direction = Direction.BACKWARD

    def meet(self, a, b):
        return a | b

    def transfer(self, label, index, inst, value):
        if inst.guard is None:
            value = value - frozenset(r.name for r in inst.defs())
        return value | frozenset(r.name for r in inst.reg_uses())


def _ref_vulnerability(cfg: CFG, loop_base: int = 8) -> Dict[str, float]:
    points = _round_robin(cfg, _LiveNames())
    loops = LoopInfo(cfg)
    weights = _class_weights(FERMI_C2050)
    scores: Dict[str, float] = {}
    for blk in cfg.blocks:
        depth_w = float(loop_base) ** loops.depth_of(blk.label)
        insts = blk.instructions
        for i in range(len(insts) - 1, -1, -1):
            w = weights[_classify(insts[i])] * depth_w
            for name in points[blk.label][i + 1]:  # live across inst i
                scores[name] = scores.get(name, 0.0) + w
    return scores


def _dominator_sets(root: str, succs) -> Dict[str, Set[str]]:
    """``dom(n) = {n} ∪ ⋂ dom(p)`` over the nodes reachable from root."""
    reach = {root}
    stack = [root]
    while stack:
        for nxt in succs[stack.pop()]:
            if nxt not in reach:
                reach.add(nxt)
                stack.append(nxt)
    preds = {n: [p for p in reach if n in succs[p]] for n in reach}
    dom = {n: set(reach) for n in reach}
    dom[root] = {root}
    changed = True
    while changed:
        changed = False
        for n in reach - {root}:
            new = {n} | set.intersection(*(dom[p] for p in preds[n]))
            if new != dom[n]:
                dom[n] = new
                changed = True
    return dom


def _idoms(dom: Dict[str, Set[str]]) -> Dict[str, Optional[str]]:
    """The strict dominator of each node closest to it: the one with the
    most dominators of its own."""
    return {
        n: max(ds - {n}, key=lambda d: len(dom[d]), default=None)
        for n, ds in dom.items()
    }


# -- the comparison -----------------------------------------------------------


def _check_liveness(cfg: CFG) -> None:
    got, want = Liveness(cfg), _RefLiveness(cfg)
    for blk in cfg.blocks:
        label = blk.label
        assert got.live_in[label] == want.live_in[label], label
        assert got.live_out[label] == want.live_out[label], label
        assert got.live_points(label) == want.live_points(label), label


def _check_reaching_defs(cfg: CFG) -> None:
    got, want = ReachingDefs(cfg), _RefReachingDefs(cfg)
    assert got.defs_of == want.defs_of
    for blk in cfg.blocks:
        for i, inst in enumerate(blk.instructions):
            for reg in inst.reg_uses():
                query = (blk.label, i, reg)
                assert got.reaching_at(*query) == want.reaching_at(*query), query
        for reg in want.defs_of:
            query = (blk.label, 0, reg)
            assert got.reaching_at(*query) == want.reaching_at(*query), query


def _check_solver(cfg: CFG, make) -> None:
    solver = Solver(cfg, make())
    want = _round_robin(cfg, make())
    for blk in cfg.blocks:
        where = (type(solver.analysis).__name__, blk.label)
        points = want[blk.label]
        assert solver.points(blk.label) == points, where
        assert solver.block_in[blk.label] == points[0], where
        assert solver.block_out[blk.label] == points[-1], where


def _check_dominance(cfg: CFG) -> None:
    assert Dominators(cfg).idom == _idoms(_dominator_sets(cfg.entry, cfg.succs))

    exit_ = PostDominators.VIRTUAL_EXIT
    labels = [blk.label for blk in cfg.blocks]
    reverse = dict(cfg.preds)
    reverse[exit_] = [label for label in labels if not cfg.succs[label]]
    pdom = _dominator_sets(exit_, reverse)
    ipdom = _idoms(pdom)
    pdom_sets = PostDominators(cfg)
    assert pdom_sets.ipdom == {n: ipdom.get(n) for n in labels + [exit_]}

    # X depends on edge P -> S when X postdominates S but not P; a block
    # that reaches no exit postdominates only itself.
    deps: Dict[str, Set[ControlDep]] = {label: set() for label in labels}
    for blk in cfg.blocks:
        branches = [
            i for i in blk.instructions if isinstance(i, Bra) and i.guard
        ]
        if not branches:
            continue
        pred, guard_sense = branches[-1].guard
        taken = branches[-1].target
        fallthrough = next(
            (s for s in cfg.succs[blk.label] if s != taken), None
        )
        for succ, on_taken in ((taken, True), (fallthrough, False)):
            if succ is None:
                continue
            sense = on_taken if guard_sense else not on_taken
            dependent = (
                pdom.get(succ, {succ}) - pdom.get(blk.label, {blk.label})
            )
            for x in dependent - {exit_}:
                deps[x].add(ControlDep(blk.label, pred, sense))
    assert ControlDependence(cfg, pdom_sets).deps == deps


def _check(cfg: CFG) -> None:
    _check_liveness(cfg)
    _check_reaching_defs(cfg)
    for make in (
        lambda: DefiniteAssignment(cfg),
        ThreadTaint,
        lambda: SymbolTaint(CKPT_SYMBOLS),
        AddressCriticality,
    ):
        _check_solver(cfg, make)
    assert register_vulnerability(cfg).scores == _ref_vulnerability(cfg)
    _check_dominance(cfg)


# -- inputs -------------------------------------------------------------------

CONFIGS = (scheme_config(SCHEME_PENNY), scheme_config(SCHEME_BOLT_GLOBAL))


def _pipeline_cfgs(kernels, launch, configs=CONFIGS) -> List[CFG]:
    """A CFG of each kernel and of every distinct kernel the pipeline
    builds a CFG of while compiling it under each configuration.  The
    kernels are copied when seen: passes mutate them afterwards."""
    seen: Dict[str, CFG] = {}
    build = CFG.__init__

    def snapshot(kernel) -> None:
        text = print_kernel(kernel)
        if text not in seen:
            frozen = copy.copy(kernel)
            frozen.blocks = copy.deepcopy(kernel.blocks)
            cfg = CFG.__new__(CFG)
            build(cfg, frozen)
            seen[text] = cfg

    def recording(self, kernel) -> None:
        build(self, kernel)
        snapshot(kernel)

    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(CFG, "__init__", recording)
        for make_kernel in kernels:
            snapshot(make_kernel())
            for config in configs:
                PennyCompiler(config).compile(make_kernel(), launch)
    return list(seen.values())


def _bench_cfgs(abbr: str) -> List[CFG]:
    bench = ALL_BENCHMARKS[abbr]
    return _pipeline_cfgs([bench.fresh_kernel], bench.workload().launch_config)


#: shapes the generated inputs lack: a guarded redefinition read before
#: the next join, a loop back to the entry block, and a block that reaches
#: no exit next to an unreachable one
EDGE_KERNELS = {
    "guarded-redefinition": """
.entry k (.param .ptr A) {
ENTRY:
  ld.param.u32 %a, [A];
  mov.u32 %t, %tid.x;
  mov.u32 %x, 1;
  setp.lt.u32 %p, %t, 16;
  @%p mov.u32 %x, 2;
  add.u32 %y, %x, 1;
  st.global.u32 [%a], %y;
  ret;
}
""",
    "entry-loop": """
.entry k (.param .ptr A) {
ENTRY:
  add.u32 %i, %i, 1;
  setp.lt.u32 %p, %i, 4;
  @%p bra ENTRY;
EXIT:
  ld.param.u32 %a, [A];
  st.global.u32 [%a], %i;
  ret;
}
""",
    "spin-and-dead": """
.entry k (.param .ptr A) {
ENTRY:
  ld.param.u32 %a, [A];
  mov.u32 %t, %tid.x;
  setp.lt.u32 %p, %t, 16;
  @%p bra SPIN;
NEXT:
  setp.lt.u32 %q, %t, 8;
  @!%q bra EARLY;
STORE:
  st.global.u32 [%a], %t;
  ret;
EARLY:
  ret;
SPIN:
  add.u32 %t, %t, 1;
  bra SPIN;
DEAD:
  mov.u32 %d, 1;
  bra EARLY;
}
""",
}


def _edge_cfgs() -> List[CFG]:
    return [CFG(parse_kernel(text)) for text in EDGE_KERNELS.values()]


def test_engine_matches_reference_on_edge_kernels():
    for cfg in _edge_cfgs():
        _check(cfg)


@pytest.mark.parametrize("abbr", [b.abbr for b in ALL_BENCHMARKS])
def test_engine_matches_reference_on_benchmarks(abbr):
    for cfg in _bench_cfgs(abbr):
        _check(cfg)


@pytest.mark.parametrize("chunk", range(3))
def test_engine_matches_reference_on_fuzz_cases(chunk):
    for seed in range(10 * chunk, 10 * chunk + 10):
        case = generate_case(seed)
        launch = LaunchConfig(
            threads_per_block=case.block, num_blocks=case.grid
        )
        for cfg in _pipeline_cfgs([case.kernel], launch):
            _check(cfg)


@settings(
    max_examples=15,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(kernel=loop_kernels())
def test_engine_matches_reference_on_loop_kernels(kernel):
    text = print_kernel(kernel)
    for cfg in _pipeline_cfgs(
        [lambda: parse_kernel(text)],
        LaunchConfig(threads_per_block=8, num_blocks=1),
        CONFIGS + (PennyConfig(overwrite="sa"),),
    ):
        _check(cfg)


# -- the comparison catches real bugs -----------------------------------------


def _oracle_fails(monkeypatch, attr, value) -> bool:
    cfgs = _edge_cfgs() + _bench_cfgs("SQ")
    monkeypatch.setattr(attr[0], attr[1], value)
    try:
        for cfg in cfgs:
            _check(cfg)
    except AssertionError:
        return True
    return False


def test_oracle_catches_a_solver_that_never_requeues(monkeypatch):
    # every block visited once, in priority order
    never_requeues = types.SimpleNamespace(
        heappop=heapq.heappop, heappush=lambda heap, item: None
    )
    assert _oracle_fails(monkeypatch, (dataflow, "heapq"), never_requeues)


def test_oracle_catches_guarded_defs_that_kill(monkeypatch):
    analysis = reachingdefs._ReachingSites
    transfer = analysis.transfer

    def kills_on_guarded(self, label, index, inst, value):
        if inst.guard is not None:
            inst = copy.copy(inst)
            inst.guard = None
        return transfer(self, label, index, inst, value)

    assert _oracle_fails(monkeypatch, (analysis, "transfer"), kills_on_guarded)
