"""Exactness and asymptotics of the PDDG validator's per-query memo.

There are two references.  One is a validator whose memo never stores:
the plain walk that evaluates every dependence node once per path.  The
other keeps the memo but merges every input of every merge of Algorithm
1, even after one of them is INVALID.  Every query the validator answers
must equal both references' answers, state and slice expression alike."""

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings

from repro.analysis import CFG, AliasAnalysis, LoopInfo, ReachingDefs
from repro.analysis.postdom import ControlDependence
from repro.analysis.reachingdefs import DefSite
from repro.bench import ALL_BENCHMARKS
from repro.core import pipeline
from repro.core.checkpoints import (
    CheckpointKind,
    CheckpointPlan,
    PlannedCheckpoint,
    PruneState,
)
from repro.core.pddg import Marked, PddgValidator, VState, merge
from repro.core.pipeline import LaunchConfig, PennyCompiler, PennyConfig
from repro.core.schemes import SCHEME_BOLT_GLOBAL, SCHEME_PENNY, scheme_config
from repro.core.slices import SLoad, SOp, SSelp, SSetp
from repro.fuzz.generator import generate_case
from repro.ir import KernelBuilder
from repro.ir.instructions import Alu, Atom, Ld, Selp, Setp
from repro.ir.types import DType
from tests.property.test_loop_kernel_props import loop_kernels


class _NeverStores(dict):
    def __setitem__(self, key, value):
        pass


class _Unmemoized(PddgValidator):
    """The reference walk: same code, no memo entry is ever kept."""

    def __init__(self, *args):
        super().__init__(*args)
        self._memo = _NeverStores()


class _FullMerge(PddgValidator):
    """The memoized walk whose merges read every input: a join walks all
    its definitions and predicate dependences, and a guarded or computed
    definition all its operands, even after one of them is INVALID."""

    def _mark_join(self, sites, decision):
        state = VState.VALID
        marks = []
        for site in sorted(sites, key=lambda s: (s.label, s.index)):
            m = self._mark_def(site, decision)
            marks.append((site, m))
            state = merge(state, m.state)
        pred_exprs = {}
        for site, _ in marks:
            for cd in self.ctrldep.of(site.label):
                key = (cd.branch_block, cd.pred.name)
                if key in pred_exprs:
                    continue
                branch_blk = self.cfg.block(cd.branch_block)
                pm = self._mark_reg_at(
                    cd.branch_block,
                    len(branch_blk.instructions),
                    cd.pred,
                    decision,
                )
                pred_exprs[key] = pm
                state = merge(state, pm.state)
        if state is not VState.VALID:
            return Marked(state)
        expr = self._materialize_join(marks, decision)
        if expr is None:
            self.materialization_failures += 1
            return Marked(VState.INVALID)
        return Marked(VState.VALID, expr)

    def _mark_instruction(self, site, decision):
        inst = self.cfg.block(site.label).instructions[site.index]

        if inst.guard is not None:
            prior = self._mark_reg_at(
                site.label, site.index, site.reg, decision
            )
            guard_reg, sense = inst.guard
            guard_mark = self._mark_reg_at(
                site.label, site.index, guard_reg, decision
            )
            value = self._mark_unguarded(site, inst, decision)
            state = merge(merge(prior.state, guard_mark.state), value.state)
            if state is not VState.VALID:
                return Marked(state)
            if sense:
                expr = SSelp(
                    site.reg.dtype, value.expr, prior.expr, guard_mark.expr
                )
            else:
                expr = SSelp(
                    site.reg.dtype, prior.expr, value.expr, guard_mark.expr
                )
            return Marked(VState.VALID, expr)

        return self._mark_unguarded(site, inst, decision)

    def _mark_unguarded(self, site, inst, decision):
        if isinstance(inst, Atom):
            return Marked(VState.INVALID)

        if isinstance(inst, Ld):
            base = self._mark_operand(
                site, inst.base, DType.U32, decision
            )
            if inst.space.read_only:
                mem = VState.VALID
            else:
                mem = (
                    VState.VALID
                    if self.memory_intact(site.label, site.index)
                    else VState.INVALID
                )
            state = merge(base.state, mem)
            if state is not VState.VALID:
                return Marked(state)
            return Marked(
                VState.VALID,
                SLoad(inst.space, inst.dtype, base.expr, inst.offset),
            )

        if isinstance(inst, Setp):
            a = self._mark_operand(site, inst.srcs[0], inst.dtype, decision)
            b = self._mark_operand(site, inst.srcs[1], inst.dtype, decision)
            state = merge(a.state, b.state)
            if state is not VState.VALID:
                return Marked(state)
            return Marked(VState.VALID, SSetp(inst.cmp, inst.dtype, a.expr, b.expr))

        if isinstance(inst, Selp):
            a = self._mark_operand(site, inst.srcs[0], inst.dtype, decision)
            b = self._mark_operand(site, inst.srcs[1], inst.dtype, decision)
            p = self._mark_operand(site, inst.pred, DType.PRED, decision)
            state = merge(merge(a.state, b.state), p.state)
            if state is not VState.VALID:
                return Marked(state)
            return Marked(
                VState.VALID, SSelp(inst.dtype, a.expr, b.expr, p.expr)
            )

        if isinstance(inst, Alu):
            marks = [
                self._mark_operand(site, src, inst.dtype, decision)
                for src in inst.srcs
            ]
            state = VState.VALID
            for m in marks:
                state = merge(state, m.state)
            if state is not VState.VALID:
                return Marked(state)
            return Marked(
                VState.VALID,
                SOp(inst.op, inst.dtype, tuple(m.expr for m in marks)),
            )

        return Marked(VState.INVALID)


def _same(got, want, query):
    assert (got.state, got.expr) == (want.state, want.expr), query


def _all_committed(cp):
    return PruneState.COMMITTED


class _Checked(PddgValidator):
    """Checks every checkpoint under phase 1 (no decisions) and under a
    fixed all-committed decision when built, before pruning and codegen
    change the plan and the CFG.  Then answers every query through the
    memo and checks it against both references at the moment it is
    asked, so the decisions each query sees (phase 2, the basic search,
    the recovery table) are the real ones."""

    def __init__(self, *args):
        super().__init__(*args)
        self.references = (_Unmemoized(*args), _FullMerge(*args))
        for cp in self.plan.checkpoints:
            self.validate_checkpoint(cp, None)
            self.validate_checkpoint(cp, _all_committed)

    def validate_checkpoint(self, cv, decision=None):
        got = super().validate_checkpoint(cv, decision)
        for reference in self.references:
            _same(got, reference.validate_checkpoint(cv, decision), cv.key)
        return got

    def value_at(self, label, index, reg, decision):
        got = super().value_at(label, index, reg, decision)
        for reference in self.references:
            want = reference.value_at(label, index, reg, decision)
            _same(got, want, (label, index, reg.name))
        return got


def _check_compile(monkeypatch, kernel, config, launch):
    """Compile with every validator checked (see :class:`_Checked`)."""
    built = []

    def make(*args):
        validator = _Checked(*args)
        built.append(validator)
        return validator

    monkeypatch.setattr(pipeline, "PddgValidator", make)
    PennyCompiler(config).compile(kernel, launch)
    assert built, "no pruning pass ran"


CONFIGS = {
    "penny": scheme_config(SCHEME_PENNY),
    "bolt-global": scheme_config(SCHEME_BOLT_GLOBAL),
}


@pytest.mark.parametrize("config", sorted(CONFIGS))
@pytest.mark.parametrize("abbr", [b.abbr for b in ALL_BENCHMARKS])
def test_memo_matches_reference_on_benchmarks(monkeypatch, abbr, config):
    bench = ALL_BENCHMARKS[abbr]
    _check_compile(
        monkeypatch,
        bench.fresh_kernel(),
        CONFIGS[config],
        bench.workload().launch_config,
    )


@pytest.mark.parametrize("seed", range(30))
def test_memo_matches_reference_on_fuzz_cases(monkeypatch, seed):
    case = generate_case(seed)
    launch = LaunchConfig(threads_per_block=case.block, num_blocks=case.grid)
    for config in CONFIGS.values():
        _check_compile(monkeypatch, case.kernel(), config, launch)


@settings(
    max_examples=15,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(kernel=loop_kernels())
def test_memo_matches_reference_on_loop_kernels(kernel):
    with pytest.MonkeyPatch.context() as monkeypatch:
        for config in (PennyConfig(overwrite="sa"), PennyConfig()):
            _check_compile(
                monkeypatch,
                kernel,
                config,
                LaunchConfig(threads_per_block=8, num_blocks=1),
            )


# -- path-sensitive reuse ------------------------------------------------------------
#
# On the inputs above a memo that ignored the path would give the same
# answers; these kernels put checkpoint nodes on dependence cycles, where a
# node's result depends on which of its cycle's sites are ancestors.


def _validators(kernel, sites=lambda rdefs: []):
    """A memoized validator and the memo-less reference for ``kernel``,
    both with an LUP checkpoint at each of ``sites(rdefs)``."""
    cfg = CFG(kernel)
    rdefs = ReachingDefs(cfg)
    plan = CheckpointPlan(
        [
            PlannedCheckpoint(reg=s.reg, kind=CheckpointKind.LUP, site=s)
            for s in sites(rdefs)
        ]
    )
    args = (
        cfg,
        rdefs,
        plan,
        [],
        AliasAnalysis(cfg, rdefs),
        LoopInfo(cfg),
        ControlDependence(cfg),
        None,
    )
    return PddgValidator(*args), _Unmemoized(*args)


def _full_merge_twin(validator):
    """A :class:`_FullMerge` over ``validator``'s analyses and plan."""
    v = validator
    return _FullMerge(
        v.cfg, v.rdefs, v.plan, v.instances, v.aa, v.loops, v.ctrldep,
        v.coloring,
    )


def test_reuse_respects_ancestors_on_a_cycle():
    """``y`` and the checkpointed ``x`` feed each other around the loop.
    Under ``x``, ``y`` closes the cycle and is INVALID; on its own path
    ``y`` reaches the checkpoint and is UNDECIDED.  Reusing the first
    answer for the second operand of ``z`` would make ``z`` INVALID."""
    b = KernelBuilder("cycle", params=[("n", "u32")])
    n = b.ld_param("n")
    x = b.mov(0, dst=b.reg("u32", "%x"))
    i = b.mov(0, dst=b.reg("u32", "%i"))
    b.label("LOOP")
    y = b.add(x, 1, dst=b.reg("u32", "%y"))
    b.mul(y, 2, dst=x)
    b.add(i, 1, dst=i)
    b.bra("LOOP", pred=b.setp("lt", i, n))
    b.label("EXIT")
    z = b.add(x, y, dst=b.reg("u32", "%z"))
    b.ret()
    memo, reference = _validators(
        b.finish(), lambda rdefs: [DefSite("LOOP", 1, x)]
    )
    want = reference.value_at("EXIT", 1, z, None)
    assert want.state is VState.UNDECIDED
    _same(memo.value_at("EXIT", 1, z, None), want, "z")
    assert memo.memo_hits > 0


def _random_loop_kernel(rng):
    b = KernelBuilder("cyclic", params=[("n", "u32")])
    n = b.ld_param("n")
    regs = [b.reg("u32", f"%r{j}") for j in range(4)]
    for r in regs:
        b.mov(rng.randint(0, 9), dst=r)
    i = b.mov(0, dst=b.reg("u32", "%i"))
    b.label("LOOP")
    for _ in range(rng.randint(2, 6)):
        other = rng.choice(regs + [rng.randint(1, 5)])
        b.add(rng.choice(regs), other, dst=rng.choice(regs))
    if rng.random() < 0.5:
        b.bra("SKIP", pred=b.setp("lt", rng.choice(regs), n))
        b.add(rng.choice(regs), rng.choice(regs), dst=rng.choice(regs))
        b.label("SKIP")
    b.add(i, 1, dst=i)
    b.bra("LOOP", pred=b.setp("lt", i, n))
    b.label("EXIT")
    for r in regs:
        b.add(r, rng.choice(regs), dst=rng.choice(regs))
    b.ret()
    return b.finish()


@pytest.mark.parametrize("chunk", range(7))
def test_memo_matches_reference_on_cyclic_kernels(chunk):
    """Random loops with checkpoints at a random 60% of the definitions,
    queried for every register at every block end and every checkpoint,
    under phase 1 and under random fixed decisions, against both
    references."""
    states = [PruneState.PRUNED, PruneState.UNDECIDED, PruneState.COMMITTED]
    for seed in range(50 * chunk, 50 * chunk + 50):
        rng = random.Random(seed)
        kernel = _random_loop_kernel(rng)
        memo, reference = _validators(
            kernel,
            lambda rdefs: [
                s
                for sites in rdefs.defs_of.values()
                for s in sites
                if not s.is_entry and rng.random() < 0.6
            ],
        )
        full = _full_merge_twin(memo)
        fixed = {id(cp): rng.choice(states) for cp in memo.plan.checkpoints}
        for decision in (None, lambda cp: fixed[id(cp)]):
            for blk in memo.cfg.blocks:
                for reg in memo.rdefs.defs_of:
                    args = (blk.label, len(blk.instructions), reg, decision)
                    got = memo.value_at(*args)
                    for want in (reference.value_at(*args),
                                 full.value_at(*args)):
                        _same(got, want, (seed, blk.label, reg.name))
            for cp in memo.plan.checkpoints:
                got = memo.validate_checkpoint(cp, decision)
                for want in (reference.validate_checkpoint(cp, decision),
                             full.validate_checkpoint(cp, decision)):
                    _same(got, want, (seed, cp.key))


# -- asymptotics ----------------------------------------------------------------


def _diamonds(b, tid, k: int):
    """Emit ``k`` chained two-way diamonds over a new register ``%x``,
    ``x = p ? x + 1 : x + 2``, and return it: its final value depends on
    2^k paths but only on about 3k definitions."""
    x = b.mov(tid, dst=b.reg("u32", "%x"))
    for i in range(k):
        p = b.setp("lt", tid, i + 1)
        b.bra(f"THEN{i}", pred=p)
        b.add(x, 2, dst=x)
        b.bra(f"JOIN{i}")
        b.label(f"THEN{i}")
        b.add(x, 1, dst=x)
        b.label(f"JOIN{i}")
    return x


def diamond_chain_kernel(k: int):
    """``k`` chained diamonds (see :func:`_diamonds`) whose value reaches
    the final store."""
    b = KernelBuilder("diamonds", params=[("A", "ptr")])
    tid = b.special_u32("%tid.x")
    a = b.ld_param("A")
    addr = b.add(a, b.shl(tid, 2))
    b.ld("global", addr, dtype="u32")  # forces a region cut before the store
    x = _diamonds(b, tid, k)
    b.st("global", addr, x)
    b.ret()
    return b.finish()


def _final_value(validator):
    """Mark the value of ``%x`` at the store that ends the kernel."""
    store_block = validator.cfg.blocks[-1]
    reg = next(r for r in validator.rdefs.defs_of if r.name == "%x")
    return validator.value_at(
        store_block.label, len(store_block.instructions) - 2, reg, None
    )


def test_diamond_chain_evaluations_grow_linearly():
    counts = {}
    for k in range(4, 25, 4):
        memo, _ = _validators(diamond_chain_kernel(k))
        assert _final_value(memo).state is VState.VALID
        counts[k] = memo.evaluated
    steps = {counts[k + 4] - counts[k] for k in range(4, 21, 4)}
    assert len(steps) == 1, counts  # a constant number per diamond
    assert counts[24] < 10 * 24, counts


def test_diamond_chain_reference_grows_exponentially():
    """The memo-less walk visits the chain once per path, the growth the
    linear count above replaces; both walks agree on the value."""
    evaluated = {}
    for k in (4, 8):
        memo, reference = _validators(diamond_chain_kernel(k))
        _same(_final_value(memo), _final_value(reference), k)
        evaluated[k] = reference.evaluated
    assert evaluated[8] > 8 * evaluated[4], evaluated


# -- cost of an INVALID answer ----------------------------------------------------
#
# Every merge of Algorithm 1 stops at its first INVALID input.  Each
# kernel below puts an INVALID input first and a costly one after it:
# the validator's cost does not grow with the costly input, while the
# full merge (the walk before the stop) grows with it.


def _value_at_use(validator, reg):
    """Mark ``reg`` just before the last block's first use of it."""
    blk = validator.cfg.blocks[-1]
    index = next(
        i for i, inst in enumerate(blk.instructions) if reg in inst.reg_uses()
    )
    return validator.value_at(blk.label, index, reg, None)


def ring_kernel(k: int):
    """``k`` loop-carried registers read around a ring, ``r_j = r_(j+1) +
    1`` (the last one reads ``r_0`` of the same iteration), each first
    loaded from ``A[tid]``, which the loop overwrites.  Returns the kernel
    and the sites of the loop's definitions."""
    b = KernelBuilder("ring", params=[("A", "ptr"), ("n", "u32")])
    tid = b.special_u32("%tid.x")
    n = b.ld_param("n")
    addr = b.add(b.ld_param("A"), b.shl(tid, 2))
    regs = [
        b.ld("global", addr, dst=b.reg("u32", f"%r{j}")) for j in range(k)
    ]
    i = b.mov(0, dst=b.reg("u32", "%i"))
    b.label("LOOP")
    for j in range(k):
        b.add(regs[(j + 1) % k], 1, dst=regs[j])
    b.st("global", addr, regs[0])
    b.add(i, 1, dst=i)
    b.bra("LOOP", pred=b.setp("lt", i, n))
    b.label("EXIT")
    b.ret()
    return b.finish(), [DefSite("LOOP", j, regs[j]) for j in range(k)]


def test_ring_phase_one_walks_two_definitions_per_checkpoint():
    """With an LUP checkpoint on every ring definition, each phase-1
    query walks its checkpoint and the first definition of its operand's
    join, the overwritten load, which is INVALID; the ring's last
    register reads ``r_0``'s single definition, one more.  The full merge
    walks the whole ring from every checkpoint: 2k^2 + 3k."""
    for k in range(4, 33, 4):
        kernel, sites = ring_kernel(k)
        memo, _ = _validators(kernel, lambda rdefs: sites)
        full = _full_merge_twin(memo)
        for cp in memo.plan.checkpoints:
            _same(memo.validate_checkpoint(cp, None),
                  full.validate_checkpoint(cp, None), (k, cp.key))
        assert memo.evaluated == 2 * k + 1, (k, memo.evaluated)
        assert full.evaluated == 2 * k * k + 3 * k, (k, full.evaluated)


def loop_sum_kernel(k: int):
    """``z = y + x``: ``y`` is carried around a loop without a
    checkpoint (a cyclic dependence), ``x`` ends a k-diamond chain."""
    b = KernelBuilder("loop_sum", params=[("A", "ptr"), ("n", "u32")])
    tid = b.special_u32("%tid.x")
    n = b.ld_param("n")
    addr = b.add(b.ld_param("A"), b.shl(tid, 2))
    x = _diamonds(b, tid, k)
    y = b.mov(0, dst=b.reg("u32", "%y"))
    b.label("LOOP")
    b.add(y, 1, dst=y)
    b.bra("LOOP", pred=b.setp("lt", y, n))
    b.label("EXIT")
    z = b.add(y, x, dst=b.reg("u32", "%z"))
    b.st("global", addr, z)
    b.ret()
    return b.finish(), z


def test_loop_carried_first_operand_skips_the_diamond_chain():
    """``z``, ``y``'s loop definition and ``y``'s initial value: the loop
    definition closes the cycle, so neither the loop's predicate nor
    ``x``'s chain is walked (the full merge walks 5 + 3k)."""
    for k in range(2, 17, 2):
        kernel, z = loop_sum_kernel(k)
        memo, _ = _validators(kernel)
        full = _full_merge_twin(memo)
        got = _value_at_use(memo, z)
        assert got.state is VState.INVALID
        _same(got, _value_at_use(full, z), k)
        assert memo.evaluated == 3, (k, memo.evaluated)
        assert full.evaluated == 5 + 3 * k, (k, full.evaluated)


def overwritten_load_kernel(k: int):
    """A load from ``A[x]``, ``x`` the end of a k-diamond chain, followed
    by a store to ``A[tid]``, which may alias it."""
    b = KernelBuilder("overwritten_load", params=[("A", "ptr")])
    tid = b.special_u32("%tid.x")
    a = b.ld_param("A")
    x = _diamonds(b, tid, k)
    v = b.ld("global", b.add(a, b.shl(x, 2)), dst=b.reg("u32", "%v"))
    b.st("global", b.add(a, b.shl(tid, 2)), v)
    b.ret()
    return b.finish(), v


def test_overwritten_load_does_not_walk_its_base():
    """A store reachable from the load may overwrite what it read, so the
    load is INVALID before its base address is walked."""
    for k in range(2, 17, 2):
        kernel, v = overwritten_load_kernel(k)
        memo, _ = _validators(kernel)
        full = _full_merge_twin(memo)
        got = _value_at_use(memo, v)
        assert got.state is VState.INVALID
        _same(got, _value_at_use(full, v), k)
        assert memo.evaluated == 1, (k, memo.evaluated)
        assert full.evaluated > 3 * k, (k, full.evaluated)


_NQU_EVALUATED = """
from repro.bench import get_benchmark
from repro.core.pipeline import PennyCompiler
from repro.core.schemes import SCHEME_PENNY, scheme_config
from repro.obs import Tracer

bench = get_benchmark("NQU")
tracer = Tracer(record_spans=False)
with tracer:
    PennyCompiler(scheme_config(SCHEME_PENNY)).compile(
        bench.fresh_kernel(), bench.workload().launch_config
    )
print(tracer.counters.counts["compile.pddg_evaluated"])
"""


@pytest.mark.parametrize("hash_seed", ["0", "7"])
def test_nqu_compile_evaluates_few_definitions(hash_seed):
    """NQU's phase-1 queries end INVALID early: a Penny compile walks 78
    definitions (10,268 with the full merge).  One child interpreter per
    hash seed, which orders the compiler's sets."""
    src = str(Path(__file__).resolve().parents[2] / "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    env = {**os.environ, "PYTHONHASHSEED": hash_seed, "PYTHONPATH": path}
    child = subprocess.run(
        [sys.executable, "-c", _NQU_EVALUATED],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    assert int(child.stdout) <= 100
