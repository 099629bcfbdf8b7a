"""Exactness and asymptotics of the PDDG validator's per-query memo.

The reference is a validator whose memo never stores: the plain walk
that evaluates every dependence node once per path.  Every query the
memoized validator answers must equal the reference's answer, state and
slice expression alike."""

import random

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
from repro.core.pddg import PddgValidator, VState
from repro.core.pipeline import LaunchConfig, PennyCompiler, PennyConfig
from repro.core.schemes import SCHEME_BOLT_GLOBAL, SCHEME_PENNY, scheme_config
from repro.fuzz.generator import generate_case
from repro.ir import KernelBuilder
from tests.property.test_loop_kernel_props import loop_kernels


class _NeverStores(dict):
    def __setitem__(self, key, value):
        pass


class _Unmemoized(PddgValidator):
    """The reference walk: same code, no memo entry is ever kept."""

    def __init__(self, *args):
        super().__init__(*args)
        self._memo = _NeverStores()


def _same(got, want, query):
    assert (got.state, got.expr) == (want.state, want.expr), query


def _all_committed(cp):
    return PruneState.COMMITTED


class _Checked(PddgValidator):
    """Checks every checkpoint under phase 1 (no decisions) and under a
    fixed all-committed decision when built, before pruning and codegen
    change the plan and the CFG.  Then answers every query through the
    memo and checks it against the reference at the moment it is asked, so
    the decisions each query sees (phase 2, the basic search, the recovery
    table) are the real ones."""

    def __init__(self, *args):
        super().__init__(*args)
        self.reference = _Unmemoized(*args)
        for cp in self.plan.checkpoints:
            self.validate_checkpoint(cp, None)
            self.validate_checkpoint(cp, _all_committed)

    def validate_checkpoint(self, cv, decision=None):
        got = super().validate_checkpoint(cv, decision)
        _same(got, self.reference.validate_checkpoint(cv, decision), cv.key)
        return got

    def value_at(self, label, index, reg, decision):
        got = super().value_at(label, index, reg, decision)
        want = self.reference.value_at(label, index, reg, decision)
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
    """A memoized validator and the reference for ``kernel``, both with an
    LUP checkpoint at each of ``sites(rdefs)``."""
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
    under phase 1 and under random fixed decisions."""
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
        fixed = {id(cp): rng.choice(states) for cp in memo.plan.checkpoints}
        for decision in (None, lambda cp: fixed[id(cp)]):
            for blk in memo.cfg.blocks:
                for reg in memo.rdefs.defs_of:
                    args = (blk.label, len(blk.instructions), reg, decision)
                    _same(memo.value_at(*args), reference.value_at(*args),
                          (seed, blk.label, reg.name))
            for cp in memo.plan.checkpoints:
                _same(memo.validate_checkpoint(cp, decision),
                      reference.validate_checkpoint(cp, decision),
                      (seed, cp.key))


# -- asymptotics ----------------------------------------------------------------


def diamond_chain_kernel(k: int):
    """``k`` chained two-way diamonds over one register,
    ``x = p ? x + 1 : x + 2``: the value reaching the final store depends
    on 2^k paths but only on about 3k definitions."""
    b = KernelBuilder("diamonds", params=[("A", "ptr")])
    tid = b.special_u32("%tid.x")
    a = b.ld_param("A")
    addr = b.add(a, b.shl(tid, 2))
    b.ld("global", addr, dtype="u32")  # forces a region cut before the store
    x = b.mov(tid, dst=b.reg("u32", "%x"))
    for i in range(k):
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
