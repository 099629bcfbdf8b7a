"""Property tests over random kernels with divergent branches inside
loops — the hardest shape: multi-LUP live-ins (Figure 2), predicate
dependences in the PDDG, select-linearized recovery slices, and storage
alternation, all under fault injection."""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.pipeline import LaunchConfig, PennyCompiler, PennyConfig
from repro.gpusim import (
    Executor,
    FaultCampaign,
    FaultOutcome,
    Launch,
    MemoryImage,
)
from repro.ir import KernelBuilder

OPS = ("add", "sub", "mul", "xor")


@st.composite
def branchy_kernels(draw):
    """Grid-stride loop whose body diverges on a data-dependent predicate;
    both arms update a carried register differently (two LUPs per boundary),
    then an in-place store forces a region cut."""
    n_pre = draw(st.integers(1, 4))
    threshold = draw(st.integers(1, 64))

    b = KernelBuilder("branchy", params=[("A", "ptr"), ("n", "u32")])
    tid = b.special_u32("%tid.x")
    a = b.ld_param("A")
    n = b.ld_param("n")
    acc = b.mov(draw(st.integers(0, 9)), dst=b.reg("u32", "%acc"))
    i = b.mov(tid, dst=b.reg("u32", "%i"))
    limit = b.mul(n, 3)
    b.label("HEAD")
    p_done = b.setp("ge", i, limit)
    b.bra("EXIT", pred=p_done)
    idx = b.rem(i, n)
    off = b.shl(idx, 2)
    addr = b.add(a, off)
    v = b.ld("global", addr, dtype="u32")
    cur = v
    for _ in range(n_pre):
        op = draw(st.sampled_from(OPS))
        operand = draw(st.integers(1, 99))
        cur = getattr(b, op)(cur, operand)
    # divergent arms writing the same register differently
    low = b.and_(cur, 63)
    p_arm = b.setp("lt", low, threshold)
    x = b.reg("u32", "%x")
    b.bra("THEN", pred=p_arm)
    b.xor(cur, 0x5A5A, dst=x)
    b.bra("JOIN")
    b.label("THEN")
    b.add(cur, acc, dst=x)
    b.label("JOIN")
    b.add(acc, x, dst=acc)
    b.st("global", addr, x)  # in-place update: boundary per iteration
    b.add(i, n, dst=i)
    b.bra("HEAD")
    b.label("EXIT")
    out_off = b.shl(tid, 2)
    b.st("global", b.add(a, out_off), acc, offset=4096)
    b.ret()
    return b.finish()


def _run(kernel, threads=8):
    mem = MemoryImage()
    addr = mem.alloc_global(4096)
    mem.upload(addr, list(range(3, 3 + 64)))
    mem.set_param("A", addr)
    mem.set_param("n", threads)
    Executor(kernel, rf_code_factory=lambda: None).run(
        Launch(grid=1, block=threads), mem
    )
    return mem.download(addr, 4096)


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(kernel=branchy_kernels())
def test_penny_preserves_branchy_kernels(kernel):
    golden = _run(kernel)
    result = PennyCompiler(PennyConfig(overwrite="sa")).compile(
        kernel, LaunchConfig(threads_per_block=8, num_blocks=1)
    )
    assert _run(result.kernel) == golden


@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(kernel=branchy_kernels())
def test_branchy_kernels_verify_clean(kernel):
    from repro.core.verify import verify_compiled

    result = PennyCompiler(PennyConfig(overwrite="sa")).compile(
        kernel, LaunchConfig(threads_per_block=8, num_blocks=1)
    )
    assert verify_compiled(result.kernel) == []


@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(kernel=branchy_kernels(), seed=st.integers(0, 2**16))
def test_branchy_kernels_recover(kernel, seed):
    result = PennyCompiler(PennyConfig(overwrite="sa")).compile(
        kernel, LaunchConfig(threads_per_block=8, num_blocks=1)
    )

    def make_memory():
        mem = MemoryImage()
        addr = mem.alloc_global(4096)
        mem.upload(addr, list(range(3, 3 + 64)))
        mem.set_param("A", addr)
        mem.set_param("n", 8)
        return mem

    campaign = FaultCampaign(
        result.kernel, Launch(grid=1, block=8), make_memory, (0, 4096)
    )
    report = campaign.run_random(4, seed=seed, bits_per_fault=1)
    for r in report.records:
        assert FaultOutcome(r.outcome) in (
            FaultOutcome.MASKED,
            FaultOutcome.RECOVERED,
            FaultOutcome.NOT_INJECTED,
        ), r.outcome
