"""Property tests over randomly generated *loop* kernels — the hard case:
loop-carried registers, per-iteration regions, storage alternation, and
recovery all at once."""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.pipeline import LaunchConfig, PennyCompiler, PennyConfig
from repro.gpusim import Executor, FaultCampaign, FaultOutcome, Launch, MemoryImage
from repro.ir import KernelBuilder

OPS = ("add", "sub", "mul", "xor", "min", "max")
_METHOD = {"min": "min_", "max": "max_"}


@st.composite
def loop_kernels(draw):
    """A grid-stride loop with a random number of carried accumulators
    updated by random ALU ops, an in-place memory update (anti-dependence),
    and a final store of every accumulator."""
    n_carried = draw(st.integers(1, 4))
    n_body = draw(st.integers(2, 8))
    trip = draw(st.integers(2, 6))

    b = KernelBuilder("randloop", params=[("A", "ptr"), ("n", "u32")])
    tid = b.special_u32("%tid.x")
    a = b.ld_param("A")
    n = b.ld_param("n")
    carried = [
        b.mov(draw(st.integers(0, 99)), dst=b.reg("u32", f"%acc{i}"))
        for i in range(n_carried)
    ]
    i = b.mov(tid, dst=b.reg("u32", "%i"))
    limit = b.mul(n, trip)
    b.label("HEAD")
    p = b.setp("ge", i, limit)
    b.bra("EXIT", pred=p)
    idx = b.rem(i, n)
    off = b.shl(idx, 2)
    addr = b.add(a, off)
    v = b.ld("global", addr, dtype="u32")
    cur = v
    for _ in range(n_body):
        op = draw(st.sampled_from(OPS))
        operand_pool = carried + [cur, i]
        x = operand_pool[draw(st.integers(0, len(operand_pool) - 1))]
        cur = getattr(b, _METHOD.get(op, op))(cur, x)
    target = draw(st.integers(0, n_carried - 1))
    op = draw(st.sampled_from(OPS))
    b.emit_acc = getattr(b, _METHOD.get(op, op))(
        carried[target], cur, dst=carried[target]
    )
    b.st("global", addr, cur)  # in-place update: anti-dependence
    b.add(i, n, dst=i)
    b.bra("HEAD")
    b.label("EXIT")
    out_off = b.shl(tid, 2)
    out_addr = b.add(a, out_off)
    for k, acc in enumerate(carried):
        b.st("global", out_addr, acc, offset=4096 + 4 * k * 64)
    b.ret()
    return b.finish()


def _run(kernel, threads=8):
    mem = MemoryImage()
    addr = mem.alloc_global(4096)
    mem.upload(addr, list(range(1, 65)))
    mem.set_param("A", addr)
    mem.set_param("n", threads)
    Executor(kernel, rf_code_factory=lambda: None).run(
        Launch(grid=1, block=threads), mem
    )
    return mem.download(addr, 4096)


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(kernel=loop_kernels())
def test_penny_preserves_loop_kernels(kernel):
    golden = _run(kernel)
    result = PennyCompiler(PennyConfig(overwrite="sa")).compile(
        kernel, LaunchConfig(threads_per_block=8, num_blocks=1)
    )
    assert _run(result.kernel) == golden


@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(kernel=loop_kernels())
def test_rr_mode_also_preserves(kernel):
    golden = _run(kernel)
    result = PennyCompiler(PennyConfig(overwrite="rr")).compile(
        kernel, LaunchConfig(threads_per_block=8, num_blocks=1)
    )
    assert _run(result.kernel) == golden


@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(kernel=loop_kernels(), seed=st.integers(0, 2**16))
def test_loop_kernels_recover_from_faults(kernel, seed):
    """Single-bit faults at random points of random loop kernels: the
    recovery invariant must hold through storage alternation."""
    result = PennyCompiler(PennyConfig(overwrite="sa")).compile(
        kernel, LaunchConfig(threads_per_block=8, num_blocks=1)
    )

    def make_memory():
        mem = MemoryImage()
        addr = mem.alloc_global(4096)
        mem.upload(addr, list(range(1, 65)))
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
