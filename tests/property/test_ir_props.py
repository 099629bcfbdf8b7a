"""Property tests over randomly generated straight-line kernels: the
printer/parser round-trip, executor determinism, and Penny's semantic
preservation on arbitrary ALU dataflow."""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.pipeline import LaunchConfig, PennyCompiler, PennyConfig
from repro.gpusim import Executor, Launch, MemoryImage
from repro.ir import KernelBuilder, parse_kernel, print_kernel

#: integer ops safe for arbitrary operands
OPS = ("add", "sub", "mul", "and", "or", "xor", "min", "max")


@st.composite
def straightline_kernels(draw):
    """A random dataflow DAG of integer ALU ops over tid and constants,
    storing 2 results; an extra load/store pair forces a region cut."""
    n_ops = draw(st.integers(3, 12))
    b = KernelBuilder("rand", params=[("A", "ptr")])
    tid = b.special_u32("%tid.x")
    a = b.ld_param("A")
    values = [tid, b.mov(draw(st.integers(0, 255)))]
    for _ in range(n_ops):
        op = draw(st.sampled_from(OPS))
        x = values[draw(st.integers(0, len(values) - 1))]
        y_choice = draw(st.integers(0, len(values)))
        y = (
            values[y_choice]
            if y_choice < len(values)
            else draw(st.integers(0, 1023))
        )
        values.append(getattr(b, {"and": "and_", "or": "or_",
                                  "min": "min_", "max": "max_"}.get(op, op))(x, y))
    off = b.shl(tid, 2)
    addr = b.add(a, off)
    v = b.ld("global", addr, dtype="u32")  # forces an anti-dep with the sts
    out1 = values[-1]
    out2 = values[draw(st.integers(0, len(values) - 1))]
    b.st("global", addr, out1)
    b.st("global", addr, out2, offset=512)
    b.ret()
    return b.finish()


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(kernel=straightline_kernels())
def test_print_parse_roundtrip(kernel):
    text = print_kernel(kernel)
    assert print_kernel(parse_kernel(text)) == text


def _run(kernel):
    mem = MemoryImage()
    addr = mem.alloc_global(256)
    mem.upload(addr, list(range(1, 257)))
    mem.set_param("A", addr)
    Executor(kernel, rf_code_factory=lambda: None).run(
        Launch(grid=1, block=16), mem
    )
    return mem.download(addr, 256)


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(kernel=straightline_kernels())
def test_executor_deterministic(kernel):
    assert _run(kernel) == _run(parse_kernel(print_kernel(kernel)))


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(kernel=straightline_kernels())
def test_penny_preserves_random_dataflow(kernel):
    golden = _run(kernel)
    result = PennyCompiler(PennyConfig(overwrite="sa")).compile(
        kernel, LaunchConfig(threads_per_block=16, num_blocks=1)
    )
    assert _run(result.kernel) == golden


@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(kernel=straightline_kernels(), seed=st.integers(0, 2**16))
def test_penny_recovers_random_dataflow(kernel, seed):
    """Random kernel + random single-bit fault -> golden output."""
    from repro.gpusim import FaultCampaign, FaultOutcome

    result = PennyCompiler(PennyConfig(overwrite="sa")).compile(
        kernel, LaunchConfig(threads_per_block=16, num_blocks=1)
    )

    def make_memory():
        mem = MemoryImage()
        addr = mem.alloc_global(256)
        mem.upload(addr, list(range(1, 257)))
        mem.set_param("A", addr)
        return mem

    campaign = FaultCampaign(
        result.kernel, Launch(grid=1, block=16), make_memory, (0, 256)
    )
    report = campaign.run_random(4, seed=seed, bits_per_fault=1)
    for r in report.records:
        assert FaultOutcome(r.outcome) in (
            FaultOutcome.MASKED,
            FaultOutcome.RECOVERED,
            FaultOutcome.NOT_INJECTED,
        ), r.outcome
