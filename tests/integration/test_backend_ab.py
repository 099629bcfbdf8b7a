"""Differential A/B suite: the scalar interpreter vs the vectorized engine.

The vectorized engine (:mod:`repro.gpusim.vexec`) claims bit-for-bit
equivalence with the scalar interpreter — same :class:`ExecutionResult`,
same memory contents, same fault-hook firing order per thread, same
recovery behavior, same exception on uncorrectable faults.  These tests
enforce the claim on every benchmark kernel of the suite, fault-free and
under fault injection.

One deliberate carve-out, documented in INTERNALS: when a *broadcast*
rate plan independently dooms several threads at once, the two engines
may surface a different doomed thread's exception first (the scalar
engine's own abort choice is equally schedule-dependent).  The DUE
*class* is compared in that case, not the message.
"""

import pytest

from repro.bench import ALL_BENCHMARKS, get_benchmark
from repro.core.pipeline import PennyCompiler
from repro.core.schemes import SCHEME_PENNY, scheme_config
from repro.gpusim import make_executor
from repro.gpusim.faults import (
    CheckpointFaultPlan,
    FaultPlan,
    RateFaultPlan,
    RecoveryFaultPlan,
    classify_due,
)
from repro.ir.instructions import Bar, Bra, Ret

ABBRS = [b.abbr for b in ALL_BENCHMARKS]

#: subset with both loops and divergence, used for the heavier plans
FAULTY_ABBRS = ("STC", "BFS", "NW", "SGEMM", "BO", "TPACF")


def _run(kernel, wl, backend, plan=None, **kwargs):
    """One execution → a comparable outcome triple."""
    mem = wl.make_memory()
    ex = make_executor(kernel, backend=backend, fault_plan=plan, **kwargs)
    try:
        result = ex.run(wl.launch, mem)
    except Exception as exc:  # DUE: compare type + message + cause
        cause = getattr(exc, "cause", None)
        return ("exc", type(exc).__name__, str(exc), cause), None
    return ("ok", result), mem.snapshot_global()


def _assert_identical(kernel, wl, plan_factory=None, **kwargs):
    plan_s = plan_factory() if plan_factory else None
    plan_v = plan_factory() if plan_factory else None
    out_s, mem_s = _run(kernel, wl, "scalar", plan_s, **kwargs)
    out_v, mem_v = _run(kernel, wl, "vector", plan_v, **kwargs)
    assert out_s == out_v
    assert mem_s == mem_v
    if plan_s is not None:
        for attr in ("injections", "hit_register", "fired"):
            assert getattr(plan_s, attr, None) == getattr(
                plan_v, attr, None
            ), attr


@pytest.mark.parametrize("abbr", ABBRS)
def test_zero_fault_raw(abbr):
    """Unprotected kernel, no parity: pure interpreter equivalence."""
    bench = get_benchmark(abbr)
    wl = bench.workload()
    _assert_identical(
        bench.fresh_kernel(), wl, rf_code_factory=lambda: None
    )


@pytest.mark.parametrize("abbr", ABBRS)
def test_zero_fault_penny(abbr):
    """Penny-protected kernel: checkpoints, slices, parity RF."""
    bench = get_benchmark(abbr)
    wl = bench.workload()
    compiled = PennyCompiler(scheme_config(SCHEME_PENNY)).compile(
        bench.fresh_kernel(), wl.launch_config
    )
    _assert_identical(compiled.kernel, wl)


@pytest.mark.parametrize("abbr", ABBRS)
def test_single_fault_recovery(abbr):
    """A targeted single-bit flip on every bench kernel: detection,
    restore hooks, and region re-execution must match exactly."""
    bench = get_benchmark(abbr)
    wl = bench.workload()
    compiled = PennyCompiler(scheme_config(SCHEME_PENNY)).compile(
        bench.fresh_kernel(), wl.launch_config
    )
    tid = min(3, wl.launch.block - 1)
    _assert_identical(
        compiled.kernel,
        wl,
        lambda: FaultPlan(
            ctaid=0, tid=tid, after_instructions=25, bits=(13,)
        ),
    )


@pytest.mark.parametrize("abbr", FAULTY_ABBRS)
def test_double_bit_sdc_path(abbr):
    """Two flipped bits defeat parity: both engines must produce the
    same silent corruption or the same DUE."""
    bench = get_benchmark(abbr)
    wl = bench.workload()
    compiled = PennyCompiler(scheme_config(SCHEME_PENNY)).compile(
        bench.fresh_kernel(), wl.launch_config
    )
    _assert_identical(
        compiled.kernel,
        wl,
        lambda: FaultPlan(
            ctaid=0, tid=1, after_instructions=40, bits=(5, 13)
        ),
    )


@pytest.mark.parametrize("abbr", FAULTY_ABBRS[:3])
def test_checkpoint_and_recovery_strikes(abbr):
    """Faults on the checkpoint storage and during recovery itself."""
    bench = get_benchmark(abbr)
    wl = bench.workload()
    compiled = PennyCompiler(scheme_config(SCHEME_PENNY)).compile(
        bench.fresh_kernel(), wl.launch_config
    )
    tid = min(3, wl.launch.block - 1)
    _assert_identical(
        compiled.kernel,
        wl,
        lambda: RecoveryFaultPlan(
            FaultPlan(
                ctaid=0, tid=tid, after_instructions=30, bits=(7,)
            ),
            bits=(3,),
        ),
    )
    _assert_identical(
        compiled.kernel,
        wl,
        lambda: CheckpointFaultPlan(
            ctaid=0, tid=tid, after_instructions=20, num_bits=1,
            rng_seed=7,
        ),
    )


@pytest.mark.parametrize("abbr", ("STC", "NW"))
def test_rate_plan_due_class(abbr):
    """Broadcast rate plans: per-thread injection streams are seeded
    identically, so completing runs match exactly; when several threads
    are independently doomed the engines may abort on different ones, so
    only the DUE class is compared for failing runs."""
    bench = get_benchmark(abbr)
    wl = bench.workload()
    compiled = PennyCompiler(scheme_config(SCHEME_PENNY)).compile(
        bench.fresh_kernel(), wl.launch_config
    )

    def run(backend):
        plan = RateFaultPlan(interval=400, seed=11)
        mem = wl.make_memory()
        ex = make_executor(
            compiled.kernel,
            backend=backend,
            fault_plan=plan,
            max_recoveries_per_thread=100_000,
            max_instructions_per_thread=20_000_000,
        )
        try:
            result = ex.run(wl.launch, mem)
        except Exception as exc:
            return ("due", classify_due(exc).value), plan
        return ("ok", result, mem.snapshot_global()), plan

    out_s, plan_s = run("scalar")
    out_v, plan_v = run("vector")
    if out_s[0] == "ok" and out_v[0] == "ok":
        assert out_s == out_v
        assert plan_s.injections == plan_v.injections
    else:
        assert out_s[0] == out_v[0] == "due"
        assert out_s[1] == out_v[1]


class _PcRecorder:
    """A plan that only records, for each target lane, the ``(executed,
    label, index, done)`` a hook sees after each of its instructions."""

    def __init__(self, targets):
        self.traces = {key: [] for key in targets}

    def hook_threads(self):
        return list(self.traces)

    def after_instruction(self, t, env=None):
        trace = self.traces.get((t.ctaid, t.tid))
        if trace is not None:
            trace.append((t.executed, t.label, t.index, t.done))


class _HookCounter:
    """A plan that counts its hook calls and targets one thread."""

    def __init__(self, target):
        self.target = target
        self.calls = 0

    def hook_threads(self):
        return [self.target]

    def after_instruction(self, t, env=None):
        self.calls += 1


def test_hooks_fire_only_for_target_threads():
    """Both engines call a targeted plan's hook only for the threads
    ``hook_threads()`` names: once per instruction of the target."""
    bench = get_benchmark("HS")
    wl = bench.workload()
    kernel = PennyCompiler(scheme_config(SCHEME_PENNY)).compile(
        bench.fresh_kernel(), wl.launch_config
    ).kernel
    target = (wl.launch.grid - 1, 5)
    calls = {}
    for backend in ("scalar", "vector"):
        plan = _HookCounter(target)
        result = make_executor(kernel, backend=backend, fault_plan=plan).run(
            wl.launch, wl.make_memory()
        )
        calls[backend] = plan.calls
    assert calls["scalar"] == calls["vector"]
    assert calls["vector"] == result.thread_instructions[target] > 0


def _executed(kernel, trace):
    """The instruction each hook call of ``trace`` fired for: the one at
    the pc the previous call saw (the entry for the first), an index
    past a block's end being the next block's entry."""
    labels = [blk.label for blk in kernel.blocks]
    blocks = {blk.label: blk.instructions for blk in kernel.blocks}
    label, index = labels[0], 0
    for _, next_label, next_index, _ in trace:
        while index == len(blocks[label]):
            label, index = labels[labels.index(label) + 1], 0
        yield blocks[label][index]
        label, index = next_label, next_index


@pytest.mark.parametrize("abbr", ("HS", "GAU", "STC"))
def test_hooks_see_the_same_next_pc(abbr):
    """Each lane's post-instruction pc, as a fault hook reads it, is the
    same under both engines: across taken guarded branches, barriers and
    the final ``ret``."""
    bench = get_benchmark(abbr)
    wl = bench.workload()
    kernel = PennyCompiler(scheme_config(SCHEME_PENNY)).compile(
        bench.fresh_kernel(), wl.launch_config
    ).kernel
    last = wl.launch.block - 1
    targets = [(0, 0), (0, 5), (wl.launch.grid - 1, last)]
    traces = {}
    for backend in ("scalar", "vector"):
        plan = _PcRecorder(targets)
        make_executor(kernel, backend=backend, fault_plan=plan).run(
            wl.launch, wl.make_memory()
        )
        traces[backend] = plan.traces
    assert traces["scalar"] == traces["vector"]

    insts = [i for blk in kernel.blocks for i in blk.instructions]
    for trace in traces["vector"].values():
        seen = list(zip(_executed(kernel, trace), trace))
        assert [n for _, (n, _, _, _) in seen] == list(
            range(1, len(trace) + 1)
        )
        inst, (_, _, _, done) = seen[-1]
        assert isinstance(inst, Ret) and done
        if any(isinstance(i, Bar) for i in insts):
            assert any(isinstance(i, Bar) for i, _ in seen)
        if any(isinstance(i, Bra) and i.guard is not None for i in insts):
            assert any(
                isinstance(i, Bra)
                and i.guard is not None
                and (label, index) == (i.target, 0)
                for i, (_, label, index, _) in seen
            )
