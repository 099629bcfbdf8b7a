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
from repro.gpusim import Launch, MemoryImage, make_executor
from repro.gpusim.faults import (
    CheckpointFaultPlan,
    FaultPlan,
    RateFaultPlan,
    RecoveryFaultPlan,
    classify_due,
)
from repro.ir import KernelBuilder
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


# -- hand-built 32-lane kernels: memory and watchdog edge cases --------------


def _hand_ab(kernel, prepare, grid=1, plan_factory=None, **kwargs):
    """Run ``kernel`` on both engines over ``grid`` CTAs of 32 lanes,
    ``prepare(mem)`` setting up each engine's memory image and
    ``plan_factory()`` (if given) each engine's fault plan, and return
    the vector engine's outcome.  A run that completes must give equal
    results and global snapshots; a run that raises, the same exception
    type and text.  Memory after a raise is not compared: the scalar
    engine runs earlier threads further before the bad lane."""
    outcomes = []
    for backend in ("scalar", "vector"):
        mem = MemoryImage()
        prepare(mem)
        plan = plan_factory() if plan_factory else None
        ex = make_executor(kernel, backend=backend, fault_plan=plan, **kwargs)
        try:
            result = ex.run(Launch(grid=grid, block=32), mem)
        except Exception as exc:
            outcomes.append(("exc", type(exc).__name__, str(exc)))
        else:
            outcomes.append(("ok", result, mem.snapshot_global()))
    assert outcomes[0] == outcomes[1]
    return outcomes[1]


def _lane_addr(b, base, tid):
    return b.add(base, b.shl(tid, 2))


def _alloc_param(mem, name, words, values=()):
    addr = mem.alloc_global(words)
    if values:
        mem.upload(addr, values)
    mem.set_param(name, addr)
    return addr


def test_every_lane_stores_to_one_global_word():
    """All 32 lanes store their tid to one word: the last lane wins."""
    b = KernelBuilder("last_writer", params=[("A", "ptr")])
    tid = b.special_u32("%tid.x")
    b.st("global", b.ld_param("A"), tid)
    b.ret()
    addrs = []
    out = _hand_ab(
        b.finish(), lambda mem: addrs.append(_alloc_param(mem, "A", 1))
    )
    assert out[0] == "ok"
    assert out[2][addrs[-1] >> 2] == 31


def test_every_lane_stores_to_one_shared_word_then_reads_it_back():
    """All lanes store to one shared word; after the barrier every lane
    copies the word to its own global slot (the last lane's tid)."""
    b = KernelBuilder("shared_writer", params=[("OUT", "ptr")],
                      shared=[("S", 4)])
    tid = b.special_u32("%tid.x")
    s = b.addr_of("S")
    b.st("shared", s, tid)
    b.bar()
    v = b.ld("shared", s)
    b.st("global", _lane_addr(b, b.ld_param("OUT"), tid), v)
    b.ret()
    addrs = []
    out = _hand_ab(
        b.finish(), lambda mem: addrs.append(_alloc_param(mem, "OUT", 32))
    )
    assert out[0] == "ok"
    base = addrs[-1] >> 2
    assert [out[2][base + i] for i in range(32)] == [31] * 32
    assert out[1].shared_accesses == 64


def test_every_lane_stores_an_immediate():
    b = KernelBuilder("imm_store", params=[("OUT", "ptr")])
    tid = b.special_u32("%tid.x")
    b.st("global", _lane_addr(b, b.ld_param("OUT"), tid), 0x1234)
    b.ret()
    addrs = []
    out = _hand_ab(
        b.finish(), lambda mem: addrs.append(_alloc_param(mem, "OUT", 32))
    )
    assert out[0] == "ok"
    base = addrs[-1] >> 2
    assert [out[2][base + i] for i in range(32)] == [0x1234] * 32


@pytest.mark.parametrize("bad", ("both", "unaligned", "out_of_bounds"))
@pytest.mark.parametrize("op", ("ld", "st"))
@pytest.mark.parametrize("space", ("global", "shared", "local"))
def test_first_bad_lane_raises_the_scalar_error(space, op, bad):
    """Lane 5's address is unaligned and lane 9's out of bounds (or only
    one of them): both engines report the first bad lane's access."""
    shared = [("S", 64)] if space == "shared" else ()
    b = KernelBuilder(f"bad_{space}_{op}", params=[("A", "ptr")],
                      shared=shared)
    tid = b.special_u32("%tid.x")
    if space == "global":
        base = b.ld_param("A")
    elif space == "shared":
        base = b.addr_of("S")
    else:
        base = b.mov(0)
    addr = _lane_addr(b, base, tid)
    if bad != "out_of_bounds":
        addr = b.add(addr, b.selp(2, 0, b.setp("eq", tid, 5)))
    if bad != "unaligned":
        addr = b.add(addr, b.selp(1 << 24, 0, b.setp("eq", tid, 9)))
    if op == "st":
        b.st(space, addr, tid)
    else:
        b.ld(space, addr)
    b.ret()
    out = _hand_ab(b.finish(), lambda mem: _alloc_param(mem, "A", 32))
    lane = 9 if bad == "out_of_bounds" else 5
    name = {"global": "global", "shared": "shared[0]",
            "local": f"local[0,{lane}]"}[space]
    assert out[0] == "exc" and out[1] == "MemoryError32"
    if bad == "out_of_bounds":
        assert out[2].endswith(f" out of bounds for {name}")
    else:
        assert out[2].startswith("unaligned 4-byte access at ")
        assert out[2].endswith(f" in {name}")


@pytest.mark.parametrize("scrub", (False, True))
def test_poisoned_global_word(scrub):
    """Lanes 3 and up load a poisoned word.  Without a store first that
    is the scalar ECC error; a store by every lane scrubs the poison and
    the run completes."""
    b = KernelBuilder("poison", params=[("A", "ptr"), ("OUT", "ptr")])
    tid = b.special_u32("%tid.x")
    a = b.ld_param("A")
    if scrub:
        b.st("global", a, 77)
    v = b.ld("global", b.add(a, b.selp(4, 0, b.setp("lt", tid, 3))))
    b.st("global", _lane_addr(b, b.ld_param("OUT"), tid), v)
    b.ret()

    def prepare(mem):
        a = _alloc_param(mem, "A", 2, [5, 6])
        _alloc_param(mem, "OUT", 32)
        mem.global_mem.poison(a)

    out = _hand_ab(b.finish(), prepare)
    if scrub:
        assert out[0] == "ok"
    else:
        assert out[0] == "exc" and out[1] == "EccUncorrectableError"
        assert out[2].startswith("ECC uncorrectable error at ")


@pytest.mark.parametrize("budget", (50, 1000))
@pytest.mark.parametrize("spin_first", (False, True))
def test_watchdog_fires_at_the_same_thread(budget, spin_first):
    """Lanes below 8 spin forever while the others run a 5-trip loop and
    retire: both engines stop thread (0,0) once it has run exactly its
    budget of instructions.  The vector engine goes on with the lanes
    that take a divergent branch, so the branch's sense decides whether
    the spinning lanes run before or after the loop lanes retire."""
    b = KernelBuilder("spin")
    tid = b.special_u32("%tid.x")
    i = b.mov(0, dst=b.reg("u32", "%i"))

    def spin():
        b.label("SPIN")
        b.bra("SPIN")

    if spin_first:
        b.bra("SPIN", pred=b.setp("lt", tid, 8))
    else:
        b.bra("LOOP", pred=b.setp("ge", tid, 8))
        spin()
    b.label("LOOP")
    b.add(i, 1, dst=i)
    b.bra("LOOP", pred=b.setp("lt", i, 5))
    b.ret()
    if spin_first:
        spin()
    counters = []

    def counter():
        counters.append(_HookCounter((0, 0)))
        return counters[-1]

    out = _hand_ab(
        b.finish(), lambda mem: None, grid=2, plan_factory=counter,
        max_instructions_per_thread=budget,
    )
    assert out == (
        "exc",
        "WatchdogTimeout",
        f"thread (0,0) exceeded instruction budget of {budget}",
    )
    assert [c.calls for c in counters] == [budget, budget]
