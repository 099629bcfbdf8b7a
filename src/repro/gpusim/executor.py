"""Functional SIMT interpreter for the PTX-subset IR.

Threads execute independently and synchronize at barriers (a cooperative
round-robin scheduler advances every thread of a block to the barrier
before releasing it).  Register reads go through the parity-tracked
register file; a detection hands control to the recovery runtime
(:mod:`repro.gpusim.recovery`) when the kernel carries a recovery table.

The interpreter also produces the dynamic instruction statistics the
timing and energy models consume: per-warp issue counts by instruction
class, memory traffic by space, and register-file access counts.

Both engines (this one and :mod:`repro.gpusim.vexec`) run a launch
through one driver, :func:`run_launch`, and differ only in how they run
one CTA (``_run_block``).  CTAs run one at a time in ``ctaid`` order,
each from fresh registers, shared and local memory, so a launch can
resume at any CTA boundary from copies of its memory image and partial
result; the campaign engine's fast-forward does exactly that.
"""

from __future__ import annotations

import dataclasses
import math
import struct
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

import repro.obs as obs
from repro.coding.parity import ParityCode
from repro.gpusim.memory import MemoryImage, WordStore
from repro.gpusim.regfile import ParityError, RegisterFile
from repro.ir.instructions import (
    Alu,
    Atom,
    Bar,
    Bra,
    Checkpoint,
    Ld,
    Membar,
    Ret,
    Selp,
    Setp,
    St,
)
from repro.ir.module import Kernel
from repro.ir.types import DType, Imm, MemSpace, Reg, Special, SymRef

_MASK32 = 0xFFFFFFFF


def f2b(f: float) -> int:
    """Round a Python float to fp32 and return its bit pattern."""
    try:
        return struct.unpack("<I", struct.pack("<f", f))[0]
    except (OverflowError, ValueError):
        return struct.unpack("<I", struct.pack("<f", math.inf if f > 0 else -math.inf))[0]


def b2f(b: int) -> float:
    return struct.unpack("<f", struct.pack("<I", b & _MASK32))[0]


def to_signed(b: int) -> int:
    b &= _MASK32
    return b - (1 << 32) if b & (1 << 31) else b


class SimulationError(RuntimeError):
    """The simulated program misbehaved (bad address, runaway loop, ...)."""


class UnrecoverableError(SimulationError):
    """Detection fired but recovery was impossible or diverged.

    ``cause`` is the DUE-taxonomy label the campaign engine reports
    (:class:`repro.gpusim.faults.DueType`): every raise site in the
    executor and the recovery runtime tags its failure mode explicitly
    so no DUE collapses into an undifferentiated bucket.
    """

    def __init__(self, message: str, cause: str = "slice_failure"):
        super().__init__(message)
        self.cause = cause


class WatchdogTimeout(SimulationError):
    """The per-injection instruction-budget watchdog fired: the run burned
    through its dynamic-instruction allowance without terminating (runaway
    loop from a corrupted induction variable, barrier livelock, ...)."""


@dataclass
class Launch:
    """Launch geometry + arguments.  ``params`` values are raw 32-bit ints
    (pointers are global-memory addresses; floats pre-packed via f2b)."""

    grid: int = 1
    block: int = 32
    params: Dict[str, int] = field(default_factory=dict)

    @property
    def total_threads(self) -> int:
        return self.grid * self.block


@dataclass
class ExecutionResult:
    """Aggregated dynamic statistics of one kernel run.

    Implements the :class:`repro.obs.Reportable` protocol (``to_dict``
    / ``summary``) so runs serialize to the JSONL metrics sink with the
    same key conventions as every other result type.
    """

    #: per-warp instruction-class counts: warp id -> class -> count
    warp_counts: Dict[Tuple[int, int], Counter] = field(default_factory=dict)
    rf_reads: int = 0
    rf_writes: int = 0
    detections: int = 0
    recoveries: int = 0
    threads: int = 0
    instructions: int = 0
    #: per-thread dynamic instruction counts: (ctaid, tid) -> executed
    thread_instructions: Dict[Tuple[int, int], int] = field(
        default_factory=dict
    )
    shared_accesses: int = 0
    global_accesses: int = 0
    #: which engine produced this result ("scalar" | "vector"); excluded
    #: from equality so differential A/B comparisons stay meaningful
    backend: str = field(default="scalar", compare=False)

    def total_by_class(self) -> Counter:
        total = Counter()
        for counts in self.warp_counts.values():
            total.update(counts)
        return total

    def to_dict(self) -> Dict[str, Any]:
        return {
            "kind": "execution_result",
            "backend": self.backend,
            "threads": self.threads,
            "instructions": self.instructions,
            "detections": self.detections,
            "recoveries": self.recoveries,
            "rf_reads": self.rf_reads,
            "rf_writes": self.rf_writes,
            "shared_accesses": self.shared_accesses,
            "global_accesses": self.global_accesses,
            "inst_classes": {
                cls: n for cls, n in sorted(self.total_by_class().items())
            },
            "warp_counts": {
                f"{ctaid}:{warp}": {c: n for c, n in sorted(counts.items())}
                for (ctaid, warp), counts in sorted(self.warp_counts.items())
            },
            "thread_instructions": {
                f"{ctaid}:{tid}": n
                for (ctaid, tid), n in sorted(
                    self.thread_instructions.items()
                )
            },
        }

    def summary(self) -> Dict[str, Any]:
        return {
            "threads": self.threads,
            "instructions": self.instructions,
            "detections": self.detections,
            "recoveries": self.recoveries,
            "rf_reads": self.rf_reads,
            "rf_writes": self.rf_writes,
        }

    def clone(self) -> "ExecutionResult":
        """An independent copy (the per-CTA tables are copied too)."""
        return dataclasses.replace(
            self,
            warp_counts={k: Counter(c) for k, c in self.warp_counts.items()},
            thread_instructions=dict(self.thread_instructions),
        )

    def add_ctas(self, final: "ExecutionResult", base: "ExecutionResult") -> None:
        """Add the CTAs a run ran after one of its CTA boundaries.

        ``final`` is the run's result and ``base`` a clone of it taken at
        a boundary after its first CTA: every sum grows by its delta
        between the two, including ``global_accesses``, a cumulative
        counter that the first CTA sets, and the per-CTA tables gain the
        entries ``base`` lacks."""
        for name in _CTA_SUMS:
            delta = getattr(final, name) - getattr(base, name)
            setattr(self, name, getattr(self, name) + delta)
        for key, n in final.thread_instructions.items():
            if key not in base.thread_instructions:
                self.thread_instructions[key] = n
        for key, counts in final.warp_counts.items():
            if key not in base.warp_counts:
                self.warp_counts[key] = Counter(counts)


#: the :class:`ExecutionResult` totals :meth:`ExecutionResult.add_ctas` adds
_CTA_SUMS = (
    "rf_reads",
    "rf_writes",
    "detections",
    "recoveries",
    "threads",
    "instructions",
    "shared_accesses",
    "global_accesses",
)


class ThreadContext:
    """One thread's architectural state."""

    __slots__ = (
        "tid",
        "ctaid",
        "rf",
        "local",
        "label",
        "index",
        "region_label",
        "done",
        "at_barrier",
        "counts",
        "visits",
        "executed",
        "recoveries",
        "region_entry_executed",
    )

    def __init__(self, tid: int, ctaid: int, rf: RegisterFile):
        self.tid = tid
        self.ctaid = ctaid
        self.rf = rf
        self.local = WordStore(f"local[{ctaid},{tid}]", size_bytes=1 << 16)
        self.label = ""
        self.index = 0
        self.region_label = ""
        self.done = False
        self.at_barrier = False
        self.counts: Counter = Counter()
        self.visits: Counter = Counter()  # block label -> entry count
        self.executed = 0
        self.recoveries = 0
        #: ``executed`` as of the last region entry; the difference at a
        #: recovery is the work the region re-executes (obs histogram)
        self.region_entry_executed = 0


#: instruction classes for the timing model
CLASS_ALU = "alu"
CLASS_SFU = "sfu"
CLASS_LD_GLOBAL = "ld_global"
CLASS_ST_GLOBAL = "st_global"
CLASS_LD_SHARED = "ld_shared"
CLASS_ST_SHARED = "st_shared"
CLASS_LD_OTHER = "ld_other"
CLASS_ST_OTHER = "st_other"
CLASS_BAR = "bar"
CLASS_ATOM = "atom"

_SFU_OPS = frozenset({"sqrt", "rcp", "ex2", "lg2", "sin", "cos", "div", "rem"})


def _classify(inst) -> str:
    """Static instruction class for the timing model."""
    if isinstance(inst, Alu):
        return CLASS_SFU if inst.op in _SFU_OPS else CLASS_ALU
    if isinstance(inst, Ld):
        if inst.space is MemSpace.GLOBAL:
            return CLASS_LD_GLOBAL
        if inst.space is MemSpace.SHARED:
            return CLASS_LD_SHARED
        return CLASS_LD_OTHER
    if isinstance(inst, St):
        if inst.space is MemSpace.GLOBAL:
            return CLASS_ST_GLOBAL
        if inst.space is MemSpace.SHARED:
            return CLASS_ST_SHARED
        return CLASS_ST_OTHER
    if isinstance(inst, Atom):
        return CLASS_ATOM
    if isinstance(inst, Bar):
        return CLASS_BAR
    return CLASS_ALU  # setp/selp/bra/membar/ret issue like ALU ops


def _publish_counters(result: ExecutionResult) -> None:
    """Dump one run's dynamic statistics into the current tracer's
    metrics registry.  End-of-run only — no per-instruction observability
    cost in either engine's hot loop.  Shared by every backend so the
    metrics key space is identical whichever engine produced the run."""
    if obs.current_tracer() is None:
        return
    obs.inc("sim.runs")
    obs.inc("sim.instructions", result.instructions)
    obs.inc("sim.threads", result.threads)
    obs.inc("sim.detections", result.detections)
    obs.inc("sim.recoveries", result.recoveries)
    obs.inc("sim.rf_reads", result.rf_reads)
    obs.inc("sim.rf_writes", result.rf_writes)
    obs.inc("sim.shared_accesses", result.shared_accesses)
    obs.inc("sim.global_accesses", result.global_accesses)
    for cls, n in result.total_by_class().items():
        obs.inc(f"sim.inst.{cls}", n)


def run_launch(
    engine,
    launch: Launch,
    mem: MemoryImage,
    *,
    start: int = 0,
    result: Optional[ExecutionResult] = None,
    before_cta: Optional[
        Callable[[int, MemoryImage, ExecutionResult], bool]
    ] = None,
) -> ExecutionResult:
    """The launch driver of both engines: run CTAs ``start`` to
    ``launch.grid - 1`` one at a time, in ``ctaid`` order, through
    ``engine._run_block``, inside one ``sim.run`` span, then publish the
    run's ``sim.*`` counters.

    A CTA starts from fresh registers, shared and local memory, so all it
    inherits from earlier CTAs is ``mem`` (global and const memory,
    params) and the running ``result``.  With ``result=None`` the driver
    starts a fresh launch and runs its prologue: it reserves the global
    checkpoint area and installs the launch params in ``mem``.  Given a
    ``result``, it resumes a launch whose prologue already ran in
    ``mem``, e.g. clones of both taken at CTA boundary ``start`` of an
    earlier run.  Either way a stateful fault plan is ``reset()`` first.

    ``before_cta(ctaid, mem, result)`` runs before every CTA and once
    more with ``ctaid == launch.grid`` after the last; a true return
    ends the launch before CTA ``ctaid``.
    """
    with obs.span(
        "sim.run",
        kernel=engine.kernel.name,
        grid=launch.grid,
        block=launch.block,
        faulted=engine.fault_plan is not None,
        backend=engine.backend_name,
    ):
        # Stateful fault plans (rate plans, campaign plans) carry per-run
        # bookkeeping; reset it so a reused plan cannot leak injection
        # schedules or counters from a previous run into this one.
        reset = getattr(engine.fault_plan, "reset", None)
        if reset is not None:
            reset()
        if result is None:
            result = ExecutionResult(backend=engine.backend_name)
            ckpt_words = engine.kernel.meta.get("ckpt_global_words", 0)
            mem.ckpt_global_base = (
                mem.alloc_global(ckpt_words) if ckpt_words else 0
            )
            mem.ckpt_global_words = ckpt_words
            mem.params.update(launch.params)
        for ctaid in range(start, launch.grid + 1):
            if before_cta is not None and before_cta(ctaid, mem, result):
                break
            if ctaid < launch.grid:
                engine._run_block(launch, mem, ctaid, result)
    _publish_counters(result)
    return result


class Executor:
    """Executes one kernel over a launch grid."""

    backend_name = "scalar"

    def __init__(
        self,
        kernel: Kernel,
        rf_code_factory=ParityCode,
        max_instructions_per_thread: int = 2_000_000,
        max_recoveries_per_thread: int = 1000,
        fault_plan=None,
    ):
        self.kernel = kernel
        self.rf_code_factory = rf_code_factory
        self.max_instructions = max_instructions_per_thread
        self.max_recoveries = max_recoveries_per_thread
        self.fault_plan = fault_plan
        # The (ctaid, tid) pairs whose hooks fire; ``None`` = every thread.
        targets = getattr(fault_plan, "hook_threads", None)
        self._hook_targets = (
            frozenset(targets()) if callable(targets) else None
        )
        self._block_index = {blk.label: i for i, blk in enumerate(kernel.blocks)}
        self._recovery_runtime = None
        table = kernel.meta.get("recovery_table")
        if table is not None:
            from repro.gpusim.recovery import RecoveryRuntime

            self._recovery_runtime = RecoveryRuntime(kernel, table)
        self._recovery_labels = set(kernel.meta.get("region_boundaries", set()))
        self._recovery_labels |= set(kernel.meta.get("adjustment_blocks", set()))

    def run(self, launch: Launch, mem: MemoryImage) -> ExecutionResult:
        return run_launch(self, launch, mem)

    def _run_block(
        self,
        launch: Launch,
        mem: MemoryImage,
        ctaid: int,
        result: ExecutionResult,
    ) -> None:
        shared = WordStore(f"shared[{ctaid}]", size_bytes=1 << 20)
        shared_bases: Dict[str, int] = {}
        offset = 0
        for decl in self.kernel.shared:
            shared_bases[decl.name] = offset
            offset += decl.num_words * 4

        protected = self.kernel.meta.get("protected_registers")
        threads = [
            ThreadContext(
                tid,
                ctaid,
                RegisterFile(self.rf_code_factory(), protected=protected),
            )
            for tid in range(launch.block)
        ]
        entry_label = self.kernel.entry.label
        for t in threads:
            t.label = entry_label
            t.region_label = entry_label
            t.visits[entry_label] = 1

        env = _BlockEnv(
            launch=launch,
            mem=mem,
            shared=shared,
            shared_bases=shared_bases,
            ckpt_global_base=mem.ckpt_global_base,
        )

        # Cooperative scheduling: run threads round-robin in slices; a
        # barrier parks a thread until every live thread reaches it.
        live = len(threads)
        while live > 0:
            progressed = False
            waiting = 0
            for t in threads:
                if t.done:
                    continue
                if t.at_barrier:
                    waiting += 1
                    continue
                self._run_thread_slice(t, env, slice_len=256)
                progressed = True
            live = sum(1 for t in threads if not t.done)
            blocked = sum(1 for t in threads if t.at_barrier and not t.done)
            if live > 0 and blocked == live:
                for t in threads:
                    t.at_barrier = False  # release the barrier
                progressed = True
            if not progressed and live > 0:
                raise SimulationError(
                    f"deadlock in block {ctaid}: {blocked}/{live} at barrier"
                )

        # Aggregate statistics.
        warp_size = 32
        for t in threads:
            result.rf_reads += t.rf.reads
            result.rf_writes += t.rf.writes
            result.detections += t.rf.detections
            result.recoveries += t.recoveries
            result.instructions += t.executed
            result.thread_instructions[(t.ctaid, t.tid)] = t.executed
            result.threads += 1
        # Divergence-aware warp issue counts: a warp issues a basic block
        # once per entry by *any* member thread (lockstep SIMT serializes
        # divergent paths), so its issue profile is the per-block static
        # class mix weighted by the max entry count across the warp.
        block_classes = self._static_block_classes()
        for w in range((launch.block + warp_size - 1) // warp_size):
            members = threads[w * warp_size : (w + 1) * warp_size]
            merged: Counter = Counter()
            labels = set().union(*(t.visits.keys() for t in members))
            for label in labels:
                entries = max(t.visits.get(label, 0) for t in members)
                if not entries:
                    continue
                for cls, per_visit in block_classes[label].items():
                    merged[cls] += per_visit * entries
            result.warp_counts[(ctaid, w)] = merged
        result.shared_accesses += shared.reads + shared.writes
        result.global_accesses = mem.global_mem.reads + mem.global_mem.writes

    def _static_block_classes(self) -> Dict[str, Counter]:
        """Instruction-class mix of each basic block (cached)."""
        cached = getattr(self, "_block_classes", None)
        if cached is not None:
            return cached
        table: Dict[str, Counter] = {}
        for blk in self.kernel.blocks:
            counts: Counter = Counter()
            for inst in blk.instructions:
                counts[_classify(inst)] += 1
            table[blk.label] = counts
        self._block_classes = table
        return table

    # -- per-thread execution ------------------------------------------------------

    def _run_thread_slice(
        self, t: ThreadContext, env: "_BlockEnv", slice_len: int
    ) -> None:
        plan = self.fault_plan
        targets = self._hook_targets
        if targets is not None and (t.ctaid, t.tid) not in targets:
            plan = None
        for _ in range(slice_len):
            if t.done or t.at_barrier:
                return
            blk = self.kernel.blocks[self._block_index[t.label]]
            if t.index >= len(blk.instructions):
                # fall through to the next block
                nxt = self._block_index[t.label] + 1
                if nxt >= len(self.kernel.blocks):
                    raise SimulationError(
                        f"fell off kernel end after block {t.label}"
                    )
                self._enter_block(t, self.kernel.blocks[nxt].label)
                continue
            inst = blk.instructions[t.index]
            if t.executed >= self.max_instructions:
                raise WatchdogTimeout(
                    f"thread ({t.ctaid},{t.tid}) exceeded instruction budget "
                    f"of {self.max_instructions}"
                )
            try:
                self._execute(t, env, inst)
            except ParityError as err:
                self._recover(t, env, err)
                continue
            t.executed += 1
            if plan is not None:
                plan.after_instruction(t, env)

    def _enter_block(self, t: ThreadContext, label: str) -> None:
        t.label = label
        t.index = 0
        t.visits[label] += 1
        if label in self._recovery_labels:
            t.region_label = label
            t.region_entry_executed = t.executed

    def _recover(self, t: ThreadContext, env: "_BlockEnv", err: ParityError) -> None:
        # The instructions executed since this thread entered its current
        # region are exactly the work recovery throws away and re-executes
        # — the paper's re-execution cost, observed per region.
        reexec = t.executed - t.region_entry_executed
        obs.event(
            "sim.detect",
            region=t.region_label,
            ctaid=t.ctaid,
            tid=t.tid,
            reexec_insts=reexec,
        )
        with obs.span(
            "sim.recover",
            region=t.region_label,
            ctaid=t.ctaid,
            tid=t.tid,
            reexec_insts=reexec,
        ):
            if self._recovery_runtime is None:
                raise UnrecoverableError(
                    f"{err} in thread ({t.ctaid},{t.tid}) with no recovery "
                    f"runtime",
                    cause="no_runtime",
                )
            t.recoveries += 1
            if t.recoveries > self.max_recoveries:
                raise UnrecoverableError(
                    f"thread ({t.ctaid},{t.tid}) exceeded recovery budget "
                    f"of {self.max_recoveries}",
                    cause="budget_exhausted",
                )
            self._recovery_runtime.recover(
                t, env, err, fault_plan=self.fault_plan
            )
            self._enter_block(t, t.region_label)
        tracer = obs.current_tracer()
        if tracer is not None:
            tracer.counters.inc("sim.reexec_insts_total", reexec)
            tracer.counters.observe_value(
                f"sim.reexec.{t.region_label}", reexec
            )

    # -- instruction semantics ---------------------------------------------------------

    def _execute(self, t: ThreadContext, env: "_BlockEnv", inst) -> None:
        if inst.guard is not None:
            reg, sense = inst.guard
            value = t.rf.read(reg.name)
            if bool(value) != sense:
                t.index += 1
                t.counts[CLASS_ALU] += 1  # predicated-off still issues
                return

        if isinstance(inst, Alu):
            self._exec_alu(t, env, inst)
        elif isinstance(inst, Setp):
            self._exec_setp(t, env, inst)
        elif isinstance(inst, Selp):
            self._exec_selp(t, env, inst)
        elif isinstance(inst, Ld):
            self._exec_ld(t, env, inst)
        elif isinstance(inst, St):
            self._exec_st(t, env, inst)
        elif isinstance(inst, Atom):
            self._exec_atom(t, env, inst)
        elif isinstance(inst, Bra):
            t.counts[CLASS_ALU] += 1
            self._enter_block(t, inst.target)
            return
        elif isinstance(inst, Bar):
            t.counts[CLASS_BAR] += 1
            t.at_barrier = True
            t.index += 1
            return
        elif isinstance(inst, Membar):
            t.counts[CLASS_ALU] += 1
            t.index += 1
            return
        elif isinstance(inst, Ret):
            t.done = True
            return
        elif isinstance(inst, Checkpoint):
            raise SimulationError(
                "un-lowered cp pseudo-instruction reached the simulator"
            )
        else:
            raise SimulationError(f"cannot execute {inst!r}")
        t.index += 1

    # -- operand handling --

    def _value(self, t: ThreadContext, env: "_BlockEnv", op) -> int:
        if isinstance(op, Reg):
            return t.rf.read(op.name)
        if isinstance(op, Imm):
            if op.dtype.is_float:
                return f2b(float(op.value))
            return int(op.value) & _MASK32
        if isinstance(op, Special):
            return env.special(t, op.name)
        if isinstance(op, SymRef):
            return env.symbol_address(op.name)
        raise SimulationError(f"bad operand {op!r}")

    # -- ALU --

    def _exec_alu(self, t: ThreadContext, env: "_BlockEnv", inst: Alu) -> None:
        vals = [self._value(t, env, s) for s in inst.srcs]
        op, dt = inst.op, inst.dtype
        t.counts[CLASS_SFU if op in _SFU_OPS else CLASS_ALU] += 1
        result = _alu_compute(op, dt, vals)
        t.rf.write(inst.dst.name, result)

    def _exec_setp(self, t: ThreadContext, env, inst: Setp) -> None:
        a = self._value(t, env, inst.srcs[0])
        b = self._value(t, env, inst.srcs[1])
        t.counts[CLASS_ALU] += 1
        t.rf.write(inst.dst.name, 1 if _compare(inst.cmp, inst.dtype, a, b) else 0)

    def _exec_selp(self, t: ThreadContext, env, inst: Selp) -> None:
        a = self._value(t, env, inst.srcs[0])
        b = self._value(t, env, inst.srcs[1])
        p = t.rf.read(inst.pred.name)
        t.counts[CLASS_ALU] += 1
        t.rf.write(inst.dst.name, a if p else b)

    # -- memory --

    def _exec_ld(self, t: ThreadContext, env, inst: Ld) -> None:
        if inst.space is MemSpace.PARAM:
            if not isinstance(inst.base, SymRef):
                raise SimulationError("param loads must use a symbol base")
            t.counts[CLASS_LD_OTHER] += 1
            t.rf.write(inst.dst.name, env.param(inst.base.name))
            return
        addr = self._value(t, env, inst.base) + inst.offset
        store, cls = env.resolve(t, inst.space, is_store=False)
        t.counts[cls] += 1
        t.rf.write(inst.dst.name, store.load(addr & _MASK32))

    def _exec_st(self, t: ThreadContext, env, inst: St) -> None:
        addr = self._value(t, env, inst.base) + inst.offset
        value = self._value(t, env, inst.src)
        store, cls = env.resolve(t, inst.space, is_store=True)
        t.counts[cls] += 1
        store.store(addr & _MASK32, value)

    def _exec_atom(self, t: ThreadContext, env, inst: Atom) -> None:
        addr = self._value(t, env, inst.base) + inst.offset
        src = self._value(t, env, inst.src)
        store, _ = env.resolve(t, inst.space, is_store=True)
        t.counts[CLASS_ATOM] += 1
        old = store.load(addr & _MASK32)
        if inst.op == "add":
            new = (old + src) & _MASK32
        elif inst.op == "exch":
            new = src
        elif inst.op == "max":
            new = max(to_signed(old), to_signed(src)) & _MASK32
        elif inst.op == "min":
            new = min(to_signed(old), to_signed(src)) & _MASK32
        elif inst.op == "cas":
            cmp = src
            val = self._value(t, env, inst.src2)
            new = val if old == cmp else old
        else:
            raise SimulationError(f"unknown atomic {inst.op}")
        store.store(addr & _MASK32, new)
        t.rf.write(inst.dst.name, old)


@dataclass
class _BlockEnv:
    """Shared state of one thread block during execution."""

    launch: Launch
    mem: MemoryImage
    shared: WordStore
    shared_bases: Dict[str, int]
    ckpt_global_base: int

    def special(self, t: ThreadContext, name: str) -> int:
        if name == "%tid.x":
            return t.tid
        if name == "%tid.y":
            return 0
        if name == "%ntid.x":
            return self.launch.block
        if name == "%ntid.y":
            return 1
        if name == "%ctaid.x":
            return t.ctaid
        if name == "%ctaid.y":
            return 0
        if name == "%nctaid.x":
            return self.launch.grid
        if name == "%nctaid.y":
            return 1
        raise SimulationError(f"unknown special register {name}")

    def param(self, name: str) -> int:
        try:
            return self.mem.params[name] & _MASK32
        except KeyError:
            raise SimulationError(f"kernel param {name!r} not provided")

    def symbol_address(self, name: str) -> int:
        if name in self.shared_bases:
            return self.shared_bases[name]
        from repro.core.codegen import GLOBAL_CKPT_SYMBOL

        if name == GLOBAL_CKPT_SYMBOL:
            return self.ckpt_global_base
        if name in self.mem.params:
            return self.mem.params[name] & _MASK32
        raise SimulationError(f"unknown symbol {name!r}")

    def resolve(self, t: ThreadContext, space: MemSpace, is_store: bool):
        if space is MemSpace.GLOBAL:
            return self.mem.global_mem, (
                CLASS_ST_GLOBAL if is_store else CLASS_LD_GLOBAL
            )
        if space is MemSpace.SHARED:
            return self.shared, (
                CLASS_ST_SHARED if is_store else CLASS_LD_SHARED
            )
        if space is MemSpace.LOCAL:
            return t.local, (
                CLASS_ST_OTHER if is_store else CLASS_LD_OTHER
            )
        if space is MemSpace.CONST:
            return self.mem.const_mem, (
                CLASS_ST_OTHER if is_store else CLASS_LD_OTHER
            )
        raise SimulationError(f"cannot access space {space}")


# -- scalar ALU semantics ------------------------------------------------------------


def _alu_compute(op: str, dt: DType, vals: List[int]) -> int:
    if op == "cvt":
        # cvt.f32: fp32 destination from a signed-int source pattern;
        # cvt.u32/s32: integer destination from an fp32 source pattern.
        if dt.is_float:
            return f2b(float(to_signed(vals[0])))
        f = b2f(vals[0])
        if math.isnan(f) or math.isinf(f):
            return 0
        return int(f) & _MASK32
    if dt.is_float:
        f = [b2f(v) for v in vals]
        return f2b(_float_op(op, f))
    signed = dt.is_signed
    a = to_signed(vals[0]) if signed else vals[0]
    b = (to_signed(vals[1]) if signed else vals[1]) if len(vals) > 1 else 0
    c = (to_signed(vals[2]) if signed else vals[2]) if len(vals) > 2 else 0
    if op == "mov":
        return vals[0] & _MASK32
    if op == "add":
        return (a + b) & _MASK32
    if op == "sub":
        return (a - b) & _MASK32
    if op == "mul":
        return (a * b) & _MASK32
    if op == "mulhi":
        return ((a * b) >> 32) & _MASK32
    if op == "mad":
        return (a * b + c) & _MASK32
    if op == "div":
        if b == 0:
            return 0
        q = abs(a) // abs(b)
        if (a < 0) != (b < 0):
            q = -q
        return q & _MASK32
    if op == "rem":
        if b == 0:
            return 0
        r = abs(a) % abs(b)
        if a < 0:
            r = -r
        return r & _MASK32
    if op == "min":
        return min(a, b) & _MASK32
    if op == "max":
        return max(a, b) & _MASK32
    if op == "neg":
        return (-a) & _MASK32
    if op == "abs":
        return abs(a) & _MASK32
    if op == "and":
        return (vals[0] & vals[1]) & _MASK32
    if op == "or":
        return (vals[0] | vals[1]) & _MASK32
    if op == "xor":
        return (vals[0] ^ vals[1]) & _MASK32
    if op == "not":
        return (~vals[0]) & _MASK32
    if op == "shl":
        return (vals[0] << (vals[1] & 31)) & _MASK32
    if op == "shr":
        if signed:
            return (to_signed(vals[0]) >> (vals[1] & 31)) & _MASK32
        return (vals[0] >> (vals[1] & 31)) & _MASK32
    raise SimulationError(f"unknown integer op {op}")


def _float_op(op: str, f: List[float]) -> float:
    a = f[0]
    b = f[1] if len(f) > 1 else 0.0
    c = f[2] if len(f) > 2 else 0.0
    if op == "mov":
        return a
    if op == "add":
        return a + b
    if op == "sub":
        return a - b
    if op == "mul":
        return a * b
    if op in ("mad", "fma"):
        return a * b + c
    if op == "div":
        if b == 0.0:
            return math.inf if a > 0 else (-math.inf if a < 0 else math.nan)
        return a / b
    if op == "rem":
        return math.fmod(a, b) if b else math.nan
    if op == "min":
        return min(a, b)
    if op == "max":
        return max(a, b)
    if op == "neg":
        return -a
    if op == "abs":
        return abs(a)
    if op == "sqrt":
        return math.sqrt(a) if a >= 0 else math.nan
    if op == "rcp":
        return 1.0 / a if a != 0 else math.inf
    if op == "ex2":
        try:
            return 2.0 ** a
        except OverflowError:
            return math.inf
    if op == "lg2":
        return math.log2(a) if a > 0 else (-math.inf if a == 0 else math.nan)
    if op == "sin":
        return math.sin(a)
    if op == "cos":
        return math.cos(a)
    raise SimulationError(f"unknown float op {op}")


def _compare(cmp: str, dt: DType, a: int, b: int) -> bool:
    if dt.is_float:
        fa, fb = b2f(a), b2f(b)
        if math.isnan(fa) or math.isnan(fb):
            return cmp == "ne"
        va, vb = fa, fb
    elif dt.is_signed:
        va, vb = to_signed(a), to_signed(b)
    else:
        va, vb = a & _MASK32, b & _MASK32
    return {
        "eq": va == vb,
        "ne": va != vb,
        "lt": va < vb,
        "le": va <= vb,
        "gt": va > vb,
        "ge": va >= vb,
    }[cmp]
