"""Lane-parallel NumPy execution engine.

The scalar interpreter (:mod:`repro.gpusim.executor`) walks one thread at
a time; this engine evaluates *all lanes of a thread block per
instruction* as ``(regs, lanes)`` NumPy arrays.  Control divergence is
handled with a divergence-mask worklist ordered by program position: the
engine always executes the frontier entry at the minimal ``(block,
instruction)`` pc, so lanes that branched apart re-merge (mask union) the
moment their paths rejoin — the immediate-post-dominator reconvergence a
real SIMT front-end performs with its mask stack.

The engine is a drop-in :class:`ExecutorBackend`: same constructor knobs,
same :class:`ExecutionResult`, bit-for-bit.  The contract (verified by the
differential A/B suite in ``tests/integration/test_backend_ab.py``):

- every per-thread observable — register values, executed-instruction
  counts, register-file read/write/detection counters, block visit
  counts, memory contents and access counters — equals the scalar
  interpreter's, because per-thread instruction traces of race-free
  kernels are schedule-independent and both schedulers release barriers
  only when every live thread arrived;
- float ops compute in float64 and round once to float32, which equals
  the scalar path (Python doubles + ``f2b``) exactly — fp32 is "double
  rounding safe" from fp64 for every op used here (53 >= 2*24 + 2).
  The libm-sensitive SFU ops (``sin``/``cos``/``ex2``/``lg2``) drop to
  the scalar helper per lane so both backends share one libm;
- fault-plan hooks fire after each instruction of each lane in lane
  order, i.e. with identical *per-thread* ordering and seeds, so
  campaign journals and fuzz findings are backend-invariant;
- parity detection, recovery (via the unmodified
  :class:`~repro.gpusim.recovery.RecoveryRuntime`) and the watchdog /
  recovery budgets behave identically, down to exception messages.

Vectorizing the register file: registers live in a ``(regs, lanes)``
``uint64`` codeword matrix plus a ``written`` bitmap (a read of a
never-written register implicitly writes an encoded zero, as in the
scalar file).  Parity encode/check are closed-form NumPy expressions for
:class:`~repro.coding.parity.ParityCode`; other codes (SECDED) fall back
to per-lane calls of the very same ``Code`` object, trading speed for
guaranteed equivalence.  Parity *checks* are skipped entirely until the
first fault is injected — an uncorrupted file cannot detect.  Counters
move with ``+= mask``; a row every lane has written skips the
never-written scan on reads.

Memory is the scalar :class:`WordStore`: a global, shared or const
access is one dict operation over the masked lanes (``dict.get`` per
lane for a load, one ``dict.update`` in lane order for a store, so the
last lane wins on a shared word).  A bad address or a store holding a
poisoned word takes the per-lane path, which raises the scalar
exception for the first bad lane.  The watchdog's per-lane scan runs
only once a CTA's step count reaches the budget: a step retires at most
one instruction per lane.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

import numpy as np

import repro.obs as obs
from repro.coding.parity import ParityCode
from repro.gpusim.executor import (
    ExecutionResult,
    Launch,
    SimulationError,
    UnrecoverableError,
    WatchdogTimeout,
    _BlockEnv,
    _classify,
    _float_op,
    f2b,
    run_launch,
)
from repro.gpusim.memory import MemoryImage, WordStore
from repro.gpusim.regfile import ParityError
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
_U64 = np.uint64
_I64 = np.int64

#: SFU ops whose scalar semantics route through libm; evaluated per lane
#: through the scalar helper so both backends share one rounding story.
_LANE_FLOAT_OPS = frozenset({"ex2", "lg2", "sin", "cos"})


# -- vectorized detection codes -----------------------------------------------------


class _VCode:
    """Vector adapter over a :class:`repro.coding.base.Code`.

    ``kind`` selects the closed-form fast path; anything unrecognized is
    evaluated per lane through the original code object, which keeps
    arbitrary codes (SECDED, future ones) bit-identical by construction.
    """

    def __init__(self, code):
        self.code = code
        if code is None:
            self.kind = "none"
        elif isinstance(code, ParityCode) and code.k == 32:
            self.kind = "parity32"
        else:
            self.kind = "generic"

    def encode(self, data: np.ndarray) -> np.ndarray:
        if self.kind == "none":
            return data & _U64(_MASK32)
        if self.kind == "parity32":
            d = data & _U64(_MASK32)
            parity = np.bitwise_count(d).astype(_U64) & _U64(1)
            return d | (parity << _U64(32))
        enc = self.code.encode
        return np.array(
            [enc(int(v)) for v in data.tolist()], dtype=_U64
        )

    def check(self, words: np.ndarray) -> np.ndarray:
        """True where the codeword fails the code's check."""
        if self.kind == "none":
            return np.zeros(words.shape, dtype=bool)
        if self.kind == "parity32":
            return (np.bitwise_count(words) & np.uint8(1)).astype(bool)
        chk = self.code.check
        return np.array(
            [chk(int(v)) for v in words.tolist()], dtype=bool
        )

    def extract(self, words: np.ndarray) -> np.ndarray:
        if self.kind in ("none", "parity32"):
            return words & _U64(_MASK32)
        ext = self.code.extract_data
        return np.array(
            [ext(int(v)) for v in words.tolist()], dtype=_U64
        )


# -- vectorized register file -------------------------------------------------------


class VRegisterFile:
    """All lanes' registers as a ``(regs, lanes)`` codeword matrix."""

    def __init__(
        self,
        lanes: int,
        code,
        reg_names: List[str],
        protected: Optional[FrozenSet[str]] = None,
    ):
        self.lanes = lanes
        self.vcode = _VCode(code)
        self.code = code
        #: selective protection: names outside the set store bare values
        #: (meaningful only with a code installed); ``None`` = all covered
        self._protected = protected if code is not None else None
        self.rows: Dict[str, int] = {}
        for name in reg_names:
            self.rows.setdefault(name, len(self.rows))
        n = max(len(self.rows), 1)
        self.words = np.zeros((n, lanes), dtype=_U64)
        self.written = np.zeros((n, lanes), dtype=bool)
        self.row_protected = np.ones(n, dtype=bool)
        if self._protected is not None:
            for name, row in self.rows.items():
                self.row_protected[row] = name in self._protected
        self.reads = np.zeros(lanes, dtype=_I64)
        self.writes = np.zeros(lanes, dtype=_I64)
        self.detections = np.zeros(lanes, dtype=_I64)
        self.injected_faults = np.zeros(lanes, dtype=_I64)
        #: rows every lane has written; ``written`` is never cleared, so
        #: a read of one of them needs no never-written scan
        self._full_rows: Set[int] = set()
        #: no bit was ever flipped -> checks cannot fire -> skip them
        self.dirty = False
        self._zero_codeword = int(self.vcode.encode(np.zeros(1, dtype=_U64))[0])

    def row(self, name: str) -> int:
        idx = self.rows.get(name)
        if idx is None:
            idx = self.rows[name] = len(self.rows)
            if idx >= self.words.shape[0]:
                grow = max(8, idx + 1 - self.words.shape[0])
                self.words = np.vstack(
                    [self.words, np.zeros((grow, self.lanes), dtype=_U64)]
                )
                self.written = np.vstack(
                    [self.written, np.zeros((grow, self.lanes), dtype=bool)]
                )
                self.row_protected = np.concatenate(
                    [self.row_protected, np.ones(grow, dtype=bool)]
                )
            if self._protected is not None:
                self.row_protected[idx] = name in self._protected
        return idx

    def write_masked(self, row: int, mask: np.ndarray, values) -> None:
        self.writes += mask
        written = self.written[row]
        written |= mask
        vals = values[mask] if isinstance(values, np.ndarray) else values
        if not self.row_protected[row]:
            if isinstance(vals, np.ndarray):
                self.words[row, mask] = vals & _U64(_MASK32)
            else:
                self.words[row, mask] = _U64(int(vals) & _MASK32)
            return
        if isinstance(vals, np.ndarray):
            self.words[row, mask] = self.vcode.encode(vals)
        else:
            enc = (
                self._zero_codeword
                if vals == 0
                else int(self.vcode.encode(np.array([vals], dtype=_U64))[0])
            )
            self.words[row, mask] = _U64(enc)

    def read_masked(
        self, row: int, mask: np.ndarray
    ) -> Tuple[np.ndarray, Optional[np.ndarray]]:
        """Masked read -> ``(data, fault_mask_or_None)``.

        Mirrors the scalar file: a never-written register is implicitly
        written as zero first (the write counter moves), the read counter
        moves *before* the check, detections are counted per faulting
        lane.  An unprotected row returns bare (possibly corrupted) data
        and can never fault — the policy's chosen SDC exposure."""
        if row not in self._full_rows:
            written = self.written[row]
            unwritten = mask & ~written
            if unwritten.any():
                self.write_masked(row, unwritten, 0)
            if written.all():
                self._full_rows.add(row)
        self.reads += mask
        words = self.words[row]
        if not self.row_protected[row]:
            return words & _U64(_MASK32), None
        if self.dirty:
            bad = self.vcode.check(words) & mask
            if bad.any():
                self.detections += bad
                return self.vcode.extract(words), bad
        return self.vcode.extract(words), None


class _LaneRF:
    """Scalar :class:`RegisterFile` facade over one lane of a
    :class:`VRegisterFile` — what recovery and fault plans manipulate."""

    __slots__ = ("vrf", "lane")

    def __init__(self, vrf: VRegisterFile, lane: int):
        self.vrf = vrf
        self.lane = lane

    @property
    def code(self):
        return self.vrf.code

    @property
    def reads(self) -> int:
        return int(self.vrf.reads[self.lane])

    @property
    def writes(self) -> int:
        return int(self.vrf.writes[self.lane])

    @property
    def detections(self) -> int:
        return int(self.vrf.detections[self.lane])

    @property
    def injected_faults(self) -> int:
        return int(self.vrf.injected_faults[self.lane])

    def write(self, name: str, value: int) -> None:
        vrf = self.vrf
        row = vrf.row(name)
        vrf.writes[self.lane] += 1
        value &= _MASK32
        code = vrf.code
        if code is None or not vrf.row_protected[row]:
            vrf.words[row, self.lane] = _U64(value)
        else:
            vrf.words[row, self.lane] = _U64(code.encode(value))
        vrf.written[row, self.lane] = True

    def read(self, name: str) -> int:
        vrf = self.vrf
        row = vrf.row(name)
        vrf.reads[self.lane] += 1
        if not vrf.written[row, self.lane]:
            self.write(name, 0)
        word = int(vrf.words[row, self.lane])
        code = vrf.code
        if code is None or not vrf.row_protected[row]:
            return word & _MASK32
        if code.check(word):
            vrf.detections[self.lane] += 1
            raise ParityError(name)
        return code.extract_data(word)

    def peek(self, name: str) -> Optional[int]:
        vrf = self.vrf
        row = vrf.rows.get(name)
        if row is None or not vrf.written[row, self.lane]:
            return None
        word = int(vrf.words[row, self.lane])
        if vrf.code is None or not vrf.row_protected[row]:
            return word & _MASK32
        return vrf.code.extract_data(word)

    def flip_bits(self, name: str, bit_positions) -> bool:
        vrf = self.vrf
        row = vrf.rows.get(name)
        if row is None or not vrf.written[row, self.lane]:
            return False
        word = int(vrf.words[row, self.lane])
        for bit in bit_positions:
            word ^= 1 << bit
        vrf.words[row, self.lane] = _U64(word)
        vrf.injected_faults[self.lane] += 1
        vrf.dirty = True
        return True

    def registers(self) -> List[str]:
        vrf = self.vrf
        col = vrf.written[:, self.lane]
        return [name for name, row in vrf.rows.items() if col[row]]

    def random_register(self, rng) -> Optional[str]:
        regs = sorted(self.registers())
        if not regs:
            return None
        return regs[rng.randrange(len(regs))]


class _LaneView:
    """One lane dressed up as a scalar :class:`ThreadContext`.

    The recovery runtime, the fault plans and ``slot_location`` only read
    ``tid``/``ctaid``/``rf``/``local``/``executed``/``region_label`` and
    bump ``recoveries`` — these properties bridge them onto the lane
    arrays so all three work untouched (and therefore bit-identically).
    A fault hook also sees the lane's pc after the instruction it fires
    for, as a :class:`ThreadContext` holds it: ``label``/``index`` (a
    taken branch gives the target at index 0, a retired lane stays at its
    ``ret``) and ``done``."""

    __slots__ = ("state", "lane", "rf", "ctaid")

    def __init__(self, state: "_VBlockState", lane: int):
        self.state = state
        self.lane = lane
        self.rf = _LaneRF(state.vrf, lane)
        self.ctaid = state.ctaid

    @property
    def tid(self) -> int:
        return self.lane

    @property
    def local(self) -> WordStore:
        return self.state.local_store(self.lane)

    @property
    def executed(self) -> int:
        return int(self.state.executed[self.lane])

    @property
    def recoveries(self) -> int:
        return int(self.state.recoveries[self.lane])

    @recoveries.setter
    def recoveries(self, value: int) -> None:
        self.state.recoveries[self.lane] = value

    @property
    def region_label(self) -> str:
        return self.state.labels[self.state.region_block[self.lane]]

    def _next_pc(self) -> Tuple[int, int, bool]:
        b, i, target, jumped, retired = self.state.step
        if jumped is not None and jumped[self.lane]:
            return target, 0, False
        if retired is not None and retired[self.lane]:
            return b, i, True
        return b, i + 1, False

    @property
    def label(self) -> str:
        return self.state.labels[self._next_pc()[0]]

    @property
    def index(self) -> int:
        return self._next_pc()[1]

    @property
    def done(self) -> bool:
        return self._next_pc()[2]


# -- decoded instruction records ----------------------------------------------------

K_ALU = 0
K_SETP = 1
K_SELP = 2
K_LD = 3
K_LD_PARAM = 4
K_ST = 5
K_ATOM = 6
K_BRA = 7
K_BAR = 8
K_MEMBAR = 9
K_RET = 10

OP_REG = 0
OP_CONST = 1
OP_SPECIAL = 2
OP_SYMREF = 3


class _DInst:
    """One pre-decoded instruction: operand descriptors resolved to
    register rows / packed constants once per kernel, not per lane-step."""

    __slots__ = (
        "kind",
        "guard",
        "op",
        "dtype",
        "cmp",
        "dst",
        "dst_name",
        "srcs",
        "pred",
        "space",
        "offset",
        "base",
        "src",
        "src2",
        "target",
        "sym",
    )

    def __init__(self):
        self.guard = None
        self.srcs = ()
        self.src2 = None


class VectorExecutor:
    """Lane-parallel executor: one kernel over a launch grid.

    Constructor-compatible with :class:`repro.gpusim.executor.Executor`;
    produces bit-identical :class:`ExecutionResult`\\ s (the A/B contract
    in the module docstring)."""

    backend_name = "vector"

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
        self._block_index = {blk.label: i for i, blk in enumerate(kernel.blocks)}
        self.labels = [blk.label for blk in kernel.blocks]
        self._recovery_runtime = None
        table = kernel.meta.get("recovery_table")
        if table is not None:
            from repro.gpusim.recovery import RecoveryRuntime

            self._recovery_runtime = RecoveryRuntime(kernel, table)
        self._recovery_labels = set(kernel.meta.get("region_boundaries", set()))
        self._recovery_labels |= set(kernel.meta.get("adjustment_blocks", set()))
        self._reg_names: List[str] = []
        self._decoded = [self._decode_block(blk) for blk in kernel.blocks]
        self._uses_local = any(
            getattr(inst, "space", None) is MemSpace.LOCAL
            for blk in kernel.blocks
            for inst in blk.instructions
        )
        # Targeted plans (single (ctaid, tid)) let the hook loop skip
        # every other lane; ``None`` = broadcast to all lanes.
        targets = getattr(fault_plan, "hook_threads", None)
        self._hook_targets = targets() if callable(targets) else None

    # -- decode --

    def _reg_row(self, name: str) -> int:
        # Rows are finalized here, then handed to every block's VRF.
        try:
            return self._reg_names.index(name)
        except ValueError:
            self._reg_names.append(name)
            return len(self._reg_names) - 1

    def _operand(self, op):
        if isinstance(op, Reg):
            return (OP_REG, self._reg_row(op.name), op.name)
        if isinstance(op, Imm):
            if op.dtype.is_float:
                return (OP_CONST, f2b(float(op.value)), None)
            return (OP_CONST, int(op.value) & _MASK32, None)
        if isinstance(op, Special):
            return (OP_SPECIAL, 0, op.name)
        if isinstance(op, SymRef):
            return (OP_SYMREF, 0, op.name)
        raise SimulationError(f"bad operand {op!r}")

    def _decode_block(self, blk) -> List[_DInst]:
        out = []
        for inst in blk.instructions:
            d = _DInst()
            if inst.guard is not None:
                reg, sense = inst.guard
                d.guard = (self._reg_row(reg.name), reg.name, sense)
            if isinstance(inst, Alu):
                d.kind = K_ALU
                d.op = inst.op
                d.dtype = inst.dtype
                d.dst = self._reg_row(inst.dst.name)
                d.srcs = tuple(self._operand(s) for s in inst.srcs)
            elif isinstance(inst, Setp):
                d.kind = K_SETP
                d.cmp = inst.cmp
                d.dtype = inst.dtype
                d.dst = self._reg_row(inst.dst.name)
                d.srcs = tuple(self._operand(s) for s in inst.srcs)
            elif isinstance(inst, Selp):
                d.kind = K_SELP
                d.dst = self._reg_row(inst.dst.name)
                d.srcs = tuple(self._operand(s) for s in inst.srcs)
                d.pred = (self._reg_row(inst.pred.name), inst.pred.name)
            elif isinstance(inst, Ld):
                if inst.space is MemSpace.PARAM:
                    if not isinstance(inst.base, SymRef):
                        raise SimulationError(
                            "param loads must use a symbol base"
                        )
                    d.kind = K_LD_PARAM
                    d.sym = inst.base.name
                    d.dst = self._reg_row(inst.dst.name)
                else:
                    d.kind = K_LD
                    d.space = inst.space
                    d.offset = inst.offset
                    d.base = self._operand(inst.base)
                    d.dst = self._reg_row(inst.dst.name)
            elif isinstance(inst, St):
                d.kind = K_ST
                d.space = inst.space
                d.offset = inst.offset
                d.base = self._operand(inst.base)
                d.src = self._operand(inst.src)
            elif isinstance(inst, Atom):
                d.kind = K_ATOM
                d.op = inst.op
                d.space = inst.space
                d.offset = inst.offset
                d.base = self._operand(inst.base)
                d.src = self._operand(inst.src)
                if inst.src2 is not None:
                    d.src2 = self._operand(inst.src2)
                d.dst = self._reg_row(inst.dst.name)
            elif isinstance(inst, Bra):
                d.kind = K_BRA
                d.target = inst.target
            elif isinstance(inst, Bar):
                d.kind = K_BAR
            elif isinstance(inst, Membar):
                d.kind = K_MEMBAR
            elif isinstance(inst, Ret):
                d.kind = K_RET
            elif isinstance(inst, Checkpoint):
                raise SimulationError(
                    "un-lowered cp pseudo-instruction reached the simulator"
                )
            else:
                raise SimulationError(f"cannot execute {inst!r}")
            out.append(d)
        return out

    # -- launch --

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

        env = _BlockEnv(
            launch=launch,
            mem=mem,
            shared=shared,
            shared_bases=shared_bases,
            ckpt_global_base=mem.ckpt_global_base,
        )
        state = _VBlockState(self, launch, env, ctaid)
        with np.errstate(all="ignore"):
            self._schedule(state)
        state.aggregate(result)

    # -- the divergence-mask scheduler --

    def _schedule(self, state: "_VBlockState") -> None:
        """Min-pc frontier scheduling.

        ``frontier`` holds ``(block, index, mask)`` entries; the entry at
        the minimal program position executes next, and entries at equal
        positions merge their masks first — that is the reconvergence
        "pop".  A divergent guarded branch pushes the taken and
        fall-through masks as two entries — the "push".  Barriers park
        their masks until the frontier drains (exactly the scalar
        scheduler's all-live-threads-blocked release)."""
        frontier = state.frontier
        while frontier or state.parked:
            if not frontier:
                # Everyone still running is parked at a barrier: release.
                frontier.extend(state.parked)
                state.parked.clear()
            pos = min((e[0], e[1]) for e in frontier)
            mask = None
            kept = []
            for e in frontier:
                if (e[0], e[1]) == pos:
                    mask = e[2] if mask is None else (mask | e[2])
                else:
                    kept.append(e)
            frontier[:] = kept
            self._run_front(state, pos[0], pos[1], mask)
        if state.done_count < state.lanes:
            blocked = 0
            live = state.lanes - state.done_count
            raise SimulationError(
                f"deadlock in block {state.ctaid}: {blocked}/{live} at barrier"
            )

    def _run_front(
        self, state: "_VBlockState", b: int, i: int, mask: np.ndarray
    ) -> None:
        """Execute from ``(b, i)`` with ``mask`` until a control event
        splits or retires every lane of the mask."""
        decoded = self._decoded
        blocks = self.kernel.blocks
        nblocks = len(blocks)
        budget = self.max_instructions
        while True:
            insts = decoded[b]
            if i >= len(insts):
                nxt = b + 1
                if nxt >= nblocks:
                    raise SimulationError(
                        f"fell off kernel end after block {self.labels[b]}"
                    )
                state.enter_block(mask, nxt)
                b, i = nxt, 0
                continue
            # A step retires at most one instruction per lane, so no lane
            # can reach the budget before the CTA's step count does.
            if state.steps >= budget and np.any(
                state.executed[mask] >= budget
            ):
                lane = int(
                    np.flatnonzero(mask & (state.executed >= budget))[0]
                )
                raise WatchdogTimeout(
                    f"thread ({state.ctaid},{lane}) exceeded instruction "
                    f"budget of {budget}"
                )
            state.steps += 1
            d = insts[i]
            mask, b, i = self._step(state, d, mask, b, i)
            if mask is None or not mask.any():
                return

    def _step(self, state, d, mask, b, i):
        """One instruction for all lanes of ``mask``.  Returns the mask
        that continues in a straight line plus its next pc; diverging
        lanes are pushed onto the frontier / parked / retired."""
        fault = None  # lanes that tripped parity mid-instruction

        on = mask
        off = None
        if d.guard is not None:
            row, name, sense = d.guard
            gvals, gf = state.vrf.read_masked(row, mask)
            if gf is not None:
                state.note_fault(gf, name)
                fault = gf
                on = mask & ~gf
            truth = (gvals & _U64(_MASK32)) != 0
            pred_on = truth if sense else ~truth
            off = on & ~pred_on
            on = on & pred_on

        advance = None  # lanes that fall to (b, i+1)
        jump_target = None
        jump_mask = None
        # _run_front never hands over an empty mask, so an unguarded
        # instruction always has lanes to run.
        if d.guard is None or fault is not None or on.any():
            kind = d.kind
            if kind == K_ALU:
                advance, fault = self._exec_alu(state, d, on, fault)
            elif kind == K_SETP:
                advance, fault = self._exec_setp(state, d, on, fault)
            elif kind == K_SELP:
                advance, fault = self._exec_selp(state, d, on, fault)
            elif kind == K_LD_PARAM:
                state.vrf.write_masked(d.dst, on, state.env.param(d.sym))
                advance = on
            elif kind == K_LD:
                advance, fault = self._exec_ld(state, d, on, fault)
            elif kind == K_ST:
                advance, fault = self._exec_st(state, d, on, fault)
            elif kind == K_ATOM:
                advance, fault = self._exec_atom(state, d, on, fault)
            elif kind == K_BRA:
                # Scalar order: _enter_block runs inside _execute, so the
                # region's entry-executed snapshot predates the executed
                # increment below.  Mirror that here.
                jump_target = self._block_index[d.target]
                jump_mask = on
                if jump_mask.any():
                    state.enter_block(jump_mask, jump_target)
            elif kind == K_BAR:
                if on.any():
                    state.parked.append((b, i + 1, on))
            elif kind == K_MEMBAR:
                advance = on
            elif kind == K_RET:
                state.retire(on)
            else:  # pragma: no cover - decode rejects unknown kinds
                raise SimulationError(f"cannot execute kind {kind}")

        # Retired work: executed++ and fault hooks for every lane that
        # completed the instruction (including predicated-off lanes —
        # they still issue), in lane order, exactly like the scalar loop.
        completed = on if d.kind in (K_BRA, K_BAR, K_RET) else advance
        if off is not None and off.any():
            completed = off if completed is None else (completed | off)
        if completed is not None and completed.any():
            state.executed += completed
            if self.fault_plan is not None:
                # What the hooks' lane views derive each lane's next pc from.
                state.step = (
                    b,
                    i,
                    jump_target,
                    jump_mask,
                    on if d.kind == K_RET else None,
                )
                self._fire_hooks(state, completed)

        if fault is not None and fault.any():
            self._recover_lanes(state, fault, d)

        # Route diverging lanes.
        if jump_mask is not None and jump_mask.any():
            cont = off
            if cont is not None and cont.any():
                state.frontier.append((b, i + 1, cont))
            return jump_mask, jump_target, 0
        cont = advance
        if off is not None and off.any():
            cont = off if cont is None else (cont | off)
        return cont, b, i + 1

    # -- hook + recovery plumbing --

    def _fire_hooks(self, state: "_VBlockState", mask: np.ndarray) -> None:
        plan = self.fault_plan
        targets = self._hook_targets
        if targets is not None:
            lanes = [
                tid
                for (ctaid, tid) in targets
                if ctaid == state.ctaid and tid < state.lanes and mask[tid]
            ]
        else:
            lanes = np.flatnonzero(mask).tolist()
        for lane in lanes:
            plan.after_instruction(state.lane_view(lane), state.env)

    def _recover_lanes(self, state, fault: np.ndarray, d) -> None:
        """Per-lane recovery in lane order; recovered lanes re-enter their
        region head via the frontier."""
        for lane in np.flatnonzero(fault).tolist():
            # Every masked-read fault path records the register name that
            # tripped via state.note_fault, so the error text matches the
            # scalar backend's byte for byte.
            self._recover_lane(state, lane, ParityError(state.fault_reg[lane]))
            region = int(state.region_block[lane])
            lane_mask = np.zeros(state.lanes, dtype=bool)
            lane_mask[lane] = True
            state.enter_block(lane_mask, region)
            state.frontier.append((region, 0, lane_mask))

    def _recover_lane(self, state, lane: int, err: ParityError) -> None:
        t = state.lane_view(lane)
        region_label = t.region_label
        reexec = int(state.executed[lane] - state.region_entry_executed[lane])
        obs.event(
            "sim.detect",
            region=region_label,
            ctaid=state.ctaid,
            tid=lane,
            reexec_insts=reexec,
        )
        with obs.span(
            "sim.recover",
            region=region_label,
            ctaid=state.ctaid,
            tid=lane,
            reexec_insts=reexec,
        ):
            if self._recovery_runtime is None:
                raise UnrecoverableError(
                    f"{err} in thread ({state.ctaid},{lane}) with no "
                    f"recovery runtime",
                    cause="no_runtime",
                )
            state.recoveries[lane] += 1
            if state.recoveries[lane] > self.max_recoveries:
                raise UnrecoverableError(
                    f"thread ({state.ctaid},{lane}) exceeded recovery "
                    f"budget of {self.max_recoveries}",
                    cause="budget_exhausted",
                )
            self._recovery_runtime.recover(
                t, state.env, err, fault_plan=self.fault_plan
            )
        tracer = obs.current_tracer()
        if tracer is not None:
            tracer.counters.inc("sim.reexec_insts_total", reexec)
            tracer.counters.observe_value(f"sim.reexec.{region_label}", reexec)

    # -- operand handling --

    def _read_operand(self, state, desc, mask, fault):
        """Returns ``(values, mask, fault)`` where ``values`` is a uint64
        array or a python int, and ``mask`` excludes newly faulted lanes."""
        kind = desc[0]
        if kind == OP_REG:
            vals, f = state.vrf.read_masked(desc[1], mask)
            if f is not None:
                state.note_fault(f, desc[2])
                fault = f if fault is None else (fault | f)
                mask = mask & ~f
            return vals, mask, fault
        if kind == OP_CONST:
            return desc[1], mask, fault
        if kind == OP_SPECIAL:
            return state.special(desc[2]), mask, fault
        return state.env.symbol_address(desc[2]), mask, fault

    # -- instruction semantics --

    def _exec_alu(self, state, d, mask, fault):
        vals = []
        for s in d.srcs:
            v, mask, fault = self._read_operand(state, s, mask, fault)
            vals.append(v)
        if mask.any():
            result = _valu_compute(d.op, d.dtype, vals, state)
            state.vrf.write_masked(d.dst, mask, result)
        return mask, fault

    def _exec_setp(self, state, d, mask, fault):
        a, mask, fault = self._read_operand(state, d.srcs[0], mask, fault)
        b, mask, fault = self._read_operand(state, d.srcs[1], mask, fault)
        if mask.any():
            res = _vcompare(d.cmp, d.dtype, a, b, state)
            state.vrf.write_masked(
                d.dst, mask, res.astype(_U64)
            )
        return mask, fault

    def _exec_selp(self, state, d, mask, fault):
        a, mask, fault = self._read_operand(state, d.srcs[0], mask, fault)
        b, mask, fault = self._read_operand(state, d.srcs[1], mask, fault)
        p, pf = state.vrf.read_masked(d.pred[0], mask)
        if pf is not None:
            state.note_fault(pf, d.pred[1])
            fault = pf if fault is None else (fault | pf)
            mask = mask & ~pf
        if mask.any():
            a = _bcast(a, state.lanes)
            b = _bcast(b, state.lanes)
            res = np.where((p & _U64(_MASK32)) != 0, a, b)
            state.vrf.write_masked(d.dst, mask, res)
        return mask, fault

    def _resolve_store(self, state, space):
        if space is MemSpace.GLOBAL:
            return state.env.mem.global_mem
        if space is MemSpace.SHARED:
            return state.env.shared
        if space is MemSpace.CONST:
            return state.env.mem.const_mem
        if space is MemSpace.LOCAL:
            return None  # per-lane
        raise SimulationError(f"cannot access space {space}")

    def _addrs(self, state, d, mask, fault):
        base, mask, fault = self._read_operand(state, d.base, mask, fault)
        if isinstance(base, np.ndarray):
            addrs = (base + _U64(d.offset % (1 << 64))) & _U64(_MASK32)
        else:
            addrs = np.full(
                state.lanes, (int(base) + d.offset) & _MASK32, dtype=_U64
            )
        return addrs, mask, fault

    def _exec_ld(self, state, d, mask, fault):
        addrs, mask, fault = self._addrs(state, d, mask, fault)
        if not mask.any():
            return mask, fault
        store = self._resolve_store(state, d.space)
        if store is None:
            vals = np.zeros(state.lanes, dtype=_U64)
            a = addrs.tolist()
            vals[mask] = [
                state.local_store(lane).load(a[lane])
                for lane in np.flatnonzero(mask).tolist()
            ]
        else:
            vals = _batch_load(store, addrs, mask, state.lanes)
        state.vrf.write_masked(d.dst, mask, vals)
        return mask, fault

    def _exec_st(self, state, d, mask, fault):
        addrs, mask, fault = self._addrs(state, d, mask, fault)
        vals, mask, fault = self._read_operand(state, d.src, mask, fault)
        if not mask.any():
            return mask, fault
        store = self._resolve_store(state, d.space)
        if store is None:
            a = addrs.tolist()
            v = _lane_list(vals, state.lanes)
            for lane in np.flatnonzero(mask).tolist():
                state.local_store(lane).store(a[lane], v[lane])
        else:
            _batch_store(store, addrs, vals, mask)
        return mask, fault

    def _exec_atom(self, state, d, mask, fault):
        addrs, mask, fault = self._addrs(state, d, mask, fault)
        srcs, mask, fault = self._read_operand(state, d.src, mask, fault)
        if not mask.any():
            return mask, fault
        shared_store = self._resolve_store(state, d.space)
        old_vals = np.zeros(state.lanes, dtype=_U64)
        done = np.zeros(state.lanes, dtype=bool)
        a = addrs.tolist()
        s = _lane_list(srcs, state.lanes)
        for lane in np.flatnonzero(mask).tolist():
            store = (
                shared_store
                if shared_store is not None
                else state.local_store(lane)
            )
            addr = a[lane]
            src = s[lane]
            old = store.load(addr)
            op = d.op
            if op == "add":
                new = (old + src) & _MASK32
            elif op == "exch":
                new = src
            elif op == "max":
                new = max(_signed(old), _signed(src)) & _MASK32
            elif op == "min":
                new = min(_signed(old), _signed(src)) & _MASK32
            elif op == "cas":
                lane_mask = np.zeros(state.lanes, dtype=bool)
                lane_mask[lane] = True
                val, lm, lf = self._read_operand(
                    state, d.src2, lane_mask, None
                )
                if lf is not None and lf.any():
                    fault = lf if fault is None else (fault | lf)
                    mask = mask & ~lf
                    continue
                val = _lane_list(val, state.lanes)[lane]
                new = val if old == src else old
            else:
                raise SimulationError(f"unknown atomic {op}")
            store.store(addr, new)
            old_vals[lane] = old
            done[lane] = True
        if done.any():
            state.vrf.write_masked(d.dst, done, old_vals)
        return mask, fault


# -- lane state of one thread block -------------------------------------------------


class _VBlockState:
    """Per-block lane arrays plus the shared scheduler worklists."""

    def __init__(self, ex: VectorExecutor, launch: Launch, env, ctaid: int):
        lanes = launch.block
        self.ex = ex
        self.env = env
        self.ctaid = ctaid
        self.lanes = lanes
        self.labels = ex.labels
        self.vrf = VRegisterFile(
            lanes,
            ex.rf_code_factory(),
            list(ex._reg_names),
            protected=ex.kernel.meta.get("protected_registers"),
        )
        self.executed = np.zeros(lanes, dtype=_I64)
        self.recoveries = np.zeros(lanes, dtype=_I64)
        self.region_entry_executed = np.zeros(lanes, dtype=_I64)
        entry_idx = ex._block_index[ex.kernel.entry.label]
        self.region_block = np.full(lanes, entry_idx, dtype=np.int32)
        self.visits: Dict[str, np.ndarray] = {
            ex.kernel.entry.label: np.ones(lanes, dtype=_I64)
        }
        self.done_count = 0
        #: instructions stepped so far (the watchdog's guard)
        self.steps = 0
        self.frontier: List[Tuple[int, int, np.ndarray]] = [
            (entry_idx, 0, np.ones(lanes, dtype=bool))
        ]
        self.parked: List[Tuple[int, int, np.ndarray]] = []
        self._locals: Dict[int, WordStore] = {}
        self._lane_views: Dict[int, _LaneView] = {}
        self._specials: Dict[str, object] = {}
        self.fault_reg: List[Optional[str]] = [None] * lanes
        #: the instruction the fault hooks fire for: its ``(block, index)``,
        #: the branch target and mask of the lanes that took it, and the
        #: mask of the lanes it retired
        self.step: Optional[tuple] = None

    def lane_view(self, lane: int) -> _LaneView:
        view = self._lane_views.get(lane)
        if view is None:
            view = self._lane_views[lane] = _LaneView(self, lane)
        return view

    def local_store(self, lane: int) -> WordStore:
        store = self._locals.get(lane)
        if store is None:
            store = self._locals[lane] = WordStore(
                f"local[{self.ctaid},{lane}]", size_bytes=1 << 16
            )
        return store

    def note_fault(self, fault_mask: np.ndarray, reg_name: str) -> None:
        for lane in np.flatnonzero(fault_mask).tolist():
            self.fault_reg[lane] = reg_name

    def special(self, name: str):
        val = self._specials.get(name)
        if val is None:
            if name == "%tid.x":
                val = np.arange(self.lanes, dtype=_U64)
            elif name == "%tid.y":
                val = 0
            elif name == "%ntid.x":
                val = self.env.launch.block
            elif name == "%ntid.y":
                val = 1
            elif name == "%ctaid.x":
                val = self.ctaid
            elif name == "%ctaid.y":
                val = 0
            elif name == "%nctaid.x":
                val = self.env.launch.grid
            elif name == "%nctaid.y":
                val = 1
            else:
                raise SimulationError(f"unknown special register {name}")
            self._specials[name] = val
        return val

    def enter_block(self, mask: np.ndarray, block_idx: int) -> None:
        label = self.labels[block_idx]
        counts = self.visits.get(label)
        if counts is None:
            counts = self.visits[label] = np.zeros(self.lanes, dtype=_I64)
        counts += mask
        if label in self.ex._recovery_labels:
            self.region_block[mask] = block_idx
            self.region_entry_executed[mask] = self.executed[mask]

    def retire(self, mask: np.ndarray) -> None:
        self.done_count += int(mask.sum())

    # -- aggregation (same formulas as the scalar ``_run_block``) --

    def aggregate(self, result: ExecutionResult) -> None:
        lanes = self.lanes
        result.rf_reads += int(self.vrf.reads.sum())
        result.rf_writes += int(self.vrf.writes.sum())
        result.detections += int(self.vrf.detections.sum())
        result.recoveries += int(self.recoveries.sum())
        result.instructions += int(self.executed.sum())
        for lane in range(lanes):
            result.thread_instructions[(self.ctaid, lane)] = int(
                self.executed[lane]
            )
        result.threads += lanes

        block_classes = self._static_block_classes()
        warp_size = 32
        for w in range((lanes + warp_size - 1) // warp_size):
            lo, hi = w * warp_size, min((w + 1) * warp_size, lanes)
            merged: Counter = Counter()
            for label, counts in self.visits.items():
                entries = int(counts[lo:hi].max())
                if not entries:
                    continue
                for cls, per_visit in block_classes[label].items():
                    merged[cls] += per_visit * entries
            result.warp_counts[(self.ctaid, w)] = merged
        result.shared_accesses += self.env.shared.reads + self.env.shared.writes
        result.global_accesses = (
            self.env.mem.global_mem.reads + self.env.mem.global_mem.writes
        )

    def _static_block_classes(self) -> Dict[str, Counter]:
        cached = getattr(self.ex, "_block_classes", None)
        if cached is not None:
            return cached
        table: Dict[str, Counter] = {}
        for blk in self.ex.kernel.blocks:
            counts: Counter = Counter()
            for inst in blk.instructions:
                counts[_classify(inst)] += 1
            table[blk.label] = counts
        self.ex._block_classes = table
        return table


# -- batched memory -----------------------------------------------------------------


def _fast_access(store: WordStore, a: np.ndarray) -> bool:
    """Can the (non-empty) masked addresses ``a`` skip the per-lane
    checks?  Yes when all are aligned and in bounds and the store holds
    no poisoned word."""
    return (
        not store.poisoned
        and not (a & _U64(3)).any()
        and int(a.max()) + 4 <= store.size_bytes
    )


def _batch_load(store: WordStore, addrs: np.ndarray, mask, lanes: int):
    """Masked gather with the scalar :meth:`WordStore.load` semantics.
    The fast path is one ``dict.get`` per lane and one counter move;
    otherwise each lane loads in lane order, so the first misbehaving
    lane raises exactly the scalar exception after the same counter
    moves."""
    vals = np.zeros(lanes, dtype=_U64)
    a = addrs[mask]
    if _fast_access(store, a):
        words = store.words
        keys = (a >> _U64(2)).tolist()
        store.reads += len(keys)
        vals[mask] = [words.get(k, 0) for k in keys]
    else:
        load = store.load
        vals[mask] = [load(addr) for addr in a.tolist()]
    return vals


def _batch_store(store: WordStore, addrs: np.ndarray, values, mask) -> None:
    """Masked scatter with the scalar :meth:`WordStore.store` semantics:
    one ``dict.update`` in lane order on the fast path, so a later lane
    wins on a shared address; per lane otherwise (as in
    :func:`_batch_load`)."""
    a = addrs[mask]
    if isinstance(values, np.ndarray):
        vals = (values[mask] & _U64(_MASK32)).tolist()
    else:
        vals = [int(values) & _MASK32] * len(a)
    if _fast_access(store, a):
        store.writes += len(vals)
        store.words.update(zip((a >> _U64(2)).tolist(), vals))
    else:
        for addr, val in zip(a.tolist(), vals):
            store.store(addr, val)


def _lane_list(values, lanes: int) -> List[int]:
    """Every lane's value of an operand as a list of ints."""
    if isinstance(values, np.ndarray):
        return values.tolist()
    return [int(values)] * lanes


def _bcast(v, lanes: int) -> np.ndarray:
    if isinstance(v, np.ndarray):
        return v
    return np.full(lanes, int(v) & _MASK32, dtype=_U64)


def _signed(b: int) -> int:
    b &= _MASK32
    return b - (1 << 32) if b & (1 << 31) else b


# -- vectorized ALU semantics -------------------------------------------------------


def _as_f64(bits) -> np.ndarray:
    """uint64 bit patterns -> float32 view -> float64 (cvtss2sd, the same
    hardware widening the scalar ``b2f`` performs via struct)."""
    b32 = (bits & _U64(_MASK32)).astype(np.uint32)
    return b32.view(np.float32).astype(np.float64)


def _to_f32_bits(f64: np.ndarray) -> np.ndarray:
    """float64 -> float32 (one rounding, as ``f2b``) -> uint64 bits."""
    return f64.astype(np.float32).view(np.uint32).astype(_U64)


def _valu_compute(op: str, dt: DType, vals, state) -> np.ndarray:
    lanes = state.lanes
    vals = [_bcast(v, lanes) for v in vals]
    if op == "cvt":
        if dt.is_float:
            s = vals[0].astype(_I64)
            s = np.where(s >= _I64(1 << 31), s - _I64(1 << 32), s)
            return _to_f32_bits(s.astype(np.float64))
        f = _as_f64(vals[0])
        out = np.zeros(lanes, dtype=_U64)
        finite = np.isfinite(f)
        big = finite & (np.abs(f) >= float(1 << 62))
        small = finite & ~big
        if small.any():
            out[small] = (
                np.trunc(f[small]).astype(_I64).astype(_U64) & _U64(_MASK32)
            )
        for lane in np.flatnonzero(big).tolist():
            out[lane] = int(f[lane]) & _MASK32
        return out
    if dt.is_float:
        return _vfloat_op(op, vals, lanes)
    return _vint_op(op, dt, vals)


def _vfloat_op(op: str, vals, lanes: int) -> np.ndarray:
    if op in _LANE_FLOAT_OPS:
        # Per-lane through the scalar helper: one libm for both backends.
        f = [_as_f64(v) for v in vals]
        out = np.zeros(lanes, dtype=_U64)
        for lane in range(lanes):
            out[lane] = f2b(_float_op(op, [float(x[lane]) for x in f]))
        return out
    a = _as_f64(vals[0])
    b = _as_f64(vals[1]) if len(vals) > 1 else None
    c = _as_f64(vals[2]) if len(vals) > 2 else None
    if op == "mov":
        r = a
    elif op == "add":
        r = a + b
    elif op == "sub":
        r = a - b
    elif op == "mul":
        r = a * b
    elif op in ("mad", "fma"):
        r = a * b + c
    elif op == "div":
        # Scalar semantics: b == 0 -> +/-inf by the *numerator's* sign
        # comparison (not IEEE's signed-zero rule), nan when a == 0 too.
        safe = np.where(b == 0.0, 1.0, b)
        r = np.where(
            b == 0.0,
            np.where(a > 0, math.inf, np.where(a < 0, -math.inf, math.nan)),
            a / safe,
        )
    elif op == "rem":
        safe = np.where(b == 0.0, 1.0, b)
        r = np.where(b == 0.0, math.nan, np.fmod(a, safe))
    elif op == "min":
        r = np.where(b < a, b, a)  # python min(): nan-keeps-a
    elif op == "max":
        r = np.where(b > a, b, a)
    elif op == "neg":
        r = -a
    elif op == "abs":
        r = np.abs(a)
    elif op == "sqrt":
        r = np.where(a >= 0, np.sqrt(np.abs(a)), math.nan)
    elif op == "rcp":
        safe = np.where(a == 0.0, 1.0, a)
        r = np.where(a == 0.0, math.inf, 1.0 / safe)
    else:
        raise SimulationError(f"unknown float op {op}")
    return _to_f32_bits(r)


def _vint_op(op: str, dt: DType, vals) -> np.ndarray:
    raw = [v & _U64(_MASK32) for v in vals]
    if op == "mov":
        return raw[0]
    if op == "and":
        return raw[0] & raw[1]
    if op == "or":
        return raw[0] | raw[1]
    if op == "xor":
        return raw[0] ^ raw[1]
    if op == "not":
        return ~raw[0] & _U64(_MASK32)
    if op == "shl":
        return (raw[0] << (raw[1] & _U64(31))) & _U64(_MASK32)
    if op == "shr":
        sh = raw[1] & _U64(31)
        if dt.is_signed:
            a = _signed_arr(raw[0])
            return (a >> sh.astype(_I64)).astype(_U64) & _U64(_MASK32)
        return raw[0] >> sh

    if dt.is_signed:
        a = _signed_arr(raw[0])
        b = _signed_arr(raw[1]) if len(raw) > 1 else None
        c = _signed_arr(raw[2]) if len(raw) > 2 else None
        if op == "add":
            r = a + b
        elif op == "sub":
            r = a - b
        elif op == "mul":
            r = a * b
        elif op == "mulhi":
            r = (a * b) >> _I64(32)
        elif op == "mad":
            r = a * b + c
        elif op == "div":
            safe = np.where(b == 0, _I64(1), b)
            q = np.abs(a) // np.abs(safe)
            q = np.where((a < 0) != (b < 0), -q, q)
            r = np.where(b == 0, _I64(0), q)
        elif op == "rem":
            safe = np.where(b == 0, _I64(1), b)
            m = np.abs(a) % np.abs(safe)
            m = np.where(a < 0, -m, m)
            r = np.where(b == 0, _I64(0), m)
        elif op == "min":
            r = np.minimum(a, b)
        elif op == "max":
            r = np.maximum(a, b)
        elif op == "neg":
            r = -a
        elif op == "abs":
            r = np.abs(a)
        else:
            raise SimulationError(f"unknown integer op {op}")
        return (r & _I64(_MASK32)).astype(_U64)

    a = raw[0]
    b = raw[1] if len(raw) > 1 else None
    c = raw[2] if len(raw) > 2 else None
    if op == "add":
        r = a + b
    elif op == "sub":
        r = a - b
    elif op == "mul":
        r = a * b
    elif op == "mulhi":
        r = (a * b) >> _U64(32)
    elif op == "mad":
        r = a * b + c
    elif op == "div":
        safe = np.where(b == _U64(0), _U64(1), b)
        r = np.where(b == _U64(0), _U64(0), a // safe)
    elif op == "rem":
        safe = np.where(b == _U64(0), _U64(1), b)
        r = np.where(b == _U64(0), _U64(0), a % safe)
    elif op == "min":
        r = np.minimum(a, b)
    elif op == "max":
        r = np.maximum(a, b)
    elif op == "neg":
        r = -a  # wraps mod 2**64; masked below
    elif op == "abs":
        r = a
    else:
        raise SimulationError(f"unknown integer op {op}")
    return r & _U64(_MASK32)


def _signed_arr(raw: np.ndarray) -> np.ndarray:
    a = raw.astype(_I64)
    return np.where(a >= _I64(1 << 31), a - _I64(1 << 32), a)


def _vcompare(cmp: str, dt: DType, a, b, state) -> np.ndarray:
    lanes = state.lanes
    a = _bcast(a, lanes)
    b = _bcast(b, lanes)
    if dt.is_float:
        fa, fb = _as_f64(a), _as_f64(b)
        anynan = np.isnan(fa) | np.isnan(fb)
        res = {
            "eq": fa == fb,
            "ne": fa != fb,
            "lt": fa < fb,
            "le": fa <= fb,
            "gt": fa > fb,
            "ge": fa >= fb,
        }[cmp]
        return np.where(anynan, cmp == "ne", res)
    if dt.is_signed:
        va, vb = _signed_arr(a), _signed_arr(b)
    else:
        va, vb = a & _U64(_MASK32), b & _U64(_MASK32)
    return {
        "eq": va == vb,
        "ne": va != vb,
        "lt": va < vb,
        "le": va <= vb,
        "gt": va > vb,
        "ge": va >= vb,
    }[cmp]
