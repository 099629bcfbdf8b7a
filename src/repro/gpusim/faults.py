"""Soft-error fault injection: plans, outcomes and the DUE taxonomy.

A *fault plan* is the executor's injection hook.  The register file is
struck by :class:`FaultPlan` (flip codeword bits of one register at one
dynamic point) and :class:`RateFaultPlan` (continuous pressure); the
other surfaces are:

- :class:`CheckpointFaultPlan` strikes a checkpoint slot in shared/global
  memory under a simulated SECDED correct-or-escalate model (1 bit →
  corrected, 2 bits → poisoned/detected-uncorrectable, ≥3 bits → silent
  corruption),
- :class:`RecoveryFaultPlan` strikes *during* recovery — between restore
  actions or just before a slot load — exercising re-entrant recovery
  under the executor's ``max_recoveries_per_thread`` budget,
- :class:`ComposedFaultPlan` combines plans (e.g. an RF fault that
  triggers recovery plus a checkpoint-slot fault recovery must survive).

Each injected execution is classified:

- ``MASKED``    — corrupted state never observed (dead register, slot
  overwritten, or ECC corrected it); output matches golden.
- ``RECOVERED`` — parity fired, recovery re-executed, output matches.
- ``SDC``       — output differs from golden (silent data corruption —
  possible only when the flipped bits exceed the code's detection
  guarantee, e.g. 2 flips under single parity).
- ``DUE``       — detected but unrecoverable; every DUE additionally
  carries a :class:`DueType` label saying *why* (see below).

:class:`repro.gpusim.campaign.FaultCampaign` runs plans and classifies
them, and with them checks the paper's Appendix A empirically: with
parity detection + Penny recovery, single-bit faults never produce SDC
and never need in-region detection.
"""

from __future__ import annotations

import enum
import hashlib
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.gpusim.executor import (
    SimulationError,
    ThreadContext,
    UnrecoverableError,
    WatchdogTimeout,
)
from repro.gpusim.memory import MemoryError32


class DueType(enum.Enum):
    """Why a detected error could not be recovered.

    The single lossy ``DUE`` bucket of early campaigns hid six distinct
    failure modes; field studies (NSREC 2021) show they have different
    sources and different fixes, so the engine reports them separately.
    """

    #: detection fired on a kernel with no recovery runtime at all
    NO_RUNTIME = "no_runtime"
    #: recovery re-entered more than ``max_recoveries_per_thread`` times
    BUDGET_EXHAUSTED = "budget_exhausted"
    #: recovery table / storage map / slot lookup came up empty
    MISSING_METADATA = "missing_metadata"
    #: a recovery slice could not be evaluated
    SLICE_FAILURE = "slice_failure"
    #: a memory access faulted (bad address from corrupted state, or an
    #: ECC detected-uncorrectable word)
    MEMORY_EXCEPTION = "memory_exception"
    #: the per-injection instruction-budget watchdog fired (runaway loop,
    #: control-flow escape, barrier livelock)
    WATCHDOG_TIMEOUT = "watchdog_timeout"
    #: the *harness* worker running the injection died repeatedly
    #: (segfault, OOM-kill, wall-clock hang) and the supervised pool
    #: quarantined the index — the sweep-level DUE: the injection's
    #: outcome is unknowable, but the campaign survives and accounts it
    WORKER_CRASH = "worker_crash"


def classify_due(exc: BaseException) -> DueType:
    """Map a simulator exception to its DUE-taxonomy label.

    Every :class:`UnrecoverableError` raise site tags its own cause;
    memory faults and watchdog fires are recognized by type.  A generic
    :class:`SimulationError` (deadlock, control-flow escape off the kernel
    end) is what the harness watchdog exists to catch, so it lands in
    ``WATCHDOG_TIMEOUT``.
    """
    if isinstance(exc, UnrecoverableError):
        try:
            return DueType(exc.cause)
        except ValueError:
            return DueType.SLICE_FAILURE
    if isinstance(exc, WatchdogTimeout):
        return DueType.WATCHDOG_TIMEOUT
    if isinstance(exc, MemoryError32):
        return DueType.MEMORY_EXCEPTION
    if isinstance(exc, SimulationError):
        return DueType.WATCHDOG_TIMEOUT
    raise TypeError(f"cannot classify {exc!r} as a DUE")


def _thread_stream_seed(seed: int, ctaid: int, tid: int) -> int:
    """A per-thread RNG stream seed, stable across platforms and engines.

    Deriving one independent stream per thread (instead of consuming a
    shared RNG in hook-call order) is what makes rate-style plans
    backend-invariant: the scalar and vector engines interleave threads
    differently, but each thread's *own* hook sequence — and therefore
    its draws — is identical under both.
    """
    digest = hashlib.sha256(
        f"fault-stream:{seed}:{ctaid}:{tid}".encode()
    ).digest()
    return int.from_bytes(digest[:8], "big")


@dataclass
class FaultPlan:
    """One scheduled register-file injection."""

    ctaid: int
    tid: int
    after_instructions: int
    reg_name: Optional[str] = None  # None = random live register
    bits: Tuple[int, ...] = (0,)
    rng_seed: int = 0

    injected: bool = field(default=False, compare=False)
    hit_register: Optional[str] = field(default=None, compare=False)

    def hook_threads(self) -> Optional[List[Tuple[int, int]]]:
        """The (ctaid, tid) pairs whose hooks can have any effect, or
        ``None`` for "every thread".  Lets the lane-parallel engine skip
        the per-lane hook loop for lanes a targeted plan ignores."""
        return [(self.ctaid, self.tid)]

    def after_instruction(self, t: ThreadContext, env=None) -> None:
        """Executor hook: called after each instruction of each thread."""
        if self.injected:
            return
        if t.ctaid != self.ctaid or t.tid != self.tid:
            return
        if t.executed < self.after_instructions:
            return
        reg = self.reg_name
        if reg is None:
            reg = t.rf.random_register(random.Random(self.rng_seed))
            if reg is None:
                return
        if t.rf.flip_bits(reg, self.bits):
            self.injected = True
            self.hit_register = reg


@dataclass
class RateFaultPlan:
    """Continuous fault pressure: every thread suffers a single-bit flip on
    a random live register roughly every ``interval`` dynamic instructions.

    Used to quantify the recovery procedure's cost as a function of fault
    rate (§3.1's Amdahl argument: at realistic rates — one strike per *day*
    — recovery time is invisible; this plan lets the simulator dial the
    rate up until it is not).

    Each thread draws from its own RNG stream (derived from ``seed`` and
    the thread's coordinates via :func:`_thread_stream_seed`), so the
    injection schedule depends only on per-thread execution — not on how
    an engine interleaves threads — and is identical under the scalar and
    vector backends."""

    interval: int
    seed: int = 0
    bit_range: int = 33

    injections: int = field(default=0, compare=False)

    def __post_init__(self):
        if self.interval < 1:
            raise ValueError("interval must be >= 1")
        self.reset()

    def reset(self) -> None:
        """Re-arm the plan for a fresh run.  The executor calls this at
        every ``run()`` start, so reusing one plan object across runs
        cannot leak the previous run's schedule (``_streams``) or its
        ``injections`` count into the next campaign."""
        #: (ctaid, tid) -> [rng, next-due executed count]
        self._streams: Dict[Tuple[int, int], List] = {}
        self.injections = 0

    @property
    def injected(self) -> bool:
        return self.injections > 0

    def after_instruction(self, t: ThreadContext, env=None) -> None:
        key = (t.ctaid, t.tid)
        stream = self._streams.get(key)
        if stream is None:
            rng = random.Random(
                _thread_stream_seed(self.seed, t.ctaid, t.tid)
            )
            stream = self._streams[key] = [rng, rng.randint(1, self.interval)]
        rng, due = stream
        if t.executed < due:
            return
        stream[1] = t.executed + rng.randint(1, 2 * self.interval)
        reg = t.rf.random_register(rng)
        if reg is None:
            return
        if t.rf.flip_bits(reg, [rng.randrange(self.bit_range)]):
            self.injections += 1


#: SECDED(39,32) codeword width used for the memory-side ECC model
_ECC_CODEWORD_BITS = 39


@dataclass
class CheckpointFaultPlan:
    """Strike a checkpoint slot in shared/global memory at a dynamic point.

    The paper assumes checkpoint storage is ECC-protected and therefore
    fault-free; this plan models that ECC honestly instead.  ``num_bits``
    upset bits are drawn over the slot word's SECDED(39,32) codeword:

    - 1 bit  → the code corrects it; the program observes nothing
      (``effect == "corrected"``),
    - 2 bits → detected-uncorrectable; the word is poisoned and the next
      load (a recovery restore) raises ``EccUncorrectableError``
      (``effect == "poisoned"``),
    - ≥3 bits → the code can miscorrect; data bits among the upset
      positions silently flip (``effect == "corrupted"``) — or the word is
      poisoned when only check bits were hit.

    The slot struck belongs to the target thread itself (the thread whose
    recovery would read it), chosen deterministically from ``rng_seed``.
    """

    ctaid: int
    tid: int
    after_instructions: int
    num_bits: int = 1
    rng_seed: int = 0
    storage: Optional[object] = field(default=None, compare=False, repr=False)

    injected: bool = field(default=False, compare=False)
    effect: Optional[str] = field(default=None, compare=False)
    hit_slot: Optional[str] = field(default=None, compare=False)

    def hook_threads(self) -> Optional[List[Tuple[int, int]]]:
        return [(self.ctaid, self.tid)]

    def after_instruction(self, t: ThreadContext, env=None) -> None:
        if self.injected or env is None:
            return
        if t.ctaid != self.ctaid or t.tid != self.tid:
            return
        if t.executed < self.after_instructions:
            return
        storage = self.storage
        if storage is None or not getattr(storage, "slots", None):
            # Nothing to strike (kernel keeps no checkpoints); mark the
            # plan spent so it does not re-fire every instruction.
            self.injected = False
            self.effect = "no_slots"
            self.after_instructions = float("inf")  # type: ignore[assignment]
            return
        from repro.gpusim.recovery import slot_location

        rng = random.Random(self.rng_seed)
        keys = sorted(storage.slots)
        reg_name, color = keys[rng.randrange(len(keys))]
        slot = storage.slots[(reg_name, color)]
        try:
            store, addr = slot_location(storage, slot, t, env)
        except KeyError:
            # No shared checkpoint area in this launch.
            self.effect = "no_slots"
            self.after_instructions = float("inf")  # type: ignore[assignment]
            return
        positions = rng.sample(range(_ECC_CODEWORD_BITS), self.num_bits)
        if len(positions) == 1:
            store.ecc_correct(addr)
            self.effect = "corrected"
        elif len(positions) == 2:
            store.poison(addr)
            self.effect = "poisoned"
        else:
            data_bits = [p for p in positions if p < 32]
            if data_bits:
                mask = 0
                for p in data_bits:
                    mask |= 1 << p
                store.corrupt(addr, mask)
                self.effect = "corrupted"
            else:
                store.poison(addr)
                self.effect = "poisoned"
        self.injected = True
        self.hit_slot = (
            f"{reg_name}/c{color}@{slot.kind.value}[{slot.index}]"
        )


@dataclass
class RecoveryFaultPlan:
    """A fault that strikes *while recovery itself is running*.

    ``primary`` is the register-file fault that triggers recovery in the
    first place.  Once the target thread's recovery executes its
    ``strike_restore``-th restore action, the secondary strike fires:

    - ``mode == "register"``: the *just-restored* register is re-corrupted
      immediately after its restore write — the nastiest re-entrancy case,
      since recovery completed "successfully" yet left poisoned state that
      the next read must re-detect and re-recover.
    - ``mode == "slot"``: the checkpoint slot the upcoming restore action
      is about to load is poisoned first (mid-slice / mid-restore ECC
      escalation), so the load itself raises.

    ``repeat=True`` re-strikes on *every* recovery, which must drive the
    thread into the recovery budget (``budget_exhausted``) or the watchdog
    — never a hang.
    """

    primary: FaultPlan
    strike_restore: int = 0
    mode: str = "register"  # "register" | "slot"
    bits: Tuple[int, ...] = (0,)
    repeat: bool = False
    storage: Optional[object] = field(default=None, compare=False, repr=False)

    strikes: int = field(default=0, compare=False)

    def __post_init__(self):
        if self.mode not in ("register", "slot"):
            raise ValueError(f"unknown recovery-fault mode {self.mode!r}")

    def hook_threads(self) -> Optional[List[Tuple[int, int]]]:
        return [(self.primary.ctaid, self.primary.tid)]

    @property
    def injected(self) -> bool:
        return self.primary.injected

    def after_instruction(self, t: ThreadContext, env=None) -> None:
        self.primary.after_instruction(t, env)

    def _armed(self, t: ThreadContext, idx: int) -> bool:
        if t.ctaid != self.primary.ctaid or t.tid != self.primary.tid:
            return False
        if self.strikes and not self.repeat:
            return False
        return idx == self.strike_restore

    def before_restore(self, t: ThreadContext, env, action, idx: int) -> None:
        if self.mode != "slot" or not self._armed(t, idx):
            return
        if not action.is_slot or self.storage is None:
            return
        slot = self.storage.slots.get((action.reg_name, action.slot_color))
        if slot is None:
            return
        from repro.gpusim.recovery import slot_location

        try:
            store, addr = slot_location(self.storage, slot, t, env)
        except KeyError:
            return
        store.poison(addr)
        self.strikes += 1

    def after_restore(self, t: ThreadContext, env, action, idx: int) -> None:
        if self.mode != "register" or not self._armed(t, idx):
            return
        if t.rf.flip_bits(action.reg_name, self.bits):
            self.strikes += 1


@dataclass
class ComposedFaultPlan:
    """Run several plans in one execution (e.g. the RF fault that triggers
    recovery plus the checkpoint-slot fault recovery must then survive)."""

    plans: List[object] = field(default_factory=list)

    def hook_threads(self) -> Optional[List[Tuple[int, int]]]:
        """Union of the children's targets; ``None`` (all threads) as soon
        as any child is untargeted."""
        targets: List[Tuple[int, int]] = []
        for p in self.plans:
            getter = getattr(p, "hook_threads", None)
            child = getter() if callable(getter) else None
            if child is None:
                return None
            for key in child:
                if key not in targets:
                    targets.append(key)
        return targets

    @property
    def injected(self) -> bool:
        return any(p.injected for p in self.plans)

    def reset(self) -> None:
        for p in self.plans:
            reset = getattr(p, "reset", None)
            if reset is not None:
                reset()

    def after_instruction(self, t: ThreadContext, env=None) -> None:
        for p in self.plans:
            p.after_instruction(t, env)

    def before_restore(self, t: ThreadContext, env, action, idx: int) -> None:
        for p in self.plans:
            hook = getattr(p, "before_restore", None)
            if hook is not None:
                hook(t, env, action, idx)

    def after_restore(self, t: ThreadContext, env, action, idx: int) -> None:
        for p in self.plans:
            hook = getattr(p, "after_restore", None)
            if hook is not None:
                hook(t, env, action, idx)


class FaultOutcome(enum.Enum):
    MASKED = "masked"
    RECOVERED = "recovered"
    SDC = "sdc"
    DUE = "due"
    NOT_INJECTED = "not_injected"
