"""The fault-injection campaign engine.

Every injection takes one path, :meth:`FaultCampaign.run_one`: a
:class:`FaultCampaign` runs a kernel's golden launch once, then runs
each fault plan against it and classifies the run into an
:class:`InjectionRecord`.  :meth:`FaultCampaign.run_random` draws plain
register-file plans from one seed; :class:`ParallelCampaign` runs a
pure-data :class:`CampaignSpec`, one seeded plan per index, inline or
on a supervised worker pool:

- **Surfaces.**  Injections are drawn from three surfaces: the
  register file (``rf``), checkpoint slots in shared/global memory under a
  SECDED correct-or-escalate model (``ckpt``), and the recovery runtime
  itself — strikes between restore actions or just before a slot load
  (``recovery``), exercising re-entrant recovery under the
  ``max_recoveries_per_thread`` budget.

- **DUE taxonomy.**  Every detected-unrecoverable outcome carries a
  :class:`repro.gpusim.faults.DueType` label — ``no_runtime``,
  ``budget_exhausted``, ``missing_metadata``, ``slice_failure``,
  ``memory_exception`` or ``watchdog_timeout`` — instead of one lossy
  ``DUE`` bucket.

- **Scale.**  Injections run on the *supervised* worker pool
  (:class:`repro.runtime.pool.WorkerPool`) with deterministic per-index
  seeding (an injection's plan depends only on the campaign seed and its
  index, never on scheduling), a per-injection instruction-budget
  watchdog, a crash-safe JSONL journal that survives a mid-campaign kill
  and resumes to the identical final report, :meth:`CampaignReport.merge`
  for sharded campaigns, and Wilson-score confidence intervals on the
  outcome rates.

- **Fast-forward and early exit.**  A CTA depends only on global/const
  memory and params, so an injection starts at its plan's first target
  CTA from the golden run's memory and partial result at that
  boundary, and once past its last, stops where memory equals the
  golden run's: the rest of the launch is the golden run's, and its
  statistics complete the result.  Both are exact (records equal a
  full simulation's) and skipped only when every golden lane fits the
  watchdog budget, since a full run would time out in any CTA; a plan
  that names no target threads (``RateFaultPlan``) resumes at CTA 0.
  Likewise, a plain ``rf`` strike that flips a register dead at the
  struck lane's next pc (:class:`repro.analysis.liveness.Liveness` of
  the compiled kernel) stops the injection at once: parity fires only on
  a read and none comes before a redefinition, so the rest of the launch
  is the golden run's and the record takes its final result.  The
  ambient tracer counts ``campaign.ctas_skipped``,
  ``campaign.early_exits`` and ``campaign.dead_exits`` (a pool worker
  sends its counts back beside each record); records do not.

- **Supervision.**  A worker that segfaults, is OOM-killed, or hangs
  past the wall-clock deadline (``wall_timeout`` — distinct from the
  instruction-budget watchdog, which cannot fire when the *worker* is
  wedged) takes down exactly one injection attempt: the index is retried
  on another worker, and an index whose attempts kill
  ``poison_threshold`` consecutive workers is quarantined and journaled
  as a typed ``worker_crash`` DUE record — the sweep-level analogue of a
  detected-unrecoverable error, classified and survived instead of
  fatal.  SIGINT/SIGTERM drain gracefully: the journal is flushed, the
  partial report is tagged resumable, and ``--resume`` completes the
  sweep to the identical report.  At the end of an uninterrupted run the
  engine *reconciles*: every index accounted for exactly once
  (journaled ∪ retried ∪ quarantined) or a
  :class:`repro.runtime.errors.ReconciliationError` is raised.

Journal format (version 2): line 1 is a header ``{"spec": {...},
"version": 2}``; every subsequent line is one :class:`InjectionRecord`
as JSON.  Each line carries a CRC32 trailer (``<json>\\t<8-hex-crc>``)
so torn or bit-rotted records are *detected*, not silently mis-parsed;
:func:`fsck_journal` validates checksums and schema, skipping and
counting corrupt lines; a line without a trailer is corrupt.  Lines are
written append-only and flushed per record, so after a crash the
journal holds a header plus complete records (a torn final line is
detected and dropped on resume).
"""

from __future__ import annotations

import dataclasses
import errno
import hashlib
import json
import math
import os
import random
import signal
import threading
import zlib
from collections import Counter as _IndexCounter
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import repro.obs as obs
from repro.analysis.cfg import CFG
from repro.analysis.liveness import Liveness
from repro.coding import ParityCode
from repro.obs.metrics import Counters
from repro.gpusim.backend import make_executor
from repro.gpusim.executor import (
    ExecutionResult,
    Launch,
    SimulationError,
    _publish_counters,
    run_launch,
)
from repro.gpusim.faults import (
    CheckpointFaultPlan,
    ComposedFaultPlan,
    DueType,
    FaultOutcome,
    FaultPlan,
    RecoveryFaultPlan,
    classify_due,
)
from repro.gpusim.memory import MemoryError32, MemoryImage
from repro.ir.types import Reg
from repro.runtime.errors import (
    PoisonJobError,
    ReconciliationError,
    TaskRuntimeError,
)
from repro.runtime.pool import PoolConfig, WorkerPool

JOURNAL_VERSION = 2

#: surface label of records synthesized for quarantined indices (the
#: fault hit the *harness*, not a simulated structure)
SURFACE_HARNESS = "harness"


def _campaign_chaos():
    """Late-bound :func:`repro.serve.chaos.active_chaos` (lazy so
    importing the campaign engine does not pull in the serving stack)."""
    from repro.serve.chaos import active_chaos

    return active_chaos()

SURFACE_RF = "rf"
SURFACE_CKPT = "ckpt"
SURFACE_RECOVERY = "recovery"
ALL_SURFACES = (SURFACE_RF, SURFACE_CKPT, SURFACE_RECOVERY)


def stable_seed(campaign_seed: int, index: int) -> int:
    """Deterministic 63-bit seed for injection ``index`` of a campaign.

    Derived with SHA-256 so it is stable across processes, Python versions
    and ``PYTHONHASHSEED`` — the property the resumable journal and shard
    merging depend on (same seed → same plan → same outcome).
    """
    digest = hashlib.sha256(
        f"{campaign_seed}:{index}".encode("ascii")
    ).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def wilson_interval(
    successes: int, trials: int, z: float = 1.96
) -> Tuple[float, float, float]:
    """Wilson score interval: ``(rate, lower, upper)`` at confidence ``z``.

    Unlike the normal approximation it behaves at the boundaries — the
    regime campaigns care about, since the interesting rates (SDC on
    single-bit faults) are exactly zero and the claim is the upper bound.
    """
    if trials <= 0:
        return (0.0, 0.0, 1.0)
    p = successes / trials
    z2 = z * z
    denom = 1.0 + z2 / trials
    centre = (p + z2 / (2 * trials)) / denom
    half = (
        z
        * math.sqrt(p * (1 - p) / trials + z2 / (4 * trials * trials))
        / denom
    )
    return (p, max(0.0, centre - half), min(1.0, centre + half))


@dataclass(frozen=True)
class CampaignSpec:
    """Everything needed to (re)build a campaign anywhere.

    The spec is pure data so worker processes can reconstruct the compiled
    kernel, the golden run and every injection plan from it alone — that is
    what makes the journal resumable and shards mergeable.
    """

    benchmark: str
    scheme: str = "Penny"  # a scheme preset name, or "none" (unprotected)
    rf_code: str = "parity"  # parity | secded | none
    num_injections: int = 100
    seed: int = 2020
    surfaces: Tuple[str, ...] = (SURFACE_RF,)
    bits_per_fault: int = 1
    pattern: str = "random"  # random | burst
    ckpt_bits: Tuple[int, ...] = (1, 2)
    recovery_repeat_rate: float = 0.25
    max_instructions: int = 2_000_000  # per-injection watchdog budget
    max_recoveries: int = 100
    backend: str = "auto"  # executor engine: auto | scalar | vector
    #: selective-protection policy applied when compiling the scheme
    #: (:class:`repro.policy.ProtectionPolicy` string form)
    policy: str = "full"

    def __post_init__(self):
        from repro.policy import ProtectionPolicy

        # canonicalize through the parser (frozen dataclass: go around)
        object.__setattr__(
            self, "policy", str(ProtectionPolicy.parse(self.policy))
        )
        for s in self.surfaces:
            if s not in ALL_SURFACES:
                raise ValueError(f"unknown injection surface {s!r}")
        if not self.surfaces:
            raise ValueError("at least one injection surface required")
        if self.pattern not in ("random", "burst"):
            raise ValueError(f"unknown fault pattern {self.pattern!r}")
        if self.rf_code not in ("parity", "secded", "none"):
            raise ValueError(f"unknown rf code {self.rf_code!r}")
        if self.num_injections < 0:
            raise ValueError("num_injections must be >= 0")
        if self.backend not in ("auto", "scalar", "vector"):
            raise ValueError(f"unknown executor backend {self.backend!r}")

    def to_dict(self) -> Dict:
        d = dataclasses.asdict(self)
        d["surfaces"] = list(self.surfaces)
        d["ckpt_bits"] = list(self.ckpt_bits)
        return d

    @classmethod
    def from_dict(cls, d: Dict) -> "CampaignSpec":
        d = dict(d)
        d["surfaces"] = tuple(d.get("surfaces", (SURFACE_RF,)))
        d["ckpt_bits"] = tuple(d.get("ckpt_bits", (1, 2)))
        return cls(**d)


@dataclass
class InjectionRecord:
    """One journaled injection outcome (plain data, JSONL-serializable).

    ``counters`` is the injection's :class:`repro.obs.Counters` snapshot
    (instruction classes, recovery re-execution histogram, ...) captured
    by whichever worker ran it.  Because an injection's simulation is
    deterministic in its seed, the snapshot is a pure function of the
    record's index — so shard merging (which deduplicates by index) sums
    counter totals to exactly the serial run's.  ``None`` on records from
    journals predating the observability layer.
    """

    index: int
    surface: str
    outcome: str
    due_cause: Optional[str] = None
    detections: int = 0
    recoveries: int = 0
    instructions: int = 0
    seed: int = 0
    detail: Optional[str] = None
    counters: Optional[Dict] = None

    def to_json(self) -> str:
        return json.dumps(dataclasses.asdict(self), sort_keys=True)

    @classmethod
    def from_json(cls, line: str) -> "InjectionRecord":
        return cls(**json.loads(line))


@dataclass
class CampaignReport:
    """Aggregated campaign results with taxonomy and confidence intervals.

    Implements the :class:`repro.obs.Reportable` protocol; ``counters()``
    folds the per-record metric snapshots into one registry whose totals
    are independent of sharding and worker scheduling.
    """

    records: List[InjectionRecord] = field(default_factory=list)
    spec: Optional[CampaignSpec] = None
    #: True when the run was drained early (SIGINT/SIGTERM): the report
    #: is partial but the journal is flushed, so ``--resume`` completes
    #: it to the identical uninterrupted report
    interrupted: bool = False
    #: supervision counters of the pool that ran this sweep (restarts,
    #: crashes, retries, quarantined, ...); ``None`` for inline runs
    supervision: Optional[Dict[str, Any]] = None

    def count(self, outcome: FaultOutcome) -> int:
        return sum(1 for r in self.records if r.outcome == outcome.value)

    def summary(self) -> Dict[str, int]:
        return {o.value: self.count(o) for o in FaultOutcome}

    def due_taxonomy(self) -> Dict[str, int]:
        """DUE counts by taxonomy label (only labels that occurred)."""
        taxonomy: Dict[str, int] = {}
        for r in self.records:
            if r.outcome == FaultOutcome.DUE.value:
                label = r.due_cause or "unclassified"
                taxonomy[label] = taxonomy.get(label, 0) + 1
        return taxonomy

    def by_surface(self) -> Dict[str, Dict[str, int]]:
        table: Dict[str, Dict[str, int]] = {}
        for r in self.records:
            row = table.setdefault(
                r.surface, {o.value: 0 for o in FaultOutcome}
            )
            row[r.outcome] += 1
        return table

    @property
    def injected_runs(self) -> int:
        return sum(
            1
            for r in self.records
            if r.outcome != FaultOutcome.NOT_INJECTED.value
        )

    def rates(self, z: float = 1.96) -> Dict[str, Tuple[float, float, float]]:
        """Wilson ``(rate, lo, hi)`` for each outcome over injected runs."""
        n = self.injected_runs
        out = {}
        for o in (
            FaultOutcome.MASKED,
            FaultOutcome.RECOVERED,
            FaultOutcome.SDC,
            FaultOutcome.DUE,
        ):
            out[o.value] = wilson_interval(self.count(o), n, z)
        return out

    def counters(self) -> Counters:
        """All records' metric snapshots, merged (associative: any
        sharding of the records produces the same totals)."""
        return Counters.merged(
            Counters.from_dict(r.counters)
            for r in self.records
            if r.counters
        )

    def reconciliation(self) -> Dict[str, Any]:
        """End-of-run accounting: is every index of the spec present
        exactly once?  ``missing``/``duplicates`` list the offenders."""
        expected = (
            self.spec.num_injections if self.spec else len(self.records)
        )
        counts = _IndexCounter(r.index for r in self.records)
        missing = [i for i in range(expected) if i not in counts]
        duplicates = sorted(i for i, n in counts.items() if n > 1)
        return {
            "expected": expected,
            "recorded": len(self.records),
            "missing": missing,
            "duplicates": duplicates,
            "complete": not missing and not duplicates,
        }

    def to_dict(self) -> Dict[str, Any]:
        return {
            "kind": "campaign_report",
            "spec": self.spec.to_dict() if self.spec else None,
            "injections": len(self.records),
            "injected_runs": self.injected_runs,
            "interrupted": self.interrupted,
            "resumable": self.interrupted,
            "supervision": self.supervision,
            "reconciliation": self.reconciliation(),
            "records": [dataclasses.asdict(r) for r in self.records],
            "summary": self.summary(),
            "due_taxonomy": dict(sorted(self.due_taxonomy().items())),
            "by_surface": {
                s: row for s, row in sorted(self.by_surface().items())
            },
            "rates": {
                k: {"rate": p, "lo": lo, "hi": hi}
                for k, (p, lo, hi) in self.rates().items()
            },
            "counters": self.counters().to_dict(),
        }

    @classmethod
    def merge(cls, reports: Iterable["CampaignReport"]) -> "CampaignReport":
        """Merge shard reports into one.  Records are deduplicated by
        injection index (identical seeds produce identical records, so the
        first occurrence wins) and re-sorted.  Deduplication is also what
        keeps ``counters()`` totals equal to a serial run's no matter how
        the shards overlapped."""
        seen: Dict[int, InjectionRecord] = {}
        spec = None
        for rep in reports:
            if spec is None:
                spec = rep.spec
            for r in rep.records:
                seen.setdefault(r.index, r)
        merged = sorted(seen.values(), key=lambda r: r.index)
        return cls(records=merged, spec=spec)


# -- the injection path ----------------------------------------------------------


def _code_factory(name: str):
    if name == "parity":
        return lambda: ParityCode(32)
    if name == "secded":
        from repro.coding import SecdedCode

        return lambda: SecdedCode(32)
    if name == "none":
        return lambda: None
    raise ValueError(f"unknown rf code {name!r}")


class _DeadStrike(Exception):
    """A strike hit a dead register.  Not a :class:`SimulationError` or a
    :class:`MemoryError32`, so it never reads as a DUE."""


class _DeadStrikeExit:
    """A plain ``rf`` :class:`FaultPlan` that ends the run with
    :class:`_DeadStrike` right after it flips a register ``is_dead(t,
    reg)`` calls dead at the struck thread's next pc."""

    def __init__(self, plan: FaultPlan, is_dead):
        self.plan = plan
        self.is_dead = is_dead

    def hook_threads(self):
        return self.plan.hook_threads()

    def after_instruction(self, t, env=None) -> None:
        plan = self.plan
        if plan.injected:
            return
        plan.after_instruction(t, env)
        if plan.injected and self.is_dead(t, plan.hit_register):
            raise _DeadStrike


class FaultCampaign:
    """Golden and injected runs of one kernel launch: the one injection
    path of every campaign.

    The constructor runs the golden launch once, on the image
    ``make_memory()`` builds (called only there), and keeps what every
    injection reuses: the golden output of ``output_region`` (an
    ``(addr, num_words)`` window of global memory), each thread's
    lifetime, and clones of memory and of the running result at every
    CTA boundary.  :meth:`run_one` runs one plan from those and
    classifies it into an :class:`InjectionRecord`.
    ``rf_code_factory=None`` is the parity register file.
    """

    def __init__(
        self,
        kernel,
        launch: Launch,
        make_memory: Callable[[], MemoryImage],
        output_region: Tuple[int, int],
        rf_code_factory=None,
        max_instructions_per_thread: int = 2_000_000,
        backend: str = "auto",
        max_recoveries_per_thread: int = 1000,
    ):
        self.kernel = kernel
        self.launch = launch
        self.out = output_region
        self.code_factory = (
            ParityCode if rf_code_factory is None else rf_code_factory
        )
        code = self.code_factory()
        self.codeword_bits = code.n if code is not None else 33
        self.max_instructions = max_instructions_per_thread
        self.max_recoveries = max_recoveries_per_thread
        self.backend = backend
        # Registers live before each instruction of each block, and each
        # block's fall-through, for the dead-strike exit.  Built before
        # the golden run: built after it, these long-lived objects raise
        # the campaign workload's peak RSS by ~0.9 MB.
        liveness = Liveness(CFG(kernel))
        blocks = kernel.blocks
        self.live_points = {
            blk.label: liveness.live_points(blk.label) for blk in blocks
        }
        self.fall_through = {
            blk.label: nxt.label for blk, nxt in zip(blocks, blocks[1:])
        }

        # Golden run (generous budget — the watchdog is for injected
        # runs), keeping clones of memory and of the running result at
        # every CTA boundary: boundaries[k] is the state before CTA k,
        # boundaries[grid] the final one.
        mem = make_memory()
        self.boundaries: List[Tuple[MemoryImage, ExecutionResult]] = []
        golden_exec = run_launch(
            make_executor(
                kernel, backend=backend, rf_code_factory=self.code_factory
            ),
            launch,
            mem,
            before_cta=self._keep_boundary,
        )
        self.golden = mem.download(*output_region)
        self.lifetimes = {
            key: n
            for key, n in golden_exec.thread_instructions.items()
            if n >= 2
        }
        if not self.lifetimes:
            raise ValueError(
                f"{kernel.name}: no thread executed enough instructions"
            )
        self.keys = sorted(self.lifetimes)
        # A full injected run raises WatchdogTimeout in any CTA with a
        # lane over the budget, so CTAs may be skipped only when every
        # golden lane fits it.
        self.fast_forward = (
            max(golden_exec.thread_instructions.values())
            <= max_instructions_per_thread
        )

    def _keep_boundary(self, ctaid: int, mem: MemoryImage, result) -> bool:
        self.boundaries.append((mem.clone(), result.clone()))
        return False

    def golden_output(self) -> List[int]:
        return self.golden

    def dead_at_next_pc(self, t, reg: str) -> bool:
        """Is register ``reg`` dead where thread ``t`` goes next?  ``t`` is
        a thread just past an instruction: ``label``/``index`` is its next
        pc, and a retired thread (``done``) has nothing live.  An index
        past the block's end is the next block's entry, and a label the
        solver never reached counts as live."""
        if t.done:
            return True
        label, index = t.label, t.index
        points = self.live_points.get(label)
        if points is not None and index == len(points) - 1:
            points = self.live_points.get(self.fall_through.get(label))
            index = 0
        return points is not None and Reg(reg) not in points[index]

    def _draw_bits(
        self, rng: random.Random, nbits: int, pattern: str
    ) -> Tuple[int, ...]:
        """``"random"`` scatters the flipped bits across the codeword;
        ``"burst"`` flips ``nbits`` adjacent bits, the multi-bit upset of
        one high-energy particle."""
        if pattern == "burst":
            start = rng.randrange(self.codeword_bits - nbits + 1)
            return tuple(range(start, start + nbits))
        return tuple(rng.sample(range(self.codeword_bits), nbits))

    def run_random(
        self,
        num_injections: int,
        seed: int = 2020,
        bits_per_fault: int = 1,
        max_dynamic_point: Optional[int] = None,
        pattern: str = "random",
    ) -> CampaignReport:
        """Inject ``num_injections`` plain ``rf`` faults, thread, time,
        register and bit positions drawn from one ``random.Random(seed)``;
        a dynamic point is drawn within its thread's golden lifetime,
        clamped to ``max_dynamic_point``."""
        if pattern not in ("random", "burst"):
            raise ValueError(f"unknown fault pattern {pattern!r}")
        rng = random.Random(seed)
        records = []
        for i in range(num_injections):
            ctaid, tid = self.keys[rng.randrange(len(self.keys))]
            horizon = self.lifetimes[(ctaid, tid)]
            if max_dynamic_point is not None:
                horizon = min(max_dynamic_point, horizon)
            bits = self._draw_bits(rng, bits_per_fault, pattern)
            plan = FaultPlan(
                ctaid=ctaid,
                tid=tid,
                after_instructions=rng.randrange(1, max(2, horizon)),
                bits=bits,
                rng_seed=rng.getrandbits(30),
            )
            records.append(self.run_one(plan, index=i))
        return CampaignReport(records=records)

    def _target_ctas(self, plan) -> Tuple[int, int]:
        """``(first, last)`` CTA an injection must simulate: the span of
        its plan's target threads, or every CTA (``last == grid``: never
        exit early) for an untargeted plan or a budget some golden lane
        exceeds."""
        getter = getattr(plan, "hook_threads", None)
        targets = getter() if getter is not None else None
        if not targets or not self.fast_forward:
            return 0, self.launch.grid
        ctas = [ctaid for ctaid, _ in targets]
        return min(ctas), max(ctas)

    def run_one(
        self, plan, *, index: int = 0, surface: str = SURFACE_RF, seed: int = 0
    ) -> InjectionRecord:
        """Run ``plan`` once and classify it; ``index``, ``surface`` and
        ``seed`` are copied into the record."""
        # Dead-strike exit: a plain rf strike on a register dead at the
        # next pc is never read, so from there on the run is golden's.
        # Under the budget guard only, like fast-forward.
        hooked = plan
        if type(plan) is FaultPlan and self.fast_forward:
            hooked = _DeadStrikeExit(plan, self.dead_at_next_pc)
        executor = make_executor(
            self.kernel,
            backend=self.backend,
            rf_code_factory=self.code_factory,
            max_instructions_per_thread=self.max_instructions,
            max_recoveries_per_thread=self.max_recoveries,
            fault_plan=hooked,
        )
        # Fast-forward: CTAs before the first target run exactly as in
        # the golden run, so resume from its state at that boundary.
        first, last = self._target_ctas(plan)
        grid = self.launch.grid
        mem, partial = (x.clone() for x in self.boundaries[first])
        obs.inc("campaign.ctas_skipped", first)
        exited_at = grid

        def exit_early(ctaid: int, mem: MemoryImage, result) -> bool:
            # Early exit: past the last target, a memory equal to golden's
            # at the same boundary makes the rest of the launch golden's.
            nonlocal exited_at
            if not last < ctaid < grid:
                return False
            golden_mem, golden_partial = self.boundaries[ctaid]
            if not mem.same_contents(golden_mem):
                return False
            result.add_ctas(self.boundaries[grid][1], golden_partial)
            exited_at = ctaid
            return True

        # A span-less tracer scoped to this one injection: the executor's
        # end-of-run dump and recovery histograms land in a fresh registry
        # whose snapshot rides on the record across the process boundary.
        injection_obs = obs.Tracer(record_spans=False)
        dead = False
        try:
            with injection_obs:
                try:
                    result = run_launch(
                        executor,
                        self.launch,
                        mem,
                        start=first,
                        result=partial,
                        before_cta=exit_early,
                    )
                except _DeadStrike:
                    # Golden's final result, with its sim.* counters
                    # published once, as an early exit completes a run.
                    result = self.boundaries[grid][1].clone()
                    _publish_counters(result)
                    dead = True
        except (SimulationError, MemoryError32) as exc:
            # Recovery failure, runaway execution, or a hardware exception
            # (e.g. an escaped corruption landing in an address register):
            # detected-unrecoverable either way, labelled by its cause.
            cause = classify_due(exc).value
            injection_obs.counters.inc(f"campaign.due.{cause}")
            return InjectionRecord(
                index=index,
                surface=surface,
                outcome=FaultOutcome.DUE.value,
                due_cause=cause,
                detections=-1,
                recoveries=-1,
                instructions=-1,
                seed=seed,
                detail=str(exc),
                counters=injection_obs.counters.to_dict(),
            )
        if dead:
            obs.inc("campaign.dead_exits")
            obs.inc("campaign.ctas_skipped", grid - 1 - first)
            output = self.golden
        elif exited_at < grid:
            obs.inc("campaign.early_exits")
            obs.inc("campaign.ctas_skipped", grid - exited_at)
            output = self.golden
        else:
            output = mem.download(*self.out)
        if not plan.injected:
            outcome = FaultOutcome.NOT_INJECTED
        elif output == self.golden:
            outcome = (
                FaultOutcome.RECOVERED
                if result.recoveries > 0
                else FaultOutcome.MASKED
            )
        else:
            outcome = FaultOutcome.SDC
        injection_obs.counters.inc(f"campaign.outcome.{outcome.value}")
        return InjectionRecord(
            index=index,
            surface=surface,
            outcome=outcome.value,
            detections=result.detections,
            recoveries=result.recoveries,
            instructions=result.instructions,
            seed=seed,
            detail=_plan_detail(plan),
            counters=injection_obs.counters.to_dict(),
        )


class _CampaignState(FaultCampaign):
    """The :class:`FaultCampaign` of a :class:`CampaignSpec`, compiled
    once per process, plus its deterministic plan for each index."""

    def __init__(self, spec: CampaignSpec):
        from repro.bench import get_benchmark

        self.spec = spec
        bench = get_benchmark(spec.benchmark)
        self.wl = bench.workload()
        kernel = bench.fresh_kernel()
        if spec.scheme != "none":
            from repro.core.pipeline import PennyCompiler
            from repro.core.schemes import scheme_config

            config = scheme_config(spec.scheme)
            if spec.policy != "full":
                config = dataclasses.replace(config, policy=spec.policy)
            kernel = (
                PennyCompiler(config)
                .compile(kernel, self.wl.launch_config)
                .kernel
            )
        self.storage = kernel.meta.get("storage_assignment")
        mem, _, out = self.wl.make()
        super().__init__(
            kernel,
            self.wl.launch,
            lambda: mem,
            out,
            rf_code_factory=_code_factory(spec.rf_code),
            max_instructions_per_thread=spec.max_instructions,
            backend=spec.backend,
            max_recoveries_per_thread=spec.max_recoveries,
        )

    def plan_for_index(self, index: int):
        """Build injection ``index``'s plan.  Depends only on the spec and
        the (deterministic) golden profile."""
        spec = self.spec
        seed = stable_seed(spec.seed, index)
        rng = random.Random(seed)
        surface = spec.surfaces[rng.randrange(len(spec.surfaces))]
        ctaid, tid = self.keys[rng.randrange(len(self.keys))]
        horizon = self.lifetimes[(ctaid, tid)]
        point = rng.randrange(1, max(2, horizon))
        bits = self._draw_bits(rng, spec.bits_per_fault, spec.pattern)

        if surface == SURFACE_CKPT and (
            self.storage is None or not self.storage.slots
        ):
            surface = SURFACE_RF  # nothing to strike; degrade honestly
        if surface == SURFACE_RECOVERY and not self.kernel.meta.get(
            "recovery_table"
        ):
            surface = SURFACE_RF

        if surface == SURFACE_RF:
            plan = FaultPlan(
                ctaid=ctaid,
                tid=tid,
                after_instructions=point,
                bits=bits,
                rng_seed=rng.getrandbits(30),
            )
        elif surface == SURFACE_CKPT:
            # A slot strike alone is invisible until recovery reads the
            # slot, so pair it with an RF fault that triggers recovery.
            nbits = spec.ckpt_bits[rng.randrange(len(spec.ckpt_bits))]
            ckpt_point = rng.randrange(1, max(2, horizon))
            plan = ComposedFaultPlan(
                plans=[
                    CheckpointFaultPlan(
                        ctaid=ctaid,
                        tid=tid,
                        after_instructions=min(point, ckpt_point),
                        num_bits=nbits,
                        rng_seed=rng.getrandbits(30),
                        storage=self.storage,
                    ),
                    FaultPlan(
                        ctaid=ctaid,
                        tid=tid,
                        after_instructions=max(point, ckpt_point),
                        bits=bits,
                        rng_seed=rng.getrandbits(30),
                    ),
                ]
            )
        else:  # SURFACE_RECOVERY
            primary = FaultPlan(
                ctaid=ctaid,
                tid=tid,
                after_instructions=point,
                bits=bits,
                rng_seed=rng.getrandbits(30),
            )
            mode = "register" if rng.random() < 0.5 else "slot"
            plan = RecoveryFaultPlan(
                primary=primary,
                strike_restore=rng.randrange(4),
                mode=mode,
                bits=(rng.randrange(self.codeword_bits),),
                repeat=rng.random() < spec.recovery_repeat_rate,
                storage=self.storage,
            )
        return surface, seed, plan

    def run_index(self, index: int) -> InjectionRecord:
        surface, seed, plan = self.plan_for_index(index)
        return self.run_one(plan, index=index, surface=surface, seed=seed)


def _plan_detail(plan) -> Optional[str]:
    if isinstance(plan, ComposedFaultPlan):
        parts = [_plan_detail(p) for p in plan.plans]
        return "+".join(p for p in parts if p) or None
    if isinstance(plan, CheckpointFaultPlan):
        if plan.effect:
            return f"ckpt:{plan.effect}:{plan.hit_slot or '-'}"
        return None
    if isinstance(plan, RecoveryFaultPlan):
        tag = f"recovery:{plan.mode}:strikes={plan.strikes}"
        if plan.repeat:
            tag += ":repeat"
        return tag
    if isinstance(plan, FaultPlan):
        return f"rf:{plan.hit_register or '-'}"
    return None


# -- worker-pool plumbing --------------------------------------------------------

_WORKER_STATE: Optional[Tuple[str, _CampaignState]] = None


def _spec_digest(spec_dict: Dict) -> str:
    return hashlib.sha256(
        json.dumps(spec_dict, sort_keys=True).encode("utf-8")
    ).hexdigest()


def _pool_runner(payload: Dict) -> Dict:
    """The supervised pool's task runner: one injection per call.

    The compiled kernel + golden profile are built once per worker
    process and cached by spec digest, so a restarted worker rebuilds
    them exactly once and consecutive injections pay nothing.  The
    injection runs under a span-less tracer of its own, whose counters
    (``campaign.ctas_skipped`` and the like, which no record carries)
    go back beside the record for the parent to merge.
    """
    global _WORKER_STATE
    spec_dict = payload["spec"]
    digest = _spec_digest(spec_dict)
    if _WORKER_STATE is None or _WORKER_STATE[0] != digest:
        _WORKER_STATE = (
            digest,
            _CampaignState(CampaignSpec.from_dict(spec_dict)),
        )
    with obs.Tracer(record_spans=False) as tracer:
        record = _WORKER_STATE[1].run_index(int(payload["index"]))
    return {
        "record": dataclasses.asdict(record),
        "counters": tracer.counters.to_dict(),
    }


# -- journal ---------------------------------------------------------------------


def _crc_line(payload: str) -> str:
    """Version-2 journal line: payload + tab + 8-hex CRC32.

    ``json.dumps`` never emits a raw tab (it escapes to ``\\t``), so
    splitting on the *last* tab is unambiguous.
    """
    crc = zlib.crc32(payload.encode("utf-8")) & 0xFFFFFFFF
    return f"{payload}\t{crc:08x}"


def _parse_journal_line(line: str) -> Tuple[Optional[Dict], str]:
    """One journal line -> ``(object, status)`` where status is ``"ok"``
    (CRC-verified line) or ``"corrupt"`` (missing or bad CRC trailer,
    bad JSON, or not a record object)."""
    payload, tab, trailer = line.rpartition("\t")
    crc = zlib.crc32(payload.encode("utf-8")) & 0xFFFFFFFF
    if not tab or trailer != f"{crc:08x}":
        return None, "corrupt"
    try:
        obj = json.loads(payload)
    except json.JSONDecodeError:
        return None, "corrupt"
    if not isinstance(obj, dict):
        # A torn fragment can still parse (a bare number, a string):
        # anything but a record object is corrupt.
        return None, "corrupt"
    return obj, "ok"


@dataclass
class JournalFsck:
    """The result of validating one journal file.

    ``records`` holds every line that survived checksum + schema
    validation, keyed by index (last occurrence wins, matching the
    append-only log's "later supersedes earlier" semantics);
    ``corrupt_lines`` counts lines that did not.
    """

    path: str
    header: Optional[Dict] = None
    records: Dict[int, InjectionRecord] = field(default_factory=dict)
    total_lines: int = 0
    record_lines: int = 0
    corrupt_lines: int = 0
    duplicate_indices: List[int] = field(default_factory=list)

    def reconcile(self, expected: Optional[int] = None) -> Dict[str, Any]:
        """Accounting summary against ``expected`` indices (defaults to
        the header spec's ``num_injections``)."""
        if expected is None and self.header is not None:
            expected = self.header.get("spec", {}).get("num_injections")
        if expected is None:
            expected = (max(self.records) + 1) if self.records else 0
        missing = [i for i in range(expected) if i not in self.records]
        return {
            "expected": expected,
            "recorded": len(self.records),
            "missing": missing,
            "duplicates": list(self.duplicate_indices),
            "corrupt_lines": self.corrupt_lines,
            "complete": not missing and not self.duplicate_indices,
        }

    def to_dict(self) -> Dict[str, Any]:
        return {
            "kind": "journal_fsck",
            "path": self.path,
            "version": (
                self.header.get("version") if self.header else None
            ),
            "total_lines": self.total_lines,
            "record_lines": self.record_lines,
            "corrupt_lines": self.corrupt_lines,
            "reconciliation": self.reconcile(),
        }


def fsck_journal(path: str) -> JournalFsck:
    """Validate a (possibly truncated, possibly bit-rotted) journal.

    Every line is checksum- and schema-checked; torn or corrupt lines —
    the tail of a killed campaign, a flipped disk bit — are skipped and
    *counted*, never fatal and never silently mis-parsed as data.
    """
    fsck = JournalFsck(path=path)
    if not os.path.exists(path):
        return fsck
    # errors="replace": truncation mid multi-byte character must read as
    # a corrupt line, not raise UnicodeDecodeError.
    with open(path, errors="replace") as f:
        for lineno, line in enumerate(f):
            line = line.strip()
            if not line:
                continue
            fsck.total_lines += 1
            obj, status = _parse_journal_line(line)
            if status == "corrupt":
                fsck.corrupt_lines += 1
                continue
            if fsck.header is None and "spec" in obj and lineno == 0:
                fsck.header = obj
                continue
            try:
                rec = InjectionRecord(**obj)
            except TypeError:
                fsck.corrupt_lines += 1
                continue
            fsck.record_lines += 1
            if (
                rec.index in fsck.records
                and rec.index not in fsck.duplicate_indices
            ):
                fsck.duplicate_indices.append(rec.index)
            fsck.records[rec.index] = rec
    fsck.duplicate_indices.sort()
    return fsck


def load_journal(path: str) -> Tuple[Optional[Dict], Dict[int, InjectionRecord]]:
    """Read a (possibly truncated) journal.  Returns the header spec dict
    (or None) and the complete records by index.  Torn or corrupt lines —
    the tail of a killed campaign — are skipped, not fatal."""
    fsck = fsck_journal(path)
    return fsck.header, fsck.records


class _Journal:
    """Append-only checksummed JSONL writer, flushed per record.

    Write faults (real ``OSError`` or injected ``journal.torn`` /
    ``journal.enospc`` chaos) never propagate: the record stays in the
    engine's memory, ``write_errors`` counts it, and the engine calls
    :meth:`repair` at end of run to append whatever the disk is missing
    — so a journal hole costs a repair pass, not a record.
    """

    def __init__(self, path: str, spec: CampaignSpec, fresh: bool):
        self.path = path
        self.write_errors = 0
        self._torn = False
        mode = "w" if fresh else "a"
        if not fresh and os.path.exists(path) and os.path.getsize(path) > 0:
            # A kill can tear the final line without a newline; terminate
            # it so the first appended record does not merge into it (the
            # torn fragment then parses as one corrupt line and is skipped
            # on load, instead of eating a fresh record).
            with open(path, "rb") as f:
                f.seek(-1, os.SEEK_END)
                torn = f.read(1) != b"\n"
            if torn:
                with open(path, "a") as f:
                    f.write("\n")
        self._f = open(path, mode)
        if fresh:
            self._write_line(
                json.dumps(
                    {"spec": spec.to_dict(), "version": JOURNAL_VERSION},
                    sort_keys=True,
                )
            )

    def _raw_write(self, text: str) -> None:
        if self._torn:
            # The previous write died mid-line: terminate the fragment so
            # it costs exactly one corrupt line, not the next record too.
            text = "\n" + text
            self._torn = False
        self._f.write(text)
        self._f.flush()
        os.fsync(self._f.fileno())

    def _write_line(self, payload: str) -> None:
        self._raw_write(_crc_line(payload) + "\n")

    def append(self, record: InjectionRecord) -> bool:
        """Write one record; returns False (and counts) on a write
        fault instead of raising."""
        payload = record.to_json()
        chaos = _campaign_chaos()
        rule = None
        if chaos is not None:
            from repro.serve.chaos import SITE_JOURNAL_WRITE

            rule = chaos.decide(SITE_JOURNAL_WRITE, index=record.index)
        try:
            if rule is not None and rule.action == "enospc":
                raise OSError(
                    errno.ENOSPC, "no space left on device (chaos)"
                )
            if rule is not None and rule.action == "torn":
                line = _crc_line(payload)
                self._raw_write(line[: max(1, len(line) // 2)])
                self._torn = True
                raise OSError(errno.EIO, "torn journal write (chaos)")
            self._write_line(payload)
            return True
        except OSError:
            self.write_errors += 1
            self._torn = True  # re-terminate before the next write
            obs.inc("journal.write_errors")
            return False

    def repair(self, records: Iterable[InjectionRecord]) -> int:
        """Append every in-memory record missing on disk (fsck first);
        returns how many were appended.  Bypasses chaos — this *is* the
        recovery path."""
        self._f.flush()
        on_disk = fsck_journal(self.path).records
        appended = 0
        for rec in sorted(records, key=lambda r: r.index):
            if rec.index in on_disk:
                continue
            try:
                self._write_line(rec.to_json())
                appended += 1
            except OSError:
                self.write_errors += 1
                self._torn = True
        if appended:
            obs.inc("journal.repaired", appended)
        return appended

    def close(self) -> None:
        if self._torn:
            try:
                self._raw_write("")
            except OSError:
                pass
        self._f.close()


# -- the engine ------------------------------------------------------------------


class ParallelCampaign:
    """Runs a :class:`CampaignSpec` on the supervised worker pool with a
    checksummed, resumable journal.

    ``workers <= 1`` runs inline (no subprocesses) — same records, same
    journal.  ``resume=True`` fscks the journal, keeps every record that
    survives checksum + schema validation and only runs the missing
    indices; because plans are seeded per index, the resumed campaign's
    final report is identical to an uninterrupted run's.

    Supervision (``workers > 1``): a worker crash or hang takes down one
    injection attempt; the index is retried, and after
    ``poison_threshold`` consecutive worker deaths it is quarantined and
    recorded as a ``worker_crash`` DUE.  ``wall_timeout`` is the
    per-injection wall-clock deadline (``None`` = never) — the recovery
    net *under* the instruction-budget watchdog, for when the worker
    itself is wedged.  An uninterrupted run ends with reconciliation:
    every index exactly once, or :class:`ReconciliationError`.
    """

    def __init__(
        self,
        spec: CampaignSpec,
        workers: int = 1,
        journal_path: Optional[str] = None,
        *,
        use_threads: bool = False,
        wall_timeout: Optional[float] = None,
        poison_threshold: int = 2,
    ):
        self.spec = spec
        self.workers = max(1, workers)
        self.journal_path = journal_path
        self.use_threads = use_threads
        self.wall_timeout = wall_timeout
        self.poison_threshold = poison_threshold
        self._stop = threading.Event()
        self._stop_reason: Optional[str] = None
        self._supervision: Optional[Dict[str, Any]] = None

    def request_stop(self, reason: str = "stop") -> None:
        """Ask the sweep to drain: finish nothing new, flush the journal,
        return the partial (resumable) report.  Thread- and
        signal-safe."""
        self._stop_reason = reason
        self._stop.set()

    def run(
        self, resume: bool = False, handle_signals: bool = False
    ) -> CampaignReport:
        """``handle_signals=True`` (the CLI path) installs SIGINT/SIGTERM
        handlers for the duration of the run: the first signal drains
        gracefully, a second one force-raises ``KeyboardInterrupt``."""
        self._stop.clear()
        self._stop_reason = None
        restore: List[Tuple[Any, Any]] = []
        if handle_signals:
            restore = self._install_signal_handlers()
        try:
            with obs.span(
                "campaign.run",
                benchmark=self.spec.benchmark,
                scheme=self.spec.scheme,
                injections=self.spec.num_injections,
                workers=self.workers,
                seed=self.spec.seed,
            ):
                return self._run(resume)
        finally:
            for sig, old in restore:
                try:
                    signal.signal(sig, old)
                except (ValueError, OSError):
                    pass

    def _install_signal_handlers(self) -> List[Tuple[Any, Any]]:
        def _drain(signum, frame):
            if self._stop.is_set():
                raise KeyboardInterrupt  # second signal: force
            self.request_stop(signal.Signals(signum).name)

        restore = []
        for sig in (signal.SIGINT, signal.SIGTERM):
            try:
                restore.append((sig, signal.signal(sig, _drain)))
            except ValueError:
                pass  # not the main thread: drain via request_stop only
        return restore

    def _run(self, resume: bool) -> CampaignReport:
        n = self.spec.num_injections
        done: Dict[int, InjectionRecord] = {}
        pre_corrupt = 0
        if self.journal_path and resume:
            fsck = fsck_journal(self.journal_path)
            # Records under a corrupt header have an unknown spec: they
            # may belong to another campaign, so they are not adopted.
            journal_spec = (fsck.header or {}).get("spec")
            if (fsck.header or fsck.records) and (
                journal_spec != self.spec.to_dict()
            ):
                raise ValueError(
                    "journal was written by a different campaign spec "
                    "(or its header is unreadable); refusing to resume "
                    "into it"
                )
            # Drop stray indices beyond this spec (defensive).
            done = {i: r for i, r in fsck.records.items() if 0 <= i < n}
            pre_corrupt = fsck.corrupt_lines
            if pre_corrupt:
                obs.inc("journal.corrupt_records", pre_corrupt)
                obs.event(
                    "journal.fsck",
                    path=self.journal_path,
                    corrupt=pre_corrupt,
                    kept=len(done),
                )
        todo = [i for i in range(n) if i not in done]
        journal = (
            _Journal(self.journal_path, self.spec, fresh=not done)
            if self.journal_path
            else None
        )
        records = list(done.values())
        self._supervision = None
        try:
            if todo:
                for rec in self._execute(todo):
                    records.append(rec)
                    if journal is not None:
                        journal.append(rec)
        finally:
            if journal is not None:
                if journal.write_errors:
                    # Holes from torn/ENOSPC writes: heal from memory so
                    # the on-disk journal matches the report.
                    journal.repair(records)
                journal.close()
        records.sort(key=lambda r: r.index)
        interrupted = (
            self._stop.is_set() and len({r.index for r in records}) < n
        )
        # Inline runs have no pool counters but still carry the journal
        # accounting, so `supervision` is always present on a report.
        supervision = dict(self._supervision or {})
        if journal is not None:
            supervision["journal_write_errors"] = journal.write_errors
        supervision["journal_corrupt_records"] = pre_corrupt
        if self._stop_reason:
            supervision["drain_reason"] = self._stop_reason
        report = CampaignReport(
            records=records,
            spec=self.spec,
            interrupted=interrupted,
            supervision=supervision,
        )
        if not interrupted:
            recon = report.reconciliation()
            if not recon["complete"]:
                raise ReconciliationError(
                    "campaign reconciliation failed: "
                    f"{len(recon['missing'])} missing, "
                    f"{len(recon['duplicates'])} duplicate indices",
                    expected=recon["expected"],
                    recorded=recon["recorded"],
                    missing=recon["missing"][:20],
                    duplicates=recon["duplicates"][:20],
                )
        return report

    def _execute(self, todo: Sequence[int]) -> Iterable[InjectionRecord]:
        if self.workers <= 1 or len(todo) <= 1:
            state = _CampaignState(self.spec)
            for i in todo:
                if self._stop.is_set():
                    return
                yield state.run_index(i)
            return
        config = PoolConfig(
            workers=self.workers,
            use_threads=self.use_threads,
            runner="repro.gpusim.campaign:_pool_runner",
            job_timeout=self.wall_timeout,
            poison_threshold=self.poison_threshold,
            chaos_site="campaign.worker",
        )
        spec_dict = self.spec.to_dict()
        jobs = (
            (str(i), {"spec": spec_dict, "index": i}) for i in todo
        )
        tracer = obs.current_tracer()
        with WorkerPool(config) as pool:
            for key, outcome in pool.imap_supervised(
                jobs, stop=self._stop
            ):
                index = int(key)
                if isinstance(outcome, TaskRuntimeError):
                    yield self._crash_record(index, outcome)
                    continue
                if tracer is not None:
                    tracer.counters.merge(
                        Counters.from_dict(outcome["counters"])
                    )
                yield InjectionRecord(**outcome["record"])
            m = pool.metrics
            self._supervision = {
                "workers": self.workers,
                "use_threads": self.use_threads,
                "wall_timeout": self.wall_timeout,
                "poison_threshold": self.poison_threshold,
                **m.to_dict(),
            }
            if m.restarts:
                obs.inc("campaign.worker_restarts", m.restarts)
            if m.retries:
                obs.inc("campaign.worker_retries", m.retries)
            if m.hung_kills:
                obs.inc("campaign.worker_hung", m.hung_kills)

    def _crash_record(
        self, index: int, exc: TaskRuntimeError
    ) -> InjectionRecord:
        """Synthesize the typed ``worker_crash`` DUE record for an index
        whose worker(s) died past the retry budget — the sweep-level
        DUE: detected, contained, and survived."""
        quarantined = isinstance(exc, PoisonJobError)
        if quarantined:
            obs.inc("campaign.quarantined")
        obs.event(
            "campaign.worker_crash",
            index=index,
            quarantined=quarantined,
            message=getattr(exc, "message", str(exc)),
        )
        counters = Counters()
        counters.inc(f"campaign.due.{DueType.WORKER_CRASH.value}")
        detail = getattr(exc, "message", str(exc))
        strikes = getattr(exc, "detail", {}).get("strikes")
        if strikes:
            detail += f" (strikes={strikes})"
        return InjectionRecord(
            index=index,
            surface=SURFACE_HARNESS,
            outcome=FaultOutcome.DUE.value,
            due_cause=DueType.WORKER_CRASH.value,
            detections=-1,
            recoveries=-1,
            instructions=-1,
            seed=stable_seed(self.spec.seed, index),
            detail=f"worker_crash: {detail}",
            counters=counters.to_dict(),
        )


def run_campaign(
    spec: CampaignSpec,
    workers: int = 1,
    journal_path: Optional[str] = None,
    resume: bool = False,
    **kwargs: Any,
) -> CampaignReport:
    """Convenience wrapper: build and run a :class:`ParallelCampaign`
    (``kwargs`` pass through to its constructor — ``use_threads``,
    ``wall_timeout``, ``poison_threshold``)."""
    return ParallelCampaign(
        spec, workers=workers, journal_path=journal_path, **kwargs
    ).run(resume=resume)
