"""What every workload shares: the program set, the op loop, output checks
and the Fig. 9 overhead computation.

Everything here reaches the program through its public names only
(``tests/test_public_api.py`` enforces that).
"""

from __future__ import annotations

import dataclasses
import gc
import json
import os
import resource
import sys
import time
from collections import Counter
from contextlib import nullcontext
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import repro
from repro import obs
from repro.bench import ALL_BENCHMARKS, Benchmark, Workload as BenchWorkload
from repro.core.pipeline import PennyConfig
from repro.core.schemes import SCHEME_BOLT_GLOBAL, SCHEME_PENNY, scheme_config
from repro.core.verify import verify_compiled
from repro.gpusim.config import FERMI_C2050
from repro.gpusim.timing import TimingModel
from repro.ir.module import Kernel
from repro.regalloc import count_registers

import pb_speed
from pb_math import Fold, Span, fold, geomean, merge_folds, scale_fold

ROOT = Path(__file__).resolve().parent.parent
WARMUP_PTX = ROOT / "examples" / "vecadd.ptx"

#: the three protection configurations every suite kernel is compiled under
CONFIGS: Tuple[Tuple[str, Callable[[], PennyConfig]], ...] = (
    ("penny", lambda: scheme_config(SCHEME_PENNY)),
    (
        "address-only",
        lambda: dataclasses.replace(
            scheme_config(SCHEME_PENNY), policy="address-only"
        ),
    ),
    ("bolt-global", lambda: scheme_config(SCHEME_BOLT_GLOBAL)),
)

#: excluded from the 72-program suite: one NQU compile takes ~10 s
NQU = "NQU"


@dataclasses.dataclass
class Program:
    """One (kernel, configuration) pair.  ``kernel`` is the input and is
    never mutated: ``PennyCompiler.compile`` copies it."""

    bench: Benchmark
    label: str
    config: PennyConfig
    kernel: Kernel
    workload: BenchWorkload

    @property
    def id(self) -> str:
        return f"{self.bench.abbr}/{self.label}"


def suite_programs(abbrs: Optional[Sequence[str]] = None) -> List[Program]:
    """Every non-NQU Table-3 kernel under every configuration (72), or the
    named benchmarks under Penny only."""
    if abbrs is None:
        benches = [b for b in ALL_BENCHMARKS if b.abbr != NQU]
        configs = CONFIGS
    else:
        benches = [ALL_BENCHMARKS[a] for a in abbrs]
        configs = CONFIGS[:1]
    return [
        Program(b, label, make(), b.fresh_kernel(), b.workload())
        for b in benches
        for label, make in configs
    ]


def warm_up() -> None:
    """The warm-up op of every in-process workload: one small compile, so
    lazy imports are paid in set-up and not by the first measured op."""
    result = repro.protect(WARMUP_PTX.read_text())
    if verify_compiled(result.kernel):
        raise RuntimeError("warm-up compile failed verification")


# -- the op loop ------------------------------------------------------------------


@dataclasses.dataclass
class Op:
    """One measured operation: ``wall`` seconds as measured from
    ``start``, and ``seconds``, its time in reference seconds
    (``pb_speed``)."""

    wall: float
    units: int
    info: object = None
    error: Optional[str] = None
    spans: Optional[List[Span]] = None
    counters: Optional[Dict[str, float]] = None
    start: float = 0.0
    seconds: float = 0.0

    @property
    def scale(self) -> float:
        """Reference seconds per wall second."""
        return self.seconds / self.wall


@dataclasses.dataclass
class Side:
    """Every op of one side of a run (untraced, or traced)."""

    ops: List[Op] = dataclasses.field(default_factory=list)
    blocks: int = 0

    @property
    def units(self) -> int:
        return sum(op.units for op in self.ops)

    @property
    def wall(self) -> float:
        return sum(op.wall for op in self.ops)

    @property
    def seconds(self) -> float:
        """The ops' time in reference seconds."""
        return sum(op.seconds for op in self.ops)


#: seconds between two timings of the reference loop
SAMPLE_S = 0.1

#: a block is a list of (op callable, units the op performs)
Block = List[Tuple[Callable[[], object], int]]


def scaled_call(fn: Callable[[], object]) -> Tuple[object, float]:
    """``fn()`` and the reference seconds it took, for calls outside the
    measured loop."""
    before = pb_speed.loop_seconds()
    start = time.perf_counter()
    result = fn()
    wall = time.perf_counter() - start
    return result, wall * pb_speed.scale(before, pb_speed.loop_seconds())


def scaled_op(fn: Callable[[], object], traced: bool) -> Op:
    """One op outside the measured loop, scaled by the reference loop
    timed on either side of it."""
    before = pb_speed.loop_seconds()
    op = run_op(fn, 1, traced)
    op.seconds *= pb_speed.scale(before, pb_speed.loop_seconds())
    return op


def run_op(fn: Callable[[], object], units: int, traced: bool) -> Op:
    """Time one call; with ``traced``, under a fresh public Tracer."""
    tracer = obs.Tracer() if traced else None
    with tracer if tracer is not None else nullcontext():
        start = time.perf_counter()
        try:
            info, error = fn(), None
        except Exception as exc:  # a failed op is counted, not fatal
            info, error = None, f"{type(exc).__name__}: {exc}"
        wall = time.perf_counter() - start
    op = Op(wall, units, info, error, start=start, seconds=wall)
    if tracer is not None:
        op.spans = [
            Span(s.span_id, s.parent_id, s.name, s.start, s.end)
            for s in tracer.spans
        ]
        op.counters = dict(tracer.counters.to_dict()["counters"])
    return op


def block_count(seconds: float, block_seconds: float, min_blocks: int) -> int:
    """Blocks per side of a run of ``seconds``.

    The count is fixed from the nominal cost of a block, not from the
    clock, so every run and every commit measures the same op mix: a
    percentile over programs of unequal cost then falls at the same
    place in it, and a faster program finishes sooner instead of
    measuring a different mix.
    """
    return max(min_blocks, round(seconds / block_seconds))


def measure(
    block: Callable[[int, bool], Block],
    digest: Callable[[Op], None],
    blocks: int,
    trace: bool,
    interrupt: bool = True,
) -> Dict[bool, Side]:
    """Run ``blocks`` blocks on every side.

    Untraced runs have one side.  Traced runs alternate an untraced and a
    traced block, so drift in machine speed hits both sides alike and
    their ratio is the tracing overhead.  ``digest`` reduces each op's
    result between ops and may set ``op.error``.  Each block starts from
    a full garbage collection, so one block's leftovers do not pause the
    next.

    Each op's time is scaled to reference seconds by a ``pb_speed.Meter``
    that samples the machine's speed every ``SAMPLE_S`` inside the ops,
    since the speed can change by 60% within a second: on the same
    campaign ops, that left a spread (coefficient of variation per cell)
    of 0.08, where samples at the ops' ends left 0.13.  Without
    ``interrupt``, for ops that wait on another process that a sample
    would compete with for a CPU, the meter samples between ops instead,
    at most every ``SAMPLE_S``.
    """
    order = (False, True) if trace else (False,)
    sides = {t: Side() for t in order}
    meter = pb_speed.Meter()
    meter.sample()
    with meter.periodic(SAMPLE_S) if interrupt else nullcontext():
        for index in range(blocks * len(order)):
            traced = order[index % len(order)]
            side = sides[traced]
            ops = block(index // len(order), traced)
            gc.collect()
            if not interrupt:
                meter.sample()
            for fn, units in ops:
                op = run_op(fn, units, traced)
                side.ops.append(op)
                if op.error is None:
                    digest(op)
                if not interrupt and time.perf_counter() - meter.samples[-1][0] >= SAMPLE_S:
                    meter.sample()
            side.blocks += 1
    meter.sample()
    for side in sides.values():
        for op in side.ops:
            _, op.seconds = meter.integrate(op.start, op.start + op.wall)
    return sides


# -- checks and the Fig. 9 overhead --------------------------------------------------


def simulate(
    kernel: Kernel, workload: BenchWorkload, registers: Optional[int] = None
) -> Tuple[float, List[int], int, float]:
    """Fault-free run plus the Fermi timing model: (cycles, output words,
    simulated instructions, reference seconds the simulation took)."""
    mem, _, out = workload.make()
    executor = repro.make_executor(kernel, rf_code_factory=lambda: None)
    execution, seconds = scaled_call(lambda: executor.run(workload.launch, mem))
    timing = TimingModel(FERMI_C2050).estimate(
        execution,
        threads_per_block=workload.block,
        num_blocks=workload.grid,
        regs_per_thread=(
            registers if registers is not None else count_registers(kernel)
        ),
        shared_per_block=sum(4 * d.num_words for d in kernel.shared),
    )
    return timing.cycles, mem.download(*out), execution.instructions, seconds


class Fig9:
    """Checks compiled programs against their unprotected kernels and
    collects protected ÷ unprotected simulated cycles."""

    def __init__(self) -> None:
        self._baselines: Dict[str, Tuple[float, List[int]]] = {}
        self.ratios: Dict[str, float] = {}
        self.checkpoints: Dict[str, int] = {}
        self.sim_instructions = 0
        self.sim_seconds = 0.0

    def _simulate(self, kernel: Kernel, workload: BenchWorkload, registers=None):
        cycles, out, instructions, seconds = simulate(kernel, workload, registers)
        self.sim_instructions += instructions
        self.sim_seconds += seconds
        return cycles, out

    def check(self, program: Program, compiled: Kernel, stats: Dict) -> List[str]:
        """Output problems of one compiled program (empty = correct)."""
        problems = list(verify_compiled(compiled))
        abbr = program.bench.abbr
        if abbr not in self._baselines:
            self._baselines[abbr] = self._simulate(program.kernel, program.workload)
        base_cycles, base_out = self._baselines[abbr]
        cycles, out = self._simulate(
            compiled, program.workload, int(stats["registers"])
        )
        if out != base_out:
            problems.append("fault-free output differs from the unprotected kernel")
        self.ratios[program.id] = cycles / base_cycles
        self.checkpoints[program.id] = int(stats["emitted_checkpoints"])
        return [f"{program.id}: {p}" for p in problems]

    def kinst_per_s(self) -> float:
        """Fault-free simulation speed over every run :meth:`check` made."""
        return self.sim_instructions / 1e3 / self.sim_seconds

    def metrics(self) -> Dict[str, Tuple[float, str]]:
        return {
            "ckpt_stores": (float(sum(self.checkpoints.values())), "count"),
            "sim_overhead_pct": (
                100.0 * (geomean(self.ratios.values()) - 1.0),
                "%",
            ),
        }


def traced_ops_trace(sides: Dict[bool, Side]) -> Tuple[Dict[str, Fold], Counter]:
    """Folded spans, in reference seconds, and summed counters of every
    good traced op."""
    ops = [op for op in sides[True].ops if op.error is None]
    counters: Counter = Counter()
    for op in ops:
        counters.update(op.counters)
    return merge_folds(scale_fold(fold(op.spans), op.scale) for op in ops), counters


class Workload:
    """What ``run.py`` drives.  A workload sets ``name``,
    ``block_seconds`` (the nominal cost of a block in reference seconds),
    ``min_blocks`` and ``interrupt`` (see ``measure``), and defines ``setup(trace)``, ``block(index, traced)``,
    ``digest(op)``, ``finish(sides)`` (the post-run checks, returning
    problems) and ``layer_programs()`` (program, compile result) pairs
    for the per-layer probes."""

    interrupt = True

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir
        self.fig9 = Fig9()

    def exact(self) -> Dict[str, Tuple[float, str]]:
        """``ckpt_stores`` and ``sim_overhead_pct``: exact for the seed."""
        return self.fig9.metrics()

    def counts(self) -> Dict[str, int]:
        """Counts of one block that repeat exactly for the seed."""
        return {}

    def rss_mb(self) -> float:
        """Peak memory of the processes doing the work, after the run."""
        return peak_rss_mb()

    def trace(self, sides: Dict[bool, Side]) -> Tuple[Dict[str, Fold], Counter]:
        """Every span the traced run recorded, folded, and its counters."""
        return traced_ops_trace(sides)

    def layer_metrics(self, sides: Dict[bool, Side]) -> Dict[str, Tuple[float, str]]:
        """Per-layer metrics only this workload measures."""
        return {}

    def close(self) -> None:
        """Stop every process the workload started."""


def peak_rss_mb() -> float:
    """This process's peak resident set (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def proc_tree_hwm_mb(pid: int) -> float:
    """Summed peak resident set (VmHWM) of ``pid`` and its descendants."""
    total_kib = 0
    stack = [pid]
    while stack:
        p = stack.pop()
        try:
            with open(f"/proc/{p}/status") as f:
                for line in f:
                    if line.startswith("VmHWM:"):
                        total_kib += int(line.split()[1])
            for tid in os.listdir(f"/proc/{p}/task"):
                with open(f"/proc/{p}/task/{tid}/children") as f:
                    stack.extend(int(c) for c in f.read().split())
        except (FileNotFoundError, ProcessLookupError):
            continue  # exited between listing and reading
    return total_kib / 1024.0


def emit(correct: bool, attempted: int, failed: int, metrics: Dict[str, Tuple[float, str]]) -> None:
    """The result line: the last line the benchmark prints to stdout."""
    print(
        json.dumps(
            {
                "correct": bool(correct),
                "attempted": int(attempted),
                "failed": int(failed),
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        ),
        flush=True,
    )


def log(*parts: object) -> None:
    print(*parts, file=sys.stderr, flush=True)
