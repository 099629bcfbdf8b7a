"""The differential oracle.

For one :class:`FuzzCase` the oracle checks, in order:

1. **Validity** — the kernel parses and validates (mutants may not;
   that is an ``invalid_case`` outcome, not a finding).  The static
   analyzer then runs as its own subject under test: a rule crash is a
   finding on any case, and an error-severity diagnostic on a
   pure-generated (unmutated) kernel is a *false-error* finding.
2. **Baseline** — the *unprotected* kernel runs to completion on the
   functional simulator.  A baseline crash means the case itself is bad
   (``baseline_skip``), again not a compiler bug.
3. **Compilation** — the Penny compiler protects the kernel.  In
   ``strict=False`` mode *any* exception is a finding (the fallback
   lattice promised never to raise); in ``strict=True`` mode typed
   ``CompileError``\\ s and bare crashes alike are findings.
4. **Static verification** — ``verify_compiled`` must be clean.
5. **Zero-fault differential** — the protected kernel's final buffer
   contents must equal the baseline's exactly.
6. **Fault recovery** — under a deterministically-seeded single-bit
   register-file fault (same SHA-256 per-index seeding as the campaign
   engine) the protected kernel must finish with the baseline's output:
   a mismatch is silent data corruption, a simulator exception is a
   detected-unrecoverable failure; both break the paper's guarantee.

With ``cross_check=True`` a seventh stage re-runs the protected
zero-fault execution on the *other* executor backend and demands a
bit-identical :class:`ExecutionResult` and output buffers — the fuzzer
then differentially tests the lane-parallel engine against the scalar
oracle on every generated kernel, for free.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union

from repro.core.errors import CompileError, FallbackExhaustedError
from repro.core.pipeline import LaunchConfig, PennyCompiler, PennyConfig
from repro.core.schemes import scheme_config
from repro.core.verify import verify_compiled
from repro.fuzz.generator import FuzzCase
from repro.fuzz.triage import Finding, fingerprint
from repro.gpusim.backend import make_executor, resolve_backend
from repro.gpusim.campaign import stable_seed
from repro.gpusim.executor import Launch, SimulationError
from repro.gpusim.faults import FaultPlan
from repro.gpusim.memory import MemoryError32

#: instruction budget for the unprotected baseline (generated kernels are
#: tiny; a mutant that spins past this is discarded, not reported)
BASELINE_BUDGET = 300_000
#: protected-run budget: checkpoints + recoveries inflate the dynamic
#: count, but far less than this multiplier
PROTECTED_BUDGET_FACTOR = 50
PROTECTED_BUDGET_FLOOR = 50_000


@dataclass
class CaseResult:
    """Outcome of one oracle evaluation."""

    status: str  # "ok" | "invalid_case" | "baseline_skip" | "finding"
    finding: Optional[Finding] = None
    stats: Dict[str, float] = field(default_factory=dict)


def _reads_uninitialized(kernel) -> bool:
    """True when some path reaches a register read with no prior write
    (a *definitely-assigned* dataflow analysis over the CFG).

    The generator never produces such kernels, but mutation can (drop
    the defining instruction, flip a branch guard so a defining block is
    skipped).  The baseline tolerates the result — uninitialized
    registers read as zero — but the protection contract cannot hold: a
    register with no dominating write has no checkpoint, so a fault
    landing in it is restored by nothing and recovery loops until the
    budget trips.  Such kernels are undefined-behavior inputs and must
    be discarded as ``invalid_case``, never reported as findings.

    Delegates to the analyzer's shared dataflow engine
    (:func:`repro.lint.dataflow.uninitialized_reads`), the same
    must-analysis that backs the ``uninit-read`` lint rule — one engine,
    one definition of "definitely assigned".
    """
    from repro.analysis.cfg import CFG
    from repro.lint.dataflow import uninitialized_reads

    return bool(uninitialized_reads(CFG(kernel)))


def _run_analyzer(case: FuzzCase, kernel, iteration: int):
    """Run the pre-compile analyzer over one case; returns a finding or
    ``None`` (see the stage-1b comment in :func:`run_case`)."""
    from repro.lint import AnalyzerError, lint_kernel

    try:
        report = lint_kernel(kernel)
    except AnalyzerError as exc:
        return _make_finding(
            iteration,
            case,
            "lint",
            message=f"analyzer crashed in rule {exc.rule_id}: {exc}",
            exc_type="AnalyzerCrash",
            pass_name="lint",
        )
    if case.mutations:
        return None
    errors = report.errors
    if errors:
        return _make_finding(
            iteration,
            case,
            "lint",
            message="false error on generated kernel: "
            + "; ".join(d.plain() for d in errors[:5]),
            exc_type="LintFalseError",
            pass_name="lint",
        )
    return None


def _resolve_config(scheme: Union[str, PennyConfig]) -> PennyConfig:
    if isinstance(scheme, PennyConfig):
        return scheme
    return scheme_config(scheme)


def _error_fields(exc: BaseException) -> Tuple[str, str, str]:
    """(exc_type, pass_name, message) for fingerprinting.

    A :class:`FallbackExhaustedError` is bucketed by its *terminal* cause:
    the lattice exhausting is the symptom, the pass that killed the last
    rung is the bug.
    """
    if isinstance(exc, FallbackExhaustedError) and exc.terminal_cause:
        cause = exc.terminal_cause
        ctype, cpass, _ = _error_fields(cause)
        return ctype, cpass, str(cause)
    if isinstance(exc, CompileError):
        return type(exc).__name__, exc.pass_name, exc.message
    return type(exc).__name__, "unknown", str(exc)


def _make_finding(
    iteration: int,
    case: FuzzCase,
    stage: str,
    exc: Optional[BaseException] = None,
    message: Optional[str] = None,
    exc_type: str = "OracleMismatch",
    pass_name: str = "oracle",
) -> Finding:
    if exc is not None:
        exc_type, pass_name, message = _error_fields(exc)
    error = exc.to_dict() if isinstance(exc, CompileError) else {
        "type": exc_type,
        "message": message,
    }
    return Finding(
        iteration=iteration,
        seed=case.seed,
        stage=stage,
        exc_type=exc_type,
        pass_name=pass_name,
        message=message or "",
        fingerprint=fingerprint(stage, exc_type, pass_name, message or ""),
        case=case.to_dict(),
        error={k: v for k, v in error.items() if k != "kernel_ptx"},
    )


def _download_outputs(mem, out_map) -> List[Tuple[str, List[int]]]:
    return [
        (name, mem.download(addr, words))
        for name, (addr, words) in sorted(out_map.items())
    ]


def run_case(
    case: FuzzCase,
    scheme: Union[str, PennyConfig] = "Penny",
    strict: bool = False,
    fault: bool = True,
    iteration: int = 0,
    backend: str = "auto",
    cross_check: bool = False,
) -> CaseResult:
    """Run the full differential oracle over one case."""
    stats: Dict[str, float] = {}
    backend = resolve_backend(backend)

    # 1. validity
    try:
        kernel = case.kernel()
        kernel.validate()
    except ValueError:
        return CaseResult(status="invalid_case", stats=stats)
    if _reads_uninitialized(kernel):
        return CaseResult(status="invalid_case", stats=stats)

    # 1b. the static analyzer rides along as its own subject under test.
    # A rule crash on any valid kernel is an analyzer bug (stage
    # ``lint``); an *error*-severity diagnostic on a pure-generated
    # kernel is a false positive — the generator only emits well-formed,
    # race-free, convergent kernels — so that is a finding too.  Mutants
    # may legitimately trip rules (that is what the rules are for), so
    # for them only crashes count.
    lint_finding = _run_analyzer(case, kernel, iteration)
    if lint_finding is not None:
        return CaseResult(
            status="finding", finding=lint_finding, stats=stats
        )

    launch = Launch(grid=case.grid, block=case.block)
    launch_cfg = LaunchConfig(
        threads_per_block=case.block, num_blocks=case.grid
    )

    # 2. unprotected baseline
    mem, out_map = case.make_memory()
    try:
        base_exec = make_executor(
            kernel,
            backend=backend,
            rf_code_factory=lambda: None,
            max_instructions_per_thread=BASELINE_BUDGET,
        ).run(launch, mem)
    except (SimulationError, MemoryError32):
        return CaseResult(status="baseline_skip", stats=stats)
    baseline = _download_outputs(mem, out_map)
    stats["baseline_instructions"] = float(base_exec.instructions)
    per_thread_max = max(
        base_exec.thread_instructions.values(), default=1
    )
    protected_budget = max(
        PROTECTED_BUDGET_FLOOR, per_thread_max * PROTECTED_BUDGET_FACTOR
    )

    # 3. compile
    compiler = PennyCompiler(_resolve_config(scheme), strict=strict)
    try:
        result = compiler.compile(case.kernel(), launch_cfg)
    except Exception as exc:
        return CaseResult(
            status="finding",
            finding=_make_finding(iteration, case, "compile", exc=exc),
            stats=stats,
        )
    protected = result.kernel
    stats["fallback_level"] = result.stats.get("fallback_level", 0.0)

    # 4. static verification (the non-strict lattice already verified)
    if result.stats.get("verified") != 1.0:
        problems = verify_compiled(protected)
        if problems:
            return CaseResult(
                status="finding",
                finding=_make_finding(
                    iteration,
                    case,
                    "verify",
                    message="; ".join(problems[:5]),
                    exc_type="VerificationProblems",
                    pass_name="verify",
                ),
                stats=stats,
            )

    # 5. zero-fault differential
    mem2, out_map2 = case.make_memory()
    try:
        protected_exec = make_executor(
            protected,
            backend=backend,
            max_instructions_per_thread=protected_budget,
        ).run(launch, mem2)
    except (SimulationError, MemoryError32) as exc:
        return CaseResult(
            status="finding",
            finding=_make_finding(
                iteration,
                case,
                "run_zero_fault",
                message=str(exc),
                exc_type=type(exc).__name__,
                pass_name="simulator",
            ),
            stats=stats,
        )
    protected_out = _download_outputs(mem2, out_map2)
    if protected_out != baseline:
        diffs = [
            name
            for (name, a), (_, b) in zip(protected_out, baseline)
            if a != b
        ]
        return CaseResult(
            status="finding",
            finding=_make_finding(
                iteration,
                case,
                "diff_zero_fault",
                message=f"buffers differ from baseline: {diffs}",
                exc_type="DifferentialMismatch",
                pass_name="oracle",
            ),
            stats=stats,
        )

    # 5b. backend cross-check: the other engine must reproduce the
    # protected run bit for bit (results, counters, and output buffers).
    if cross_check:
        other = "scalar" if backend == "vector" else "vector"
        mem3, out_map3 = case.make_memory()
        try:
            other_exec = make_executor(
                protected,
                backend=other,
                max_instructions_per_thread=protected_budget,
            ).run(launch, mem3)
        except (SimulationError, MemoryError32) as exc:
            return CaseResult(
                status="finding",
                finding=_make_finding(
                    iteration,
                    case,
                    "cross_check",
                    message=f"{other} backend raised where {backend} "
                    f"succeeded: {exc}",
                    exc_type="BackendMismatch",
                    pass_name="vexec",
                ),
                stats=stats,
            )
        mismatch = None
        if other_exec != protected_exec:
            mismatch = "execution statistics differ"
        elif _download_outputs(mem3, out_map3) != protected_out:
            mismatch = "output buffers differ"
        if mismatch is not None:
            return CaseResult(
                status="finding",
                finding=_make_finding(
                    iteration,
                    case,
                    "cross_check",
                    message=f"{backend} vs {other}: {mismatch}",
                    exc_type="BackendMismatch",
                    pass_name="vexec",
                ),
                stats=stats,
            )

    # 6. fault recovery
    if fault and protected.meta.get("recovery_table") is not None:
        fault_result = _run_fault(
            case, protected, launch, protected_budget, iteration, backend
        )
        if fault_result is not None:
            return CaseResult(
                status="finding", finding=fault_result, stats=stats
            )
    return CaseResult(status="ok", stats=stats)


def _run_fault(
    case: FuzzCase,
    protected,
    launch: Launch,
    budget: int,
    iteration: int,
    backend: str = "auto",
) -> Optional[Finding]:
    """One deterministic single-bit RF injection; returns a finding when
    the protection contract breaks."""
    import random

    # A fresh zero-fault run profiles thread lifetimes for point selection
    # (the run above already proved this cannot raise).
    mem_p, out_map = case.make_memory()
    profile = make_executor(
        protected, backend=backend, max_instructions_per_thread=budget
    ).run(launch, mem_p)
    golden = _download_outputs(mem_p, out_map)
    lifetimes = {
        k: n for k, n in profile.thread_instructions.items() if n >= 2
    }
    if not lifetimes:
        return None

    rng = random.Random(stable_seed(case.seed, 1))
    ctaid, tid = sorted(lifetimes)[rng.randrange(len(lifetimes))]
    point = rng.randrange(1, lifetimes[(ctaid, tid)])
    plan = FaultPlan(
        ctaid=ctaid,
        tid=tid,
        after_instructions=point,
        bits=(rng.randrange(33),),
        rng_seed=rng.getrandbits(30),
    )
    mem_f, out_map_f = case.make_memory()
    try:
        make_executor(
            protected,
            backend=backend,
            max_instructions_per_thread=budget,
            fault_plan=plan,
        ).run(launch, mem_f)
    except (SimulationError, MemoryError32) as exc:
        cause = getattr(exc, "cause", type(exc).__name__)
        return _make_finding(
            iteration,
            case,
            "fault",
            message=f"injected fault was unrecoverable ({cause}): {exc}",
            exc_type=type(exc).__name__,
            pass_name="recovery",
        )
    if not plan.injected:
        return None  # thread retired before the injection point
    faulted = _download_outputs(mem_f, out_map_f)
    if faulted != golden:
        return _make_finding(
            iteration,
            case,
            "fault",
            message="silent data corruption after injected fault",
            exc_type="FaultSdc",
            pass_name="recovery",
        )
    return None
