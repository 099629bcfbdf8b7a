"""The fuzz campaign driver.

Mirrors the fault-injection campaign engine's architecture
(:mod:`repro.gpusim.campaign`): a pure-data :class:`FuzzSpec` from which
worker processes rebuild everything, deterministic per-iteration SHA-256
seeding (iteration ``i`` of a campaign produces the same case and the
same oracle verdict no matter which worker runs it, or whether any
worker runs it twice), and an optional crash-safe JSONL finding corpus.

Reduction runs in the parent after the sweep: one representative per
triage bucket is shrunk with the ddmin reducer under a same-fingerprint
repro check.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Sequence

import repro.obs as obs
from repro.fuzz.generator import FuzzCase, GeneratorConfig, generate_case
from repro.fuzz.mutators import mutate_case
from repro.fuzz.oracle import run_case
from repro.fuzz.reducer import instruction_count, reduce_case
from repro.fuzz.triage import Finding, TriageCorpus, fingerprint
from repro.gpusim.campaign import stable_seed
from repro.runtime.errors import TaskRuntimeError
from repro.runtime.pool import PoolConfig, WorkerPool

#: per-iteration outcome labels (findings carry their stage separately)
OUTCOME_OK = "ok"
OUTCOME_INVALID = "invalid_case"
OUTCOME_BASELINE_SKIP = "baseline_skip"
OUTCOME_FINDING = "finding"
#: the worker running the iteration died (segfault, OOM-kill, hang):
#: recorded as a Finding with the generating seed instead of vanishing
OUTCOME_HARNESS_CRASH = "harness_crash"


@dataclass(frozen=True)
class FuzzSpec:
    """Everything a worker needs to run any iteration of a campaign."""

    iterations: int = 100
    seed: int = 2020
    scheme: str = "Penny"
    strict: bool = False
    fault: bool = True
    mutate_rate: float = 0.3
    mutate_rounds: int = 2
    buffer_words: int = 160
    backend: str = "auto"  # executor engine: auto | scalar | vector
    cross_check: bool = False  # re-run zero-fault on the other backend

    def __post_init__(self):
        if self.iterations < 0:
            raise ValueError("iterations must be >= 0")
        if not 0.0 <= self.mutate_rate <= 1.0:
            raise ValueError("mutate_rate must be in [0, 1]")
        if self.backend not in ("auto", "scalar", "vector"):
            raise ValueError(f"unknown executor backend {self.backend!r}")

    def to_dict(self) -> Dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, d: Dict) -> "FuzzSpec":
        return cls(**d)

    def generator_config(self) -> GeneratorConfig:
        return GeneratorConfig(buffer_words=self.buffer_words)

    def case_for_iteration(self, index: int) -> FuzzCase:
        """Deterministically build iteration ``index``'s case."""
        import random

        case_seed = stable_seed(self.seed, index)
        case = generate_case(case_seed, self.generator_config())
        rng = random.Random(stable_seed(self.seed, index) ^ 0x5EED)
        if rng.random() < self.mutate_rate:
            case = mutate_case(
                case, rng.getrandbits(32), rounds=self.mutate_rounds
            )
        return case


@dataclass
class FuzzReport:
    """Aggregated sweep results."""

    spec: Optional[FuzzSpec] = None
    outcomes: Dict[str, int] = field(default_factory=dict)
    findings: List[Finding] = field(default_factory=list)

    @property
    def iterations_run(self) -> int:
        return sum(self.outcomes.values())

    def buckets(self) -> Dict[str, List[Finding]]:
        out: Dict[str, List[Finding]] = {}
        for f in self.findings:
            out.setdefault(f.fingerprint, []).append(f)
        return out

    def summary(self) -> Dict[str, Any]:
        return {
            "iterations": self.iterations_run,
            "findings": len(self.findings),
            "buckets": len(self.buckets()),
            **{
                f"outcome.{k}": v for k, v in sorted(self.outcomes.items())
            },
        }

    def to_dict(self) -> Dict:
        return {
            "kind": "fuzz_report",
            "spec": self.spec.to_dict() if self.spec else None,
            "outcomes": dict(sorted(self.outcomes.items())),
            "buckets": {
                fp: {
                    "count": len(fs),
                    "stage": fs[0].stage,
                    "pass": fs[0].pass_name,
                    "exc_type": fs[0].exc_type,
                    "example_seed": fs[0].seed,
                    "reduced_instructions": fs[0].reduced_instructions,
                    "original_instructions": fs[0].original_instructions,
                }
                for fp, fs in sorted(self.buckets().items())
            },
        }


def _run_iteration(spec: FuzzSpec, index: int) -> Dict:
    """One iteration → a plain-data record (process-boundary safe)."""
    case_seed = stable_seed(spec.seed, index)
    with obs.span(
        "fuzz.iteration",
        iteration=index,
        seed=case_seed,
        scheme=spec.scheme,
    ) as it_span:
        case = spec.case_for_iteration(index)
        result = run_case(
            case,
            scheme=spec.scheme,
            strict=spec.strict,
            fault=spec.fault,
            iteration=index,
            backend=spec.backend,
            cross_check=spec.cross_check,
        )
        it_span.tag(outcome=result.status)
    obs.inc(f"fuzz.outcome.{result.status}")
    record: Dict = {"index": index, "outcome": result.status}
    if result.finding is not None:
        obs.inc("fuzz.findings")
        record["finding"] = dataclasses.asdict(result.finding)
    return record


_WORKER_SPEC: Optional[FuzzSpec] = None


def _pool_runner(payload: Dict) -> Dict:
    """The supervised pool's task runner: one fuzz iteration per call
    (the spec is cached per worker process)."""
    global _WORKER_SPEC
    spec = FuzzSpec.from_dict(payload["spec"])
    if _WORKER_SPEC != spec:
        _WORKER_SPEC = spec
    return _run_iteration(_WORKER_SPEC, int(payload["index"]))


def _crash_finding(
    spec: FuzzSpec, index: int, exc: TaskRuntimeError
) -> Finding:
    """A worker death mid-iteration, triaged like any other failure.

    ``case`` is empty — the worker died before the case could be
    serialized back — but ``seed`` is the generating seed, so
    ``spec.case_for_iteration(index)`` (or ``penny fuzz --seed``)
    rebuilds the exact input that killed the worker.
    """
    exc_type = type(exc).__name__
    message = getattr(exc, "message", str(exc))
    return Finding(
        iteration=index,
        seed=stable_seed(spec.seed, index),
        stage=OUTCOME_HARNESS_CRASH,
        exc_type=exc_type,
        pass_name="harness",
        message=message,
        fingerprint=fingerprint(
            OUTCOME_HARNESS_CRASH, exc_type, "harness", message
        ),
        case={},
        error=exc.to_dict() if hasattr(exc, "to_dict") else {},
    )


class FuzzRunner:
    """Runs a :class:`FuzzSpec`, optionally in parallel on the
    supervised worker pool, then triages (and optionally reduces) the
    findings.

    A worker that dies mid-iteration (previously: the iteration silently
    vanished from a ``multiprocessing.Pool`` sweep, or aborted it) is
    retried; past ``poison_threshold`` consecutive deaths the iteration
    is recorded as a :class:`Finding` with stage ``harness_crash`` and
    the generating seed — crash opacity was itself a finding-shaped bug.
    """

    def __init__(
        self,
        spec: FuzzSpec,
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

    def run(self, reduce: bool = False) -> FuzzReport:
        with obs.span(
            "fuzz.run",
            iterations=self.spec.iterations,
            seed=self.spec.seed,
            scheme=self.spec.scheme,
            workers=self.workers,
        ) as run_span:
            report = self._run(reduce)
            run_span.tag(findings=len(report.findings))
        return report

    def _run(self, reduce: bool) -> FuzzReport:
        report = FuzzReport(spec=self.spec)
        corpus = TriageCorpus(self.journal_path)
        try:
            for record in self._execute(range(self.spec.iterations)):
                outcome = record["outcome"]
                report.outcomes[outcome] = (
                    report.outcomes.get(outcome, 0) + 1
                )
                if "finding" in record:
                    finding = Finding(**record["finding"])
                    report.findings.append(finding)
            if reduce and report.findings:
                self._reduce_buckets(report)
            # Corpus entries are written once, post-reduction, so the
            # journal carries the shrunk reproducers.
            for finding in report.findings:
                corpus.append(finding)
        finally:
            corpus.close()
        return report

    def _execute(self, todo: Sequence[int]) -> Iterable[Dict]:
        if self.workers <= 1 or len(todo) <= 1:
            for i in todo:
                yield _run_iteration(self.spec, i)
            return
        config = PoolConfig(
            workers=self.workers,
            use_threads=self.use_threads,
            runner="repro.fuzz.harness:_pool_runner",
            job_timeout=self.wall_timeout,
            poison_threshold=self.poison_threshold,
            chaos_site="campaign.worker",
        )
        spec_dict = self.spec.to_dict()
        jobs = ((str(i), {"spec": spec_dict, "index": i}) for i in todo)
        with WorkerPool(config) as pool:
            for key, outcome in pool.imap_supervised(jobs):
                index = int(key)
                if isinstance(outcome, TaskRuntimeError):
                    obs.inc("fuzz.harness_crashes")
                    finding = _crash_finding(self.spec, index, outcome)
                    yield {
                        "index": index,
                        "outcome": OUTCOME_HARNESS_CRASH,
                        "finding": dataclasses.asdict(finding),
                    }
                else:
                    yield outcome

    # -- reduction ----------------------------------------------------------------

    def _reduce_buckets(self, report: FuzzReport) -> None:
        """ddmin the first finding of every bucket in-place."""
        for fp, findings in report.buckets().items():
            rep = findings[0]
            if not rep.case:
                continue  # harness_crash: no case to shrink (seed only)
            case = rep.fuzz_case()
            original = instruction_count(case.kernel_text)

            def reproduces(candidate: FuzzCase) -> bool:
                result = run_case(
                    candidate,
                    scheme=self.spec.scheme,
                    strict=self.spec.strict,
                    fault=self.spec.fault,
                    iteration=rep.iteration,
                    backend=self.spec.backend,
                    cross_check=self.spec.cross_check,
                )
                return (
                    result.finding is not None
                    and result.finding.fingerprint == fp
                )

            reduced = reduce_case(case, reproduces)
            rep.original_instructions = original
            rep.reduced_instructions = instruction_count(
                reduced.kernel_text
            )
            rep.reduced_kernel = reduced.kernel_text
