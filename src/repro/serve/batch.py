"""The compile-job path: batch compiles and the server's worker jobs.

:func:`compile_batch` runs many independent compilations with the same
contract serial code gets, at process-pool throughput:

- **deterministic ordering** — results come back in job order no matter
  which worker finished first (the campaign/fuzz engines' idiom);
- **typed per-job error capture** — a failing job yields its serialized
  :class:`repro.core.errors.CompileError` in the :class:`JobResult`, and
  a job that kills its workers yields the pool's typed
  :class:`~repro.runtime.errors.PoisonJobError`; neither kills or hangs
  the batch or another job;
- **cache consultation before dispatch** — jobs whose key is already in
  the installed (or passed) :class:`repro.serve.cache.CompileCache` skip
  the pool entirely, and every miss compiled by a worker is stored back
  by the parent, so the *next* batch is warm;
- a :class:`BatchReport` implementing the :class:`repro.obs.Reportable`
  protocol, with per-job timings for the metrics sink.

:func:`run_job` (the pool runner) and :meth:`CompileJob.cache_key` serve
the batch and :mod:`repro.serve.server` alike.  Workers run on the
supervised :class:`repro.runtime.WorkerPool` of the campaign and fuzz
sweeps (chaos site ``worker.job``), rebuilt from pure data (``ptx`` text
+ ``PennyConfig.to_dict()``); results cross the process boundary via
pickle, which is why :class:`CompileResult` pickle-safety is a tested
invariant.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

import repro.obs as obs
from repro.core.errors import CompileError
from repro.core.pipeline import (
    CompileResult,
    LaunchConfig,
    PennyCompiler,
    PennyConfig,
)
from repro.core.storage import StorageBudget
from repro.ir.parser import parse_module
from repro.ir.printer import print_kernel
from repro.runtime import PoolConfig, TaskRuntimeError, WorkerPool
from repro.serve.cache import CompileCache, active_cache
from repro.serve.key import CacheKey, compile_cache_key


@dataclass(frozen=True)
class CompileJob:
    """One unit of batch work: a single kernel's text plus its knobs."""

    ptx: str
    config: PennyConfig
    launch: LaunchConfig = field(default_factory=LaunchConfig)
    strict: bool = True
    name: Optional[str] = None

    def to_dict(self) -> Dict[str, Any]:
        return {
            "ptx": self.ptx,
            "config": self.config.to_dict(),
            "launch": {
                "threads_per_block": self.launch.threads_per_block,
                "num_blocks": self.launch.num_blocks,
            },
            "strict": self.strict,
            "name": self.name,
        }

    @classmethod
    def from_dict(cls, d: Dict[str, Any]) -> "CompileJob":
        return cls(
            ptx=d["ptx"],
            config=PennyConfig.from_dict(d["config"]),
            launch=LaunchConfig(**d.get("launch", {})),
            strict=bool(d.get("strict", True)),
            name=d.get("name"),
        )

    def cache_key(self) -> Optional[CacheKey]:
        """The key ``PennyCompiler.compile`` derives for this job under
        an installed cache (workers compile with the default budget), or
        ``None`` when ``ptx`` does not hold exactly one kernel: such a
        job skips the cache and fails as that job in :func:`run_job`."""
        try:
            module = parse_module(self.ptx)
        except Exception:
            return None
        if len(module.kernels) != 1:
            return None
        return compile_cache_key(
            module.kernels[0],
            self.config,
            launch=self.launch,
            budget=StorageBudget(),
            strict=self.strict,
        )


def jobs_from_source(
    source: str,
    config: PennyConfig,
    launch: Optional[LaunchConfig] = None,
    strict: bool = True,
    name: Optional[str] = None,
) -> List[CompileJob]:
    """One job per kernel in a PTX-subset module (canonicalized text, so
    the jobs share cache entries with any equivalent spelling)."""
    launch = launch or LaunchConfig()
    return [
        CompileJob(
            ptx=print_kernel(kernel),
            config=config,
            launch=launch,
            strict=strict,
            name=name or kernel.name,
        )
        for kernel in parse_module(source).kernels
    ]


@dataclass
class JobResult:
    """One job's outcome: exactly one of ``result`` / ``error`` is set."""

    index: int
    name: str
    result: Optional[CompileResult] = None
    error: Optional[Dict[str, Any]] = None
    cached: bool = False
    seconds: float = 0.0

    @property
    def ok(self) -> bool:
        return self.result is not None

    def to_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "index": self.index,
            "name": self.name,
            "ok": self.ok,
            "cached": self.cached,
            "seconds": round(self.seconds, 6),
        }
        if self.error is not None:
            out["error"] = self.error
        return out


@dataclass
class BatchReport:
    """A whole batch's outcome (:class:`repro.obs.Reportable`)."""

    results: List[JobResult]
    workers: int
    wall_seconds: float
    cache_hits: int
    cache_misses: int

    @property
    def failures(self) -> List[JobResult]:
        return [r for r in self.results if not r.ok]

    def compile_results(self) -> List[Optional[CompileResult]]:
        """Results in job order (``None`` where the job failed)."""
        return [r.result for r in self.results]

    def to_dict(self) -> Dict[str, Any]:
        return {
            "kind": "batch_report",
            "jobs": len(self.results),
            "ok": sum(1 for r in self.results if r.ok),
            "failed": len(self.failures),
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "workers": self.workers,
            "wall_seconds": round(self.wall_seconds, 6),
            "results": [r.to_dict() for r in self.results],
        }

    def summary(self) -> Dict[str, Any]:
        return {
            "jobs": len(self.results),
            "ok": sum(1 for r in self.results if r.ok),
            "failed": len(self.failures),
            "cache_hits": self.cache_hits,
            "workers": self.workers,
            "wall_seconds": round(self.wall_seconds, 6),
        }


def _compile_job(job: CompileJob) -> CompileResult:
    """Compile one job in-process (no cache — callers own that)."""
    module = parse_module(job.ptx)
    if len(module.kernels) != 1:
        raise CompileError(
            f"batch job {job.name!r} must contain exactly one kernel, "
            f"got {len(module.kernels)}",
            pass_name="batch",
        )
    compiler = PennyCompiler(job.config, strict=job.strict, cache=None)
    # The job's kernel is freshly parsed and private to this call.
    return compiler.compile(module.kernels[0], job.launch, copy=False)


def run_job(payload: Dict[str, Any]) -> Tuple[str, Any, float]:
    """The pool runner of every compile job (batch and server).

    Compiles ``CompileJob.from_dict(payload)`` and returns ``("ok",
    CompileResult, seconds)`` or ``("error", error_dict, seconds)``, where
    ``seconds`` is the compile time.  It never raises: a non-compiler
    exception is still just this job's error.  Module-level so worker
    processes resolve it by path and tests can monkeypatch it.
    """
    job = CompileJob.from_dict(payload)
    start = time.perf_counter()
    try:
        result = _compile_job(job)
    except CompileError as exc:
        return "error", exc.to_dict(), time.perf_counter() - start
    except Exception as exc:  # non-compiler crash: still just this job
        return (
            "error",
            {
                "type": type(exc).__name__,
                "message": str(exc),
                "pass": "serve",
                "scheme": None,
                "kernel": job.name,
                "kernel_ptx": job.ptx,
                "detail": {},
            },
            time.perf_counter() - start,
        )
    return "ok", result, time.perf_counter() - start


def job_outcome(outcome: Any) -> Tuple[str, Any, float]:
    """Map what the pool returns for one :func:`run_job` job to ``(status,
    payload, seconds)``: the runner's own 3-tuple, the pool's 2-tuple
    ``("error", payload)`` for a ``BaseException`` that escaped the
    runner, or the :class:`TaskRuntimeError` of a job whose workers
    died (its ``to_dict()`` is the payload)."""
    if isinstance(outcome, TaskRuntimeError):
        return "error", outcome.to_dict(), 0.0
    if len(outcome) == 2:
        status, payload = outcome
        return status, payload, 0.0
    return outcome


def compile_batch(
    jobs: Sequence[CompileJob],
    workers: int = 1,
    cache: Optional[CompileCache] = None,
) -> BatchReport:
    """Compile ``jobs`` on up to ``workers`` supervised processes.

    ``cache=None`` uses the context-installed cache (if any); pass a
    :class:`CompileCache` to pin one explicitly.  Failed jobs — a compile
    error, or a worker that died running the job — yield their typed
    error payload in ``report.results[i].error``.
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    jobs = list(jobs)
    if cache is None:
        cache = active_cache()
    started = time.perf_counter()
    results: List[Optional[JobResult]] = [None] * len(jobs)
    hits = 0

    with obs.span("serve.batch", jobs=len(jobs), workers=workers):
        todo: List[int] = []
        keys: Dict[int, CacheKey] = {}
        for i, job in enumerate(jobs):
            key = job.cache_key() if cache is not None else None
            if key is not None:
                hit = cache.get(key)
                if hit is not None:
                    hits += 1
                    name = job.name or f"job{i}"
                    results[i] = JobResult(
                        index=i, name=name, result=hit, cached=True
                    )
                    obs.event("batch.job", job=name, cached=True)
                    continue
                keys[i] = key
            todo.append(i)

        for index, (status, payload, seconds) in _outcomes(jobs, todo, workers):
            name = jobs[index].name or f"job{index}"
            ok = status == "ok"
            with obs.span(
                "batch.job", job=name, ok=ok, seconds=round(seconds, 6)
            ):
                if ok:
                    results[index] = JobResult(
                        index=index,
                        name=name,
                        result=payload,
                        seconds=seconds,
                    )
                    if index in keys:
                        cache.put(keys[index], payload)
                else:
                    obs.inc("batch.job_failures")
                    results[index] = JobResult(
                        index=index,
                        name=name,
                        error=payload,
                        seconds=seconds,
                    )

    report = BatchReport(
        results=[r for r in results if r is not None],
        workers=workers,
        wall_seconds=time.perf_counter() - started,
        cache_hits=hits,
        cache_misses=len(jobs) - hits,
    )
    obs.inc("batch.jobs", len(jobs))
    return report


def _outcomes(
    jobs: Sequence[CompileJob], todo: Sequence[int], workers: int
) -> Iterator[Tuple[int, Tuple[str, Any, float]]]:
    """Yield ``(index, run_job outcome)`` for every job in ``todo``
    (arrival order; the caller re-sorts by slot), mapped by
    :func:`job_outcome`."""
    if workers <= 1 or len(todo) <= 1:
        for i in todo:
            yield i, run_job(jobs[i].to_dict())
        return
    config = PoolConfig(
        workers=min(workers, len(todo)),
        runner="repro.serve.batch:run_job",
    )
    with WorkerPool(config) as pool:
        for key, outcome in pool.imap_supervised(
            (str(i), jobs[i].to_dict()) for i in todo
        ):
            yield int(key), job_outcome(outcome)
