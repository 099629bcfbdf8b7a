"""``repro.serve`` — compilation-as-a-service.

Four layers turn the one-shot compiler into a serving subsystem:

- **Content-addressed compile cache** (:mod:`repro.serve.cache`,
  :mod:`repro.serve.key`): results keyed by SHA-256 of the canonical
  kernel text, the canonical :class:`~repro.core.pipeline.PennyConfig`
  serialization and a code-version fingerprint; an in-memory LRU with a
  byte budget over an atomic, corruption-tolerant, self-healing disk
  store (write faults counted, corrupt entries unlinked on read).
  Installing a cache (``with CompileCache(...):``) accelerates every
  existing entry point — :class:`~repro.core.pipeline.PennyCompiler`
  consults the context's cache on each ``compile()``.

- **Parallel batch driver** (:mod:`repro.serve.batch`):
  :func:`compile_batch` fans jobs over the supervised
  :class:`repro.runtime.WorkerPool` with the server's job runner and
  cache key: deterministic result ordering, per-job typed error capture
  (a job that kills its workers ends as a :class:`PoisonJobError`) and
  cache consultation before dispatch.

- **Async server + client** (:mod:`repro.serve.server`,
  :mod:`repro.serve.client`): ``penny serve`` fronts the *supervised*
  :class:`repro.runtime.WorkerPool` — crashed workers restart with
  backoff, hung workers are reclaimed, poison jobs are quarantined with
  a typed :class:`PoisonJobError` — behind a bounded queue (typed
  :class:`ServerBusy` backpressure), with per-cache-key request
  coalescing, per-request timeouts, disconnect cancellation, a
  ``health`` op and graceful SIGTERM drain; ``penny client`` retries
  transient failures with exponential backoff plus jitter under an
  optional wall-clock deadline, and an optional :class:`CircuitBreaker`
  fails fast while the server is down.

- **Chaos harness** (:mod:`repro.serve.chaos`): seeded, plan-driven
  service-level fault injection — worker kills and hangs, cache
  corruption/truncation/ENOSPC, connection drops — installable for a
  dynamic scope (``with ChaosEngine(plan):``) exactly like the cache
  and tracer, and inert (one context-var read) when absent.

Quickstart::

    from repro.serve import CompileCache, compile_batch, jobs_from_source

    with CompileCache(directory="~/.cache/penny"):
        jobs = jobs_from_source(open("kernels.ptx").read(), config)
        report = compile_batch(jobs, workers=4)   # second run: all hits
"""

from repro.serve.batch import (
    BatchReport,
    CompileJob,
    JobResult,
    compile_batch,
    jobs_from_source,
)
from repro.serve.cache import (
    CacheStats,
    CompileCache,
    active_cache,
    default_cache_dir,
)
from repro.serve.chaos import (
    ChaosEngine,
    ChaosEvent,
    ChaosPlan,
    ChaosRule,
    active_chaos,
)
from repro.serve.client import (
    DEFAULT_PORT,
    CircuitBreaker,
    CompileClient,
    RetryPolicy,
    wait_until_ready,
)
from repro.serve.errors import (
    CircuitOpen,
    PoisonJobError,
    ProtocolError,
    RemoteCompileError,
    RequestCancelled,
    RequestTimeout,
    ServeError,
    ServerBusy,
    ServerUnavailable,
    WorkerCrashError,
    error_from_dict,
)
from repro.serve.key import (
    CacheKey,
    canonical_config_json,
    code_fingerprint,
    compile_cache_key,
)
from repro.serve.server import CompileServer, ServeConfig, ServerStats

__all__ = [
    # cache
    "CompileCache",
    "CacheStats",
    "active_cache",
    "default_cache_dir",
    "CacheKey",
    "compile_cache_key",
    "canonical_config_json",
    "code_fingerprint",
    # batch
    "CompileJob",
    "JobResult",
    "BatchReport",
    "compile_batch",
    "jobs_from_source",
    # server + client
    "CompileServer",
    "ServeConfig",
    "ServerStats",
    "CompileClient",
    "RetryPolicy",
    "CircuitBreaker",
    "DEFAULT_PORT",
    "wait_until_ready",
    # chaos
    "ChaosEngine",
    "ChaosPlan",
    "ChaosRule",
    "ChaosEvent",
    "active_chaos",
    # errors
    "ServeError",
    "ServerBusy",
    "RequestTimeout",
    "RequestCancelled",
    "ProtocolError",
    "ServerUnavailable",
    "RemoteCompileError",
    "WorkerCrashError",
    "PoisonJobError",
    "CircuitOpen",
    "error_from_dict",
]
