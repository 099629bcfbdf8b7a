"""``repro.runtime`` — the shared supervised task runtime.

Every large sweep in this repository — the compile server and batch
compiles (:mod:`repro.serve`), fault-injection campaigns
(:mod:`repro.gpusim.campaign`) and fuzz sweeps (:mod:`repro.fuzz`) —
drives worker processes over many independent tasks.  A bare
``multiprocessing.Pool`` turns a single worker SIGKILL, OOM-kill or
hang into a dead sweep; at the million-injection scale the ROADMAP
targets, a crashed worker is a *when*, not an *if*.

This package is the PR 6 worker-pool pattern generalized out of the
serving stack so every sweep engine shares one supervision story:

- :class:`~repro.runtime.pool.WorkerPool` — generation-tagged per-slot
  queues (a SIGKILL mid-``put`` corrupts nothing shared), heartbeat +
  busy-deadline liveness, exponential-backoff restarts, per-key
  consecutive-crash strikes with quarantine;
- :mod:`~repro.runtime.errors` — the typed failure vocabulary
  (:class:`WorkerCrashError`, :class:`PoisonJobError`,
  :class:`ReconciliationError`), which the compile server puts on the
  wire in the shape of :mod:`repro.serve.errors`.

The design inherits the paper's inject→detect→recover discipline: a
worker death is *detected* (liveness / heartbeat / deadline),
*contained* (exactly one task attempt dies; the task retries elsewhere,
or is quarantined after repeated kills) and *recovered* (backoff
respawn).  A quarantined task is the sweep-level analogue of a DUE —
classified and survived, never fatal to the sweep.
"""

from repro.runtime.errors import (
    PoisonJobError,
    ReconciliationError,
    TaskRuntimeError,
    WorkerCrashError,
)
from repro.runtime.pool import PoolConfig, PoolMetrics, WorkerPool

__all__ = [
    "TaskRuntimeError",
    "WorkerCrashError",
    "PoisonJobError",
    "ReconciliationError",
    "PoolConfig",
    "PoolMetrics",
    "WorkerPool",
]
