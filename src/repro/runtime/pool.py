"""The supervised worker pool (shared by serve, batch, campaign, and fuzz).

``multiprocessing.Pool`` / ``ProcessPoolExecutor`` have no supervision
story: a worker SIGKILLed mid-job poisons the whole pool
(``BrokenProcessPool``), a hung worker occupies its slot forever, and
there is no notion of a *task* that keeps killing workers.  This pool
applies the paper's inject→detect→recover discipline to the sweep
machinery itself:

- **detect** — every worker slot is watched by a supervisor thread:
  process exit (the process's sentinel), per-worker heartbeats (a
  stalled-but-alive process is treated as dead), and a per-job busy
  deadline (a hung task is reclaimed, not leaked — this wall-clock
  deadline is distinct from the simulator's instruction-budget
  watchdog, which cannot fire when the *worker* is wedged);
- **contain** — a crash takes down exactly one task attempt.  The task
  is retried on another worker; a task whose attempts kill
  ``poison_threshold`` consecutive workers is failed with a typed
  poison error and its key quarantined, so one adversarial input cannot
  crash-loop the pool;
- **recover** — dead workers are restarted with exponential backoff
  (``restart_backoff_base * 2^consecutive_crashes``, capped), and a
  worker that completes a task resets its slot's backoff.

Each worker owns a private inbox *and* a private result channel (a
pipe for a process, a queue for a thread): a worker SIGKILLed mid-post
can corrupt at most its own channel, which is discarded on restart —
the supervisor's view of every other worker stays intact (this is why
the pool does not share one results queue the way
``multiprocessing.Pool`` does).

The supervisor is event-driven.  It sleeps in
:func:`multiprocessing.connection.wait` on a self-pipe that ``submit``
and ``shutdown`` write (a thread worker writes it too, after each
post) and, in process mode, on each live worker's result pipe and
process sentinel.  The sleep ends no later than the earliest deadline
it tracks: a dead slot's restart, a busy job's timeout, a process's
heartbeat.  So a result reaches its future, and its worker gets the
next job, as soon as the result is posted.  A ``_BACKSTOP`` poll bounds
every sleep, for the one event no handle signals: a thread worker's
exit.

Jobs are dispatched one at a time per worker, so the supervisor always
knows *which* task a dead worker was running.  Results are delivered on
:class:`concurrent.futures.Future`\\ s; sweep engines that just want
completion-ordered results over a large index space use
:meth:`WorkerPool.imap_supervised`, which keeps a bounded submission
window so a million-task sweep never materializes a million futures.

The pool is parameterized for its tenants — the compile server, batch
compiles, campaigns and fuzz sweeps:

- ``runner`` — the ``module:attr`` task function (resolved inside the
  worker, so forked workers import lazily and thread-mode tests can
  monkeypatch it);
- ``chaos_site`` — the :mod:`repro.serve.chaos` site consulted per
  dispatch (``worker.job`` for compile jobs, served or batched,
  ``campaign.worker`` for injection/fuzz sweeps), so each tenant's fault
  plan addresses its own workers.

Unabsorbed crashes and quarantine raise
:class:`~repro.runtime.errors.WorkerCrashError` /
:class:`~repro.runtime.errors.PoisonJobError` for every tenant; the
serving layer puts their ``to_dict()`` on the wire.

Chaos: at every dispatch the supervisor consults
:func:`repro.serve.chaos.active_chaos` at ``chaos_site``; a firing rule
ships a *directive* inside the payload envelope and the worker executes
it on arrival — SIGKILL itself (``*.kill``) or stall (``*.hang``).
Decisions are made per *dispatch*, so a retried task re-rolls and the
fault plan stays in one seeded place.

Observability: ``pool.restarts`` / ``pool.crashes`` / ``pool.hung`` /
``pool.quarantined`` / ``pool.jobs`` counters and ``pool.spawn`` /
``pool.worker_died`` events through :mod:`repro.obs`.
"""

from __future__ import annotations

import contextvars
import itertools
import os
import queue as thread_queue
import signal
import threading
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, Future, wait
from dataclasses import dataclass
from typing import (
    Any,
    Deque,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Tuple,
)

import repro.obs as obs
from repro.runtime.errors import PoisonJobError, WorkerCrashError

#: the default chaos site consulted at dispatch (the compile farm's);
#: sweep engines override it via :attr:`PoolConfig.chaos_site`
DEFAULT_CHAOS_SITE = "worker.job"

#: the longest the supervisor sleeps (seconds); every other event wakes
#: it at once, so this bounds only how late a thread worker's exit is
#: seen (a thread has no sentinel)
_BACKSTOP = 0.02


@dataclass
class PoolConfig:
    """Supervision knobs for one :class:`WorkerPool`."""

    workers: int = 2
    #: worker threads instead of processes (tests; GIL-bound otherwise)
    use_threads: bool = False
    #: ``module:attr`` path of the job runner (``payload -> result``)
    runner: str = ""
    #: seconds between worker heartbeats (process mode only)
    heartbeat_interval: float = 1.0
    #: a live process silent for this long is treated as dead
    heartbeat_timeout: float = 15.0
    #: a worker busy on one job longer than this is killed and reclaimed
    #: (``None`` = never; servers set it from their request timeout)
    job_timeout: Optional[float] = None
    #: consecutive worker deaths caused by one job before quarantine
    poison_threshold: int = 2
    restart_backoff_base: float = 0.05
    restart_backoff_cap: float = 2.0
    #: chaos site consulted once per dispatch
    chaos_site: str = DEFAULT_CHAOS_SITE

    def __post_init__(self):
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.poison_threshold < 1:
            raise ValueError("poison_threshold must be >= 1")
        if not self.runner:
            raise ValueError("runner is required (module:attr path)")


# -- worker side -----------------------------------------------------------------


def _resolve_runner(path: str):
    """``module:attr`` -> callable, resolved fresh per job (late binding
    keeps monkeypatched doubles visible in thread mode)."""
    import importlib

    module_name, _, attr = path.partition(":")
    return getattr(importlib.import_module(module_name), attr)


def _apply_directive(directive: Optional[Dict[str, Any]], is_process: bool):
    """Execute a chaos directive inside the worker.  Returns True when
    the worker should die silently (thread-mode kill)."""
    if not directive:
        return False
    action = directive.get("action")
    if action == "hang":
        time.sleep(float(directive.get("delay_s", 30.0)))
    elif action == "kill":
        delay = float(directive.get("delay_s", 0.0))
        if delay:
            time.sleep(delay)
        if is_process:
            os.kill(os.getpid(), signal.SIGKILL)
        return True  # thread worker: die without reporting
    return False


def _worker_main(
    slot_id: int,
    generation: int,
    inbox,
    outbox,
    runner_path: str,
    heartbeat_interval: float,
    wake,
) -> None:
    """One worker's loop: take a job envelope, run it, report the result.

    Runs as a forked/spawned process (``wake`` is ``None``) or a daemon
    thread.  A process posts on the write end of its private pipe, which
    the supervisor waits on; its beat thread and main loop share one
    send lock so their frames never interleave.  A thread posts on its
    queue and then calls ``wake`` to rouse the supervisor.  The runner's
    contract is to *return* its outcome, never raise; anything that
    escapes anyway is reported as a typed error payload so a worker bug
    does not look like a crash.
    """
    is_process = wake is None
    if is_process:
        send_lock = threading.Lock()
        stop = threading.Event()

        def post(msg) -> None:
            with send_lock:
                outbox.send(msg)

        def beat() -> None:
            while not stop.is_set():
                try:
                    post(("hb", generation))
                except Exception:
                    return
                stop.wait(heartbeat_interval)

        threading.Thread(target=beat, daemon=True).start()
    else:

        def post(msg) -> None:
            outbox.put(msg)
            wake()

    try:
        post(("ready", generation))
        while True:
            msg = inbox.get()
            if msg is None:
                break
            job_id, payload, directive = msg
            if _apply_directive(directive, is_process):
                return  # simulated kill (thread mode)
            try:
                result = _resolve_runner(runner_path)(payload)
            except BaseException as exc:  # runner contract violation
                result = (
                    "error",
                    {
                        "type": type(exc).__name__,
                        "message": str(exc),
                        "pass": "pool",
                        "scheme": None,
                        "kernel": None,
                        "kernel_ptx": None,
                        "detail": {},
                    },
                )
            post(("done", generation, job_id, result))
    finally:
        if is_process:
            stop.set()


class _Waker:
    """The supervisor's self-pipe: :meth:`wake`, from any thread, makes
    the read end readable, so a ``connection.wait`` that includes it
    returns at once; :meth:`drain` rearms it."""

    def __init__(self) -> None:
        self._r, self._w = os.pipe()
        os.set_blocking(self._r, False)
        os.set_blocking(self._w, False)
        # Serializes wake() against close(): a write racing the close
        # could land on a descriptor number the process has reused.
        self._lock = threading.Lock()

    def fileno(self) -> int:
        return self._r

    def wake(self) -> None:
        with self._lock:
            if self._w is None:
                return  # the supervisor has exited
            try:
                os.write(self._w, b"\0")
            except BlockingIOError:
                pass  # the pipe is full: a wake is already pending

    def drain(self) -> None:
        try:
            while os.read(self._r, 4096):
                pass
        except BlockingIOError:
            pass

    def close(self) -> None:
        with self._lock:
            os.close(self._w)
            os.close(self._r)
            self._w = None


# -- supervisor side -------------------------------------------------------------

_IDLE = "idle"
_BUSY = "busy"
_DEAD = "dead"  # waiting for its backoff before respawn
_STARTING = "starting"  # spawned, ready message not yet seen


@dataclass
class _Job:
    id: int
    payload: Dict[str, Any]
    key: str
    future: Future
    dispatches: int = 0


class _Slot:
    """One supervised worker position (process or thread + its queues)."""

    __slots__ = (
        "id",
        "proc",
        "generation",
        "inbox",
        "outbox",
        "state",
        "job",
        "busy_since",
        "last_seen",
        "consecutive_crashes",
        "restart_at",
    )

    def __init__(self, slot_id: int):
        self.id = slot_id
        self.proc = None
        self.generation = 0
        self.inbox = None
        self.outbox = None
        self.state = _DEAD
        self.job: Optional[_Job] = None
        self.busy_since: Optional[float] = None
        self.last_seen = 0.0
        self.consecutive_crashes = 0
        self.restart_at = 0.0


@dataclass
class PoolMetrics:
    """Monotonic supervision counters (mirrored into ``obs``)."""

    jobs_completed: int = 0
    restarts: int = 0
    crashes: int = 0
    hung_kills: int = 0
    quarantined: int = 0
    retries: int = 0

    def to_dict(self) -> Dict[str, int]:
        return {
            "jobs_completed": self.jobs_completed,
            "restarts": self.restarts,
            "crashes": self.crashes,
            "hung_kills": self.hung_kills,
            "quarantined": self.quarantined,
            "retries": self.retries,
        }


class WorkerPool:
    """Supervised fixed-size worker pool with crash/hang recovery."""

    def __init__(self, config: Optional[PoolConfig] = None):
        self.config = config or PoolConfig()
        self.metrics = PoolMetrics()
        self._slots: List[_Slot] = [
            _Slot(i) for i in range(self.config.workers)
        ]
        self._pending: Deque[_Job] = deque()
        self._inflight: Dict[int, _Job] = {}
        self._quarantine: set = set()
        self._strikes: Dict[str, int] = {}
        self._lock = threading.RLock()
        self._waker: Optional[_Waker] = None
        self._stopping = False
        self._started = False
        self._job_ids = itertools.count(1)
        self._supervisor: Optional[threading.Thread] = None
        self._mp_ctx = None

    # -- lifecycle -------------------------------------------------------------

    def start(self) -> "WorkerPool":
        if self._started:
            return self
        self._started = True
        self._waker = _Waker()
        if not self.config.use_threads:
            import multiprocessing as mp

            self._mp_ctx = mp.get_context()
        for slot in self._slots:
            self._spawn(slot, initial=True)
        # The supervisor runs in a copy of the caller's context so the
        # installed tracer and chaos engine stay visible from its thread.
        ctx = contextvars.copy_context()
        self._supervisor = threading.Thread(
            target=ctx.run,
            args=(self._supervise,),
            name="penny-pool-supervisor",
            daemon=True,
        )
        self._supervisor.start()
        return self

    def shutdown(self, wait: bool = True, timeout: float = 2.0) -> None:
        with self._lock:
            if not self._started or self._stopping:
                return
            self._stopping = True
            for job in list(self._pending):
                job.future.cancel()
            self._pending.clear()
            for job in self._inflight.values():
                job.future.cancel()
            self._inflight.clear()
        # The supervisor closes the self-pipe as it exits.
        self._waker.wake()
        if self._supervisor is not None and wait:
            self._supervisor.join(timeout=timeout)
        for slot in self._slots:
            if slot.inbox is not None:
                try:
                    slot.inbox.put_nowait(None)
                except Exception:
                    pass
        if wait:
            deadline = time.monotonic() + timeout
            for slot in self._slots:
                proc = slot.proc
                if proc is None:
                    continue
                remaining = max(0.0, deadline - time.monotonic())
                try:
                    proc.join(remaining)
                except Exception:
                    pass
                if not self.config.use_threads and proc.is_alive():
                    try:
                        proc.kill()
                        proc.join(0.5)
                    except Exception:
                        pass
            if not self.config.use_threads:
                # An inbox queue closes its pipe on its feeder thread,
                # which otherwise runs only once the pool is collected.
                # A worker that exited cleanly read its inbox dry, so
                # joining that feeder cannot block.
                for slot in self._slots:
                    if slot.inbox is None:
                        continue
                    slot.inbox.close()
                    if slot.proc is not None and slot.proc.exitcode == 0:
                        slot.inbox.join_thread()

    def __enter__(self) -> "WorkerPool":
        return self.start()

    def __exit__(self, *exc) -> bool:
        self.shutdown()
        return False

    # -- the submission API ----------------------------------------------------

    def submit(
        self, payload: Dict[str, Any], key: Optional[str] = None
    ) -> Future:
        """Queue one job; returns a future resolving to the runner's
        return value, or raising :class:`PoisonJobError` /
        :class:`WorkerCrashError`.  ``key`` identifies the job for
        poison-quarantine purposes (the compile cache digest or the
        injection index, normally); anonymous jobs still quarantine
        across their own retries."""
        future: Future = Future()
        with self._lock:
            if not self._started or self._stopping:
                future.set_exception(
                    WorkerCrashError("worker pool is not running")
                )
                return future
            if key is not None and key in self._quarantine:
                future.set_exception(
                    PoisonJobError(
                        "job key is quarantined (earlier attempts killed "
                        f"{self.config.poison_threshold} worker(s))",
                        key=key,
                        quarantined=True,
                    )
                )
                return future
            job_id = next(self._job_ids)
            job = _Job(
                id=job_id,
                payload=payload,
                key=key if key is not None else f"anon:{job_id}",
                future=future,
            )
            self._pending.append(job)
        self._waker.wake()
        return future

    def imap_supervised(
        self,
        jobs: Iterable[Tuple[str, Dict[str, Any]]],
        *,
        window: Optional[int] = None,
        stop: Optional[threading.Event] = None,
    ) -> Iterator[Tuple[str, Any]]:
        """Run ``(key, payload)`` jobs through the pool, yielding
        ``(key, outcome)`` in completion order.

        ``outcome`` is the runner's return value, or the typed pool
        exception (poison / crash error) **as a value** — the sweep
        engine decides how a quarantined task is recorded; nothing
        raises out of the loop.  At most ``window`` jobs are in flight
        at once (default ``max(64, workers * 16)``), so a
        million-injection sweep holds a bounded set of futures.

        ``stop`` is an optional drain event: once set, no further jobs
        are submitted, in-flight futures are cancelled, and iteration
        ends — the caller sees exactly the outcomes that completed
        before the drain.
        """
        if window is None:
            window = max(64, self.config.workers * 16)
        it = iter(jobs)
        inflight: Dict[Future, str] = {}
        exhausted = False
        while True:
            if stop is not None and stop.is_set():
                for fut in inflight:
                    fut.cancel()
                return
            while not exhausted and len(inflight) < window:
                try:
                    key, payload = next(it)
                except StopIteration:
                    exhausted = True
                    break
                inflight[self.submit(payload, key=key)] = key
            if not inflight:
                return
            done, _ = wait(
                inflight, timeout=0.25, return_when=FIRST_COMPLETED
            )
            for fut in done:
                key = inflight.pop(fut)
                if fut.cancelled():
                    continue
                exc = fut.exception()
                yield (key, exc if exc is not None else fut.result())

    # -- introspection ---------------------------------------------------------

    def health(self) -> Dict[str, Any]:
        """JSON-safe pool snapshot (the server's ``health`` op body)."""
        with self._lock:
            states = [s.state for s in self._slots]
            return {
                "workers": len(self._slots),
                "alive": sum(
                    1 for s in states if s in (_IDLE, _BUSY, _STARTING)
                ),
                "idle": states.count(_IDLE),
                "busy": states.count(_BUSY),
                "dead": states.count(_DEAD),
                "pending": len(self._pending),
                "inflight": len(self._inflight),
                "quarantined_keys": sorted(self._quarantine),
                "use_threads": self.config.use_threads,
                **self.metrics.to_dict(),
            }

    # -- spawning --------------------------------------------------------------

    def _spawn(self, slot: _Slot, initial: bool = False) -> None:
        slot.generation += 1
        if self.config.use_threads:
            slot.inbox = thread_queue.Queue()
            slot.outbox = thread_queue.Queue()
            writer = None
            proc = threading.Thread(
                target=_worker_main,
                args=(
                    slot.id,
                    slot.generation,
                    slot.inbox,
                    slot.outbox,
                    self.config.runner,
                    self.config.heartbeat_interval,
                    self._waker.wake,
                ),
                name=f"penny-worker-{slot.id}",
                daemon=True,
            )
        else:
            slot.inbox = self._mp_ctx.Queue()
            slot.outbox, writer = self._mp_ctx.Pipe(duplex=False)
            proc = self._mp_ctx.Process(
                target=_worker_main,
                args=(
                    slot.id,
                    slot.generation,
                    slot.inbox,
                    writer,
                    self.config.runner,
                    self.config.heartbeat_interval,
                    None,
                ),
                name=f"penny-worker-{slot.id}",
                daemon=True,
            )
        slot.proc = proc
        slot.state = _STARTING
        slot.job = None
        slot.busy_since = None
        slot.last_seen = time.monotonic()
        proc.start()
        if writer is not None:
            # The worker now holds the only write end, so its death
            # reads as EOF: a frame torn by a SIGKILL cannot block
            # the supervisor's recv.
            writer.close()
        if not initial:
            self.metrics.restarts += 1
            obs.inc("pool.restarts")
        obs.event(
            "pool.spawn",
            slot=slot.id,
            generation=slot.generation,
            initial=initial,
        )

    # -- the supervisor loop ---------------------------------------------------

    def _supervise(self) -> None:
        # Imported here, as multiprocessing is in start(), to keep it
        # out of the import of every module that imports the pool.
        from multiprocessing import connection

        # Each pass handles whatever woke it, then sleeps until a wake
        # source fires or the earliest deadline is due (_wait_set).
        try:
            while True:
                self._waker.drain()
                with self._lock:
                    if self._stopping:
                        return
                    now = time.monotonic()
                    for slot in self._slots:
                        self._drain_outbox(slot, now)
                    for slot in self._slots:
                        self._check_slot(slot, now)
                    self._dispatch(now)
                    handles, deadline = self._wait_set(now)
                connection.wait(
                    handles, max(0.0, deadline - time.monotonic())
                )
        finally:
            self._waker.close()

    def _wait_set(self, now: float) -> Tuple[List[Any], float]:
        """What the supervisor sleeps on, and the monotonic time by
        which it must wake: the earliest restart, busy or heartbeat
        deadline, and never later than ``now + _BACKSTOP``."""
        cfg = self.config
        handles: List[Any] = [self._waker]
        deadline = now + _BACKSTOP
        for slot in self._slots:
            if slot.state == _DEAD:
                # Not its handles: a dead process's sentinel and pipe
                # stay readable, which would spin the loop until the
                # restart is due.
                deadline = min(deadline, slot.restart_at)
                continue
            if not cfg.use_threads:
                handles += (slot.outbox, slot.proc.sentinel)
                deadline = min(
                    deadline, slot.last_seen + cfg.heartbeat_timeout
                )
            if slot.state == _BUSY and cfg.job_timeout is not None:
                deadline = min(deadline, slot.busy_since + cfg.job_timeout)
        return handles, deadline

    def _drain_outbox(self, slot: _Slot, now: float) -> None:
        outbox = slot.outbox
        if outbox is None:
            return
        while True:
            try:
                if self.config.use_threads:
                    msg = outbox.get_nowait()
                elif outbox.poll():
                    msg = outbox.recv()
                else:
                    return
            except thread_queue.Empty:
                return
            except Exception:
                # A worker SIGKILLed mid-post leaves a torn frame (read
                # as EOF) in its own pipe; its death is seen through
                # its sentinel, so just stop reading this incarnation.
                return
            try:
                kind = msg[0]
                generation = msg[1]
            except Exception:
                continue
            if generation != slot.generation:
                continue  # a previous incarnation's stale message
            slot.last_seen = now
            if kind == "ready":
                if slot.state == _STARTING:
                    slot.state = _IDLE
            elif kind == "hb":
                pass  # last_seen refreshed above
            elif kind == "done":
                _, _, job_id, result = msg
                job = self._inflight.pop(job_id, None)
                if job is not None and not job.future.done():
                    job.future.set_result(result)
                if job is not None:
                    self._strikes.pop(job.key, None)
                    self.metrics.jobs_completed += 1
                    obs.inc("pool.jobs")
                if slot.job is not None and slot.job.id == job_id:
                    slot.job = None
                    slot.busy_since = None
                    slot.consecutive_crashes = 0
                    slot.state = _IDLE

    def _check_slot(self, slot: _Slot, now: float) -> None:
        if slot.state == _DEAD:
            if now >= slot.restart_at:
                self._spawn(slot)
            return
        proc = slot.proc
        if proc is None or not proc.is_alive():
            self._on_worker_death(slot, now, cause="crash")
            return
        # A live-but-silent process (stuck syscall, SIGSTOP) is dead for
        # scheduling purposes; heartbeats only exist in process mode.
        if (
            not self.config.use_threads
            and now - slot.last_seen > self.config.heartbeat_timeout
        ):
            self._kill_worker(slot)
            self._on_worker_death(slot, now, cause="silent")
            return
        if (
            slot.state == _BUSY
            and self.config.job_timeout is not None
            and slot.busy_since is not None
            and now - slot.busy_since > self.config.job_timeout
        ):
            self._kill_worker(slot)
            self.metrics.hung_kills += 1
            obs.inc("pool.hung")
            self._on_worker_death(slot, now, cause="hung")

    def _kill_worker(self, slot: _Slot) -> None:
        if self.config.use_threads:
            return  # threads cannot be killed; the slot is abandoned
        try:
            slot.proc.kill()
        except Exception:
            pass

    def _on_worker_death(self, slot: _Slot, now: float, cause: str) -> None:
        job = slot.job
        self.metrics.crashes += 1
        obs.inc("pool.crashes")
        obs.event(
            "pool.worker_died",
            slot=slot.id,
            cause=cause,
            job=(job.key if job else None),
        )
        if job is not None:
            self._inflight.pop(job.id, None)
            if job.future.done():
                pass  # caller gave up (timeout/cancel): reclaim only
            else:
                strikes = self._strikes.get(job.key, 0) + 1
                self._strikes[job.key] = strikes
                if strikes >= self.config.poison_threshold:
                    self._quarantine.add(job.key)
                    self.metrics.quarantined += 1
                    obs.inc("pool.quarantined")
                    job.future.set_exception(
                        PoisonJobError(
                            f"job killed {strikes} worker(s) and was "
                            "quarantined",
                            key=job.key,
                            strikes=strikes,
                            cause=cause,
                        )
                    )
                else:
                    self.metrics.retries += 1
                    obs.inc("pool.retries")
                    self._pending.appendleft(job)
        slot.job = None
        slot.busy_since = None
        slot.state = _DEAD
        slot.consecutive_crashes += 1
        backoff = min(
            self.config.restart_backoff_cap,
            self.config.restart_backoff_base
            * (2.0 ** (slot.consecutive_crashes - 1)),
        )
        slot.restart_at = now + backoff

    def _dispatch(self, now: float) -> None:
        for slot in self._slots:
            if not self._pending:
                return
            if slot.state != _IDLE:
                continue
            job = self._pending.popleft()
            if job.future.done():
                continue  # cancelled while queued
            directive = None
            chaos = _active_chaos()
            if chaos is not None:
                rule = chaos.decide(
                    self.config.chaos_site, key=job.key, slot=slot.id
                )
                if rule is not None:
                    directive = {
                        "action": rule.action,
                        "delay_s": rule.delay_s,
                    }
            job.dispatches += 1
            try:
                slot.inbox.put_nowait(
                    (job.id, job.payload, directive)
                )
            except Exception:
                # Inbox unusable (worker just died): retry elsewhere.
                self._pending.appendleft(job)
                continue
            self._inflight[job.id] = job
            slot.job = job
            slot.busy_since = now
            slot.state = _BUSY


def _active_chaos():
    """Late-bound :func:`repro.serve.chaos.active_chaos` (imported at
    first dispatch, not module load, because ``repro.serve`` imports
    this module — a top-level import would be circular)."""
    global _chaos_fn
    if _chaos_fn is None:
        from repro.serve.chaos import active_chaos

        _chaos_fn = active_chaos
    return _chaos_fn()


_chaos_fn = None
