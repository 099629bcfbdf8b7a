"""The async compile server: ``penny serve``.

An asyncio TCP server speaking a line-delimited JSON protocol (one
request object per line, one response object per line, strictly
request/response per connection).  Operations:

``ping``
    liveness probe, echoes ``id``.
``health``
    readiness + supervision snapshot: ``ready`` (accepting work),
    draining flag, uptime and the worker pool's
    :meth:`~repro.runtime.pool.WorkerPool.health` (alive/dead workers,
    restart/quarantine counters).  ``ready`` is an alias.
``stats``
    server counters + the cache's :meth:`CompileCache.report` — what CI
    asserts warm-path hit rates against.
``compile``
    ``{"op": "compile", "ptx": ..., "config": {...}, "launch": {...},
    "strict": true}`` — the config payload is
    :meth:`PennyConfig.to_dict` form (or ``"scheme": "Penny"`` to use a
    preset).  The response carries the protected kernel text, the
    result's ``to_dict()`` and a ``cached`` flag.
``shutdown``
    begin a graceful drain (the same path SIGTERM takes).

Scale and robustness properties:

- compilation runs on a **supervised** worker pool
  (:class:`repro.runtime.pool.WorkerPool`; processes by default, threads
  with ``use_threads=True``, which tests use so they can monkeypatch the
  job runner) behind a **bounded queue**: when ``queue_limit`` requests
  are in flight, further compiles are rejected immediately with a typed
  :class:`ServerBusy` payload — the client owns retry policy, the
  server sheds load.  A crashed worker is restarted with backoff and its
  job retried; a job that keeps killing workers is quarantined with a
  typed :class:`PoisonJobError` instead of crash-looping the farm;
- concurrent cold requests for the same :class:`CacheKey` are
  **coalesced**: the first becomes the leader and compiles, the rest
  await the same in-flight computation (one ``cache.miss``, one worker
  dispatch, one ``cache.put`` — cache-stampede suppression).  The
  shared compile is abandoned only when its *last* waiter disconnects;
- every compile has a **per-request timeout** (:class:`RequestTimeout`)
  and is **cancelled** when its client disconnects mid-request (the
  handler watches the connection while the pool works);
- SIGTERM/SIGINT (or the ``shutdown`` op) **drain gracefully**: the
  listener closes, in-flight requests finish and are answered, new
  compiles are rejected as busy, then the process exits;
- the parent consults the :class:`CompileCache` before dispatching to
  the pool and stores every miss, so a repeated corpus is served from
  memory/disk without touching a worker.

Chaos: with a :class:`repro.serve.chaos.ChaosEngine` installed, the
response path consults the ``conn.drop`` site before writing (the
connection is shut down and closed instead — the client's retry path),
the pool consults ``worker.job`` at dispatch, and the cache consults
``cache.store``/``cache.read``.

Observability: ``serve.request`` spans, ``serve.requests`` /
``serve.busy_rejections`` / ``serve.timeouts`` / ``serve.cancelled`` /
``serve.coalesced`` counters and a ``serve.queue_depth`` gauge, all
through :mod:`repro.obs`.
"""

from __future__ import annotations

import asyncio
import contextvars
import json
import signal
import threading
import time
from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple, Union

import repro.obs as obs
from repro.core.pipeline import PennyConfig
from repro.ir.printer import print_kernel
from repro.serve.batch import CompileJob, job_outcome
from repro.serve.cache import DEFAULT_MEMORY_BYTES, CompileCache
from repro.serve.chaos import SITE_CONN_SEND, active_chaos
from repro.runtime import PoolConfig, TaskRuntimeError, WorkerPool
from repro.serve.errors import (
    ProtocolError,
    RequestTimeout,
    ServeError,
    ServerBusy,
)


@dataclass
class ServeConfig:
    """Everything ``penny serve`` is configured by."""

    host: str = "127.0.0.1"
    port: int = 0  #: 0 = ephemeral (the bound port is announced)
    workers: int = 2
    queue_limit: int = 8
    request_timeout: float = 120.0
    cache_dir: Optional[str] = None
    max_memory_bytes: int = DEFAULT_MEMORY_BYTES
    #: thread pool instead of process pool (tests; GIL-bound otherwise)
    use_threads: bool = False
    #: consecutive worker deaths caused by one job before quarantine
    poison_threshold: int = 2
    #: extra slack the pool's hang detector grants beyond the request
    #: timeout (the request answers first; the pool then reclaims)
    job_timeout_grace: float = 5.0


@dataclass
class ServerStats:
    """Process-local request counters (reported by the ``stats`` op)."""

    requests: int = 0
    compiles: int = 0
    busy_rejections: int = 0
    timeouts: int = 0
    cancelled: int = 0
    errors: int = 0
    protocol_errors: int = 0
    coalesced: int = 0

    def to_dict(self) -> Dict[str, int]:
        return {
            "requests": self.requests,
            "compiles": self.compiles,
            "busy_rejections": self.busy_rejections,
            "timeouts": self.timeouts,
            "cancelled": self.cancelled,
            "errors": self.errors,
            "protocol_errors": self.protocol_errors,
            "coalesced": self.coalesced,
        }


class _LiveCompile:
    """One in-flight compile shared by every coalesced request."""

    __slots__ = ("task", "waiters")

    def __init__(self, task: asyncio.Task):
        self.task = task
        self.waiters = 1


class CompileServer:
    """One serving process: listener + bounded queue + supervised pool."""

    def __init__(self, config: Optional[ServeConfig] = None):
        self.config = config or ServeConfig()
        self.stats = ServerStats()
        self.cache = CompileCache(
            max_memory_bytes=self.config.max_memory_bytes,
            directory=self.config.cache_dir,
        )
        self.port: Optional[int] = None  #: bound port, set on start
        self._server: Optional[asyncio.base_events.Server] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._pool: Optional[WorkerPool] = None
        self._inflight = 0
        self._live: Dict[str, _LiveCompile] = {}  #: digest -> compile
        self._draining = False
        self._drained: Optional[asyncio.Event] = None
        self._ready = threading.Event()  #: for start_in_thread callers
        self._connections: set = set()
        self._handlers: set = set()
        self._started_at: Optional[float] = None

    # -- lifecycle -------------------------------------------------------------

    def run(self) -> int:
        """Blocking entry point: serve until drained (SIGTERM/SIGINT or
        a ``shutdown`` op), then return 0."""
        asyncio.run(self.serve())
        return 0

    async def serve(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._drained = asyncio.Event()
        cfg = self.config
        self._pool = WorkerPool(
            PoolConfig(
                runner="repro.serve.batch:run_job",
                workers=max(1, cfg.workers),
                use_threads=cfg.use_threads,
                job_timeout=cfg.request_timeout + cfg.job_timeout_grace,
                poison_threshold=cfg.poison_threshold,
            )
        ).start()
        for sig in (signal.SIGTERM, signal.SIGINT):
            try:
                self._loop.add_signal_handler(sig, self.initiate_drain)
            except (NotImplementedError, RuntimeError, ValueError):
                pass  # not the main thread (tests) or unsupported
        self._server = await asyncio.start_server(
            self._handle, cfg.host, cfg.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self._started_at = time.monotonic()
        obs.event("serve.listening", host=cfg.host, port=self.port)
        self._ready.set()
        try:
            await self._drained.wait()
        finally:
            self._server.close()
            try:
                await self._server.wait_closed()
            except Exception:
                pass
            # Push EOF to idle connections so their handlers exit before
            # the loop tears down (silences cancelled-task noise).
            for writer in list(self._connections):
                try:
                    _hang_up(writer)
                except Exception:
                    pass
            handlers = list(self._handlers)
            if handlers:
                await asyncio.wait(handlers, timeout=1.0)
            self._pool.shutdown(wait=False)
            self._ready.clear()

    def initiate_drain(self) -> None:
        """Begin graceful shutdown: stop accepting, finish in-flight
        work, reject new compiles as busy, then let :meth:`serve` exit.
        Safe to call more than once; must run on the server's loop."""
        if self._draining:
            return
        self._draining = True
        obs.event("serve.draining", inflight=self._inflight)
        if self._server is not None:
            self._server.close()
        if self._inflight == 0 and self._drained is not None:
            self._drained.set()

    def request_shutdown(self) -> None:
        """Thread-safe drain trigger (what tests and signal-less
        embedders call)."""
        if self._loop is not None:
            try:
                self._loop.call_soon_threadsafe(self.initiate_drain)
            except RuntimeError:
                pass  # loop already closed: the server has exited

    def start_in_thread(self, timeout: float = 10.0) -> threading.Thread:
        """Run the server on a daemon thread; returns once it is
        listening (``self.port`` is bound).  The thread runs in a copy
        of the caller's context, so a tracer or chaos engine installed
        by the caller stays visible to the server and its pool."""
        ctx = contextvars.copy_context()
        thread = threading.Thread(
            target=ctx.run, args=(self.run,), daemon=True
        )
        thread.start()
        if not self._ready.wait(timeout):
            raise RuntimeError("server did not start listening in time")
        return thread

    # -- connection handling ---------------------------------------------------

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        pending_line: Optional[bytes] = None
        task = asyncio.current_task()
        self._connections.add(writer)
        if task is not None:
            self._handlers.add(task)
        try:
            while True:
                if pending_line is not None:
                    line, pending_line = pending_line, None
                else:
                    line = await reader.readline()
                if not line:
                    break
                response, pending_line = await self._dispatch(
                    reader, line
                )
                if response is None:
                    break  # client went away mid-request
                if not await self._send(writer, response):
                    break  # chaos dropped the connection
        except (
            ConnectionResetError,
            BrokenPipeError,
            asyncio.IncompleteReadError,
        ):
            pass
        finally:
            self._connections.discard(writer)
            if task is not None:
                self._handlers.discard(task)
            try:
                _hang_up(writer)
                await writer.wait_closed()
            except Exception:
                pass

    async def _dispatch(
        self, reader: asyncio.StreamReader, line: bytes
    ) -> Tuple[Optional[Dict[str, Any]], Optional[bytes]]:
        """Handle one frame.  Returns ``(response, pipelined_line)``;
        a ``None`` response means the client disconnected."""
        self.stats.requests += 1
        obs.inc("serve.requests")
        try:
            req = json.loads(line)
            if not isinstance(req, dict):
                raise ValueError("frame is not a JSON object")
        except Exception as exc:
            self.stats.protocol_errors += 1
            return (
                _error_response(
                    None, ProtocolError(f"bad frame: {exc}")
                ),
                None,
            )
        rid = req.get("id")
        op = req.get("op")
        if op == "ping":
            return {"id": rid, "ok": True, "op": "ping"}, None
        if op in ("health", "ready"):
            return self._health_response(rid), None
        if op == "stats":
            return (
                {
                    "id": rid,
                    "ok": True,
                    "op": "stats",
                    "stats": {
                        "server": self.stats.to_dict(),
                        "cache": self.cache.report(),
                        "pool": (
                            self._pool.health() if self._pool else {}
                        ),
                        "inflight": self._inflight,
                        "queue_limit": self.config.queue_limit,
                        "draining": self._draining,
                    },
                },
                None,
            )
        if op == "shutdown":
            self._loop.call_soon(self.initiate_drain)
            return {"id": rid, "ok": True, "op": "shutdown"}, None
        if op == "compile":
            return await self._compile_request(reader, req)
        self.stats.protocol_errors += 1
        return _error_response(rid, ProtocolError(f"unknown op {op!r}")), None

    def _health_response(self, rid) -> Dict[str, Any]:
        pool_health = self._pool.health() if self._pool else {}
        ready = (
            not self._draining
            and bool(pool_health.get("alive", 0))
        )
        return {
            "id": rid,
            "ok": True,
            "op": "health",
            "ready": ready,
            "draining": self._draining,
            "uptime": (
                round(time.monotonic() - self._started_at, 3)
                if self._started_at is not None
                else None
            ),
            "inflight": self._inflight,
            "live_compiles": len(self._live),
            "coalesced": self.stats.coalesced,
            "pool": pool_health,
        }

    async def _compile_request(
        self, reader: asyncio.StreamReader, req: Dict[str, Any]
    ) -> Tuple[Optional[Dict[str, Any]], Optional[bytes]]:
        rid = req.get("id")
        if self._draining or self._inflight >= self.config.queue_limit:
            self.stats.busy_rejections += 1
            obs.inc("serve.busy_rejections")
            return (
                _error_response(
                    rid,
                    ServerBusy(
                        "draining"
                        if self._draining
                        else "request queue is full",
                        inflight=self._inflight,
                        queue_limit=self.config.queue_limit,
                        draining=self._draining,
                    ),
                ),
                None,
            )
        try:
            job = _job_from_request(req)
        except Exception as exc:
            self.stats.protocol_errors += 1
            return (
                _error_response(rid, ProtocolError(f"bad request: {exc}")),
                None,
            )

        self._inflight += 1
        obs.gauge("serve.queue_depth", self._inflight)
        started = time.perf_counter()
        try:
            with obs.span("serve.request", op="compile", job=job.name):
                return await self._compile_inner(
                    reader, rid, job, started
                )
        finally:
            self._inflight -= 1
            if self._draining and self._inflight == 0:
                self._drained.set()

    async def _compile_inner(
        self,
        reader: asyncio.StreamReader,
        rid,
        job: CompileJob,
        started: float,
    ) -> Tuple[Optional[Dict[str, Any]], Optional[bytes]]:
        key = job.cache_key()
        digest = key.digest if key is not None else None

        # Coalesce onto an identical in-flight compile *before* the
        # cache lookup — followers must not count an extra cache miss.
        live = self._live.get(digest) if digest is not None else None
        if live is not None:
            live.waiters += 1
            self.stats.coalesced += 1
            obs.inc("serve.coalesced")
        else:
            # Cache next: a warm key never touches the pool.
            if key is not None:
                hit = self.cache.get(key)
                if hit is not None:
                    self.stats.compiles += 1
                    return (
                        _ok_response(
                            rid, hit, cached=True, started=started
                        ),
                        None,
                    )
            live = _LiveCompile(
                asyncio.ensure_future(self._run_pooled(job, key))
            )
            if digest is not None:
                self._live[digest] = live
                entry = live

                def _evict(_task, digest=digest, entry=entry):
                    if self._live.get(digest) is entry:
                        del self._live[digest]

                live.task.add_done_callback(_evict)

        return await self._await_compile(reader, rid, live, started)

    async def _run_pooled(
        self, job: CompileJob, key
    ) -> Tuple[str, Any]:
        """The shared computation behind one (possibly coalesced)
        compile: dispatch to the pool, await with the request timeout,
        store the result.  Runs exactly once per live digest."""
        digest = key.digest if key is not None else None
        future = self._pool.submit(job.to_dict(), key=digest)
        try:
            status, payload, _ = job_outcome(
                await asyncio.wait_for(
                    asyncio.wrap_future(future),
                    timeout=self.config.request_timeout,
                )
            )
        finally:
            if not future.done():
                future.cancel()
        if status == "ok" and key is not None:
            self.cache.put(key, payload)
        return status, payload

    async def _await_compile(
        self,
        reader: asyncio.StreamReader,
        rid,
        live: _LiveCompile,
        started: float,
    ) -> Tuple[Optional[Dict[str, Any]], Optional[bytes]]:
        # Each request shields the shared task: one waiter walking away
        # must not kill the compile its peers are still waiting on.
        waiter = asyncio.ensure_future(asyncio.shield(live.task))
        watcher = asyncio.ensure_future(reader.readline())
        pipelined: Optional[bytes] = None
        try:
            await asyncio.wait(
                {waiter, watcher}, return_when=asyncio.FIRST_COMPLETED
            )
            if watcher.done():
                try:
                    line = watcher.result()
                except Exception:
                    line = b""  # connection error == disconnect
                if not line and not waiter.done():
                    # Disconnect mid-request: leave the shared compile;
                    # the last waiter out turns off the lights.
                    waiter.cancel()
                    await asyncio.wait({waiter})
                    self.stats.cancelled += 1
                    obs.inc("serve.cancelled")
                    live.waiters -= 1
                    if live.waiters <= 0 and not live.task.done():
                        live.task.cancel()
                    return None, None
                pipelined = line or None
                if not waiter.done():
                    await asyncio.wait({waiter})
            else:
                # Cancellation must complete before the handler loop
                # calls readline() again, or the reader raises
                # "already waiting".
                watcher.cancel()
                await asyncio.wait({watcher})
        finally:
            if not watcher.done():
                watcher.cancel()
        live.waiters -= 1

        try:
            status, payload = waiter.result()
        except asyncio.TimeoutError:
            self.stats.timeouts += 1
            obs.inc("serve.timeouts")
            return (
                _error_response(
                    rid,
                    RequestTimeout(
                        f"compile exceeded {self.config.request_timeout}s",
                        timeout=self.config.request_timeout,
                    ),
                ),
                pipelined,
            )
        except asyncio.CancelledError:
            raise
        except TaskRuntimeError as exc:  # worker crash or poison job
            self.stats.errors += 1
            obs.inc("serve.pool_failures")
            return _error_response(rid, exc), pipelined
        except ServeError as exc:
            self.stats.errors += 1
            return _error_response(rid, exc), pipelined
        except Exception as exc:  # pool infrastructure failure
            self.stats.errors += 1
            return (
                _error_response(
                    rid, ServeError(f"executor failure: {exc}")
                ),
                pipelined,
            )

        if status != "ok":
            self.stats.errors += 1
            obs.inc("serve.compile_errors")
            return (
                {
                    "id": rid,
                    "ok": False,
                    "error": {
                        "type": "RemoteCompileError",
                        "message": payload.get("message", "compile failed"),
                        "detail": payload,
                    },
                },
                pipelined,
            )
        self.stats.compiles += 1
        return (
            _ok_response(rid, payload, cached=False, started=started),
            pipelined,
        )

    async def _send(
        self, writer: asyncio.StreamWriter, payload: Dict[str, Any]
    ) -> bool:
        """Write one response frame.  Returns False when a chaos rule
        dropped the connection instead (the client's retry path)."""
        chaos = active_chaos()
        if chaos is not None:
            rule = chaos.decide(
                SITE_CONN_SEND,
                op=str(payload.get("op", "compile")),
                ok=bool(payload.get("ok")),
            )
            if rule is not None:
                try:
                    _hang_up(writer)
                except Exception:
                    pass
                return False
        writer.write(
            json.dumps(payload, sort_keys=True, default=str).encode("utf-8")
            + b"\n"
        )
        await writer.drain()
        return True


def _hang_up(writer: asyncio.StreamWriter) -> None:
    """Close a connection the server is done with, sending the FIN
    first: a worker forked while the connection was open holds a copy
    of its socket, so ``close`` alone would leave the client waiting
    out its timeout."""
    try:
        writer.write_eof()
    except OSError:
        pass  # the peer is already gone
    writer.close()


def _job_from_request(req: Dict[str, Any]) -> CompileJob:
    """Build the job from a compile frame (full config dict, or a
    ``scheme`` preset name, or server defaults)."""
    ptx = req.get("ptx")
    if not isinstance(ptx, str) or not ptx.strip():
        raise ValueError("missing 'ptx'")
    if "config" in req:
        config = PennyConfig.from_dict(req["config"])
    elif "scheme" in req:
        from repro.core.schemes import scheme_config

        config = scheme_config(req["scheme"])
    else:
        config = PennyConfig()
    from repro.core.pipeline import LaunchConfig

    launch = LaunchConfig(**req.get("launch", {}))
    return CompileJob(
        ptx=ptx,
        config=config,
        launch=launch,
        strict=bool(req.get("strict", True)),
        name=req.get("name"),
    )


def _ok_response(
    rid, result, cached: bool, started: float
) -> Dict[str, Any]:
    return {
        "id": rid,
        "ok": True,
        "cached": cached,
        "kernel": print_kernel(result.kernel),
        "result": result.to_dict(),
        "summary": result.summary(),
        "seconds": round(time.perf_counter() - started, 6),
    }


def _error_response(
    rid, error: Union[ServeError, TaskRuntimeError]
) -> Dict[str, Any]:
    return {"id": rid, "ok": False, "error": error.to_dict()}
