"""The serving stack under injected faults — the PR's core invariant:

    **no request ever hangs, and no fault crashes the server.**

Every test drives a live :class:`CompileServer` (thread- or
process-pooled) with a seeded :class:`ChaosEngine` installed, then
asserts that every client request resolves to a result or a *typed*
error within its deadline, that the server keeps answering afterwards,
and that the pool's restart/quarantine counters equal what the plan
actually injected.

Also here: the coalescing proof (M concurrent cold requests for one
key → exactly one compile and one cache miss) and the cache tier's
fault-injection behaviors (ENOSPC, torn writes, corruption
self-healing).
"""

import json
import socket
import threading
import time
from pathlib import Path

import pytest

from repro.obs import Tracer
from repro.serve import (
    CircuitBreaker,
    CompileCache,
    CompileClient,
    CompileServer,
    PoisonJobError,
    RequestTimeout,
    RetryPolicy,
    ServeConfig,
)
from repro.serve.chaos import ChaosEngine, ChaosPlan
from repro.serve.key import CacheKey

PTX_TEMPLATE = """
.entry axpy{tag} (.param .ptr A, .param .u32 n) {{
ENTRY:
  mov.u32 %tid, %tid.x;
  ld.param.u32 %a, [A];
  ld.param.u32 %n, [n];
  mov.u32 %i, %tid;
HEAD:
  setp.ge.u32 %p1, %i, %n;
  @%p1 bra EXIT;
BODY:
  shl.u32 %off, %i, 2;
  add.u32 %addr, %a, %off;
  ld.global.u32 %v, [%addr];
  mad.u32 %v2, %v, {mult}, 7;
  st.global.u32 [%addr], %v2;
  add.u32 %i, %i, 32;
  bra HEAD;
EXIT:
  ret;
}}
"""

PTX = PTX_TEMPLATE.format(tag="", mult=3)

VECADD = Path(__file__).resolve().parents[2] / "examples" / "vecadd.ptx"


def _ptx(i: int) -> str:
    return PTX_TEMPLATE.format(tag=f"_{i}", mult=3 + i)


def _start_server(config, chaos=None, tracer=None):
    """Start a server on a daemon thread with chaos/tracer installed in
    its context (``start_in_thread`` copies the caller's context)."""
    server = CompileServer(config)
    if tracer is not None:
        tracer.__enter__()
    if chaos is not None:
        chaos.__enter__()
    try:
        server.start_in_thread()
    finally:
        if chaos is not None:
            chaos.__exit__(None, None, None)
        if tracer is not None:
            tracer.__exit__(None, None, None)
    return server


def _stop(server):
    server.request_shutdown()
    deadline = time.monotonic() + 5.0
    while server._ready.is_set() and time.monotonic() < deadline:
        time.sleep(0.02)


# -- the invariant: seeded faults, no hangs, typed resolutions --------------------


class TestChaosInvariant:
    def test_worker_kills_and_cache_corruption_never_hang_a_request(
        self, tmp_path
    ):
        """A seeded plan of worker SIGKILLs + disk-cache corruption +
        connection drops over a two-pass corpus: every request resolves,
        the server stays available, and the pool's counters equal the
        plan's actual injections."""
        plan = ChaosPlan.parse(
            "worker.kill:p=0.25:max=4,"
            "cache.corrupt:p=0.5:max=3,"
            "conn.drop:p=0.15:max=2",
            seed=7,
        )
        chaos = ChaosEngine(plan)
        server = _start_server(
            ServeConfig(
                port=0,
                workers=2,
                queue_limit=16,
                request_timeout=60.0,
                cache_dir=str(tmp_path / "cache"),
                # Disk-only tiering: every warm read visits the disk
                # tier, so the corruption rule has entries to damage.
                max_memory_bytes=0,
                poison_threshold=5,  # retries absorb every p<1 kill
            ),
            chaos=chaos,
        )
        try:
            client = CompileClient(
                port=server.port,
                timeout=90.0,
                retry=RetryPolicy(attempts=6, base_delay=0.05),
            )
            corpus = [_ptx(i) for i in range(4)]
            for round_no in range(2):
                for i, ptx in enumerate(corpus):
                    # The invariant is "resolves, never hangs": a typed
                    # error would fail the test by raising; the socket
                    # timeout bounds the wait.
                    response = client.compile(
                        ptx, scheme="Penny", name=f"axpy_{i}"
                    )
                    assert response["ok"], (round_no, i)

            # The server is still fully available.
            assert client.ping()
            health = client.health()
            assert health["ready"] is True

            # Counters match the injected plan: every worker.kill
            # directive killed exactly one worker, every kill was
            # restarted, nothing was quarantined.
            counts = chaos.injected_counts()
            pool = health["pool"]
            assert pool["crashes"] == counts.get("worker.kill", 0)
            assert pool["quarantined"] == 0
            deadline = time.monotonic() + 10.0
            while (
                server._pool.metrics.restarts
                < server._pool.metrics.crashes
                and time.monotonic() < deadline
            ):
                time.sleep(0.05)
            assert (
                server._pool.metrics.restarts
                == server._pool.metrics.crashes
            )
            # The corruption rule really exercised the self-healing
            # path: corrupt entries were unlinked and recompiled.
            if counts.get("cache.corrupt"):
                assert server.cache.stats.corrupt >= 1
        finally:
            _stop(server)

    def test_poison_job_is_quarantined_not_crash_looped(self):
        """p=1.0 worker kills: the job's every attempt kills a worker,
        so the client gets a typed PoisonJobError (fast) and the pool
        survives with exactly one quarantined key."""
        plan = ChaosPlan.parse("worker.kill:p=1.0", seed=1)
        chaos = ChaosEngine(plan)
        server = _start_server(
            ServeConfig(
                port=0, workers=2, queue_limit=8, poison_threshold=2
            ),
            chaos=chaos,
        )
        try:
            client = CompileClient(
                port=server.port,
                timeout=60.0,
                retry=RetryPolicy(attempts=1),
            )
            with pytest.raises(PoisonJobError) as exc_info:
                client.compile(PTX, scheme="Penny")
            assert exc_info.value.detail["strikes"] == 2

            # Resubmission fails fast without touching a worker.
            started = time.monotonic()
            with pytest.raises(PoisonJobError) as exc_info:
                client.compile(PTX, scheme="Penny")
            assert time.monotonic() - started < 5.0
            assert exc_info.value.detail.get("quarantined") is True

            # The *server* is fine once the killed workers respawn
            # (kills are immediate now, so ready can briefly be False
            # while both slots sit in their restart backoff).
            deadline = time.monotonic() + 15.0
            while True:
                health = client.health()
                if health["ready"] or time.monotonic() > deadline:
                    break
                time.sleep(0.2)
            assert health["ready"] is True
            assert health["pool"]["quarantined"] == 1
            assert health["pool"]["crashes"] == 2
        finally:
            _stop(server)

    def test_compile_hang_times_out_typed_and_server_recovers(self):
        """A worker.hang injection stalls one compile past the request
        timeout: that request gets a typed RequestTimeout, and the pool
        reclaims the worker for later requests."""
        plan = ChaosPlan.parse("worker.hang:p=1.0:max=1:delay=30", seed=3)
        chaos = ChaosEngine(plan)
        server = _start_server(
            ServeConfig(
                port=0,
                workers=2,
                queue_limit=8,
                request_timeout=1.0,
                job_timeout_grace=0.5,
            ),
            chaos=chaos,
        )
        try:
            client = CompileClient(
                port=server.port,
                timeout=30.0,
                retry=RetryPolicy(attempts=1),
            )
            with pytest.raises(RequestTimeout):
                client.compile(PTX, scheme="Penny")
            assert server.stats.timeouts == 1
            # The hang budget is spent (max=1): the next compile runs
            # clean on the pool's other (or reclaimed) worker.
            assert client.compile(
                _ptx(99), scheme="Penny"
            )["ok"]
            deadline = time.monotonic() + 10.0
            while (
                server._pool.metrics.hung_kills < 1
                and time.monotonic() < deadline
            ):
                time.sleep(0.05)
            assert server._pool.metrics.hung_kills == 1
        finally:
            _stop(server)

    def test_connection_drop_is_absorbed_by_client_retry(self):
        plan = ChaosPlan.parse("conn.drop:p=1.0:max=1", seed=5)
        chaos = ChaosEngine(plan)
        server = _start_server(
            ServeConfig(port=0, workers=1, use_threads=True),
            chaos=chaos,
        )
        try:
            client = CompileClient(
                port=server.port,
                timeout=30.0,
                retry=RetryPolicy(attempts=3, base_delay=0.01),
            )
            # First response is dropped on the floor; the retry serves
            # the same key from cache.
            response = client.compile(PTX, scheme="Penny")
            assert response["ok"]
            assert chaos.injected_counts() == {"conn.drop": 1}
            assert server.stats.requests >= 2
        finally:
            _stop(server)

    def test_dropped_connection_answers_after_a_worker_respawn(self):
        """The worker respawned after a kill is forked while the
        client's connection is open, so it holds a copy of the socket;
        the dropped response must still reach the client as EOF, so
        its retry runs at once instead of after its 20 s timeout."""
        plan = ChaosPlan.parse(
            "worker.kill:p=1:max=1,conn.drop:p=1:max=1", seed=1
        )
        chaos = ChaosEngine(plan)
        server = _start_server(ServeConfig(port=0, workers=1), chaos=chaos)
        try:
            client = CompileClient(
                port=server.port,
                timeout=20.0,
                retry=RetryPolicy(attempts=2, base_delay=0.01),
            )
            started = time.monotonic()
            response = client.compile(
                VECADD.read_text(), scheme="Penny", name="vecadd"
            )
            elapsed = time.monotonic() - started
            assert response["ok"] and response["cached"]
            assert chaos.injected_counts() == {
                "worker.kill": 1,
                "conn.drop": 1,
            }
            assert server._pool.metrics.restarts == 1
            assert elapsed < 5.0, f"the call took {elapsed:.1f} s"
        finally:
            _stop(server)


# -- coalescing proof -------------------------------------------------------------


class TestCoalescing:
    def test_m_concurrent_cold_requests_one_compile_one_miss(
        self, monkeypatch
    ):
        """M identical cold requests in flight together: exactly one
        runner call, exactly one cache miss, M-1 coalesced requests
        (obs counters + server stats agree), and every waiter gets the
        same response body."""
        M = 5
        release = threading.Event()
        calls = []
        real_execute = __import__(
            "repro.serve.batch", fromlist=["run_job"]
        ).run_job

        def gated(payload):
            calls.append(payload.get("name"))
            release.wait(timeout=30.0)
            return real_execute(payload)

        monkeypatch.setattr(
            "repro.serve.batch.run_job", gated
        )
        tracer = Tracer(record_spans=False)
        server = _start_server(
            ServeConfig(
                port=0, workers=2, queue_limit=M + 2, use_threads=True
            ),
            tracer=tracer,
        )
        try:
            socks = []
            frame = (
                json.dumps(
                    {
                        "op": "compile",
                        "id": "same",
                        "ptx": PTX,
                        "scheme": "Penny",
                    }
                ).encode()
                + b"\n"
            )
            for _ in range(M):
                sock = socket.create_connection(
                    ("127.0.0.1", server.port), timeout=30.0
                )
                sock.sendall(frame)
                socks.append(sock)

            deadline = time.monotonic() + 10.0
            while server.stats.coalesced < M - 1:
                assert (
                    time.monotonic() < deadline
                ), f"coalesced={server.stats.coalesced}"
                time.sleep(0.01)
            # The leader's runner starts on a pool thread of its own;
            # wait for its call before counting.
            while not calls:
                assert time.monotonic() < deadline, "leader never ran"
                time.sleep(0.01)
            assert len(calls) == 1, "followers must not dispatch"
            release.set()

            responses = []
            for sock in socks:
                with sock.makefile("rb") as f:
                    responses.append(json.loads(f.readline()))
                sock.close()

            assert all(r["ok"] for r in responses)
            # Identical bodies (timing field aside).
            bodies = [
                {k: v for k, v in r.items() if k != "seconds"}
                for r in responses
            ]
            assert all(b == bodies[0] for b in bodies[1:])
            assert bodies[0]["cached"] is False

            assert len(calls) == 1
            assert server.cache.stats.misses == 1
            assert server.stats.coalesced == M - 1
            counts = tracer.counters.counts
            assert counts.get("cache.miss") == 1
            assert counts.get("serve.coalesced") == M - 1
            # One more request for the same key is now a pure hit.
            client = CompileClient(port=server.port, timeout=30.0)
            assert client.compile(PTX, scheme="Penny")["cached"]
            assert server.cache.stats.misses == 1
        finally:
            release.set()
            _stop(server)

    def test_workers4_results_byte_identical_to_serial(self):
        """The pooled (4 process workers) server's compile output equals
        the in-process serial compile, byte for byte."""
        from repro.ir.printer import print_kernel
        from repro.serve.batch import run_job

        payload = {
            "ptx": PTX,
            "config": None,
            "scheme": "Penny",
            "strict": True,
            "name": "axpy",
        }
        # Serial reference, computed in this process.
        from repro.core.schemes import scheme_config
        from repro.serve.batch import CompileJob

        job = CompileJob(
            ptx=PTX,
            config=scheme_config("Penny"),
            strict=True,
            name="axpy",
        )
        status, serial_result, _ = run_job(job.to_dict())
        assert status == "ok"
        serial_kernel = print_kernel(serial_result.kernel)
        serial_dict = serial_result.to_dict()

        server = _start_server(
            ServeConfig(port=0, workers=4, queue_limit=8)
        )
        try:
            client = CompileClient(port=server.port, timeout=90.0)
            response = client.compile(
                PTX, scheme="Penny", name="axpy"
            )
            assert response["ok"]
            assert response["kernel"] == serial_kernel
            assert response["result"] == json.loads(
                json.dumps(serial_dict, sort_keys=True, default=str)
            )
        finally:
            _stop(server)


# -- cache-tier fault injection ---------------------------------------------------


def _key(tag: str) -> CacheKey:
    return CacheKey(
        ptx_sha=f"ptx-{tag}", config_sha=f"cfg-{tag}", code_sha="code"
    )


class TestCacheChaos:
    def test_enospc_counts_store_error_and_leaves_no_debris(self, tmp_path):
        cache = CompileCache(
            directory=str(tmp_path), max_memory_bytes=0
        )
        plan = ChaosPlan.parse("cache.enospc:p=1.0:max=1", seed=0)
        with ChaosEngine(plan):
            cache.put(_key("a"), {"v": 1})  # fails, silently
        assert cache.stats.store_errors == 1
        leftovers = list(tmp_path.iterdir())
        assert leftovers == [], "temp file must be cleaned up"
        assert cache.get(_key("a")) is None  # honest miss
        # The tier recovers: the budget is spent, the next store lands.
        with ChaosEngine(plan):
            pass
        cache.put(_key("a"), {"v": 1})
        assert cache.stats.store_errors == 1
        assert cache.get(_key("a")) == {"v": 1}

    def test_torn_write_is_self_healed_on_read(self, tmp_path):
        cache = CompileCache(
            directory=str(tmp_path), max_memory_bytes=0
        )
        plan = ChaosPlan.parse("cache.torn:p=1.0:max=1", seed=0)
        with ChaosEngine(plan):
            cache.put(_key("t"), {"v": 2, "pad": "x" * 100})
        # A truncated entry was published under the real name...
        assert len(list(tmp_path.glob("*.pkl"))) == 1
        # ...and the read detects, counts, unlinks, and misses.
        assert cache.get(_key("t")) is None
        assert cache.stats.corrupt == 1
        assert list(tmp_path.glob("*.pkl")) == []
        # Store/reload now round-trips.
        cache.put(_key("t"), {"v": 2, "pad": "x" * 100})
        assert cache.get(_key("t")) == {"v": 2, "pad": "x" * 100}

    def test_read_corruption_is_self_healed(self, tmp_path):
        cache = CompileCache(
            directory=str(tmp_path), max_memory_bytes=0
        )
        cache.put(_key("c"), {"v": 3})
        plan = ChaosPlan.parse("cache.corrupt:p=1.0:max=1", seed=0)
        with ChaosEngine(plan):
            assert cache.get(_key("c")) is None  # garbled on disk
        assert cache.stats.corrupt == 1
        assert list(tmp_path.glob("*.pkl")) == []
        cache.put(_key("c"), {"v": 3})
        assert cache.get(_key("c")) == {"v": 3}

    def test_truncation_on_read_is_self_healed(self, tmp_path):
        cache = CompileCache(
            directory=str(tmp_path), max_memory_bytes=0
        )
        cache.put(_key("u"), {"v": 4, "pad": "y" * 200})
        plan = ChaosPlan.parse("cache.truncate:p=1.0:max=1", seed=0)
        with ChaosEngine(plan):
            assert cache.get(_key("u")) is None
        assert cache.stats.corrupt == 1
        assert list(tmp_path.glob("*.pkl")) == []


# -- client-side resilience layers ------------------------------------------------


class TestClientResilience:
    def test_retry_deadline_bounds_elapsed_time(self):
        listener = socket.socket()
        listener.bind(("127.0.0.1", 0))
        port = listener.getsockname()[1]
        listener.close()  # connections now refused

        slept = []
        client = CompileClient(
            port=port,
            retry=RetryPolicy(
                attempts=50,
                base_delay=0.2,
                jitter=0.0,
                deadline=0.5,
            ),
            sleep=slept.append,  # virtual time: no real waiting
        )
        from repro.serve import ServerUnavailable

        with pytest.raises(ServerUnavailable) as exc_info:
            client.ping()
        detail = exc_info.value.detail
        # Connection-refused attempts are instant, so the deadline is
        # consumed by backoff sleeps... which are virtual here; the
        # loop must still stop early because elapsed+pause > deadline.
        assert detail["deadline"] == 0.5
        assert detail["deadline_exceeded"] is True
        assert detail["attempt_count"] < 50
        assert len(detail["causes"]) == detail["attempt_count"]
        assert all(
            c["kind"] == "transport" for c in detail["causes"]
        )
        assert detail["attempts"]  # back-compat cause strings

    def test_circuit_breaker_opens_half_opens_and_closes(self):
        clock = [0.0]
        breaker = CircuitBreaker(
            failure_threshold=3,
            reset_timeout=10.0,
            clock=lambda: clock[0],
        )
        assert breaker.state == "closed"
        for _ in range(3):
            assert breaker.allow()
            breaker.record_failure()
        assert breaker.state == "open"
        assert not breaker.allow()  # fails fast while open
        clock[0] = 10.1
        assert breaker.allow()  # the half-open probe
        assert not breaker.allow()  # only one probe at a time
        breaker.record_failure()  # probe failed -> open again
        assert breaker.state == "open"
        clock[0] = 20.3
        assert breaker.allow()
        breaker.record_success()
        assert breaker.state == "closed"
        assert breaker.allow()

    def test_client_raises_circuit_open_fast(self):
        listener = socket.socket()
        listener.bind(("127.0.0.1", 0))
        port = listener.getsockname()[1]
        listener.close()

        from repro.serve import CircuitOpen, ServerUnavailable

        breaker = CircuitBreaker(failure_threshold=2, reset_timeout=60.0)
        client = CompileClient(
            port=port,
            retry=RetryPolicy(attempts=2, base_delay=0.01),
            sleep=lambda s: None,
            breaker=breaker,
        )
        with pytest.raises(ServerUnavailable):
            client.ping()  # 2 transport failures -> breaker opens
        assert breaker.state == "open"
        started = time.monotonic()
        with pytest.raises(CircuitOpen) as exc_info:
            client.ping()
        assert time.monotonic() - started < 1.0
        assert exc_info.value.detail["breaker"]["state"] == "open"

    def test_breaker_ignores_typed_server_errors(self):
        """A ServerBusy (or any parsed response) proves liveness: only
        transport failures trip the breaker."""
        server = _start_server(
            ServeConfig(port=0, workers=1, use_threads=True)
        )
        try:
            breaker = CircuitBreaker(failure_threshold=1)
            client = CompileClient(
                port=server.port,
                timeout=10.0,
                retry=RetryPolicy(attempts=1),
                breaker=breaker,
            )
            from repro.serve import ProtocolError

            with pytest.raises(ProtocolError):
                client.request("no_such_op")
            assert breaker.state == "closed"
            assert client.ping()
        finally:
            _stop(server)
