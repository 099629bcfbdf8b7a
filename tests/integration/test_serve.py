"""The compile server end to end: protocol, backpressure, cancellation,
drain, and the client's retry discipline.

The in-process tests run the server on a daemon thread with a *thread*
pool (``use_threads=True``) so the executor entry point
(``repro.serve.batch.run_job``) can be monkeypatched with
slow/instrumented doubles.  The SIGTERM drain test exercises the real
``penny serve`` process.
"""

import json
import os
import random
import signal
import socket
import subprocess
import sys
import threading
import time

import pytest

from repro.core.pipeline import PennyConfig
from repro.serve import (
    CompileClient,
    CompileServer,
    ProtocolError,
    RemoteCompileError,
    RequestTimeout,
    RetryPolicy,
    ServeConfig,
    ServerBusy,
    ServerUnavailable,
    wait_until_ready,
)

PTX = """
.entry axpy (.param .ptr A, .param .u32 n) {
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
  mad.u32 %v2, %v, 3, 7;
  st.global.u32 [%addr], %v2;
  add.u32 %i, %i, 32;
  bra HEAD;
EXIT:
  ret;
}
"""

BAD_PTX = ".entry broken (.param .ptr A) {\nENTRY:\n  bra NOWHERE;\n}\n"


@pytest.fixture
def server():
    srv = CompileServer(
        ServeConfig(port=0, workers=2, queue_limit=2, use_threads=True)
    )
    srv.start_in_thread()
    yield srv
    srv.request_shutdown()
    time.sleep(0.1)


def _client(server, **kw):
    kw.setdefault("retry", RetryPolicy(attempts=2, base_delay=0.01))
    kw.setdefault("rng", random.Random(0))
    kw.setdefault("sleep", lambda s: None)
    return CompileClient(port=server.port, **kw)


# -- the happy path ---------------------------------------------------------------


def test_ping_compile_and_cached_repeat(server):
    client = _client(server)
    assert client.ping()

    first = client.compile(PTX, config=PennyConfig())
    assert first["ok"] and not first["cached"]
    assert ".entry axpy" in first["kernel"]
    assert first["result"]["kind"] == "compile_result"

    second = client.compile(PTX, config=PennyConfig())
    assert second["cached"]
    assert second["kernel"] == first["kernel"]
    assert second["result"] == first["result"]

    stats = client.stats()
    assert stats["server"]["compiles"] == 2
    assert stats["cache"]["stats"]["hits"] == 1


def test_scheme_preset_and_compile_error(server):
    client = _client(server)
    response = client.compile(PTX, scheme="Penny")
    assert response["ok"]

    with pytest.raises(RemoteCompileError) as exc_info:
        client.compile(BAD_PTX, config=PennyConfig())
    assert "NOWHERE" in str(exc_info.value)
    # The full typed compiler payload rides along.
    assert "NOWHERE" in exc_info.value.detail["message"]
    assert "type" in exc_info.value.detail


def test_base_exception_escaping_the_runner_is_a_compile_error(
    server, monkeypatch
):
    """The pool's fallback for a ``BaseException`` that escaped
    ``run_job`` reaches the client as a typed compile error."""
    import repro.serve.batch as batch_mod

    def exiting(job):
        raise SystemExit(3)

    monkeypatch.setattr(batch_mod, "_compile_job", exiting)
    client = _client(server, retry=RetryPolicy(attempts=1))
    with pytest.raises(RemoteCompileError) as exc_info:
        client.compile(PTX, config=PennyConfig())
    assert exc_info.value.detail["type"] == "SystemExit"
    assert exc_info.value.detail["pass"] == "pool"


def test_protocol_errors_are_typed(server):
    client = _client(server, retry=RetryPolicy(attempts=1))
    with pytest.raises(ProtocolError):
        client.request("compile")  # no ptx
    with pytest.raises(ProtocolError):
        client.request("no_such_op")
    # A raw garbage frame gets a typed error response, not a hangup.
    with socket.create_connection(("127.0.0.1", server.port)) as sock:
        sock.sendall(b"this is not json\n")
        response = json.loads(sock.makefile("rb").readline())
    assert response["ok"] is False
    assert response["error"]["type"] == "ProtocolError"


def test_pipelined_requests_on_one_connection(server):
    """Two frames written back to back must both be answered (the
    disconnect watcher must hand the second frame back intact)."""
    frames = [
        {"op": "compile", "id": i, "ptx": PTX, "strict": True}
        for i in range(2)
    ]
    with socket.create_connection(("127.0.0.1", server.port)) as sock:
        sock.sendall(
            b"".join(json.dumps(f).encode() + b"\n" for f in frames)
        )
        reader = sock.makefile("rb")
        responses = [json.loads(reader.readline()) for _ in range(2)]
    assert [r["id"] for r in responses] == [0, 1]
    assert all(r["ok"] for r in responses)


# -- robustness: backpressure, cancellation, timeouts -----------------------------


def _install_slow_executor(monkeypatch, release: threading.Event):
    """Replace the pool entry point with one that blocks until released."""
    calls = []

    def slow(payload):
        calls.append(payload.get("name"))
        release.wait(timeout=10.0)
        return "error", {
            "type": "CompileError",
            "message": "slow double",
            "pass": "serve",
            "scheme": None,
            "kernel": payload.get("name"),
            "kernel_ptx": payload.get("ptx", ""),
            "detail": {},
        }, 0.0

    monkeypatch.setattr("repro.serve.batch.run_job", slow)
    return calls


def test_queue_bound_rejects_with_typed_busy(server, monkeypatch):
    release = threading.Event()
    _install_slow_executor(monkeypatch, release)

    # Fill the queue (limit 2) with hanging requests on raw sockets.
    hogs = []
    try:
        for i in range(server.config.queue_limit):
            sock = socket.create_connection(("127.0.0.1", server.port))
            sock.sendall(
                json.dumps({"op": "compile", "id": i, "ptx": PTX}).encode()
                + b"\n"
            )
            hogs.append(sock)
        deadline = time.monotonic() + 5.0
        while server._inflight < server.config.queue_limit:
            assert time.monotonic() < deadline, "queue never filled"
            time.sleep(0.01)

        # The N+1th compile is rejected immediately with ServerBusy.
        client = _client(
            server, retry=RetryPolicy(attempts=1, retry_busy=False)
        )
        with pytest.raises(ServerBusy) as exc_info:
            client.compile(PTX)
        assert exc_info.value.detail["queue_limit"] == 2
        # Non-compile ops still answer while the queue is full.
        assert client.ping()
        assert server.stats.busy_rejections >= 1
    finally:
        release.set()
        for sock in hogs:
            sock.close()


def test_mid_request_disconnect_cancels(server, monkeypatch):
    release = threading.Event()
    calls = _install_slow_executor(monkeypatch, release)

    sock = socket.create_connection(("127.0.0.1", server.port))
    sock.sendall(
        json.dumps({"op": "compile", "id": "gone", "ptx": PTX}).encode()
        + b"\n"
    )
    deadline = time.monotonic() + 5.0
    while not calls:
        assert time.monotonic() < deadline, "request never dispatched"
        time.sleep(0.01)
    sock.close()  # walk away mid-compile

    deadline = time.monotonic() + 5.0
    while server.stats.cancelled < 1:
        assert time.monotonic() < deadline, "disconnect not noticed"
        time.sleep(0.01)
    release.set()
    deadline = time.monotonic() + 5.0
    while server._inflight:
        assert time.monotonic() < deadline, "slot never freed"
        time.sleep(0.01)
    # The server is still healthy afterwards.
    assert _client(server).ping()


def test_request_timeout_is_typed(monkeypatch):
    srv = CompileServer(
        ServeConfig(
            port=0,
            workers=1,
            queue_limit=2,
            request_timeout=0.2,
            use_threads=True,
        )
    )
    release = threading.Event()
    _install_slow_executor(monkeypatch, release)
    srv.start_in_thread()
    try:
        client = _client(srv, retry=RetryPolicy(attempts=1))
        with pytest.raises(RequestTimeout):
            client.compile(PTX)
        assert srv.stats.timeouts == 1
    finally:
        release.set()
        srv.request_shutdown()


# -- drain ------------------------------------------------------------------------


def test_shutdown_op_drains(server):
    client = _client(server)
    assert client.compile(PTX)["ok"]
    assert client.shutdown()
    deadline = time.monotonic() + 5.0
    while not server._draining:
        assert time.monotonic() < deadline
        time.sleep(0.01)
    # Draining: new compiles are busy-rejected.
    with pytest.raises((ServerBusy, ServerUnavailable, OSError)):
        _client(server, retry=RetryPolicy(attempts=1, retry_busy=False)).compile(PTX)


def test_sigterm_drains_the_real_process(tmp_path):
    """``penny serve`` under SIGTERM: answers in-flight work, exits 0."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(os.path.dirname(__file__), "..", "..", "src")
    proc = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro.cli",
            "serve",
            "--port",
            "0",
            "--workers",
            "1",
            "--threads",
        ],
        env=env,
        stderr=subprocess.PIPE,
        text=True,
    )
    try:
        # The bound port is announced on stderr.
        line = proc.stderr.readline()
        assert "listening on" in line, line
        port = int(line.rsplit(":", 1)[1].split()[0])
        assert wait_until_ready("127.0.0.1", port, timeout=10.0)

        client = CompileClient(port=port, timeout=30.0)
        assert client.compile(PTX, scheme="Penny")["ok"]

        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=15.0) == 0
        remainder = proc.stderr.read()
        assert "drained" in remainder
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


# -- the client's retry discipline ------------------------------------------------


def test_backoff_is_exponential_with_bounded_jitter():
    policy = RetryPolicy(base_delay=0.1, max_delay=10.0, jitter=0.5)
    rng = random.Random(42)
    delays = [policy.delay(a, rng) for a in range(5)]
    for attempt, delay in enumerate(delays):
        base = 0.1 * (2.0 ** attempt)
        assert base <= delay <= base * 1.5
    capped = RetryPolicy(base_delay=1.0, max_delay=2.0, jitter=0.0)
    assert capped.delay(10, rng) == 2.0


def test_client_retries_until_server_appears():
    # Take a port, but accept nothing yet.
    listener = socket.socket()
    listener.bind(("127.0.0.1", 0))
    port = listener.getsockname()[1]
    listener.close()  # now connections are refused

    sleeps = []
    client = CompileClient(
        port=port,
        retry=RetryPolicy(attempts=3, base_delay=0.01),
        rng=random.Random(0),
        sleep=sleeps.append,
    )
    with pytest.raises(ServerUnavailable) as exc_info:
        client.ping()
    assert len(sleeps) == 2  # a backoff sleep between each retry
    assert sleeps[0] < sleeps[1]  # exponential growth
    assert len(exc_info.value.detail["attempts"]) == 3


def test_client_retries_busy_then_succeeds(server, monkeypatch):
    import repro.serve.batch as batch_mod

    real_execute = batch_mod.run_job
    release = threading.Event()

    def gated(payload):
        release.wait(timeout=10.0)
        return real_execute(payload)

    monkeypatch.setattr("repro.serve.batch.run_job", gated)

    hogs = []
    try:
        for i in range(server.config.queue_limit):
            sock = socket.create_connection(("127.0.0.1", server.port))
            sock.sendall(
                json.dumps({"op": "compile", "id": i, "ptx": PTX}).encode()
                + b"\n"
            )
            hogs.append(sock)
        deadline = time.monotonic() + 5.0
        while server._inflight < server.config.queue_limit:
            assert time.monotonic() < deadline
            time.sleep(0.01)

        # Release the hogs from the retry sleep: by the second attempt
        # the queue has space again.
        def sleep_then_release(_delay):
            release.set()
            time.sleep(0.2)

        client = _client(
            server,
            retry=RetryPolicy(attempts=5, base_delay=0.01),
            sleep=sleep_then_release,
        )
        response = client.request("stats")  # stats always answers
        assert response["ok"]
        busy_before = server.stats.busy_rejections
        result = client.compile(PTX)
        assert result["ok"]
        assert server.stats.busy_rejections > 0 or busy_before == 0
    finally:
        release.set()
        for sock in hogs:
            sock.close()
