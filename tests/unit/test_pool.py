"""The supervised worker pool: dispatch, crash recovery, backoff,
hang reclaim, poison quarantine, and its health snapshot.

Process-mode tests use a tiny runner module defined here (forked
children inherit ``sys.modules``, and the runner is resolved by its
``module:attr`` path inside the worker).  Thread-mode tests exercise
the same supervisor logic without process machinery.
"""

import gc
import os
import sys
import time
import types

import pytest

import repro.runtime.pool as pool_module
from repro.runtime import (
    PoisonJobError,
    PoolConfig,
    WorkerCrashError,
    WorkerPool,
)

# -- the test runner (importable from forked workers) -----------------------------

_RUNNER_MODULE = "penny_pool_test_runner"


def _runner(payload):
    action = payload.get("action")
    if action == "crash":
        os.kill(os.getpid(), 9)
    if action == "raise":
        raise RuntimeError("runner blew up")
    if action == "sleep":
        time.sleep(float(payload.get("seconds", 10.0)))
    return ("ok", {"echo": payload.get("x")})


def _install_runner():
    mod = types.ModuleType(_RUNNER_MODULE)
    mod.run = _runner
    sys.modules[_RUNNER_MODULE] = mod


_install_runner()


def _pool(**overrides):
    kwargs = dict(
        workers=2,
        runner=f"{_RUNNER_MODULE}:run",
        restart_backoff_base=0.01,
        restart_backoff_cap=0.1,
    )
    kwargs.update(overrides)
    return WorkerPool(PoolConfig(**kwargs))


# -- basic dispatch ---------------------------------------------------------------


@pytest.mark.parametrize("use_threads", [False, True])
def test_jobs_round_trip(use_threads):
    with _pool(use_threads=use_threads) as pool:
        futures = [
            pool.submit({"x": i}, key=f"k{i}") for i in range(6)
        ]
        results = [f.result(timeout=15) for f in futures]
    assert results == [("ok", {"echo": i}) for i in range(6)]


def test_runner_exception_is_a_typed_error_result():
    """A runner that raises (contract violation) yields an error tuple,
    not a crashed worker."""
    with _pool(workers=1) as pool:
        status, payload = pool.submit(
            {"action": "raise"}, key="boom"
        ).result(timeout=15)
        assert status == "error"
        assert payload["type"] == "RuntimeError"
        # The worker survived: the next job runs on the same pool.
        assert pool.submit({"x": 1}, key="next").result(timeout=15) == (
            "ok",
            {"echo": 1},
        )
        assert pool.metrics.crashes == 0


def test_submit_after_shutdown_fails_fast():
    pool = _pool(use_threads=True)
    pool.start()
    pool.shutdown()
    future = pool.submit({"x": 1}, key="late")
    with pytest.raises(WorkerCrashError):
        future.result(timeout=1)


# -- crash recovery ---------------------------------------------------------------


def test_crashed_worker_restarts_and_job_retries():
    """One crash is absorbed: the job is retried on a fresh worker (the
    second attempt succeeds because the directive rides in the payload
    only via chaos — here the crash is one-shot via a mutating key)."""
    with _pool(workers=1, poison_threshold=2) as pool:
        # First job crashes its worker; with poison_threshold=2 it is
        # retried once — and crashes again, quarantining the key.
        future = pool.submit({"action": "crash"}, key="killer")
        with pytest.raises(PoisonJobError) as exc_info:
            future.result(timeout=30)
        assert exc_info.value.detail["strikes"] == 2
        assert pool.metrics.crashes == 2
        # The pool recovered: a clean job still completes (which proves
        # at least the final respawn happened).
        assert pool.submit({"x": 7}, key="clean").result(timeout=30) == (
            "ok",
            {"echo": 7},
        )
        assert pool.metrics.restarts >= 2


def test_quarantined_key_fails_fast_without_touching_a_worker():
    with _pool(workers=1, poison_threshold=1) as pool:
        with pytest.raises(PoisonJobError):
            pool.submit({"action": "crash"}, key="poison").result(
                timeout=30
            )
        jobs_before = pool.metrics.jobs_completed
        started = time.monotonic()
        with pytest.raises(PoisonJobError) as exc_info:
            pool.submit({"action": "crash"}, key="poison").result(
                timeout=5
            )
        assert time.monotonic() - started < 2.0
        assert exc_info.value.detail.get("quarantined") is True
        assert pool.metrics.jobs_completed == jobs_before
        assert "poison" in pool.health()["quarantined_keys"]


def test_crashes_of_different_keys_do_not_share_strikes():
    """Strikes are per key: two different jobs each crashing once (with
    threshold 2) are both retried, neither quarantined."""
    with _pool(workers=2, poison_threshold=3) as pool:
        f1 = pool.submit({"action": "crash"}, key="a")
        f2 = pool.submit({"action": "crash"}, key="b")
        with pytest.raises(PoisonJobError):
            f1.result(timeout=60)
        with pytest.raises(PoisonJobError):
            f2.result(timeout=60)
        health = pool.health()
        assert set(health["quarantined_keys"]) == {"a", "b"}
        # 3 strikes each.
        assert pool.metrics.crashes == 6


def test_restart_backoff_grows_per_slot():
    cfg = PoolConfig(
        workers=1,
        runner=f"{_RUNNER_MODULE}:run",
        restart_backoff_base=0.05,
        restart_backoff_cap=10.0,
        poison_threshold=100,
    )
    pool = WorkerPool(cfg)
    slot = pool._slots[0]
    now = 100.0
    delays = []
    for _ in range(5):
        slot.state = "busy"
        slot.proc = types.SimpleNamespace(is_alive=lambda: False, kill=lambda: None)
        pool._on_worker_death(slot, now, cause="crash")
        delays.append(slot.restart_at - now)
        slot.state = "busy"  # pretend it respawned and died again
    assert delays == sorted(delays)
    assert delays[0] == pytest.approx(0.05)
    assert delays[1] == pytest.approx(0.10)
    assert delays[2] == pytest.approx(0.20)


# -- hang reclaim -----------------------------------------------------------------


def test_hung_worker_is_reclaimed():
    with _pool(
        workers=1, job_timeout=0.5, poison_threshold=1
    ) as pool:
        future = pool.submit(
            {"action": "sleep", "seconds": 60.0}, key="hang"
        )
        with pytest.raises(PoisonJobError):
            future.result(timeout=30)
        assert pool.metrics.hung_kills == 1
        # A fresh worker serves the next job.
        assert pool.submit({"x": 2}, key="ok").result(timeout=30) == (
            "ok",
            {"echo": 2},
        )


def test_thread_mode_hang_is_abandoned_not_killed():
    """Threads cannot be killed; the slot is abandoned and replaced, and
    the stale incarnation's late messages are ignored."""
    with _pool(
        workers=1,
        use_threads=True,
        job_timeout=0.3,
        poison_threshold=1,
    ) as pool:
        future = pool.submit(
            {"action": "sleep", "seconds": 1.0}, key="hang"
        )
        with pytest.raises(PoisonJobError):
            future.result(timeout=10)
        # After the stale thread wakes and reports, the pool still works.
        time.sleep(1.2)
        assert pool.submit({"x": 3}, key="ok").result(timeout=10) == (
            "ok",
            {"echo": 3},
        )


# -- event-driven supervision -----------------------------------------------------


@pytest.fixture
def slow_backstop(monkeypatch):
    """A 30 s backstop poll: a case that finishes well inside it shows
    that the supervisor woke on events, not on the poll."""
    monkeypatch.setattr(pool_module, "_BACKSTOP", 30.0)


@pytest.mark.parametrize("use_threads", [False, True])
def test_each_result_wakes_the_supervisor(slow_backstop, use_threads):
    started = time.monotonic()
    with _pool(workers=1, use_threads=use_threads) as pool:
        for i in range(10):
            assert pool.submit({"x": i}, key=f"k{i}").result(
                timeout=5
            ) == ("ok", {"echo": i})
    assert time.monotonic() - started < 5.0


def test_worker_exit_and_restart_deadline_wake_the_supervisor(
    slow_backstop,
):
    """The crash is seen through the process sentinel and the respawn
    runs when its backoff deadline is due, twice over, with no poll."""
    started = time.monotonic()
    with _pool(workers=1) as pool:
        with pytest.raises(PoisonJobError):
            pool.submit({"action": "crash"}, key="killer").result(timeout=5)
        assert pool.submit({"x": 1}, key="next").result(timeout=5) == (
            "ok",
            {"echo": 1},
        )
        assert pool.metrics.crashes == 2
    assert time.monotonic() - started < 5.0


@pytest.mark.skipif(
    not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd"
)
@pytest.mark.parametrize("use_threads", [False, True])
def test_pools_leave_no_descriptor_behind(use_threads):
    """Batch compiles and campaigns build one pool per call, so a
    descriptor a pool leaks would pile up.  A process pool's inbox
    queues close their pipes on their feeder threads, hence the short
    settling wait."""

    def open_fds():
        gc.collect()
        return len(os.listdir("/proc/self/fd"))

    before = open_fds()
    for i in range(20):
        with _pool(workers=1, use_threads=use_threads) as pool:
            assert pool.submit({"x": i}, key="k").result(timeout=15) == (
                "ok",
                {"echo": i},
            )
    del pool
    deadline = time.monotonic() + 5.0
    while open_fds() != before and time.monotonic() < deadline:
        time.sleep(0.05)
    assert open_fds() == before


# -- health -----------------------------------------------------------------------


def test_health_snapshot_shape():
    with _pool(use_threads=True) as pool:
        pool.submit({"x": 0}, key="k").result(timeout=10)
        health = pool.health()
    assert health["workers"] == 2
    assert health["alive"] == 2
    assert health["jobs_completed"] == 1
    assert health["quarantined_keys"] == []
    assert health["use_threads"] is True
    for key in ("restarts", "crashes", "hung_kills", "pending"):
        assert isinstance(health[key], int)


def test_cancelled_future_does_not_strike_the_key():
    """A client that walks away (future cancelled) before the worker
    dies must not poison a legitimate key."""
    with _pool(workers=1, use_threads=True, poison_threshold=1) as pool:
        future = pool.submit(
            {"action": "sleep", "seconds": 0.4}, key="slowkey"
        )
        time.sleep(0.1)  # let it dispatch
        future.cancel()
        # Force the supervisor down the death path for this slot.
        slot = pool._slots[0]
        with pool._lock:
            if slot.job is not None:
                pool._on_worker_death(
                    slot, time.monotonic(), cause="hung"
                )
        time.sleep(0.3)
        assert "slowkey" not in pool.health()["quarantined_keys"]
