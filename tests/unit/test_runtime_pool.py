"""The shared task runtime (:mod:`repro.runtime`): the config
contract, the wire form of its errors, the ``imap_supervised`` windowed
iterator, and the campaign-side chaos vocabulary.

Everything supervisor-shaped (crash recovery, backoff, hang reclaim) is
covered by ``test_pool.py``.
"""

import os
import sys
import threading
import time
import types

import pytest

from repro.runtime.errors import (
    PoisonJobError,
    TaskRuntimeError,
    WorkerCrashError,
)
from repro.runtime.pool import DEFAULT_CHAOS_SITE, PoolConfig, WorkerPool

_RUNNER_MODULE = "penny_runtime_test_runner"


def _runner(payload):
    action = payload.get("action")
    if action == "crash":
        os.kill(os.getpid(), 9)
    if action == "raise":
        raise RuntimeError("runner blew up")
    if action == "sleep":
        time.sleep(float(payload.get("seconds", 10.0)))
    return payload.get("x")


def _install_runner():
    mod = types.ModuleType(_RUNNER_MODULE)
    mod.run = _runner
    sys.modules[_RUNNER_MODULE] = mod


_install_runner()


def _pool(**overrides):
    kwargs = dict(
        workers=2,
        use_threads=True,
        runner=f"{_RUNNER_MODULE}:run",
        restart_backoff_base=0.01,
        restart_backoff_cap=0.1,
    )
    kwargs.update(overrides)
    return WorkerPool(PoolConfig(**kwargs))


# -- config contract --------------------------------------------------------------


def test_runner_is_required():
    with pytest.raises(ValueError, match="runner is required"):
        PoolConfig(workers=1)


def test_default_chaos_site_is_the_serve_one():
    cfg = PoolConfig(workers=1, runner=f"{_RUNNER_MODULE}:run")
    assert cfg.chaos_site == DEFAULT_CHAOS_SITE == "worker.job"


def test_runtime_errors_revive_as_serve_errors():
    """The pool raises runtime errors; the server puts their ``to_dict``
    on the wire, and the client's ``error_from_dict`` rebuilds them as
    the same-named :class:`ServeError` types."""
    from repro.serve.errors import (
        PoisonJobError as ServePoison,
        ServeError,
        WorkerCrashError as ServeCrash,
        error_from_dict,
    )

    for err, serve_cls in (
        (WorkerCrashError("worker 3 died", slot=3, cause="crash"),
         ServeCrash),
        (PoisonJobError("job quarantined", slot=3, cause="crash"),
         ServePoison),
    ):
        assert isinstance(err, TaskRuntimeError)
        assert not isinstance(err, ServeError)
        wire = err.to_dict()
        assert wire["type"] == serve_cls.__name__
        assert wire["detail"] == {"slot": 3, "cause": "crash"}
        revived = error_from_dict(wire)
        assert type(revived) is serve_cls
        assert isinstance(revived, ServeError)
        assert not isinstance(revived, TaskRuntimeError)
        assert revived.message == err.message
        assert revived.detail == wire["detail"]
        assert revived.to_dict() == wire


def test_runtime_and_serve_errors_are_siblings():
    """Both hierarchies share one body, but an ``except`` clause naming
    one never catches the other, and both put the same shape on the
    wire."""
    from repro.serve.errors import ServeError, ServerBusy

    for raised, other in (
        (WorkerCrashError("worker 3 died", slot=3), ServeError),
        (ServerBusy("queue full", depth=4), TaskRuntimeError),
    ):
        with pytest.raises(type(raised)):
            try:
                raise raised
            except other:
                pytest.fail(f"{other.__name__} caught {raised!r}")
    for cls in (TaskRuntimeError, ServeError):
        assert cls("m", pair=(1, 2), obj=object).to_dict() == {
            "type": cls.__name__,
            "message": "m",
            "detail": {"pair": [1, 2], "obj": str(object)},
        }


# -- imap_supervised --------------------------------------------------------------


def test_imap_supervised_yields_every_job_exactly_once():
    jobs = ((str(i), {"x": i}) for i in range(40))
    with _pool(workers=3) as pool:
        got = dict(pool.imap_supervised(jobs, window=8))
    assert got == {str(i): i for i in range(40)}


def test_imap_supervised_yields_exceptions_as_values():
    """A poisoned job surfaces as a typed exception *value* in the
    stream — the iteration continues, nothing raises."""
    jobs = [("good", {"x": 1}), ("bad", {"action": "crash"})]
    with _pool(workers=1, use_threads=False, poison_threshold=1) as pool:
        got = dict(pool.imap_supervised(iter(jobs)))
    assert got["good"] == 1
    assert isinstance(got["bad"], PoisonJobError)


def test_imap_supervised_stop_event_drains_early():
    """Setting the stop event mid-iteration cancels what it can and
    stops pulling from the (huge) job source."""
    stop = threading.Event()
    pulled = []

    def jobs():
        for i in range(10_000):
            pulled.append(i)
            yield str(i), {"x": i}

    with _pool(workers=2) as pool:
        results = []
        for key, outcome in pool.imap_supervised(
            jobs(), window=4, stop=stop
        ):
            results.append(key)
            if len(results) >= 5:
                stop.set()
    # Far fewer than 10k ran: the window bounds in-flight work and the
    # event stopped submission.
    assert 5 <= len(results) < 100
    assert len(pulled) < 200


# -- chaos vocabulary -------------------------------------------------------------


def test_campaign_chaos_kinds_and_sites_registered():
    from repro.serve.chaos import (
        KINDS,
        SITE_CAMPAIGN_WORKER,
        SITE_JOURNAL_WRITE,
        ChaosPlan,
    )

    assert KINDS["campaign.worker.kill"] == SITE_CAMPAIGN_WORKER
    assert KINDS["campaign.worker.hang"] == SITE_CAMPAIGN_WORKER
    assert KINDS["journal.torn"] == SITE_JOURNAL_WRITE
    assert KINDS["journal.enospc"] == SITE_JOURNAL_WRITE
    plan = ChaosPlan.parse(
        "campaign.worker.kill:p=1.0:max=2,journal.torn:p=0.5", seed=1
    )
    assert len(plan.rules) == 2


def test_chaos_action_is_last_dotted_component():
    """Three-part campaign kinds yield a bare action verb, and the
    original two-part kinds are unchanged."""
    from repro.serve.chaos import ChaosRule

    assert ChaosRule(kind="campaign.worker.kill").action == "kill"
    assert ChaosRule(kind="campaign.worker.hang").action == "hang"
    assert ChaosRule(kind="journal.torn").action == "torn"
    assert ChaosRule(kind="cache.slow_store").action == "slow_store"
    assert ChaosRule(kind="worker.kill").action == "kill"
