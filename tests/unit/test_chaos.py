"""The chaos harness itself: plan parsing, deterministic seeding, rule
knobs, and the no-chaos discipline (an uninstalled engine costs one
context-var read and changes nothing).
"""

import argparse
import json
import pickle
import time

import pytest

from repro import cli
from repro.core.pipeline import PennyConfig
from repro.serve.cache import CompileCache
from repro.serve.chaos import (
    DEFAULT_HANG_SECONDS,
    KINDS,
    SITE_CACHE_READ,
    SITE_CACHE_STORE,
    SITE_WORKER_JOB,
    ChaosEngine,
    ChaosPlan,
    ChaosRule,
    active_chaos,
)
from repro.serve.key import CacheKey

# -- plan construction ------------------------------------------------------------


def test_parse_compact_spec():
    plan = ChaosPlan.parse(
        "worker.kill:p=0.25:max=3,cache.corrupt:p=0.5,"
        "worker.hang:delay=2:after=10",
        seed=7,
    )
    assert plan.seed == 7
    assert [r.kind for r in plan.rules] == [
        "worker.kill",
        "cache.corrupt",
        "worker.hang",
    ]
    kill, corrupt, hang = plan.rules
    assert kill.probability == 0.25 and kill.max_injections == 3
    assert corrupt.probability == 0.5 and corrupt.max_injections is None
    assert hang.delay_s == 2.0 and hang.after == 10


def test_parse_rejects_garbage():
    with pytest.raises(ValueError):
        ChaosPlan.parse("worker.explode")
    with pytest.raises(ValueError):
        ChaosPlan.parse("worker.kill:p")
    with pytest.raises(ValueError):
        ChaosPlan.parse("worker.kill:frequency=2")
    with pytest.raises(ValueError):
        ChaosPlan.parse("")
    with pytest.raises(ValueError):
        ChaosRule(kind="worker.kill", probability=1.5)
    with pytest.raises(ValueError):
        ChaosRule(kind="worker.kill", after=-1)


def test_plan_round_trips_through_dict_and_file(tmp_path):
    plan = ChaosPlan.parse("worker.kill:p=0.2:max=5,conn.drop:p=0.1", seed=11)
    assert ChaosPlan.from_dict(plan.to_dict()) == plan
    path = tmp_path / "plan.json"
    path.write_text(json.dumps(plan.to_dict()))
    assert ChaosPlan.parse(f"@{path}") == plan


def test_unseeded_plans_round_trip(tmp_path):
    """Without a seed, a compact spec gets seed 0 and a file keeps its
    own (0 when missing or null), so every plan saves and reloads."""
    plan = ChaosPlan.parse("campaign.worker.kill:p=0.5", seed=None)
    assert plan.seed == 0
    assert ChaosPlan.from_dict(plan.to_dict()) == plan
    for saved in ({}, {"seed": None}, {"seed": 9}):
        path = tmp_path / "plan.json"
        path.write_text(
            json.dumps({"rules": [{"kind": "worker.kill"}], **saved})
        )
        loaded = ChaosPlan.parse(f"@{path}", seed=None)
        assert loaded.seed == (saved.get("seed") or 0)
        assert ChaosPlan.from_dict(loaded.to_dict()) == loaded


def test_unseeded_plan_is_armed_with_an_integer_seed(capsys):
    """``penny campaign --chaos SPEC`` without ``--chaos-seed``."""
    args = argparse.Namespace(
        chaos="campaign.worker.kill:p=0.5", chaos_seed=None
    )
    with cli._chaos(args, "penny campaign"):
        pass
    assert "chaos plan armed (1 rule(s), seed 0)" in capsys.readouterr().err


def test_every_kind_maps_to_a_site():
    for kind, site in KINDS.items():
        rule = ChaosRule(kind=kind)
        assert rule.site == site
        # The action is the last dotted component (three-part campaign
        # kinds included), and only stall-shaped actions default to a
        # nonzero delay.
        assert rule.action == kind.rsplit(".", 1)[1]
        if rule.action in ("hang", "slow_store", "slow_read"):
            assert rule.delay_s == DEFAULT_HANG_SECONDS
        else:
            assert rule.delay_s == 0.0


# -- determinism ------------------------------------------------------------------


def _decision_trace(plan, visits=200):
    engine = ChaosEngine(plan)
    trace = []
    for i in range(visits):
        rule = engine.decide(SITE_WORKER_JOB, visit=i)
        trace.append(rule.kind if rule else None)
    return trace, engine


def test_same_seed_same_fault_sequence():
    plan = ChaosPlan.parse("worker.kill:p=0.3,worker.hang:p=0.2", seed=42)
    trace_a, engine_a = _decision_trace(plan)
    trace_b, engine_b = _decision_trace(plan)
    assert trace_a == trace_b
    assert any(trace_a), "a p=0.3 rule over 200 visits must fire"
    assert engine_a.injected_counts() == engine_b.injected_counts()
    assert [e.to_dict() for e in engine_a.injected] == [
        e.to_dict() for e in engine_b.injected
    ]


def test_different_seed_different_sequence():
    spec = "worker.kill:p=0.3,worker.hang:p=0.2"
    trace_a, _ = _decision_trace(ChaosPlan.parse(spec, seed=1))
    trace_b, _ = _decision_trace(ChaosPlan.parse(spec, seed=2))
    assert trace_a != trace_b


def test_rule_sequence_is_independent_of_other_rules():
    """Whether a rule fires on visit N depends only on its own seed and
    N — adding another rule to the plan must not shift its draws."""
    alone, _ = _decision_trace(
        ChaosPlan.parse("worker.hang:p=0.3", seed=9)
    )
    # worker.kill first in plan order: it *masks* hang where both fire,
    # but hang's own draw sequence is unchanged — compare where kill
    # did not fire.
    paired, _ = _decision_trace(
        ChaosPlan.parse("worker.kill:p=0.0,worker.hang:p=0.3", seed=9)
    )
    assert paired == alone


def test_budget_after_and_probability_knobs():
    # p=1, max=2: exactly the first two visits fire.
    plan = ChaosPlan.parse("worker.kill:p=1.0:max=2", seed=0)
    trace, engine = _decision_trace(plan, visits=10)
    assert trace == ["worker.kill"] * 2 + [None] * 8
    assert engine.injected_counts() == {"worker.kill": 2}

    # after=3: warm-up visits never fire.
    plan = ChaosPlan.parse("worker.kill:p=1.0:after=3:max=1", seed=0)
    trace, _ = _decision_trace(plan, visits=6)
    assert trace == [None] * 3 + ["worker.kill"] + [None] * 2

    # p=0 never fires.
    plan = ChaosPlan.parse("worker.kill:p=0.0", seed=0)
    trace, engine = _decision_trace(plan, visits=50)
    assert trace == [None] * 50
    assert engine.injected_counts() == {}


def test_sites_count_independently():
    plan = ChaosPlan.parse("worker.kill:p=1.0:max=1,cache.corrupt:p=1.0:max=1")
    engine = ChaosEngine(plan)
    assert engine.decide(SITE_WORKER_JOB).kind == "worker.kill"
    assert engine.decide(SITE_CACHE_READ).kind == "cache.corrupt"
    report = engine.report()
    assert report["site_visits"] == {"worker.job": 1, "cache.read": 1}
    assert report["injections"] == 2
    assert [e["site"] for e in report["events"]] == [
        "worker.job",
        "cache.read",
    ]


# -- installation discipline ------------------------------------------------------


def test_context_var_install_and_nesting():
    assert active_chaos() is None
    plan = ChaosPlan.parse("worker.kill:p=1.0")
    with ChaosEngine(plan) as outer:
        assert active_chaos() is outer
        with ChaosEngine(plan) as inner:
            assert active_chaos() is inner
        assert active_chaos() is outer
    assert active_chaos() is None


def _fresh_key(tag: str) -> CacheKey:
    return CacheKey(
        ptx_sha=f"ptx-{tag}", config_sha=f"cfg-{tag}", code_sha="code"
    )


def test_no_chaos_run_is_byte_identical(tmp_path):
    """Without an installed engine the cache's behavior and on-disk
    bytes are exactly the plain run's."""
    payloads = {f"k{i}": {"value": i, "blob": "x" * 50} for i in range(8)}

    def drive(directory):
        cache = CompileCache(directory=str(directory))
        for tag, value in payloads.items():
            cache.put(_fresh_key(tag), value)
        out = {
            tag: cache.get(_fresh_key(tag)) for tag in payloads
        }
        return out, cache.stats.to_dict()

    plain_dir = tmp_path / "plain"
    quiet_dir = tmp_path / "quiet"
    plain_out, plain_stats = drive(plain_dir)
    # "quiet": chaos module imported, engine constructed but NOT
    # installed — the decide path must never be reached.
    ChaosEngine(ChaosPlan.parse("cache.corrupt:p=1.0"))
    quiet_out, quiet_stats = drive(quiet_dir)

    assert plain_out == quiet_out == payloads
    assert plain_stats == quiet_stats
    plain_files = {
        p.name: p.read_bytes() for p in sorted(plain_dir.iterdir())
    }
    quiet_files = {
        p.name: p.read_bytes() for p in sorted(quiet_dir.iterdir())
    }
    assert plain_files == quiet_files


def test_disabled_overhead_is_negligible(tmp_path):
    """The uninstalled fast path (one ContextVar.get + None check) adds
    <1% to a cache round-trip; measured coarsely but with margin."""
    cache = CompileCache(directory=str(tmp_path / "c"))
    key = _fresh_key("hot")
    cache.put(key, {"v": 1})

    def loop(n=2000):
        start = time.perf_counter()
        for _ in range(n):
            cache.get(key)
        return time.perf_counter() - start

    loop(200)  # warm-up
    base = min(loop() for _ in range(3))
    again = min(loop() for _ in range(3))
    # Same code path twice: the run-to-run jitter bound. The point of
    # the assertion is that nothing chaos-shaped (sleep, file IO,
    # hashing) runs when no engine is installed.
    assert abs(base - again) / max(base, again) < 0.5


def test_engine_decide_threadsafe_smoke():
    import threading

    plan = ChaosPlan.parse("worker.kill:p=0.5")
    engine = ChaosEngine(plan)
    results = []

    def hammer():
        for _ in range(200):
            engine.decide(SITE_WORKER_JOB)

    threads = [threading.Thread(target=hammer) for _ in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    report = engine.report()
    assert report["site_visits"]["worker.job"] == 800
    assert 0 < report["injections"] < 800
