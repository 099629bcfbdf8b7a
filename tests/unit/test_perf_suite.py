"""Unit tests for the benchmark registry (repro.perf.suite)."""

import pytest

from repro import obs
from repro.perf.repeat import RepeatConfig
from repro.perf.schema import validate_bench_result
from repro.perf.suite import (
    fast_bench_names,
    get_bench,
    list_benches,
    run_bench,
)

FAST_CFG = RepeatConfig(
    warmup=1, min_reps=3, max_reps=5, target_rel_ci=0.5
)


class TestRegistry:
    def test_expected_benches_registered(self):
        names = {s.name for s in list_benches()}
        assert {
            "selftest", "executor", "compile", "cache", "batch",
            "tracer", "campaign",
        } <= names

    def test_fast_subset(self):
        fast = set(fast_bench_names())
        assert "selftest" in fast
        assert "compile" in fast and "cache" in fast
        assert "tracer" in fast and "campaign" in fast
        # the heavyweights stay out of the CI gate subset
        assert "executor" not in fast and "batch" not in fast

    def test_unknown_bench_lists_known(self):
        with pytest.raises(KeyError, match="selftest"):
            get_bench("nope")

    def test_specs_have_descriptions(self):
        for spec in list_benches():
            assert spec.description
            assert spec.area


class TestRunBench:
    def test_selftest_produces_valid_result(self):
        r = run_bench("selftest", FAST_CFG, {"n": 2000})
        assert validate_bench_result(r.to_dict()) == []
        assert r.benchmark == "selftest"
        assert r.primary == "work"
        assert r.primary_series.summary.n >= 3
        assert r.wall_seconds > 0
        assert r.environment["code_sha"]
        assert r.repeat_config["min_reps"] == 3

    def test_option_override(self):
        r = run_bench("selftest", FAST_CFG, {"n": 1000})
        assert r.primary_series.summary.median < 1.0

    def test_bench_span_emitted(self):
        with obs.Tracer() as tracer:
            run_bench("selftest", FAST_CFG, {"n": 1000})
        bench_spans = tracer.find("perf.bench")
        assert len(bench_spans) == 1
        assert bench_spans[0].tags["benchmark"] == "selftest"
        # reps nest under the bench span via perf.repeat
        assert tracer.counters.counts["perf.benches"] == 1
        assert tracer.counters.counts["perf.reps"] >= 3

    def test_campaign_bench_shape(self):
        r = run_bench("campaign", FAST_CFG, {"injections": 2})
        assert validate_bench_result(r.to_dict()) == []
        assert set(r.series) == {"injection"}
        assert r.metrics["injections"] == 2
        assert r.metrics["injections_per_s"] > 0
        assert r.metrics["outcome_sdc"] == r.metrics["outcome_due"] == 0

    def test_cache_bench_shape(self):
        r = run_bench(
            "cache",
            FAST_CFG,
            {"keys": 8, "sweeps": 2, "payload_bytes": 64},
        )
        assert validate_bench_result(r.to_dict()) == []
        assert set(r.series) == {"warm_hit", "cold_miss"}
        assert r.primary == "warm_hit"
        # a memory-tier hit must beat a double-tier miss
        assert (
            r.series["warm_hit"].summary.median
            < r.series["cold_miss"].summary.median * 5
        )

    def test_tracer_bench_shape(self):
        r = run_bench("tracer", FAST_CFG, {"chunks": 4, "chunk": 200})
        assert validate_bench_result(r.to_dict()) == []
        assert set(r.series) == {"instrumented_untraced", "plain"}
        assert "disabled_overhead_rel" in r.metrics

    def test_tracer_bench_measures_disabled_path_under_tracer(self):
        # Even when the *caller* runs traced, the bench must measure
        # the uninstalled (disabled) path.
        with obs.Tracer():
            r = run_bench(
                "tracer", FAST_CFG, {"chunks": 4, "chunk": 200}
            )
        # an enabled-path measurement would show massive overhead
        assert r.metrics["disabled_overhead_rel"] < 1.0
