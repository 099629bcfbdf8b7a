"""Campaign-engine primitives: seeding, Wilson intervals, specs, records,
report merging and journal parsing — everything that must hold before the
integration campaigns mean anything."""

import json

import pytest

from repro.gpusim.campaign import (
    CampaignReport,
    CampaignSpec,
    InjectionRecord,
    _crc_line,
    load_journal,
    stable_seed,
    wilson_interval,
)
from repro.gpusim.faults import (
    DueType,
    classify_due,
)
from repro.gpusim.executor import (
    SimulationError,
    UnrecoverableError,
    WatchdogTimeout,
)
from repro.gpusim.memory import EccUncorrectableError, MemoryError32


class TestStableSeed:
    def test_deterministic(self):
        assert stable_seed(2020, 7) == stable_seed(2020, 7)

    def test_index_and_seed_sensitive(self):
        seeds = {stable_seed(2020, i) for i in range(100)}
        seeds |= {stable_seed(2021, i) for i in range(100)}
        assert len(seeds) == 200

    def test_fits_in_63_bits(self):
        assert 0 <= stable_seed(0, 0) < 1 << 63


class TestWilson:
    def test_zero_trials(self):
        assert wilson_interval(0, 0) == (0.0, 0.0, 1.0)

    def test_contains_point_estimate(self):
        for k, n in [(0, 50), (3, 50), (50, 50), (1, 1)]:
            p, lo, hi = wilson_interval(k, n)
            assert 0.0 <= lo <= p <= hi <= 1.0

    def test_zero_successes_upper_bound_shrinks_with_n(self):
        _, _, hi_small = wilson_interval(0, 40)
        _, _, hi_big = wilson_interval(0, 400)
        assert hi_big < hi_small < 0.15

    def test_symmetry(self):
        _, lo_a, hi_a = wilson_interval(10, 40)
        _, lo_b, hi_b = wilson_interval(30, 40)
        assert lo_a == pytest.approx(1 - hi_b)
        assert hi_a == pytest.approx(1 - lo_b)


class TestCampaignSpec:
    def test_roundtrip(self):
        spec = CampaignSpec(
            benchmark="STC",
            surfaces=("rf", "ckpt"),
            ckpt_bits=(1, 2, 3),
            num_injections=7,
        )
        assert CampaignSpec.from_dict(spec.to_dict()) == spec
        # dict form is JSON-safe (journal header, worker initargs)
        json.dumps(spec.to_dict())

    def test_validation(self):
        with pytest.raises(ValueError):
            CampaignSpec(benchmark="STC", surfaces=("bogus",))
        with pytest.raises(ValueError):
            CampaignSpec(benchmark="STC", surfaces=())
        with pytest.raises(ValueError):
            CampaignSpec(benchmark="STC", pattern="diagonal")
        with pytest.raises(ValueError):
            CampaignSpec(benchmark="STC", rf_code="crc")
        with pytest.raises(ValueError):
            CampaignSpec(benchmark="STC", num_injections=-1)


class TestClassifyDue:
    def test_tagged_unrecoverable(self):
        for cause in DueType:
            exc = UnrecoverableError("x", cause=cause.value)
            assert classify_due(exc) is cause

    def test_watchdog(self):
        assert (
            classify_due(WatchdogTimeout("budget"))
            is DueType.WATCHDOG_TIMEOUT
        )

    def test_memory(self):
        assert (
            classify_due(EccUncorrectableError("global", 64))
            is DueType.MEMORY_EXCEPTION
        )
        assert (
            classify_due(MemoryError32("unaligned"))
            is DueType.MEMORY_EXCEPTION
        )

    def test_generic_simulation_error_is_watchdog_territory(self):
        assert (
            classify_due(SimulationError("deadlock in block 0"))
            is DueType.WATCHDOG_TIMEOUT
        )

    def test_unclassifiable_raises(self):
        with pytest.raises(TypeError):
            classify_due(KeyError("nope"))


def _rec(index, outcome="masked", cause=None, surface="rf"):
    return InjectionRecord(
        index=index, surface=surface, outcome=outcome, due_cause=cause
    )


class TestReport:
    def test_record_json_roundtrip(self):
        rec = _rec(3, "due", "budget_exhausted")
        assert InjectionRecord.from_json(rec.to_json()) == rec

    def test_summary_and_taxonomy(self):
        report = CampaignReport(
            records=[
                _rec(0),
                _rec(1, "recovered"),
                _rec(2, "due", "no_runtime"),
                _rec(3, "due", "memory_exception"),
                _rec(4, "due", "memory_exception"),
            ]
        )
        assert report.summary()["due"] == 3
        assert report.due_taxonomy() == {
            "no_runtime": 1,
            "memory_exception": 2,
        }

    def test_rates_exclude_not_injected(self):
        report = CampaignReport(
            records=[_rec(0), _rec(1, "not_injected"), _rec(2, "sdc")]
        )
        assert report.injected_runs == 2
        p, lo, hi = report.rates()["sdc"]
        assert p == 0.5

    def test_merge_dedupes_by_index_and_sorts(self):
        shard_a = CampaignReport(records=[_rec(2), _rec(0)])
        shard_b = CampaignReport(records=[_rec(1), _rec(2, "recovered")])
        merged = CampaignReport.merge([shard_a, shard_b])
        assert [r.index for r in merged.records] == [0, 1, 2]
        # first occurrence wins (identical seeds → identical records)
        assert merged.records[2].outcome == "masked"


class TestJournal:
    def test_load_skips_corrupt_and_torn_lines(self, tmp_path):
        path = tmp_path / "j.jsonl"
        lines = [
            _crc_line(
                json.dumps({"spec": {"benchmark": "STC"}, "version": 2})
            ),
            _crc_line(_rec(0).to_json()),
            "not json at all {{",
            _crc_line(_rec(1, "recovered").to_json()),
            '{"index": 2, "outco',  # torn tail from a kill
        ]
        path.write_text("\n".join(lines))
        header, records = load_journal(str(path))
        assert header["spec"]["benchmark"] == "STC"
        assert sorted(records) == [0, 1]
        assert records[1].outcome == "recovered"

    def test_load_missing_file(self, tmp_path):
        header, records = load_journal(str(tmp_path / "absent.jsonl"))
        assert header is None and records == {}
