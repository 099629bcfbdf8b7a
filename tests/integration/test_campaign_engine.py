"""End-to-end acceptance tests for the parallel campaign engine.

The contract under test (ISSUE acceptance criteria): a campaign of >= 200
injections runs on >= 2 workers, survives a mid-campaign kill and resumes
from its JSONL journal to the identical final report; every DUE carries a
non-default taxonomy label; single-bit RF faults still produce zero SDC
(Appendix A); and faults injected *during recovery* either converge or
terminate with a labelled DUE — never hang.
"""

import dataclasses
import json
import shutil

import pytest

from repro.experiments import fault_rate
from repro.gpusim.campaign import (
    CampaignSpec,
    ParallelCampaign,
    load_journal,
)
from repro.gpusim.faults import DueType

VALID_CAUSES = {d.value for d in DueType}

FULL_SPEC = CampaignSpec(
    benchmark="STC",
    scheme="Penny",
    rf_code="parity",
    num_injections=200,
    seed=2020,
    surfaces=("rf", "ckpt", "recovery"),
    bits_per_fault=1,
)


def _as_dicts(report):
    return [dataclasses.asdict(r) for r in report.records]


@pytest.fixture(scope="module")
def full_run(tmp_path_factory):
    """One 200-injection, 2-worker, journalled campaign shared by the
    module's tests."""
    path = tmp_path_factory.mktemp("campaign") / "journal.jsonl"
    report = ParallelCampaign(
        FULL_SPEC, workers=2, journal_path=str(path)
    ).run()
    return report, str(path)


class TestFullCampaign:
    def test_completes_all_injections(self, full_run):
        report, _ = full_run
        assert len(report.records) == 200
        assert [r.index for r in report.records] == list(range(200))

    def test_covers_every_surface(self, full_run):
        report, _ = full_run
        assert set(report.by_surface()) == {"rf", "ckpt", "recovery"}

    def test_single_bit_faults_zero_sdc(self, full_run):
        # Appendix A at campaign scale, on every surface: parity detects
        # each single-bit strike and idempotent re-execution absorbs it.
        report, _ = full_run
        assert report.summary().get("sdc", 0) == 0
        _, _, sdc_hi = report.rates()["sdc"]
        assert sdc_hi < 0.02  # Wilson 95% upper bound at n=200

    def test_every_due_carries_taxonomy_label(self, full_run):
        report, _ = full_run
        dues = [r for r in report.records if r.outcome == "due"]
        assert dues, "multi-surface campaign should produce some DUEs"
        for rec in dues:
            assert rec.due_cause in VALID_CAUSES, rec
        # and non-DUE outcomes never carry one
        for rec in report.records:
            if rec.outcome != "due":
                assert rec.due_cause is None

    def test_journal_holds_complete_campaign(self, full_run):
        report, path = full_run
        header, records = load_journal(path)
        assert CampaignSpec.from_dict(header["spec"]) == FULL_SPEC
        assert sorted(records) == list(range(200))
        assert [records[i] for i in range(200)] == report.records

    def test_kill_and_resume_reaches_identical_report(
        self, full_run, tmp_path
    ):
        """Simulate a mid-campaign kill: keep the header, the first 80
        records and a torn partial line, then resume on 2 workers."""
        report, path = full_run
        truncated = tmp_path / "journal.jsonl"
        with open(path) as f:
            lines = f.readlines()
        with open(truncated, "w") as f:
            f.writelines(lines[:81])  # header + 80 records
            f.write('{"index": 199, "outco')  # torn write, no newline
        resumed = ParallelCampaign(
            FULL_SPEC, workers=2, journal_path=str(truncated)
        ).run(resume=True)
        assert _as_dicts(resumed) == _as_dicts(report)
        # the journal healed: complete, and the torn fragment skipped
        _, records = load_journal(str(truncated))
        assert sorted(records) == list(range(200))

    def test_resume_refuses_mismatched_spec(self, full_run, tmp_path):
        _, path = full_run
        copied = tmp_path / "journal.jsonl"
        shutil.copy(path, copied)
        other = dataclasses.replace(FULL_SPEC, seed=1)
        with pytest.raises(ValueError, match="spec"):
            ParallelCampaign(
                other, workers=2, journal_path=str(copied)
            ).run(resume=True)

    def test_serial_equals_parallel(self, full_run):
        # Per-index seeding makes the schedule irrelevant: one worker or
        # two must produce byte-identical records.
        report, _ = full_run
        small = dataclasses.replace(FULL_SPEC, num_injections=40)
        serial = ParallelCampaign(small, workers=1).run()
        assert _as_dicts(serial) == _as_dicts(report)[:40]


class TestRecoveryStrikes:
    def test_faults_during_recovery_never_hang(self):
        """Strike every restore, repeatedly, under a tiny recovery budget:
        each injection must still converge or die with a labelled DUE."""
        spec = CampaignSpec(
            benchmark="STC",
            num_injections=40,
            seed=11,
            surfaces=("recovery",),
            recovery_repeat_rate=1.0,
            max_recoveries=5,
            max_instructions=2_000_000,
        )
        report = ParallelCampaign(spec, workers=1).run()
        assert len(report.records) == 40
        assert report.summary().get("sdc", 0) == 0
        for rec in report.records:
            assert rec.outcome in {
                "masked", "recovered", "due", "not_injected"
            }
            if rec.outcome == "due":
                assert rec.due_cause in {
                    "budget_exhausted",
                    "watchdog_timeout",
                    "memory_exception",
                }


class TestUnprotectedScheme:
    def test_no_runtime_taxonomy(self):
        # An uncompiled kernel detects (parity RF) but cannot recover:
        # every detection must surface as a `no_runtime` DUE, never a hang
        # or an unlabelled crash.
        spec = CampaignSpec(
            benchmark="STC",
            scheme="none",
            num_injections=20,
            seed=5,
            surfaces=("rf",),
        )
        report = ParallelCampaign(spec, workers=1).run()
        assert len(report.records) == 20
        summary = report.summary()
        assert summary.get("recovered", 0) == 0
        assert summary.get("due", 0) > 0
        assert set(report.due_taxonomy()) == {"no_runtime"}


class TestSatelliteFixes:
    def test_run_random_horizon_clamps_to_lifetime(self):
        """Satellite 1: an absurd max_dynamic_point used to throw nearly
        every injection past end-of-thread (not_injected); the horizon now
        clamps to each thread's actual lifetime."""
        from repro.bench import get_benchmark
        from repro.core.pipeline import PennyCompiler
        from repro.core.schemes import SCHEME_PENNY, scheme_config
        from repro.gpusim.campaign import FaultCampaign

        bench = get_benchmark("STC")
        wl = bench.workload()
        result = PennyCompiler(scheme_config(SCHEME_PENNY)).compile(
            bench.fresh_kernel(), wl.launch_config
        )
        campaign = FaultCampaign(
            result.kernel, wl.launch, wl.make_memory, wl.output_region()
        )
        report = campaign.run_random(
            30, seed=3, max_dynamic_point=10**12
        )
        summary = report.summary()
        assert summary.get("not_injected", 0) < 30 // 4
        assert summary.get("sdc", 0) == 0

    def test_rate_plan_reuse_is_deterministic(self):
        # Satellite 2: rerunning the *same* RateFaultPlan object must give
        # identical rows — fault_rate.run(repeats=2) asserts this
        # internally and raises AssertionError if reset() leaks state.
        rows = fault_rate.run(
            abbr="STC", intervals=(500,), seed=13, repeats=2
        )
        assert rows[0]["correct"]
        assert rows[0]["injections"] > 0

    def test_fault_rate_reports_due_label_instead_of_crashing(self):
        # The sweep survives a run that dies by tagging the row, and the
        # label is drawn from the DUE taxonomy.
        rows = fault_rate.run(abbr="STC", intervals=(5000,), seed=1)
        assert rows[0]["due"] is None or rows[0]["due"] in VALID_CAUSES
