"""End-to-end observability: traced compiles, campaign counter
aggregation across shards, and the ``penny trace`` CLI artifact."""

import json

import pytest

import repro
import repro.obs as obs
from repro.cli import main
from repro.gpusim.campaign import CampaignReport, CampaignSpec, ParallelCampaign

SCALE = "examples/scale.ptx"

#: every stage of a strict auto-overwrite compile must appear as a span
COMPILE_PASSES = (
    "pass.regions",
    "pass.placement",
    "pass.liveins",
    "pass.plan",
    "pass.hazards",
    "pass.coloring",
    "pass.pddg",
    "pass.pruning",
    "pass.recovery_table",
    "pass.storage",
    "pass.codegen",
)


class TestTracedCompile:
    def test_every_pass_becomes_a_nested_span(self):
        tracer = obs.Tracer()
        with tracer:
            repro.protect(
                repro.parse_kernel(open(SCALE).read()),
                launch=repro.LaunchConfig(
                    threads_per_block=16, num_blocks=2
                ),
            )
        names = {s.name for s in tracer.spans}
        for name in COMPILE_PASSES:
            assert name in names, f"missing span {name}"
        compile_span = tracer.find("compile")[0]
        assert compile_span.parent_id is None
        # Everything else hangs below the compile root.
        roots = tracer.roots()
        assert roots == [compile_span]
        assert tracer.counters.counts["compile.kernels"] == 1
        assert tracer.counters.counts["compile.regions_cut"] >= 1

    def test_compile_counters_track_stats(self):
        tracer = obs.Tracer()
        with tracer:
            result = repro.protect(
                repro.parse_kernel(open(SCALE).read()),
                launch=repro.LaunchConfig(
                    threads_per_block=16, num_blocks=2
                ),
            )
        c = tracer.counters.counts
        assert c["compile.checkpoints_committed"] == result.stats[
            "checkpoints_committed"
        ]
        assert c["compile.checkpoints_pruned"] == result.stats[
            "checkpoints_pruned"
        ]

    def test_pddg_counters_are_flushed_per_pruning_pass(self):
        tracer = obs.Tracer()
        with tracer:
            repro.protect(
                repro.parse_kernel(open(SCALE).read()),
                launch=repro.LaunchConfig(
                    threads_per_block=16, num_blocks=2
                ),
            )
        passes = tracer.find("pass.pruning")
        c = tracer.counters.counts
        for counter in ("pddg_evaluated", "pddg_memo_hits"):
            assert all(counter in s.tags for s in passes)
            assert c[f"compile.{counter}"] == sum(
                s.tags[counter] for s in passes
            )
        assert c["compile.pddg_evaluated"] > 0


@pytest.fixture(scope="module")
def campaign_spec():
    return CampaignSpec(
        benchmark="STC",
        scheme="Penny",
        num_injections=30,
        seed=2020,
        surfaces=("rf", "ckpt", "recovery"),
    )


@pytest.fixture(scope="module")
def serial_report(campaign_spec):
    return ParallelCampaign(campaign_spec, workers=1).run()


class TestCampaignCounters:
    def test_every_injection_carries_a_snapshot(self, serial_report):
        assert all(r.counters for r in serial_report.records)

    def test_totals_cover_all_runs(self, serial_report):
        # DUE runs abort mid-simulation without publishing sim.* totals,
        # so the floor is the number of runs that finished.
        finished = sum(
            1 for r in serial_report.records if r.outcome != "due"
        )
        c = serial_report.counters()
        assert c.counts["sim.runs"] >= finished
        assert c.counts["sim.instructions"] > 0

    def test_skipped_work_is_counted_outside_the_records(
        self, campaign_spec, serial_report
    ):
        """Fast-forward, early exits and dead-strike exits report on the
        ambient tracer; the records, which carry per-injection snapshots,
        stay as they are."""
        with obs.Tracer(record_spans=False) as tracer:
            traced = ParallelCampaign(campaign_spec, workers=1).run()
        counts = tracer.counters.counts
        assert counts["campaign.ctas_skipped"] >= counts["campaign.early_exits"] > 0
        assert counts["campaign.dead_exits"] > 0
        assert traced.records == serial_report.records
        for record in traced.records:
            assert not any(
                name in record.counters["counters"]
                for name in (
                    "campaign.ctas_skipped",
                    "campaign.early_exits",
                    "campaign.dead_exits",
                )
            )

    @pytest.mark.parametrize("use_threads", [False, True])
    def test_workers_send_skipped_work_back(self, campaign_spec, use_threads):
        """A 2-worker run reports the ambient ``campaign.*`` counts of
        the inline run: each worker's come back beside its records."""
        counts = {}
        for workers in (1, 2):
            with obs.Tracer(record_spans=False) as tracer:
                ParallelCampaign(
                    campaign_spec, workers=workers, use_threads=use_threads
                ).run()
            counts[workers] = {
                name: n
                for name, n in tracer.counters.counts.items()
                if name.startswith("campaign.")
            }
        assert counts[2] == counts[1]
        assert counts[2]["campaign.dead_exits"] > 0

    def test_shard_merge_equals_serial(self, campaign_spec, serial_report):
        """The acceptance property: merging sharded runs reproduces the
        serial run's counter totals exactly."""
        shards = [
            CampaignReport(
                records=list(serial_report.records[lo:hi]),
                spec=campaign_spec,
            )
            for lo, hi in ((0, 9), (9, 21), (21, 30))
        ]
        merged = CampaignReport.merge(shards)
        assert merged.counters().to_dict() == serial_report.counters().to_dict()

    def test_parallel_workers_equal_serial(
        self, campaign_spec, serial_report
    ):
        parallel = ParallelCampaign(campaign_spec, workers=2).run()
        assert (
            parallel.counters().to_dict()
            == serial_report.counters().to_dict()
        )

    def test_overlapping_shards_dedup(self, campaign_spec, serial_report):
        a = CampaignReport(
            records=list(serial_report.records[:20]), spec=campaign_spec
        )
        b = CampaignReport(
            records=list(serial_report.records[12:]), spec=campaign_spec
        )
        merged = CampaignReport.merge([a, b])
        assert merged.counters().to_dict() == serial_report.counters().to_dict()


class TestTraceCli:
    def test_trace_subcommand_artifact(self, tmp_path, capsys):
        trace_path = tmp_path / "trace.json"
        metrics_path = tmp_path / "metrics.jsonl"
        rc = main(
            [
                "trace", SCALE,
                "--trace-out", str(trace_path),
                "--metrics-out", str(metrics_path),
            ]
        )
        assert rc == 0
        capsys.readouterr()

        trace = obs.load_chrome_trace(str(trace_path))
        assert obs.validate_chrome_trace(trace) == []
        names = obs.span_names(trace)
        for name in COMPILE_PASSES:
            assert name in names, f"missing span {name}"
        # The seeded fault produced at least one recovery re-execution
        # span, nested under a simulator run.
        recover = obs.find_span(trace, "sim.recover")
        assert recover is not None
        assert recover["args"]["reexec_insts"] >= 0
        parent_ids = {
            ev["args"]["span_id"]: ev
            for ev in trace["traceEvents"]
            if ev.get("ph") == "X"
        }
        assert (
            parent_ids[recover["args"]["parent_id"]]["name"] == "sim.run"
        )

        assert obs.validate_metrics_jsonl(str(metrics_path)) == []
        kinds = [
            json.loads(line)["kind"]
            for line in metrics_path.read_text().splitlines()
        ]
        assert "counters" in kinds
        assert "compile_result" in kinds
        assert "execution_result" in kinds

    def test_compile_trace_out(self, tmp_path, capsys):
        out = tmp_path / "compile-trace.json"
        rc = main(
            [
                "compile", SCALE,
                "--block", "16", "--grid", "2",
                "--trace-out", str(out),
            ]
        )
        assert rc == 0
        capsys.readouterr()
        trace = obs.load_chrome_trace(str(out))
        assert obs.validate_chrome_trace(trace) == []
        assert "compile" in obs.span_names(trace)

    def test_campaign_metrics_out(self, tmp_path, capsys):
        out = tmp_path / "campaign.jsonl"
        rc = main(
            [
                "campaign", "--bench", "STC", "-n", "10",
                "--metrics-out", str(out), "--json",
            ]
        )
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["kind"] == "campaign_report"
        assert payload["counters"]["counters"]["sim.runs"] >= 10
        assert obs.validate_metrics_jsonl(str(out)) == []
        kinds = [
            json.loads(line)["kind"]
            for line in out.read_text().splitlines()
        ]
        assert "campaign_report" in kinds
