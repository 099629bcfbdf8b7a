"""End-to-end ``penny perf`` — the ISSUE's acceptance criteria live here.

- ``penny perf run executor --out BENCH_executor.json`` produces a
  schema-valid result with >= 5 retained reps, a confidence interval,
  and an environment fingerprint.
- ``penny perf gate`` exits 0 against its own fresh baseline (A/A) and
  nonzero when fed a synthetically slowed candidate.
"""

import json
import os

import pytest

from repro.cli import main
from repro.perf.schema import SCHEMA_VERSION, validate_bench_result
from repro.perf.stats import Summary

# Small-but-honest repeater knobs so the suite stays quick.
FAST = [
    "--min-reps", "5", "--max-reps", "10", "--target-rci", "0.3",
    "--wall-budget", "60",
]
SELFTEST_OPTS = ["--opt", "n=3000"]


def _run_selftest(tmp_path, name="BENCH_selftest.json"):
    out = os.path.join(str(tmp_path), name)
    rc = main(
        ["perf", "run", "selftest", "--out", out] + FAST + SELFTEST_OPTS
    )
    assert rc == 0
    return out


class TestList:
    def test_lists_registry(self, capsys):
        assert main(["perf", "list"]) == 0
        out = capsys.readouterr().out
        for name in ("selftest", "executor", "compile", "cache",
                     "batch", "tracer", "campaign"):
            assert name in out

    def test_json_listing(self, capsys):
        assert main(["perf", "list", "--json"]) == 0
        specs = json.loads(capsys.readouterr().out)
        names = {s["name"] for s in specs}
        assert "executor" in names
        assert all(s["description"] for s in specs)


class TestRun:
    def test_run_selftest_writes_valid_bench(self, tmp_path, capsys):
        out = _run_selftest(tmp_path)
        stdout = capsys.readouterr().out
        assert "selftest" in stdout and "median" in stdout
        with open(out) as f:
            obj = json.load(f)
        assert validate_bench_result(obj) == []
        assert obj["schema_version"] == SCHEMA_VERSION

    def test_run_executor_acceptance(self, tmp_path):
        # The ISSUE acceptance criterion, verbatim: a schema-valid
        # result with >= 5 retained reps, a CI, and an env fingerprint.
        out = os.path.join(str(tmp_path), "BENCH_executor.json")
        rc = main(
            ["perf", "run", "executor", "--out", out,
             "--min-reps", "5", "--max-reps", "6",
             "--target-rci", "0.5", "--wall-budget", "300",
             "--opt", "blocks=1", "--opt", "iters=6", "--opt",
             "words=256"]
        )
        assert rc == 0
        with open(out) as f:
            obj = json.load(f)
        assert validate_bench_result(obj) == []
        primary = obj["series"][obj["primary"]]
        assert len(primary["samples"]) >= 5
        s = primary["summary"]
        assert s["ci_lo"] <= s["median"] <= s["ci_hi"]
        env = obj["environment"]
        assert env["python_version"] and env["code_sha"]
        assert "speedup" in obj["metrics"]

    def test_unknown_bench_fails(self):
        with pytest.raises(SystemExit):
            main(["perf", "run", "nonesuch"])

    def test_no_selection_fails(self):
        with pytest.raises(SystemExit):
            main(["perf", "run"] + FAST)

    def test_bad_opt_fails(self):
        with pytest.raises(SystemExit):
            main(["perf", "run", "selftest", "--opt", "garbage"])


class TestValidate:
    def test_validate_ok_and_broken(self, tmp_path, capsys):
        out = _run_selftest(tmp_path)
        assert main(["perf", "validate", out]) == 0
        assert "ok" in capsys.readouterr().out

        broken = os.path.join(str(tmp_path), "BENCH_broken.json")
        with open(out) as f:
            obj = json.load(f)
        del obj["environment"]
        with open(broken, "w") as f:
            json.dump(obj, f)
        assert main(["perf", "validate", broken]) == 1
        assert "INVALID" in capsys.readouterr().out

    def test_validate_committed_baselines(self):
        # The repo-root BENCH files must always be schema-valid.
        repo_root = os.path.dirname(
            os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        )
        import glob

        paths = sorted(
            glob.glob(os.path.join(repo_root, "BENCH_*.json"))
        )
        assert paths, "no committed BENCH_*.json baselines"
        for path in paths:
            with open(path) as f:
                problems = validate_bench_result(json.load(f))
            assert problems == [], f"{path}: {problems}"


class TestGate:
    def test_gate_aa_exits_zero(self, tmp_path, capsys):
        # A/A: gate a fresh selftest run against its own fresh baseline
        # on the same machine — must pass with a generous margin.
        _run_selftest(tmp_path)
        rc = main(
            ["perf", "gate", "selftest", "--baseline-dir",
             str(tmp_path), "--noise-margin", "1.0"]
            + FAST + SELFTEST_OPTS
        )
        out = capsys.readouterr().out
        assert rc == 0, out
        assert "selftest" in out

    def test_gate_flags_synthetic_slowdown(self, tmp_path, capsys):
        # The other acceptance criterion: a synthetically slowed
        # candidate must exit nonzero.
        baseline = _run_selftest(tmp_path)
        with open(baseline) as f:
            obj = json.load(f)
        for series in obj["series"].values():
            series["samples"] = [x * 10 for x in series["samples"]]
            series["summary"] = Summary.from_samples(
                series["samples"]
            ).to_dict()
        slowed = os.path.join(str(tmp_path), "slowed.json")
        with open(slowed, "w") as f:
            json.dump(obj, f)

        rc = main(
            ["perf", "gate", "selftest", "--baseline-dir",
             str(tmp_path), "--candidate", slowed,
             "--noise-margin", "0.25"]
        )
        captured = capsys.readouterr()
        assert rc != 0
        assert "REGRESSED" in captured.out
        assert "FAIL" in captured.err

    def test_gate_env_drift_downgrades(self, tmp_path, capsys):
        # Same synthetic slowdown, but stamped from a different
        # machine: the gate must refuse to call it a regression.
        baseline = _run_selftest(tmp_path)
        with open(baseline) as f:
            obj = json.load(f)
        for series in obj["series"].values():
            series["samples"] = [x * 10 for x in series["samples"]]
            series["summary"] = Summary.from_samples(
                series["samples"]
            ).to_dict()
        obj["environment"]["node"] = "some-other-host"
        slowed = os.path.join(str(tmp_path), "slowed.json")
        with open(slowed, "w") as f:
            json.dump(obj, f)

        rc = main(
            ["perf", "gate", "selftest", "--baseline-dir",
             str(tmp_path), "--candidate", slowed,
             "--noise-margin", "0.25"]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "INCONCLUSIVE" in out and "drift" in out

        # ... unless told the drift is deliberate.
        rc = main(
            ["perf", "gate", "selftest", "--baseline-dir",
             str(tmp_path), "--candidate", slowed,
             "--noise-margin", "0.25", "--ignore-env"]
        )
        capsys.readouterr()
        assert rc != 0

    def test_gate_missing_baseline_explains(self, tmp_path):
        with pytest.raises(SystemExit, match="no baseline"):
            main(
                ["perf", "gate", "selftest", "--baseline-dir",
                 str(tmp_path)] + FAST + SELFTEST_OPTS
            )


class TestCompare:
    def test_compare_json_output(self, tmp_path, capsys):
        _run_selftest(tmp_path)
        capsys.readouterr()  # drop the baseline run's output
        rc = main(
            ["perf", "compare", "selftest", "--baseline-dir",
             str(tmp_path), "--noise-margin", "1.0", "--json"]
            + FAST + SELFTEST_OPTS
        )
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload[0]["kind"] == "bench_comparison"
        assert payload[0]["benchmark"] == "selftest"
        assert payload[0]["series"][0]["is_primary"] is True

    def test_compare_welch_method(self, tmp_path, capsys):
        _run_selftest(tmp_path)
        capsys.readouterr()  # drop the baseline run's output
        rc = main(
            ["perf", "compare", "selftest", "--baseline-dir",
             str(tmp_path), "--noise-margin", "1.0",
             "--method", "welch", "--json"]
            + FAST + SELFTEST_OPTS
        )
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload[0]["series"][0]["method"] == "welch"
        assert payload[0]["series"][0]["p_value"] is not None
