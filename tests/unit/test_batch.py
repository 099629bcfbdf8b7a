"""The parallel batch driver: ordering, error capture, cache coupling.

The acceptance bar: ``compile_batch(jobs, workers=4)`` must produce
results ``to_dict()``-identical to a serial run, a failing job must
yield its typed error without killing the batch, a job that kills its
workers must end as a typed error instead of hanging the batch, and a
warm second run must be served from the cache.
"""

import os
import signal
import threading
import time

import pytest

from repro.core.pipeline import LaunchConfig, PennyConfig
from repro.obs import Tracer
from repro.obs.export import validate_metrics_record
from repro.serve.batch import (
    BatchReport,
    CompileJob,
    compile_batch,
    jobs_from_source,
)
from repro.serve.cache import CompileCache
from repro.serve.chaos import ChaosEngine, ChaosPlan

KERNEL_TEMPLATE = """
.entry k{i} (.param .ptr A, .param .u32 n) {{
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

BAD_PTX = """
.entry broken (.param .ptr A) {
ENTRY:
  bra NOWHERE;
}
"""

LAUNCH = LaunchConfig(threads_per_block=32, num_blocks=2)


def _module(n=4):
    return "\n".join(
        KERNEL_TEMPLATE.format(i=i, mult=3 + i) for i in range(n)
    )


def _jobs(n=4):
    return jobs_from_source(_module(n), PennyConfig(), launch=LAUNCH)


def test_jobs_from_source_one_job_per_kernel():
    jobs = _jobs(3)
    assert [j.name for j in jobs] == ["k0", "k1", "k2"]
    assert all(isinstance(j, CompileJob) for j in jobs)


def test_job_round_trips_through_dict():
    job = _jobs(1)[0]
    assert CompileJob.from_dict(job.to_dict()) == job


def test_parallel_results_identical_to_serial():
    jobs = _jobs(4)
    serial = compile_batch(jobs, workers=1, cache=None)
    parallel = compile_batch(jobs, workers=4, cache=None)
    assert all(r.ok for r in serial.results)
    assert all(r.ok for r in parallel.results)
    assert [r.name for r in parallel.results] == [
        r.name for r in serial.results
    ]
    for a, b in zip(serial.results, parallel.results):
        assert a.result.to_dict() == b.result.to_dict()


def test_failed_job_is_captured_not_fatal():
    jobs = _jobs(2) + [
        CompileJob(ptx=BAD_PTX, config=PennyConfig(), launch=LAUNCH)
    ]
    report = compile_batch(jobs, workers=2, cache=None)
    assert len(report.results) == 3
    assert [r.ok for r in report.results] == [True, True, False]
    failure = report.results[2]
    assert failure.error is not None
    assert "NOWHERE" in failure.error["message"]
    assert report.compile_results()[2] is None
    assert len(report.failures) == 1


def test_unparseable_job_fails_as_that_job():
    jobs = [
        CompileJob(ptx="this is not ptx", config=PennyConfig()),
        _jobs(1)[0],
    ]
    # Even with a cache installed (key derivation parses the text), the
    # malformed job must fail alone.
    with CompileCache():
        report = compile_batch(jobs, workers=1)
    assert [r.ok for r in report.results] == [False, True]


def test_warm_batch_is_all_hits():
    jobs = _jobs(3)
    with CompileCache() as cache:
        cold = compile_batch(jobs, workers=2)
        assert cold.cache_hits == 0 and cold.cache_misses == 3
        warm = compile_batch(jobs, workers=2)
        assert warm.cache_hits == 3 and warm.cache_misses == 0
        assert all(r.cached for r in warm.results)
        assert cache.stats.hits == 3
    for a, b in zip(cold.results, warm.results):
        assert a.result.to_dict() == b.result.to_dict()


def test_batch_matches_pipeline_cache_keys():
    """A batch warms the same keys ``PennyCompiler.compile`` consults —
    one shared cache serves both entry points."""
    from repro.core.pipeline import PennyCompiler
    from repro.ir.parser import parse_module

    with CompileCache() as cache:
        compile_batch(_jobs(1), workers=1)
        kernel = parse_module(_module(1)).kernels[0]
        PennyCompiler(PennyConfig()).compile(kernel, LAUNCH)
        assert cache.stats.hits == 1


def test_report_is_reportable():
    report = compile_batch(_jobs(2), workers=1, cache=None)
    d = report.to_dict()
    assert d["kind"] == "batch_report"
    assert d["jobs"] == 2 and d["ok"] == 2 and d["failed"] == 0
    assert validate_metrics_record(d) == []
    summary = report.summary()
    assert summary["jobs"] == 2 and summary["workers"] == 1


def test_workers_must_be_positive():
    with pytest.raises(ValueError):
        compile_batch([], workers=0)


# -- worker deaths ------------------------------------------------------------


def _compile_dicts(report):
    return [r.result.to_dict() if r.ok else None for r in report.results]


def test_job_that_kills_its_workers_fails_alone(monkeypatch):
    """A job whose compile SIGKILLs whichever worker runs it ends as a
    typed poison error; the batch returns and every other job equals a
    serial run."""
    import repro.serve.batch as batch_mod

    jobs = _jobs(4)
    serial = compile_batch(jobs, workers=1, cache=None)
    parent = os.getpid()
    real_compile = batch_mod._compile_job

    def killer(job):
        if job.name == "k2" and os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        return real_compile(job)

    monkeypatch.setattr(batch_mod, "_compile_job", killer)
    # Run on a daemon thread, so a batch that waits forever on its dead
    # worker fails this bound instead of hanging the suite.
    reports = []
    thread = threading.Thread(
        target=lambda: reports.append(
            compile_batch(jobs, workers=2, cache=None)
        ),
        daemon=True,
    )
    thread.start()
    thread.join(timeout=60.0)
    assert reports, "compile_batch did not return within 60 s"
    report = reports[0]
    assert [r.ok for r in report.results] == [True, True, False, True]
    assert report.results[2].error["type"] == "PoisonJobError"
    expected = _compile_dicts(serial)
    expected[2] = None
    assert _compile_dicts(report) == expected


def test_base_exception_escaping_the_runner_fails_each_job(monkeypatch):
    """A ``BaseException`` that escapes ``run_job`` in a pool worker comes
    back as the pool's 2-tuple fallback; each job ends with that typed
    error.  Inline (``workers=1``) it propagates as before."""
    import repro.serve.batch as batch_mod

    def exiting(job):
        raise SystemExit(3)

    monkeypatch.setattr(batch_mod, "_compile_job", exiting)
    report = compile_batch(_jobs(2), workers=2, cache=None)
    assert [r.ok for r in report.results] == [False, False]
    for r in report.results:
        assert r.error["type"] == "SystemExit"
        assert r.error["pass"] == "pool"
    with pytest.raises(SystemExit):
        compile_batch(_jobs(2), workers=1, cache=None)


def test_chaos_worker_kill_is_retried(monkeypatch):
    """``worker.kill`` reaches batch workers: the killed job is retried,
    so the batch equals a serial run job for job."""
    import repro.serve.batch as batch_mod

    real_compile = batch_mod._compile_job

    def slow_compile(job):
        # The slow job keeps the pool running past the killed worker's
        # restart backoff.
        if job.name == "slow":
            time.sleep(0.5)
        return real_compile(job)

    monkeypatch.setattr(batch_mod, "_compile_job", slow_compile)
    jobs = _jobs(3) + [
        CompileJob(
            ptx=KERNEL_TEMPLATE.format(i=3, mult=6),
            config=PennyConfig(),
            launch=LAUNCH,
            name="slow",
        )
    ]
    serial = compile_batch(jobs, workers=1, cache=None)
    tracer = Tracer(record_spans=False)
    plan = ChaosPlan.parse("worker.kill:p=1:max=1", seed=7)
    with tracer, ChaosEngine(plan) as chaos:
        parallel = compile_batch(jobs, workers=2, cache=None)
    assert chaos.injected_counts() == {"worker.kill": 1}
    assert all(r.ok for r in parallel.results)
    assert _compile_dicts(parallel) == _compile_dicts(serial)
    assert tracer.counters.counts.get("pool.restarts", 0) >= 1


def test_cli_jobs_prints_what_serial_prints(tmp_path, capsys):
    from repro.cli import main

    path = tmp_path / "two.ptx"
    path.write_text(_module(2))
    outputs = []
    for jobs in ("1", "2"):
        argv = ["compile", str(path), "--block", "32", "--grid", "2"]
        assert main(argv + ["--jobs", jobs]) == 0
        outputs.append(capsys.readouterr().out)
    assert ".entry k1" in outputs[0]
    assert outputs[1] == outputs[0]
