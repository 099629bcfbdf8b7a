"""Command-line front end: protect PTX-subset kernels from the shell.

Usage::

    python -m repro.cli compile kernel.ptx --scheme Penny
    python -m repro.cli compile kernel.ptx --pruning basic --storage global
    python -m repro.cli report kernel.ptx           # compile stats as JSON
    python -m repro.cli schemes                     # list presets
    python -m repro.cli campaign --bench STC -n 200 --workers 4 \\
        --surfaces rf,ckpt,recovery --journal stc.jsonl
    python -m repro.cli fuzz -n 1000 --seed 2020 --workers 4 \\
        --reduce --journal findings.jsonl
    python -m repro.cli verify --corpus findings.jsonl
    penny lint examples/vecadd.ptx --format sarif --out lint.sarif
    penny lint --bench all --compiled --fail-on warning
    penny trace examples/scale.ptx --trace-out trace.json

``compile`` prints the protected kernel's PTX followed by a ``//``-comment
report (region count, checkpoint statistics, storage layout); ``report``
emits the statistics alone as JSON for scripting; ``campaign`` runs a
parallel fault-injection campaign on a registered benchmark and prints the
outcome summary, the DUE taxonomy and Wilson confidence intervals
(``--resume`` continues a killed campaign from its JSONL journal);
``fuzz`` runs the differential compiler fuzzer (exit status 1 when any
finding survives) and ``verify --corpus`` re-checks a fuzz corpus's
findings — including their reduced reproducers — against the current
compiler.

``lint`` runs the :mod:`repro.lint` static analyzer over PTX files,
registered benchmarks (``--bench``), or golden fixtures (``--fixtures``),
rendering text with source carets, JSONL metrics records, or SARIF
2.1.0 for CI code scanning; ``--compiled`` additionally compiles each
kernel and runs the post-compile checkpoint rules.  Exit status is 1
when any diagnostic reaches ``--fail-on`` (default ``error``).

``serve`` runs the :mod:`repro.serve` async compile server (JSONL over
TCP: bounded request queue, typed ``ServerBusy`` backpressure, compile
cache, graceful SIGTERM drain); ``client`` is its blocking counterpart
with retry + exponential backoff + jitter (``penny client compile
kernel.ptx``, plus ``ping``/``stats``/``shutdown``); ``cache`` manages
the on-disk compile cache (``penny cache {stats,clear,gc}``).
``compile``/``report``/``verify`` accept ``--jobs N`` (parallel batch
compilation of multi-kernel modules) and ``--cache-dir DIR``.

``trace`` compiles and executes a kernel under a :mod:`repro.obs` tracer
— including a seeded register-file fault so the trace shows detection
and recovery re-execution — and writes a Chrome trace-event JSON
(``--trace-out``, default ``trace.json``; open in ``chrome://tracing``
or https://ui.perfetto.dev).  ``compile``, ``campaign`` and ``fuzz``
also accept ``--trace-out``/``--metrics-out`` to observe any run.
(``penny`` is the installed console-script alias for this module.)
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import contextmanager, nullcontext
from typing import List, Optional

import repro.obs as obs
from repro.core.pipeline import LaunchConfig, PennyCompiler, PennyConfig
from repro.core.schemes import (
    SCHEME_BOLT_AUTO,
    SCHEME_BOLT_GLOBAL,
    SCHEME_PENNY,
    Scheme,
    scheme_config,
)
from repro.ir.parser import parse_module
from repro.ir.printer import print_kernel

_SCHEMES = (SCHEME_PENNY, SCHEME_BOLT_GLOBAL, SCHEME_BOLT_AUTO)


def _read_source(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path) as f:
        return f.read()


class _Observation:
    """``--trace-out`` / ``--metrics-out`` plumbing for any subcommand.

    When either flag was given, installs a :class:`repro.obs.Tracer` for
    the duration of the ``with`` block and writes the requested artifacts
    on exit; otherwise it is inert and the command runs unobserved.
    """

    def __init__(self, args: argparse.Namespace):
        self.trace_out = args.trace_out
        self.metrics_out = args.metrics_out
        self.tracer: Optional[obs.Tracer] = (
            obs.Tracer()
            if (self.trace_out or self.metrics_out)
            else None
        )
        self._reports: List = []

    def report(self, reportable) -> None:
        """Queue a Reportable for the metrics sink (no-op when inert)."""
        if self.tracer is not None:
            self._reports.append(reportable)

    def __enter__(self) -> "_Observation":
        if self.tracer is not None:
            self.tracer.__enter__()
        return self

    def __exit__(self, *exc) -> bool:
        if self.tracer is None:
            return False
        self.tracer.__exit__(*exc)
        if self.trace_out:
            obs.write_chrome_trace(self.trace_out, self.tracer)
            print(f"trace written to {self.trace_out}", file=sys.stderr)
        if self.metrics_out:
            with obs.MetricsSink(self.metrics_out) as sink:
                if self.tracer.counters:
                    sink.write_counters(self.tracer.counters)
                for r in self._reports:
                    sink.write_report(r)
            print(
                f"metrics written to {self.metrics_out}", file=sys.stderr
            )
        return False


@contextmanager
def _chaos(args: argparse.Namespace, prog: str):
    """``--chaos`` / ``--chaos-seed`` plumbing: arms the plan for the
    ``with`` block and prints what it injected on exit; inert without
    ``--chaos``."""
    if not args.chaos:
        yield
        return
    from repro.serve.chaos import ChaosEngine, ChaosPlan

    plan = ChaosPlan.parse(args.chaos, seed=args.chaos_seed)
    print(
        f"{prog}: chaos plan armed "
        f"({len(plan.rules)} rule(s), seed {plan.seed})",
        file=sys.stderr,
        flush=True,
    )
    with ChaosEngine(plan) as engine:
        yield
    summary = engine.summary()
    by_kind = ", ".join(
        f"{kind}={count}" for kind, count in summary["by_kind"].items()
    ) or "none"
    print(
        f"{prog}: chaos injected {summary['injections']} "
        f"fault(s) ({by_kind})",
        file=sys.stderr,
    )


def _build_config(args: argparse.Namespace) -> PennyConfig:
    config = scheme_config(args.scheme)
    if args.pruning:
        config.pruning = args.pruning
    if args.storage:
        config.storage_mode = args.storage
    if args.overwrite:
        config.overwrite = args.overwrite
    if args.no_low_opts:
        config.low_opts = False
    if args.param_noalias:
        config.param_noalias = True
    if args.policy:
        from repro.policy import PolicyError, ProtectionPolicy

        try:
            config.policy = str(ProtectionPolicy.parse(args.policy))
        except PolicyError as exc:
            raise SystemExit(f"error: invalid --policy: {exc}")
    return config


def _compile_all(args: argparse.Namespace):
    source = _read_source(args.input)
    config = _build_config(args)
    launch = LaunchConfig(
        threads_per_block=args.block, num_blocks=args.grid
    )
    strict = not args.no_strict
    cache_ctx = nullcontext()
    if args.cache_dir:
        from repro.serve import CompileCache

        cache_ctx = CompileCache(directory=args.cache_dir)
    with cache_ctx:
        if args.jobs > 1:
            from repro.core.errors import CompileError
            from repro.serve import compile_batch, jobs_from_source

            batch_jobs = jobs_from_source(
                source, config, launch, strict=strict
            )
            report = compile_batch(batch_jobs, workers=args.jobs)
            for failed in report.failures:
                err = failed.error or {}
                raise CompileError(
                    f"job {failed.name!r} failed: "
                    f"{err.get('type')}: {err.get('message')}",
                    pass_name="batch",
                )
            return report.compile_results()
        module = parse_module(source)
        compiler = PennyCompiler(config, strict=strict)
        return [
            compiler.compile(kernel, launch) for kernel in module.kernels
        ]


def cmd_compile(args: argparse.Namespace) -> int:
    with _Observation(args) as watch:
        results = _compile_all(args)
        for result in results:
            watch.report(result)
    for result in results:
        print(print_kernel(result.kernel))
        print()
        print(f"// scheme: {result.config.name}")
        for key in sorted(result.stats):
            print(f"// {key}: {result.stats[key]}")
        print()
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    reports = [result.to_dict() for result in _compile_all(args)]
    json.dump(reports, sys.stdout, indent=2, default=str)
    print()
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    from repro.core.verify import verify_compiled

    if args.corpus:
        _apply_backend(args)
        return _verify_corpus(args)
    if not args.input:
        print("verify: an input file or --corpus is required",
              file=sys.stderr)
        return 2
    # Compiling a file simulates nothing and replays no finding.
    for flag, given in (("--backend", args.backend != "auto"),
                        ("--strict", args.strict)):
        if given:
            print(f"verify: {flag} acts only with --corpus",
                  file=sys.stderr)
            return 2

    status = 0
    for result in _compile_all(args):
        problems = verify_compiled(result.kernel)
        fallback = result.stats.get("fallback_path")
        suffix = f" (fallback: {fallback})" if fallback else ""
        if problems:
            status = 1
            print(f"{result.kernel.name}: {len(problems)} violation(s)"
                  f"{suffix}")
            for p in problems:
                print(f"  - {p}")
        else:
            print(f"{result.kernel.name}: recovery metadata verified clean"
                  f"{suffix}")
    return status


def _verify_corpus(args: argparse.Namespace) -> int:
    """Re-run the differential oracle over a fuzz corpus's findings.

    A finding's *reduced* reproducer is preferred when present; each is
    checked for reproducing with its recorded fingerprint against the
    current compiler.  Exit 0 when every finding still reproduces, 1
    when any has gone stale (fixed, or fingerprint drifted).
    """
    import dataclasses as _dc

    from repro.fuzz.oracle import run_case
    from repro.fuzz.triage import TriageCorpus

    corpus = TriageCorpus.load(args.corpus)
    if not corpus.findings:
        print(f"{args.corpus}: no findings")
        return 0
    stale = 0
    checked = 0
    for i, finding in enumerate(corpus.findings):
        if finding.stage == "harness_crash" or not finding.case:
            # The worker died before the case could be serialized back;
            # only the generating seed survives.
            print(f"[{i}] skipped: harness_crash finding has no case "
                  f"(rebuild with --seed {finding.seed})")
            continue
        checked += 1
        case = finding.fuzz_case()
        if finding.reduced_kernel:
            case = _dc.replace(case, kernel_text=finding.reduced_kernel)
        result = run_case(
            case,
            scheme=args.scheme,
            strict=args.strict,
            iteration=finding.iteration,
        )
        got = result.finding.fingerprint if result.finding else result.status
        if result.finding and result.finding.fingerprint == finding.fingerprint:
            print(f"[{i}] reproduces: {finding.fingerprint}")
        else:
            stale += 1
            print(f"[{i}] STALE: recorded {finding.fingerprint!r}, "
                  f"got {got!r}")
    print(f"{checked - stale}/{checked} findings still reproduce")
    return 1 if stale else 0


def _campaign_fsck(args: argparse.Namespace) -> int:
    """``penny campaign --fsck JOURNAL``: validate checksums + schema and
    print the reconciliation summary without running anything."""
    import os

    from repro.gpusim.campaign import fsck_journal

    if not os.path.exists(args.fsck):
        print(f"fsck: no journal at {args.fsck}", file=sys.stderr)
        return 2
    fsck = fsck_journal(args.fsck)
    recon = fsck.reconcile()
    if args.json:
        json.dump(fsck.to_dict(), sys.stdout, indent=2)
        print()
        return 0 if recon["complete"] else 1
    header = fsck.header or {}
    spec = header.get("spec") or {}
    print(f"journal: {args.fsck}")
    print(
        f"  header: version={header.get('version', '?')} "
        f"benchmark={spec.get('benchmark', '?')} "
        f"n={spec.get('num_injections', '?')} "
        f"seed={spec.get('seed', '?')}"
    )
    print(
        f"  lines: {fsck.total_lines} total, {fsck.record_lines} records, "
        f"{fsck.corrupt_lines} corrupt"
    )
    if fsck.duplicate_indices:
        shown = ", ".join(map(str, fsck.duplicate_indices[:10]))
        print(f"  duplicates: {shown}"
              + (" ..." if len(fsck.duplicate_indices) > 10 else ""))
    status = "ok" if recon["complete"] else "INCOMPLETE"
    missing = recon["missing"]
    print(
        f"campaign: reconciliation {status} — "
        f"{recon['recorded']}/{recon['expected']} indices accounted "
        f"({len(missing)} missing, {len(recon['duplicates'])} duplicate, "
        f"{fsck.corrupt_lines} corrupt line(s))"
    )
    if missing:
        shown = ", ".join(map(str, missing[:10]))
        print(f"  missing: {shown}" + (" ..." if len(missing) > 10 else ""))
        print("  (run with --resume to complete the sweep)")
    return 0 if recon["complete"] else 1


def cmd_campaign(args: argparse.Namespace) -> int:
    if args.fsck:
        return _campaign_fsck(args)
    if not args.bench:
        print(
            "campaign: --bench is required (or --fsck JOURNAL to "
            "validate a journal offline)",
            file=sys.stderr,
        )
        return 2
    # Deferred: pulls in numpy (bench registry) and the simulator.
    from repro.bench import get_benchmark  # noqa: F401  (validates early)
    from repro.gpusim.campaign import CampaignSpec, ParallelCampaign

    surfaces = tuple(
        s.strip() for s in args.surfaces.split(",") if s.strip()
    )
    try:
        get_benchmark(args.bench)
    except KeyError:
        print(f"unknown benchmark {args.bench!r}", file=sys.stderr)
        return 2
    spec = CampaignSpec(
        benchmark=args.bench,
        scheme=args.scheme,
        rf_code=args.code,
        num_injections=args.injections,
        seed=args.seed,
        surfaces=surfaces,
        bits_per_fault=args.bits,
        pattern=args.pattern,
        max_instructions=args.watchdog,
        max_recoveries=args.max_recoveries,
        backend=args.backend,
        policy=args.policy,
    )
    campaign = ParallelCampaign(
        spec,
        workers=args.workers,
        journal_path=args.journal,
        wall_timeout=args.wall_timeout,
        poison_threshold=args.poison_threshold,
    )
    with _chaos(args, "penny campaign"), _Observation(args) as watch:
        report = campaign.run(resume=args.resume, handle_signals=True)
        watch.report(report)

    recon = report.reconciliation()
    sup = report.supervision or {}
    status = (
        "ok"
        if recon["complete"]
        else ("partial" if report.interrupted else "FAILED")
    )
    print(
        f"campaign: reconciliation {status} — "
        f"{recon['recorded']}/{recon['expected']} indices accounted "
        f"exactly once (retries={sup.get('retries', 0)}, "
        f"quarantined={sup.get('quarantined', 0)}, "
        f"worker_restarts={sup.get('restarts', 0)}, "
        f"journal_write_errors={sup.get('journal_write_errors', 0)}, "
        f"journal_corrupt={sup.get('journal_corrupt_records', 0)})",
        file=sys.stderr,
    )

    if args.json:
        json.dump(report.to_dict(), sys.stdout, indent=2)
        print()
    else:
        summary = report.summary()
        print(
            f"campaign: {spec.benchmark} scheme={spec.scheme} "
            f"code={spec.rf_code} surfaces={','.join(spec.surfaces)} "
            f"n={spec.num_injections} workers={args.workers}"
        )
        print()
        print(f"{'outcome':14}{'count':>8}")
        for name, count in summary.items():
            print(f"{name:14}{count:>8}")
        taxonomy = report.due_taxonomy()
        if taxonomy:
            print()
            print("DUE taxonomy:")
            for label, count in sorted(taxonomy.items()):
                print(f"  {label:20}{count:>6}")
        print()
        print(f"{'rate':12}{'point':>9}{'95% CI':>20}")
        for name, (p, lo, hi) in report.rates().items():
            print(f"{name:12}{p:>9.4f}   [{lo:.4f}, {hi:.4f}]")

    if report.interrupted:
        reason = sup.get("drain_reason", "signal")
        if args.journal:
            hint = (
                f"penny campaign --bench {spec.benchmark} "
                f"-n {spec.num_injections} --seed {spec.seed} "
                f"--journal {args.journal} --resume"
            )
        else:
            hint = "re-run with --journal PATH to make drains resumable"
        print(
            f"campaign: interrupted ({reason}) — journal flushed, "
            f"partial report emitted; resume with: {hint}",
            file=sys.stderr,
        )
        return 3
    return 0


def cmd_fuzz(args: argparse.Namespace) -> int:
    from repro.fuzz import FuzzRunner, FuzzSpec

    spec = FuzzSpec(
        iterations=args.iterations,
        seed=args.seed,
        scheme=args.scheme,
        strict=args.strict,
        fault=not args.no_fault,
        mutate_rate=args.mutate_rate,
        backend=args.backend,
        cross_check=args.cross_check,
    )
    with _Observation(args) as watch:
        report = FuzzRunner(
            spec, workers=args.workers, journal_path=args.journal
        ).run(reduce=args.reduce)
        watch.report(report)

    if args.json:
        json.dump(report.to_dict(), sys.stdout, indent=2)
        print()
        return 1 if report.findings else 0

    print(
        f"fuzz: n={spec.iterations} seed={spec.seed} scheme={spec.scheme} "
        f"strict={spec.strict} mutate_rate={spec.mutate_rate} "
        f"workers={args.workers}"
    )
    print()
    print(f"{'outcome':16}{'count':>8}")
    for name, count in sorted(report.outcomes.items()):
        print(f"{name:16}{count:>8}")
    buckets = report.buckets()
    if buckets:
        print()
        print(f"{len(report.findings)} finding(s) in "
              f"{len(buckets)} bucket(s):")
        for fp, findings in sorted(buckets.items()):
            rep = findings[0]
            print(f"  [{len(findings):3}] {fp}")
            if rep.reduced_instructions is not None:
                print(
                    f"        reduced {rep.original_instructions} -> "
                    f"{rep.reduced_instructions} instructions "
                    f"(seed {rep.seed})"
                )
    else:
        print()
        print("no findings")
    return 1 if report.findings else 0


def _parse_severity_overrides(pairs: List[str]) -> dict:
    """``RULE=LEVEL`` strings -> {rule: Severity} (raises on bad level)."""
    from repro.lint import Severity

    overrides = {}
    for pair in pairs:
        rule_id, _, level = pair.partition("=")
        if not rule_id or not level:
            raise ValueError(f"bad --severity {pair!r} (want RULE=LEVEL)")
        overrides[rule_id] = Severity.parse(level)
    return overrides


def _lint_units(args: argparse.Namespace):
    """Yield ``(display_path, source_text_or_None, kernels)`` units to
    lint: each input file is one unit (with its text, for carets), each
    requested benchmark is one source-less unit."""
    for path in args.inputs:
        text = _read_source(path)
        display = "<stdin>" if path == "-" else path
        yield display, text, list(parse_module(text).kernels)
    bench_requests = list(args.bench)
    if "all" in bench_requests:
        from repro.bench import ALL_BENCHMARKS

        bench_requests = ALL_BENCHMARKS.abbrs()
    for abbr in bench_requests:
        from repro.bench import get_benchmark

        b = get_benchmark(abbr)
        yield f"bench:{abbr}", None, [b.fresh_kernel()]


def _lint_fixtures(args: argparse.Namespace, select_kwargs: dict) -> int:
    """Regression mode: lint every ``DIR/*.ptx`` and compare against its
    ``.expect`` golden (lines of ``severity rule kernel:block:index``)."""
    import glob
    import os

    from repro.lint import AnalyzerError, lint_source

    ptxs = sorted(glob.glob(os.path.join(args.fixtures, "*.ptx")))
    if not ptxs:
        print(f"lint: no fixtures in {args.fixtures!r}", file=sys.stderr)
        return 2
    failed = 0
    for ptx in ptxs:
        expect_path = os.path.splitext(ptx)[0] + ".expect"
        try:
            with open(expect_path) as f:
                expected = sorted(
                    line.strip()
                    for line in f
                    if line.strip() and not line.startswith("#")
                )
        except FileNotFoundError:
            print(f"FAIL {ptx}: missing golden {expect_path}")
            failed += 1
            continue
        try:
            report = lint_source(_read_source(ptx), **select_kwargs)
        except AnalyzerError as exc:
            print(f"FAIL {ptx}: analyzer crash: {exc}")
            failed += 1
            continue
        got = sorted(
            f"{d.severity.value} {d.rule} {d.location}"
            for d in report.diagnostics
        )
        if got == expected:
            print(f"ok   {ptx} ({len(got)} diagnostic(s))")
            continue
        failed += 1
        print(f"FAIL {ptx}: diagnostics diverge from golden")
        for line in sorted(set(expected) - set(got)):
            print(f"  missing:    {line}")
        for line in sorted(set(got) - set(expected)):
            print(f"  unexpected: {line}")
    print(f"{len(ptxs) - failed}/{len(ptxs)} fixtures match")
    return 1 if failed else 0


def cmd_lint(args: argparse.Namespace) -> int:
    from repro.lint import (
        AnalyzerError,
        LintReport,
        Severity,
        lint_compiled,
        lint_kernel,
    )
    from repro.lint.render import (
        render_jsonl,
        render_sarif,
        render_text,
        sarif_report,
        validate_sarif,
    )

    try:
        severity = _parse_severity_overrides(args.severity)
    except ValueError as exc:
        print(f"lint: {exc}", file=sys.stderr)
        return 2
    select_kwargs = dict(
        only=args.rule, disable=tuple(args.disable), severity=severity
    )

    if args.fixtures:
        return _lint_fixtures(args, select_kwargs)
    if not args.inputs and not args.bench:
        print("lint: an input file, --bench, or --fixtures is required",
              file=sys.stderr)
        return 2

    units = []  # (display_path, source, report)
    merged = LintReport()
    with _Observation(args):
        try:
            for display, text, kernels in _lint_units(args):
                report = LintReport()
                for kernel in kernels:
                    report.extend(
                        lint_kernel(kernel, source=text, **select_kwargs)
                    )
                    if args.compiled:
                        lint_config = scheme_config(args.scheme)
                        if args.policy:
                            lint_config.policy = args.policy
                        compiler = PennyCompiler(lint_config, strict=False)
                        launch = LaunchConfig(
                            threads_per_block=args.block,
                            num_blocks=args.grid,
                        )
                        result = compiler.compile(kernel, launch)
                        report.extend(
                            lint_compiled(result.kernel, **select_kwargs)
                        )
                units.append((display, text, report))
                merged.extend(report)
        except AnalyzerError as exc:
            print(f"lint: {exc}", file=sys.stderr)
            return 2

    single = units[0][0] if len(units) == 1 else None
    if args.format == "sarif":
        rendered = render_sarif(merged, path=single)
        problems = validate_sarif(sarif_report(merged, path=single))
        for p in problems:
            print(f"sarif schema: {p}", file=sys.stderr)
        if problems:
            return 2
    elif args.format == "json":
        rendered = render_jsonl(merged)
    else:
        rendered = "\n".join(
            render_text(report, source=text, path=display)
            for display, text, report in units
        )
    if args.out:
        with open(args.out, "w") as f:
            f.write(rendered + "\n")
        print(f"lint report written to {args.out}", file=sys.stderr)
    else:
        print(rendered)

    threshold = Severity.parse(args.fail_on)
    return 1 if merged.at_least(threshold) else 0


def _synthesize_memory(kernel, words: int):
    """A workload for a kernel we know nothing about: every pointer param
    gets a ``words``-long global buffer of small nonzero values, every
    scalar param gets ``words`` (the conventional element count)."""
    from repro.gpusim.memory import MemoryImage

    mem = MemoryImage()
    for p in kernel.params:
        if p.is_pointer:
            addr = mem.alloc_global(words)
            mem.upload(addr, [(i * 7 + 3) % 251 for i in range(words)])
            mem.set_param(p.name, addr)
        else:
            mem.set_param(p.name, words)
    return mem


def cmd_trace(args: argparse.Namespace) -> int:
    """Compile and execute kernels under a tracer, seeding one recoverable
    register-file fault so the trace shows detection + re-execution."""
    from repro.gpusim.backend import make_executor
    from repro.gpusim.executor import Launch
    from repro.gpusim.faults import FaultPlan

    _apply_backend(args)
    module = parse_module(_read_source(args.input))
    config = _build_config(args)
    launch_config = LaunchConfig(
        threads_per_block=args.block, num_blocks=args.grid
    )
    launch = Launch(grid=args.grid, block=args.block)

    tracer = obs.Tracer()
    reports: List = []
    recovered_all = True
    with tracer:
        for kernel in module.kernels:
            compiler = PennyCompiler(config, strict=not args.no_strict)
            result = compiler.compile(kernel, launch_config)
            reports.append(result)

            # Fault-free reference run.
            mem = _synthesize_memory(result.kernel, args.words)
            reports.append(
                make_executor(result.kernel, backend=args.backend).run(
                    launch, mem
                )
            )

            # Seeded fault runs: scan injection points until one lands on
            # a live register and recovery fires (bounded attempts; a
            # fault on a dead register is simply masked).
            recovered = False
            for tid in (3, 0, 7):
                if tid >= args.block:
                    continue
                for after in (25, 10, 40, 5, 60, 100):
                    plan = FaultPlan(
                        ctaid=0,
                        tid=tid,
                        after_instructions=after,
                        bits=(13,),
                    )
                    fmem = _synthesize_memory(result.kernel, args.words)
                    try:
                        faulted = make_executor(
                            result.kernel,
                            backend=args.backend,
                            fault_plan=plan,
                        ).run(launch, fmem)
                    except Exception:
                        continue  # DUE/timeout: try another point
                    if faulted.recoveries > 0:
                        reports.append(faulted)
                        recovered = True
                        break
                if recovered:
                    break
            recovered_all &= recovered
            n_spans = sum(
                1
                for s in tracer.find("sim.recover")
                if s.tags.get("error") is None
            )
            status = (
                f"{n_spans} recovery span(s)"
                if recovered
                else "no recovery could be seeded"
            )
            print(f"{kernel.name}: {status}")

    trace_out = args.trace_out or "trace.json"
    obs.write_chrome_trace(trace_out, tracer)
    problems = obs.validate_chrome_trace(obs.chrome_trace(tracer))
    if problems:
        for p in problems:
            print(f"trace schema: {p}", file=sys.stderr)
        return 1
    print(
        f"{len(tracer.spans)} span(s), {len(tracer.events)} event(s) "
        f"-> {trace_out}  (open in chrome://tracing or ui.perfetto.dev)"
    )
    if args.metrics_out:
        with obs.MetricsSink(args.metrics_out) as sink:
            sink.write_counters(tracer.counters)
            for r in reports:
                sink.write_report(r)
        print(f"metrics -> {args.metrics_out}")
    return 0 if recovered_all else 1


def cmd_serve(args: argparse.Namespace) -> int:
    """Run the async compile server until SIGTERM/SIGINT drains it."""
    from repro.serve import CompileServer, ServeConfig

    config = ServeConfig(
        host=args.host,
        port=args.port,
        workers=args.workers,
        queue_limit=args.queue_limit,
        request_timeout=args.request_timeout,
        cache_dir=args.cache_dir,
        use_threads=args.threads,
    )
    server = CompileServer(config)

    import threading

    def announce():
        server._ready.wait()
        print(
            f"penny serve: listening on {config.host}:{server.port} "
            f"(workers={config.workers}, queue={config.queue_limit}, "
            f"cache={config.cache_dir or 'memory-only'})",
            file=sys.stderr,
            flush=True,
        )

    threading.Thread(target=announce, daemon=True).start()
    with _chaos(args, "penny serve"):
        with _Observation(args):
            status = server.run()
        print(
            f"penny serve: drained ({server.stats.compiles} compile(s), "
            f"{server.stats.busy_rejections} busy rejection(s), "
            f"cache hit rate {server.cache.stats.hit_rate:.1%})",
            file=sys.stderr,
        )
    return status


def cmd_client(args: argparse.Namespace) -> int:
    """Talk to a running ``penny serve``: compile/ping/stats/shutdown."""
    from repro.serve import CompileClient, RetryPolicy, ServeError

    client = CompileClient(
        host=args.host,
        port=args.port,
        timeout=args.timeout,
        retry=RetryPolicy(
            attempts=args.retries, base_delay=args.backoff
        ),
    )
    try:
        if args.action == "ping":
            print("pong" if client.ping() else "no pong")
            return 0
        if args.action == "health":
            health = client.health()
            json.dump(health, sys.stdout, indent=2)
            print()
            return 0 if health.get("ready") else 1
        if args.action == "stats":
            json.dump(client.stats(), sys.stdout, indent=2)
            print()
            return 0
        if args.action == "shutdown":
            client.shutdown()
            print("shutdown requested", file=sys.stderr)
            return 0
        # compile
        if not args.input:
            print("client compile: an input file is required",
                  file=sys.stderr)
            return 2
        config = _build_config(args)
        status = 0
        for kernel in parse_module(_read_source(args.input)).kernels:
            response = client.compile(
                print_kernel(kernel),
                config=config,
                launch={
                    "threads_per_block": args.block,
                    "num_blocks": args.grid,
                },
                strict=not args.no_strict,
                name=kernel.name,
            )
            if args.json:
                json.dump(response, sys.stdout, indent=2)
                print()
                continue
            print(response["kernel"])
            print()
            print(f"// scheme: {config.name}")
            print(f"// cached: {response.get('cached')}")
            for key in sorted(response.get("summary", {})):
                print(f"// {key}: {response['summary'][key]}")
            print()
        return status
    except ServeError as exc:
        print(f"client: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


def cmd_cache(args: argparse.Namespace) -> int:
    """Inspect / clear / garbage-collect the on-disk compile cache."""
    from repro.serve import CompileCache, default_cache_dir

    directory = args.cache_dir or default_cache_dir()
    cache = CompileCache(directory=directory)
    if args.action == "stats":
        json.dump(cache.report(), sys.stdout, indent=2)
        print()
        return 0
    if args.action == "clear":
        removed = cache.clear()
        print(f"cleared {removed} entrie(s) from {directory}")
        return 0
    # gc
    removed = cache.gc(
        max_bytes=args.max_bytes, max_age_seconds=args.max_age
    )
    entries, total = cache.disk_usage()
    print(
        f"gc removed {removed} entrie(s); {entries} entrie(s), "
        f"{total} byte(s) remain in {directory}"
    )
    return 0


def cmd_schemes(_args: argparse.Namespace) -> int:
    for name in _SCHEMES:
        cfg = scheme_config(name)
        print(
            f"{name:20} placement={cfg.placement:8} pruning={cfg.pruning:8} "
            f"storage={cfg.storage_mode:7} overwrite={cfg.overwrite:5} "
            f"low_opts={cfg.low_opts}"
        )
    return 0


def _apply_backend(args: argparse.Namespace) -> None:
    """Make ``--backend`` the process default, so every ``auto``
    resolution downstream (oracle replays, spawned helpers) follows the
    flag."""
    if args.backend != "auto":
        import os

        from repro.gpusim.backend import BACKEND_ENV_VAR

        os.environ[BACKEND_ENV_VAR] = args.backend


# -- flag groups -------------------------------------------------------------
#
# Each adder declares one group of flags on the subparser it is given.
# Every subcommand gets its own Action objects (argparse ``parents=``
# would share them, so one subcommand's ``set_defaults`` would leak into
# the others); a group whose default differs per subcommand takes it as
# an argument.


def _add_backend_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--backend", default="auto",
        choices=("auto", "scalar", "vector"),
        help="executor engine for any simulation this command performs "
             "(auto picks the vectorized engine; scalar is the "
             "reference interpreter)",
    )


def _add_observe_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--trace-out", default=None, metavar="JSON",
        help="write a Chrome trace-event JSON (chrome://tracing, Perfetto)",
    )
    parser.add_argument(
        "--metrics-out", default=None, metavar="JSONL",
        help="write counters and reports as JSONL metrics records",
    )


def _add_config_flags(
    parser: argparse.ArgumentParser, block: int = 256, grid: int = 4
) -> None:
    """The compile configuration (:func:`_build_config`) and the launch
    shape the storage layout is planned for."""
    parser.add_argument(
        "--scheme", default=SCHEME_PENNY, choices=_SCHEMES,
        help="comparison-scheme preset to start from",
    )
    parser.add_argument(
        "--pruning", choices=("none", "basic", "optimal"), default=None
    )
    parser.add_argument(
        "--storage", choices=("shared", "global", "auto"), default=None
    )
    parser.add_argument(
        "--overwrite", type=Scheme.parse, choices=tuple(Scheme),
        default=None, metavar="{rr,sa,auto,none}",
        help="overwrite-prevention scheme (aliases: renaming, "
             "storage-alternation, off)",
    )
    parser.add_argument("--no-low-opts", action="store_true")
    parser.add_argument(
        "--param-noalias", action="store_true",
        help="assume distinct pointer params never alias (restrict)",
    )
    parser.add_argument(
        "--policy", default=None, metavar="POLICY",
        help="protection policy (full, address-only, "
             "top-k-vulnerable[:K], detection-only, none; "
             "';'-separated region overrides)",
    )
    parser.add_argument("--block", type=int, default=block,
                        help="threads per block")
    parser.add_argument("--grid", type=int, default=grid,
                        help="number of blocks")
    parser.add_argument(
        "--no-strict", action="store_true",
        help="compile through the fallback lattice instead of "
             "raising on pass failure",
    )


def _add_cache_dir_flag(parser: argparse.ArgumentParser, default: str) -> None:
    parser.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help=f"on-disk compile cache directory (default {default})",
    )


def _add_chaos_flags(
    parser: argparse.ArgumentParser, seed: Optional[int]
) -> None:
    parser.add_argument(
        "--chaos", default=None, metavar="SPEC",
        help="chaos plan: comma-separated kind[:p=..][:max=..][:after=..]"
             "[:delay=..] rules (e.g. 'worker.kill:p=0.2:max=3,"
             "cache.corrupt:p=0.5' for serve, 'campaign.worker.kill:"
             "p=0.1:max=3,journal.torn:p=0.05' for campaign), or "
             "@file.json with a saved plan",
    )
    parser.add_argument(
        "--chaos-seed", type=int, default=seed,
        help="seed for the chaos plan's deterministic fault sequence",
    )


def _add_sweep_flags(parser: argparse.ArgumentParser) -> None:
    """Seed, inline-or-pooled workers and JSON output of a sweep."""
    parser.add_argument("--seed", type=int, default=2020)
    parser.add_argument(
        "--workers", type=int, default=1,
        help="worker processes (default 1 = inline)",
    )
    parser.add_argument(
        "--json", action="store_true", help="machine-readable output"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.cli",
        description="Penny: protect PTX-subset kernels against soft errors",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, func, summary in (
        ("compile", cmd_compile, "compile kernels and print protected PTX"),
        ("report", cmd_report,
         "compile kernels and print statistics as JSON"),
        ("verify", cmd_verify,
         "compile kernels and statically verify their recovery metadata"),
    ):
        p = sub.add_parser(name, help=summary)
        if name == "verify":
            p.add_argument(
                "input", nargs="?", default=None,
                help="PTX-subset file, or '-' for stdin "
                     "(omit when using --corpus)",
            )
            p.add_argument(
                "--corpus", default=None, metavar="JSONL",
                help="re-check a fuzz finding corpus instead of compiling "
                     "a file",
            )
            p.add_argument(
                "--strict", action="store_true",
                help="with --corpus: replay findings against a strict "
                     "compiler",
            )
            _add_backend_flag(p)
        else:
            p.add_argument("input", help="PTX-subset file, or '-' for stdin")
        _add_config_flags(p)
        p.add_argument(
            "--jobs", type=int, default=1, metavar="N",
            help="compile a multi-kernel module on N worker processes "
                 "(repro.serve batch driver)",
        )
        _add_cache_dir_flag(p, "none")
        if name == "compile":
            _add_observe_flags(p)
        p.set_defaults(func=func)

    p_schemes = sub.add_parser("schemes", help="list scheme presets")
    p_schemes.set_defaults(func=cmd_schemes)

    p_serve = sub.add_parser(
        "serve",
        help="run the async compile server (JSONL over TCP, bounded "
             "queue, compile cache, graceful SIGTERM drain)",
    )
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument(
        "--port", type=int, default=9779,
        help="TCP port (0 = ephemeral; announced on stderr)",
    )
    p_serve.add_argument(
        "--workers", type=int, default=2,
        help="compile worker processes (default 2)",
    )
    p_serve.add_argument(
        "--queue-limit", type=int, default=8,
        help="max in-flight compile requests before ServerBusy "
             "rejections (default 8)",
    )
    p_serve.add_argument(
        "--request-timeout", type=float, default=120.0,
        help="per-request compile deadline in seconds (default 120)",
    )
    _add_cache_dir_flag(p_serve, "memory-only")
    p_serve.add_argument(
        "--threads", action="store_true",
        help="thread pool instead of process pool (debugging)",
    )
    _add_chaos_flags(p_serve, seed=0)
    _add_observe_flags(p_serve)
    p_serve.set_defaults(func=cmd_serve)

    p_client = sub.add_parser(
        "client",
        help="talk to a running penny serve (retry + backoff + jitter)",
    )
    p_client.add_argument(
        "action",
        choices=("compile", "ping", "health", "stats", "shutdown"),
    )
    p_client.add_argument(
        "input", nargs="?", default=None,
        help="PTX-subset file for 'compile', or '-' for stdin",
    )
    p_client.add_argument("--host", default="127.0.0.1")
    p_client.add_argument("--port", type=int, default=9779)
    p_client.add_argument(
        "--timeout", type=float, default=120.0,
        help="socket timeout per attempt (seconds)",
    )
    p_client.add_argument(
        "--retries", type=int, default=5,
        help="attempts before ServerUnavailable (default 5)",
    )
    p_client.add_argument(
        "--backoff", type=float, default=0.05,
        help="base backoff delay in seconds (doubles per retry, "
             "jittered)",
    )
    _add_config_flags(p_client)
    p_client.add_argument(
        "--json", action="store_true",
        help="print the raw response object(s)",
    )
    p_client.set_defaults(func=cmd_client)

    p_cache = sub.add_parser(
        "cache",
        help="inspect/clear/gc the on-disk compile cache",
    )
    p_cache.add_argument("action", choices=("stats", "clear", "gc"))
    _add_cache_dir_flag(p_cache, "$PENNY_CACHE_DIR or ~/.cache/penny")
    p_cache.add_argument(
        "--max-bytes", type=int, default=None,
        help="gc: evict least-recently-used entries beyond this size",
    )
    p_cache.add_argument(
        "--max-age", type=float, default=None,
        help="gc: drop entries older than this many seconds",
    )
    p_cache.set_defaults(func=cmd_cache)

    p_trace = sub.add_parser(
        "trace",
        help="compile + execute a kernel under a tracer and export a "
             "Chrome trace with a seeded fault recovery",
    )
    p_trace.add_argument("input", help="PTX-subset file, or '-' for stdin")
    _add_config_flags(p_trace, block=16, grid=2)
    p_trace.add_argument(
        "--words", type=int, default=64,
        help="synthesized buffer length / scalar-param value",
    )
    _add_backend_flag(p_trace)
    _add_observe_flags(p_trace)
    p_trace.set_defaults(func=cmd_trace)

    p_lint = sub.add_parser(
        "lint",
        help="run the static analyzer over PTX kernels and render "
             "text/JSONL/SARIF diagnostics",
    )
    p_lint.add_argument(
        "inputs", nargs="*",
        help="PTX-subset files, or '-' for stdin",
    )
    p_lint.add_argument(
        "--bench", action="append", default=[], metavar="ABBR",
        help="lint a registered benchmark kernel ('all' for the suite); "
             "repeatable",
    )
    p_lint.add_argument(
        "--format", choices=("text", "json", "sarif"), default="text",
        help="output format (default text, with source carets)",
    )
    p_lint.add_argument(
        "--out", default=None, metavar="FILE",
        help="write the report to FILE instead of stdout",
    )
    p_lint.add_argument(
        "--rule", action="append", default=None, metavar="ID",
        help="run only this rule (repeatable)",
    )
    p_lint.add_argument(
        "--disable", action="append", default=[], metavar="ID",
        help="skip this rule (repeatable)",
    )
    p_lint.add_argument(
        "--severity", action="append", default=[], metavar="RULE=LEVEL",
        help="override a rule's severity (error|warning|note); repeatable",
    )
    p_lint.add_argument(
        "--fail-on", choices=("error", "warning", "note"), default="error",
        help="exit 1 when any diagnostic is at least this severe "
             "(default error)",
    )
    p_lint.add_argument(
        "--compiled", action="store_true",
        help="also compile each kernel and run the post-compile "
             "(penny-*, ckpt-*) rules",
    )
    p_lint.add_argument(
        "--fixtures", default=None, metavar="DIR",
        help="regression mode: lint DIR/*.ptx against their .expect "
             "goldens",
    )
    p_lint.add_argument(
        "--scheme", default=SCHEME_PENNY, choices=_SCHEMES,
        help="scheme preset for --compiled",
    )
    p_lint.add_argument(
        "--policy", default=None, metavar="POLICY",
        help="protection policy for --compiled (drives the "
             "policy-uncovered-addr rule)",
    )
    p_lint.add_argument("--block", type=int, default=256,
                        help="threads per block for --compiled")
    p_lint.add_argument("--grid", type=int, default=4,
                        help="number of blocks for --compiled")
    _add_observe_flags(p_lint)
    p_lint.set_defaults(func=cmd_lint)

    p_campaign = sub.add_parser(
        "campaign",
        help="run a parallel fault-injection campaign on a benchmark",
    )
    p_campaign.add_argument(
        "--bench", default=None,
        help="benchmark abbreviation (e.g. STC); "
        "required unless --fsck is given",
    )
    p_campaign.add_argument(
        "--fsck", default=None, metavar="JOURNAL",
        help="validate a journal's checksums/schema and print its "
        "reconciliation summary without running anything",
    )
    p_campaign.add_argument(
        "-n", "--injections", type=int, default=200,
        help="number of injections (default 200)",
    )
    _add_sweep_flags(p_campaign)
    p_campaign.add_argument(
        "--scheme", default=SCHEME_PENNY,
        choices=_SCHEMES + ("none",),
        help="protection scheme, or 'none' for an unprotected kernel",
    )
    p_campaign.add_argument(
        "--code", default="parity", choices=("parity", "secded", "none"),
        help="register-file detection code",
    )
    p_campaign.add_argument(
        "--policy", default="full", metavar="POLICY",
        help="protection policy applied to the compiled kernel "
             "(full, address-only, top-k-vulnerable[:K], "
             "detection-only, none)",
    )
    p_campaign.add_argument(
        "--surfaces", default="rf",
        help="comma-separated injection surfaces: rf,ckpt,recovery",
    )
    p_campaign.add_argument(
        "--bits", type=int, default=1, help="flipped bits per RF fault"
    )
    p_campaign.add_argument(
        "--pattern", default="random", choices=("random", "burst")
    )
    p_campaign.add_argument(
        "--journal", default=None,
        help="JSONL journal path (crash-safe, resumable)",
    )
    p_campaign.add_argument(
        "--resume", action="store_true",
        help="resume a killed campaign from its journal",
    )
    p_campaign.add_argument(
        "--watchdog", type=int, default=2_000_000,
        help="per-injection instruction budget per thread",
    )
    p_campaign.add_argument(
        "--max-recoveries", type=int, default=100,
        help="recovery budget per thread before budget_exhausted",
    )
    p_campaign.add_argument(
        "--wall-timeout", type=float, default=None,
        help="wall-clock seconds before a busy worker is declared hung "
        "and reclaimed (default: no deadline)",
    )
    p_campaign.add_argument(
        "--poison-threshold", type=int, default=2,
        help="consecutive worker deaths on one injection before it is "
        "quarantined as a worker_crash DUE (default 2)",
    )
    _add_chaos_flags(p_campaign, seed=None)
    _add_backend_flag(p_campaign)
    _add_observe_flags(p_campaign)
    p_campaign.set_defaults(func=cmd_campaign)

    p_fuzz = sub.add_parser(
        "fuzz",
        help="differential-fuzz the compiler with generated kernels",
    )
    p_fuzz.add_argument(
        "-n", "--iterations", type=int, default=200,
        help="number of fuzz iterations (default 200)",
    )
    _add_sweep_flags(p_fuzz)
    p_fuzz.add_argument(
        "--scheme", default=SCHEME_PENNY, choices=_SCHEMES,
        help="protection scheme under test",
    )
    p_fuzz.add_argument(
        "--strict", action="store_true",
        help="compile strictly (no fallback lattice); pass failures "
             "become findings",
    )
    p_fuzz.add_argument(
        "--mutate-rate", type=float, default=0.3,
        help="fraction of cases passed through the IR mutators",
    )
    p_fuzz.add_argument(
        "--no-fault", action="store_true",
        help="skip the fault-recovery oracle stage",
    )
    p_fuzz.add_argument(
        "--reduce", action="store_true",
        help="ddmin-reduce one representative per finding bucket",
    )
    p_fuzz.add_argument(
        "--journal", default=None,
        help="JSONL finding-corpus path (crash-safe, append-only)",
    )
    p_fuzz.add_argument(
        "--cross-check", action="store_true",
        help="re-run every zero-fault protected execution on the other "
             "backend and flag any divergence as a finding",
    )
    _add_backend_flag(p_fuzz)
    _add_observe_flags(p_fuzz)
    p_fuzz.set_defaults(func=cmd_fuzz)

    from repro.perf.cli import register_perf_parser

    register_perf_parser(sub)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
