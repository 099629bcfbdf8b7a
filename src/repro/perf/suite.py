"""The benchmark registry: every hot path as a repeatable measurement.

Each registered benchmark wraps one of the system's performance-claimed
paths — compile pipeline, scalar-vs-vector executor throughput, compile
cache cold/warm lookup, batch-driver scaling, tracer disabled-path
overhead, fault-campaign injections — and produces a schema-v2 :class:`repro.perf.schema.BenchResult`
(per-rep samples, CIs, environment fingerprint) via the repeater.

``penny perf list`` prints this registry; ``penny perf run NAME`` runs
an entry; the committed ``BENCH_<area>.json`` at the repo root is its
trajectory point.  Register new benchmarks with :func:`register`::

    @register("mybench", area="mybench", description="...", fast=True)
    def _bench_mybench(config, options):
        rep = repeat(body, config)
        return {"series": {"work": ("s", rep)}, "primary": "work"}

The function returns the measured series (name -> (unit,
:class:`RepeatResult`)), which series gates comparisons, and optional
derived ``metrics``; :func:`run_bench` wraps that in provenance
(fingerprint, repeat config, ``perf.bench`` span) and builds the
result.  Benchmarks marked ``fast=True`` form the CI ``perf-gate``
subset.
"""

from __future__ import annotations

import shutil
import tempfile
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

from repro import obs
from repro.perf.env import environment_fingerprint
from repro.perf.repeat import RepeatConfig, RepeatResult, repeat
from repro.perf.schema import BenchResult, Series

__all__ = [
    "BenchSpec",
    "register",
    "list_benches",
    "get_bench",
    "run_bench",
    "fast_bench_names",
    "build_alu_kernel",
]

BenchFn = Callable[[RepeatConfig, Dict[str, Any]], Dict[str, Any]]


@dataclass(frozen=True)
class BenchSpec:
    """One registry entry."""

    name: str
    area: str
    description: str
    fn: BenchFn
    fast: bool = False  # cheap enough for the CI perf-gate subset
    options: Mapping[str, Any] = field(default_factory=dict)


_REGISTRY: Dict[str, BenchSpec] = {}


def register(
    name: str,
    *,
    area: str,
    description: str,
    fast: bool = False,
    options: Optional[Mapping[str, Any]] = None,
):
    def deco(fn: BenchFn) -> BenchFn:
        if name in _REGISTRY:
            raise ValueError(f"benchmark {name!r} already registered")
        _REGISTRY[name] = BenchSpec(
            name=name,
            area=area,
            description=description,
            fn=fn,
            fast=fast,
            options=dict(options or {}),
        )
        return fn

    return deco


def list_benches() -> List[BenchSpec]:
    return [_REGISTRY[name] for name in sorted(_REGISTRY)]


def fast_bench_names() -> List[str]:
    return [s.name for s in list_benches() if s.fast]


def get_bench(name: str) -> BenchSpec:
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise KeyError(
            f"unknown benchmark {name!r} (known: {known})"
        ) from None


def run_bench(
    name: str,
    config: Optional[RepeatConfig] = None,
    options: Optional[Mapping[str, Any]] = None,
) -> BenchResult:
    """Run one registered benchmark and wrap it in provenance."""
    spec = get_bench(name)
    cfg = config or RepeatConfig()
    opts = dict(spec.options)
    opts.update(options or {})
    wall_start = time.perf_counter()
    with obs.span("perf.bench", benchmark=name, area=spec.area):
        out = spec.fn(cfg, opts)
    obs.inc("perf.benches")
    series: Dict[str, Series] = {}
    for sname, (unit, rep) in out["series"].items():
        if isinstance(rep, RepeatResult):
            series[sname] = Series.from_repeat(sname, unit, rep)
        else:
            series[sname] = rep
    return BenchResult(
        benchmark=name,
        area=spec.area,
        primary=out["primary"],
        series=series,
        metrics=dict(out.get("metrics", {})),
        environment=environment_fingerprint(),
        repeat_config=cfg.to_dict(),
        wall_seconds=time.perf_counter() - wall_start,
    )


# -- shared workload helpers ------------------------------------------------------


def build_alu_kernel(iters: int = 12, ops_per_iter: int = 18):
    """The ALU-heavy grid-stride kernel both executor engines chew on:
    ``ops_per_iter`` dependent integer ops per loop trip, the shape
    fault-injection campaigns spend their cycles in."""
    from repro.ir import KernelBuilder

    b = KernelBuilder("alu_burn", params=[("A", "ptr"), ("n", "u32")])
    tid = b.special_u32("%tid.x")
    ntid = b.special_u32("%ntid.x")
    ctaid = b.special_u32("%ctaid.x")
    a = b.ld_param("A")
    n = b.ld_param("n")
    gtid = b.mad(ctaid, ntid, tid)
    off = b.shl(b.rem(gtid, n), 2)
    addr = b.add(a, off)
    acc = b.ld("global", addr, dtype="u32")
    i = b.mov(0, dst=b.reg("u32", "%i"))
    b.label("HEAD")
    p = b.setp("ge", i, iters)
    b.bra("EXIT", pred=p)
    cur = acc
    for _ in range(ops_per_iter // 6):
        cur = b.add(cur, 0x9E37)
        cur = b.xor(cur, b.shl(cur, 1))
        cur = b.mul(cur, 3)
        cur = b.and_(cur, 0xFFFFFF)
        cur = b.or_(cur, 1)
        cur = b.sub(cur, gtid)
    b.add(acc, cur, dst=acc)
    b.add(i, 1, dst=i)
    b.bra("HEAD")
    b.label("EXIT")
    b.st("global", addr, acc)
    b.ret()
    return b.finish()


def _alu_memory(n: int):
    from repro.gpusim import MemoryImage

    mem = MemoryImage()
    buf = mem.alloc_global(n)
    mem.upload(buf, range(1, n + 1))
    mem.set_param("A", buf)
    mem.set_param("n", n)
    return mem


# -- the benchmarks ---------------------------------------------------------------


@register(
    "selftest",
    area="selftest",
    description="harness self-check: a deterministic pure-Python "
    "workload (useful for A/A gate demonstrations)",
    fast=True,
    options={"n": 60_000},
)
def _bench_selftest(config, options):
    n = int(options["n"])

    def body():
        total = 0
        for i in range(n):
            total += i * i
        return total

    rep = repeat(body, config)
    return {"series": {"work": ("s", rep)}, "primary": "work"}


@register(
    "executor",
    area="executor",
    description="scalar-vs-vector executor throughput on the ALU-burn "
    "grid-stride kernel (primary: vector run seconds)",
    options={"threads": 256, "blocks": 2, "iters": 12, "words": 512},
)
def _bench_executor(config, options):
    from repro.gpusim import Launch, make_executor

    kernel = build_alu_kernel(iters=int(options["iters"]))
    launch = Launch(
        grid=int(options["blocks"]), block=int(options["threads"])
    )
    words = int(options["words"])

    # The benchmark is only meaningful if the engines agree.
    ref_mem, alt_mem = _alu_memory(words), _alu_memory(words)
    ref = make_executor(kernel, backend="scalar").run(launch, ref_mem)
    alt = make_executor(kernel, backend="vector").run(launch, alt_mem)
    if ref != alt or ref_mem.snapshot_global() != alt_mem.snapshot_global():
        raise RuntimeError(
            "executor bench: scalar and vector engines disagree"
        )

    def run_on(backend):
        def body():
            mem = _alu_memory(words)
            ex = make_executor(kernel, backend=backend)
            start = time.perf_counter()
            ex.run(launch, mem)
            return time.perf_counter() - start

        return body

    vec = repeat(run_on("vector"), config, self_timed=True)
    sca = repeat(run_on("scalar"), config, self_timed=True)
    instructions = ref.instructions
    return {
        "series": {"vector": ("s", vec), "scalar": ("s", sca)},
        "primary": "vector",
        "metrics": {
            "dynamic_instructions": instructions,
            "scalar_instructions_per_sec": round(
                instructions / sca.summary.median
            ),
            "vector_instructions_per_sec": round(
                instructions / vec.summary.median
            ),
            "speedup": round(
                sca.summary.median / vec.summary.median, 2
            ),
            "threads_per_block": int(options["threads"]),
            "blocks": int(options["blocks"]),
        },
    }


@register(
    "compile",
    area="compile",
    description="full Penny pipeline compile of a registered benchmark "
    "kernel (options: bench=STC scheme=Penny policy=)",
    fast=True,
    options={"bench": "STC", "scheme": None, "policy": None},
)
def _bench_compile(config, options):
    from repro.bench import get_benchmark
    from repro.core import PennyCompiler, SCHEME_PENNY, scheme_config

    bench = get_benchmark(str(options["bench"]))
    launch = bench.workload().launch_config
    scheme = options.get("scheme") or SCHEME_PENNY
    last_result = {}

    def body():
        # Kernel construction is setup, not compilation: self-timed.
        kernel = bench.fresh_kernel()
        cfg = scheme_config(scheme)
        if options.get("policy"):
            cfg.policy = str(options["policy"])
        compiler = PennyCompiler(cfg)
        start = time.perf_counter()
        result = compiler.compile(kernel, launch)
        elapsed = time.perf_counter() - start
        last_result["stats"] = result.stats
        return elapsed

    rep = repeat(body, config, self_timed=True)
    stats = last_result.get("stats", {})
    return {
        "series": {"compile": ("s", rep)},
        "primary": "compile",
        "metrics": {
            "bench": str(options["bench"]),
            "scheme": str(scheme),
            "policy": options.get("policy") or "full",
            "checkpoints_total": stats.get("checkpoints_total"),
        },
    }


@register(
    "campaign",
    area="campaign",
    description="fault-campaign throughput: one seeded inline campaign "
    "(STC, Penny, rf surface, single-bit parity faults), compile and "
    "golden run included (primary: seconds per injection)",
    fast=True,
    options={"bench": "STC", "injections": 24, "seed": 2020},
)
def _bench_campaign(config, options):
    from repro.core import SCHEME_PENNY
    from repro.gpusim.campaign import CampaignSpec, run_campaign

    spec = CampaignSpec(
        benchmark=str(options["bench"]),
        scheme=SCHEME_PENNY,
        rf_code="parity",
        num_injections=int(options["injections"]),
        seed=int(options["seed"]),
        surfaces=("rf",),
        bits_per_fault=1,
        backend="vector",
    )
    summary = {}

    def body():
        start = time.perf_counter()
        report = run_campaign(spec)
        elapsed = time.perf_counter() - start
        summary.update(report.summary())
        return elapsed / spec.num_injections

    rep = repeat(body, config, self_timed=True)
    # The benchmark is only meaningful if the Appendix-A property holds.
    if summary["sdc"] or summary["due"]:
        raise RuntimeError(
            f"campaign bench: single-bit RF faults under Penny gave {summary}"
        )
    return {
        "series": {"injection": ("s/injection", rep)},
        "primary": "injection",
        "metrics": {
            "bench": spec.benchmark,
            "injections": spec.num_injections,
            "injections_per_s": round(1.0 / rep.summary.median, 2),
            **{f"outcome_{k}": n for k, n in sorted(summary.items())},
        },
    }


@register(
    "cache",
    area="cache",
    description="compile-cache lookup latency: warm memory-tier hits "
    "vs cold misses (per-lookup seconds)",
    fast=True,
    options={"keys": 64, "sweeps": 10, "payload_bytes": 512},
)
def _bench_cache(config, options):
    from repro.serve.cache import CompileCache
    from repro.serve.key import CacheKey

    n_keys = int(options["keys"])
    sweeps = int(options["sweeps"])
    payload = {"value": 42, "blob": "x" * int(options["payload_bytes"])}
    tmpdir = tempfile.mkdtemp(prefix="penny-perf-cache-")
    try:
        cache = CompileCache(directory=tmpdir)
        hot = [
            CacheKey(
                ptx_sha=f"ptx-{i}", config_sha=f"cfg-{i}", code_sha="code"
            )
            for i in range(n_keys)
        ]
        cold = [
            CacheKey(
                ptx_sha=f"absent-{i}", config_sha=f"cfg-{i}",
                code_sha="code",
            )
            for i in range(n_keys)
        ]
        for key in hot:
            cache.put(key, payload)

        def sweep_over(keys):
            def body():
                start = time.perf_counter()
                for _ in range(sweeps):
                    for key in keys:
                        cache.get(key)
                elapsed = time.perf_counter() - start
                return elapsed / (sweeps * len(keys))

            return body

        warm = repeat(sweep_over(hot), config, self_timed=True)
        miss = repeat(sweep_over(cold), config, self_timed=True)
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)
    return {
        "series": {
            "warm_hit": ("s/lookup", warm),
            "cold_miss": ("s/lookup", miss),
        },
        "primary": "warm_hit",
        "metrics": {
            "keys": n_keys,
            "warm_hit_us": round(warm.summary.median * 1e6, 3),
            "cold_miss_us": round(miss.summary.median * 1e6, 3),
        },
    }


@register(
    "batch",
    area="batch",
    description="process-pool batch-driver scaling: the same compile "
    "corpus on 1 vs N workers (options: workers=2 benches=BFS,HS,NW)",
    options={"workers": 2, "benches": "BFS,HS,NW,SRAD"},
)
def _bench_batch(config, options):
    from repro.bench import get_benchmark
    from repro.core import SCHEME_PENNY, scheme_config
    from repro.ir.printer import print_kernel
    from repro.serve.batch import CompileJob, compile_batch

    abbrs = [
        a.strip() for a in str(options["benches"]).split(",") if a.strip()
    ]
    workers = int(options["workers"])
    penny = scheme_config(SCHEME_PENNY)
    jobs = []
    for abbr in abbrs:
        bench = get_benchmark(abbr)
        jobs.append(
            CompileJob(
                ptx=print_kernel(bench.fresh_kernel()),
                config=penny,
                launch=bench.workload().launch_config,
                name=abbr,
            )
        )

    def run_with(n):
        def body():
            report = compile_batch(jobs, workers=n)
            if report.failures:
                raise RuntimeError(
                    f"batch bench: {len(report.failures)} job(s) failed"
                )
            return report.wall_seconds

        return body

    multi = repeat(run_with(workers), config, self_timed=True)
    serial = repeat(run_with(1), config, self_timed=True)
    return {
        "series": {
            f"workers{workers}": ("s", multi),
            "workers1": ("s", serial),
        },
        "primary": f"workers{workers}",
        "metrics": {
            "jobs": len(jobs),
            "workers": workers,
            "scaling": round(
                serial.summary.median / multi.summary.median, 2
            ),
        },
    }


@register(
    "tracer",
    area="tracer",
    description="obs tracer disabled-path overhead: an instrumented "
    "workload with no tracer installed vs the same loop "
    "uninstrumented (the '<2% disabled overhead' claim, measured)",
    fast=True,
    options={"chunks": 64, "chunk": 2000},
)
def _bench_tracer(config, options):
    chunks = int(options["chunks"])
    chunk = int(options["chunk"])

    def instrumented():
        total = 0
        for _ in range(chunks):
            with obs.span("perf.site"):
                for i in range(chunk):
                    total += i * i
            obs.inc("perf.site_visits")
        return total

    def plain():
        total = 0
        for _ in range(chunks):
            for i in range(chunk):
                total += i * i
        return total

    if obs.current_tracer() is not None:
        # The *disabled* path is the claim under test; an installed
        # tracer would measure the enabled path instead.  Run the
        # series in a fresh context with no tracer.
        import contextvars

        ctx = contextvars.Context()
        disabled = ctx.run(repeat, instrumented, config)
    else:
        disabled = repeat(instrumented, config)
    baseline = repeat(plain, config)
    overhead = (
        disabled.summary.median / baseline.summary.median - 1.0
    )
    return {
        "series": {
            "instrumented_untraced": ("s", disabled),
            "plain": ("s", baseline),
        },
        "primary": "instrumented_untraced",
        "metrics": {
            "instrumented_sites": chunks,
            "disabled_overhead_rel": round(overhead, 6),
        },
    }
