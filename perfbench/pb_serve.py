"""The ``serve`` workload: one closed-loop client against ``penny serve``.

The server is a real ``penny serve --workers 1 --cache-dir <tmp>``
subprocess; the client is ``repro.serve.CompileClient`` holding one
connection at a time.  An op is one compile request.

A block is one epoch of ``REQUESTS_PER_EPOCH`` requests over the 72
suite programs: every program once (a miss) plus Zipf-skewed repeats
(hits), drawn and shuffled with the seed.  Each epoch renames the kernels with an
epoch tag, so it starts cold on a warm server: every epoch has the same
hit/miss mix however many fit in a run, and the hit ratio is exactly
``1 - 72 / REQUESTS_PER_EPOCH``.  Hits are 70% of requests, so the
median falls among hits, while misses take most of the time and hold
the tail.

Output checks: every response is ok, its ``cached`` flag is the one the
draw predicts (a program's first request in an epoch misses, repeats
hit), and its kernel text equals the in-process compile of the same
program, up to the epoch tag in the kernel name.
"""

from __future__ import annotations

import os
import random
import re
import signal
import subprocess
import sys
import time
from functools import partial
from pathlib import Path
from typing import Dict, List, Tuple

from repro.core.pipeline import PennyCompiler
from repro.ir.parser import parse_kernel
from repro.ir.printer import print_kernel
from repro.obs import load_chrome_trace
from repro.serve import CompileClient, RetryPolicy, ServeError, wait_until_ready

import pb_common
from pb_common import Block, Op, Side, Workload
from pb_math import Span, fold, merge_folds, predict_cached, scale_fold, self_times

REQUESTS_PER_EPOCH = 240
HOST = "127.0.0.1"
_LISTENING = re.compile(r"listening on [^\s:]+:(\d+)")


def draw(seed: int, programs: int, requests: int) -> List[int]:
    """One epoch's request order over program indices: each program once,
    then ``requests - programs`` repeats drawn with Zipf weights (program
    ``i`` weighs ``1 / (i + 1)``), the whole sequence shuffled.  The
    ranking is fixed so that every seed serves the same expected mix of
    kernel sizes; the seed draws the repeats and the order."""
    rng = random.Random(seed)
    weights = [1.0 / (rank + 1) for rank in range(programs)]
    sequence = list(range(programs)) + rng.choices(
        range(programs), weights=weights, k=requests - programs
    )
    rng.shuffle(sequence)
    return sequence


class Server:
    """A ``penny serve`` subprocess, leader of its own process group."""

    def __init__(self, workdir: Path, tag: str, trace: bool) -> None:
        self.trace_path = workdir / f"trace-{tag}.json" if trace else None
        log_path = workdir / f"serve-{tag}.log"
        cmd = [
            sys.executable, "-m", "repro.cli", "serve",
            "--port", "0", "--workers", "1",
            "--cache-dir", str(workdir / f"cache-{tag}"),
        ]
        if self.trace_path is not None:
            cmd += ["--trace-out", str(self.trace_path)]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(pb_common.ROOT / "src"), env.get("PYTHONPATH")) if p
        )
        with open(log_path, "wb") as log_file:
            self.proc = subprocess.Popen(
                cmd,
                cwd=pb_common.ROOT,
                env=env,
                stdin=subprocess.DEVNULL,
                stdout=subprocess.DEVNULL,
                stderr=log_file,
                start_new_session=True,
            )
        try:
            port = self._await_port(log_path)
            if not wait_until_ready(HOST, port, timeout=60.0):
                raise RuntimeError("penny serve did not answer ping")
        except BaseException:
            self.kill()
            raise
        self.client = CompileClient(
            host=HOST, port=port, timeout=120.0, retry=RetryPolicy(attempts=1)
        )

    def _await_port(self, log_path: Path) -> int:
        deadline = time.monotonic() + 60.0
        while time.monotonic() < deadline:
            match = _LISTENING.search(log_path.read_text(errors="replace"))
            if match:
                return int(match.group(1))
            if self.proc.poll() is not None:
                raise RuntimeError(
                    "penny serve exited: " + log_path.read_text(errors="replace")
                )
            time.sleep(0.02)
        raise RuntimeError("penny serve did not announce its port")

    def stop(self) -> None:
        """Drain through the ``shutdown`` op and wait for the whole group."""
        try:
            self.client.shutdown()
            self.proc.wait(timeout=60.0)
        except (ServeError, subprocess.TimeoutExpired):
            pass
        self.kill()

    def kill(self) -> None:
        """SIGKILL whatever is left of the process group and wait until
        every member has ended."""
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.proc.wait()
        deadline = time.monotonic() + 10.0
        while _group_alive(self.proc.pid) and time.monotonic() < deadline:
            time.sleep(0.02)


def _group_alive(pgid: int) -> bool:
    """Whether any process of group ``pgid`` is still running."""
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as f:
                fields = f.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[2]) == pgid and fields[0] != "Z":
            return True
    return False


class ServeWorkload(Workload):
    name = "serve"
    # an epoch takes ~4.3 reference seconds: four per 20-s run
    block_seconds = 5.0
    min_blocks = 1
    interrupt = False  # the client waits on the server's processes

    def __init__(self, seed: int, workdir: Path) -> None:
        super().__init__(seed, workdir)
        self.servers: Dict[bool, Server] = {}
        self._requests = 0
        self._by_request = None

    def setup(self, trace: bool = False) -> None:
        self.programs = pb_common.suite_programs()
        self._kernels = {p.bench.abbr: print_kernel(p.kernel) for p in self.programs}
        self._configs = [p.config.to_dict() for p in self.programs]
        self._launches = [
            {
                "threads_per_block": p.workload.launch_config.threads_per_block,
                "num_blocks": p.workload.launch_config.num_blocks,
            }
            for p in self.programs
        ]
        self.sequence = draw(self.seed, len(self.programs), REQUESTS_PER_EPOCH)
        self.predicted = predict_cached(self.sequence)
        # The client, the server and its worker share one CPU, so that the
        # speed the client samples between requests is the speed of the CPU
        # the request ran on.  Unpinned, the spread of latency_p50_ms over
        # ten runs was 0.18.
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
        for traced in (False, True) if trace else (False,):
            server = Server(self.workdir, "traced" if traced else "plain", traced)
            self.servers[traced] = server
            # warm-up op: one compile, so the worker's lazy imports are set-up
            response = server.client.compile(
                pb_common.WARMUP_PTX.read_text(), scheme="Penny", name="warm-up"
            )
            if response.get("cached"):
                raise RuntimeError("warm-up request hit a cold cache")

    @staticmethod
    def _tag(name: str, epoch: int) -> str:
        return f"{name}__e{epoch}"

    def block(self, index: int, traced: bool) -> Block:
        epoch = 2 * index + int(traced)
        texts = {}
        for abbr, text in self._kernels.items():
            kernel = parse_kernel(text)
            kernel.name = self._tag(kernel.name, epoch)
            texts[abbr] = print_kernel(kernel)
        client = self.servers[traced].client
        ops = []
        for position, i in enumerate(self.sequence):
            meta = (i, epoch, position, f"r{self._requests}")
            self._requests += 1
            ptx = texts[self.programs[i].bench.abbr]
            ops.append((partial(self._request, client, ptx, meta), 1))
        return ops

    def _request(self, client: CompileClient, ptx: str, meta: tuple):
        i, rid = meta[0], meta[3]
        return meta, client.compile(
            ptx, config=self._configs[i], launch=self._launches[i], name=rid
        )

    def digest(self, op: Op) -> None:
        (i, epoch, position, rid), response = op.info
        op.info = {
            "program": i,
            "epoch": epoch,
            "rid": rid,
            "cached": bool(response.get("cached")),
            "seconds": float(response["seconds"]),
            "kernel": response["kernel"],
        }
        if op.info["cached"] != self.predicted[position]:
            op.error = (
                f"{self.programs[i].id}: cached={op.info['cached']}, "
                f"the draw predicts {self.predicted[position]}"
            )

    def finish(self, sides: Dict[bool, Side]) -> List[str]:
        problems: List[str] = []
        self.server_stats = {}
        for traced, server in self.servers.items():
            self.server_stats[traced] = server.client.stats()
        for server in self.servers.values():
            server.stop()
        for name, value in self.runtime_counters().items():
            if value:
                problems.append(f"{name} = {value}, expected 0")

        self.reference: List[Tuple[str, float]] = []
        self._results = []
        for p in self.programs:
            result, seconds = pb_common.scaled_call(
                lambda: PennyCompiler(p.config).compile(p.kernel, p.workload.launch_config)
            )
            problems += self.fig9.check(p, result.kernel, result.stats)
            self.reference.append((print_kernel(result.kernel), seconds))
            self._results.append(result)
        for side in sides.values():
            for op in side.ops:
                if op.error is None:
                    info = op.info
                    name = self.programs[info["program"]].kernel.name
                    served = info["kernel"].replace(self._tag(name, info["epoch"]), name)
                    if served != self.reference[info["program"]][0]:
                        op.error = f"{self.programs[info['program']].id}: served kernel differs from the in-process compile"
                if problems and op.error is None:
                    op.error = "; ".join(problems)
        return problems

    def runtime_counters(self) -> Dict[str, int]:
        """Failure counters from the ``stats`` op, summed over servers."""
        out = {
            "runtime.restarts": 0,
            "runtime.crashes": 0,
            "serve.busy_rejections": 0,
            "serve.timeouts": 0,
            "cache.store_errors": 0,
        }
        for stats in self.server_stats.values():
            out["runtime.restarts"] += stats["pool"]["restarts"]
            out["runtime.crashes"] += stats["pool"]["crashes"]
            out["serve.busy_rejections"] += stats["server"]["busy_rejections"]
            out["serve.timeouts"] += stats["server"]["timeouts"]
            out["cache.store_errors"] += stats["cache"]["stats"]["store_errors"]
        return out

    def counts(self) -> Dict[str, int]:
        """The hit/miss mix of one epoch: exact for the seed."""
        hits = sum(self.predicted)
        return {"requests": len(self.predicted), "hits": hits, "misses": len(self.predicted) - hits}

    def rss_mb(self) -> float:
        """The server and its worker, while they still run."""
        return pb_common.proc_tree_hwm_mb(self.servers[False].proc.pid)

    def layer_programs(self):
        return list(zip(self.programs, self._results))

    def trace(self, sides: Dict[bool, Side]):
        """The traced server's spans, plus a traced in-process compile of
        every program for the pass breakdown (the worker has no tracer)."""
        ops = [
            pb_common.scaled_op(
                lambda p=p: PennyCompiler(p.config).compile(p.kernel, p.workload.launch_config),
                True,
            )
            for p in self.programs
        ]
        folded, counters = pb_common.traced_ops_trace({True: Side(ops=ops)})
        return merge_folds([folded, self._served_fold(sides)]), counters

    def _served_fold(self, sides: Dict[bool, Side]):
        """The traced server's spans of every good traced request, folded,
        each scaled as the client's request was."""
        by_request = self._server_spans()
        return merge_folds(
            scale_fold(fold(by_request.get(op.info["rid"], [])), op.scale)
            for op in sides[True].ops
            if op.error is None
        )

    def _server_spans(self) -> Dict[str, List[Span]]:
        """The traced server's spans, grouped by the request they serve."""
        if self._by_request is not None:
            return self._by_request
        events = [
            e
            for e in load_chrome_trace(str(self.servers[True].trace_path))["traceEvents"]
            if e.get("ph") == "X"
        ]
        spans = {
            e["args"]["span_id"]: Span(
                e["args"]["span_id"],
                e["args"].get("parent_id"),
                e["name"],
                e["ts"] / 1e6,
                (e["ts"] + e["dur"]) / 1e6,
            )
            for e in events
        }
        jobs = {e["args"]["span_id"]: e["args"].get("job") for e in events if e["name"] == "serve.request"}

        def request_of(span: Span):
            while span is not None and span.name != "serve.request":
                span = spans.get(span.parent_id)
            return jobs[span.span_id] if span is not None else None

        by_request: Dict[str, List[Span]] = {}
        for span in spans.values():
            rid = request_of(span)
            if rid is not None:
                by_request.setdefault(rid, []).append(span)
        self._by_request = by_request
        return by_request

    def layer_metrics(self, sides: Dict[bool, Side]) -> Dict[str, Tuple[float, str]]:
        plain = [op for op in sides[False].ops if op.error is None]
        hits = [op.seconds for op in plain if op.info["cached"]]
        misses = [op for op in plain if not op.info["cached"]]
        out = {
            "serve.hit_ms": (1e3 * sum(hits) / len(hits), "ms"),
            "serve.miss_ms": (1e3 * sum(op.seconds for op in misses) / len(misses), "ms"),
            "serve.wire_ms": (
                1e3
                * sum((op.wall - op.info["seconds"]) * op.scale for op in plain)
                / len(plain),
                "ms",
            ),
            "serve.miss_overhead_ms": (
                1e3
                * sum(op.seconds - self.reference[op.info["program"]][1] for op in misses)
                / len(misses),
                "ms",
            ),
            "serve.hit_ratio": (len(hits) / len(plain), "ratio"),
        }
        by_request = self._server_spans()
        traced = [op for op in sides[True].ops if op.error is None]
        folded = self._served_fold(sides)

        def per_call(name: str) -> float:
            f = folded.get(name)
            return 1e3 * f.self_time / f.count if f else 0.0

        out["serve.request_self_ms"] = (per_call("serve.request"), "ms")
        out["cache.lookup_ms"] = (per_call("cache.lookup"), "ms")
        out["cache.store_ms"] = (per_call("cache.store"), "ms")
        # client latency = server spans + wire; the rest is unattributed
        unattributed = [
            (
                op.info["seconds"]
                - sum(self_times(by_request.get(op.info["rid"], [])).values())
            )
            / op.wall
            for op in traced
        ]
        out["obs.unattributed_pct"] = (100.0 * sum(unattributed) / len(unattributed), "%")
        out.update({k: (float(v), "count") for k, v in self.runtime_counters().items()})
        return out

    def close(self) -> None:
        for server in self.servers.values():
            server.kill()


def serve(seed: int, workdir: Path) -> ServeWorkload:
    return ServeWorkload(seed, workdir)
