"""The compile workloads: ``compile_suite`` and ``compile_nqu``.

An op is one ``PennyCompiler.compile``.  A block is one round over the
workload's programs in an order drawn from the seed.  Output checks run
after the timed phase: ``verify_compiled`` finds no violation, the
fault-free simulated output equals the unprotected kernel's, and the
printed kernel is identical in every round.  Until then each program's
first result is kept pickled: bytes are not traced by the garbage
collector, so the kept results do not lengthen the collections that
land inside measured compiles.
"""

from __future__ import annotations

import pickle
import random
from typing import Dict, List, Tuple

from repro.core.pipeline import CompileResult, PennyCompiler
from repro.ir.printer import print_kernel

import pb_common
from pb_common import Block, Op, Side, Workload


class CompileWorkload(Workload):
    def __init__(self, name: str, seed: int, workdir, block_seconds: float, min_blocks: int, abbrs=None) -> None:
        super().__init__(seed, workdir)
        self.name = name
        self.block_seconds = block_seconds
        self.min_blocks = min_blocks
        self._abbrs = abbrs
        self._results: Dict[int, bytes] = {}
        self._texts: Dict[int, str] = {}

    def setup(self, trace: bool = False) -> None:
        self.programs = pb_common.suite_programs(self._abbrs)
        self._compilers = [PennyCompiler(p.config) for p in self.programs]
        self._rng = random.Random(self.seed)
        pb_common.warm_up()

    def block(self, index: int, traced: bool) -> Block:
        order = list(range(len(self.programs)))
        self._rng.shuffle(order)
        return [(lambda i=i: (i, self._compile(i)), 1) for i in order]

    def _compile(self, i: int) -> CompileResult:
        p = self.programs[i]
        return self._compilers[i].compile(p.kernel, p.workload.launch_config)

    def digest(self, op: Op) -> None:
        i, result = op.info
        op.info = i
        text = print_kernel(result.kernel)
        if i not in self._texts:
            self._texts[i] = text
            self._results[i] = pickle.dumps(result)
        elif text != self._texts[i]:
            op.error = f"{self.programs[i].id}: printed kernel differs between rounds"

    def finish(self, sides: Dict[bool, Side]) -> List[str]:
        """Post-run checks; fails every op of a program that fails one."""
        bad: Dict[int, str] = {}
        for i, result in self.results():
            problems = self.fig9.check(self.programs[i], result.kernel, result.stats)
            if problems:
                bad[i] = "; ".join(problems)
        for side in sides.values():
            for op in side.ops:
                if op.error is None and op.info in bad:
                    op.error = bad[op.info]
        return list(bad.values())

    def results(self) -> List[Tuple[int, CompileResult]]:
        """Each program's first compile result, by program index."""
        return [(i, pickle.loads(data)) for i, data in sorted(self._results.items())]

    def layer_programs(self):
        return [(self.programs[i], r) for i, r in self.results()]


def compile_suite(seed: int, workdir) -> CompileWorkload:
    # a round of 72 compiles takes ~2.2 reference seconds; ten rounds per 20-s run
    return CompileWorkload("compile_suite", seed, workdir, 2.0, 1)


def compile_nqu(seed: int, workdir) -> CompileWorkload:
    # one NQU compile takes ~12 reference seconds; two make a median
    return CompileWorkload("compile_nqu", seed, workdir, 11.0, 2, abbrs=[pb_common.NQU])
