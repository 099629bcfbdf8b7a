"""The ``campaign`` workload: a sweep of Appendix-A fault campaigns.

An op is one ``ParallelCampaign(spec, workers=1).run()`` in the shape
``penny campaign`` defaults to: full Penny, the ``rf`` surface,
single-bit faults, parity.  A block runs the Appendix-A cells (one per
app, two for BO, each with a campaign seed drawn from the workload
seed) in a seeded order.  Every block re-runs the same cells, so the
outcome counts of a run are exact for its seed however many blocks fit.

Injections per cell are sized so that every cell but BO costs about the
same (~0.45 reference s): the median then falls inside one cluster of
similar ops.  BO's golden run alone takes longer, so its
single-injection cells form the top cluster.  With two per block, the
tail (the eleventh-slowest op of six blocks) falls inside that cluster
too, and not on the slow edge of the main one, where it moved with the
cost of each seed's slowest cells.
"""

from __future__ import annotations

import random
from typing import Dict, List, Tuple

from repro.bench import get_benchmark
from repro.core.pipeline import PennyCompiler
from repro.core.schemes import SCHEME_PENNY, scheme_config
from repro.gpusim.campaign import CampaignReport, CampaignSpec, ParallelCampaign

import pb_common
from pb_common import Block, Op, Side, Workload

#: Appendix-A cells of a block: (app, injections)
CELLS = (("STC", 7), ("BO", 1), ("BO", 1), ("FW", 10), ("GAU", 9), ("NW", 5), ("TPACF", 1))


def _spec(app: str, injections: int, seed: int) -> CampaignSpec:
    return CampaignSpec(
        benchmark=app,
        scheme=SCHEME_PENNY,
        rf_code="parity",
        num_injections=injections,
        seed=seed,
        surfaces=("rf",),
        bits_per_fault=1,
    )


def _signature(report: CampaignReport):
    return [
        (r.index, r.outcome, r.recoveries, r.instructions) for r in report.records
    ]


class CampaignWorkload(Workload):
    name = "campaign"
    block_seconds = 3.5  # reference seconds of a block's seven cells
    min_blocks = 2

    def __init__(self, seed: int, workdir) -> None:
        super().__init__(seed, workdir)
        self.reports: Dict[int, CampaignReport] = {}

    def setup(self, trace: bool = False) -> None:
        rng = random.Random(self.seed)
        self.specs = [_spec(app, n, rng.randrange(2**31)) for app, n in CELLS]
        self._order = random.Random(self.seed + 1)
        # warm-up op: a one-injection campaign outside the measured set
        ParallelCampaign(_spec("STC", 1, self.seed), workers=1).run()

    def block(self, index: int, traced: bool) -> Block:
        order = list(range(len(self.specs)))
        self._order.shuffle(order)
        return [
            (
                lambda i=i: (i, ParallelCampaign(self.specs[i], workers=1).run()),
                self.specs[i].num_injections,
            )
            for i in order
        ]

    def digest(self, op: Op) -> None:
        i, report = op.info
        op.info = i
        cell = self.specs[i].benchmark
        recon = report.reconciliation()
        summary = report.summary()
        if report.interrupted or not recon["complete"]:
            op.error = f"{cell}: campaign did not reconcile: {recon}"
        elif summary["sdc"] or summary["due"]:
            op.error = f"{cell}: single-bit RF faults under full Penny gave {summary}"
        elif i not in self.reports:
            self.reports[i] = report
        elif _signature(report) != _signature(self.reports[i]):
            op.error = f"{cell}: records differ between runs of one cell"

    def finish(self, sides: Dict[bool, Side]) -> List[str]:
        """Checks and Fig. 9 numbers of the kernels the campaigns protect."""
        problems: List[str] = []
        self._programs = []
        for app in dict.fromkeys(app for app, _ in CELLS):
            bench = get_benchmark(app)
            program = pb_common.Program(
                bench, "penny", scheme_config(SCHEME_PENNY), bench.fresh_kernel(), bench.workload()
            )
            result = PennyCompiler(program.config).compile(
                program.kernel, program.workload.launch_config
            )
            problems += self.fig9.check(program, result.kernel, result.stats)
            self._programs.append((program, result))
        if problems:
            for side in sides.values():
                for op in side.ops:
                    op.error = op.error or "; ".join(problems)
        return problems

    def counts(self) -> Dict[str, int]:
        """Outcome counts of one block: exact for the seed."""
        out = {"injections": 0}
        for report in self.reports.values():
            out["injections"] += len(report.records)
            for outcome, n in report.summary().items():
                out[outcome] = out.get(outcome, 0) + n
        return out

    def layer_programs(self):
        return self._programs

    def layer_metrics(self, sides: Dict[bool, Side]) -> Dict[str, Tuple[float, str]]:
        """Campaign phases from the traced ops, outcomes from the records."""
        traced = [op for op in sides[True].ops if op.error is None]
        folded, _ = self.trace(sides)

        def inclusive(name: str) -> float:
            return folded[name].inclusive if name in folded else 0.0

        injections = sum(op.units for op in traced)
        inject_s = inclusive("campaign.run") - inclusive("compile") - inclusive("sim.run")
        records = [
            r for op in traced for r in self.reports[op.info].records
        ]
        outcomes = [r.outcome for r in records]
        n = len(records)
        return {
            "campaign.compile_ms": (1e3 * inclusive("compile") / len(traced), "ms"),
            "campaign.golden_ms": (1e3 * inclusive("sim.run") / len(traced), "ms"),
            "campaign.inject_ms": (1e3 * inject_s / injections, "ms"),
            "gpusim.sim_kinst_per_s": (
                sum(r.instructions for r in records) / 1e3 / inject_s,
                "1/s",
            ),
            "gpusim.recoveries_per_inj": (sum(r.recoveries for r in records) / n, "count"),
            "campaign.masked_share": (outcomes.count("masked") / n, "ratio"),
            "campaign.recovered_share": (outcomes.count("recovered") / n, "ratio"),
        }


def campaign(seed: int, workdir) -> CampaignWorkload:
    return CampaignWorkload(seed, workdir)
