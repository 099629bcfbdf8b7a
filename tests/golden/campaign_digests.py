"""Golden fault-campaign record digests.

``campaign_digests.json`` maps every campaign
``<bench>/<config>/<backend>@<seed>`` to the SHA-256 of its records'
``InjectionRecord.to_json()`` lines in index order, and to the report's
``summary()`` in clear text.  Each of the 25 benchmarks runs
:data:`INJECTIONS` injections on the vector backend under every entry of
:data:`CONFIGS`:

- ``penny-rf``: Penny, ``rf`` surface, single-bit faults (Appendix A);
- ``penny-all``: Penny, ``rf``, ``ckpt`` and ``recovery`` surfaces;
- ``bolt-global-all``: Bolt/Global on the same three surfaces with 2- and
  3-bit checkpoint-slot strikes in global memory;
- ``none-rf2``: the uncompiled kernel with 2-bit faults, which produces
  SDC and DUE outcomes (under a 20,000-instruction watchdog, so that
  runaway loops end quickly).

``GAU/penny-budget`` runs Penny on the ``rf`` surface with the watchdog
one instruction below GAU's largest golden lane count, so every run that
simulates that lane ends in a watchdog DUE.  :data:`SCALAR_BENCHES` run
every configuration on the scalar backend too, and their records must
equal the vector backend's.

Every campaign runs under each ``PYTHONHASHSEED`` in ``HASH_SEEDS``, one
child interpreter per seed, because compiled kernels (and so records)
of some benchmarks depend on the hash seed.

Check the committed digests (exit 1 and one line per changed entry when
they differ, or when a scalar entry differs from its vector twin)::

    python tests/golden/campaign_digests.py

Regenerate them after a deliberate change of campaign records, printing
what changed::

    python tests/golden/campaign_digests.py --update
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path
from typing import Dict, List

if __package__ in (None, ""):
    sys.path.insert(0, str(Path(__file__).resolve().parents[2]))

from tests.golden.compile_digests import (  # noqa: E402
    Digests,
    canonical_json,
    diff as digest_diff,
    emit_per_hash_seed,
)

GOLDEN = Path(__file__).with_name("campaign_digests.json")

INJECTIONS = 6
ALL_SURFACES = ("rf", "ckpt", "recovery")
#: campaign spec fields of each configuration (benchmark, backend and
#: injection count are added per campaign)
CONFIGS: Dict[str, Dict[str, object]] = {
    "penny-rf": {"scheme": "Penny"},
    "penny-all": {"scheme": "Penny", "surfaces": ALL_SURFACES},
    "bolt-global-all": {
        "scheme": "Bolt/Global",
        "surfaces": ALL_SURFACES,
        "ckpt_bits": (2, 3),
    },
    "none-rf2": {"scheme": "none", "bits_per_fault": 2, "max_instructions": 20_000},
}
SCALAR_BENCHES = ("BS", "HS", "MT")
BUDGET_BENCH = "GAU"


def largest_golden_lane(abbr: str) -> int:
    """The most instructions any thread executes in ``abbr``'s fault-free
    run under Penny."""
    from repro.bench import get_benchmark
    from repro.core.pipeline import PennyCompiler
    from repro.core.schemes import SCHEME_PENNY, scheme_config
    from repro.gpusim import make_executor

    bench = get_benchmark(abbr)
    wl = bench.workload()
    kernel = (
        PennyCompiler(scheme_config(SCHEME_PENNY))
        .compile(bench.fresh_kernel(), wl.launch_config)
        .kernel
    )
    result = make_executor(kernel, backend="vector").run(
        wl.launch, wl.make_memory()
    )
    return max(result.thread_instructions.values())


def _campaigns():
    """``(key, CampaignSpec)`` for every campaign, keys without the seed."""
    from repro.bench import ALL_BENCHMARKS
    from repro.gpusim.campaign import CampaignSpec

    for bench in ALL_BENCHMARKS:
        backends = ["vector"]
        if bench.abbr in SCALAR_BENCHES:
            backends.append("scalar")
        for config, fields in CONFIGS.items():
            for backend in backends:
                spec = CampaignSpec(
                    benchmark=bench.abbr,
                    num_injections=INJECTIONS,
                    backend=backend,
                    **fields,
                )
                yield f"{bench.abbr}/{config}/{backend}", spec
    budget = largest_golden_lane(BUDGET_BENCH) - 1
    yield f"{BUDGET_BENCH}/penny-budget/vector", CampaignSpec(
        benchmark=BUDGET_BENCH,
        num_injections=INJECTIONS,
        backend="vector",
        max_instructions=budget,
    )


def _compute_here() -> Digests:
    """Run every campaign inline in this interpreter and digest it."""
    from repro.gpusim.campaign import run_campaign

    out: Digests = {}
    for key, spec in _campaigns():
        report = run_campaign(spec)
        lines = "".join(r.to_json() + "\n" for r in report.records)
        out[key] = {
            "records_sha256": hashlib.sha256(lines.encode("utf-8")).hexdigest(),
            "summary": report.summary(),
        }
    return out


def compute_digests(timeout: float = 900.0) -> Digests:
    """Digests of the current source tree, one child interpreter per
    hash seed."""
    return emit_per_hash_seed(Path(__file__), timeout)


def load_golden() -> Digests:
    return json.loads(GOLDEN.read_text())


def diff(old: Digests, new: Digests) -> List[str]:
    """One line per campaign whose records differ between ``old`` and
    ``new``, with the summary counts that changed."""
    return digest_diff(old, new, "records_sha256", "summary")


def backend_mismatches(digests: Digests) -> List[str]:
    """One line per scalar campaign whose records differ from the same
    campaign's on the vector backend."""
    lines: List[str] = []
    for key in sorted(digests):
        if "/scalar@" not in key:
            continue
        twin = key.replace("/scalar@", "/vector@")
        if digests[key] != digests.get(twin):
            lines.append(f"{key}: differs from {twin}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--update",
        action="store_true",
        help="rewrite campaign_digests.json and print what changed",
    )
    parser.add_argument("--emit", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.emit:
        print(canonical_json(_compute_here()))
        return 0

    new = compute_digests()
    old = load_golden() if GOLDEN.exists() else {}
    changes = diff(old, new)
    mismatches = backend_mismatches(new)
    for line in changes + mismatches:
        print(line)
    if args.update:
        GOLDEN.write_text(json.dumps(new, indent=1, sort_keys=True) + "\n")
        print(f"wrote {len(new)} digests to {GOLDEN} ({len(changes)} changed)")
        return 1 if mismatches else 0
    print(
        f"{len(changes)} of {len(new)} digests differ from {GOLDEN.name}; "
        f"{len(mismatches)} scalar campaigns differ from vector"
    )
    return 1 if changes or mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
