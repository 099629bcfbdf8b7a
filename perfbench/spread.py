"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py --workload campaign --seeds 1-10 [--out spread.json]

Runs ``run.py`` once per seed, one run at a time, and prints for every
end-to-end metric its median and the distance between its first and
third quartiles as a share of the median, next to the metric's bound in
``BENCHMARK.json`` (a spread under a third of the bound is steady).
This is how the A/A spreads in ``workloads.json`` were measured.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from pb_math import iqr_share

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(text: str):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--out", default=None, help="also write every run's result here")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    results = []
    for seed in args.seeds:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"]
        start = time.monotonic()
        out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, check=True).stdout
        result = json.loads(out.decode().strip().splitlines()[-1])
        result["seed"] = seed
        result["elapsed_s"] = round(time.monotonic() - start, 1)
        results.append(result)
        print(seed, result["correct"], f"{result['elapsed_s']} s",
              {k: round(v["value"], 4) for k, v in result["metrics"].items()}, flush=True)
    if args.out:
        Path(args.out).write_text(json.dumps(results, indent=1) + "\n")
    steady = True
    for metric in spec["end_to_end"]:
        values = [r["metrics"][metric["name"]]["value"] for r in results]
        share = iqr_share(values)
        ok = share < metric["bound"] / 3 or metric["name"] == "setup_s"
        steady &= ok
        print(f"{metric['name']:20} median {statistics.median(values):12.4f}  "
              f"spread {share:.4f}  bound {metric['bound']}  {'ok' if ok else 'WIDE'}")
    correct = all(r["correct"] for r in results)
    print("all runs correct" if correct else "SOME RUNS FAILED THEIR CHECKS")
    return 0 if steady and correct else 1


if __name__ == "__main__":
    sys.exit(main())
