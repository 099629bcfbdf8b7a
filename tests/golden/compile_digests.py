"""Golden compile digests for the benchmark's compile configurations.

``compile_digests.json`` maps every program ``<bench>/<config>@<seed>``
to the SHA-256 of ``print_kernel`` of its compiled kernel and to its
``CompileResult.stats``.  The programs are the 25 Table-3 kernels under
Penny, Penny with the ``address-only``, ``top-k-vulnerable``,
``detection-only`` and ``none`` policies, Bolt/Global and
Bolt/Auto_storage.  Each of the 25 also has an ``igpu`` entry: the
kernel after :func:`repro.core.schemes.igpu_transform`, whose table
holds the webs it renamed and ``count_registers`` of the result.

Each program is compiled under every ``PYTHONHASHSEED`` in
:data:`HASH_SEEDS`, one child interpreter per seed: the compiled output
of some kernels depends on the hash seed, so digests are only comparable
under a fixed one, and a second seed catches changes to set iteration
order that a single seed can hide.

Check the committed digests (exit 1 and one line per changed entry when
they differ)::

    python tests/golden/compile_digests.py

Regenerate them after a deliberate change of compiled output, printing
what changed::

    python tests/golden/compile_digests.py --update
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path
from typing import Dict, List

ROOT = Path(__file__).resolve().parents[2]
GOLDEN = Path(__file__).with_name("compile_digests.json")
HASH_SEEDS = ("0", "7")

#: the configurations every suite kernel is compiled under
CONFIGS = (
    "penny",
    "address-only",
    "top-k-vulnerable",
    "detection-only",
    "none",
    "bolt-global",
    "bolt-auto",
)
#: the entry of the iGPU transformation, which is not a compile
IGPU = "igpu"

Digests = Dict[str, Dict[str, object]]


def _config(label: str):
    from repro.core.schemes import (
        SCHEME_BOLT_AUTO,
        SCHEME_BOLT_GLOBAL,
        SCHEME_PENNY,
        scheme_config,
    )

    if label == "penny":
        return scheme_config(SCHEME_PENNY)
    if label == "bolt-global":
        return scheme_config(SCHEME_BOLT_GLOBAL)
    if label == "bolt-auto":
        return scheme_config(SCHEME_BOLT_AUTO)
    # a protection policy under Penny
    return dataclasses.replace(scheme_config(SCHEME_PENNY), policy=label)


def _compute_here() -> Digests:
    """Compile every program in this interpreter and digest the results."""
    from repro.bench import ALL_BENCHMARKS
    from repro.core.pipeline import PennyCompiler
    from repro.core.schemes import igpu_transform
    from repro.ir.printer import print_kernel
    from repro.regalloc import count_registers

    programs = [(b, label) for b in ALL_BENCHMARKS for label in CONFIGS]
    out: Digests = {}
    for bench, label in programs:
        result = PennyCompiler(_config(label)).compile(
            bench.fresh_kernel(), bench.workload().launch_config
        )
        out[f"{bench.abbr}/{label}"] = _digest(
            print_kernel(result.kernel), result.stats
        )
    for bench in ALL_BENCHMARKS:
        kernel = bench.fresh_kernel()
        webs = igpu_transform(kernel)
        out[f"{bench.abbr}/{IGPU}"] = _digest(
            print_kernel(kernel),
            {"renamed_webs": webs, "registers": count_registers(kernel)},
        )
    return out


def _digest(text: str, stats) -> Dict[str, object]:
    return {
        "kernel_sha256": hashlib.sha256(text.encode("utf-8")).hexdigest(),
        "stats": json.loads(canonical_json(stats)),
    }


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def emit_per_hash_seed(script: Path, timeout: float) -> Digests:
    """Run ``script --emit`` in one child interpreter per
    ``PYTHONHASHSEED`` in :data:`HASH_SEEDS`, the children side by side,
    and key each entry of their JSON output ``<entry>@<seed>``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH", "")) if p
    )
    children = {}
    for seed in HASH_SEEDS:
        children[seed] = subprocess.Popen(
            [sys.executable, str(script.resolve()), "--emit"],
            env={**env, "PYTHONHASHSEED": seed},
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
    out: Digests = {}
    try:
        for seed, child in children.items():
            stdout, stderr = child.communicate(timeout=timeout)
            if child.returncode != 0:
                raise RuntimeError(
                    f"digest child (PYTHONHASHSEED={seed}) failed:\n{stderr}"
                )
            for entry, digest in json.loads(stdout).items():
                out[f"{entry}@{seed}"] = digest
    finally:
        for child in children.values():
            if child.poll() is None:
                child.kill()
                child.wait()
    return out


def compute_digests(timeout: float = 600.0) -> Digests:
    """Digests of the current source tree, compiled in one child
    interpreter per ``PYTHONHASHSEED`` in :data:`HASH_SEEDS`."""
    return emit_per_hash_seed(Path(__file__), timeout)


def load_golden() -> Digests:
    return json.loads(GOLDEN.read_text())


def diff(
    old: Digests,
    new: Digests,
    sha_key: str = "kernel_sha256",
    table_key: str = "stats",
) -> List[str]:
    """One line per entry whose digests differ between ``old`` and
    ``new``: its ``sha_key`` digest and each value of its ``table_key``
    table that changed."""
    label = sha_key.replace("_sha256", "")
    lines: List[str] = []
    for key in sorted(set(old) | set(new)):
        if key not in new:
            lines.append(f"{key}: removed")
            continue
        if key not in old:
            lines.append(f"{key}: added")
            continue
        a, b = old[key], new[key]
        parts = []
        if a[sha_key] != b[sha_key]:
            parts.append(f"{label} {a[sha_key][:12]} -> {b[sha_key][:12]}")
        table_a, table_b = a[table_key], b[table_key]
        for name in sorted(set(table_a) | set(table_b)):
            if table_a.get(name) != table_b.get(name):
                parts.append(
                    f"{name} {table_a.get(name)!r} -> {table_b.get(name)!r}"
                )
        if parts:
            lines.append(f"{key}: " + "; ".join(parts))
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--update",
        action="store_true",
        help="rewrite compile_digests.json and print what changed",
    )
    parser.add_argument("--emit", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.emit:
        print(canonical_json(_compute_here()))
        return 0

    new = compute_digests()
    old = load_golden() if GOLDEN.exists() else {}
    changes = diff(old, new)
    for line in changes:
        print(line)
    if args.update:
        GOLDEN.write_text(json.dumps(new, indent=1, sort_keys=True) + "\n")
        print(f"wrote {len(new)} digests to {GOLDEN} ({len(changes)} changed)")
        return 0
    print(f"{len(changes)} of {len(new)} digests differ from {GOLDEN.name}")
    return 1 if changes else 0


if __name__ == "__main__":
    sys.exit(main())
