"""Golden ``penny`` command-line parses.

``cli_parse.json`` pins how :func:`repro.cli.build_parser` reads a fixed
set of command lines, so that a rewrite of the parser can be checked to
accept exactly the flags, defaults and handlers it did before.  It holds
two kinds of entries:

- ``parse:<case>`` — one argv: ``vars(namespace)`` without ``func``,
  the handler's name and, for the subcommands that compile
  (compile/report/verify/client/trace), ``_build_config(args).to_dict()``.
  An argv the parser rejects records its exit status and the last line
  argparse printed.
- ``options:<subcommand>`` — every option and positional of one
  (sub)parser: option strings, dest, default, type, choices, nargs,
  const, required and action class.  Positionals keep their order;
  optionals are keyed by option string, since the order in which they
  are declared changes only ``--help``.

Check the committed golden (exit 1 and one line per changed entry when
it differs)::

    python tests/golden/cli_parse.py

Regenerate it after a deliberate change of the command line, printing
what changed::

    python tests/golden/cli_parse.py --update
"""

from __future__ import annotations

import argparse
import contextlib
import enum
import io
import json
import sys
from pathlib import Path
from typing import Dict, List

ROOT = Path(__file__).resolve().parents[2]
GOLDEN = Path(__file__).with_name("cli_parse.json")

Entries = Dict[str, object]

#: flags that set a compile configuration, with non-default values
_CONFIG = [
    "--scheme", "Bolt/Global", "--pruning", "basic", "--storage", "global",
    "--overwrite", "sa", "--no-low-opts", "--param-noalias",
    "--policy", "address-only", "--block", "128", "--grid", "8",
    "--no-strict",
]
_OBSERVE = ["--trace-out", "t.json", "--metrics-out", "m.jsonl"]
_BATCH = ["--jobs", "3", "--cache-dir", "cache"]

#: argv per case; every subcommand bare and with all of its flags
CASES: Dict[str, List[str]] = {
    "compile/bare": ["compile", "k.ptx"],
    "compile/all": ["compile", "k.ptx", *_CONFIG, *_BATCH, *_OBSERVE],
    "compile/stdin-overwrite-alias": ["compile", "-", "--overwrite",
                                      "renaming", "--scheme",
                                      "Bolt/Auto_storage"],
    "report/bare": ["report", "k.ptx"],
    "report/all": ["report", "k.ptx", *_CONFIG, *_BATCH],
    "verify/bare": ["verify"],
    "verify/input": ["verify", "k.ptx"],
    "verify/all": ["verify", "k.ptx", *_CONFIG, *_BATCH,
                   "--backend", "scalar", "--corpus", "c.jsonl",
                   "--strict"],
    "schemes/bare": ["schemes"],
    "serve/bare": ["serve"],
    "serve/all": ["serve", "--host", "0.0.0.0", "--port", "0",
                  "--workers", "3", "--queue-limit", "4",
                  "--request-timeout", "9.5", "--cache-dir", "cache",
                  "--threads", "--chaos", "worker.kill:p=0.2:max=3",
                  "--chaos-seed", "5", *_OBSERVE],
    "client/bare": ["client", "ping"],
    "client/compile": ["client", "compile", "k.ptx"],
    "client/all": ["client", "compile", "k.ptx", "--host", "h",
                   "--port", "1", "--timeout", "2.5", "--retries", "3",
                   "--backoff", "0.1", *_CONFIG, "--json"],
    "client/health": ["client", "health", "--port", "9781"],
    "cache/bare": ["cache", "stats"],
    "cache/all": ["cache", "gc", "--cache-dir", "cache",
                  "--max-bytes", "10", "--max-age", "1.5"],
    "trace/bare": ["trace", "k.ptx"],
    "trace/all": ["trace", "k.ptx", *_CONFIG, "--words", "32",
                  "--backend", "scalar", *_OBSERVE],
    "lint/bare": ["lint"],
    "lint/all": ["lint", "a.ptx", "b.ptx", "--bench", "STC",
                 "--bench", "all", "--format", "sarif", "--out", "o.sarif",
                 "--rule", "r1", "--rule", "r2", "--disable", "d1",
                 "--severity", "r1=warning", "--fail-on", "warning",
                 "--compiled", "--fixtures", "fx", "--scheme",
                 "Bolt/Global", "--policy", "address-only",
                 "--block", "64", "--grid", "2", *_OBSERVE],
    "campaign/bare": ["campaign"],
    "campaign/all": ["campaign", "--bench", "STC", "--fsck", "j.jsonl",
                     "-n", "5", "--workers", "2", "--seed", "3",
                     "--scheme", "none", "--code", "secded",
                     "--policy", "address-only", "--surfaces", "rf,ckpt",
                     "--bits", "2", "--pattern", "burst",
                     "--journal", "j.jsonl", "--resume",
                     "--watchdog", "100", "--max-recoveries", "3",
                     "--wall-timeout", "1.5", "--poison-threshold", "4",
                     "--chaos", "campaign.worker.kill:p=0.1:max=3",
                     "--chaos-seed", "11", "--json", "--backend", "vector",
                     *_OBSERVE],
    "campaign/long-injections": ["campaign", "--bench", "STC",
                                 "--injections", "7"],
    "fuzz/bare": ["fuzz"],
    "fuzz/all": ["fuzz", "-n", "5", "--seed", "1", "--workers", "2",
                 "--scheme", "Bolt/Global", "--strict",
                 "--mutate-rate", "0.5", "--no-fault", "--reduce",
                 "--journal", "j.jsonl", "--cross-check", "--json",
                 "--backend", "scalar", *_OBSERVE],
    "perf/list": ["perf", "list"],
    "perf/run": ["perf", "run", "--fast"],
    "perf/gate": ["perf", "gate", "--fast"],
    "perf/validate": ["perf", "validate"],
    # Rejected: a flag only other subcommands declare, a missing or bad
    # value, a missing subcommand.
    "reject/report-trace-out": ["report", "x.ptx", "--trace-out", "t"],
    "reject/report-metrics-out": ["report", "x.ptx", "--metrics-out", "m"],
    "reject/verify-trace-out": ["verify", "--trace-out", "t"],
    "reject/client-jobs": ["client", "ping", "--jobs", "2"],
    "reject/client-cache-dir": ["client", "compile", "k", "--cache-dir",
                                "d"],
    "reject/client-backend": ["client", "compile", "k", "--backend",
                              "scalar"],
    "reject/client-trace-out": ["client", "ping", "--trace-out", "t"],
    "reject/trace-jobs": ["trace", "k", "--jobs", "2"],
    "reject/trace-cache-dir": ["trace", "k", "--cache-dir", "d"],
    "reject/serve-block": ["serve", "--block", "4"],
    "reject/serve-seed": ["serve", "--seed", "1"],
    "reject/serve-jobs": ["serve", "--jobs", "2"],
    "reject/serve-policy": ["serve", "--policy", "full"],
    "reject/campaign-no-strict": ["campaign", "--no-strict"],
    "reject/campaign-block": ["campaign", "--block", "4"],
    "reject/campaign-cache-dir": ["campaign", "--cache-dir", "d"],
    "reject/fuzz-chaos": ["fuzz", "--chaos", "x"],
    "reject/fuzz-policy": ["fuzz", "--policy", "full"],
    "reject/fuzz-chaos-seed": ["fuzz", "--chaos-seed", "1"],
    "reject/lint-jobs": ["lint", "--jobs", "2"],
    "reject/lint-no-strict": ["lint", "--no-strict"],
    "reject/lint-backend": ["lint", "--backend", "scalar"],
    "reject/compile-backend": ["compile", "k", "--backend", "scalar"],
    "reject/report-backend": ["report", "k", "--backend", "vector"],
    "reject/cache-jobs": ["cache", "stats", "--jobs", "2"],
    "reject/cache-workers": ["cache", "stats", "--workers", "2"],
    "reject/schemes-json": ["schemes", "--json"],
    "reject/compile-no-input": ["compile"],
    "reject/compile-bad-scheme": ["compile", "k", "--scheme", "bogus"],
    "reject/trace-bad-overwrite": ["trace", "k", "--overwrite", "bogus"],
    "reject/campaign-bad-code": ["campaign", "--code", "hamming"],
    "reject/no-subcommand": [],
}

#: subcommands whose namespace builds a compile configuration
_CONFIG_COMMANDS = ("compile", "report", "verify", "client", "trace")


def _plain(value):
    """A JSON-comparable form of a namespace or action value."""
    if isinstance(value, enum.Enum):
        return f"{type(value).__name__}.{value.name}"
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if callable(value):
        return getattr(value, "__qualname__", repr(value))
    return value


def _parse(parser: argparse.ArgumentParser, argv: List[str]) -> dict:
    from repro.cli import _build_config

    err = io.StringIO()
    try:
        with contextlib.redirect_stderr(err):
            args = parser.parse_args(argv)
    except SystemExit as exc:
        lines = err.getvalue().strip().splitlines()
        return {"argv": argv, "exit": exc.code,
                "error": lines[-1] if lines else ""}
    namespace = {k: _plain(v) for k, v in sorted(vars(args).items())
                 if k != "func"}
    entry = {"argv": argv, "namespace": namespace,
             "handler": args.func.__name__}
    if args.command in _CONFIG_COMMANDS:
        entry["config"] = _build_config(args).to_dict()
    return entry


def _options(parser: argparse.ArgumentParser) -> dict:
    """Positionals in order; optionals keyed by their first option
    string, since their declaration order changes only ``--help``."""
    def describe(action: argparse.Action) -> dict:
        return {
            "options": list(action.option_strings),
            "dest": action.dest,
            "default": _plain(action.default),
            "type": _plain(action.type),
            "choices": _plain(
                None if action.choices is None
                or isinstance(action.choices, dict)
                else list(action.choices)
            ),
            "nargs": action.nargs,
            "const": _plain(action.const),
            "required": action.required,
            "action": type(action).__name__,
        }

    actions = [
        a for a in parser._actions
        if not isinstance(a, argparse._HelpAction)
    ]
    return {
        "positionals": [describe(a) for a in actions if not a.option_strings],
        "optionals": {
            a.option_strings[0]: describe(a)
            for a in actions
            if a.option_strings
        },
    }


def _subparsers(parser: argparse.ArgumentParser, prefix: str = ""):
    """Yield ``(name, subparser)`` for every (nested) subcommand."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield prefix + name, sub
                yield from _subparsers(sub, prefix + name + " ")


def compute() -> Entries:
    """Parse every case and describe every subparser of the current
    :func:`repro.cli.build_parser`."""
    from repro.cli import build_parser

    parser = build_parser()
    out: Entries = {}
    for case, argv in CASES.items():
        out[f"parse:{case}"] = _parse(parser, argv)
    for name, sub in _subparsers(parser):
        out[f"options:{name}"] = _options(sub)
    return out


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def load_golden() -> Entries:
    return json.loads(GOLDEN.read_text())


def diff(old: Entries, new: Entries) -> List[str]:
    """One line per entry that was added, removed or changed."""
    lines: List[str] = []
    for key in sorted(set(old) | set(new)):
        if key not in new:
            lines.append(f"{key}: removed")
        elif key not in old:
            lines.append(f"{key}: added")
        elif canonical_json(old[key]) != canonical_json(new[key]):
            lines.append(
                f"{key}: {canonical_json(old[key])} -> "
                f"{canonical_json(new[key])}"
            )
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--update",
        action="store_true",
        help="rewrite cli_parse.json and print what changed",
    )
    args = parser.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))

    new = compute()
    old = load_golden() if GOLDEN.exists() else {}
    changes = diff(old, new)
    for line in changes:
        print(line)
    if args.update:
        GOLDEN.write_text(json.dumps(new, indent=1, sort_keys=True) + "\n")
        print(f"wrote {len(new)} entries to {GOLDEN} ({len(changes)} changed)")
        return 0
    print(f"{len(changes)} of {len(new)} entries differ from {GOLDEN.name}")
    return 1 if changes else 0


if __name__ == "__main__":
    sys.exit(main())
