"""Service-level fault injection: seeded, plan-driven chaos for the farm.

The simulated register file gets systematic fault injection
(:mod:`repro.gpusim.faults` / :mod:`repro.gpusim.campaign`); the serving
stack that *hosts* those experiments historically did not.  This module
closes the gap with the same design vocabulary:

- a **plan** (:class:`ChaosPlan`) is pure data — a seed plus a list of
  :class:`ChaosRule`\\ s, each naming a fault *kind*, a probability, an
  optional injection budget and a warm-up count — serializable, parseable
  from a compact CLI spec, and reproducible;
- an **engine** (:class:`ChaosEngine`) is installed for a dynamic scope
  exactly like :func:`repro.serve.cache.active_cache` (a context var), and
  every instrumented *site* in the serving stack asks
  ``active_chaos()``/:meth:`ChaosEngine.decide` whether to inject;
- decisions are **deterministic**: each rule draws from its own
  ``random.Random`` seeded by SHA-256 of ``(plan seed, kind)`` and indexed
  by the site's decision counter, so the same plan replayed over the same
  sequence of site visits injects the identical fault sequence — the
  property the campaign engine's ``stable_seed`` provides per injection
  index;
- when **no engine is installed the stack is untouched**: every site is
  one ``ContextVar.get`` plus a ``None`` check (the :mod:`repro.obs`
  no-op discipline), and a no-chaos run is byte-identical to a plain run.

Fault kinds and the sites that honor them:

=====================  ==================  =====================================
kind                   site                effect
=====================  ==================  =====================================
``worker.kill``        ``worker.job``      worker process SIGKILLed mid-job
                                           (thread workers die silently)
``worker.hang``        ``worker.job``      the job blocks for ``delay_s``
                                           seconds (timeout/reclaim path)
``cache.enospc``       ``cache.store``     the disk tier raises ``ENOSPC``
                                           mid-write (temp-file cleanup path)
``cache.torn``         ``cache.store``     a truncated payload is published
                                           (simulated non-atomic filesystem)
``cache.slow_store``   ``cache.store``     the write stalls for ``delay_s``
``cache.corrupt``      ``cache.read``      the on-disk entry is garbled before
                                           the read (self-healing path)
``cache.truncate``     ``cache.read``      the on-disk entry is truncated
                                           before the read
``cache.slow_read``    ``cache.read``      the read stalls for ``delay_s``
``conn.drop``          ``conn.send``       the response is dropped and the
                                           connection closed (client retry)
=====================  ==================  =====================================

Campaign-side kinds (honored by the shared :mod:`repro.runtime.pool`
when driven by the injection campaign or the fuzz harness, and by the
campaign journal):

==========================  ===================  ============================
kind                        site                 effect
==========================  ===================  ============================
``campaign.worker.kill``    ``campaign.worker``  a sweep worker is SIGKILLed
                                                 mid-task (retry/quarantine)
``campaign.worker.hang``    ``campaign.worker``  the task stalls ``delay_s``
                                                 seconds (wall-clock reclaim)
``journal.torn``            ``journal.write``    a journal record is cut mid-
                                                 line (fsck / repair path)
``journal.enospc``          ``journal.write``    the journal write raises
                                                 ``ENOSPC`` (record kept
                                                 in memory, repaired at end)
==========================  ===================  ============================

Quickstart::

    from repro.serve.chaos import ChaosPlan, ChaosEngine

    plan = ChaosPlan.parse("worker.kill:p=0.25:max=3,cache.corrupt:p=0.5",
                           seed=7)
    with ChaosEngine(plan) as chaos:
        ...  # run the server / cache / pool under fault pressure
    print(chaos.report())   # what fired, where, in order

or from the shell: ``penny serve --chaos "worker.kill:p=0.25" --chaos-seed 7``.
"""

from __future__ import annotations

import hashlib
import json
import random
import threading
from contextvars import ContextVar
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

import repro.obs as obs

_ACTIVE: ContextVar[Optional["ChaosEngine"]] = ContextVar(
    "repro_serve_chaos", default=None
)

# -- sites and kinds -------------------------------------------------------------

SITE_WORKER_JOB = "worker.job"
SITE_CACHE_STORE = "cache.store"
SITE_CACHE_READ = "cache.read"
SITE_CONN_SEND = "conn.send"
SITE_CAMPAIGN_WORKER = "campaign.worker"
SITE_JOURNAL_WRITE = "journal.write"

#: kind -> (site, worker-directive action or None)
KINDS: Dict[str, str] = {
    "worker.kill": SITE_WORKER_JOB,
    "worker.hang": SITE_WORKER_JOB,
    "cache.enospc": SITE_CACHE_STORE,
    "cache.torn": SITE_CACHE_STORE,
    "cache.slow_store": SITE_CACHE_STORE,
    "cache.corrupt": SITE_CACHE_READ,
    "cache.truncate": SITE_CACHE_READ,
    "cache.slow_read": SITE_CACHE_READ,
    "conn.drop": SITE_CONN_SEND,
    "campaign.worker.kill": SITE_CAMPAIGN_WORKER,
    "campaign.worker.hang": SITE_CAMPAIGN_WORKER,
    "journal.torn": SITE_JOURNAL_WRITE,
    "journal.enospc": SITE_JOURNAL_WRITE,
}

#: default stall for the hang/slow kinds (seconds)
DEFAULT_HANG_SECONDS = 30.0


def active_chaos() -> Optional["ChaosEngine"]:
    """The chaos engine installed for this context, or ``None`` (the
    fast path every instrumented site takes in production)."""
    return _ACTIVE.get()


@dataclass(frozen=True)
class ChaosRule:
    """One fault kind under pressure.

    ``probability`` is evaluated per *decision* (each visit to the kind's
    site), ``max_injections`` bounds how often the rule may fire over the
    engine's lifetime (``None`` = unbounded), ``after`` skips the first N
    decisions at the site (warm-up), and ``delay_s`` parameterizes the
    hang/slow kinds.
    """

    kind: str
    probability: float = 1.0
    max_injections: Optional[int] = None
    after: int = 0
    #: None -> action default: stall-shaped actions (hang, slow_*) get
    #: DEFAULT_HANG_SECONDS, everything else (kill, torn, ...) fires
    #: immediately.  A ``worker.kill:delay=5`` still dies mid-job.
    delay_s: Optional[float] = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(
                f"unknown chaos kind {self.kind!r} "
                f"(known: {', '.join(sorted(KINDS))})"
            )
        if not (0.0 <= self.probability <= 1.0):
            raise ValueError("probability must be in [0, 1]")
        if self.max_injections is not None and self.max_injections < 0:
            raise ValueError("max_injections must be >= 0")
        if self.after < 0:
            raise ValueError("after must be >= 0")
        if self.delay_s is None:
            stalls = self.action in ("hang", "slow_store", "slow_read")
            object.__setattr__(
                self,
                "delay_s",
                DEFAULT_HANG_SECONDS if stalls else 0.0,
            )
        if self.delay_s < 0:
            raise ValueError("delay_s must be >= 0")

    @property
    def site(self) -> str:
        return KINDS[self.kind]

    @property
    def action(self) -> str:
        """The site-local action name (the part after the *last* dot:
        ``campaign.worker.kill`` -> ``kill``, ``journal.torn`` ->
        ``torn``)."""
        return self.kind.rsplit(".", 1)[1]

    def to_dict(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "probability": self.probability,
            "max_injections": self.max_injections,
            "after": self.after,
            "delay_s": self.delay_s,
        }

    @classmethod
    def from_dict(cls, d: Dict[str, Any]) -> "ChaosRule":
        return cls(
            kind=d["kind"],
            probability=float(d.get("probability", 1.0)),
            max_injections=d.get("max_injections"),
            after=int(d.get("after", 0)),
            delay_s=(
                None
                if d.get("delay_s") is None
                else float(d["delay_s"])
            ),
        )


@dataclass(frozen=True)
class ChaosPlan:
    """A seed plus the rules — everything a chaos run is defined by."""

    rules: Tuple[ChaosRule, ...] = ()
    seed: int = 0

    def to_dict(self) -> Dict[str, Any]:
        return {
            "kind": "chaos_plan",
            "seed": self.seed,
            "rules": [r.to_dict() for r in self.rules],
        }

    @classmethod
    def from_dict(cls, d: Dict[str, Any]) -> "ChaosPlan":
        return cls(
            rules=tuple(
                ChaosRule.from_dict(r) for r in d.get("rules", ())
            ),
            seed=int(d.get("seed") or 0),
        )

    @classmethod
    def parse(cls, spec: str, seed: Optional[int] = None) -> "ChaosPlan":
        """Build a plan from the compact CLI form.

        ``spec`` is comma-separated rules; each rule is a kind followed by
        optional ``:key=value`` knobs (``p``/``probability``, ``max``,
        ``after``, ``delay``)::

            worker.kill:p=0.25:max=3,cache.corrupt:p=0.5,worker.hang:delay=2

        A spec starting with ``@`` names a JSON file holding the
        :meth:`to_dict` form.  A file keeps its own seed; ``seed`` is the
        seed of a compact spec, or of a file whose seed is missing or
        null, and ``None`` means 0 there.
        """
        spec = spec.strip()
        if spec.startswith("@"):
            with open(spec[1:]) as f:
                d = json.load(f)
            if d.get("seed") is None:
                d["seed"] = seed
            return cls.from_dict(d)
        rules: List[ChaosRule] = []
        for part in spec.split(","):
            part = part.strip()
            if not part:
                continue
            fields = part.split(":")
            kind = fields[0].strip()
            kwargs: Dict[str, Any] = {"kind": kind}
            for knob in fields[1:]:
                if "=" not in knob:
                    raise ValueError(
                        f"bad chaos knob {knob!r} in {part!r} "
                        "(expected key=value)"
                    )
                key, _, value = knob.partition("=")
                key = key.strip()
                if key in ("p", "probability"):
                    kwargs["probability"] = float(value)
                elif key == "max":
                    kwargs["max_injections"] = int(value)
                elif key == "after":
                    kwargs["after"] = int(value)
                elif key in ("delay", "delay_s"):
                    kwargs["delay_s"] = float(value)
                else:
                    raise ValueError(
                        f"unknown chaos knob {key!r} in {part!r}"
                    )
            rules.append(ChaosRule(**kwargs))
        if not rules:
            raise ValueError("empty chaos spec")
        return cls(rules=tuple(rules), seed=seed or 0)


@dataclass(frozen=True)
class ChaosEvent:
    """One injected fault (the engine's append-only log)."""

    kind: str
    site: str
    index: int  #: the site's decision counter when this fired
    context: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "site": self.site,
            "index": self.index,
            "context": dict(self.context),
        }


def _rule_seed(plan_seed: int, kind: str) -> int:
    """Deterministic per-rule RNG seed (mirrors ``campaign.stable_seed``:
    SHA-256, so it is stable across processes and ``PYTHONHASHSEED``)."""
    digest = hashlib.sha256(f"{plan_seed}:{kind}".encode("ascii")).digest()
    return int.from_bytes(digest[:8], "big") >> 1


class ChaosEngine:
    """Evaluates a :class:`ChaosPlan` at the serving stack's fault sites.

    Install it for a dynamic scope (``with ChaosEngine(plan):``) the same
    way a :class:`repro.serve.cache.CompileCache` or
    :class:`repro.obs.Tracer` is installed.  Thread-safe: the server's
    event loop, the pool supervisor and test drivers may all call
    :meth:`decide` concurrently; each *site's* decision sequence is
    deterministic in its own visit order.
    """

    def __init__(self, plan: ChaosPlan):
        self.plan = plan
        self.injected: List[ChaosEvent] = []
        self._lock = threading.Lock()
        self._site_counts: Dict[str, int] = {}
        self._fired: Dict[str, int] = {r.kind: 0 for r in plan.rules}
        self._rngs: Dict[str, random.Random] = {
            r.kind: random.Random(_rule_seed(plan.seed, r.kind))
            for r in plan.rules
        }
        self._by_site: Dict[str, List[ChaosRule]] = {}
        for rule in plan.rules:
            self._by_site.setdefault(rule.site, []).append(rule)
        self._token = None

    # -- installation ----------------------------------------------------------

    def __enter__(self) -> "ChaosEngine":
        self._token = _ACTIVE.set(self)
        return self

    def __exit__(self, *exc) -> bool:
        if self._token is not None:
            _ACTIVE.reset(self._token)
            self._token = None
        return False

    # -- the decision point ----------------------------------------------------

    def decide(self, site: str, **context: Any) -> Optional[ChaosRule]:
        """One visit to ``site``: returns the rule to apply, or ``None``.

        At most one rule fires per visit (plan order wins); every rule
        matching the site consumes one draw from its own RNG either way,
        so a rule's fire/skip sequence depends only on the number of
        prior visits — never on which *other* rules exist or fired.
        """
        rules = self._by_site.get(site)
        if not rules:
            return None
        with self._lock:
            index = self._site_counts.get(site, 0)
            self._site_counts[site] = index + 1
            chosen: Optional[ChaosRule] = None
            for rule in rules:
                draw = self._rngs[rule.kind].random()
                if chosen is not None:
                    continue
                if index < rule.after:
                    continue
                if (
                    rule.max_injections is not None
                    and self._fired[rule.kind] >= rule.max_injections
                ):
                    continue
                if draw < rule.probability:
                    self._fired[rule.kind] += 1
                    chosen = rule
            if chosen is not None:
                self.injected.append(
                    ChaosEvent(
                        kind=chosen.kind,
                        site=site,
                        index=index,
                        context=context,
                    )
                )
        if chosen is not None:
            obs.inc("chaos.injected")
            obs.inc(f"chaos.injected.{chosen.kind}")
            obs.event("chaos.inject", kind=chosen.kind, site=site, **context)
        return chosen

    # -- reporting -------------------------------------------------------------

    def injected_counts(self) -> Dict[str, int]:
        """Injections so far, by kind (only kinds that fired)."""
        with self._lock:
            return {k: n for k, n in sorted(self._fired.items()) if n}

    def report(self) -> Dict[str, Any]:
        """The run's injection log + per-kind totals (``Reportable``
        shape, ``kind='chaos_report'``)."""
        with self._lock:
            events = [e.to_dict() for e in self.injected]
            fired = {k: n for k, n in sorted(self._fired.items()) if n}
            visits = dict(sorted(self._site_counts.items()))
        return {
            "kind": "chaos_report",
            "plan": self.plan.to_dict(),
            "injections": len(events),
            "by_kind": fired,
            "site_visits": visits,
            "events": events,
        }

    def summary(self) -> Dict[str, Any]:
        with self._lock:
            total = len(self.injected)
            fired = {k: n for k, n in sorted(self._fired.items()) if n}
        return {"injections": total, "by_kind": fired}
