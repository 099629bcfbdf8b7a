"""Metric arithmetic shared by every workload.

Pure functions over plain numbers and tuples: nothing here imports
``repro``, so the benchmark's own tests can check the math without the
program under test.
"""

from __future__ import annotations

import math
import statistics
from collections import defaultdict
from typing import Dict, Hashable, Iterable, List, NamedTuple, Optional, Sequence, Tuple

#: ops that must lie beyond the reported tail percentile
TAIL_BEYOND = 10


class Tail(NamedTuple):
    value: float
    percentile: float  # 100 when there are too few ops: the slowest op
    n: int


def tail(values: Sequence[float], beyond: int = TAIL_BEYOND) -> Tail:
    """The highest percentile with at least ``beyond`` ops above it.

    With ``n`` ops sorted ascending, that is the op at 1-based rank
    ``n - beyond``.  With ``n <= beyond`` no rank qualifies, so the
    slowest op is reported as percentile 100.
    """
    xs = sorted(values)
    n = len(xs)
    if not n:
        raise ValueError("tail of no values")
    if n <= beyond:
        return Tail(xs[-1], 100.0, n)
    rank = n - beyond
    return Tail(xs[rank - 1], 100.0 * rank / n, n)


def geomean(values: Iterable[float]) -> float:
    """Geometric mean of positive values."""
    xs = list(values)
    if not xs:
        raise ValueError("geometric mean of no values")
    if any(v <= 0 for v in xs):
        raise ValueError("geometric mean needs positive values")
    return math.exp(sum(math.log(v) for v in xs) / len(xs))


def iqr_share(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median: the spread the
    benchmark's stability gate is stated in."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else math.inf


# -- span folding ----------------------------------------------------------------


class Span(NamedTuple):
    span_id: Hashable
    parent_id: Optional[Hashable]
    name: str
    start: float
    end: float


class Fold(NamedTuple):
    count: int
    inclusive: float
    self_time: float


def covered(intervals: Iterable[Tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: Sequence[Span]) -> Dict[Hashable, float]:
    """Each span's duration minus the part of it its children cover."""
    children: Dict[Hashable, List[Tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent_id is not None:
            children[s.parent_id].append((s.start, s.end))
    return {
        s.span_id: (s.end - s.start) - covered(children[s.span_id], s.start, s.end)
        for s in spans
    }


def fold(spans: Sequence[Span]) -> Dict[str, Fold]:
    """Inclusive time, self time and call count per span name."""
    own = self_times(spans)
    count: Dict[str, int] = defaultdict(int)
    inclusive: Dict[str, float] = defaultdict(float)
    self_sum: Dict[str, float] = defaultdict(float)
    for s in spans:
        count[s.name] += 1
        inclusive[s.name] += s.end - s.start
        self_sum[s.name] += own[s.span_id]
    return {n: Fold(count[n], inclusive[n], self_sum[n]) for n in count}


def merge_folds(folds: Iterable[Dict[str, Fold]]) -> Dict[str, Fold]:
    out: Dict[str, Fold] = {}
    for f in folds:
        for name, v in f.items():
            prev = out.get(name, Fold(0, 0.0, 0.0))
            out[name] = Fold(
                prev.count + v.count,
                prev.inclusive + v.inclusive,
                prev.self_time + v.self_time,
            )
    return out


def scale_fold(folded: Dict[str, Fold], factor: float) -> Dict[str, Fold]:
    """``folded`` with its times multiplied by ``factor``."""
    return {
        name: Fold(f.count, f.inclusive * factor, f.self_time * factor)
        for name, f in folded.items()
    }


def attributed(spans: Sequence[Span]) -> float:
    """Wall time the spans account for: the sum of every self time."""
    return sum(self_times(spans).values())


# -- serve hit/miss prediction ----------------------------------------------------


def predict_cached(keys: Iterable[Hashable]) -> List[bool]:
    """The ``cached`` flag a cold cache answers for each request in order:
    the first request for a key misses, every repeat hits."""
    seen = set()
    out = []
    for k in keys:
        out.append(k in seen)
        seen.add(k)
    return out
