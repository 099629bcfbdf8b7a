"""Robust statistics for performance measurements.

Two jobs, kept deliberately separate from *how* samples were collected
(:mod:`repro.perf.repeat`) and *what* was measured
(:mod:`repro.perf.suite`):

1. **Summaries** (:class:`Summary`): median, MAD, trimmed mean, and a
   confidence interval for the median (percentile bootstrap by default,
   or a t-interval for the mean).  The repeater's stopping criterion is
   the summary's *relative CI half-width*.

2. **Two-sample comparison** (:func:`compare`): given baseline and
   candidate duration samples, return a typed :class:`Verdict` —
   improved / regressed / unchanged / inconclusive — against a
   configurable *noise margin*.  Both methods work on the **log scale**
   so the comparison is exactly symmetric: swapping the arguments
   negates the effect estimate and mirrors the verdict
   (improved ↔ regressed), which the property suite locks in.

   - ``method="bootstrap"`` (default): percentile bootstrap of the
     log-ratio of medians.  Each side's resample indices are derived
     from a SHA-256 of *that side's own samples*, so the same sample
     set always gets the same resamples regardless of argument
     position — determinism and symmetry at once.
   - ``method="welch"``: Welch's t interval on the difference of
     log-sample means (a ratio of geometric means), with the
     Welch–Satterthwaite df and an exact-enough t quantile computed
     without scipy.

Verdict logic, with ``m = log1p(noise_margin)`` and ``[lo, hi]`` the
CI on the log-ratio (candidate / baseline; positive = slower):

- ``lo > m``               → **regressed** (significantly beyond noise)
- ``hi < -m``              → **improved**
- ``[lo, hi] ⊆ [-m, m]``   → **unchanged** (bounded inside the noise)
- anything else            → **inconclusive** (CI straddles the margin)
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from enum import Enum
from typing import Dict, List, Optional, Sequence

__all__ = [
    "Verdict",
    "Summary",
    "Comparison",
    "compare",
    "median",
    "mad",
    "trimmed_mean",
    "t_quantile",
    "t_sf",
]

#: bootstrap resamples used for CIs and comparisons
DEFAULT_BOOT = 4000


# -- plain estimators -------------------------------------------------------------


def median(samples: Sequence[float]) -> float:
    xs = sorted(samples)
    n = len(xs)
    if n == 0:
        raise ValueError("median of empty sample set")
    mid = n // 2
    if n % 2:
        return float(xs[mid])
    return (xs[mid - 1] + xs[mid]) / 2.0


def mad(samples: Sequence[float]) -> float:
    """Median absolute deviation from the median (unscaled)."""
    m = median(samples)
    return median([abs(x - m) for x in samples])


def trimmed_mean(samples: Sequence[float], trim: float = 0.1) -> float:
    """Mean after dropping the ``trim`` fraction from each tail."""
    if not 0 <= trim < 0.5:
        raise ValueError(f"trim fraction {trim} not in [0, 0.5)")
    xs = sorted(samples)
    k = int(len(xs) * trim)
    kept = xs[k : len(xs) - k] if k else xs
    # The exact mean lies in [kept[0], kept[-1]]; rounding in the sum
    # can put the float one ulp outside (three equal samples can).
    return min(max(sum(kept) / len(kept), kept[0]), kept[-1])


# -- t distribution without scipy -------------------------------------------------


def _norm_ppf(p: float) -> float:
    """Inverse standard-normal CDF (Acklam's rational approximation,
    |relative error| < 1.2e-9 — far below measurement noise)."""
    if not 0.0 < p < 1.0:
        raise ValueError(f"probability {p} not in (0, 1)")
    a = (-3.969683028665376e+01, 2.209460984245205e+02,
         -2.759285104469687e+02, 1.383577518672690e+02,
         -3.066479806614716e+01, 2.506628277459239e+00)
    b = (-5.447609879822406e+01, 1.615858368580409e+02,
         -1.556989798598866e+02, 6.680131188771972e+01,
         -1.328068155288572e+01)
    c = (-7.784894002430293e-03, -3.223964580411365e-01,
         -2.400758277161838e+00, -2.549732539343734e+00,
         4.374664141464968e+00, 2.938163982698783e+00)
    d = (7.784695709041462e-03, 3.224671290700398e-01,
         2.445134137142996e+00, 3.754408661907416e+00)
    plow = 0.02425
    if p < plow:
        q = math.sqrt(-2 * math.log(p))
        return (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q
                + c[5]) / ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1)
    if p > 1 - plow:
        q = math.sqrt(-2 * math.log(1 - p))
        return -(((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q
                 + c[5]) / ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1)
    q = p - 0.5
    r = q * q
    return (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r
            + a[5]) * q / (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r
                            + b[4]) * r + 1)


def t_quantile(df: float, confidence: float = 0.95) -> float:
    """Two-sided Student-t critical value via the Cornish–Fisher
    expansion around the normal quantile (accurate to ~1e-3 for df ≥ 3,
    exact in the df → ∞ limit)."""
    if df <= 0:
        raise ValueError(f"degrees of freedom {df} must be positive")
    z = _norm_ppf(0.5 + confidence / 2.0)
    g1 = (z ** 3 + z) / 4.0
    g2 = (5 * z ** 5 + 16 * z ** 3 + 3 * z) / 96.0
    g3 = (3 * z ** 7 + 19 * z ** 5 + 17 * z ** 3 - 15 * z) / 384.0
    g4 = (79 * z ** 9 + 776 * z ** 7 + 1482 * z ** 5 - 1920 * z ** 3
          - 945 * z) / 92160.0
    return z + g1 / df + g2 / df ** 2 + g3 / df ** 3 + g4 / df ** 4


def _betacf(a: float, b: float, x: float) -> float:
    """Continued fraction for the regularized incomplete beta."""
    MAXIT, EPS, FPMIN = 200, 3e-12, 1e-300
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < FPMIN:
        d = FPMIN
    d = 1.0 / d
    h = d
    for m in range(1, MAXIT + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < FPMIN:
            d = FPMIN
        c = 1.0 + aa / c
        if abs(c) < FPMIN:
            c = FPMIN
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < FPMIN:
            d = FPMIN
        c = 1.0 + aa / c
        if abs(c) < FPMIN:
            c = FPMIN
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < EPS:
            break
    return h


def _betai(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta I_x(a, b)."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    ln_bt = (math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
             + a * math.log(x) + b * math.log(1.0 - x))
    bt = math.exp(ln_bt)
    if x < (a + 1.0) / (a + b + 2.0):
        return bt * _betacf(a, b, x) / a
    return 1.0 - bt * _betacf(b, a, 1.0 - x) / b


def t_sf(t: float, df: float) -> float:
    """One-sided survival function P(T > t) of Student's t."""
    if df <= 0:
        raise ValueError(f"degrees of freedom {df} must be positive")
    x = df / (df + t * t)
    p = 0.5 * _betai(df / 2.0, 0.5, x)
    return p if t >= 0 else 1.0 - p


# -- bootstrap machinery ----------------------------------------------------------


def _content_seed(samples: Sequence[float], salt: str = "") -> int:
    """Deterministic RNG seed from the sample *values* (order-free), so
    the same sample set always gets the same resamples regardless of
    which argument slot it occupies in :func:`compare`."""
    h = hashlib.sha256(salt.encode())
    for x in sorted(float(v) for v in samples):
        h.update(repr(x).encode())
    return int.from_bytes(h.digest()[:8], "big")


def _bootstrap_medians(
    samples: Sequence[float], n_boot: int, seed: int
):
    import numpy as np

    # Sorted so the same sample *set* yields identical resamples no
    # matter the observation order (the seed is order-free too).
    arr = np.sort(np.asarray(list(samples), dtype=float))
    rng = np.random.default_rng(seed)
    idx = rng.integers(0, len(arr), size=(n_boot, len(arr)))
    return np.median(arr[idx], axis=1)


def _percentile(sorted_arr, q: float) -> float:
    """Linear-interpolated percentile on a pre-sorted numpy array."""
    import numpy as np

    return float(np.quantile(sorted_arr, q))


# -- summaries --------------------------------------------------------------------


@dataclass(frozen=True)
class Summary:
    """Robust summary of one sample set (durations, usually seconds)."""

    n: int
    mean: float
    std: float
    minimum: float
    maximum: float
    median: float
    mad: float
    trimmed_mean: float
    ci_lo: float
    ci_hi: float
    confidence: float
    method: str  # "bootstrap" (median CI) or "t" (mean CI)

    @property
    def rel_ci_half_width(self) -> float:
        """CI half-width relative to the point estimate — the repeater's
        stopping criterion.  ``inf`` when the center is nonpositive."""
        center = self.median if self.method == "bootstrap" else self.mean
        if center <= 0:
            return math.inf
        return (self.ci_hi - self.ci_lo) / 2.0 / center

    @classmethod
    def from_samples(
        cls,
        samples: Sequence[float],
        confidence: float = 0.95,
        method: str = "bootstrap",
        n_boot: int = DEFAULT_BOOT,
    ) -> "Summary":
        xs = [float(v) for v in samples]
        if not xs:
            raise ValueError("cannot summarize an empty sample set")
        if not 0 < confidence < 1:
            raise ValueError(f"confidence {confidence} not in (0, 1)")
        n = len(xs)
        mean = sum(xs) / n
        var = sum((x - mean) ** 2 for x in xs) / (n - 1) if n > 1 else 0.0
        std = math.sqrt(var)
        med = median(xs)
        if method == "bootstrap":
            if n == 1 or std == 0.0:
                ci_lo = ci_hi = med  # zero variance: the CI is a point
            else:
                import numpy as np

                meds = np.sort(
                    _bootstrap_medians(xs, n_boot, _content_seed(xs, "ci"))
                )
                alpha = (1.0 - confidence) / 2.0
                ci_lo = _percentile(meds, alpha)
                ci_hi = _percentile(meds, 1.0 - alpha)
        elif method == "t":
            if n == 1 or std == 0.0:
                ci_lo = ci_hi = mean
            else:
                half = t_quantile(n - 1, confidence) * std / math.sqrt(n)
                ci_lo, ci_hi = mean - half, mean + half
        else:
            raise ValueError(f"unknown CI method {method!r}")
        return cls(
            n=n,
            mean=mean,
            std=std,
            minimum=min(xs),
            maximum=max(xs),
            median=med,
            mad=mad(xs),
            trimmed_mean=trimmed_mean(xs),
            ci_lo=ci_lo,
            ci_hi=ci_hi,
            confidence=confidence,
            method=method,
        )

    def to_dict(self) -> Dict:
        return {
            "n": self.n,
            "mean": self.mean,
            "std": self.std,
            "min": self.minimum,
            "max": self.maximum,
            "median": self.median,
            "mad": self.mad,
            "trimmed_mean": self.trimmed_mean,
            "ci_lo": self.ci_lo,
            "ci_hi": self.ci_hi,
            "rel_ci_half_width": (
                None
                if math.isinf(self.rel_ci_half_width)
                else self.rel_ci_half_width
            ),
            "confidence": self.confidence,
            "method": self.method,
        }

    @classmethod
    def from_dict(cls, d: Dict) -> "Summary":
        return cls(
            n=int(d["n"]),
            mean=float(d["mean"]),
            std=float(d["std"]),
            minimum=float(d["min"]),
            maximum=float(d["max"]),
            median=float(d["median"]),
            mad=float(d["mad"]),
            trimmed_mean=float(d["trimmed_mean"]),
            ci_lo=float(d["ci_lo"]),
            ci_hi=float(d["ci_hi"]),
            confidence=float(d["confidence"]),
            method=str(d["method"]),
        )


# -- two-sample comparison --------------------------------------------------------


class Verdict(str, Enum):
    """Outcome of a baseline-vs-candidate comparison (lower is better)."""

    IMPROVED = "improved"
    REGRESSED = "regressed"
    UNCHANGED = "unchanged"
    INCONCLUSIVE = "inconclusive"

    @property
    def mirrored(self) -> "Verdict":
        """The verdict with the argument roles swapped."""
        if self is Verdict.IMPROVED:
            return Verdict.REGRESSED
        if self is Verdict.REGRESSED:
            return Verdict.IMPROVED
        return self


@dataclass(frozen=True)
class Comparison:
    """Result of :func:`compare` — a typed verdict plus its evidence.

    ``log_ratio_*`` bound ``log(candidate / baseline)``: positive means
    the candidate is *slower*.
    """

    verdict: Verdict
    method: str
    noise_margin: float
    confidence: float
    n_baseline: int
    n_candidate: int
    median_baseline: float
    median_candidate: float
    ratio: float  # median_candidate / median_baseline
    log_ratio_lo: float
    log_ratio_hi: float
    p_value: Optional[float] = None  # welch only
    t_stat: Optional[float] = None
    df: Optional[float] = None

    def to_dict(self) -> Dict:
        return {
            "verdict": self.verdict.value,
            "method": self.method,
            "noise_margin": self.noise_margin,
            "confidence": self.confidence,
            "n_baseline": self.n_baseline,
            "n_candidate": self.n_candidate,
            "median_baseline": self.median_baseline,
            "median_candidate": self.median_candidate,
            "ratio": self.ratio,
            "log_ratio_lo": self.log_ratio_lo,
            "log_ratio_hi": self.log_ratio_hi,
            "p_value": self.p_value,
            "t_stat": self.t_stat,
            "df": self.df,
        }


def _verdict_from_interval(
    lo: float, hi: float, noise_margin: float
) -> Verdict:
    m = math.log1p(noise_margin)
    if lo > m:
        return Verdict.REGRESSED
    if hi < -m:
        return Verdict.IMPROVED
    if -m <= lo and hi <= m:
        return Verdict.UNCHANGED
    return Verdict.INCONCLUSIVE


def compare(
    baseline: Sequence[float],
    candidate: Sequence[float],
    *,
    noise_margin: float = 0.05,
    confidence: float = 0.95,
    method: str = "bootstrap",
    n_boot: int = DEFAULT_BOOT,
) -> Comparison:
    """Compare duration samples: is ``candidate`` slower than
    ``baseline`` beyond ``noise_margin``?

    Both samples must be positive (they are durations).  The effect is
    estimated on the log scale, so ``compare(a, b)`` and
    ``compare(b, a)`` see exactly negated intervals and mirrored
    verdicts.
    """
    a = [float(v) for v in baseline]
    b = [float(v) for v in candidate]
    if not a or not b:
        raise ValueError("compare() needs non-empty sample sets")
    if min(a) <= 0 or min(b) <= 0:
        raise ValueError("compare() needs strictly positive durations")
    if noise_margin < 0:
        raise ValueError(f"noise margin {noise_margin} must be >= 0")
    med_a, med_b = median(a), median(b)

    if method == "bootstrap":
        if len(a) == 1 and len(b) == 1 or (
            max(a) == min(a) and max(b) == min(b)
        ):
            # Zero variance on both sides: the log-ratio is a point.
            delta = math.log(med_b) - math.log(med_a)
            lo = hi = delta
        else:
            import numpy as np

            meds_a = _bootstrap_medians(a, n_boot, _content_seed(a, "cmp"))
            meds_b = _bootstrap_medians(b, n_boot, _content_seed(b, "cmp"))
            ratios = np.log(meds_b) - np.log(meds_a)
            alpha = (1.0 - confidence) / 2.0
            # Both endpoints via the *lower* alpha-quantile (of the
            # ratios and their negation) so a swap of the arguments
            # negates the interval bit-for-bit — verdicts mirror
            # exactly, with no percentile-interpolation asymmetry.
            lo = _percentile(np.sort(ratios), alpha)
            hi = -_percentile(np.sort(-ratios), alpha)
        return Comparison(
            verdict=_verdict_from_interval(lo, hi, noise_margin),
            method="bootstrap",
            noise_margin=noise_margin,
            confidence=confidence,
            n_baseline=len(a),
            n_candidate=len(b),
            median_baseline=med_a,
            median_candidate=med_b,
            ratio=med_b / med_a,
            log_ratio_lo=lo,
            log_ratio_hi=hi,
        )

    if method == "welch":
        la = [math.log(x) for x in a]
        lb = [math.log(x) for x in b]
        na, nb = len(la), len(lb)
        ma = sum(la) / na
        mb = sum(lb) / nb
        va = (
            sum((x - ma) ** 2 for x in la) / (na - 1) if na > 1 else 0.0
        )
        vb = (
            sum((x - mb) ** 2 for x in lb) / (nb - 1) if nb > 1 else 0.0
        )
        delta = mb - ma
        se2 = va / na + vb / nb
        if se2 == 0.0:
            # Degenerate: no within-sample variation on either side.
            lo = hi = delta
            t_stat = 0.0 if delta == 0.0 else math.copysign(math.inf, delta)
            df = float(max(na + nb - 2, 1))
            p = 1.0 if delta == 0.0 else 0.0
        else:
            se = math.sqrt(se2)
            df_num = se2 ** 2
            df_den = 0.0
            if na > 1:
                df_den += (va / na) ** 2 / (na - 1)
            if nb > 1:
                df_den += (vb / nb) ** 2 / (nb - 1)
            df = df_num / df_den if df_den > 0 else float(na + nb - 2)
            df = max(df, 1.0)
            tq = t_quantile(df, confidence)
            lo, hi = delta - tq * se, delta + tq * se
            t_stat = delta / se
            p = 2.0 * t_sf(abs(t_stat), df)
        return Comparison(
            verdict=_verdict_from_interval(lo, hi, noise_margin),
            method="welch",
            noise_margin=noise_margin,
            confidence=confidence,
            n_baseline=na,
            n_candidate=nb,
            median_baseline=med_a,
            median_candidate=med_b,
            ratio=med_b / med_a,
            log_ratio_lo=lo,
            log_ratio_hi=hi,
            p_value=p,
            t_stat=t_stat,
            df=df,
        )

    raise ValueError(f"unknown comparison method {method!r}")
