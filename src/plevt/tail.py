"""Tail-index estimators built on top order-statistic spacings.

The scaled-spacings estimator of the extreme value index gamma = 1/theta is

    hill = (1/k) * sum_{j=1..k} j * (X_{n-j+1,n} - X_{n-j,n}),

and its weighted power generalization uses a positive weight function f
and power s >= 1:

    t_n(f, s)  = sum_{j=1..k} f(j) * (X_{n-j+1,n} - X_{n-j,n})**s,
    a_n(f, s)  = Gamma(s+1) * sum f(j) / j**s,
    s_n(f, s)  = sqrt( (Gamma(2s+1) - Gamma(s+1)**2) * sum (f(j)/j**s)**2 ),
    b_n(f, s)  = max_j (f(j)/j**s) / s_n(f, s),

with point estimate ``(t_n / a_n)**(1/s)``.  Centered at gamma**s * a_n and
scaled by s_n, t_n is asymptotically normal provided b_n (the Lindeberg
ratio) vanishes and s_n(f,1) / (s_n(f,s) log n) tends to zero; the Hill
case additionally wants k to grow slower than (log n)^{4/3}, tracked by
the diagnostic ``k1 = k**(3/4) / log n`` of ``SpacingPlan.conditions``.

``SpacingPlan`` owns 1 <= k <= n - 1 and builds a_n, s_n and b_n once per (f, n, k, s),
in one pass over the ratios f(j)/j**s.  Its ``sums`` reduces rows of top order
statistics to t_n alone, one weighted sum per row, which is all a Monte Carlo
replication needs; its ``statistics`` gives one sample's hill, t_n and estimate.
Normalizers that are not finite and > 0, Gamma(2s+1) past the double range
(s above about 85.3), an overflowing spacing, t_n or t_n / a_n and a t_n that
underflows to 0 from spacings that are not all zero raise DomainError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    _LOG_MAX,
    DegenerateSampleError,
    DomainError,
    check_int,
    check_real,
    check_sample,
)
from .sampling import SortedSample, read_values_csv

__all__ = [
    "WeightFunction",
    "TailStatistics",
    "hill",
    "dh_statistic",
    "check_dh_conditions",
    "default_k",
]


def _top_count(n: int, k: int, error=DomainError) -> int:
    """``k`` as a number of top spacings of n values, in [1, n-1], else ``error``."""
    k = check_int(k, "k", error=error)
    if not (1 <= k <= n - 1):
        raise error(f"k must lie in [1, n-1] = [1, {n - 1}], got {k}")
    return k


def _power(s, error=DomainError) -> float:
    """``s`` as a spacing power, a finite real >= 1, else ``error``."""
    s = check_real(s, "power s", error)
    if not (s >= 1.0 and math.isfinite(s)):
        raise error(f"power s must be finite and >= 1, got {s!r}")
    return s


class WeightFunction:
    """Positive weight sequence f(1), f(2), ... from a small grammar.

    Supported forms: ``identity`` (f(j) = j), ``pow:a`` (f(j) = j**a),
    ``log1p`` (f(j) = log(1+j)), and ``table:<path>`` (explicit values,
    one per line, which must cover every j up to the k in use).  An
    instance is a label and ``f``, which maps the float array j = 1..k to
    f(1..k).
    """

    def __init__(self, label: str, f):
        self.label = label
        self.f = f

    @classmethod
    def identity(cls) -> "WeightFunction":
        return cls("identity", lambda j: j)

    @classmethod
    def power(cls, a: float) -> "WeightFunction":
        a = check_real(a, "weight exponent")
        if not math.isfinite(a):  # checked here, since 1**a == 1 hides it at k = 1
            raise DomainError(f"weights pow:{a:g} must be finite and > 0: exponent not finite")
        return cls(f"pow:{a:g}", lambda j: j**a)

    @classmethod
    def log1p(cls) -> "WeightFunction":
        return cls("log1p", np.log1p)

    @classmethod
    def table(cls, values, label: str | None = None) -> "WeightFunction":
        arr = check_sample(values, "weight table")
        if (arr <= 0.0).any():
            raise DomainError("weight table entries must be finite and > 0")

        def f(j: np.ndarray) -> np.ndarray:
            if arr.size < j.size:
                raise DomainError(f"weight table has {arr.size} entries, need {j.size}")
            return arr[:j.size].copy()

        return cls(label or "table", f)

    @classmethod
    def from_spec(cls, spec: str) -> "WeightFunction":
        """Parse 'identity' | 'pow:<a>' | 'log1p' | 'table:<path>'."""
        text = spec.strip()
        if text == "identity":
            return cls.identity()
        if text == "log1p":
            return cls.log1p()
        if text.startswith("pow:"):
            try:
                a = float(text[4:])
            except ValueError:
                raise DomainError(f"bad weight exponent in {spec!r}") from None
            return cls.power(a)
        if text.startswith("table:"):
            path = text[6:]
            return cls.table(read_values_csv(path), label=text)
        raise DomainError(f"unknown weight spec {spec!r}")

    def weights(self, k: int) -> np.ndarray:
        """Evaluate f(1..k); table weights must cover k entries."""
        k = check_int(k, "k", 1)
        with np.errstate(over="ignore"):  # j**a = inf is refused just below
            w = self.f(np.arange(1, k + 1, dtype=np.float64))
        if not (0.0 < w.min() and w.max() < math.inf):  # NaN fails both
            raise DomainError(f"weights {self.label} must be finite and > 0 for j = 1..{k}")
        return w

    def __repr__(self):
        return f"WeightFunction({self.label!r})"


@dataclass(frozen=True, slots=True)
class TailStatistics:
    """Weighted-spacing statistics at a given (k, s) with their constants."""

    k: int
    s: float
    hill: float
    t_n: float
    a_n: float
    s_n: float
    b_n: float
    dh_estimate: float


def _weighted_power_sum(values: np.ndarray, w: np.ndarray, s: float) -> np.ndarray:
    """``sum_j w(j) * (X_{n-j+1,n} - X_{n-j,n})**s`` over the top ``w.size``
    spacings of ascending ``values`` along the last axis, one total per row;
    C-order, so numpy's vector loops treat each row as they treat one sample."""
    k = _top_count(values.shape[-1], w.size)  # a row too short for the weights is refused
    with np.errstate(over="ignore"):  # a spacing or total past the double range is refused below
        sp = np.diff(values[..., -(k + 1):], axis=-1)[..., ::-1].copy()
        total = np.sum(w * sp**s, axis=-1)
    zero = total == 0.0
    if zero.any():
        if (sp[zero] == 0.0).all(axis=-1).any():
            raise DegenerateSampleError(
                f"all top-{k} spacings are zero; weighted spacing sum degenerate"
            )
        raise DomainError(f"weighted spacing sum underflows float64 at s = {s!r}")
    if not np.isfinite(total).all():
        raise DomainError(f"weighted spacing sum overflows float64 at s = {s!r}")
    return total


def _hill(values: np.ndarray, k: int) -> float:
    """``(1/k) sum j * (top spacing j)`` of ascending ``values``, as a Python float."""
    k = _top_count(values.size, k)
    return float(_weighted_power_sum(values, np.arange(1, k + 1, dtype=np.float64), 1.0)) / k


def hill(sample: SortedSample, k: int) -> float:
    """Scaled-spacings estimate ``(1/k) sum j * (top spacing j)``.

    Raises DegenerateSampleError when all top-k spacings are zero (ties).
    """
    return _hill(sample.values, k)


@dataclass(frozen=True, slots=True)
class SpacingPlan:
    """The weights ``w = f(1..k)`` at power s with ``a_n``, ``s_n`` and
    ``b_n``, built once per (f, n, k, s) of a sample of n values before any
    spacing is reduced against them: rows to ``t_n`` by :meth:`sums`, one
    sample to all its statistics by :meth:`statistics`.  s_n(f, 1) waits for
    :meth:`conditions`: a statistic that is finite is not refused for a
    diagnostic it does not need."""

    n: int
    s: float
    w: np.ndarray
    a_n: float
    s_n: float
    b_n: float

    @classmethod
    def build(cls, f: WeightFunction, n: int, k: int, s: float) -> "SpacingPlan":
        n = check_int(n, "n", 2)
        k = _top_count(n, k)  # before f(1..k) is built
        return cls._of(n, f.weights(k), _power(s))

    @classmethod
    def _of(cls, n: int, w: np.ndarray, s: float) -> "SpacingPlan":
        j = np.arange(1, w.size + 1, dtype=np.float64)
        with np.errstate(over="ignore"):  # j**s = inf gives r = 0, its limit; s_n = inf is refused
            r = w / j**s
            squares = float(np.sum(r**2))
        # Gamma via log-gamma, a few ulp of lgamma (well under 1e-12).  Gamma(2s+1)
        # leaves the double range past s = 85.3, before Gamma(s+1) does past 170.6
        log_gamma2 = math.lgamma(2.0 * s + 1.0) if s < 86.0 else math.inf
        if log_gamma2 > _LOG_MAX:
            raise DomainError(f"Gamma(2s+1) overflows float64 at s = {s!r}")
        gamma1 = math.exp(math.lgamma(s + 1.0))
        c2 = math.exp(log_gamma2) - gamma1**2
        an, sn = gamma1 * float(np.sum(r)), math.sqrt(c2 * squares)
        if not (0.0 < an < math.inf and 0.0 < sn < math.inf):
            raise DomainError(f"normalizers a_n = {an!r}, s_n = {sn!r} must be finite and > 0")
        return cls(n, float(s), w, an, sn, float(np.max(r)) / sn)

    def conditions(self) -> dict:
        """CLT condition diagnostics at the plan's sample size n.

        k1     = k**(3/4) / log n                (Hill growth, must be small),
        ratio1 = s_n(f,1) / (s_n(f,s) * log n)  (must be small),
        bn     = Lindeberg ratio b_n(f, s)      (must be small),
        growth = a_n / s_n                      (must diverge for the
                                                 point-estimate form).
        """
        n = self.n
        sn1 = self._of(n, self.w, 1.0).s_n
        return {"k1": self.w.size**0.75 / math.log(n), "ratio1": sn1 / (self.s_n * math.log(n)),
                "bn": self.b_n, "growth": self.a_n / self.s_n}

    def sums(self, top: np.ndarray) -> np.ndarray:
        """``t_n`` of each row of ``top`` (ascending along the last axis), one
        weighted sum per row."""
        return _weighted_power_sum(top, self.w, self.s)

    def statistics(self, values: np.ndarray) -> TailStatistics:
        """The statistics of one ascending sample, as Python floats; a
        ``t_n / a_n`` past the double range raises DomainError."""
        k, s, an = self.w.size, self.s, self.a_n
        t = float(_weighted_power_sum(values, self.w, s))
        ratio = t / an
        if not math.isfinite(ratio):
            raise DomainError(f"t_n / a_n overflows float64 at s = {s!r} (a_n = {an!r})")
        return TailStatistics(k=k, s=s, hill=_hill(values, k), t_n=t, a_n=an, s_n=self.s_n,
                              b_n=self.b_n, dh_estimate=ratio ** (1.0 / s))


def dh_statistic(sample: SortedSample, f: WeightFunction, k: int, s: float) -> TailStatistics:
    """All weighted-spacing statistics of the sample at (f, k, s)."""
    return SpacingPlan.build(f, sample.n, k, s).statistics(sample.values)


def default_k(n: int) -> int:
    """Default top-sample size ``min(max(5, floor((log n)**(4/5))), n - 1)``.

    The cap keeps k a valid spacing count (at most n - 1); it binds only
    for n <= 5.
    """
    n = check_int(n, "n", 2)
    return min(max(5, int(math.floor(math.log(n) ** 0.8))), n - 1)


def check_dh_conditions(f: WeightFunction, n: int, k: int, s: float) -> dict:
    """``ratio1``, ``bn`` and ``growth`` of :meth:`SpacingPlan.conditions` at n."""
    return {key: v for key, v in SpacingPlan.build(f, n, k, s).conditions().items() if key != "k1"}
