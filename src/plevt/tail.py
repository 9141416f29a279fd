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
the diagnostic ``check_k1 = k**(3/4) / log n``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import DegenerateSampleError, DomainError
from .sampling import SortedSample, read_values_csv, spacings, top_spacings

__all__ = [
    "WeightFunction",
    "TailStatistics",
    "hill",
    "a_n",
    "s_n",
    "b_n",
    "dh_statistic",
    "standardize_dh",
    "check_k1",
    "check_dh_conditions",
    "default_k",
]


def _gamma_fn(z: float) -> float:
    # via log-gamma; relative error a few ulp of lgamma, well under 1e-12
    return math.exp(math.lgamma(z))


class WeightFunction:
    """Positive weight sequence f(1), f(2), ... from a small grammar.

    Supported forms: ``identity`` (f(j) = j), ``pow:a`` (f(j) = j**a),
    ``log1p`` (f(j) = log(1+j)), and ``table:<path>`` (explicit values,
    one per line, which must cover every j up to the k in use).
    """

    def __init__(self, kind: str, exponent: float | None = None,
                 values: np.ndarray | None = None, label: str | None = None):
        if kind not in ("identity", "pow", "log1p", "table"):
            raise DomainError(f"unknown weight kind {kind!r}")
        self.kind = kind
        self.exponent = exponent
        self.values = None if values is None else np.asarray(values, dtype=np.float64)
        self.label = label or kind

    @classmethod
    def identity(cls) -> "WeightFunction":
        return cls("identity", label="identity")

    @classmethod
    def power(cls, a: float) -> "WeightFunction":
        return cls("pow", exponent=float(a), label=f"pow:{a:g}")

    @classmethod
    def log1p(cls) -> "WeightFunction":
        return cls("log1p", label="log1p")

    @classmethod
    def table(cls, values, label: str | None = None) -> "WeightFunction":
        arr = np.asarray(values, dtype=np.float64)
        if arr.ndim != 1 or arr.size == 0:
            raise DomainError("weight table must be a non-empty 1-d array")
        if not np.isfinite(arr).all() or (arr <= 0.0).any():
            raise DomainError("weight table entries must be finite and > 0")
        return cls("table", values=arr, label=label or "table")

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
        if k < 1:
            raise DomainError(f"k must be >= 1, got {k}")
        j = np.arange(1, k + 1, dtype=np.float64)
        if self.kind == "identity":
            return j
        if self.kind == "pow":
            return j**self.exponent
        if self.kind == "log1p":
            return np.log1p(j)
        if self.values.size < k:
            raise DomainError(
                f"weight table has {self.values.size} entries, need {k}"
            )
        return self.values[:k].copy()

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


def _weighted_power_sum(sp: np.ndarray, w: np.ndarray, s: float) -> np.ndarray:
    """``sum_j w(j) * sp_j**s`` along the last axis, one total per row."""
    total = np.sum(w * sp**s, axis=-1)
    if (total == 0.0).any():
        raise DegenerateSampleError(
            f"all top-{sp.shape[-1]} spacings are zero; weighted spacing sum degenerate"
        )
    return total


def hill(sample: SortedSample, k: int) -> float:
    """Scaled-spacings estimate ``(1/k) sum j * (top spacing j)``.

    Raises DegenerateSampleError when all top-k spacings are zero (ties).
    """
    sp = spacings(sample, k)
    j = np.arange(1, k + 1, dtype=np.float64)
    return float(_weighted_power_sum(sp, j, 1.0)) / k


def _ratios(f: WeightFunction, k: int, s: float) -> np.ndarray:
    j = np.arange(1, k + 1, dtype=np.float64)
    return f.weights(k) / j**s


def a_n(f: WeightFunction, k: int, s: float) -> float:
    """Centering constant ``Gamma(s+1) * sum_j f(j)/j**s``."""
    _check_s(s)
    return _gamma_fn(s + 1.0) * float(np.sum(_ratios(f, k, s)))


def s_n(f: WeightFunction, k: int, s: float) -> float:
    """Scale constant; the variance factor is Gamma(2s+1) - Gamma(s+1)**2."""
    _check_s(s)
    c2 = _gamma_fn(2.0 * s + 1.0) - _gamma_fn(s + 1.0) ** 2
    return math.sqrt(c2 * float(np.sum(_ratios(f, k, s) ** 2)))


def b_n(f: WeightFunction, k: int, s: float) -> float:
    """Lindeberg ratio ``max_j (f(j)/j**s) / s_n``; must vanish for the CLT."""
    return float(np.max(_ratios(f, k, s))) / s_n(f, k, s)


def _check_s(s: float) -> None:
    if not (s >= 1.0 and math.isfinite(s)):
        raise DomainError(f"power s must be finite and >= 1, got {s!r}")


def dh_statistic(sample: SortedSample, f: WeightFunction, k: int, s: float) -> TailStatistics:
    """All weighted-spacing statistics of the sample at (f, k, s)."""
    ts = dh_statistic_rows(sample.values, f, k, s)
    return replace(ts, hill=float(ts.hill), t_n=float(ts.t_n), dh_estimate=float(ts.dh_estimate))


def dh_statistic_rows(top: np.ndarray, f: WeightFunction, k: int, s: float) -> TailStatistics:
    """:func:`dh_statistic` of each row of ``top`` (ascending along the last
    axis), as arrays, with the constants computed once.  The estimate uses
    the C library's ``pow`` one value at a time, as for one sample: numpy's
    vector power (and its sqrt at s = 2) can differ from it in the last bit."""
    _check_s(s)
    sp = top_spacings(top, k)
    w = f.weights(k)
    t = _weighted_power_sum(sp, w, s)
    an = a_n(f, k, s)
    sn = s_n(f, k, s)
    j = np.arange(1, k + 1, dtype=np.float64)
    root = [r ** (1.0 / s) for r in np.ravel(t / an).tolist()]
    return TailStatistics(
        k=k,
        s=float(s),
        hill=_weighted_power_sum(sp, j, 1.0) / k,
        t_n=t,
        a_n=an,
        s_n=sn,
        b_n=float(np.max(w / j**s)) / sn,
        dh_estimate=np.reshape(root, np.shape(t)),
    )


def standardize_dh(ts: TailStatistics, gamma: float) -> tuple[float, float]:
    """Standardized pair at a known gamma (elementwise for row statistics).

    Returns ``z_a = (t_n - gamma**s * a_n) / s_n`` (limit N(0, gamma**(2s)))
    and ``z_b = (a_n / s_n) * (dh_estimate - gamma)`` (limit N(0, gamma**2 / s**2)).
    """
    if not (gamma > 0.0 and math.isfinite(gamma)):
        raise DomainError(f"gamma must be finite and > 0, got {gamma!r}")
    z_a = (ts.t_n - gamma**ts.s * ts.a_n) / ts.s_n
    z_b = (ts.a_n / ts.s_n) * (ts.dh_estimate - gamma)
    return z_a, z_b


def check_k1(n: int, k: int) -> float:
    """Growth diagnostic ``k**(3/4) / log n``; small means k is admissible."""
    if n < 2:
        raise DomainError(f"n must be >= 2, got {n}")
    if k < 1:
        raise DomainError(f"k must be >= 1, got {k}")
    return k**0.75 / math.log(n)


def default_k(n: int) -> int:
    """Default top-sample size ``max(5, floor((log n)**(4/5)))``."""
    if n < 2:
        raise DomainError(f"n must be >= 2, got {n}")
    return max(5, int(math.floor(math.log(n) ** 0.8)))


def check_dh_conditions(f: WeightFunction, n: int, k: int, s: float) -> dict:
    """CLT condition diagnostics for the weighted statistic.

    ratio1 = s_n(f,1) / (s_n(f,s) * log n)  (must be small),
    bn     = Lindeberg ratio b_n(f, s)      (must be small),
    growth = a_n / s_n                      (must diverge for the
                                             point-estimate form).
    """
    if n < 2:
        raise DomainError(f"n must be >= 2, got {n}")
    return {
        "ratio1": s_n(f, k, 1.0) / (s_n(f, k, s) * math.log(n)),
        "bn": b_n(f, k, s),
        "growth": a_n(f, k, s) / s_n(f, k, s),
    }
