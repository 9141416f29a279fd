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

``SpacingPlan`` builds a_n, s_n and b_n once per (f, k, s), in one pass over
the ratios f(j)/j**s; samples are reduced and diagnostics read against it.
Normalizers that are not finite and > 0, Gamma(2s+1) past the double range
(s above about 85.3), an overflowing spacing, t_n or t_n / a_n raise DomainError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import DegenerateSampleError, DomainError, check_int, check_real, check_sample
from .sampling import SortedSample, _top_count, read_values_csv, spacings, top_spacings

__all__ = [
    "WeightFunction",
    "TailStatistics",
    "hill",
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


def _weighted_power_sum(sp: np.ndarray, w: np.ndarray, s: float) -> np.ndarray:
    """``sum_j w(j) * sp_j**s`` along the last axis, one total per row."""
    with np.errstate(over="ignore"):  # an infinite total is refused just below
        total = np.sum(w * sp**s, axis=-1)
    if (total == 0.0).any():
        raise DegenerateSampleError(
            f"all top-{sp.shape[-1]} spacings are zero; weighted spacing sum degenerate"
        )
    if not np.isfinite(total).all():
        raise DomainError(f"weighted spacing sum overflows float64 at s = {s!r}")
    return total


def hill(sample: SortedSample, k: int) -> float:
    """Scaled-spacings estimate ``(1/k) sum j * (top spacing j)``.

    Raises DegenerateSampleError when all top-k spacings are zero (ties).
    """
    sp = spacings(sample, k)
    j = np.arange(1, k + 1, dtype=np.float64)
    return float(_weighted_power_sum(sp, j, 1.0)) / k


@dataclass(frozen=True, slots=True)
class SpacingPlan:
    """The weights ``w = f(1..k)`` at power s with ``a_n``, ``s_n`` and
    ``b_n``, built once per (f, k, s) before any spacing is reduced against
    them.  s_n(f, 1) waits for :meth:`conditions`: a statistic that is
    finite is not refused for a diagnostic it does not need."""

    s: float
    w: np.ndarray
    a_n: float
    s_n: float
    b_n: float

    @classmethod
    def build(cls, f: WeightFunction, k: int, s: float) -> "SpacingPlan":
        return cls._of(f.weights(k), check_real(s, "power s"))

    @classmethod
    def _of(cls, w: np.ndarray, s: float) -> "SpacingPlan":
        if not (s >= 1.0 and math.isfinite(s)):
            raise DomainError(f"power s must be finite and >= 1, got {s!r}")
        j = np.arange(1, w.size + 1, dtype=np.float64)
        with np.errstate(over="ignore"):  # j**s = inf gives r = 0, its limit; s_n = inf is refused
            r = w / j**s
            squares = float(np.sum(r**2))
        try:  # Gamma(s+1) leaves the double range past s = 170.6, Gamma(2s+1) past 85.3
            gamma1 = _gamma_fn(s + 1.0)
            c2 = _gamma_fn(2.0 * s + 1.0) - gamma1**2
        except OverflowError:
            raise DomainError(f"Gamma(2s+1) overflows float64 at s = {s!r}") from None
        an, sn = gamma1 * float(np.sum(r)), math.sqrt(c2 * squares)
        if not (0.0 < an < math.inf and 0.0 < sn < math.inf):
            raise DomainError(f"normalizers a_n = {an!r}, s_n = {sn!r} must be finite and > 0")
        return cls(float(s), w, an, sn, float(np.max(r)) / sn)

    def conditions(self, n: int) -> dict:
        """CLT condition diagnostics at sample size n.

        k1     = k**(3/4) / log n                (Hill growth, must be small),
        ratio1 = s_n(f,1) / (s_n(f,s) * log n)  (must be small),
        bn     = Lindeberg ratio b_n(f, s)      (must be small),
        growth = a_n / s_n                      (must diverge for the
                                                 point-estimate form).
        """
        sn1 = self._of(self.w, 1.0).s_n
        return {"k1": check_k1(n, self.w.size), "ratio1": sn1 / (self.s_n * math.log(n)),
                "bn": self.b_n, "growth": self.a_n / self.s_n}

    def rows(self, top: np.ndarray) -> TailStatistics:
        """Statistics of each row of ``top`` (ascending along the last axis):
        arrays, or numpy scalars for a 1-d ``top``.  The estimate takes the C
        library's ``pow`` one value at a time, so each row matches its one-sample
        result: numpy's vector power (and its sqrt at s = 2) can differ in the last bit."""
        k, s, an = self.w.size, self.s, self.a_n
        sp = top_spacings(top, k)
        t = _weighted_power_sum(sp, self.w, s)
        with np.errstate(over="ignore"):  # an infinite ratio is refused just below
            ratio = t / an
        if not np.isfinite(ratio).all():
            raise DomainError(f"t_n / a_n overflows float64 at s = {s!r} (a_n = {an!r})")
        j = np.arange(1, k + 1, dtype=np.float64)
        root = [r ** (1.0 / s) for r in np.ravel(ratio).tolist()]
        return TailStatistics(
            k=k, s=s, hill=_weighted_power_sum(sp, j, 1.0) / k, t_n=t, a_n=an,
            s_n=self.s_n, b_n=self.b_n, dh_estimate=np.reshape(root, np.shape(t))[()],
        )


def dh_statistic(sample: SortedSample, f: WeightFunction, k: int, s: float) -> TailStatistics:
    """All weighted-spacing statistics of the sample at (f, k, s)."""
    _top_count(sample.n, k)  # before f(1..k) is built
    ts = SpacingPlan.build(f, k, s).rows(sample.values)
    return replace(ts, hill=float(ts.hill), t_n=float(ts.t_n), dh_estimate=float(ts.dh_estimate))


def standardize_dh(ts: TailStatistics, gamma: float) -> tuple[float, float]:
    """Standardized pair at a known gamma (elementwise for row statistics).

    Returns ``z_a = (t_n - gamma**s * a_n) / s_n`` (limit N(0, gamma**(2s)))
    and ``z_b = (a_n / s_n) * (dh_estimate - gamma)`` (limit N(0, gamma**2 / s**2));
    DomainError unless gamma is a finite real > 0 and both are finite.
    """
    gamma = check_real(gamma, "gamma")
    try:
        with np.errstate(over="ignore"):  # a pair that is not finite is refused just below
            z_a = (ts.t_n - gamma**ts.s * ts.a_n) / ts.s_n
            z_b = (ts.a_n / ts.s_n) * (ts.dh_estimate - gamma)
    except OverflowError:  # gamma**s past the double range
        z_a = z_b = math.inf
    if not (gamma > 0.0 and np.isfinite(z_a).all() and np.isfinite(z_b).all()):
        raise DomainError(f"gamma must be finite and > 0 and give a finite pair, got {gamma!r}")
    return z_a, z_b


def check_k1(n: int, k: int) -> float:
    """Growth diagnostic ``k**(3/4) / log n``; small means k is admissible."""
    n, k = check_int(n, "n", 2), check_int(k, "k", 1)
    return k**0.75 / math.log(n)


def default_k(n: int) -> int:
    """Default top-sample size ``max(5, floor((log n)**(4/5)))``."""
    return max(5, int(math.floor(math.log(check_int(n, "n", 2)) ** 0.8)))


def check_dh_conditions(f: WeightFunction, n: int, k: int, s: float) -> dict:
    """``ratio1``, ``bn`` and ``growth`` of :meth:`SpacingPlan.conditions` at n."""
    return {key: v for key, v in SpacingPlan.build(f, k, s).conditions(n).items() if key != "k1"}
