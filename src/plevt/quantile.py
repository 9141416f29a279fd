"""Upper quantiles of the Pseudo-Lindley law and their tail expansions.

The tail quantile ``x = Q(u)`` solves ``(beta + theta*x) * exp(-theta*x)
= beta * u`` for a tail mass ``u`` in (0, 1).  In the scale-free variable
``y = theta*x`` the root satisfies the fixed-point identity

    y = L + log(x) + log(1 + R/x) - log(R),    L = log(1/u),  R = beta/theta,

equivalently ``y = L + log1p(y/beta)``, which is solved by a bracketed
Newton iteration on the log of the survival function.  The iteration has
two implementations: a scalar loop for the one-value entry points and a
vectorized numpy one for arrays, because a numpy solve on a single value
costs 30 to 40 times more than the scalar loop.  Expanding the fixed point
gives the two-term asymptotic

    Q(u) = (L + log(L) - log(beta)) / theta + O(log(L)/L),

the additive ``+log(L)`` reflecting that the polynomial factor
``(beta + theta*x)`` thickens the tail relative to a pure exponential.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distribution import Params
from .errors import DomainError

__all__ = [
    "QuantileResult",
    "quantile_exact",
    "quantile_from_log_tail",
    "quantile_values",
    "quantile_tail_expansion",
]

_EPS = float(np.finfo(np.float64).eps)

#: Residual tolerance and step cap of both solvers (see quantile_exact).
_TOL = 1e-13
_MAXITER = 200


@dataclass(frozen=True, slots=True)
class QuantileResult:
    """Root-solve outcome: the quantile and the Newton steps it took."""

    value: float
    iterations: int


def _check_tail_mass(u: float) -> float:
    u = float(u)
    if not (0.0 < u < 1.0) or not math.isfinite(u):
        raise DomainError(f"tail mass must lie strictly in (0, 1), got {u!r}")
    return u


def _solve_scaled(L: float, beta: float):
    """Newton with a bisection bracket on h(y) = log1p(y/beta) - y + L."""
    y = L + math.log1p(L / beta)
    lo, hi = 0.0, math.inf
    iterations = 0
    for iterations in range(1, _MAXITER + 1):
        h = math.log1p(y / beta) - y + L
        if h > 0.0:
            lo = y
        else:
            hi = y
        noise = 8.0 * _EPS * max(1.0, abs(L) + y)
        if abs(h) <= max(_TOL, noise):
            break
        hp = 1.0 / (beta + y) - 1.0
        cand = y - h / hp
        if not (lo < cand < hi):
            cand = y + max(1.0, y) if math.isinf(hi) else 0.5 * (lo + hi)
        if cand == y:
            break
        y = cand
    return y, iterations


def _solve_scaled_array(log_inv_u, beta):
    """Solve log1p(y/beta) - y + L = 0 elementwise for y = theta * x.

    L = log(1/u) is the log of the tail mass, so y is the upper quantile
    in the scale-free variable theta*x (theta enters only as the caller's
    final division).  h(y) is strictly decreasing and concave on y >= 0,
    so a Newton iteration started left of the root overshoots once and
    then converges monotonically from the right; a bisection bracket is
    kept as a safeguard.
    """
    L = np.asarray(log_inv_u, dtype=np.float64)
    scalar = L.ndim == 0
    L = np.atleast_1d(L)
    y = L + np.log1p(L / beta)  # first fixed-point iterate; lands left of root
    lo = y.copy()
    hi = np.full_like(y, np.inf)
    for _ in range(_MAXITER):
        h = np.log1p(y / beta) - y + L
        pos = h > 0.0
        lo = np.where(pos, y, lo)
        hi = np.where(pos, hi, y)
        noise = 8.0 * _EPS * np.maximum(1.0, np.abs(L) + y)
        active = np.abs(h) > np.maximum(_TOL, noise)
        if not active.any():
            break
        hp = 1.0 / (beta + y) - 1.0
        step = h / hp
        cand = y - step
        inside = (cand > lo) & (cand < hi)
        mid = np.where(np.isinf(hi), y + np.maximum(1.0, y), 0.5 * (lo + hi))
        cand = np.where(inside, cand, mid)
        newy = np.where(active, cand, y)
        if np.array_equal(newy, y):
            break
        y = newy
    return float(y[0]) if scalar else y


def _check_finite(x: float, p: Params) -> float:
    if not math.isfinite(x):
        raise DomainError(f"quantile overflows float64 for {p}")
    return x


def quantile_exact(u: float, p: Params) -> QuantileResult:
    """Upper quantile: the x with ``survival(x) == u``.

    The iteration runs on ``h(y) = log survival(y/theta) + log(1/u)`` in
    ``y = theta*x``, started from the first fixed-point iterate, and is
    monotone once bracketed.  It stops once ``|h(y)| <= max(1e-13,
    8*eps*max(1, log(1/u) + y))``: the ~1e-13 is a bound on that residual,
    not on x.  The result carries the quantile and the number of Newton
    steps.  Raises DomainError when the quantile is not finite.
    """
    u = _check_tail_mass(u)
    y, iterations = _solve_scaled(-math.log(u), p.beta)
    return QuantileResult(_check_finite(y / p.theta, p), iterations)


def quantile_from_log_tail(log_inv_u: float, p: Params) -> QuantileResult:
    """Same root solve parameterized by ``L = log(1/u)``.

    Works for arbitrarily deep tails (e.g. L ~ thousands) where the tail
    mass itself would underflow; the stopping rule bounds the log-scale
    residual ``log survival(x) + L`` as in :func:`quantile_exact`.
    """
    L = float(log_inv_u)
    if not (L > 0.0) or not math.isfinite(L):
        raise DomainError(f"log(1/u) must be finite and > 0, got {log_inv_u!r}")
    y, iterations = _solve_scaled(L, p.beta)
    return QuantileResult(_check_finite(y / p.theta, p), iterations)


def quantile_values(u, p: Params) -> np.ndarray:
    """Vectorized quantiles for an array of tail masses (array solver)."""
    arr = np.asarray(u, dtype=np.float64)
    if arr.size and (not np.isfinite(arr).all() or (arr <= 0.0).any() or (arr >= 1.0).any()):
        raise DomainError("tail masses must lie strictly in (0, 1)")
    with np.errstate(over="ignore"):  # an infinite x is refused just below
        x = _solve_scaled_array(-np.log(arr), p.beta) / p.theta
    if not np.isfinite(x).all():
        raise DomainError(f"quantile overflows float64 for {p}")
    return x


def quantile_tail_expansion(u: float, p: Params) -> float:
    """Two-term tail expansion ``(L + log(L) - log(beta)) / theta``.

    Needs ``L = log(1/u) > 1`` (tail mass below 1/e) so that log(L) is
    positive.  The error against the exact quantile is O(log(L)/L) and
    decreases monotonically along the tail.
    """
    L = -math.log(_check_tail_mass(u))
    if L <= 1.0:
        raise DomainError(
            f"tail expansion needs log(1/u) > 1 (u < 1/e), got log(1/u)={L!r}"
        )
    return _check_finite((L + math.log(L) - math.log(p.beta)) / p.theta, p)
