"""Upper quantiles of the Pseudo-Lindley law and their tail expansions.

The tail quantile ``x = Q(u)`` solves ``(beta + theta*x) * exp(-theta*x)
= beta * u`` for a tail mass ``u`` in (0, 1).  In the scale-free variable
``y = theta*x`` the root satisfies the fixed-point identity

    y = L + log(x) + log(1 + R/x) - log(R),    L = log(1/u),  R = beta/theta,

equivalently ``y = L + log1p(y/beta)``, which is solved by a bracketed
Newton iteration on the log of the survival function.  The iteration has
two implementations: a scalar loop for the one-value entry points and a
vectorized numpy one for arrays, because a numpy solve on a single value
costs about 33 times the scalar call (80 us against 2.4 us, numpy 2.4).
The array solver steps only the values that have not settled, in blocks
of 2**14.  Expanding the fixed point gives the two-term asymptotic

    Q(u) = (L + log(L) - log(beta)) / theta + O(log(L)/L),

the additive ``+log(L)`` reflecting that the polynomial factor
``(beta + theta*x)`` thickens the tail relative to a pure exponential.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distribution import Params, _blockwise, _in_data_units
from .errors import DomainError, check_real, check_real_array

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
    u = check_real(u, "tail mass")
    if not (0.0 < u < 1.0) or not math.isfinite(u):
        raise DomainError(f"tail mass must lie strictly in (0, 1), got {u!r}")
    return u


def _solve_scaled(L: float, beta: float):
    """Newton with a bisection bracket on h(y) = log1p(y/beta) - y + L.

    Called once per value, so the loop invariants are hoisted and ``max(a,
    b)`` is spelled ``b if b > a else a``, which gives max's result, a NaN
    ``b`` included.
    """
    log1p = math.log1p
    y = L + log1p(L / beta)  # first fixed-point iterate; lands left of root
    lo, hi = y, math.inf
    eps8, abs_l = 8.0 * _EPS, abs(L)
    iterations = 0
    for iterations in range(1, _MAXITER + 1):
        h = log1p(y / beta) - y + L
        if h > 0.0:
            lo = y
        else:
            hi = y
        scale = abs_l + y
        noise = eps8 * (scale if scale > 1.0 else 1.0)
        if abs(h) <= (noise if noise > _TOL else _TOL):
            break
        hp = 1.0 / (beta + y) - 1.0
        cand = y - h / hp
        if not (lo < cand < hi):
            cand = y + (y if y > 1.0 else 1.0) if math.isinf(hi) else 0.5 * (lo + hi)
        if cand == y:
            break
        y = cand
    return y, iterations


def _solve_block(L, beta):
    """The array Newton loop of :func:`_solve_scaled_array` on one 1-d block.

    A value is written to ``out`` and leaves the working arrays (``at``
    holds each one's place in ``out``) once it sits at a fixed point of the
    step: its residual is within tolerance, or its step leaves y unchanged.
    Each step computes into the block's scratch arrays (cut to the values
    left) rather than into fresh ones, in the order the expressions in the
    comments give, so the bits are those of the expressions.  ``L`` is
    read, never written.
    """
    y = np.divide(L, beta)
    np.log1p(y, out=y)
    y += L  # y = L + log1p(L/beta), the first fixed-point iterate; lands left of root
    lo = y.copy()
    hi = np.full_like(y, np.inf)
    out = np.empty_like(y)
    at = np.arange(y.size)
    h, step, scratch = np.empty_like(y), np.empty_like(y), np.empty_like(y)
    flags, more = np.empty(y.size, dtype=bool), np.empty(y.size, dtype=bool)
    for _ in range(_MAXITER):
        h, step, scratch, flags, more = (a[:y.size] for a in (h, step, scratch, flags, more))
        np.divide(y, beta, out=h)
        np.log1p(h, out=h)
        h -= y
        h += L  # h = log1p(y/beta) - y + L
        noise = np.abs(L, out=step)
        noise += y
        np.maximum(noise, 1.0, out=noise)
        noise *= 8.0 * _EPS  # noise = 8 eps max(1, |L| + y)
        np.maximum(noise, _TOL, out=noise)
        active = np.greater(np.abs(h, out=scratch), noise, out=flags)  # |h| > max(tol, noise)
        if not active.all():  # written now; those still active are rewritten later
            out[at] = y
            keep = np.flatnonzero(active)
            at, y, L, lo, hi, h = (a.take(keep) for a in (at, y, L, lo, hi, h))
            step, flags, more = step[:at.size], flags[:at.size], more[:at.size]
        if not at.size:
            break
        pos = np.greater(h, 0.0, out=flags)
        np.copyto(lo, y, where=pos)
        np.copyto(hi, y, where=np.logical_not(pos, out=pos))
        cand = np.add(y, beta, out=step)
        np.divide(1.0, cand, out=cand)
        cand -= 1.0  # hp = 1/(beta + y) - 1
        np.divide(h, cand, out=cand)
        np.subtract(y, cand, out=cand)  # cand = y - h/hp
        inside = np.greater(cand, lo, out=flags)
        inside &= np.less(cand, hi, out=more)
        if not inside.all():
            mid = np.where(np.isinf(hi), y + np.maximum(1.0, y), 0.5 * (lo + hi))
            np.copyto(cand, mid, where=np.logical_not(inside, out=inside))
        moved = np.not_equal(cand, y, out=flags)
        if not moved.all():
            out[at] = y
            keep = np.flatnonzero(moved)
            at, cand, L, lo, hi = (a.take(keep) for a in (at, cand, L, lo, hi))
        y, step = cand, y
    out[at] = y
    return out


def _solve_scaled_array(log_inv_u, beta):
    """Solve log1p(y/beta) - y + L = 0 elementwise for y = theta * x.

    L = log(1/u) is the log of the tail mass, so y is the upper quantile
    in the scale-free variable theta*x (theta enters only as the caller's
    final division).  h(y) is strictly decreasing and concave on y >= 0,
    so a Newton iteration started left of the root overshoots once and
    then converges monotonically from the right; a bisection bracket is
    kept as a safeguard.

    The loop runs over blocks of 2**14 values of the flattened input,
    so that the temporaries of each step stay in cache rather than being
    fresh arrays the size of the input, and steps only the values that
    have not settled.  A value settles once its residual is within
    tolerance or its step leaves it unchanged; its state depends on its
    own history only, and a further step would reproduce it.  So the
    bits depend neither on the block size nor on a value's neighbours.
    """
    L = np.asarray(log_inv_u, dtype=np.float64, order="C")
    y = _blockwise(lambda block: _solve_block(block, beta), L.reshape(-1))
    return float(y[0]) if L.ndim == 0 else y.reshape(L.shape)


def quantile_exact(u: float, p: Params) -> QuantileResult:
    """Upper quantile: the x with ``survival(x) == u``.

    The iteration runs on ``h(y) = log survival(y/theta) + log(1/u)`` in
    ``y = theta*x``, started from the first fixed-point iterate, and is
    monotone once bracketed.  It stops once ``|h(y)| <= max(1e-13,
    8*eps*max(1, log(1/u) + y))``: the ~1e-13 is a bound on that residual,
    not on x.  The result carries the quantile and the number of Newton
    steps.  Raises DomainError when the quantile is not finite.
    """
    return quantile_from_log_tail(-math.log(_check_tail_mass(u)), p)


def quantile_from_log_tail(log_inv_u: float, p: Params) -> QuantileResult:
    """Same root solve parameterized by ``L = log(1/u)``.

    Works for arbitrarily deep tails (e.g. L ~ thousands) where the tail
    mass itself would underflow; the stopping rule bounds the log-scale
    residual ``log survival(x) + L`` as in :func:`quantile_exact`.
    """
    L = check_real(log_inv_u, "log(1/u)")
    if not (L > 0.0) or not math.isfinite(L):
        raise DomainError(f"log(1/u) must be finite and > 0, got {log_inv_u!r}")
    y, iterations = _solve_scaled(L, p.beta)
    return QuantileResult(_in_data_units(y, p, "quantile"), iterations)


def _quantiles_at_log_tails(log_inv_u: np.ndarray, p: Params) -> np.ndarray:
    """Quantiles at an array of ``L = log(1/u)`` by the array solver.

    The array form of :func:`quantile_from_log_tail`, with its refusals:
    DomainError unless every L is finite and > 0 and every quantile finite.
    It can differ from the scalar loop in the last bit (numpy's log1p is
    not libm's).
    """
    if not (np.isfinite(log_inv_u) & (log_inv_u > 0.0)).all():
        raise DomainError(
            "tail masses must lie strictly in (0, 1): log(1/u) must be finite and > 0"
        )
    return _in_data_units(_solve_scaled_array(log_inv_u, p.beta), p, "quantile")


def quantile_values(u, p: Params) -> np.ndarray:
    """Vectorized quantiles for an array of tail masses (array solver).

    Raises DomainError unless the tail masses are reals strictly in (0, 1)
    and every quantile is finite.
    """
    arr = check_real_array(u, "tail masses")
    with np.errstate(divide="ignore", invalid="ignore"):  # u outside (0, 1): an L refused below
        log_inv_u = -np.log(arr)
    return _quantiles_at_log_tails(log_inv_u, p)


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
    return _in_data_units(L + math.log(L) - math.log(p.beta), p, "quantile")
