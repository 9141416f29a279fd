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
The array form runs in the one block loop of the array kernels,
``distribution._blockwise``: each block of 2**14 values has -log(u)
computed into its slice of the output, solved, and divided by theta into
the same slice.  Within a block a settled value stays in place, and the
working arrays drop the settled values only once they are at least half.
Expanding the fixed point gives the two-term asymptotic

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
    if not 0.0 < u < 1.0:
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
        noise = eps8 * (abs_l + y)
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
    """The array Newton loop on one 1-d block of ``L = log(1/u)``: y = theta*x.

    h(y) = log1p(y/beta) - y + L is strictly decreasing and concave on
    y >= 0, so Newton started left of the root overshoots once and then
    converges monotonically from the right; a bisection bracket is kept as
    a safeguard.  A value settles once its residual is within tolerance or
    its step leaves y unchanged.  It then stays in the working arrays with
    its candidate reset to y, a fixed point of the step: the same y, h, lo
    and hi give the same candidate.  The working arrays are compacted to
    the values still moving (``at`` then holds each one's place in
    ``out``) only once at least half of them have settled, so a few values
    that settle a step before the rest stay where they are.
    Each step computes into the block's scratch arrays rather than into
    fresh ones, in the order the expressions in the comments give, so the
    bits are those of the expressions and depend neither on the block nor
    on a value's neighbours.  ``L`` is read, never written.
    """
    y = np.divide(L, beta)
    np.log1p(y, out=y)
    y += L  # y = L + log1p(L/beta), the first fixed-point iterate; lands left of root
    lo = y.copy()
    hi = np.full_like(y, np.inf)
    out = at = None
    h, step, scratch = np.empty_like(y), np.empty_like(y), np.empty_like(y)
    live = np.ones(y.size, dtype=bool)  # the values not settled yet
    flags, more = np.empty(y.size, dtype=bool), np.empty(y.size, dtype=bool)
    for _ in range(_MAXITER):
        np.divide(y, beta, out=h)
        np.log1p(h, out=h)
        h -= y
        h += L  # h = log1p(y/beta) - y + L
        noise = np.abs(L, out=step)
        noise += y
        noise *= 8.0 * _EPS  # noise = 8 eps (|L| + y)
        np.maximum(noise, _TOL, out=noise)
        live &= np.greater(np.abs(h, out=scratch), noise, out=flags)  # |h| > max(tol, noise)
        moving = np.count_nonzero(live)
        if not moving:
            break
        if 2 * moving <= live.size:  # at least half have settled: drop them
            keep = np.flatnonzero(live)
            if at is None:  # the settled values are in their places already
                out, at = y, keep
            else:
                out[at] = y
                at = at.take(keep)
            y, L, lo, hi, h = (a.take(keep) for a in (y, L, lo, hi, h))
            step, scratch, live, flags, more = (
                a[:moving] for a in (step, scratch, live, flags, more))
            live.fill(True)
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
        if moving < live.size:  # no fallback for a settled value: its candidate is reset below
            inside |= np.logical_not(live, out=more)
        if not inside.all():
            mid = np.where(np.isinf(hi), y + np.maximum(1.0, y), 0.5 * (lo + hi))
            np.copyto(cand, mid, where=np.logical_not(inside, out=inside))
        live &= np.not_equal(cand, y, out=flags)
        if not live.all():
            np.copyto(cand, y, where=np.logical_not(live, out=flags))
        y, step = cand, y
    if at is None:
        return y
    out[at] = y
    return out


def _solve_into(L, out, p: Params):
    """Quantiles at a 1-d block of ``L = log(1/u)``, divided by theta into
    ``out``, which may be L itself: the solve reads L and returns its own
    array; DomainError at a quantile past the double range."""
    _in_data_units(_solve_block(L, p.beta), p, "quantile", out)


def quantile_exact(u: float, p: Params) -> QuantileResult:
    """Upper quantile: the x with ``survival(x) == u``.

    The iteration runs on ``h(y) = log survival(y/theta) + log(1/u)`` in
    ``y = theta*x``, started from the first fixed-point iterate, and is
    monotone once bracketed.  It stops once ``|h(y)| <= max(1e-13,
    8*eps*(log(1/u) + y))``: the ~1e-13 is a bound on that residual,
    not on x.  The result carries the quantile and the number of Newton
    steps.  Raises DomainError when the quantile is not finite.
    """
    y, iterations = _solve_scaled(-math.log(_check_tail_mass(u)), p.beta)
    return QuantileResult(_in_data_units(y, p, "quantile"), iterations)


def _check_log_tail(log_inv_u) -> float:
    L = check_real(log_inv_u, "log(1/u)")
    if not 0.0 < L < math.inf:
        raise DomainError(f"log(1/u) must be finite and > 0, got {log_inv_u!r}")
    return L


def quantile_from_log_tail(log_inv_u: float, p: Params) -> QuantileResult:
    """Same root solve parameterized by ``L = log(1/u)``.

    Works for arbitrarily deep tails (e.g. L ~ thousands) where the tail
    mass itself would underflow; the stopping rule bounds the log-scale
    residual ``log survival(x) + L`` as in :func:`quantile_exact`.
    """
    y, iterations = _solve_scaled(_check_log_tail(log_inv_u), p.beta)
    return QuantileResult(_in_data_units(y, p, "quantile"), iterations)


_OUT_OF_RANGE = "tail masses must lie strictly in (0, 1): log(1/u) must be finite and > 0"


def _quantiles_at_log_tails(log_inv_u: np.ndarray, p: Params) -> np.ndarray:
    """Quantiles at an array of ``L = log(1/u)`` by the array solver.

    The array form of :func:`quantile_from_log_tail`, with its refusals:
    DomainError unless every L is finite and > 0, checked over the whole
    array before any is solved, and every quantile finite.  It can differ
    from the scalar loop in the last bit (numpy's log1p is not libm's).
    """
    L = np.asarray(log_inv_u, dtype=np.float64, order="C")
    if L.size and not (L.min() > 0.0 and L.max() < math.inf):  # a NaN fails both
        raise DomainError(_OUT_OF_RANGE)
    return _blockwise(lambda b, out: _solve_into(b, out, p), L)


def quantile_values(u, p: Params) -> np.ndarray:
    """Vectorized quantiles for an array of tail masses (array solver).

    Raises DomainError unless the tail masses are reals strictly in (0, 1),
    exactly the u whose log(1/u) is finite and > 0, checked over the whole
    array before any is solved, and every quantile is finite.
    """
    arr = check_real_array(u, "tail masses")
    if arr.size and not (arr.min() > 0.0 and arr.max() < 1.0):  # a NaN fails both
        raise DomainError(_OUT_OF_RANGE)
    # a block's L = -log(u) is computed into its output slice, then solved there
    return _blockwise(lambda b, out: _solve_into(np.negative(np.log(b, out=out), out=out), out, p),
                      arr)


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
