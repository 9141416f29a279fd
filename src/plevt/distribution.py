"""Pseudo-Lindley distribution: density, tail, moments, and moment fitting.

The Pseudo-Lindley law with rate ``theta > 0`` and shape ``beta > 1`` has
density

    f(x) = theta * (beta - 1 + theta*x) * exp(-theta*x) / beta,   x >= 0,

survival function ``1 - F(x) = (beta + theta*x) * exp(-theta*x) / beta``,
and reduces to the one-parameter Lindley law when ``beta = 1 + theta``.
Algebraically the density is the two-component mixture

    f = (beta-1)/beta * Exp(theta)  +  1/beta * Gamma(2, theta),

which is what the mixture sampler uses.  The raw moments are
``m_n = n! * (beta + n) / (theta**n * beta)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    _LOG_MAX,
    DomainError,
    FitInfeasibleError,
    NotEvaluableError,
    ParameterError,
    check_int,
    check_real,
    check_real_array,
    check_sample,
)

__all__ = [
    "Params",
    "FitResult",
    "pdf",
    "survival",
    "cdf",
    "moment",
    "moment_radius_sequence",
    "von_mises_ratio",
    "fit_method_of_moments",
]


@dataclass(frozen=True, slots=True)
class Params:
    """Distribution parameters: rate ``theta > 0`` and shape ``beta > 1``."""

    theta: float
    beta: float

    def __post_init__(self):
        theta = check_real(self.theta, "theta", ParameterError)
        beta = check_real(self.beta, "beta", ParameterError)
        if not (math.isfinite(theta) and theta > 0.0):
            raise ParameterError(f"theta must be finite and > 0, got {self.theta!r}")
        if not (math.isfinite(beta) and beta > 1.0):
            raise ParameterError(f"beta must be finite and > 1, got {self.beta!r}")
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "beta", beta)

    @property
    def gamma(self) -> float:
        """Extreme value index of the law, ``1/theta``; DomainError past the double range."""
        return _in_data_units(1.0, self, "gamma")


def _in_data_units(y, p: Params, what: str, out=None):
    """``y / theta``, the one place plevt divides by theta, for a float or array of ``theta*x``
    (an array written into ``out`` if given); DomainError naming ``what`` past the double
    range.  Floats skip numpy's 2-4 us a call."""
    if type(y) is float:
        x = y / p.theta
        if math.isfinite(x):
            return x
    else:
        with np.errstate(over="ignore"):  # an infinite value is refused just below
            x = np.divide(y, p.theta, out=out)
        if np.isfinite(x).all():
            return x
    raise DomainError(f"{what} overflows float64 for {p}")


#: Values per block of the array kernels: a block's temporaries stay in
#: cache, where whole-input ones would each be a fresh array to page in.
_BLOCK = 2**14


def _blockwise(kernel, x):
    """Evaluate an elementwise ``kernel`` over a checked C-order ``x``, block by block.

    ``kernel(block, out)`` writes the values at each block of ``_BLOCK`` of
    x's flattened values into ``out``, that block's slice of one output of
    x's shape; a 0-d x gives a float.
    """
    flat = x.reshape(-1)
    out = np.empty_like(flat)
    for start in range(0, flat.size, _BLOCK):
        kernel(flat[start:start + _BLOCK], out[start:start + _BLOCK])
    return float(out[0]) if x.ndim == 0 else out.reshape(x.shape)


def _limit_where_nan(x, out):
    """Refuse a NaN in x; any other NaN in ``out`` is inf*exp(-inf) at theta*x = +inf,
    where the value is its limit, 0."""
    if np.isnan(out).any():
        if np.isnan(x).any():
            raise DomainError("x must not be NaN")
        np.copyto(out, 0.0, where=np.isnan(out))


def _pdf_into(x, out, p: Params):
    tx = np.multiply(p.theta, x)
    np.add(p.beta - 1.0, tx, out=out)
    out *= p.theta
    out *= np.exp(np.negative(tx, out=tx), out=tx)
    out /= p.beta  # theta*(beta - 1 + tx) * exp(-tx) / beta
    np.copyto(out, 0.0, where=x < 0.0)
    _limit_where_nan(x, out)


def _survival_into(x, out, p: Params):
    tx = np.multiply(p.theta, x)
    np.add(p.beta, tx, out=out)
    out *= np.exp(np.negative(tx, out=tx), out=tx)
    out /= p.beta  # (beta + tx) * exp(-tx) / beta
    np.copyto(out, 1.0, where=x < 0.0)
    _limit_where_nan(x, out)


def _cdf_into(x, out, p: Params):
    _survival_into(x, out, p)
    np.subtract(1.0, out, out=out)


# theta*x = +inf gives inf*exp(-inf), a NaN that _limit_where_nan replaces;
# a decorator adds 1.3 us a call, a with 2.0 (numpy 2.4)
@np.errstate(over="ignore", invalid="ignore")
def pdf(x, p: Params):
    """Density ``theta*(beta-1+theta*x)*exp(-theta*x)/beta``; 0 for x < 0.

    Tends to 0 as x -> +inf; NaN in x raises DomainError.
    """
    return _blockwise(lambda b, out: _pdf_into(b, out, p), check_real_array(x, "x"))


@np.errstate(over="ignore", invalid="ignore")  # as for pdf
def survival(x, p: Params):
    """Upper tail ``(beta + theta*x)*exp(-theta*x)/beta``; 1 for x < 0.

    Tends to 0 as x -> +inf; NaN in x raises DomainError.
    """
    return _blockwise(lambda b, out: _survival_into(b, out, p), check_real_array(x, "x"))


@np.errstate(over="ignore", invalid="ignore")  # as for pdf
def cdf(x, p: Params):
    """Distribution function ``1 - survival(x)``; 1 at x = +inf."""
    return _blockwise(lambda b, out: _cdf_into(b, out, p), check_real_array(x, "x"))


def moment(n: int, p: Params) -> float:
    """Raw moment ``m_n = n! * (beta + n) / (theta**n * beta)``.

    Evaluated in log space so n in the hundreds stays exact to relative
    rounding; raises DomainError if the value exceeds float range.
    """
    n = check_int(n, "moment order", 0)
    if n == 0:
        return 1.0
    log_m = (
        math.lgamma(n + 1.0)
        + math.log(p.beta + n)
        - n * math.log(p.theta)
        - math.log(p.beta)
    )
    if log_m > _LOG_MAX:
        raise DomainError(f"moment of order {n} overflows float64 for {p}")
    return math.exp(log_m)


def moment_radius_sequence(p: Params, n_max: int) -> np.ndarray:
    """Sequence ``r_n = (m_n / n!)**(1/n)`` for n = 1..n_max.

    The factorial-normalized root ``((beta+n)/beta)**(1/n) / theta``
    converges to ``1/theta`` (the reciprocal rate) at the slow rate
    log(n)/n; the raw roots ``m_n**(1/n)`` diverge and are not used.
    """
    n = np.arange(1, check_int(n_max, "n_max", 1) + 1, dtype=np.float64)
    return _in_data_units(np.exp((np.log(p.beta + n) - math.log(p.beta)) / n), p, "moment radius")


def von_mises_ratio(x: float, p: Params) -> float:
    """Tail ratio ``f'(x) * (1 - F(x)) / f(x)**2``; tends to -1 as x grows.

    With ``f'(x) = theta**2 * exp(-theta*x) * (2 - beta - theta*x) / beta``
    the exponential factors cancel algebraically, leaving

        (2 - beta - theta*x) * (beta + theta*x) / (beta - 1 + theta*x)**2,

    which depends on x only through ``theta*x``.  The point must still be
    one where the density is positive in floating point, otherwise the
    defining ratio is a 0/0 form and the point is reported not evaluable.
    """
    x = check_real(x, "x")
    if x <= 0.0 or not math.isfinite(x):
        raise DomainError(f"von Mises ratio needs finite x > 0, got {x!r}")
    if pdf(x, p) == 0.0:
        raise NotEvaluableError(
            f"density underflows at x={x!r} for {p}; ratio is 0/0 there"
        )
    tx = p.theta * x
    return (2.0 - p.beta - tx) * (p.beta + tx) / (p.beta - 1.0 + tx) ** 2


@dataclass(frozen=True, slots=True)
class FitResult:
    """Method-of-moments estimate along with the raw sample moments."""

    params: Params
    m1: float
    m2: float


def fit_method_of_moments(sample) -> FitResult:
    """Fit (theta, beta) by matching the first two raw moments.

    Eliminating theta from ``m1 = (beta+1)/(theta*beta)`` and
    ``m2 = 2*(beta+2)/(theta**2*beta)`` gives the quadratic

        (2*m1^2 - m2) * beta^2 + (4*m1^2 - 2*m2) * beta - m2 = 0,

    whose admissible root is ``beta = sqrt(1 + m2/(2*m1^2 - m2)) - 1``.
    A solution with beta > 1 and theta > 0 exists iff the raw moment
    ratio satisfies ``1.5 < m2/m1^2 < 2`` (strict); anything else, and a
    root that rounds outside that range next to a bound, raises
    FitInfeasibleError carrying the offending moments.  Moments past the
    double range (values above about 1.3e154 in m2) or a mean whose square
    falls below its normal range (below about 1.5e-154) raise DomainError.

    ``sample`` may be a SortedSample or any 1-d array of finite observations;
    another shape, or a value that is not finite, raises DomainError.
    """
    values = check_sample(getattr(sample, "values", sample), "sample")
    if values.size < 2:
        raise DomainError(f"need at least 2 observations, got {values.size}")
    with np.errstate(over="ignore", invalid="ignore"):  # inf + -inf is NaN, refused below
        m1 = float(np.mean(values))
        m2 = float(np.mean(values**2))
    if not (math.isfinite(m1) and math.isfinite(m2)):
        raise DomainError(
            f"a raw sample moment exceeds the double range (m1={m1!r}, m2={m2!r})"
        )
    if m1 <= 0.0:
        raise FitInfeasibleError(m1, m2, "sample mean must be positive")
    if m1 * m1 < np.finfo(np.float64).tiny:
        raise DomainError(f"m1^2 falls below the normal double range (m1={m1!r}, m2={m2!r})")
    ratio = m2 / (m1 * m1)
    a = 2.0 * m1 * m1 - m2
    if 1.5 < ratio < 2.0 and a > 0.0:
        beta = math.sqrt(1.0 + m2 / a) - 1.0
        theta = (beta + 1.0) / (m1 * beta)
        # within a few ulp of either bound, rounding can still leave beta at
        # or below 1, or beta and theta outside the double range
        if 1.0 < beta < math.inf and 0.0 < theta < math.inf:
            return FitResult(params=Params(theta=theta, beta=beta), m1=m1, m2=m2)
    raise FitInfeasibleError(m1, m2)
