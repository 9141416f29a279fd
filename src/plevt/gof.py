"""Kolmogorov-Smirnov distances and reference cdfs for the harness."""

from __future__ import annotations

import math

import numpy as np

from .distribution import _BLOCK, _blockwise
from .errors import DomainError, check_real_array, check_sample

__all__ = [
    "std_normal_cdf",
    "gumbel_cdf",
    "ks_distance_sorted",
    "ks_two_sample",
]


def std_normal_cdf(x):
    """Standard normal cdf ``erfc(-x*sqrt(1/2))/2``; keeps the shape of x.

    Agrees with the Cephes ``ndtr`` the tests take as reference to 1e-14
    relative for x >= -16 (at most 4.4e-15 on [-10, 8.5]).  Further down
    Phi's relative condition number grows like x**2, and the two agree to
    ``1e-14 + eps*x**2``.  Below about -37.5 the value is subnormal, where
    ndtr returns 0.  The values go through ``math.erfc`` one block at a
    time, so the Python floats of only one block are alive at once.
    """
    return _blockwise(_std_normal_cdf_into, check_real_array(x, "x"))


def _std_normal_cdf_into(x, out):
    erfc = map(math.erfc, (x * -math.sqrt(0.5)).tolist())  # scaled as ndtr scales
    np.multiply(0.5, np.fromiter(erfc, np.float64, x.size), out=out)


def gumbel_cdf(x):
    """Standard Gumbel cdf exp(-exp(-x)); 0 where exp(-x) overflows (x below about -709.78)."""
    with np.errstate(over="ignore"):
        return np.exp(-np.exp(-check_real_array(x, "x")))


def ks_distance_sorted(sorted_values: np.ndarray, cdf_values: np.ndarray) -> float:
    """sup-distance between the ecdf of sorted data and given cdf values.

    Raises DomainError unless ``cdf_values`` is a non-empty 1-d array of
    finite reals of the shape of ``sorted_values``.
    """
    cdf_values = check_sample(cdf_values, "cdf_values")
    if np.shape(sorted_values) != cdf_values.shape:
        raise DomainError(f"cdf_values must have the shape {np.shape(sorted_values)} "
                          f"of sorted_values, got {cdf_values.shape}")
    n = cdf_values.size
    i = np.arange(1, n + 1, dtype=np.float64)
    t = np.divide(i, n)
    t -= cdf_values  # i/n - cdf
    d_plus = float(np.max(t))
    i -= 1.0
    i /= n
    d_minus = float(np.max(np.subtract(cdf_values, i, out=i)))  # cdf - (i - 1)/n
    return max(d_plus, d_minus)


def ks_two_sample(x, y) -> float:
    """Two-sample KS distance between the ecdfs of x and y.

    One stable merge of the two sorted samples orders the pooled values;
    the ecdfs are compared at the last point of each run of equal values.
    The merged order is reduced in blocks of ``_BLOCK`` points: a block
    counts the x values at or below each of its points from the count the
    blocks before it carried, and looks one point past its end to see
    whether its last run ends there.  So no temporary grows with the input
    beyond the pooled values and their order.  A sample that one pass finds
    ascending is not sorted again, and neither input is written.  Raises
    DomainError unless x and y are non-empty 1-d arrays of finite reals.
    """
    x = _ascending(check_sample(x, "x"))
    y = _ascending(check_sample(y, "y"))
    pooled = np.concatenate([x, y])
    order = np.argsort(pooled, kind="stable")
    d, count_x = 0.0, 0
    for start in range(0, pooled.size, _BLOCK):
        from_x = order[start:start + _BLOCK] < x.size
        merged = pooled[order[start:start + _BLOCK + 1]]
        # the pooled sample's last point ends a run; any other block's last
        # point is compared with the point just past it
        last = np.empty(from_x.size, dtype=bool)
        last[-1] = True
        np.not_equal(merged[1:], merged[:-1], out=last[:merged.size - 1])
        counts = np.cumsum(from_x)
        counts += count_x
        count_x = counts[-1]
        at_x = counts[last]
        at_y = np.flatnonzero(last) + (start + 1) - at_x
        d = np.max(np.abs(at_x / x.size - at_y / y.size), initial=d)
    return float(d)


def _ascending(values: np.ndarray) -> np.ndarray:
    """``values`` sorted, or ``values`` itself when one pass finds them ascending."""
    return np.sort(values) if (values[1:] < values[:-1]).any() else values
