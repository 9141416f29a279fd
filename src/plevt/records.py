"""Record values: extraction from streams and direct simulation.

The n-th strict upper record of an i.i.d. Pseudo-Lindley sequence is
distributed as ``Q(exp(-G_n))`` where ``G_n`` is a sum of n unit
exponentials, i.e. ``G_n ~ Gamma(n)``, and Q is the upper quantile: records
of any continuous law are the law's quantile transform of exponential
record times.  This gives an O(1) simulator (one gamma draw and one root
solve) that never scans the (exponentially long) stream.
Standardized as ``(X_n - gamma*n) / (gamma*sqrt(n))`` the record is
asymptotically standard normal, with a slowly decaying ``log(n)/sqrt(n)``
centering offset at finite n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distribution import Params, _in_data_units
from .errors import DomainError, check_int, check_int_array, check_real_array, check_sample
from .quantile import _check_log_tail, _solve_scaled
from .sampling import SeedSpec, _block_rngs, _thread_rng

__all__ = [
    "RecordSequence",
    "extract_records",
    "simulate_record",
    "standardized_record",
]


@dataclass(frozen=True, slots=True)
class RecordSequence:
    """Strict upper records with their 1-based positions in the stream."""

    values: np.ndarray
    indices: np.ndarray

    def __post_init__(self):
        values = check_sample(self.values, "record sequence")
        if np.any(values[1:] <= values[:-1]):  # no subtraction to overflow
            raise DomainError("record values must be strictly increasing")
        object.__setattr__(self, "values", values)
        idx = check_int_array(self.indices, "record indices")
        if idx.shape != values.shape or idx[0] < 1 or np.any(np.diff(idx) <= 0):
            raise DomainError("record indices must be 1-based, match values and increase")
        object.__setattr__(self, "indices", idx)


def extract_records(stream) -> RecordSequence:
    """Scan a stream for strict upper records (first element included)."""
    arr = check_sample(stream, "stream")
    runmax = np.maximum.accumulate(arr)
    is_record = np.concatenate(([True], arr[1:] > runmax[:-1]))
    idx = np.flatnonzero(is_record)
    return RecordSequence(values=arr[idx], indices=idx + 1)


def simulate_record(n: int, p: Params, seed: SeedSpec) -> float:
    """Draw the n-th record directly via the exponential-sum representation.

    G_n is one ``standard_gamma(n)`` draw on the seed's stream, the draw
    ``seed.rng().standard_gamma(n)`` makes; it comes from the calling
    thread's own generator, reset to the start of that stream, so a call
    builds no generator and calls in different threads share none.  The
    record is the quantile at log tail mass G_n, by the log-tail root solve
    at every depth, also where exp(-G_n) underflows.
    """
    n = check_int(n, "record index", 1)
    y, _ = _solve_scaled(_check_log_tail(_thread_rng(seed).standard_gamma(n)), p.beta)
    return _in_data_units(y, p, "quantile")


def record_log_tails(n: int, seed: SeedSpec, reps: int) -> np.ndarray:
    """G_n, the log tail mass of the n-th record, for each of ``reps``
    replications: entry r of one ``standard_gamma(n)`` array, the law of a
    sum of n unit exponentials, from the gamma generator of ``seed``'s key
    (:func:`plevt.sampling._block_rngs`)."""
    n = check_int(n, "record index", 1)
    _, gammas = _block_rngs(seed, reps)
    return gammas.standard_gamma(n, size=reps)


def standardized_record(x_n: float | np.ndarray, n: int, p: Params) -> float | np.ndarray:
    """Center at gamma*n and scale by gamma*sqrt(n), elementwise on arrays (a float
    for a scalar); DomainError unless the values and the results are finite reals."""
    x = check_real_array(x_n, "record values")
    check_int(n, "record index", 1)
    gamma = p.gamma
    with np.errstate(over="ignore"):  # an infinite value is refused just below
        z = (x - gamma * n) / (gamma * math.sqrt(n))
    if not np.isfinite(z).all():
        raise DomainError("record values and their standardized values must be finite")
    return float(z) if z.ndim == 0 else z
