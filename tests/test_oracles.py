"""The finite-n references in oracles.py, checked where the answer is exact.

With beta = inf the parent is Exp(theta): the top spacings are independent
Exp(j*theta) (Renyi), so every standardized weighted spacing statistic has
mean 0 and variance 1, and the n-th record is Gamma(n)/theta.  The
pseudo-Lindley simulations are then tied to the quadratures, which share
no code with them.  The per-stream draw, the reference of the block
layout's KS gate, is tied to one generator built per stream.
"""

import math

import numpy as np
import pytest
from scipy.stats import gamma as gamma_law
from scipy.stats import kstest

from plevt import Params, SeedSpec
from plevt.quantile import quantile_values

from oracles import (
    expected_top_spacing,
    invert_log_tail,
    log_tail_reference,
    quantile_bisection,
    record_mean_quadrature,
    record_statistic_law,
    spacing_mean_quadrature,
    spacing_statistic_law,
    top_order_statistics_rows_per_stream,
)

N = 100_000
REPS = 50_000
SEED = 11

# (weight exponent a in f(j) = j**a, power s, k): the Hill statistic and
# the four weighted configurations of the acceptance battery
CONFIGS = [(1.0, 1.0, 7), (1.0, 2.0, 20), (1.0, 2.0, 50), (0.5, 1.0, 20), (0.5, 1.0, 50)]


def _weights(a, k):
    return [j**a for j in range(1, k + 1)]


def _standard_errors(z):
    """Standard errors of the sample mean and of the sample variance."""
    var = float(np.var(z, ddof=1))
    m4 = float(np.mean((z - np.mean(z)) ** 4))
    return math.sqrt(var / z.size), math.sqrt((m4 - var * var) / z.size)


@pytest.mark.parametrize("theta", [0.5, 2.0])
@pytest.mark.parametrize("j", [1, 7, 50])
def test_expected_top_spacing_exponential_is_one_over_j_theta(theta, j):
    got = expected_top_spacing(j, N, theta, math.inf)
    assert got * j * theta == pytest.approx(1.0, rel=1e-8)


@pytest.mark.parametrize("a,k", [(1.0, 7), (0.5, 20), (0.5, 50)])
def test_spacing_mean_quadrature_exponential_is_zero(a, k):
    assert abs(spacing_mean_quadrature(N, _weights(a, k), 1.0, math.inf)) <= 1e-8


def test_record_mean_quadrature_exponential_is_zero():
    for theta in (0.5, 2.0):
        assert abs(record_mean_quadrature(400, theta, math.inf)) <= 1e-9


@pytest.mark.parametrize("a,s,k", CONFIGS)
def test_spacing_law_exponential_mean_zero_var_one(a, s, k):
    z = spacing_statistic_law(N, _weights(a, k), s, 1.0, math.inf, REPS, SEED)
    se_mean, se_var = _standard_errors(z)
    assert abs(float(np.mean(z))) <= 4.0 * se_mean
    assert abs(float(np.var(z, ddof=1)) - 1.0) <= 4.0 * se_var


def test_record_law_exponential_is_gamma():
    n = 400
    z = record_statistic_law(n, 1.0, math.inf, REPS, SEED)
    ks = kstest(n + math.sqrt(n) * z, gamma_law(n).cdf).statistic
    assert ks <= 1.95 / math.sqrt(REPS)


@pytest.mark.parametrize("a,k", [(1.0, 7), (0.5, 20)])
def test_spacing_law_matches_quadrature_mean(a, k):
    # pseudo-Lindley parent: the conditional-excess simulation against the
    # binomial-pmf quadrature, s = 1
    z = spacing_statistic_law(N, _weights(a, k), 1.0, 1.0, 2.0, REPS, SEED)
    ref = spacing_mean_quadrature(N, _weights(a, k), 1.0, 2.0)
    assert abs(float(np.mean(z)) - ref) <= 4.0 * _standard_errors(z)[0]


def test_record_law_matches_quadrature_mean():
    z = record_statistic_law(400, 1.0, 2.0, REPS, SEED)
    ref = record_mean_quadrature(400, 1.0, 2.0)
    assert abs(float(np.mean(z)) - ref) <= 4.0 * _standard_errors(z)[0]


@pytest.mark.parametrize("theta,beta", [(0.5, 1.1), (1.0, 2.0), (2.0, 5.0)])
def test_invert_log_tail_matches_bisection_quantile(theta, beta):
    us = 10.0 ** -np.arange(1, 13, dtype=float)
    xs = invert_log_tail(-np.log(us), theta, beta)
    ref = [quantile_bisection(u, theta, beta) for u in us]
    np.testing.assert_allclose(xs, ref, rtol=1e-12)
    np.testing.assert_allclose(log_tail_reference(xs, theta, beta), -np.log(us), rtol=1e-13)



# ---------------------------------------------------------------------------
# the per-stream draw


def test_per_stream_rows_are_the_one_stream_draws():
    # row r is random(k+1), then one standard_gamma(n-k), on stream
    # stream_id + r, through the library's transform and quantile solve
    p, n, k = Params(1.0, 2.0), 100_000, 7
    rows = top_order_statistics_rows_per_stream(n, k, p, SeedSpec(3, 4), 50)
    for r, row in enumerate(rows):
        rng = SeedSpec(3, 4 + r).rng()
        u = rng.random(k + 1)
        u = np.where(u == 0.0, 2.0**-53, u)
        partial = np.cumsum(-np.log1p(-u))
        total = partial[-1] + rng.standard_gamma(n - k)
        np.testing.assert_array_equal(
            row, np.maximum.accumulate(quantile_values(partial[::-1] / total, p)))
