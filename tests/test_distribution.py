"""Distribution core: density, survival, moments, fitting."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plevt import (
    DomainError,
    FitInfeasibleError,
    NotEvaluableError,
    ParameterError,
    Params,
    cdf,
    fit_method_of_moments,
    mixture_weights,
    moment,
    moment_radius_sequence,
    pdf,
    survival,
    von_mises_ratio,
)

from oracles import central_difference, moment_quadrature, survival_quadrature

GRID = [(0.5, 1.2), (1.0, 2.0), (3.0, 1.5), (0.7, 6.0)]


# ---------------------------------------------------------------------------
# parameter validation


def test_params_validation():
    with pytest.raises(ParameterError):
        Params(0.0, 2.0)
    with pytest.raises(ParameterError):
        Params(-1.0, 2.0)
    with pytest.raises(ParameterError):
        Params(1.0, 1.0)
    with pytest.raises(ParameterError):
        Params(1.0, 0.5)
    with pytest.raises(ParameterError):
        Params(math.nan, 2.0)
    with pytest.raises(ParameterError):
        Params(1.0, math.inf)


@pytest.mark.parametrize("value", ["1.0", True, np.True_, None, 1 + 0j], ids=repr)
def test_params_refuse_non_reals(value):
    message = f"must be a real number, got {re.escape(repr(value))}"
    for theta, beta in ((value, 2.0), (1.0, value)):
        with pytest.raises(ParameterError, match=message):
            Params(theta, beta)
    # ints and numpy reals are reals, taken as float
    for theta, beta in ((1, 2), (np.int64(1), np.float32(2.0)), (np.float64(1.0), 2.0)):
        p = Params(theta, beta)
        assert (p.theta, p.beta) == (1.0, 2.0) and type(p.theta) is type(p.beta) is float


def test_params_derived_fields():
    p = Params(4.0, 2.0)
    assert p.gamma == 0.25
    assert not p.is_lindley
    assert Params(1.0, 2.0).is_lindley  # beta = 1 + theta
    assert Params(theta=2, beta=3).theta == 2.0  # ints coerced


# ---------------------------------------------------------------------------
# pdf / survival / cdf


def test_pdf_at_zero():
    # f(0) = theta*(beta-1)/beta
    assert pdf(0.0, Params(1.0, 2.0)) == pytest.approx(0.5, abs=1e-15)
    assert pdf(0.0, Params(2.0, 4.0)) == pytest.approx(1.5, abs=1e-15)


def test_pdf_negative_is_zero():
    p = Params(1.0, 2.0)
    assert pdf(-1.0, p) == 0.0
    assert survival(-1.0, p) == 1.0
    assert cdf(-1.0, p) == 0.0


def test_density_limits_at_infinity():
    p = Params(1.0, 2.0)
    for x in (math.inf, np.inf):
        assert pdf(x, p) == 0.0
        assert survival(x, p) == 0.0
        assert cdf(x, p) == 1.0
    xs = np.array([0.0, 1.5, math.inf])
    finite = xs[:2]
    for fn, limit in ((pdf, 0.0), (survival, 0.0), (cdf, 1.0)):
        out = fn(xs, p)
        assert out[2] == limit
        np.testing.assert_array_equal(out[:2], fn(finite, p))  # bit-identical


def test_density_rejects_nan():
    p = Params(1.0, 2.0)
    for fn in (pdf, survival, cdf):
        with pytest.raises(DomainError):
            fn(math.nan, p)
        with pytest.raises(DomainError):
            fn(np.array([0.5, math.nan, 2.0]), p)


def test_pdf_vectorized_matches_scalar():
    p = Params(0.5, 1.2)
    xs = np.array([-1.0, 0.0, 0.3, 2.0, 40.0])
    vec = pdf(xs, p)
    for x, v in zip(xs, vec):
        assert v == pdf(float(x), p)


def test_pdf_integrates_to_one():
    for theta, beta in GRID:
        total = survival_quadrature(0.0, theta, beta)
        assert total == pytest.approx(1.0, abs=1e-10)


def test_survival_matches_quadrature():
    for theta, beta in GRID:
        p = Params(theta, beta)
        for x in (0.0, 0.5, 2.0, 10.0 / theta):
            assert survival(x, p) == pytest.approx(
                survival_quadrature(x, theta, beta), rel=1e-9
            )


def test_survival_derivative_is_minus_pdf():
    for theta, beta in GRID:
        p = Params(theta, beta)
        for x in (0.1, 1.0, 4.0 / theta):
            deriv = central_difference(lambda t: survival(t, p), x)
            assert deriv == pytest.approx(-pdf(x, p), rel=1e-6, abs=1e-9)


def test_cdf_complements_survival():
    p = Params(3.0, 1.5)
    xs = np.linspace(0.0, 8.0, 33)
    np.testing.assert_allclose(cdf(xs, p) + survival(xs, p), 1.0, atol=1e-14)


def test_lindley_reduction():
    # At beta = 1 + theta the density is the Lindley density
    # theta^2 (1+x) e^{-theta x} / (1+theta).
    for theta in (0.5, 1.0, 3.0):
        p = Params(theta, 1.0 + theta)
        assert p.is_lindley
        for x in (0.0, 0.4, 2.5, 9.0):
            lindley = theta**2 * (1.0 + x) * math.exp(-theta * x) / (1.0 + theta)
            assert pdf(x, p) == pytest.approx(lindley, rel=1e-14)


def test_mixture_weights_sum_to_one():
    for theta, beta in GRID:
        w = mixture_weights(Params(theta, beta))
        assert w.exponential == pytest.approx((beta - 1.0) / beta, rel=1e-15)
        assert w.gamma2 == pytest.approx(1.0 / beta, rel=1e-15)
        assert w.exponential + w.gamma2 == pytest.approx(1.0, abs=1e-15)


# ---------------------------------------------------------------------------
# moments


def test_moment_zero_is_one():
    assert moment(0, Params(2.0, 3.0)) == 1.0


def test_first_moment_closed_form():
    # m1 = (beta+1)/(theta*beta)
    assert moment(1, Params(1.0, 2.0)) == pytest.approx(1.5, rel=1e-14)
    assert moment(1, Params(2.0, 4.0)) == pytest.approx(0.625, rel=1e-14)


def test_moments_match_quadrature():
    for theta, beta in GRID:
        p = Params(theta, beta)
        for n in range(1, 7):
            assert moment(n, p) == pytest.approx(
                moment_quadrature(n, theta, beta), rel=1e-8
            )


def test_moment_large_order_no_overflow():
    # log-space evaluation keeps n=150 finite where naive factorials blow up
    val = moment(150, Params(2.0, 2.0))
    assert math.isfinite(val)
    expected = math.exp(
        math.lgamma(151.0) + math.log(152.0 / 2.0) - 150.0 * math.log(2.0)
    )
    assert val == pytest.approx(expected, rel=1e-12)


def test_moment_rejects_bad_order():
    p = Params(1.0, 2.0)
    with pytest.raises(DomainError):
        moment(-1, p)
    with pytest.raises(DomainError):
        moment(1.5, p)


@pytest.mark.parametrize("value", [7.9, "200", True, math.inf, math.nan], ids=repr)
def test_moment_radius_sequence_refuses_a_non_integer_length(value):
    with pytest.raises(DomainError, match=f"n_max must be an integer, got {value!r}"):
        moment_radius_sequence(Params(1.0, 2.0), value)


def test_moment_radius_converges_to_gamma():
    # ((n+beta)/beta)^(1/n)/theta -> 1/theta; at n=400 the gap is ~1.3%
    for theta, beta in GRID:
        p = Params(theta, beta)
        seq = moment_radius_sequence(p, 400)
        assert seq.shape == (400,)
        assert abs(seq[-1] * theta - 1.0) < 0.015
        # and the tail of the sequence is monotonically closing in
        assert abs(seq[-1] * theta - 1.0) < abs(seq[49] * theta - 1.0)


# ---------------------------------------------------------------------------
# von Mises ratio


def test_von_mises_ratio_value_and_limit():
    p = Params(1.0, 2.0)
    # direct formula (2 - beta - theta x)(beta + theta x)/(beta - 1 + theta x)^2
    x = 1.5
    expected = (2.0 - 2.0 - x) * (2.0 + x) / (2.0 - 1.0 + x) ** 2
    assert von_mises_ratio(x, p) == pytest.approx(expected, rel=1e-13)
    # the Gumbel-domain signature: ratio -> -1 in the far tail
    assert von_mises_ratio(200.0, p) == pytest.approx(-1.0, abs=1e-2)


def test_von_mises_ratio_domain():
    p = Params(1.0, 2.0)
    with pytest.raises(DomainError):
        von_mises_ratio(0.0, p)
    with pytest.raises(DomainError):
        von_mises_ratio(-2.0, p)
    with pytest.raises(DomainError):
        von_mises_ratio(math.inf, p)


def test_von_mises_ratio_not_evaluable_when_pdf_underflows():
    p = Params(1.0, 2.0)
    with pytest.raises(NotEvaluableError):
        von_mises_ratio(1e6, p)  # e^{-1e6} underflows to exactly 0


# ---------------------------------------------------------------------------
# method of moments


def test_fit_recovers_exact_moments():
    # Two-point sample {(3-sqrt(7))/2, (3+sqrt(7))/2} has exactly
    # m1 = 3/2 and m2 = 4, the moments of (theta, beta) = (1, 2).
    r = math.sqrt(7.0)
    sample = np.array([(3.0 - r) / 2.0, (3.0 + r) / 2.0])
    fit = fit_method_of_moments(sample)
    assert fit.params.theta == pytest.approx(1.0, abs=1e-12)
    assert fit.params.beta == pytest.approx(2.0, abs=1e-12)
    assert fit.m1 == pytest.approx(1.5, abs=1e-15)
    assert fit.m2 == pytest.approx(4.0, abs=1e-14)


def test_fit_round_trip_on_grid():
    # build two-point samples matching the exact (m1, m2) of each grid point
    for theta, beta in GRID:
        p = Params(theta, beta)
        m1, m2 = moment(1, p), moment(2, p)
        spread = math.sqrt(m2 - m1 * m1)
        sample = np.array([m1 - spread, m1 + spread])
        fit = fit_method_of_moments(sample)
        assert fit.params.theta == pytest.approx(theta, rel=1e-9)
        assert fit.params.beta == pytest.approx(beta, rel=1e-9)


def test_fit_recovers_from_simulation():
    from plevt import SeedSpec, sample_mixture

    p = Params(1.0, 2.0)
    sample = sample_mixture(200_000, p, SeedSpec(2024))
    fit = fit_method_of_moments(sample)
    assert fit.params.theta == pytest.approx(1.0, abs=0.05)
    assert fit.params.beta == pytest.approx(2.0, abs=0.6)  # beta is noisy


def test_fit_infeasible_low_ratio():
    # m2/m1^2 = 1.25 < 1.5: outside the admissible envelope
    with pytest.raises(FitInfeasibleError) as exc_info:
        fit_method_of_moments(np.array([1.0, 3.0]))
    err = exc_info.value
    assert err.m1 == pytest.approx(2.0)
    assert err.m2 == pytest.approx(5.0)
    assert "1.5" in str(err) and "2" in str(err)


def test_fit_infeasible_high_ratio():
    # [1, 1, 10]: ratio = 34/16 > 2
    with pytest.raises(FitInfeasibleError):
        fit_method_of_moments(np.array([1.0, 1.0, 10.0]))


def test_fit_infeasible_nonpositive_mean():
    with pytest.raises(FitInfeasibleError):
        fit_method_of_moments(np.array([-1.0, -2.0]))


@settings(derandomize=True, max_examples=400, deadline=None)
@given(
    bound=st.sampled_from([1.5, 2.0]),
    steps=st.integers(-8, 8),
    scale=st.floats(1e-60, 1e60),
    copies=st.integers(1, 4),
)
def test_fit_next_to_the_ratio_bounds(bound, steps, scale, copies):
    # two-point samples {x, y} with m2/m1^2 within a few ulp of a bound:
    # y/x = 3 + 2*sqrt(2) puts the ratio at 1.5, x/y -> 0 puts it at 2
    if bound == 1.5:
        x = scale
        y = (3.0 + 2.0 * math.sqrt(2.0)) * scale
        y += steps * math.ulp(y)
    else:
        x, y = abs(steps) * 2.0**-55 * scale, scale
    sample = np.array([x, y] * copies)
    m1, m2 = float(np.mean(sample)), float(np.mean(sample**2))
    assert abs(m2 / (m1 * m1) - bound) <= 64 * math.ulp(bound)
    try:
        fit = fit_method_of_moments(sample)
    except FitInfeasibleError:
        return
    assert 0.0 < fit.params.theta < math.inf
    assert 1.0 < fit.params.beta < math.inf


# 1e155: m2 overflows; 5e307: m1 as well; 1e-160: m2 is subnormal;
# 1e-170: m1*m1 underflows to 0
@pytest.mark.parametrize("scale", [1e155, 5e307, 1e-160, 1e-170])
def test_fit_refuses_moments_past_the_double_range(scale):
    # the moment ratio does not depend on scale: unscaled, the values fit.
    # No RuntimeWarning either: tier-1 turns one from plevt into an error
    values = np.array([0.1, 0.5, 1.2, 2.0, 3.5])
    assert 1.5 < fit_method_of_moments(values).m2 / np.mean(values) ** 2 < 2.0
    with pytest.raises(DomainError, match="double range"):
        fit_method_of_moments(values * scale)


def test_fit_needs_two_observations():
    with pytest.raises(DomainError):
        fit_method_of_moments(np.array([1.0]))


def test_fit_accepts_sorted_sample_object():
    from plevt import SeedSpec, sample_mixture

    s = sample_mixture(5000, Params(1.0, 2.0), SeedSpec(5))
    fit_obj = fit_method_of_moments(s)
    fit_arr = fit_method_of_moments(s.values)
    assert fit_obj.params.theta == fit_arr.params.theta
