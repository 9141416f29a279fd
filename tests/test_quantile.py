"""Quantile solvers, Lambert-W cross-check, and the tail expansion."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plevt import (
    DomainError,
    Params,
    quantile_exact,
    quantile_from_log_tail,
    quantile_tail_expansion,
    quantile_values,
    survival,
)
import plevt.distribution
import plevt.quantile
from plevt.quantile import _solve_scaled_array

from oracles import (
    expansion_terms,
    quantile_bisection,
    quantile_lambertw,
    quantile_tail_expansion_integral,
)

PARAM_GRID = [(1.0, 2.0), (3.0, 1.5), (0.5, 1.2), (0.7, 6.0)]
U_GRID = [0.9, 0.5, 0.1, 1e-2, 1e-4, 1e-6, 1e-8, 1e-10, 1e-12]


def test_exact_matches_bisection_oracle():
    for theta, beta in PARAM_GRID:
        p = Params(theta, beta)
        for u in (0.9, 0.5, 0.1, 1e-3, 1e-8):
            assert quantile_exact(u, p).value == pytest.approx(
                quantile_bisection(u, theta, beta), rel=1e-10
            )


def test_round_trip_relative_error():
    # |survival(Q(u)) - u| / u <= 1e-10 down to u = 1e-12
    for theta, beta in PARAM_GRID:
        p = Params(theta, beta)
        for u in U_GRID:
            x = quantile_exact(u, p).value
            assert abs(survival(x, p) - u) <= 1e-10 * u


def test_lambertw_closed_form_agrees():
    for theta, beta in PARAM_GRID:
        p = Params(theta, beta)
        for u in (0.5, 1e-2, 1e-6, 1e-12):
            assert quantile_lambertw(u, theta, beta) == pytest.approx(
                quantile_exact(u, p).value, rel=1e-12
            )


def test_batch_matches_scalar():
    p = Params(1.0, 2.0)
    us = np.array(U_GRID)
    batch = quantile_values(us, p)
    scalar = np.array([quantile_exact(float(u), p).value for u in us])
    np.testing.assert_allclose(batch, scalar, rtol=1e-13)


def test_quantile_monotone_decreasing_in_u():
    p = Params(0.5, 1.2)
    us = np.array([0.99, 0.9, 0.5, 0.1, 1e-3, 1e-6, 1e-9, 1e-12])
    qs = quantile_values(us, p)
    assert np.all(np.diff(qs) > 0.0)


def test_quantile_theta_scaling():
    # theta enters only as the final scale: Q_theta(u) = Q_1(u)/theta exactly
    base = Params(1.0, 2.0)
    scaled = Params(2.0, 2.0)
    for u in (0.5, 1e-4, 1e-11):
        assert quantile_exact(u, scaled).value == quantile_exact(u, base).value / 2.0


def test_tail_mass_validation():
    p = Params(1.0, 2.0)
    for bad in (0.0, 1.0, -0.1, 1.5, math.nan):
        with pytest.raises(DomainError):
            quantile_exact(bad, p)
        with pytest.raises(DomainError):
            quantile_values(np.array([0.5, bad]), p)


def test_result_metadata():
    p = Params(1.0, 2.0)
    r = quantile_exact(1e-6, p)
    assert 1 <= r.iterations <= 200
    y = p.theta * r.value
    assert abs(math.log1p(y / p.beta) - y - math.log(1e-6)) <= 1e-12


def test_scalar_solves_never_evaluate_the_survival_function(monkeypatch):
    # the solve and its stopping rule stay on the log scale; a linear-scale
    # residual would cost a survival call per quantile
    calls = []

    def counting(x, p):
        calls.append(x)
        return survival(x, p)

    monkeypatch.setattr(plevt.quantile, "survival", counting, raising=False)
    monkeypatch.setattr(plevt.distribution, "survival", counting)
    p = Params(1.0, 2.0)
    for u in (0.5, 1e-6, 1e-300):
        quantile_exact(u, p)
    for big_l in (1.0, 700.0, 5000.0):
        quantile_from_log_tail(big_l, p)
    assert calls == []


def test_log_tail_extends_past_float_underflow():
    # u = e^{-800} underflows to 0.0 in double precision, but the log-scale
    # entry point still solves the fixed point; consistency checked at the
    # deepest representable mass and the scaling law beyond it.
    p = Params(1.0, 2.0)
    r_deep = quantile_from_log_tail(700.0, p)
    x_direct = quantile_exact(math.exp(-700.0), p).value
    assert r_deep.value == pytest.approx(x_direct, rel=1e-13)
    r_under = quantile_from_log_tail(800.0, p)
    assert r_under.value > r_deep.value
    # the log-scale residual log(survival) + log_inv_u, from the value
    y = p.theta * r_under.value
    assert abs(math.log1p(y / p.beta) - y + 800.0) <= 1e-10


def test_log_tail_matches_expansion_deep():
    # far out, the two-term expansion is within O(log L / L) of the root
    p = Params(1.0, 2.0)
    for big_l in (200.0, 500.0, 5000.0):
        exact = quantile_from_log_tail(big_l, p).value
        approx = (big_l + math.log(big_l) - math.log(p.beta)) / p.theta
        assert abs(exact - approx) <= 3.0 * math.log(big_l) / big_l


def test_tail_expansion_two_term_shape():
    # Q(u) = (L + log L - log beta)/theta + o(1)
    p = Params(2.0, 3.0)
    u = 1e-9
    big_l = -math.log(u)
    expected = (big_l + math.log(big_l) - math.log(3.0)) / 2.0
    assert quantile_tail_expansion(u, p) == pytest.approx(expected, rel=1e-14)


def test_tail_expansion_requires_deep_tail():
    p = Params(1.0, 2.0)
    with pytest.raises(DomainError):
        quantile_tail_expansion(0.9, p)  # L < 1: not a tail


def test_integral_form_equals_direct_expansion():
    # the loglog-integral decomposition reassembles to the same two-term
    # expansion once its additive constant is included
    for theta, beta in PARAM_GRID:
        p = Params(theta, beta)
        for u in (1e-3, 1e-7, 1e-13):
            assert quantile_tail_expansion_integral(u, theta, beta) == pytest.approx(
                quantile_tail_expansion(u, p), rel=1e-12
            )


def test_integral_form_domain():
    with pytest.raises(ValueError):
        quantile_tail_expansion_integral(0.7, 1.0, 2.0)


def test_error_order_is_log_squared():
    # e(u) = |Q(u) - expansion| decays like (log 1/u)^{-2}: the weighted
    # errors e(u)*L^2 stay within a modest band over twelve decades
    for theta, beta in PARAM_GRID:
        p = Params(theta, beta)
        weighted = []
        for u in (1e-2, 1e-4, 1e-6, 1e-8, 1e-10, 1e-12, 1e-14):
            big_l = -math.log(u)
            err = abs(quantile_exact(u, p).value - quantile_tail_expansion(u, p))
            weighted.append(err * big_l * big_l)
        ratio = max(weighted) / min(weighted)
        assert ratio <= 50.0, f"ratio {ratio:.1f} at theta={theta}, beta={beta}"


def test_expansion_terms_fixed_point_identity():
    # theta*x = L + log x + log1p(R/x) - log R holds at the exact root
    for theta, beta in PARAM_GRID:
        p = Params(theta, beta)
        for u in (1e-3, 1e-8, 1e-13):
            terms = expansion_terms(u, theta, beta)
            assert abs(terms["fixed_point_residual"]) <= 1e-11
            assert quantile_exact(u, p).value == pytest.approx(terms["value"], rel=1e-12)


def test_expansion_terms_relative_shift_decays():
    shifts = [
        abs(expansion_terms(u, 1.0, 2.0)["relative_shift"])
        for u in (1e-2, 1e-5, 1e-9, 1e-13)
    ]
    assert shifts == sorted(shifts, reverse=True)


def test_pi_variation():
    # Gumbel-domain signature on the quantile scale:
    # Q(lambda*u) - Q(u) -> gamma * log(1/lambda)
    for theta, beta in PARAM_GRID:
        p = Params(theta, beta)
        gamma = 1.0 / theta
        u = 1e-10
        for lam in (0.5, 2.0):
            gap = quantile_exact(lam * u, p).value - quantile_exact(u, p).value
            assert abs(gap - gamma * math.log(1.0 / lam)) <= 0.05 * gamma


def test_solver_satisfies_fixed_point():
    # h(y) = log1p(y/beta) - y + L == 0 at the returned root
    ls = np.array([0.5, 3.0, 20.0, 300.0])
    ys = _solve_scaled_array(ls, 2.0)
    resid = np.log1p(ys / 2.0) - ys + ls
    assert np.max(np.abs(resid)) < 1e-11


def test_overflowing_quantile_raises():
    # theta = 1e-310 is a valid (subnormal) rate, but y/theta overflows
    p = Params(1e-310, 2.0)
    with pytest.raises(DomainError):
        quantile_exact(0.1, p)
    with pytest.raises(DomainError):
        quantile_tail_expansion(0.1, p)


def test_overflowing_log_tail_quantile_raises():
    p = Params(1e-310, 2.0)
    with pytest.raises(DomainError):
        quantile_from_log_tail(-math.log(0.1), p)


def test_overflowing_quantile_values_raises():
    with pytest.raises(DomainError):
        quantile_values(np.array([0.5, 0.1]), Params(1e-310, 2.0))


# ---------------------------------------------------------------------------
# property test of the scalar and array solvers


def _residual_bound(big_l, y):
    # the solvers stop once |h(y)| <= max(1e-13, 8 eps max(1, L + y)); the
    # entry points return x = y/theta, and recovering y = theta*x rounds
    # twice more, which moves h by up to 2 eps y since |h'(y)| < 1
    eps = np.finfo(float).eps
    return max(1e-13, 8.0 * eps * max(1.0, big_l + y)) + 2.0 * eps * y


@settings(derandomize=True, max_examples=300, deadline=None)
@given(
    theta=st.floats(1e-3, 1e3),
    beta=st.floats(1.0, 1e8, exclude_min=True),
    big_l=st.floats(1e-12, 700.0),
)
def test_solvers_residual_and_agreement(theta, beta, big_l):
    p = Params(theta, beta)
    u = math.exp(-big_l)
    solved = {
        "exact": (quantile_exact(u, p).value, -math.log(u)),
        "log_tail": (quantile_from_log_tail(big_l, p).value, big_l),
        "values": (float(quantile_values(np.array([u]), p)[0]), -math.log(u)),
    }
    for name, (x, solved_l) in solved.items():
        y = theta * x
        resid = math.log1p(y / beta) - y + solved_l
        assert abs(resid) <= _residual_bound(solved_l, y), name
    # for u > 1/2 and beta near 1, f(0) = theta*(beta-1)/beta -> 0 and Q is
    # ill-conditioned there, so agreement is only asserted on u <= 1/2
    if u <= 0.5:
        ref = solved["log_tail"][0]
        for name in ("exact", "values"):
            assert solved[name][0] == pytest.approx(ref, rel=1e-13), name


@settings(derandomize=True, max_examples=300, deadline=None)
@given(
    theta=st.floats(1e-3, 1e3),
    beta=st.floats(1.0, 1e8, exclude_min=True),
    big_l=st.floats(700.0, 1e6),
    step=st.floats(1e-6, 1e3),
)
def test_log_tail_solver_deep_residual_and_monotone(theta, beta, big_l, step):
    # past L = 700 exp(-L) nears underflow and only the log-tail solve is
    # left; every deep record takes it.  The step keeps the two roots further
    # apart than the solver's tolerance, so their order is the true order.
    p = Params(theta, beta)
    ls = (big_l, big_l + step)
    try:
        xs = [quantile_from_log_tail(v, p).value for v in ls]
    except DomainError as exc:
        assert "overflows" in str(exc)
        return
    for solved_l, x in zip(ls, xs):
        y = theta * x
        resid = math.log1p(y / beta) - y + solved_l
        assert abs(resid) <= _residual_bound(solved_l, y)
    assert xs[1] >= xs[0]
