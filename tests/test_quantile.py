"""Quantile solvers, Lambert-W cross-check, and the tail expansion."""

import contextlib
import hashlib
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plevt import (
    DomainError,
    Params,
    SeedSpec,
    quantile_exact,
    quantile_from_log_tail,
    quantile_tail_expansion,
    quantile_values,
    survival,
)
import plevt.distribution
import plevt.quantile
from plevt.distribution import _BLOCK
from plevt.quantile import _quantiles_at_log_tails, _solve_block, _solve_scaled
from plevt.sampling import top_order_statistics_rows

from oracles import (
    expansion_terms,
    quantile_bisection,
    quantile_lambertw,
    quantile_tail_expansion_integral,
    solve_block_fresh_arrays,
)


def _solve_scaled_array(L, beta):
    """y = theta*x at each L by the block solver over blocks of ``_BLOCK``
    values, with no refusal: the stand-ins L <= 0 below give what the loop
    gives (a float for a scalar L)."""
    flat = np.asarray(L, dtype=np.float64).reshape(-1)
    y = np.concatenate([_solve_block(flat[i:i + _BLOCK], beta)
                        for i in range(0, max(flat.size, 1), _BLOCK)])
    return float(y[0]) if np.ndim(L) == 0 else y.reshape(np.shape(L))


PARAM_GRID = [(1.0, 2.0), (3.0, 1.5), (0.5, 1.2), (0.7, 6.0)]
U_GRID = [0.9, 0.5, 0.1, 1e-2, 1e-4, 1e-6, 1e-8, 1e-10, 1e-12]


@pytest.mark.parametrize("value", ["0.5", True, np.True_, None], ids=repr)
def test_scalar_entry_points_refuse_non_reals(value):
    p = Params(1.0, 2.0)
    got = re.escape(repr(value))
    for call, name in ((quantile_exact, "tail mass"), (quantile_tail_expansion, "tail mass"),
                       (quantile_from_log_tail, re.escape("log(1/u)"))):
        with pytest.raises(DomainError, match=f"{name} must be a real number, got {got}"):
            call(value, p)
    # ints and numpy reals are reals, taken as float
    assert quantile_exact(np.float32(0.5), p) == quantile_exact(0.5, p)
    assert quantile_from_log_tail(800, p) == quantile_from_log_tail(np.float64(800.0), p)


@pytest.mark.parametrize("value", ["x", ["0.5", "a"], "0.5", [0.5, None], [True, False],
                                   np.array([0.5 + 0.0j])], ids=repr)
def test_quantile_values_refuses_non_reals(value):
    # one look at the dtype: no bare ValueError, no coerced string
    with pytest.raises(DomainError, match="tail masses must be real numbers"):
        quantile_values(value, Params(1.0, 2.0))


def test_quantile_values_takes_integer_and_float32_arrays():
    p = Params(1.0, 2.0)
    got = quantile_values(np.array([0.5, 0.25], dtype=np.float32), p)
    assert got.dtype == np.float64
    np.testing.assert_array_equal(got, quantile_values([0.5, 0.25], p))
    with pytest.raises(DomainError, match=re.escape("strictly in (0, 1)")):
        quantile_values(np.array([1, 0]), p)


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


@pytest.mark.parametrize("beta", [1.5, 2.0, 11.0])
def test_log_tail_array_within_two_ulp_of_the_scalar_solve(beta):
    # record log tails G_400 ~ Gamma(400); numpy's log1p and libm's differ
    # in the last bit on a few percent of arguments
    p = Params(1.0, beta)
    ls = np.random.default_rng(400).standard_gamma(400, 20_000)
    got = _quantiles_at_log_tails(ls, p)
    ref = np.array([quantile_from_log_tail(v, p).value for v in ls.tolist()])
    assert (got > 0.0).all() and (ref > 0.0).all()
    ulps = np.abs(got.view(np.int64) - ref.view(np.int64))
    assert ulps.max() <= 2


@pytest.mark.parametrize("bad", [0.0, -0.0, -1.0, math.inf, -math.inf, math.nan])
def test_log_tail_array_refuses_non_finite_or_non_positive(bad):
    with pytest.raises(DomainError, match=re.escape("log(1/u) must be finite and > 0")):
        _quantiles_at_log_tails(np.array([3.0, bad, 5.0]), Params(1.0, 2.0))


def test_overflowing_quantile_values_raises():
    with pytest.raises(DomainError):
        quantile_values(np.array([0.5, 0.1]), Params(1e-310, 2.0))


OUT_OF_RANGE = "tail masses must lie strictly in (0, 1): log(1/u) must be finite and > 0"


@pytest.mark.parametrize("bad", [0.0, 1.0, 1.5, -0.5, math.inf, math.nan])
def test_array_refusals_check_the_whole_input_first(bad):
    # the quantiles of the first block overflow at this theta, but a tail mass
    # out of range in the last block is refused first, as when the whole
    # input was checked before one solve over it; and as before, in range,
    # the overflow is refused
    p = Params(1e-310, 2.0)
    u = np.full(2 * _BLOCK + 5, 0.5)
    u[-1] = bad
    with pytest.raises(DomainError, match=re.escape(OUT_OF_RANGE)):
        quantile_values(u, p)
    with np.errstate(divide="ignore", invalid="ignore"):
        L = -np.log(u)
    with pytest.raises(DomainError, match=re.escape(OUT_OF_RANGE)):
        _quantiles_at_log_tails(L, p)
    with pytest.raises(DomainError, match=re.escape(f"quantile overflows float64 for {p}")):
        quantile_values(u[:-1], p)


def test_array_entry_points_take_0d_input():
    # a 0-d u or L gives a float, the bits of the same value in a 1-d array
    p = Params(0.7, 1.5)
    for u in (0.25, np.float64(0.25), np.array(0.25), 1e-300):
        got = quantile_values(u, p)
        assert type(got) is float
        assert got == quantile_values(np.array([u]), p)[0]
        assert _quantiles_at_log_tails(np.array(-math.log(u)), p) == got
    for bad in (0.0, np.array(1.0), math.nan):
        with pytest.raises(DomainError, match=re.escape(OUT_OF_RANGE)):
            quantile_values(bad, p)
    tiny = Params(1e-310, 2.0)
    with pytest.raises(DomainError, match=re.escape(f"quantile overflows float64 for {tiny}")):
        quantile_values(np.array(0.5), tiny)
    assert quantile_values(np.empty((0, 3)), p).shape == (0, 3)


# ---------------------------------------------------------------------------
# the array solver runs in blocks of _BLOCK elements: same bits, less memory


def _sha256(a):
    return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()


def test_blocked_solve_bits_pinned():
    # digests recorded with the whole-array solver, before it ran in blocks;
    # the inputs are fixed, so they also pin that no block size moves a bit
    p = Params(1.3, 2.5)
    u = np.logspace(-300, np.log10(0.9), 49_159)  # 3 blocks of 2**14, and 7
    assert _sha256(quantile_values(u, p)) == (
        "583b9d798c41b055d5b57ec236a2af457b02ddd57158a59c904199cca13643ad")
    rows = np.exp(-np.random.default_rng(11).uniform(1e-3, 700.0, size=(1000, 21)))
    got = quantile_values(rows, p)  # (reps, k+1), 21000 values over two blocks
    assert got.shape == (1000, 21)
    assert _sha256(got) == "ce3978e9ba10e4418c117afe2cca2af32e300b519b7ddacb5c78896899a1b80d"


SCALAR_U = np.concatenate([[5e-324], np.logspace(-320.0, np.log10(0.999), 1500),
                           [0.5, 1.0 - 2.0**-53]]).tolist()
SCALAR_L = np.concatenate([[5e-324, 1e-310], np.logspace(-300.0, 300.0, 1500)]).tolist()


def _scalar_solve_digest(fn, grid, beta):
    h = hashlib.sha256()
    for theta in (0.3, 1.0, 7.0):
        results = [fn(v, Params(theta, beta)) for v in grid]
        h.update(np.array([r.value for r in results]).tobytes())
        h.update(np.array([r.iterations for r in results], dtype=np.int64).tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("beta, exact, log_tail", [
    (1.0 + 1e-7, "786c3d42bb25aa39840086d9f6c94e868a4f2faf09ac6fec7732be5db2d5a1d5",
     "8f4ff0f5eeab52b70eb234d155c1a72378074c18bb564df9eb8a7d084e40472f"),
    (2.0, "ad0b19eeca61271f5d1063ae914bd2246358f3eb0666b1bdb58c3ce819d1f604",
     "017f6a496cf2cd1c448ba289250dbc2dbd428e2ce3227ea11f5332d9b4fc57e7"),
    (1e8, "13814d76597038b247c5c592b7c23e55cf67266f688deb0ebf1950c502f503fd",
     "37708a07a3dfc712c69b1279f49a0b5e99dd0745a30dea541b2ef7c2068f7bcb"),
], ids=["beta=1+1e-7", "beta=2", "beta=1e8"])
def test_scalar_solve_bits_pinned(beta, exact, log_tail):
    # (value, iterations) of the scalar loop at theta 0.3, 1 and 7, recorded
    # before its loop invariants were hoisted; the L grid takes 1 to 15 steps
    assert _scalar_solve_digest(quantile_exact, SCALAR_U, beta) == exact
    assert _scalar_solve_digest(quantile_from_log_tail, SCALAR_L, beta) == log_tail


@pytest.mark.parametrize("size", [_BLOCK - 1, _BLOCK, _BLOCK + 1, 0])
def test_blocked_solve_does_not_depend_on_position(size):
    # reversing the input moves every value to another block and other
    # neighbours; the views are passed as they are, since the bits must not
    # depend on the input's memory layout either (numpy's strided log can
    # differ from its contiguous one in the last bit)
    p = Params(0.7, 1.0 + 1e-7)
    u = np.exp(-np.random.default_rng(size).uniform(-300.0, 300.0, size) ** 2 / 100.0)
    u = np.clip(u, 1e-300, 0.99)
    got = quantile_values(u, p)
    assert _sha256(quantile_values(u[::-1], p)) == _sha256(got[::-1])
    assert _sha256(quantile_values(u[::3], p)) == _sha256(got[::3])
    for i in (0, size - 1)[:size]:  # a 0-d input takes the same path as one element
        assert quantile_values(u[i], p) == got[i]


#: L <= 0, which the public entry points refuse: the only inputs seen to
#: reach the bracket fallback and the exit on a step that leaves y unchanged
STAND_INS = np.append(-np.logspace(-12.0, 8.0, 12), 0.0)


@pytest.mark.parametrize("beta, steps, defined", [
    (1.0 + 1e-7, {1, 2, 3, 4}, 8), (2.0, {1, 2, 3, 4}, 8), (1e8, {1}, 12),
], ids=["beta=1+1e-7", "beta=2", "beta=1e8"])
def test_each_quantile_is_independent_of_its_neighbours(beta, steps, defined):
    # a settled value leaves the solve while its neighbours step on, so its
    # bits must be those of the same value solved alone.  Subnormal L settle
    # at the first residual check and the positive grid takes from 1 to 14
    # Newton steps (by beta); the stand-ins take the loop's other exits
    rng = np.random.default_rng(5)
    distinct = np.concatenate([
        [5e-324, 1e-310, 1e-300],
        np.logspace(-12.0, 300.0, 60),
        rng.uniform(0.01, 800.0, 30),
        STAND_INS,
    ])
    L = rng.permutation(np.resize(distinct, _BLOCK + 500))  # each value in both blocks
    with np.errstate(all="ignore"):  # L <= 0 meets log1p(-1) and NaN
        alone = {v: _solve_scaled_array(v, beta) for v in distinct.tolist()}
        got = _solve_scaled_array(L, beta)
    assert _sha256(got) == _sha256(np.array([alone[v] for v in L.tolist()]))
    # the scalar loop's residual checks: 1 means settled at the first one
    assert {_solve_scaled(v, beta)[1] for v in distinct if v > 0.0} >= steps
    # both forms open the bracket at the first iterate, so they stop at the
    # same y on each stand-in where the scalar math.log1p does not raise
    scalar = {}
    for v in STAND_INS.tolist():
        with contextlib.suppress(ValueError):
            scalar[v] = _solve_scaled(v, beta)[0]
    assert len(scalar) == defined
    assert _sha256(list(scalar.values())) == _sha256(np.array([alone[v] for v in scalar]))


@pytest.mark.parametrize("beta", [1.0 + 1e-7, 1.5, 2.0, 11.0, 1e6])
def test_solve_block_bits_equal_the_fresh_array_reference(beta):
    # the solver computes into reused scratch arrays; the reference makes a
    # fresh array for every intermediate.  The log-uniform L from 5e-324 to
    # 1.7e308 settle at different steps (subnormal L at the first check);
    # only the stand-ins, L <= 0, reach the bracket fallback
    rng = np.random.default_rng(33)
    for size in (_BLOCK - 1, _BLOCK, _BLOCK + 1):
        wide = np.exp(rng.uniform(math.log(5e-324), math.log(1.7e308), size))
        wide[:len(STAND_INS) + 2] = np.append(STAND_INS, [5e-324, 1.7e308])
        for L in (rng.uniform(0.1, 700.0, size), -np.log(rng.random(size)),
                  rng.gamma(400.0, size=size), wide):
            before = L.copy()
            L.setflags(write=False)  # read, never written
            with np.errstate(all="ignore"):  # L <= 0 meets log1p(-1) and NaN
                got = _solve_block(L, beta)
                want = solve_block_fresh_arrays(L, beta)
            assert got.tobytes() == want.tobytes()
            assert L.tobytes() == before.tobytes()


def test_array_entry_points_read_their_input_and_never_write_it():
    # read-only arrays over several blocks, as a (reps, k+1) block and flat;
    # any write would raise, and the bytes must come back as they went in
    p = Params(1.3, 2.5)
    u = np.exp(-np.random.default_rng(8).uniform(1e-3, 700.0, 3 * _BLOCK + 7))
    L = -np.log(u)
    for arr in (u, L):
        arr.setflags(write=False)
    before = u.tobytes(), L.tobytes()
    flat = quantile_values(u, p)
    np.testing.assert_array_equal(quantile_values(u[:21_000].reshape(1000, 21), p).ravel(),
                                  flat[:21_000])
    np.testing.assert_array_equal(_quantiles_at_log_tails(L, p), flat)
    assert (u.tobytes(), L.tobytes()) == before


def _peak_bytes(call):
    """Peak of traced allocations during ``call()`` above those live before it."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before, _ = tracemalloc.get_traced_memory()
        call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak - before


def test_array_solve_memory_is_bounded():
    # the whole-array solver peaked at 13.5x the input bytes and 2788 bytes
    # per replication of top_order_statistics_rows; blocked, 3.0x and 1024;
    # with -log(u) and the division by theta in the blocks, 1.6x on both u:
    # the output and one block's scratch.  Of uniform u, a few settle a
    # check before the rest and stay in their blocks' working arrays; a
    # bracket fallback run for them at each step would read 1.86x
    p = Params(1.0, 2.0)
    for u in (np.linspace(1e-6, 0.9, 200_000), np.random.default_rng(2).random(200_000)):
        assert _peak_bytes(lambda: quantile_values(u, p)) <= 1.75 * u.nbytes
    reps = 20_000
    peak = _peak_bytes(lambda: top_order_statistics_rows(100_000, 20, p, SeedSpec(1), reps))
    assert peak <= 1200 * reps


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
