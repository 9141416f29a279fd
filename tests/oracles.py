"""Slow reference implementations the fast code is tested against.

Everything here trades speed for obviousness: quadrature instead of closed
forms, bisection instead of Newton, explicit loops instead of vectorized
kernels. Tests treat these as ground truth.
"""

import math

import numpy as np
from scipy.integrate import quad
from scipy.special import gammaincc, lambertw

from plevt.errors import CsvFormatError


def pdf_reference(x, theta, beta):
    if x < 0:
        return 0.0
    return theta * (beta - 1.0 + theta * x) * math.exp(-theta * x) / beta


def survival_quadrature(x, theta, beta):
    val, _err = quad(pdf_reference, x, np.inf, args=(theta, beta), limit=200)
    return val


def moment_quadrature(n, theta, beta):
    val, _err = quad(
        lambda x: x**n * pdf_reference(x, theta, beta),
        0.0,
        np.inf,
        args=(),
        limit=400,
    )
    return val


def quantile_bisection(u, theta, beta, tol=1e-14):
    """Root of survival(x) = u by plain bisection on an expanding bracket."""

    def surv(x):
        return (beta + theta * x) * math.exp(-theta * x) / beta

    lo, hi = 0.0, 1.0
    while surv(hi) > u:
        hi *= 2.0
        if hi > 1e9:
            raise RuntimeError("bracket blew up")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if surv(mid) > u:
            lo = mid
        else:
            hi = mid
        if hi - lo <= tol * max(1.0, hi):
            break
    return 0.5 * (lo + hi)


def quantile_lambertw(u, theta, beta):
    """Closed form via the lower Lambert W branch.

    From ``(beta + theta*x) e^{-(beta + theta*x)} = beta u e^{-beta}`` the
    quantile is ``x = (-W_{-1}(-beta*u*exp(-beta)) - beta) / theta``.  It
    returns inf once ``exp(-beta)`` underflows (beta above about 745).
    """
    w = lambertw(-beta * u * math.exp(-beta), k=-1)
    return float((-w.real - beta) / theta)


def quantile_tail_expansion_integral(u, theta, beta):
    """Integral form of the two-term tail expansion on u in (0, 1/2).

    Rewrites log log(1/u) through ``I(u) = integral_u^{1/2} ds / (s log(1/s))
    = log log(1/u) - log log 2``, giving ``d + (L + I(u)) / theta`` with the
    additive constant ``d = (log log 2 - log beta) / theta`` fixed by
    agreement with ``(L + log L - log beta) / theta``; the two forms differ
    only by rounding.
    """
    if not 0.0 < u < 0.5:
        raise ValueError(f"integral form needs 0 < u < 1/2, got {u!r}")
    big_l = -math.log(u)
    log_log_2 = math.log(math.log(2.0))
    integral = math.log(big_l) - log_log_2
    d = (log_log_2 - math.log(beta)) / theta
    return d + (big_l + integral) / theta


def expansion_terms(u, theta, beta):
    """Pieces of the fixed-point identity at the bisection root of survival(x) = u.

    With L = log(1/u) and R = beta/theta the root satisfies ``theta*x = L +
    log(x) + log1p(R/x) - log(R)``; ``fixed_point_residual`` is the gap in
    that identity, and ``relative_shift = (log(x) + log1p(R/x) - log(beta))
    / L`` is the second-order term that the logarithmic sandwich bounds
    control.
    """
    x = quantile_bisection(u, theta, beta)
    big_l = -math.log(u)
    r = beta / theta
    log1p_ratio = math.log1p(r / x)
    return {
        "value": x,
        "relative_shift": (math.log(x) + log1p_ratio - math.log(beta)) / big_l,
        "fixed_point_residual": theta * x - big_l - (math.log(x) + log1p_ratio - math.log(r)),
    }


def central_difference(fn, x, h=1e-6):
    return (fn(x + h) - fn(x - h)) / (2.0 * h)


def hill_naive(sorted_values, k):
    """Direct transcription: mean of j-weighted top spacings."""
    xs = list(sorted_values)
    n = len(xs)
    total = 0.0
    for j in range(1, k + 1):
        total += j * (xs[n - j] - xs[n - j - 1])
    return total / k


def dh_naive(sorted_values, weights, k, s):
    """Direct loops for the weighted spacing statistic and its normalizers.

    weights is the explicit list [f(1), ..., f(k)].
    """
    xs = list(sorted_values)
    n = len(xs)
    t = 0.0
    for j in range(1, k + 1):
        spacing = xs[n - j] - xs[n - j - 1]
        t += weights[j - 1] * spacing**s
    a, sn = spacing_normalizers(weights[:k], s)
    bn = max(weights[j - 1] / j**s for j in range(1, k + 1)) / sn
    return t, a, sn, bn


def spacing_normalizers(weights, s):
    """(a_n, s_n) of the weighted spacing statistic for weights [f(1), ..., f(k)]."""
    k = len(weights)
    a = math.gamma(s + 1.0) * sum(
        weights[j - 1] * j**-s for j in range(1, k + 1)
    )
    var_term = math.gamma(2.0 * s + 1.0) - math.gamma(s + 1.0) ** 2
    sn = math.sqrt(
        var_term * sum((weights[j - 1] / j**s) ** 2 for j in range(1, k + 1))
    )
    return a, sn


def ks_critical_two_sample(n, m, alpha=0.001):
    """Asymptotic two-sample critical value c(alpha)*sqrt((n+m)/(n*m)), with
    c(alpha) = sqrt(-log(alpha/2)/2)."""
    return math.sqrt(-0.5 * math.log(alpha / 2.0)) * math.sqrt((n + m) / (n * m))


def records_naive(stream):
    """Running-maximum records with 1-based indices, as a python loop."""
    values, indices = [], []
    best = -math.inf
    for i, x in enumerate(stream, start=1):
        if x > best:
            best = x
            values.append(x)
            indices.append(i)
    return values, indices


def parse_values_lines_loop(lines, label="<stream>"):
    """CSV lines parsed one at a time: a first line that is not a number is
    a header, every later line must be a finite number, and the first bad
    line is named as ``label:line:``."""
    lines = list(lines)
    values = []
    if lines and lines[-1] == "":
        lines.pop()
    if lines and lines[0].startswith("\ufeff"):
        lines[0] = lines[0][1:]
    for line_no, raw in enumerate(lines, start=1):
        try:
            v = float(raw.strip())
        except ValueError:
            if line_no == 1:
                continue
            raise CsvFormatError(label, line_no, raw) from None
        if not math.isfinite(v):
            raise CsvFormatError(label, line_no, raw)
        values.append(v)
    if not values:
        raise CsvFormatError(label, max(len(lines), 1), "<no numeric rows>")
    return np.asarray(values, dtype=np.float64)


# ---------------------------------------------------------------------------
# Finite-n references for the spacing and record CLTs.
#
# Everything below works on the log tail L(x) = -log S(x) = theta*x -
# log1p(theta*x/beta) of the closed-form survival function, and accepts
# beta = inf for the pure exponential parent, where every answer is known
# exactly (Renyi: top spacings are independent Exp(j*theta); records are
# Gamma(n)/theta).


def log_tail_reference(x, theta, beta):
    """L(x) = -log S(x); increasing in x, equal to theta*x when beta = inf."""
    tx = theta * np.asarray(x, dtype=np.float64)
    return tx - np.log1p(tx / beta)


def invert_log_tail(big_l, theta, beta, iterations=80):
    """Vectorised bisection for L(x) = big_l.

    theta*x*(1 - 1/beta) <= L(x) <= theta*x brackets the root in
    [L/theta, L/(theta*(1 - 1/beta))], a ratio of at most beta/(beta-1), so
    a fixed 80 halvings reach double precision.
    """
    big_l = np.asarray(big_l, dtype=np.float64)
    lo = big_l / theta
    hi = big_l / (theta * (1.0 - 1.0 / beta))
    for _ in range(iterations):
        mid = 0.5 * (lo + hi)
        below = log_tail_reference(mid, theta, beta) < big_l
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    return 0.5 * (lo + hi)


def expected_top_spacing(j, n, theta, beta):
    """E[X_{n-j+1,n} - X_{n-j,n}] = int_0^inf binom.pmf(j, n, S(x)) dx.

    The spacing is positive exactly on the x where j of the n values exceed
    x; the pmf is evaluated in log space and integrated over the range where
    it is not negligible, with a breakpoint at its peak n*S(x) = j.
    """
    log_choose = math.lgamma(n + 1.0) - math.lgamma(j + 1.0) - math.lgamma(n - j + 1.0)

    def pmf(x):
        big_l = float(log_tail_reference(x, theta, beta))
        if big_l <= 0.0:
            return 0.0
        return math.exp(log_choose - j * big_l + (n - j) * math.log1p(-math.exp(-big_l)))

    peak = float(invert_log_tail(math.log(n / j), theta, beta))
    end = float(invert_log_tail(math.log(n) + 60.0, theta, beta))
    val, _err = quad(pmf, 0.0, end, points=[peak], limit=400,
                     epsabs=0.0, epsrel=1e-11)
    return val


def spacing_mean_quadrature(n, weights, theta, beta):
    """Exact E[(t_n(f,1) - gamma*a_n)/(gamma*s_n)] at sample size n.

    ``weights`` is the explicit list [f(1), ..., f(k)]; the power is s = 1,
    where the statistic is linear in the spacings.
    """
    gamma = 1.0 / theta
    a, sn = spacing_normalizers(weights, 1.0)
    t_mean = sum(w * expected_top_spacing(j, n, theta, beta)
                 for j, w in enumerate(weights, start=1))
    return (t_mean - gamma * a) / (gamma * sn)


def record_mean_quadrature(n, theta, beta):
    """Exact E[(X^(n) - gamma*n)/(gamma*sqrt(n))] for the n-th record.

    P(X^(n) > x) = P(G_n > L(x)) = Q(n, L(x)), the upper regularized
    incomplete gamma function, so E[X^(n)] = int_0^inf Q(n, L(x)) dx.
    """
    gamma = 1.0 / theta
    mid = float(invert_log_tail(float(n), theta, beta))
    end = float(invert_log_tail(n + 60.0 * math.sqrt(n) + 60.0, theta, beta))
    val, _err = quad(lambda x: gammaincc(n, float(log_tail_reference(x, theta, beta))),
                     0.0, end, points=[mid], limit=400, epsabs=0.0, epsrel=1e-12)
    return (val - gamma * n) / (gamma * math.sqrt(n))


def _pseudo_lindley_draws(rng, theta, beta, shape):
    """Draws from the (theta, beta) law: Exp(theta) with probability
    1 - 1/beta, Gamma(2, theta) otherwise; ``beta`` broadcasts over shape."""
    gamma2 = rng.random(shape) < 1.0 / beta
    return rng.gamma(np.where(gamma2, 2.0, 1.0), 1.0 / theta)


def spacing_statistic_law(n, weights, s, theta, beta, reps, seed, chunk=20_000):
    """Sorted draws of (t_n(f,s) - gamma**s*a_n)/(gamma**s*s_n), exact in law.

    Per replication: the tail mass of X_{n-k,n} is U_(k+1) ~ Beta(k+1, n-k);
    X_{n-k,n} = t solves L(t) = -log U_(k+1); given t the top k values are
    t plus k i.i.d. excesses, whose law (the excess law above t) is the
    pseudo-Lindley law (theta, beta + theta*t). The top spacings are the
    spacings of the sorted excesses with 0 prepended.
    """
    k = len(weights)
    w = np.asarray(weights, dtype=np.float64)
    gamma = 1.0 / theta
    a, sn = spacing_normalizers(weights, s)
    rng = np.random.default_rng(seed)
    out = []
    for start in range(0, reps, chunk):
        m = min(chunk, reps - start)
        t = invert_log_tail(-np.log(rng.beta(k + 1, n - k, size=m)), theta, beta)
        excess = np.sort(_pseudo_lindley_draws(rng, theta, (beta + theta * t)[:, None],
                                               (m, k)), axis=1)
        top = np.diff(excess, axis=1, prepend=0.0)[:, ::-1]  # D_1 .. D_k
        out.append((top**s @ w - gamma**s * a) / (gamma**s * sn))
    return np.sort(np.concatenate(out))


def record_statistic_law(n, theta, beta, reps, seed):
    """Sorted draws of (X^(n) - gamma*n)/(gamma*sqrt(n)), exact in law:
    G_n ~ Gamma(n) and X^(n) solves L(X^(n)) = G_n."""
    gamma = 1.0 / theta
    g = np.random.default_rng(seed).gamma(float(n), 1.0, size=reps)
    x = invert_log_tail(g, theta, beta)
    return np.sort((x - gamma * n) / (gamma * math.sqrt(n)))

