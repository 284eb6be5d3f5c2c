"""Ordinary least squares with t-based inference, via the normal equations."""

from __future__ import annotations

import math
import sys
from dataclasses import asdict, dataclass

import numpy as np

from .errors import ParameterError, SingularDesignError


@dataclass(frozen=True)
class RegressionReport:
    """OLS estimates keyed by covariate name ('intercept' first)."""

    names: tuple[str, ...]
    coefficients: dict[str, float]
    std_errors: dict[str, float]
    t_stats: dict[str, float]
    p_values: dict[str, float]
    ci_95: dict[str, tuple[float, float]]
    adj_r_squared: float
    n: int

    def to_json_dict(self) -> dict:
        """Every field but names, which the coefficients' keys already give in order."""
        data = asdict(self)
        del data["names"]
        return data


# DiDonato & Morris's tolerance for the continued fraction. The caps only bound the
# loops: over df from 1 to 1e100, |t| from 1e-300 to 1e300 and alpha from 1e-300 to
# 0.999999, the fraction took at most 161 terms and Newton at most 7 steps.
_EPS = 2.0 ** -52
_MAX_FRACTION_TERMS = 10_000
_MAX_NEWTON_STEPS = 64
_HALF_LOG_PI = 0.5 * math.log(math.pi)


def _checked_df(df: float) -> float:
    """df as a Python float, so that the tail's scalar arithmetic stays off numpy."""
    if not 1.0 <= df < math.inf:
        raise ParameterError(f"degrees of freedom must be finite and at least 1, got {df!r}")
    return float(df)


def _stirling_tail(z: float) -> float:
    """ln Gamma(z) - ((z - 1/2) ln z - z + ln(2 pi)/2), by five terms of Stirling's series."""
    w = 1.0 / (z * z)
    return (1 / 12 - (1 / 360 - (1 / 1260 - (1 / 1680 - w / 1188) * w) * w) * w) / z


def _log_gamma_ratio(a: float) -> float:
    """ln(Gamma(a + 1/2) / Gamma(a)).

    lgamma(a + 1/2) - lgamma(a) cancels to about 1e-12 relative at a ~ 13,500, so
    from a = 20 on the ratio comes from Stirling's series, where the leading terms
    reduce to a ln(1 + 1/(2a)) - 1/2 + ln(a)/2 and the truncation error is below
    1e-17; below 20 math.gamma's few-ulp quotient is the better value.
    """
    if a < 20.0:
        return math.log(math.gamma(a + 0.5) / math.gamma(a))
    return (a * math.log1p(0.5 / a) - 0.5 + 0.5 * math.log(a)
            + (_stirling_tail(a + 0.5) - _stirling_tail(a)))


def _beta_args(t: float, df: float) -> tuple[float, float, float, float]:
    """x = df/(df + t^2), y = t^2/(df + t^2), ln x and ln y, for 0 < |t| < inf.

    Each comes from t^2/df or df/t^2 without forming 1 - x, which would carry x's
    rounding into the tail a-fold; ln x falls back to logarithms where t^2/df
    overflows.
    """
    q = t * t / df
    r = df / t / t
    if q < math.inf:
        log_x = -math.log1p(q)
    else:
        log_x = math.log(df) - 2.0 * math.log(abs(t)) - math.log1p(r)
    return 1.0 / (1.0 + q), 1.0 / (1.0 + r), log_x, -math.log1p(r)


def _fraction(a: float, b: float, x: float, y: float, lam: float) -> float:
    """I_x(a, b) / (x^a y^b / B(a, b)) by the continued fraction BFRAC of DiDonato &
    Morris (ACM TOMS 18:360, 1992), for y = 1 - x and lam = (a + b) y - b >= 0.

    lam comes from y, so the fraction does not cancel near x = a/(a + b) the way
    Lentz's form of the same fraction does (Numerical Recipes 6.4): there it lost
    1e-12 relative at df = 26,996 and t = 1.96.
    """
    c = lam + 1.0
    c0 = b / a
    c1 = 1.0 / a + 1.0
    yp1 = y + 1.0
    p, s = 1.0, a + 1.0
    an, bn, anp1, bnp1 = 0.0, 1.0, 1.0, c / c1
    r = c1 / c
    for n in range(1, _MAX_FRACTION_TERMS + 1):
        t = n / a
        w = n * (b - n) * x
        e = a / s
        alpha = p * (p + c0) * e * e * (w * x)
        e = (t + 1.0) / (c1 + t + t)
        beta = n + w / s + e * (c + n * yp1)
        p = t + 1.0
        s += 2.0
        an, anp1 = anp1, alpha * an + beta * anp1
        bn, bnp1 = bnp1, alpha * bn + beta * bnp1
        r0, r = r, anp1 / bnp1
        if abs(r - r0) <= _EPS * r:
            break
        an, bn, anp1, bnp1 = an / bnp1, bn / bnp1, r, 1.0
    return r


def _tail(t: float, df: float) -> float:
    """P(|T_df| >= |t|) = I_x(df/2, 1/2) for one float t."""
    if t != t:
        return t
    if t == 0.0:
        return 1.0
    if abs(t) == math.inf:
        return 0.0
    a = 0.5 * df
    x, y, log_x, log_y = _beta_args(t, df)
    front = math.exp(a * log_x + 0.5 * log_y + _log_gamma_ratio(a) - _HALF_LOG_PI)
    lam = (a + 0.5) * y - 0.5
    if lam >= 0.0:
        return front * _fraction(a, 0.5, x, y, lam)
    return 1.0 - front * _fraction(0.5, a, y, x, -lam)


def _log_density(t: float, df: float) -> float:
    """ln of Student's t density at t > 0: x^((df+1)/2) / (sqrt(df) B(df/2, 1/2))."""
    a = 0.5 * df
    _, _, log_x, _ = _beta_args(t, df)
    return (a + 0.5) * log_x + _log_gamma_ratio(a) - _HALF_LOG_PI - 0.5 * math.log(df)


def t_sf_two_sided(t: np.ndarray, df: int) -> np.ndarray:
    """Two-sided p-value for t statistics: P(|T_df| >= |t|).

    Uses the regularized incomplete beta identity
    P(|T| >= |t|) = I_x(df/2, 1/2) with x = df/(df+t^2), evaluated per element on
    Python floats. A NaN statistic gives NaN, 0 gives 1 and an infinite one 0.
    """
    df = _checked_df(df)
    t = np.asarray(t, dtype=float)
    p = np.array([_tail(v, df) for v in t.ravel().tolist()]).reshape(t.shape)
    return p[()]  # a numpy scalar for a scalar t, as a ufunc gives


def t_critical(alpha: float, df: int) -> float:
    """Two-sided critical value t* with P(|T_df| >= t*) = alpha.

    Newton's method on ln P(|T| >= t) against ln t, started from the normal
    quantile, with the exact t density as the slope; it stops once a step is
    within a few ulps or no longer shrinks (the tail's rounding). Gives inf where
    alpha is so small that t* leaves the floats or the tail near it underflows.
    """
    from statistics import NormalDist  # imported here: its 2.4 ms would delay every command

    df = _checked_df(df)
    if not 0.0 < alpha < 1.0:
        raise ParameterError(f"alpha must lie in (0, 1), got {alpha!r}")
    log_alpha = math.log(alpha)
    # below t*, since T's tails are the heavier; alpha / 2 may underflow to 0
    t = -NormalDist().inv_cdf(max(0.5 * alpha, sys.float_info.min))
    last = math.inf
    for _ in range(_MAX_NEWTON_STEPS):
        p = _tail(t, df)
        if p == 0.0:  # t* is so large that the tail near it underflows
            return math.inf
        log_p = math.log(p)
        # d ln p / d ln t = -2 t f(t) / p, taken in logs: f underflows before p
        slope = math.exp(math.log(2.0) + math.log(t) + _log_density(t, df) - log_p)
        try:
            step = t * math.expm1((log_p - log_alpha) / slope)
        except OverflowError:  # t* lies beyond the floats
            return math.inf
        t += step
        if abs(step) <= 4.0 * math.ulp(t) or abs(step) >= last:
            break
        last = abs(step)
    return t


def fit_linear(y: np.ndarray, covariates: dict[str, np.ndarray]) -> RegressionReport:
    """OLS of y on the named covariates plus an intercept.

    Coefficients come from the normal equations X'X b = X'y solved by LU
    factorization; standard errors from s^2 (X'X)^-1 with the unbiased
    residual variance; p-values two-sided against t(n-p); 95% CIs from the
    t critical value; adjusted R^2 = 1 - (1-R^2)(n-1)/(n-p).
    """
    y = np.asarray(y, dtype=float)
    names = ("intercept",) + tuple(covariates)
    columns = [np.ones_like(y)] + [np.asarray(c, dtype=float) for c in covariates.values()]
    X = np.column_stack(columns)
    n, p = X.shape
    if n <= p:
        raise ParameterError(f"need more than {p} samples, got {n}")
    if np.linalg.matrix_rank(X) < p:
        raise SingularDesignError("design matrix is rank-deficient")
    xtx = X.T @ X
    xty = X.T @ y
    try:
        beta = np.linalg.solve(xtx, xty)
        cov_unscaled = np.linalg.solve(xtx, np.eye(p))
    except np.linalg.LinAlgError as exc:
        raise SingularDesignError(f"normal equations are singular: {exc}") from exc
    resid = y - X @ beta
    rss = float(resid @ resid)
    df = n - p
    s2 = rss / df
    se = np.sqrt(s2 * np.diag(cov_unscaled))
    with np.errstate(divide="ignore", invalid="ignore"):
        t = np.where(se > 0, beta / se, np.inf * np.sign(beta))
    pvals = t_sf_two_sided(t, df)
    tcrit = t_critical(0.05, df)
    tss = float(((y - y.mean()) ** 2).sum())
    r2 = 1.0 - rss / tss if tss > 0 else 1.0
    adj = 1.0 - (1.0 - r2) * (n - 1) / (n - p)
    return RegressionReport(
        names=names,
        coefficients={k: float(b) for k, b in zip(names, beta)},
        std_errors={k: float(v) for k, v in zip(names, se)},
        t_stats={k: float(v) for k, v in zip(names, t)},
        p_values={k: float(v) for k, v in zip(names, pvals)},
        ci_95={k: (float(b - tcrit * e), float(b + tcrit * e))
               for k, b, e in zip(names, beta, se)},
        adj_r_squared=float(adj),
        n=n,
    )
