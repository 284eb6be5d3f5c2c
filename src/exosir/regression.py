"""Ordinary least squares with t-based inference, via the normal equations."""

from __future__ import annotations

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


def t_sf_two_sided(t: np.ndarray, df: int) -> np.ndarray:
    """Two-sided p-value for t statistics: P(|T_df| >= |t|).

    Uses the regularized incomplete beta identity
    P(|T| >= |t|) = I_{df/(df+t^2)}(df/2, 1/2).
    """
    from scipy import special  # imported here: only the sweep's OLS needs scipy

    t = np.asarray(t, dtype=float)
    return special.betainc(df / 2.0, 0.5, df / (df + t * t))


def t_critical(alpha: float, df: int) -> float:
    """Two-sided critical value t* with P(|T_df| >= t*) = alpha."""
    from scipy import special

    x = special.betaincinv(df / 2.0, 0.5, alpha)
    return float(np.sqrt(df * (1.0 - x) / x))


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
