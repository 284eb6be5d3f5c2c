"""OLS internals checked against scipy.stats and a brute-force solver."""

import numpy as np
import pytest
from scipy import stats

from conftest import ols_oracle
from exosir.errors import ParameterError, SingularDesignError
from exosir.regression import fit_linear, t_critical, t_sf_two_sided


def _random_dataset(rng, n, noise=0.05):
    x1 = rng.uniform(0.0, 1.0, n)
    x2 = rng.uniform(0.0, 2.0, n)
    x3 = rng.normal(0.5, 0.3, n)
    y = 0.7 + 1.3 * x1 - 0.4 * x2 + 0.9 * x3 + noise * rng.normal(size=n)
    return y, {"x1": x1, "x2": x2, "x3": x3}


def test_t_helpers_match_scipy():
    for df in (1, 2, 3, 10, 100, 3371, 26_996):
        for t in (0.0, 0.5, 1.96, 2.5, 9.23, 37.8, 53.3, 143.4):
            want = 2.0 * stats.t.sf(t, df)
            for signed in (t, -t):
                got = float(t_sf_two_sided(signed, df))
                if want >= 1e-300:
                    assert got == pytest.approx(want, rel=5e-11), (signed, df)
                else:
                    assert got < 1e-300, (signed, df)
        for alpha in (0.05, 0.01):
            want = stats.t.ppf(1.0 - alpha / 2.0, df)
            assert t_critical(alpha, df) == pytest.approx(want, rel=5e-11), (alpha, df)


# Reference values at 50 digits, from mpmath 1.3:
#   import mpmath; mpmath.mp.dps = 50; half = mpmath.mpf(1) / 2
#   def p(t, df):  # P(|T_df| >= |t|) = I_x(df/2, 1/2), x = df/(df + t^2)
#       t, df = mpmath.mpf(t), mpmath.mpf(df)
#       return mpmath.betainc(df / 2, half, 0, df / (df + t * t), regularized=True)
#   def t_star(df):  # two-sided 95% critical value
#       return mpmath.findroot(lambda t: p(t, df) - mpmath.mpf("0.05"), mpmath.mpf(2))
# The t statistics are the beta_e and beta_x rows of regression.json for
# `exosir sweep --k 15 --seed 25` (n = 3375, so df = 3371).
SWEEP_P_VALUES = [(37.84787540534633, 1.5066632836684479468e-261),
                  (9.232696795403955, 4.5394047881587461866e-20)]
CRITICAL_95 = {5: 2.5705818356363155147, 30: 2.04227245630123831,
               3371: 1.9606679622153679382, 26_996: 1.9600518633289963259}


@pytest.mark.parametrize("t, want", SWEEP_P_VALUES)
def test_t_tail_matches_mpmath_at_the_sweep_p_values(t, want):
    assert float(t_sf_two_sided(t, 3371)) == pytest.approx(want, rel=1e-13, abs=0.0)


@pytest.mark.parametrize("df", sorted(CRITICAL_95))
def test_t_critical_matches_mpmath(df):
    assert t_critical(0.05, df) == pytest.approx(CRITICAL_95[df], rel=1e-14)


def test_t_tail_edge_values():
    assert float(t_sf_two_sided(np.inf, 5)) == float(t_sf_two_sided(-np.inf, 5)) == 0.0
    assert float(t_sf_two_sided(0.0, 5)) == 1.0
    assert np.isnan(t_sf_two_sided(np.nan, 5))
    assert isinstance(t_sf_two_sided(1.0, 5), np.float64)
    assert t_sf_two_sided(np.array([[1.0], [-2.0]]), 5).shape == (2, 1)


@pytest.mark.parametrize("call", [
    lambda: t_sf_two_sided(1.0, 0), lambda: t_sf_two_sided(1.0, -3),
    lambda: t_sf_two_sided(1.0, 0.5), lambda: t_sf_two_sided(1.0, np.inf),
    lambda: t_sf_two_sided(1.0, np.nan), lambda: t_critical(0.05, 0),
    lambda: t_critical(0.05, np.inf), lambda: t_critical(0.0, 5),
    lambda: t_critical(1.0, 5), lambda: t_critical(1.5, 5),
    lambda: t_critical(-0.05, 5), lambda: t_critical(np.nan, 5),
], ids=["sf-df0", "sf-df-3", "sf-df0.5", "sf-df-inf", "sf-df-nan", "crit-df0",
        "crit-df-inf", "crit-alpha0", "crit-alpha1", "crit-alpha1.5", "crit-alpha-neg",
        "crit-alpha-nan"])
def test_t_helpers_reject_out_of_domain_inputs(call):
    with pytest.raises(ParameterError):
        call()


def test_fit_linear_matches_bruteforce_oracle():
    rng = np.random.default_rng(31)
    for trial in range(20):
        n = int(rng.integers(8, 60))
        y, covs = _random_dataset(rng, n)
        report = fit_linear(y, covs)
        rows = [[1.0, covs["x1"][k], covs["x2"][k], covs["x3"][k]] for k in range(n)]
        beta, se, adj = ols_oracle(list(y), rows)
        got = [report.coefficients[name] for name in ("intercept", "x1", "x2", "x3")]
        got_se = [report.std_errors[name] for name in ("intercept", "x1", "x2", "x3")]
        assert got == pytest.approx(beta, abs=1e-8)
        assert got_se == pytest.approx(se, abs=1e-8)
        assert report.adj_r_squared == pytest.approx(adj, abs=1e-8)


def test_fit_linear_scale_invariance():
    rng = np.random.default_rng(32)
    y, covs = _random_dataset(rng, 50)
    base = fit_linear(y, covs)
    scaled = fit_linear(3.7 * y, covs)
    for name in base.names:
        assert scaled.coefficients[name] == pytest.approx(3.7 * base.coefficients[name], rel=1e-10)
        assert scaled.t_stats[name] == pytest.approx(base.t_stats[name], rel=1e-10)
        assert scaled.p_values[name] == pytest.approx(base.p_values[name], abs=1e-10)
    assert scaled.adj_r_squared == pytest.approx(base.adj_r_squared, abs=1e-10)


def test_fit_linear_singular_design():
    rng = np.random.default_rng(33)
    x = rng.uniform(0.0, 1.0, 30)
    with pytest.raises(SingularDesignError):
        fit_linear(rng.normal(size=30), {"a": x, "b": 2.0 * x})
    with pytest.raises(SingularDesignError):
        fit_linear(rng.normal(size=30), {"const": np.ones(30)})


def test_fit_linear_needs_enough_rows():
    with pytest.raises(ParameterError):
        fit_linear(np.zeros(3), {"a": np.arange(3.0), "b": np.arange(3.0) ** 2,
                                 "c": np.arange(3.0) ** 3})


def test_report_json_schema():
    rng = np.random.default_rng(34)
    y, covs = _random_dataset(rng, 40)
    data = fit_linear(y, covs).to_json_dict()
    assert sorted(data) == ["adj_r_squared", "ci_95", "coefficients", "n",
                            "p_values", "std_errors", "t_stats"]
    assert data["n"] == 40
    for name, (low, high) in data["ci_95"].items():
        assert low <= data["coefficients"][name] <= high
    assert data["adj_r_squared"] <= 1.0
