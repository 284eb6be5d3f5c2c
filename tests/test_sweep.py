"""Random-grid sweep: sampling, batched peak extraction, scaling, regression."""

import math

import numpy as np
import pytest

from exosir.errors import HorizonError, ParameterError, ScalingDomainError
from exosir.model import CompartmentState, ModelParams, exo_sir_rhs, integrate, peak_of
from exosir.sweep import (DEFAULT_DT, DEFAULT_HORIZON, SWEEP_INITIAL, SweepSample, fit_ols,
                          run_sweep, sample_grid, scale_log_peaks)


def test_sample_grid_k2_is_full_product():
    triples = sample_grid(k=2, seed=123)
    assert triples.shape == (8, 3)
    for col in range(3):
        assert len(set(triples[:, col])) == 2
    assert ((triples > 0.0) & (triples < 1.0)).all()


def test_sample_grid_full_size_and_determinism():
    a = sample_grid(k=30, seed=25)
    b = sample_grid(k=30, seed=25)
    assert a.shape == (27_000, 3)
    assert (a == b).all()
    assert ((a > 0.0) & (a < 1.0)).all()


def test_sample_grid_rejects_small_k():
    with pytest.raises(ParameterError):
        sample_grid(k=1, seed=0)


def test_run_sweep_pure_decay_peaks_at_start():
    samples = run_sweep(np.array([[0.0, 0.0, 0.3]]))
    assert samples[0].ie_peak_tick == 0
    assert samples[0].ie_peak_value == 1e-6  # the initial endogenous fraction


def test_run_sweep_growth_peaks_later():
    samples = run_sweep(np.array([[0.001, 0.5, 0.1]]))
    assert samples[0].ie_peak_tick > 0
    assert 0.0 < samples[0].ie_peak_value <= 1.0


def test_run_sweep_bounds_on_random_triples():
    rng = np.random.default_rng(2)
    triples = rng.uniform(0.05, 1.0, size=(40, 3))
    for sample in run_sweep(triples):
        assert 0.0 < sample.ie_peak_value <= 1.0
        assert sample.ie_peak_tick >= 0


def test_run_sweep_horizon_error_names_triple():
    # growth rate ~1e-4/day keeps i_e rising far beyond 16x the base horizon
    with pytest.raises(HorizonError,
                       match="still rising.*beta_x=0.0, beta_e=0.02, gamma=0.0199"):
        run_sweep(np.array([[0.0, 0.02, 0.0199]]))


def _scalar_peak(triple):
    """The i_e peak by single scalar runs, restarting with a doubled horizon."""
    params = ModelParams(*(float(v) for v in triple))
    n_steps = DEFAULT_HORIZON
    while True:
        traj = integrate(exo_sir_rhs, CompartmentState(*SWEEP_INITIAL), params, DEFAULT_DT,
                         n_steps)
        peak = peak_of(traj, "i_e")
        if peak.peak_tick < n_steps:
            return peak.peak_value, peak.peak_tick
        n_steps *= 2


def test_run_sweep_matches_scalar_runs_bitwise():
    # the batch and single runs share one RK4 step; the near-critical triples
    # peak after 1, 2 and 3 checkpoints, so they also cover the resumed batch
    near_critical = [[0.0, 0.13, 0.1], [0.0, 0.112, 0.1], [0.0, 0.105, 0.1]]
    triples = np.vstack([sample_grid(30, 25)[::540], near_critical])
    samples = run_sweep(triples)
    late = [s.ie_peak_tick for s in samples[-3:]]
    assert 2000 < late[0] < 4000 < late[1] < 8000 < late[2] < 16000
    for triple, sample in zip(triples, samples):
        assert (sample.ie_peak_value, sample.ie_peak_tick) == _scalar_peak(triple)


def test_run_sweep_rejects_bad_input():
    with pytest.raises(ParameterError):
        run_sweep(np.zeros((3, 2)))
    with pytest.raises(ParameterError):
        run_sweep(np.array([[0.1, 0.2, 0.3]]), horizon=0)


def test_scale_log_peaks_examples():
    samples = [SweepSample(0.1, 0.2, 0.3, math.exp(v), 0) for v in (1.0, 2.0, 3.0)]
    scaled = [s.log_peak_scaled for s in scale_log_peaks(samples)]
    assert scaled == pytest.approx([0.0, 0.5, 1.0], abs=1e-12)

    single = scale_log_peaks([SweepSample(0.1, 0.2, 0.3, 0.5, 0)])
    assert single[0].log_peak_scaled == 0.0

    with pytest.raises(ScalingDomainError):
        scale_log_peaks([SweepSample(0.1, 0.2, 0.3, 0.0, 0)])


def test_scale_log_peaks_preserves_order():
    rng = np.random.default_rng(8)
    values = rng.uniform(1e-6, 0.9, 100)
    samples = [SweepSample(0.1, 0.2, 0.3, float(v), 0) for v in values]
    scaled = np.array([s.log_peak_scaled for s in scale_log_peaks(samples)])
    assert (np.argsort(scaled) == np.argsort(values)).all()
    assert scaled[int(np.argmin(values))] == 0.0
    assert scaled[int(np.argmax(values))] == 1.0
    assert ((scaled >= 0.0) & (scaled <= 1.0)).all()


def _samples_with_response(rng, count, response):
    out = []
    for _ in range(count):
        bx, be, g = rng.uniform(0.05, 1.0, 3)
        y = response(be, bx, g)
        out.append(SweepSample(float(bx), float(be), float(g), 0.1, 5,
                               log_peak_scaled=float(y)))
    return out


def test_fit_ols_recovers_exact_linear_data():
    rng = np.random.default_rng(21)
    samples = _samples_with_response(rng, 60, lambda be, bx, g: 0.5 * be + 0.0 * bx - 0.3 * g)
    report = fit_ols(samples)
    assert report.coefficients["beta_e"] == pytest.approx(0.5, abs=1e-10)
    assert report.coefficients["beta_x"] == pytest.approx(0.0, abs=1e-10)
    assert report.coefficients["gamma"] == pytest.approx(-0.3, abs=1e-10)
    assert report.coefficients["intercept"] == pytest.approx(0.0, abs=1e-10)
    assert report.adj_r_squared == pytest.approx(1.0, abs=1e-10)


def test_fit_ols_preconditions():
    rng = np.random.default_rng(3)
    few = _samples_with_response(rng, 4, lambda be, bx, g: be)
    with pytest.raises(ParameterError):
        fit_ols(few)
    unscaled = [SweepSample(0.1, 0.2, 0.3, 0.5, 1) for _ in range(6)]
    with pytest.raises(ParameterError):
        fit_ols(unscaled)


def test_fit_ols_reports_sample_count():
    rng = np.random.default_rng(4)
    samples = _samples_with_response(rng, 40, lambda be, bx, g: be - g + 0.01 * bx)
    report = fit_ols(samples)
    assert report.n == 40
    for name in ("intercept", "beta_e", "beta_x", "gamma"):
        low, high = report.ci_95[name]
        assert low <= report.coefficients[name] <= high
