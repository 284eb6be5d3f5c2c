"""Random-grid sweep: sampling, batched peak extraction, scaling, regression."""

import math

import numpy as np
import pytest

from exosir.errors import HorizonError, IntegrationError, ParameterError, ScalingDomainError
from exosir.model import (CompartmentState, ModelParams, _exo_sir_f, exo_sir_rhs, integrate,
                          peak_of, rk4_step)
from exosir.sweep import (DEFAULT_DT, DEFAULT_HORIZON, SETTLE_DT_RATES, SWEEP_INITIAL,
                          SweepSample, _settle_eligible, _settled, fit_ols, run_sweep,
                          sample_grid, scale_log_peaks)


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


def _scalar_peak(triple, dt=DEFAULT_DT):
    """The i_e peak by single scalar runs, restarting with a doubled horizon."""
    params = ModelParams(*(float(v) for v in triple))
    n_steps = DEFAULT_HORIZON
    while True:
        traj = integrate(exo_sir_rhs, CompartmentState(*SWEEP_INITIAL), params, dt, n_steps)
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


def test_run_sweep_settled_runs_match_scalar_runs_bitwise():
    # beta_x < 1e-3 keeps s near 1 long after the peak, so these runs settle late or not at
    # all; at dt 0.5 the runs with dt*(beta_x + beta_e + gamma) > 0.4 may never settle
    rng = np.random.default_rng(5)
    slow = sample_grid(30, 26)[::900].copy()
    slow[:, 0] = rng.uniform(1e-5, 1e-3, len(slow))
    for triple, sample in zip(slow, run_sweep(slow)):
        assert (sample.ie_peak_value, sample.ie_peak_tick) == _scalar_peak(triple)
    grid = sample_grid(30, 27)
    coarse = grid[np.argsort(grid.sum(axis=1))[::1000]]
    eligible = _settle_eligible(coarse, 0.5)
    assert 0 < eligible.sum() < len(coarse)
    for triple, sample in zip(coarse, run_sweep(coarse, dt=0.5)):
        assert (sample.ie_peak_value, sample.ie_peak_tick) == _scalar_peak(triple, dt=0.5)


def test_settle_eligibility_guard():
    dt = 0.1
    triples = np.array([[0.1, 2.0, 1.9],             # dt*L = 0.4 exactly: eligible
                        [0.1, 2.0, 1.9 + 1e-9],      # just past the bound
                        [0.0, 0.0, 0.0],
                        [-0.1, 0.5, 0.5],            # a negative rate breaks the derivation
                        [np.nan, 0.1, 0.1],
                        [np.inf, 0.1, 0.1]])
    assert _settle_eligible(triples, dt).tolist() == [True, False, True, False, False, False]

    # at the bound every RK4 stage stays nonnegative and s + i_e cannot rise, whatever the
    # state in the simplex, including states with empty compartments; far past it, stages
    # go negative
    rng = np.random.default_rng(11)
    count = 20_000
    states = rng.dirichlet([0.05, 0.05, 0.05, 0.05], count)
    states[rng.random((count, 4)) < 0.2] = 0.0
    states[states.sum(axis=1) == 0.0, 0] = 1.0
    states /= states.sum(axis=1, keepdims=True)
    shares = rng.dirichlet([0.3, 0.3, 0.3], count)
    rates = shares * (SETTLE_DT_RATES / dt) * (1.0 - 1e-12)
    assert _settle_eligible(rates, dt).all()
    stages, (s1, ie1, _, _) = _rk4_stages(rates, states, dt)
    assert min(value.min() for stage in stages for value in stage) >= 0.0
    s, ie = states[:, 0], states[:, 1]
    assert (s1 + ie1 - (s + ie)).max() <= 1e-15
    stages, _ = _rk4_stages(shares * 30.0, states, dt)
    assert min(value.min() for stage in stages for value in stage) < 0.0


def _rk4_stages(rates, states, dt):
    """The four RK4 stage states of each run, and the step's result."""
    f = _exo_sir_f(*rates.T)
    y = tuple(states.T)
    stages = [y]
    for a in (dt / 2.0, dt / 2.0, dt):
        d = f(*stages[-1])
        stages.append(tuple(v + a * dv for v, dv in zip(y, (d[0], d[2], d[1], d[3]))))
    return stages, rk4_step(f, *y, dt)


def test_settle_predicate():
    s, ie = np.array([0.2, 0.2, 0.2]), np.array([0.1, 0.1, 0.1])
    # the margin is 3e-12 per tick up to the last tick: 9.6e-8 at the default 2000 * 2**4
    peak = 0.3 + np.array([1.1e-7, 0.9e-7, 0.0])
    assert _settled(peak, s, ie, DEFAULT_HORIZON * 16).tolist() == [True, False, False]
    assert _settled(peak, s, ie, DEFAULT_HORIZON * 16 // 10).tolist() == [True, True, False]


def test_run_sweep_empty_batch():
    assert run_sweep(np.zeros((0, 3))) == []


def test_run_sweep_late_error_after_runs_settle():
    # the unstable triple fails at step 108, after most of the grid has settled and left
    # the batch; the error is the one the full integration raised
    triples = np.vstack([sample_grid(15, 25), [[0.0, 29.0, 28.0]]])
    with pytest.raises(IntegrationError,
                       match=r"^compartment undershoot -1\.739692227474636e-06 \(step 108\)$"):
        run_sweep(triples)


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
