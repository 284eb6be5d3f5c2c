"""Random-grid sweep: sampling, batched peak extraction, scaling, regression."""

import contextlib
import hashlib
import math
import warnings

import numpy as np
import pytest

from conftest import exo_sir_f, rk4_step
from exosir import sweep
from exosir.errors import HorizonError, IntegrationError, ParameterError, ScalingDomainError
from exosir.model import CompartmentState, ModelParams, integrate, peak_of
from exosir.sweep import (DEFAULT_DT, DEFAULT_HORIZON, SETTLE_DT_RATES, SWEEP_INITIAL,
                          _settle_eligible, _settled, _settled_float, fit_ols, run_sweep,
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
    peak, tick = run_sweep(np.array([[0.0, 0.0, 0.3]]))
    assert tick[0] == 0
    assert peak[0] == 1e-6  # the initial endogenous fraction


def test_run_sweep_growth_peaks_later():
    peak, tick = run_sweep(np.array([[0.001, 0.5, 0.1]]))
    assert tick[0] > 0
    assert 0.0 < peak[0] <= 1.0


def test_run_sweep_bounds_on_random_triples():
    rng = np.random.default_rng(2)
    triples = rng.uniform(0.05, 1.0, size=(40, 3))
    for value, tick in zip(*run_sweep(triples)):
        assert 0.0 < value <= 1.0
        assert tick >= 0


# Runs left when the sweep hands over to single runs: never, the default, from the start
TAIL_RUNS = (0, sweep.SCALAR_TAIL_RUNS, 10**6)


@contextlib.contextmanager
def _tail_runs(runs):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sweep, "SCALAR_TAIL_RUNS", runs)
        yield


def test_run_sweep_horizon_error_names_triple():
    # growth rate ~1e-4/day keeps i_e rising far beyond 16x the base horizon
    with pytest.raises(HorizonError,
                       match="still rising.*beta_x=0.0, beta_e=0.02, gamma=0.0199"):
        run_sweep(np.array([[0.0, 0.02, 0.0199]]))


def test_run_sweep_horizon_error_counts_rising_runs():
    # runs 1 and 2 still rise at tick 100 * 2**4; the error names the lower index and the
    # count, whether the batch or the scalar tail reaches that tick
    triples = np.array([[0.1, 0.5, 0.3], [0.0, 0.03, 0.0299], [0.0, 0.02, 0.0199],
                        [0.2, 0.1, 0.4]])
    for runs in TAIL_RUNS:
        with _tail_runs(runs), pytest.raises(HorizonError, match=(
                r"^i_e still rising after 1600 steps \(x4 doublings\) for beta_x=0\.0, "
                r"beta_e=0\.03, gamma=0\.0299 \(2 run\(s\) affected\)$")):
            run_sweep(triples, horizon=100)


def _scalar_peak(triple, dt=DEFAULT_DT, horizon=DEFAULT_HORIZON):
    """The i_e peak by single scalar runs, restarting with a doubled horizon."""
    params = ModelParams(*(float(v) for v in triple))
    n_steps = horizon
    while True:
        traj = integrate(CompartmentState(*SWEEP_INITIAL), params, dt, n_steps)
        peak = peak_of(traj, "i_e")
        if peak.peak_tick < n_steps:
            return peak.peak_value, peak.peak_tick
        n_steps *= 2


def _assert_matches_scalar_runs(triples, dt=DEFAULT_DT, horizon=DEFAULT_HORIZON):
    expected = [_scalar_peak(triple, dt, horizon) for triple in triples]
    for runs in TAIL_RUNS:
        with _tail_runs(runs):
            peak, tick = run_sweep(triples, dt, horizon)
        assert list(zip(peak.tolist(), tick.tolist())) == expected, runs


def test_run_sweep_matches_scalar_runs_bitwise():
    # the batch and single runs share one RK4 step; the near-critical triples
    # peak after 1, 2 and 3 checkpoints, so they also cover the resumed batch
    near_critical = [[0.0, 0.13, 0.1], [0.0, 0.112, 0.1], [0.0, 0.105, 0.1]]
    triples = np.vstack([sample_grid(30, 25)[::540], near_critical])
    late = run_sweep(triples)[1][-3:].tolist()
    assert 2000 < late[0] < 4000 < late[1] < 8000 < late[2] < 16000
    _assert_matches_scalar_runs(triples)


def test_run_sweep_settled_runs_match_scalar_runs_bitwise():
    # beta_x < 1e-3 keeps s near 1 long after the peak, so these runs settle late or not at
    # all; at dt 0.5 the runs with dt*(beta_x + beta_e + gamma) > 0.4 may never settle
    rng = np.random.default_rng(5)
    slow = sample_grid(30, 26)[::900].copy()
    slow[:, 0] = rng.uniform(1e-5, 1e-3, len(slow))
    _assert_matches_scalar_runs(slow)
    grid = sample_grid(30, 27)
    coarse = grid[np.argsort(grid.sum(axis=1))[::1000]]
    eligible = _settle_eligible(coarse, 0.5)
    assert 0 < eligible.sum() < len(coarse)
    _assert_matches_scalar_runs(coarse, dt=0.5)


def test_run_sweep_at_dt_1_matches_scalar_runs_bitwise():
    # at dt 1.0 only runs with beta_x + beta_e + gamma <= SETTLE_DT_RATES may settle, so the
    # grid thinned in order of rate sum holds both runs that settle and runs that cannot
    grid = sample_grid(30, 28)
    triples = grid[np.argsort(grid.sum(axis=1))[::900]]
    eligible = _settle_eligible(triples, 1.0)
    assert 0 < eligible.sum() < len(triples)
    _assert_matches_scalar_runs(triples, dt=1.0)


def test_run_sweep_near_critical_runs_match_scalar_runs_bitwise():
    # beta_e within 10% of gamma: after the peak c = gamma - beta_e*s stays small, so the
    # subcritical bound E = max(i_e, beta_e*s*X/c) is barely below s + i_e and its margin
    # matters most. The short first horizon keeps the scalar runs short and the margin small
    rng = np.random.default_rng(6)
    gamma = rng.uniform(0.05, 1.0, 300)
    triples = np.column_stack([10.0 ** rng.uniform(-6, -2, 300),
                               gamma * rng.uniform(0.9, 1.1, 300), gamma])
    _assert_matches_scalar_runs(triples, horizon=500)


@pytest.mark.parametrize("dt", [0.1, 0.5])
def test_run_sweep_tiny_beta_x_matches_scalar_runs_bitwise(dt):
    # a 4^3 grid with beta_x in [1e-6, 1e-4] and beta_e between 0.5% and 16% of gamma: the
    # s + i_e test alone cannot settle these runs, and in about a fifth of them i_e first
    # decays and then i_x, still rising, feeds it to a later and higher peak, which only the
    # X term of E = max(i_e, beta_e*s*X/c) foresees
    u = sample_grid(4, 2)
    gamma = 10.0 ** (1.3 * u[:, 2] - 1.3)
    triples = np.column_stack([10.0 ** (2.0 * u[:, 0] - 6.0),
                               gamma * 10.0 ** (1.5 * u[:, 1] - 2.3), gamma])
    _assert_matches_scalar_runs(triples, dt=dt)


def test_run_sweep_without_a_channel_matches_scalar_runs_bitwise():
    # gamma = 0 leaves X undefined and c = -beta_e*s <= 0, so those runs fall back to
    # s + i_e; beta_x = 0 makes X = i_x. No division may warn
    triples = np.array([[0.01, 0.3, 0.0], [0.2, 0.0, 0.0], [0.0, 0.0, 0.0],
                        [0.0, 0.3, 0.1], [0.0, 0.05, 0.1], [0.0, 0.1, 0.1],
                        [0.3, 0.3, 0.0], [0.0, 0.5, 0.5]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _assert_matches_scalar_runs(triples)


@pytest.mark.parametrize("dt", [0.1, 0.5])
def test_sweep_peaks_without_beta_x_meet_the_closed_form(dt):
    # With beta_x = 0, i = i_e + i_x follows classical SIR in (s, i), whose first integral
    # is H = i + s - rho*ln(s), rho = gamma/beta_e. With G(s) = s - rho*ln(s), least at
    # s = rho, each tick has i = H - G(s), and Kermack-McKendrick's peak of i is
    # i_max = i0 + s0 - rho - rho*ln(s0/rho) = H(0) - G(rho), for beta_e*s0 > gamma. The
    # sweep reports the i_e peak p, the largest i_e over the ticks. So, as for fit's run
    # without i_x (tests/test_cli.py), along the same triple's integrate run:
    #   p - i_max <= D, as i_e <= i at the peak tick, D = max |H(tick) - H(0)| being the
    #     RK4 error as the first integral measures it;
    #   i_max - p <= D + rho*d^2/(2*s_lo^2) + i_x, as p >= i_e = i - i_x at the tick
    #     within d = (s_hi - s_lo)/2 of rho, where s falls from s_hi >= rho to s_lo < rho,
    #     and G'' = rho/s^2. The grid term is dt^2/8*beta_e*gamma*i_max^2 to first order.
    #     i_x only decays, from SWEEP_INITIAL's 3e-6: the i_x share.
    # Evaluating H, G and i_max in floats adds a few ulps of numbers below 2.
    s0, ie0, ix0, _ = SWEEP_INITIAL
    i0 = ie0 + ix0
    triples = sample_grid(12, 25)[:144].copy()  # every (beta_e, gamma) pair of the grid
    triples[:, 0] = 0.0
    triples = triples[triples[:, 1] * s0 > triples[:, 2]]
    rounding = 8 * np.spacing(2.0)
    for (_, beta_e, gamma), p, tick in zip(triples, *run_sweep(triples, dt)):
        rho = gamma / beta_e
        i_max = i0 + s0 - rho - rho * math.log(s0 / rho)
        run = integrate(CompartmentState(*SWEEP_INITIAL), ModelParams(0.0, beta_e, gamma),
                        dt, int(tick) + 2)
        i = run.i_e + run.i_x
        drift = np.abs(i + run.s - rho * np.log(run.s) - (i0 + s0 - rho * math.log(s0))).max()
        crossing = np.flatnonzero(run.s >= rho)[-1]
        assert crossing + 1 < len(run)
        s_hi, s_lo = run.s[crossing], run.s[crossing + 1]
        grid = rho * ((s_hi - s_lo) / 2.0) ** 2 / (2.0 * s_lo**2)
        ix_share = run.i_x[crossing:crossing + 2].max()
        assert ix_share <= ix0
        assert -(drift + grid + ix_share + rounding) <= p - i_max <= drift + rounding


@pytest.mark.parametrize("triple, message", [
    ([-0.1, 0.5, 0.5], r"^beta_x must be nonnegative, got -0\.1 \(run 1\)$"),
    ([np.nan, 0.5, 0.5], r"^beta_x must be finite, got nan \(run 1\)$"),
    ([0.1, 0.5, -0.05], r"^gamma must be nonnegative, got -0\.05 \(run 1\)$"),
])
def test_run_sweep_rejects_bad_rates(triple, message):
    # bad rates are a usage error (exit 1), as for ModelParams, not a numerical failure
    with pytest.raises(ParameterError, match=message):
        run_sweep(np.array([[0.1, 0.2, 0.3], triple]))


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
    f = exo_sir_f(*rates.T)
    y = tuple(states.T)
    stages = [y]
    for a in (dt / 2.0, dt / 2.0, dt):
        d = f(*stages[-1])
        stages.append(tuple(v + a * dv for v, dv in zip(y, (d[0], d[2], d[1], d[3]))))
    return stages, rk4_step(f, *y, dt)


def test_settle_predicate():
    s, ie, ix = np.array([0.2, 0.2, 0.2]), np.array([0.1, 0.1, 0.1]), np.zeros(3)
    # gamma = 0: only s + i_e bounds i_e. The margin is 3e-12 per tick up to the last tick:
    # 9.6e-8 at the default 2000 * 2**4
    rates = np.array([[0.1] * 3, [0.5] * 3, [0.0] * 3])
    peak = 0.3 + np.array([1.1e-7, 0.9e-7, 0.0])
    assert _settled(peak, s, ie, ix, rates, DEFAULT_HORIZON * 16).tolist() == [True, False, False]
    assert _settled(peak, s, ie, ix, rates, DEFAULT_HORIZON * 16 // 10).tolist() == [
        True, True, False]
    # subcritical (c = 0.5 - 0.1*0.2 > 0): X = max(0.01, 0.01*0.2/0.5) = 0.01 and
    # E = max(0.1, 0.1*0.2*0.01/0.48) = 0.1, so i_e itself bounds i_e, with the same margin
    rates = np.array([[0.01] * 3, [0.1] * 3, [0.5] * 3])
    peak = 0.1 + np.array([1.1e-7, 0.9e-7, 0.0])
    ix = np.full(3, 0.01)
    assert _settled(peak, s, ie, ix, rates, DEFAULT_HORIZON * 16).tolist() == [True, False, False]
    # here X's term wins: i_x rises towards beta_x*s/gamma = 0.1 and feeds i_e up to
    # E = 0.25*0.5*0.1/(0.5 - 0.25*0.5) = 1/30, far below s + i_e = 0.51
    s, ie, ix = np.full(3, 0.5), np.full(3, 0.01), np.zeros(3)
    rates = np.array([[0.1] * 3, [0.25] * 3, [0.5] * 3])
    peak = 1.0 / 30.0 + np.array([1e-6, 0.0, -1e-6])
    assert _settled(peak, s, ie, ix, rates, DEFAULT_HORIZON * 16).tolist() == [True, False, False]


def test_settle_predicate_on_floats_decides_as_on_arrays():
    # _settled_float, which the scalar tail calls, decides as _settled on 2*10^5 states:
    # gamma = 0, beta_e*s_hi within a few ulps of gamma (c = g - beta_e*s_hi at 0, on
    # either side), gammas so small that X overflows, and peaks on the bound and a few
    # ulps to either side of it
    rng = np.random.default_rng(40)
    count = 200_000
    last_tick = rng.choice([16, 3200, 32000], count)
    margin = last_tick * sweep.SETTLE_STEP_SLACK
    y = rng.dirichlet([0.3] * 4, count)
    y[rng.random((count, 4)) < 0.2] = 0.0
    y[y.sum(axis=1) == 0.0, 0] = 1.0
    s, ie, ix, _ = (y / y.sum(axis=1, keepdims=True)).T
    bx, be, g = rng.uniform(0.0, 2.0, (3, count))
    bx[rng.random(count) < 0.1] = 0.0
    g[rng.random(count) < 0.1] = 0.0
    edge = rng.random(count) < 0.3
    be[edge] = g[edge] / (s[edge] + margin[edge])
    for _ in range(3):
        nudge = edge & (rng.random(count) < 0.5)
        be[nudge] = np.nextafter(be[nudge], rng.choice([0.0, np.inf], nudge.sum()))
    tiny = rng.random(count) < 0.02
    be[tiny], g[tiny] = 0.0, 5e-324 * rng.integers(1, 4, tiny.sum())
    with np.errstate(all="ignore"):
        s_hi = s + margin
        x_hi = np.maximum(ix, bx * s / g) + margin * (1.0 + bx / g)
        e_hi = be * s_hi * x_hi / (g - be * s_hi)
    c = g - be * s_hi
    assert (c == 0.0).sum() > 1000 and (edge & (c > 0.0)).sum() > 1000
    assert (edge & (c < 0.0)).sum() > 1000
    candidates = np.stack([s + ie, ie, np.where(np.isfinite(e_hi), e_hi, 0.5)]) + margin
    run_peak = candidates[rng.integers(0, 3, count), np.arange(count)]
    for _ in range(2):
        nudge = rng.random(count) < 0.4
        run_peak[nudge] = np.nextafter(run_peak[nudge], rng.choice([0.0, np.inf], nudge.sum()))
    rates = np.stack([bx, be, g])
    expected, got = [], []
    for tick in (16, 3200, 32000):
        at = last_tick == tick
        with np.errstate(all="ignore"):
            expected += _settled(run_peak[at], s[at], ie[at], ix[at], rates[:, at], tick).tolist()
        got += [_settled_float(*values[:4], values[4:], tick) for values in
                zip(run_peak[at].tolist(), s[at].tolist(), ie[at].tolist(), ix[at].tolist(),
                    *rates[:, at].tolist())]
    assert got == expected
    assert 0.2 < np.mean(got) < 0.8


def test_settle_predicate_without_endogenous_channel():
    # beta_e = 0 and a subnormal gamma: X = beta_x*s/gamma overflows, and beta_e*S*X/c is
    # 0*inf, a NaN. Nothing feeds i_e, so E = i_e, and a peak above i_e by more than the
    # margin settles on both predicates, far below the other bound s + i_e = 0.6
    tick = DEFAULT_HORIZON * 16
    margin = tick * sweep.SETTLE_STEP_SLACK
    peaks = 0.1 + np.array([2.0, 1.0, 0.0]) * margin
    s, ie, ix = np.full(3, 0.5), np.full(3, 0.1), np.full(3, 0.3)
    rates = np.array([[0.5] * 3, [0.0] * 3, [5e-324, 1e-320, 1e-310]])
    with np.errstate(all="ignore"):
        assert _settled(peaks, s, ie, ix, rates, tick).tolist() == [True, False, False]
    assert [_settled_float(peak, 0.5, 0.1, 0.3, rates[:, 0].tolist(), tick)
            for peak in peaks.tolist()] == [True, False, False]


def test_subcritical_bound_holds_at_every_stage():
    # at the guard's edge dt*L = 0.4, one RK4 step from a state with i_x <= X and i_e <= E
    # keeps every stage, and the result, within X and E (up to rounding), including states
    # sitting exactly on both bounds; far past the guard the bound breaks
    dt = 0.1
    rng = np.random.default_rng(12)
    count = 20_000
    shares = rng.dirichlet([0.3, 0.3, 0.3], count)
    shares[rng.random(count) < 0.1, 0] = 0.0  # no exogenous channel
    rates = shares / shares.sum(axis=1, keepdims=True) * (SETTLE_DT_RATES / dt)
    rates *= 1.0 - 1e-12
    assert _settle_eligible(rates, dt).all()
    bx, be, g = rates.T
    s = rng.uniform(0.0, 1.0, count) * np.minimum(1.0, g / np.maximum(be, 1e-300))
    c = g - be * s
    assert (c > 0.0).all()
    on_bound = rng.random((count, 2)) < 0.5
    x_star = bx * s / g
    ix = np.where(on_bound[:, 0], x_star, x_star * rng.uniform(0.0, 2.0, count))
    X = np.maximum(ix, x_star)
    e_star = be * s * X / c
    ie = np.where(on_bound[:, 1], e_star, e_star * rng.uniform(0.0, 2.0, count))
    E = np.maximum(ie, e_star)
    # scale into the simplex where needed: X stays max(i_x, beta_x*s/gamma), and E a valid,
    # if looser, bound, as c only grows when s shrinks
    total = s + ie + ix
    shrink = np.where(total > 1.0, 1.0 / total, 1.0)
    s, ie, ix, X, E = (v * shrink for v in (s, ie, ix, X, E))
    r = 1.0 - s - ie - ix
    states = np.column_stack([s, ie, ix, r])
    stages, result = _rk4_stages(rates, states, dt)
    stages.append(result)

    def excess(stages, E=E):
        return max(max(float((st[2] - X).max()), float((st[1] - E).max())) for st in stages)

    assert excess(stages) <= 1e-15
    # with i_x in place of X, i_e outgrows the bound where i_x is still rising
    assert excess(stages, np.maximum(ie, be * s * ix / (g - be * s))) > 1e-6
    stages, result = _rk4_stages(rates * 10.0, states, dt)
    assert excess(stages + [result]) > 1e-6


def test_run_sweep_empty_batch():
    peak, tick = run_sweep(np.zeros((0, 3)))
    assert peak.shape == tick.shape == (0,)


def test_run_sweep_late_error_after_runs_settle():
    # the unstable triple fails at step 108, after most of the grid has settled and left
    # the batch; the error is the one the full integration raised, also when the triple
    # is finished on its own
    triples = np.vstack([sample_grid(15, 25), [[0.0, 29.0, 28.0]]])
    for runs in TAIL_RUNS:
        with _tail_runs(runs), pytest.raises(IntegrationError, match=(
                r"^compartment undershoot -1\.739692227474636e-06 \(step 108\)$")):
            run_sweep(triples)


def test_run_sweep_error_is_the_batch_first():
    # single runs meet run 0's failure (step 108) before run 2's (step 7); the sweep still
    # raises the batch's first error
    triples = np.array([[0.0, 29.0, 28.0], [0.1, 0.5, 0.3], [0.0, 29.0, 28.5]])
    for runs in TAIL_RUNS:
        with _tail_runs(runs), pytest.raises(IntegrationError, match=(
                r"^compartment undershoot -2\.512194311954073e-07 \(step 7\)$")):
            run_sweep(triples)


@pytest.mark.parametrize("triple, dt, message", [
    ((0.0, 80.0, 0.1), 1.0, "compartment undershoot -2.501506578745937"),
    ((5.0, 0.3, 40.0), 1.0, "compartment undershoot -6470.169830899723"),
    ((0.1, 0.5, 0.5), 1e200, "non-finite compartment"),
], ids=["undershoot-beta_e", "undershoot-gamma", "non-finite"])
def test_both_layouts_report_the_same_error(triple, dt, message):
    # the sweep's batch and a single run of integrate check each step with the one
    # _check_batch, so a failing run raises the same text at the same step through both
    errors = []
    for run in (lambda: run_sweep(np.array([triple]), dt),
                lambda: integrate(CompartmentState(*SWEEP_INITIAL), ModelParams(*triple),
                                  dt, 10)):
        with pytest.raises(IntegrationError) as err:
            run()
        errors.append((str(err.value), err.value.step))
    assert errors == [(f"{message} (step 1)", 1)] * 2


@pytest.mark.parametrize("k, seed, dt, digest", [
    (15, 25, 0.1, "abb4802d960dd66b134be97a8bfb63e27260f202bfd8fe812c2627ff1e310395"),
    (15, 26, 0.1, "9b423c91e8022887686a1c83fca8dbae93753305a6d81e88a630d25c4401f075"),
    (30, 25, 0.1, "9701c518e81aca5cd296ce6f4086d4800f28edb4defe9f013c7fe2911ac17307"),
    (12, 25, 0.5, "766882c1c39df8aa1f202bbbf82084d62fc41a2210d91c2fab1ebdf25158d84a"),
], ids=["k15-seed25", "k15-seed26", "k30-seed25", "k12-dt0.5"])
def test_run_sweep_matches_pinned_digest(k, seed, dt, digest):
    # peaks and ticks come from IEEE add, multiply and divide only, so they are pinned
    # bit for bit. The batch kernel alone (SCALAR_TAIL_RUNS = 0) and the default hand-off
    # must meet every digest, and single runs alone (10**6) the k = 15 ones
    triples = sample_grid(k, seed)
    for runs in TAIL_RUNS if k == 15 else TAIL_RUNS[:2]:
        with _tail_runs(runs):
            peak, tick = run_sweep(triples, dt)
        assert hashlib.sha256(peak.tobytes() + tick.tobytes()).hexdigest() == digest, runs


def test_run_sweep_rejects_bad_input():
    with pytest.raises(ParameterError):
        run_sweep(np.zeros((3, 2)))
    with pytest.raises(ParameterError):
        run_sweep(np.array([[0.1, 0.2, 0.3]]), horizon=0)


def test_scale_log_peaks_examples():
    scaled = scale_log_peaks(np.array([math.exp(v) for v in (1.0, 2.0, 3.0)]))
    assert scaled.tolist() == pytest.approx([0.0, 0.5, 1.0], abs=1e-12)

    single = scale_log_peaks(np.array([0.5]))
    assert single[0] == 0.0

    with pytest.raises(ScalingDomainError):
        scale_log_peaks(np.array([0.0]))


def test_scale_log_peaks_preserves_order():
    rng = np.random.default_rng(8)
    values = rng.uniform(1e-6, 0.9, 100)
    scaled = scale_log_peaks(values)
    assert (np.argsort(scaled) == np.argsort(values)).all()
    assert scaled[int(np.argmin(values))] == 0.0
    assert scaled[int(np.argmax(values))] == 1.0
    assert ((scaled >= 0.0) & (scaled <= 1.0)).all()


def _samples_with_response(rng, count, response):
    """(triples, scaled log peaks) with each response computed from its (beta_e, beta_x, gamma)."""
    triples = np.empty((count, 3))
    y = np.empty(count)
    for k in range(count):
        bx, be, g = rng.uniform(0.05, 1.0, 3)
        triples[k] = bx, be, g
        y[k] = response(be, bx, g)
    return triples, y


def test_fit_ols_recovers_exact_linear_data():
    rng = np.random.default_rng(21)
    triples, y = _samples_with_response(rng, 60, lambda be, bx, g: 0.5 * be + 0.0 * bx - 0.3 * g)
    report = fit_ols(triples, y)
    assert report.coefficients["beta_e"] == pytest.approx(0.5, abs=1e-10)
    assert report.coefficients["beta_x"] == pytest.approx(0.0, abs=1e-10)
    assert report.coefficients["gamma"] == pytest.approx(-0.3, abs=1e-10)
    assert report.coefficients["intercept"] == pytest.approx(0.0, abs=1e-10)
    assert report.adj_r_squared == pytest.approx(1.0, abs=1e-10)


def test_fit_ols_preconditions():
    rng = np.random.default_rng(3)
    few = _samples_with_response(rng, 4, lambda be, bx, g: be)
    with pytest.raises(ParameterError):
        fit_ols(*few)
    unscaled = np.tile([0.1, 0.2, 0.3], (6, 1)), np.full(6, np.nan)
    with pytest.raises(ParameterError):
        fit_ols(*unscaled)
    triples, y = _samples_with_response(rng, 6, lambda be, bx, g: be)
    with pytest.raises(ParameterError):
        fit_ols(triples, y[:5])


def test_fit_ols_reports_sample_count():
    rng = np.random.default_rng(4)
    report = fit_ols(*_samples_with_response(rng, 40, lambda be, bx, g: be - g + 0.01 * bx))
    assert report.n == 40
    for name in ("intercept", "beta_e", "beta_x", "gamma"):
        low, high = report.ci_95[name]
        assert low <= report.coefficients[name] <= high
