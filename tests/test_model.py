"""ODE core: right-hand sides, RK4 integration, peaks, and the boost inequality."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

from conftest import sir_rk4
from exosir.errors import IntegrationError, InvalidStateError, ParameterError
from exosir.model import (CONSERVATION_TOL, UNDERSHOOT_TOL, CompartmentState, ModelParams,
                          Trajectory, _check_batch, _check_step, endogenous_boost_check,
                          exo_sir_rhs, integrate, peak_of)


def state(s, i_e, i_x, r):
    return CompartmentState(s=s, i_e=i_e, i_x=i_x, r=r)


# --- right-hand sides ---

def test_exo_rhs_hand_value():
    # i = 0.3; ds = -0.1*0.5 - 0.4*0.5*0.3 = -0.11; di_x = 0.05 - 0.02 = 0.03;
    # di_e = 0.06 - 0.04 = 0.02; dr = 0.2*0.3 = 0.06
    d = exo_sir_rhs(state(0.5, 0.2, 0.1, 0.2), ModelParams(beta_x=0.1, beta_e=0.4, gamma=0.2))
    assert d == pytest.approx((-0.11, 0.03, 0.02, 0.06), rel=1e-12)


def test_exo_rhs_pure_exogenous_channel():
    d = exo_sir_rhs(state(1.0, 0.0, 0.0, 0.0), ModelParams(beta_x=0.5, beta_e=0.9, gamma=0.1))
    assert d == (-0.5, 0.5, 0.0, 0.0)


def test_exo_rhs_zero_rates_fixed_point():
    d = exo_sir_rhs(state(0.4, 0.3, 0.2, 0.1), ModelParams(beta_x=0.0, beta_e=0.0, gamma=0.0))
    assert d == (0.0, 0.0, 0.0, 0.0)


def test_exo_rhs_derivatives_sum_to_zero():
    rng = np.random.default_rng(5)
    for _ in range(100):
        parts = rng.dirichlet((1.0, 1.0, 1.0, 1.0))
        st = state(*(float(v) for v in parts))
        p = ModelParams(*(float(v) for v in rng.uniform(0.0, 2.0, 3)))
        assert sum(exo_sir_rhs(st, p)) == pytest.approx(0.0, abs=1e-15)


def test_exo_rhs_nonfinite_state_rejected():
    for bad in (state(float("nan"), 0.0, 0.0, 1.0), state(float("inf"), 0.0, 0.0, 0.0)):
        with pytest.raises(InvalidStateError):
            exo_sir_rhs(bad, ModelParams(0.1, 0.1, 0.1))


def test_sir_rhs_nonfinite_rejected():
    # the SIR right-hand side is exo_sir_rhs at beta_x = 0, i_x = 0
    with pytest.raises(InvalidStateError):
        exo_sir_rhs(state(float("inf"), 0.0, 0.0, 0.0), ModelParams(0.0, 1.0, 0.5))


def test_sir_rhs_values():
    # classical SIR is Exo-SIR with beta_x = 0 and i_x = 0; output order (ds, di_x, di, dr)
    def sir(s, i, r, beta, gamma):
        return exo_sir_rhs(state(s, i, 0.0, r), ModelParams(0.0, beta, gamma))

    assert sir(1.0, 0.0, 0.0, 0.9, 0.1) == (0.0, 0.0, 0.0, 0.0)
    assert sir(0.9, 0.1, 0.0, 1.0, 0.5) == pytest.approx((-0.09, 0.0, 0.04, 0.05), rel=1e-12)
    assert sir(0.0, 0.5, 0.5, 2.0, 1.0) == pytest.approx((0.0, 0.0, -0.5, 0.5), rel=1e-12)


def test_params_validation():
    with pytest.raises(ParameterError):
        ModelParams(beta_x=-0.1, beta_e=0.2, gamma=0.1)
    with pytest.raises(ParameterError):
        ModelParams(beta_x=0.1, beta_e=float("nan"), gamma=0.1)


def test_state_validation():
    with pytest.raises(InvalidStateError):
        state(1.2, 0.0, 0.0, -0.2).validate()
    with pytest.raises(InvalidStateError):
        state(0.5, 0.1, 0.1, 0.1).validate()  # sums to 0.8
    state(0.7, 0.1, 0.1, 0.1).validate()


# --- integration ---

def test_integrate_zero_rates_constant():
    init = state(0.6, 0.2, 0.1, 0.1)
    traj = integrate(init, ModelParams(0.0, 0.0, 0.0), dt=0.5, n_steps=20)
    assert len(traj) == 21
    assert (traj.s == 0.6).all() and (traj.i_e == 0.2).all()
    assert (traj.i_x == 0.1).all() and (traj.r == 0.1).all()


def euler_columns(y0, params, dt, n_steps):
    """Explicit Euler on (4, n_sets) state columns; the independent oracle."""
    bx, be, g = params
    s, ie, ix, r = (np.array(y0[k], dtype=float, ndmin=1).copy() for k in range(4))
    for _ in range(n_steps):
        i = ie + ix
        ds = -bx * s - be * s * i
        dx = bx * s - g * ix
        de = be * s * i - g * ie
        dr = g * i
        s += dt * ds
        ix += dt * dx
        ie += dt * de
        r += dt * dr
    return s, ie, ix, r


def test_integrate_matches_euler_oracle_pinned():
    # 10 RK4 steps at dt=0.01 against Euler at dt=1e-5 over the same 0.1 days
    params = ModelParams(beta_x=0.5, beta_e=0.9, gamma=0.1)
    traj = integrate(state(1.0, 0.0, 0.0, 0.0), params, dt=0.01, n_steps=10)
    s, ie, ix, r = euler_columns(([1.0], [0.0], [0.0], [0.0]), (0.5, 0.9, 0.1),
                                 dt=1e-5, n_steps=10_000)
    final = traj.state_at(10)
    for got, want in ((final.s, s[0]), (final.i_e, ie[0]), (final.i_x, ix[0]),
                      (final.r, r[0])):
        assert abs(got - want) < 1e-6


def test_integrate_matches_high_order_oracle_random_rates():
    # the oracle is scipy's 8th-order DOP853 at rtol 1e-12, far more accurate than the
    # 1e-6 budget being tested; the rate sets are those of the earlier Euler oracle
    rng = np.random.default_rng(7)
    sets = rng.uniform(0.0, 0.2, size=(20, 3))
    worst = 0.0
    for bx, be, g in sets.tolist():
        def rhs(t, y):
            s, ie, ix, r = y
            i = ie + ix
            return [-bx * s - be * s * i, be * s * i - g * ie, bx * s - g * ix, g * i]

        oracle = solve_ivp(rhs, (0.0, 10.0), [0.97, 0.01, 0.01, 0.01], method="DOP853",
                           rtol=1e-12, atol=1e-14).y[:, -1]
        params = ModelParams(beta_x=bx, beta_e=be, gamma=g)
        traj = integrate(state(0.97, 0.01, 0.01, 0.01), params,
                         dt=0.01, n_steps=1000)
        final = traj.state_at(1000)
        dev = max(abs(got - want) for got, want in
                  zip((final.s, final.i_e, final.i_x, final.r), oracle))
        worst = max(worst, dev)
    assert worst < 1e-6


def test_integrate_conserves_and_stays_nonnegative():
    rng = np.random.default_rng(11)
    for _ in range(100):
        parts = rng.dirichlet((5.0, 1.0, 1.0, 1.0))
        init = state(*(float(v) for v in parts))
        params = ModelParams(*(float(v) for v in rng.uniform(0.0, 1.5, 3)))
        traj = integrate(init, params, dt=0.01, n_steps=500)
        total = traj.s + traj.i_e + traj.i_x + traj.r
        assert np.abs(total - 1.0).max() <= 1e-9
        for arr in (traj.s, traj.i_e, traj.i_x, traj.r):
            assert arr.min() >= -1e-12


def test_integrate_rejects_bad_arguments():
    init = state(0.9, 0.1, 0.0, 0.0)
    with pytest.raises(ParameterError):
        integrate(init, ModelParams(0.1, 0.1, 0.1), dt=0.0, n_steps=10)
    with pytest.raises(ParameterError):
        integrate(init, ModelParams(0.1, 0.1, 0.1), dt=0.1, n_steps=0)
    with pytest.raises(InvalidStateError):
        integrate(state(0.5, 0.1, 0.1, 0.1), ModelParams(0.1, 0.1, 0.1),
                  dt=0.1, n_steps=10)
    # SIR (beta_x = 0, i_x = 0) checks its state and rates the same way
    with pytest.raises(InvalidStateError):
        integrate(state(0.5, 0.1, 0.0, 0.1), ModelParams(0.0, 0.1, 0.1), dt=0.1, n_steps=10)
    with pytest.raises(ParameterError, match="beta_e"):
        integrate(init, ModelParams(0.0, -0.1, 0.1), dt=0.1, n_steps=10)


def test_integrate_failure_reports_step_index():
    # dt far beyond stability: s dives below the clamping band within a few steps
    init = state(0.5, 0.5, 0.0, 0.0)
    with pytest.raises(IntegrationError) as err:
        integrate(init, ModelParams(beta_x=0.0, beta_e=80.0, gamma=0.0),
                  dt=1.0, n_steps=50)
    assert err.value.step >= 1


def _check_outcome(check, values):
    """The clamped values a step check returns, or "error"."""
    try:
        return [float(np.ravel(v)[0]) for v in check(values, 1)]
    except IntegrationError:
        return "error"


def test_step_checks_agree_at_the_tolerance_edge():
    # both checks clamp first and then test conservation, so they accept, clamp and reject
    # the same steps, also where a clamp moves the sum across the tolerance. Here the sum is
    # 1e-9 + 3e-13 too high before s is clamped and within the tolerance after
    r = CONSERVATION_TOL - 2e-13
    assert _check_step((1.0 + 5e-13, 0.0, 0.0, r), 1) == [1.0, 0.0, 0.0, r]
    rng = np.random.default_rng(14)
    shifts = np.array([0.0, 0.5, -0.5, 1.5, -1.5]) * UNDERSHOOT_TOL
    outcomes = []
    for _ in range(4000):
        values = rng.dirichlet([0.5] * 4)
        values[rng.random(4) < 0.4] = 0.0
        if values.sum() == 0.0:
            values[0] = 1.0
        values /= values.sum()
        values += rng.choice(shifts, 4)
        values[rng.integers(4)] += rng.choice([-1.0, 1.0]) * (
            CONSERVATION_TOL + rng.uniform(-3.0, 3.0) * UNDERSHOOT_TOL)
        single = _check_outcome(_check_step, tuple(values.tolist()))
        assert single == _check_outcome(_check_batch, [np.array([v]) for v in values])
        outcomes.append(single)
    accepted = [o for o in outcomes if o != "error"]
    assert 0.1 < len(accepted) / len(outcomes) < 0.9


def test_trajectory_arrays_immutable():
    traj = integrate(state(0.9, 0.1, 0.0, 0.0),
                     ModelParams(0.0, 0.4, 0.1), dt=0.1, n_steps=5)
    with pytest.raises(ValueError):
        traj.s[0] = 0.0


# --- SIR reduction ---

def test_sir_reduction_within_tolerance():
    for be in (0.2, 0.5, 1.0):
        for g in (0.1, 0.4):
            for i0 in (0.001, 0.05):
                init = state(1.0 - i0, i0, 0.0, 0.0)
                exo = integrate(init, ModelParams(0.0, be, g), 0.05, 1000)
                s, i, r = sir_rk4((1.0 - i0, i0, 0.0), (be, g), 0.05, 1000)
                assert np.abs(exo.s - s).max() <= 1e-9
                assert np.abs(exo.i_e - i).max() <= 1e-9
                assert np.abs(exo.r - r).max() <= 1e-9


def test_sir_reduction_is_bitwise():
    """With beta_x=0 and i_x=0 the exo stepper performs literally the same
    float operations as a classical SIR stepper, so the series match bit for bit."""
    rng = np.random.default_rng(19)
    for _ in range(20):
        be, g = (float(v) for v in rng.uniform(0.05, 1.0, 2))
        i0 = float(rng.uniform(1e-4, 0.1))
        exo = integrate(state(1.0 - i0, i0, 0.0, 0.0),
                        ModelParams(0.0, be, g), 0.05, 1000)
        s, i, r = sir_rk4((1.0 - i0, i0, 0.0), (be, g), 0.05, 1000)
        assert (exo.i_e == i).all()
        assert (exo.s == s).all()
        assert (exo.r == r).all()
        assert (exo.i_x == 0.0).all()


def test_zero_seed_exogenous_growth():
    params = ModelParams(beta_x=0.3, beta_e=0.5, gamma=0.2)
    st = state(1.0, 0.0, 0.0, 0.0)
    ds, di_x, di_e, dr = exo_sir_rhs(st, params)
    assert di_x + di_e == params.beta_x * st.s  # exact: no infected terms yet
    traj = integrate(st, params, dt=0.1, n_steps=10)
    assert traj.i[1] > 0.0
    sir = integrate(st, ModelParams(0.0, 0.5, 0.2), dt=0.1, n_steps=10)
    assert (sir.i == 0.0).all()


# --- peaks ---

def _traj_from_series(values):
    arr = np.asarray(values, dtype=float)
    zeros = np.zeros_like(arr)
    return Trajectory(dt=1.0, s=zeros, i_e=arr, i_x=zeros, r=zeros)


def test_peak_of_examples():
    peak = peak_of(_traj_from_series([0.0, 1.0, 3.0, 2.0]), "i_e")
    assert (peak.peak_value, peak.peak_tick) == (3.0, 2)
    flat = peak_of(_traj_from_series([0.2, 0.2, 0.2]), "i_e")
    assert (flat.peak_value, flat.peak_tick) == (0.2, 0)


def test_peak_of_matches_linear_scan():
    params = ModelParams(beta_x=0.5, beta_e=0.9, gamma=0.1)
    traj = integrate(state(1.0, 0.0, 0.0, 0.0), params, dt=0.01, n_steps=10)
    best_value, best_tick = traj.i_x[0], 0
    for tick in range(1, len(traj)):
        if traj.i_x[tick] > best_value:
            best_value, best_tick = traj.i_x[tick], tick
    peak = peak_of(traj, "i_x")
    assert peak.peak_value == best_value
    assert peak.peak_tick == best_tick
    assert peak.peak_time == traj.times[best_tick]


def test_peak_of_unknown_compartment():
    with pytest.raises(ParameterError, match=r"^unknown compartment 's', "
                       r"expected one of \['i', 'i_e', 'i_x'\]$"):
        peak_of(_traj_from_series([0.1]), "s")
    with pytest.raises(ParameterError):
        peak_of(_traj_from_series([0.1]), "r")


# --- boost inequality ---

def test_boost_check_examples():
    assert endogenous_boost_check(state(0.5, 0.1, 0.05, 0.35),
                                  ModelParams(0.0, 0.4, 0.2)) is True
    assert endogenous_boost_check(state(0.5, 0.1, 0.0, 0.4),
                                  ModelParams(0.0, 0.4, 0.2)) is False
    assert endogenous_boost_check(state(0.0, 0.1, 0.4, 0.5),
                                  ModelParams(0.0, 0.4, 0.2)) is False


def test_boost_rhs_strictly_increasing_in_ix():
    # di_e is linear in i_x with slope beta_e*s, so it must rise with i_x
    params = ModelParams(beta_x=0.1, beta_e=0.4, gamma=0.2)
    prev = None
    for ix in (0.0, 0.01, 0.05, 0.2):
        d = exo_sir_rhs(state(0.5, 0.1, ix, 0.4 - ix), params)
        if prev is not None:
            assert d[2] > prev
        prev = d[2]


_RATES = st.floats(0.0, 50.0)
_WEIGHTS = st.lists(st.floats(0.0, 1.0), min_size=4, max_size=4).filter(lambda w: sum(w) > 0)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(weights=_WEIGHTS, rates=st.tuples(_RATES, _RATES, _RATES), dt=st.floats(0.01, 2.0),
       n_steps=st.integers(1, 50))
def test_integrate_stays_on_the_simplex_or_raises(weights, rates, dt, n_steps):
    total = sum(weights)
    initial = state(*(w / total for w in weights))
    try:
        traj = integrate(initial, ModelParams(*rates), dt, n_steps)
    except IntegrationError:
        return
    for series in (traj.s, traj.i_e, traj.i_x, traj.r):
        assert ((series >= 0.0) & (series <= 1.0)).all()
    assert np.abs(traj.s + traj.i_e + traj.i_x + traj.r - 1.0).max() <= CONSERVATION_TOL
