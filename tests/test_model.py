"""ODE core: right-hand sides, RK4 integration, peaks, and the boost inequality."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

from conftest import exo_sir_f, rk4_step, sir_rk4
from exosir.errors import IntegrationError, InvalidStateError, ParameterError
from exosir import model
from exosir.model import (CONSERVATION_TOL, UNDERSHOOT_TOL, CompartmentState, ModelParams,
                          Trajectory, _BatchRK4, _check_batch, _float_steps,
                          endogenous_boost_check, exo_sir_rhs, integrate, peak_of)
from exosir.sweep import SWEEP_INITIAL


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
        state(1.2, 0.0, 0.0, -0.2)
    with pytest.raises(InvalidStateError):
        state(0.5, 0.1, 0.1, 0.1)  # sums to 0.8
    state(0.7, 0.1, 0.1, 0.1)


@pytest.mark.parametrize("values, message", [
    ((float("nan"), 0.0, 0.0, 1.0), "s is not finite: nan"),
    ((0.0, 0.0, float("-inf"), 1.0), "i_x is not finite: -inf"),
    ((0.5, 0.5, 0.0, float("inf")), "r is not finite: inf"),
    ((float("inf"), 0.0, 0.0, 0.0), "s is not finite: inf"),
    ((0.0, 0.0, 0.0, 1.0 + 1e-12), "r outside [0, 1]: 1.000000000001"),
    ((0.9, -1e-13, 0.1, 0.0), "i_e outside [0, 1]: -1e-13"),
    ((0.5, 0.25, 0.25, 2e-9), "compartments sum to 1.000000002, expected 1"),
], ids=["nan", "neg-inf", "inf", "s-inf", "above-one", "below-zero", "sum"])
def test_state_is_checked_when_built(values, message):
    # the first compartment that fails names the error, and the sum is tested last; a
    # value out of [0, 1] by less than the conservation tolerance is still rejected
    with pytest.raises(InvalidStateError) as err:
        CompartmentState(*values)
    assert str(err.value) == message


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


def _check_run(values, step):
    """_check_batch on one run: its four values as a (4, 1) batch, back as Python floats."""
    return np.ravel(_check_batch(np.array(values, dtype=float)[:, None], step)).tolist()


def _zero_rate_step(values, step):
    """One _float_steps step with zero rates, which changes no finite value, so that the
    stepper's own check meets the state itself."""
    return next(_float_steps((0.0, 0.0, 0.0), *values, 0.1, step - 1))


def _zero_rate_kernel_step(values, step):
    """One _BatchRK4 step of a one-run batch with zero rates, as _zero_rate_step."""
    kernel = _BatchRK4(np.array(values)[:, None], np.zeros((3, 1)), 0.1)
    kernel.step(step)
    return kernel.y


def test_step_checks_agree_at_the_tolerance_edge():
    # the check clamps first and then tests conservation, and both steppers accept, clamp
    # and reject as it does, also where a clamp moves the sum across the tolerance. Here the
    # sum is 1e-9 + 3e-13 too high before s is clamped and within the tolerance after
    r = CONSERVATION_TOL - 2e-13
    assert _check_run((1.0 + 5e-13, 0.0, 0.0, r), 1) == [1.0, 0.0, 0.0, r]
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
        single = _check_outcome(_check_run, values)
        assert single == _check_outcome(_zero_rate_kernel_step, values)
        assert single == _check_outcome(_zero_rate_step, tuple(values.tolist()))
        outcomes.append(single)
    accepted = [o for o in outcomes if o != "error"]
    assert 0.1 < len(accepted) / len(outcomes) < 0.9


# --- the float stepper ---

def _bits(values):
    return np.array(values, dtype=float).tobytes()


def _float_steps_outcome(rates, y, dt, tick, n):
    """n steps of _float_steps from tick: each state's bytes, then an error's text and step."""
    out = []
    try:
        for _, values in zip(range(n), _float_steps(rates, *y, dt, tick)):
            out.append(_bits(values))
    except IntegrationError as err:
        out.append((str(err), err.step))
    return out


def _reference_steps_outcome(rates, y, dt, tick, n):
    """The same n steps by the reference rk4_step, each checked by _check_batch."""
    f, out = exo_sir_f(*rates), []
    try:
        for step in range(tick + 1, tick + n + 1):
            y = _check_run(rk4_step(f, *y, dt), step)
            out.append(_bits(y))
    except IntegrationError as err:
        out.append((str(err), err.step))
    return out


@pytest.mark.parametrize("dt, rate_max", [(0.1, 2.0), (0.5, 1.0), (1.0, 1.0)])
def test_float_steps_match_rk4_step_bitwise(dt, rate_max):
    # three steps from each state, starting past tick 0, equal the reference step and check
    # bit for bit; zero rates and empty compartments are included
    rng = np.random.default_rng(34)
    count = 2000
    y = _simplex_states(rng, count)
    rates = rng.uniform(0.0, rate_max, (3, count))
    rates[rng.random((3, count)) < 0.1] = 0.0
    ticks = rng.integers(0, 40_000, count)
    outcomes = []
    for run_rates, run_y, tick in zip(rates.T.tolist(), y.T.tolist(), ticks.tolist()):
        outcome = _float_steps_outcome(run_rates, run_y, dt, tick, 3)
        assert outcome == _reference_steps_outcome(run_rates, run_y, dt, tick, 3)
        outcomes.append(outcome)
    assert sum(isinstance(o[-1], tuple) for o in outcomes) < count // 20


@pytest.mark.parametrize("rates, dt, kind", [
    ((2.0, 5.0, 2.0), 1.0, "undershoot"), ((0.0, 0.0, 6.0), 1.0, "overshoot"),
    ((1e300, 1e300, 1e300), 1.0, "non-finite"), ((0.0, 90.0, 0.0), 0.5, "undershoot"),
])
def test_float_steps_errors_match_check_batch(rates, dt, kind):
    # steps beyond the clamp band raise as _check_batch does, with its text and step number
    rng = np.random.default_rng(35)
    y = _simplex_states(rng, 500)
    y[:, 0] = (0.25, 0.25, 0.25, 0.25)
    errors = []
    with np.errstate(all="ignore"):
        for run_y in y.T.tolist():
            outcome = _float_steps_outcome(rates, run_y, dt, 7, 4)
            assert outcome == _reference_steps_outcome(rates, run_y, dt, 7, 4)
            if isinstance(outcome[-1], tuple):
                errors.append(outcome[-1])
    assert any(kind in text and 8 <= step <= 11 for text, step in errors)


def test_float_steps_clamp_one_step_of_a_run():
    # at dt 1 these rates take r to 1.0000000000000002 at step 85, inside the clamp band;
    # the run goes on from the clamped state, as the reference does
    rates, y = (0.41, 2.16, 1.58), (1.0 - 1e-4, 1e-4, 0.0, 0.0)
    outcome = _float_steps_outcome(rates, y, 1.0, 0, 200)
    assert outcome == _reference_steps_outcome(rates, y, 1.0, 0, 200)
    assert len(outcome) == 200
    f, clamped = exo_sir_f(*rates), []
    for step in range(1, 201):
        raw = list(rk4_step(f, *y, 1.0))
        y = _check_run(raw, step)
        if y != raw:
            clamped.append(step)
    assert clamped == [85]


def test_integrate_stops_before_the_step_past_n_steps():
    # step 5 of this run undershoots beyond the clamp band; four steps never take it
    init = state(1.0 - 2e-4, 1e-4, 1e-4, 0.0)
    params = ModelParams(beta_x=1.49, beta_e=1.98, gamma=1.76)
    assert len(integrate(init, params, dt=1.0, n_steps=4)) == 5
    with pytest.raises(IntegrationError, match="undershoot") as err:
        integrate(init, params, dt=1.0, n_steps=5)
    assert err.value.step == 5


# --- the sweep's batch kernel ---

def _simplex_states(rng, count):
    """(4, count) states on the simplex; about 30% of the compartments are empty and 8%
    of the states are vertices."""
    y = rng.dirichlet([0.3] * 4, count)
    y[rng.random((count, 4)) < 0.3] = 0.0
    y[y.sum(axis=1) == 0.0, 0] = 1.0
    return (y / y.sum(axis=1, keepdims=True)).T.copy()


def _kernel_outcome(y, rates, dt, tick=3):
    """One _BatchRK4 step: the new state's bytes, or the IntegrationError's text and step."""
    kernel = _BatchRK4(y, rates, dt)
    try:
        kernel.step(tick)
    except IntegrationError as err:
        return str(err), err.step
    return kernel.y.tobytes()


def _reference_outcome(y, rates, dt, tick=3):
    """rk4_step on each run's Python floats, then _check_batch over the runs."""
    steps = [rk4_step(exo_sir_f(*run_rates), *run_y, dt)
             for run_rates, run_y in zip(rates.T.tolist(), y.T.tolist())]
    try:
        checked = _check_batch([np.array(row) for row in zip(*steps)], tick)
    except IntegrationError as err:
        return str(err), err.step
    return np.array(checked).tobytes()


def _float_stages(y, rates, dt):
    """Per stage, the arguments (s, i_e, i_x) and derivatives (ds, di_e, di_x, dr) that
    rk4_step forms on each run's Python floats, as (3, runs) and (4, runs) arrays."""
    runs = []
    for (bx, be, g), (s, ie, ix, r) in zip(rates.T.tolist(), y.T.tolist()):
        f, z, stages = exo_sir_f(bx, be, g), (s, ie, ix), []
        for a in (dt / 2.0, dt / 2.0, dt, None):
            ds, dx, de, dr = f(*z, r)
            stages.append((z, (ds, de, dx, dr)))
            if a is not None:
                z = (s + a * ds, ie + a * de, ix + a * dx)
        runs.append(stages)
    return [tuple(np.array(part).T for part in zip(*stage)) for stage in zip(*runs)]


@pytest.mark.parametrize("dt, rate_max", [(0.1, 2.0), (0.5, 1.0), (1.0, 5.0)])
def test_batch_kernel_matches_rk4_step_bitwise(dt, rate_max):
    # every stage's argument and derivatives, and the checked result, equal the float
    # step's bit for bit; zero rates and empty compartments are included, and at the
    # largest rates and step some runs leave [0, 1] by more than the clamp band
    rng = np.random.default_rng(31)
    count = 2000
    y = _simplex_states(rng, count)
    rates = rng.uniform(0.0, rate_max, (3, count))
    rates[rng.random((3, count)) < 0.1] = 0.0
    kernel = _BatchRK4(y, rates, dt)
    seen = []

    def record(z, k):  # _f's row views: z (s, i_e, i_x, i_e:i_x), k (ds, di_e:di_x, dr)
        _BatchRK4._f(kernel, z, k)
        seen.append((np.array(z[:3]), np.vstack(k)))

    kernel._f = record
    with np.errstate(all="ignore"):
        expected = _float_stages(y, rates, dt)
        if dt < 1.0:
            kernel.step(1)
            assert kernel.y.tobytes() == _reference_outcome(y, rates, dt, 1)
        else:
            outcome = _reference_outcome(y, rates, dt, 1)
            assert isinstance(outcome, tuple) and "undershoot" in outcome[0]
            with pytest.raises(IntegrationError) as err:
                kernel.step(1)
            assert (str(err.value), err.value.step) == outcome
    assert len(seen) == 4
    for (z, k), (z_ref, k_ref) in zip(seen, expected):
        assert z.tobytes() == z_ref.tobytes()
        assert k.tobytes() == k_ref.tobytes()


@pytest.mark.parametrize("run", [
    [-5e-13, 0.5, 0.5, 5e-13], [0.5, -1e-12, 0.5, 1e-12],  # within the band: clamped
    [1.0 + 5e-13, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 1.0 + 1e-12],
    [-2e-12, 0.5, 0.5, 2e-12], [0.0, 0.0, 1.0 + 2e-12, 0.0],  # undershoot, overshoot
    [0.25, np.nan, 0.25, 0.5], [np.inf, 0.0, 0.0, 0.0], [0.5, 0.5, 0.0, -np.inf],
    [0.25, 0.25, 0.25, 0.25 + 2e-9], [0.25 - 2e-9, 0.25, 0.25, 0.25],  # drift
    [1.0 + 5e-13, 0.0, 0.0, CONSERVATION_TOL],  # drift only once s is clamped
    [-5e-14, 0.5, 0.5, 5e-14], [0.0, 0.0, 0.0, 1.0 + 5e-14],  # a few ulps out: clamped
])
def test_batch_kernel_check_matches_check_batch(run):
    # with zero rates the RK4 step changes no value, so the state itself meets the check;
    # one run of a batch carries the edge case and the kernel must clamp, accept or raise
    # (text and step) exactly as _check_batch does, and _float_steps as it does on the run
    rng = np.random.default_rng(32)
    y = _simplex_states(rng, 50)
    y[:, 7] = run
    rates = np.zeros((3, 50))
    with np.errstate(all="ignore"):
        assert _kernel_outcome(y, rates, 0.1) == _reference_outcome(y, rates, 0.1)
        assert (_float_steps_outcome((0.0, 0.0, 0.0), run, 0.1, 2, 1)
                == _reference_steps_outcome((0.0, 0.0, 0.0), run, 0.1, 2, 1))


def test_batch_kernel_fast_check_accepts_only_what_check_batch_leaves(monkeypatch):
    # the kernel hands a step to _check_batch only when its test on the whole stack fails;
    # every state it accepts alone must be one _check_batch neither clamps nor rejects.
    # States straddle the clamp band and the conservation tolerance, one run at a time
    handed = []
    monkeypatch.setattr(model, "_check_batch",
                        lambda values, step: handed.append(1) or _check_batch(values, step))
    rng = np.random.default_rng(33)
    shifts = np.array([0.0, 0.5, -0.5, 1.5, -1.5]) * UNDERSHOOT_TOL
    accepted = 0
    for _ in range(3000):
        values = _simplex_states(rng, 1)[:, 0]
        values += rng.choice(shifts, 4)
        values[rng.integers(4)] += rng.choice([-1.0, 1.0]) * (
            CONSERVATION_TOL + rng.uniform(-3.0, 3.0) * UNDERSHOOT_TOL)
        y, rates = values[:, None], np.zeros((3, 1))
        calls = len(handed)
        outcome = _kernel_outcome(y, rates, 0.1)
        assert outcome == _reference_outcome(y, rates, 0.1)
        if len(handed) == calls:
            accepted += 1
            assert outcome == y.tobytes()  # so _check_batch, too, left every value as it was
    assert 0.1 < accepted / 3000 < 0.9
    # on plain simplex states the fast test decides alone
    handed.clear()
    rng_state = _simplex_states(rng, 500)
    _kernel_outcome(rng_state, rng.uniform(0.0, 1.0, (3, 500)), 0.1)
    assert not handed


# --- the first integral as an accuracy oracle ---

def _integral_drift(s, r, rates, dt):
    """Largest change of ln s + beta_x t + (beta_e/gamma) r along one run."""
    beta_x, beta_e, gamma = rates
    h = np.log(s) + beta_x * dt * np.arange(s.size) + beta_e / gamma * r
    return np.abs(h - h[0]).max()


def test_first_integral_drift_is_fourth_order():
    # Along an exact solution with gamma > 0, d(ln s)/dt = -beta_x - beta_e i and
    # dr/dt = gamma i, so ln s + beta_x t + (beta_e/gamma) r stays constant. RK4 keeps
    # the linear invariant s + i_e + i_x + r up to rounding at any dt but not this one,
    # so the invariant's drift is truncation error, O(dt^4) for a fourth-order method:
    # each halving of dt must shrink it by 2^4, and a factor in [2^3.8, 2^4.2] is asked
    # for along integrate and the sweep's batch kernel over 200 days from the sweep's
    # start. The smallest drift, 1.3e-9 at dt 0.05, is some 10^3 times the rounding that
    # 4000 steps can add (4000 * 2^-52 relative in s), so the factors see truncation alone
    triples = ((0.3, 0.5, 0.2), (0.001, 0.6, 0.1), (0.05, 0.9, 0.3))
    dts = (0.4, 0.2, 0.1, 0.05)
    scalar, batch = [], []
    for dt in dts:
        n_steps = round(200 / dt)
        runs = [integrate(state(*SWEEP_INITIAL), ModelParams(*rates), dt, n_steps)
                for rates in triples]
        scalar.append([_integral_drift(traj.s, traj.r, rates, dt)
                       for traj, rates in zip(runs, triples)])
        kernel = _BatchRK4(np.repeat(np.array(SWEEP_INITIAL)[:, None], len(triples), axis=1),
                           np.array(triples).T, dt)
        s, r = [kernel.y[0].copy()], [kernel.y[3].copy()]
        for tick in range(1, n_steps + 1):
            kernel.step(tick)
            s.append(kernel.y[0].copy())
            r.append(kernel.y[3].copy())
        s, r = np.array(s).T, np.array(r).T
        batch.append([_integral_drift(run_s, run_r, rates, dt)
                      for run_s, run_r, rates in zip(s, r, triples)])
    for drifts in (scalar, batch):
        factors = np.log2(np.array(drifts[:-1]) / np.array(drifts[1:]))
        assert ((3.8 <= factors) & (factors <= 4.2)).all(), factors


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


def test_peak_of_empty_trajectory():
    with pytest.raises(ParameterError, match=r"^empty trajectory$"):
        peak_of(_traj_from_series([]), "i_e")


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
