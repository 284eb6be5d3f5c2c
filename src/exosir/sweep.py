"""Well-mixed parameter sweep: 27,000 Exo-SIR runs and an OLS on ln(i_e peak).

Thirty uniform draws per rate form a k^3 Cartesian grid; every triple is
integrated from the standard initial counts (N=1,000,000 with S=999,996,
I_x=3, I_e=1, R=0) and the i_e peak is extracted. A run leaves the batch
once its peak can no longer be beaten; runs still rising at the horizon keep
integrating, from where they are, to a doubled horizon. The last few runs are
finished one at a time on Python floats, with the same steps and decisions.
"""

from __future__ import annotations

import numpy as np

from .errors import HorizonError, IntegrationError, ParameterError, ScalingDomainError
from .model import UNDERSHOOT_TOL, _BatchRK4, _float_steps, check_array_size, check_step_size
from .regression import RegressionReport, fit_linear

SWEEP_INITIAL = (0.999996, 1e-6, 3e-6, 0.0)
DEFAULT_DT = 0.1
DEFAULT_HORIZON = 2000
MAX_DOUBLINGS = 4
DEFAULT_SEED = 25
DEFAULT_K = 30

# Settling. d(s + i_e)/dt = -beta_x*s - gamma*i_e <= 0 while s, i_e >= 0, and an RK4 step
# adds to s + i_e a positive combination of that derivative at its four stages, so s + i_e
# cannot rise over a step whose stage values of s and i_e are nonnegative. The step check
# can add at most UNDERSHOOT_TOL to each of s and i_e by clamping, and the step's rounding
# (a few ulps of values <= 1) stays far below a third UNDERSHOOT_TOL: SETTLE_STEP_SLACK. No
# run passes tick horizon*2**MAX_DOUBLINGS, so once run_peak exceeds s + i_e by that many
# slacks (1e-7 at the default horizon), every later i_e <= s + i_e stays below run_peak;
# as a new peak must be strictly greater, the recorded peak and its tick are final.
#
# Eligibility: nonnegative stages. The stages are z0 = y, z1 = y + h*f(z0),
# z2 = y + h*f(z1) and z3 = y + dt*f(z2) with h = dt/2, and each is the base y plus a*f
# with a <= dt. With rates >= 0 and L = beta_x + beta_e + gamma, each compartment's
# derivative at a nonnegative stage is a production >= 0 minus a loss rate in [0, L]
# times the compartment (every stage sums to 1, so i = i_e + i_x <= 1). Let x = h*L <= 1/5,
# i.e. dt*L <= SETTLE_DT_RATES; stage by stage, with k = 1, 2:
#   s:   no production, so s >= s1, s2 >= (1-x)*s and s3 >= (1-2x)*s.
#   r:   no loss, so r_k >= r.
#   i_x: i_x,k <= i_x + h*beta_x*s, so i_x,k+1 >= (1-2x)*i_x + a*beta_x*(s_k - x*s) >= 0.
#   i_e: i_e,k <= i_e + h*beta_e*s_(k-1)*i_(k-1), so
#        i_e,k+1 >= (1-2x)*i_e + a*beta_e*(s_k*i_k - x*s_(k-1)*i_(k-1)), and
#        s1*i1 >= (1-x)^2*s*i >= x*s*i, since i also loses at rate gamma <= L;
#        s2 >= (1-x)*s1 and, with p = beta_x*s + beta_e*s*i the production of i,
#        (1-x)*i2 - x*i1 >= ((1-x)^2 - x)*i + ((1-x)*((1-x)^2 - x) - x)*h*p >= 0,
#        both brackets being positive for x <= 0.24.
# The same bounds make the step's result nonnegative, so an eligible run's checks see only
# rounding and a dropped run can raise no error the full integration would have raised.
#
# Subcritical runs: a bound on i_e itself. Fix the settle tick's s as S and let g = gamma.
# s never rises, so the production beta_x*s of i_x stays <= g*X with
# X = max(i_x, beta_x*S/g). If c = g - beta_e*S > 0 (Kermack-McKendrick: beta_e*s < g),
# the production beta_e*s*(i_e + i_x) of i_e stays <= g*E with E = max(i_e, beta_e*S*X/c)
# while i_e <= E and i_x <= X. For the RK4 step, each of i_x and i_e is y' = p - g*y with
# stage productions p_k. Take its bound B, stage slacks w_k = B - y_k (y_0 = y) and
# deficits q_k = g*B - p_k; the stages are w_(k+1) = w_0 + a_k*(q_k - g*w_k) (a = h, h, dt)
# and, with z = g*dt <= dt*L, the result is
#   w_new = R(z)*w_0 + dt/6*((1 - z + z^2/2 - z^3/4)*q_0 + (2 - z + z^2/2)*q_1
#                            + (2 - z)*q_2 + q_3),  R(z) = 1 - z + z^2/2 - z^3/6 + z^4/24,
# every weight positive for z <= 1: the result keeps y <= B once every stage has q_k >= 0.
# Write q_k = T_k + m_k*w_k with Q = g*B - (production bound at S) >= 0 and D_k = -ds_k:
#   i_x: T_k = Q + beta_x*(S - s_k), m_k = 0;
#   i_e: T_k = Q + beta_e*(E + X)*(S - s_k) + beta_e*s_k*(X - i_x,k), m_k = beta_e*s_k.
# Then w_(k+1) = w_0 + a_k*T_k - l_k*w_k with l_k = a_k*(g - m_k) in [0, a_k*g]
# (beta_e*s_k <= beta_e*S < g), so
#   w_1 = (1 - l_0)*w_0 + h*T_0,
#   w_2 = (1 - l_1*(1 - l_0))*w_0 + h*(T_1 - l_1*T_0),
#   w_3 = (1 - l_2*(1 - l_1 + l_0*l_1))*w_0 + dt*T_2 - h*l_2*T_1 + h*l_1*l_2*T_0,
# and every stage keeps y <= B if T_1 >= l_1*T_0 and 2*T_2 >= l_2*T_1, where l_1 <= x and
# l_2 <= 2x. Term by term, with i_x's stages done first:
#   Q: l_k <= 2x < 1.
#   S - s_k: s_1 <= s_0, and S - s_2 - x*(S - s_1) >= h*(D_1 - x*D_0) >= 0, as
#        D_k = (beta_x + beta_e*i_k)*s_k with s_1 >= (1-x)*s_0 and i_1 >= (1-x)*i_0 gives
#        D_1 >= (1-x)^2*D_0.
#   s_k*(X - i_x,k): by the lines for i_x, X - i_x,1 >= (1-x)*(X - i_x,0) and
#        X - i_x,2 >= (1-x)*(X - i_x,1); with s_1 >= (1-x)*s_0 and s_2 >= (1-x)*s_1,
#        each product is at least (1-x)^2 >= x times the one before.
# So every stage keeps i_x <= X and i_e <= E, hence so does the result, and by induction
# every later tick: once run_peak > E, no later tick can beat it.
#
# Margin. A step's stored result differs from the exact RK4 map of the stored state by at
# most SETTLE_STEP_SLACK = d per compartment (clamps and rounding, as above); the s + i_e
# test adds N*d, N = horizon*2**MAX_DOUBLINGS >= the ticks left, to its bound. For E the
# bounds must grow with the errors: S_k = S + k*d, X_k = X + k*d*(1 + beta_x/g) and
# E_k = max(i_e, beta_e*S_N*X_N/c_N) + k*d keep X_k >= beta_x*S_k/g and
# (g - beta_e*S_k)*E_k >= beta_e*S_k*X_k for every k <= N while c_N = g - beta_e*S_N > 0.
# So _settled evaluates E at s + N*d and at X inflated by N*d*(1 + beta_x/g), which
# carries the beta_e*s/c amplification of the slack in X, and adds N*d to it.
SETTLE_EVERY = 16
SETTLE_DT_RATES = 0.4
SETTLE_STEP_SLACK = 3 * UNDERSHOOT_TOL

# Runs left when the batch hands over to single runs on Python floats: a batch tick
# costs about 70-80 us whatever its width up to a few hundred runs, one run's scalar
# tick about 3.5-5 us. Priced by the batch ticks and scalar run-ticks each hand-off
# leaves at --k 15 (seeds 25 and 26), 15 and 20 runs cost the same within 0.1 ms, while
# 10 costs up to 2.6 ms more and 30 up to 1.9 ms more.
SCALAR_TAIL_RUNS = 20


def sample_grid(k: int = DEFAULT_K, seed: int = DEFAULT_SEED) -> np.ndarray:
    """k i.i.d. uniform(0,1) levels per rate, expanded to the full k^3 grid.

    Returns an array of shape (k^3, 3) with columns (beta_x, beta_e, gamma).
    Draws of exactly 0.0 are redrawn so every coordinate is strictly inside
    (0, 1).
    """
    if k < 2:
        raise ParameterError(f"k must be >= 2, got {k!r}")
    if seed < 0:
        raise ParameterError(f"seed must be >= 0, got {seed!r}")
    check_array_size(3 * k**3, f"k={k}")
    rng = np.random.default_rng(seed)
    axes = []
    for _ in range(3):
        values = rng.random(k)
        zero = values == 0.0
        while zero.any():
            values[zero] = rng.random(int(zero.sum()))
            zero = values == 0.0
        axes.append(values)
    bx, be, g = np.meshgrid(axes[0], axes[1], axes[2], indexing="ij")
    return np.column_stack([bx.ravel(), be.ravel(), g.ravel()])


def _settle_eligible(triples: np.ndarray, dt: float) -> np.ndarray:
    """Runs whose RK4 stages keep every compartment nonnegative (derivation above)."""
    return (triples >= 0.0).all(axis=1) & (dt * triples.sum(axis=1) <= SETTLE_DT_RATES)


def _settled(run_peak, s, ie, ix, rates, last_tick: int):
    """Where no tick up to last_tick can beat run_peak, for eligible runs.

    The bound is s + i_e, or the smaller E where beta_e*s stays below gamma;
    both come with the margin derived above.
    """
    bx, be, g = rates
    margin = last_tick * SETTLE_STEP_SLACK
    s_hi = s + margin
    c = g - be * s_hi
    sub = c > 0.0  # implies g > 0; elsewhere only s + i_e bounds i_e
    g = np.where(sub, g, 1.0)
    x_hi = np.maximum(ix, bx * s / g) + margin * (1.0 + bx / g)
    # fmax: where beta_e = 0 and X overflows, beta_e*S*X is 0*inf, a NaN, and E is i_e
    e_hi = np.fmax(ie, be * s_hi * x_hi / np.where(sub, c, 1.0))
    bound = np.where(sub, np.minimum(s + ie, e_hi), s + ie)
    return run_peak > bound + margin


def _settled_float(run_peak, s, ie, ix, rates, last_tick: int) -> bool:
    """_settled for one run on Python floats, with the same float operations and decision."""
    bx, be, g = rates
    margin = last_tick * SETTLE_STEP_SLACK
    s_hi = s + margin
    c = g - be * s_hi
    bound = s + ie
    if c > 0.0:
        x_hi = max(ix, bx * s / g) + margin * (1.0 + bx / g)
        bound = min(bound, max(ie, be * s_hi * x_hi / c))  # max(ie, nan) is ie, as fmax
    return run_peak > bound + margin


def _check_rates(triples: np.ndarray) -> None:
    """Raise ParameterError unless every rate is finite and nonnegative, as ModelParams."""
    bad = ~(np.isfinite(triples) & (triples >= 0.0))
    if bad.any():
        run, col = (int(v) for v in np.argwhere(bad)[0])
        value = float(triples[run, col])
        rule = "finite" if not np.isfinite(value) else "nonnegative"
        raise ParameterError(f"{('beta_x', 'beta_e', 'gamma')[col]} must be {rule}, "
                             f"got {value!r} (run {run})")


def _horizon_error(triples: np.ndarray, runs, steps: int) -> HorizonError:
    """The error for runs, in index order, whose i_e is still rising on the last tick."""
    bx, be, g = (float(v) for v in triples[runs[0]])
    return HorizonError(f"i_e still rising after {steps} steps (x{MAX_DOUBLINGS} doublings) "
                        f"for beta_x={bx!r}, beta_e={be!r}, gamma={g!r} "
                        f"({len(runs)} run(s) affected)")


def _batch(state, triples, eligible, peak, ptick, dt: float, last_tick: int, stop: int):
    """Step every active run as one batch until at most stop runs are left.

    state is (tick, checkpoint, active, y, run_peak, run_tick): the last tick done, the
    next checkpoint, the runs still in the batch (ascending), their compartments stacked
    as rows (s, i_e, i_x, r) and their peaks so far. Returns the state at the first
    compaction that leaves at most stop runs; runs that leave the batch store their peak
    and its tick in peak and ptick.
    """
    tick, checkpoint, active, y, run_peak, run_tick = state
    rk4 = _BatchRK4(y, triples[active].T.copy(), dt)
    while active.size > stop:
        tick += 1
        rk4.step(tick)
        ie = rk4.y[1]
        better = ie > run_peak
        np.copyto(run_peak, ie, where=better)
        run_tick[better] = tick
        if tick == checkpoint:
            keep = run_tick == checkpoint
            if keep.any() and checkpoint == last_tick:
                raise _horizon_error(triples, active[keep], checkpoint)
            checkpoint *= 2
        elif tick % SETTLE_EVERY == 0:
            keep = ~(eligible[active] & _settled(run_peak, *rk4.y[:3], rk4.rates, last_tick))
        else:
            continue
        if keep.all():
            continue
        peak[active] = run_peak
        ptick[active] = run_tick
        active, run_peak, run_tick = (a[keep] for a in (active, run_peak, run_tick))
        rk4 = _BatchRK4(rk4.y[:, keep], rk4.rates[:, keep], dt)
    return tick, checkpoint, active, rk4.y, run_peak, run_tick


def _scalar_tail(state, triples, eligible, peak, ptick, dt: float, last_tick: int) -> None:
    """Finish each run of a _batch state on Python floats, one run after another.

    Every run takes the batch's steps, peak rule, settle ticks and checkpoints, and
    _float_steps decides each step as _check_batch does for that run. Stores the
    peaks and ticks, then raises the HorizonError of the runs still rising on
    last_tick, as _batch does; the first IntegrationError of a run is raised at
    once, and need not be the batch's first.
    """
    start, first_checkpoint, active, y, run_peaks, run_ticks = state
    rising = []
    for run, s, ie, ix, r, run_peak, run_tick in zip(active.tolist(), *y.tolist(),
                                                        run_peaks.tolist(), run_ticks.tolist()):
        rates = triples[run].tolist()
        settles = bool(eligible[run])
        checkpoint = first_checkpoint
        steps = _float_steps(rates, s, ie, ix, r, dt, start)
        for tick, (s, ie, ix, r) in enumerate(steps, start + 1):
            if ie > run_peak:
                run_peak, run_tick = ie, tick
            if tick == checkpoint:
                if run_tick != checkpoint:
                    break
                if checkpoint == last_tick:
                    rising.append(run)
                    break
                checkpoint *= 2
            elif (tick % SETTLE_EVERY == 0 and settles
                  and _settled_float(run_peak, s, ie, ix, rates, last_tick)):
                break
        peak[run], ptick[run] = run_peak, run_tick
    if rising:
        raise _horizon_error(triples, rising, last_tick)


def run_sweep(triples: np.ndarray, dt: float = DEFAULT_DT,
              horizon: int = DEFAULT_HORIZON) -> tuple[np.ndarray, np.ndarray]:
    """Integrate every triple as one batch and extract its i_e peak.

    Returns the peak values and their ticks, one entry per triple. Every
    SETTLE_EVERY ticks, eligible runs whose peak can no longer be beaten are
    settled and dropped from the batch. At each checkpoint (the horizon, then
    doubled up to 4 times) runs whose i_e peak lies before the checkpoint are
    dropped too; runs still rising on the checkpoint tick keep integrating
    from their current state. A peak still unbracketed after 4 doublings
    raises HorizonError naming the lowest-index such triple. Dropping a run
    changes neither its peak nor the errors of the batch.

    The batch steps on model._BatchRK4. Once at most SCALAR_TAIL_RUNS runs are
    left, a batch tick costs more than stepping them one by one, so each is
    finished on Python floats by model._float_steps, which performs the kernel's
    float operations, with the same step checks, peak rule, settle test and
    checkpoints. If one of them fails, the batch reruns from the hand-off
    state and raises the batch's own error, with its message and step.
    """
    triples = np.asarray(triples, dtype=float)
    if triples.ndim != 2 or triples.shape[1] != 3:
        raise ParameterError(f"triples must have shape (n, 3), got {triples.shape}")
    _check_rates(triples)
    check_step_size(dt)
    if horizon < 1:
        raise ParameterError(f"horizon must be >= 1, got {horizon!r}")
    count = triples.shape[0]
    peak = np.empty(count)
    ptick = np.zeros(count, dtype=np.int64)
    y = np.repeat(np.array(SWEEP_INITIAL)[:, None], count, axis=1)
    state = (0, horizon, np.arange(count), y, y[1].copy(), np.zeros(count, dtype=np.int64))
    last_tick = horizon * 2**MAX_DOUBLINGS
    # _check_batch reports non-finite values, so numpy need not warn about them
    with np.errstate(over="ignore", invalid="ignore"):
        eligible = _settle_eligible(triples, dt)
        args = (triples, eligible, peak, ptick, dt, last_tick)
        state = _batch(state, *args, SCALAR_TAIL_RUNS)
        try:
            _scalar_tail(state, *args)
        except IntegrationError:
            # the batch decides each run's steps alike, so it fails too, at the
            # batch's first failing step
            _batch(state, *args, 0)
    return peak, ptick


def scale_log_peaks(peaks: np.ndarray) -> np.ndarray:
    """Min-max scaled ln(peak value), one entry per run.

    A degenerate range (max == min) maps every value to 0.
    """
    values = np.asarray(peaks, dtype=float)
    if (values <= 0).any():
        bad = float(values.min())
        raise ScalingDomainError(f"nonpositive peak value {bad!r} cannot be log-scaled")
    logs = np.log(values)
    lo, hi = float(logs.min()), float(logs.max())
    if hi == lo:
        return np.zeros_like(logs)
    return (logs - lo) / (hi - lo)


def fit_ols(triples: np.ndarray, log_peak_scaled: np.ndarray) -> RegressionReport:
    """OLS of the scaled log peak on (beta_e, beta_x, gamma) with intercept."""
    triples = np.asarray(triples, dtype=float)
    y = np.asarray(log_peak_scaled, dtype=float)
    if triples.ndim != 2 or triples.shape[1] != 3 or y.shape != triples.shape[:1]:
        raise ParameterError(f"need (n, 3) triples and n scaled peaks, got "
                             f"{triples.shape} and {y.shape}")
    if not np.isfinite(y).all():
        raise ParameterError("scaled peaks must be finite (see scale_log_peaks)")
    return fit_linear(y, {"beta_e": triples[:, 1], "beta_x": triples[:, 0],
                          "gamma": triples[:, 2]})
