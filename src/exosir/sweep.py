"""Well-mixed parameter sweep: 27,000 Exo-SIR runs and an OLS on ln(i_e peak).

Thirty uniform draws per rate form a k^3 Cartesian grid; every triple is
integrated from the standard initial counts (N=1,000,000 with S=999,996,
I_x=3, I_e=1, R=0) and the i_e peak is extracted. A run leaves the batch
once its peak can no longer be beaten; runs still rising at the horizon keep
integrating, from where they are, to a doubled horizon.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import HorizonError, ParameterError, ScalingDomainError
from .model import UNDERSHOOT_TOL, _check_batch, _exo_sir_f, check_step_size, rk4_step
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
SETTLE_EVERY = 16
SETTLE_DT_RATES = 0.4
SETTLE_STEP_SLACK = 3 * UNDERSHOOT_TOL


@dataclass(frozen=True)
class SweepSample:
    """One sweep run: parameter triple, i_e peak, and its min-max scaled log."""

    beta_x: float
    beta_e: float
    gamma: float
    ie_peak_value: float
    ie_peak_tick: int
    log_peak_scaled: float | None = None


def sample_grid(k: int = DEFAULT_K, seed: int = DEFAULT_SEED) -> np.ndarray:
    """k i.i.d. uniform(0,1) levels per rate, expanded to the full k^3 grid.

    Returns an array of shape (k^3, 3) with columns (beta_x, beta_e, gamma).
    Draws of exactly 0.0 are redrawn so every coordinate is strictly inside
    (0, 1).
    """
    if k < 2:
        raise ParameterError(f"k must be >= 2, got {k!r}")
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


def _settled(run_peak, s, ie, last_tick: int):
    """Where no tick up to last_tick can beat run_peak, for eligible runs."""
    return run_peak > s + ie + last_tick * SETTLE_STEP_SLACK


def run_sweep(triples: np.ndarray, dt: float = DEFAULT_DT,
              horizon: int = DEFAULT_HORIZON) -> list[SweepSample]:
    """Integrate every triple as one batch and extract its i_e peak.

    Every SETTLE_EVERY ticks, eligible runs whose peak can no longer be
    beaten are settled and dropped from the batch. At each checkpoint (the
    horizon, then doubled up to 4 times) runs whose i_e peak lies before the
    checkpoint are dropped too; runs still rising on the checkpoint tick keep
    integrating from their current state. A peak still unbracketed after 4
    doublings raises HorizonError naming the triple. Dropping a run changes
    neither its peak nor the errors of the batch.
    """
    triples = np.asarray(triples, dtype=float)
    if triples.ndim != 2 or triples.shape[1] != 3:
        raise ParameterError(f"triples must have shape (n, 3), got {triples.shape}")
    check_step_size(dt)
    if horizon < 1:
        raise ParameterError(f"horizon must be >= 1, got {horizon!r}")
    count = triples.shape[0]
    peak = np.empty(count)
    ptick = np.zeros(count, dtype=np.int64)
    active = np.arange(count)
    s, ie, ix, r = (np.full(count, v) for v in SWEEP_INITIAL)
    run_peak = ie.copy()
    run_tick = np.zeros(count, dtype=np.int64)
    tick = 0
    checkpoint = horizon
    last_tick = horizon * 2**MAX_DOUBLINGS
    # _check_batch reports non-finite values, so numpy need not warn about them
    with np.errstate(over="ignore", invalid="ignore"):
        eligible = _settle_eligible(triples, dt)
        f = _exo_sir_f(*triples.T.copy())
        while active.size:
            tick += 1
            s, ie, ix, r = _check_batch(rk4_step(f, s, ie, ix, r, dt), tick)
            better = ie > run_peak
            run_peak = np.where(better, ie, run_peak)
            run_tick = np.where(better, tick, run_tick)
            if tick == checkpoint:
                keep = run_tick == checkpoint
                if keep.any() and checkpoint == last_tick:
                    bx, be, g = (float(v) for v in triples[active[keep][0]])
                    raise HorizonError(
                        f"i_e still rising after {checkpoint} steps (x{MAX_DOUBLINGS} doublings) "
                        f"for beta_x={bx!r}, beta_e={be!r}, gamma={g!r} "
                        f"({int(keep.sum())} run(s) affected)")
                checkpoint *= 2
            elif tick % SETTLE_EVERY == 0:
                keep = ~(eligible[active] & _settled(run_peak, s, ie, last_tick))
            else:
                continue
            if keep.all():
                continue
            peak[active] = run_peak
            ptick[active] = run_tick
            active, s, ie, ix, r, run_peak, run_tick = (
                a[keep] for a in (active, s, ie, ix, r, run_peak, run_tick))
            f = _exo_sir_f(*triples[active].T.copy())
    return [
        SweepSample(beta_x=float(t[0]), beta_e=float(t[1]), gamma=float(t[2]),
                    ie_peak_value=float(v), ie_peak_tick=int(tk))
        for t, v, tk in zip(triples, peak, ptick)
    ]


def scale_log_peaks(samples: list[SweepSample]) -> list[SweepSample]:
    """Populate log_peak_scaled with min-max scaled ln(ie_peak_value).

    A degenerate range (max == min) maps every value to 0.
    """
    values = np.array([s.ie_peak_value for s in samples])
    if (values <= 0).any():
        bad = float(values.min())
        raise ScalingDomainError(f"nonpositive peak value {bad!r} cannot be log-scaled")
    logs = np.log(values)
    lo, hi = float(logs.min()), float(logs.max())
    if hi == lo:
        scaled = np.zeros_like(logs)
    else:
        scaled = (logs - lo) / (hi - lo)
    return [replace(s, log_peak_scaled=float(v)) for s, v in zip(samples, scaled)]


def fit_ols(samples: list[SweepSample]) -> RegressionReport:
    """OLS of the scaled log peak on (beta_e, beta_x, gamma) with intercept."""
    if len(samples) < 5:
        raise ParameterError(f"need at least 5 samples, got {len(samples)}")
    if any(s.log_peak_scaled is None for s in samples):
        raise ParameterError("samples must be scaled first (see scale_log_peaks)")
    y = np.array([s.log_peak_scaled for s in samples])
    covariates = {
        "beta_e": np.array([s.beta_e for s in samples]),
        "beta_x": np.array([s.beta_x for s in samples]),
        "gamma": np.array([s.gamma for s in samples]),
    }
    return fit_linear(y, covariates)
