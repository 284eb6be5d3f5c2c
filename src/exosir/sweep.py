"""Well-mixed parameter sweep: 27,000 Exo-SIR runs and an OLS on ln(i_e peak).

Thirty uniform draws per rate form a k^3 Cartesian grid; every triple is
integrated from the standard initial counts (N=1,000,000 with S=999,996,
I_x=3, I_e=1, R=0) and the i_e peak is extracted. Runs still rising at the
horizon keep integrating, from where they are, to a doubled horizon.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import HorizonError, ParameterError, ScalingDomainError
from .model import _check_batch, _exo_sir_f, check_step_size, rk4_step
from .regression import RegressionReport, fit_linear

SWEEP_INITIAL = (0.999996, 1e-6, 3e-6, 0.0)
DEFAULT_DT = 0.1
DEFAULT_HORIZON = 2000
MAX_DOUBLINGS = 4
DEFAULT_SEED = 25
DEFAULT_K = 30


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


def run_sweep(triples: np.ndarray, dt: float = DEFAULT_DT,
              horizon: int = DEFAULT_HORIZON) -> list[SweepSample]:
    """Integrate every triple as one batch and extract its i_e peak.

    At each checkpoint (the horizon, then doubled up to 4 times) runs whose
    i_e peak lies before the checkpoint are settled and dropped from the
    batch; runs still rising on the checkpoint tick keep integrating from
    their current state. A peak still unbracketed after 4 doublings raises
    HorizonError naming the triple.
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
    for doubling in range(MAX_DOUBLINGS + 1):
        f = _exo_sir_f(*triples[active].T.copy())
        while tick < checkpoint:
            tick += 1
            s, ie, ix, r = _check_batch(rk4_step(f, s, ie, ix, r, dt), tick)
            better = ie > run_peak
            run_peak = np.where(better, ie, run_peak)
            run_tick = np.where(better, tick, run_tick)
        peak[active] = run_peak
        ptick[active] = run_tick
        rising = run_tick == checkpoint
        if not rising.any():
            break
        if doubling == MAX_DOUBLINGS:
            bx, be, g = (float(v) for v in triples[active[rising][0]])
            raise HorizonError(
                f"i_e still rising after {checkpoint} steps (x{MAX_DOUBLINGS} doublings) for "
                f"beta_x={bx!r}, beta_e={be!r}, gamma={g!r} "
                f"({int(rising.sum())} run(s) affected)")
        active, s, ie, ix, r, run_peak, run_tick = (
            a[rising] for a in (active, s, ie, ix, r, run_peak, run_tick))
        checkpoint *= 2
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
