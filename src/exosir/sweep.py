"""Well-mixed parameter sweep: 27,000 Exo-SIR runs and an OLS on ln(i_e peak).

Thirty uniform draws per rate form a k^3 Cartesian grid; every triple is
integrated from the standard initial counts (N=1,000,000 with S=999,996,
I_x=3, I_e=1, R=0) and the i_e peak is extracted. Peaks still rising at the
horizon re-run with a doubled horizon.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import HorizonError, IntegrationError, ParameterError, ScalingDomainError
from .model import check_step_size
from .regression import RegressionReport, fit_linear

SWEEP_INITIAL = (0.999996, 1e-6, 3e-6, 0.0)
DEFAULT_DT = 0.1
DEFAULT_HORIZON = 2000
MAX_DOUBLINGS = 4
DEFAULT_SEED = 25
DEFAULT_K = 30

CONSERVATION_TOL = 1e-9
UNDERSHOOT_TOL = 1e-12


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


def _batch_ie_peaks(triples: np.ndarray, dt: float, n_steps: int):
    """Vectorized RK4 over all triples at once with streaming peak extraction.

    Returns (peak_value, peak_tick, rising) arrays; rising marks runs whose
    i_e argmax sits on the final step. Applies the same conservation and
    undershoot rules as model.integrate, vectorized across runs.
    """
    bx = triples[:, 0].copy()
    be = triples[:, 1].copy()
    g = triples[:, 2].copy()
    count = bx.size
    s = np.full(count, SWEEP_INITIAL[0])
    ie = np.full(count, SWEEP_INITIAL[1])
    ix = np.full(count, SWEEP_INITIAL[2])
    r = np.full(count, SWEEP_INITIAL[3])
    peak = ie.copy()
    ptick = np.zeros(count, dtype=np.int64)
    half = dt / 2.0
    sixth = dt / 6.0

    def rhs(s, ie, ix):
        i = ie + ix
        return (-bx * s - be * s * i, bx * s - g * ix, be * s * i - g * ie, g * i)

    def checked(values, step):
        out = []
        for v in values:
            if not np.isfinite(v).all():
                raise IntegrationError("non-finite compartment in sweep batch", step)
            low = v.min()
            if low < 0.0:
                if low < -UNDERSHOOT_TOL:
                    raise IntegrationError(f"compartment undershoot {low!r}", step)
                v = np.where(v < 0.0, 0.0, v)
            high = v.max()
            if high > 1.0:
                if high > 1.0 + UNDERSHOOT_TOL:
                    raise IntegrationError(f"compartment overshoot {high!r}", step)
                v = np.where(v > 1.0, 1.0, v)
            out.append(v)
        drift = np.abs(out[0] + out[1] + out[2] + out[3] - 1.0).max()
        if drift > CONSERVATION_TOL:
            raise IntegrationError(f"conservation violated: drift={drift!r}", step)
        return out

    for tick in range(1, n_steps + 1):
        ds1, dx1, de1, dr1 = rhs(s, ie, ix)
        ds2, dx2, de2, dr2 = rhs(s + half * ds1, ie + half * de1, ix + half * dx1)
        ds3, dx3, de3, dr3 = rhs(s + half * ds2, ie + half * de2, ix + half * dx2)
        ds4, dx4, de4, dr4 = rhs(s + dt * ds3, ie + dt * de3, ix + dt * dx3)
        s = s + sixth * (ds1 + 2.0 * ds2 + 2.0 * ds3 + ds4)
        ie = ie + sixth * (de1 + 2.0 * de2 + 2.0 * de3 + de4)
        ix = ix + sixth * (dx1 + 2.0 * dx2 + 2.0 * dx3 + dx4)
        r = r + sixth * (dr1 + 2.0 * dr2 + 2.0 * dr3 + dr4)
        s, ie, ix, r = checked((s, ie, ix, r), tick)
        better = ie > peak
        peak = np.where(better, ie, peak)
        ptick = np.where(better, tick, ptick)
    return peak, ptick, ptick == n_steps


def run_sweep(triples: np.ndarray, dt: float = DEFAULT_DT,
              horizon: int = DEFAULT_HORIZON) -> list[SweepSample]:
    """Integrate every triple and extract its i_e peak.

    A run whose i_e is still rising at the horizon re-runs with the horizon
    doubled, up to 4 doublings; a peak still unbracketed after that raises
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
    n_steps = horizon
    for doubling in range(MAX_DOUBLINGS + 1):
        values, ticks, rising = _batch_ie_peaks(triples[active], dt, n_steps)
        peak[active] = values
        ptick[active] = ticks
        active = active[rising]
        if active.size == 0:
            break
        if doubling == MAX_DOUBLINGS:
            bx, be, g = triples[active[0]]
            raise HorizonError(
                f"i_e still rising after {n_steps} steps (x{MAX_DOUBLINGS} doublings) for "
                f"beta_x={bx!r}, beta_e={be!r}, gamma={g!r} "
                f"({active.size} run(s) affected)")
        n_steps *= 2
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
