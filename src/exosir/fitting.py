"""Rate estimation from observed daily counts and the exogenous-channel counterfactual.

Pipeline: ObservedSeries -> normalize (per-capita fractions, running-sum
cumulatives) -> estimate_params (per-rate through-origin least squares) ->
counterfactual_runs (paired runs with and without the exogenous channel).
"""

from __future__ import annotations

import datetime as dt
from dataclasses import dataclass

import numpy as np

from .errors import (HorizonError, IntegrationError, ParameterError, ScaleError,
                     UnidentifiableParameterError)
from .ingest import ObservedSeries
from .model import CompartmentState, ModelParams, PeakStats, Trajectory, integrate, peak_of

COUNTERFACTUAL_DT = 1.0  # real-data runs tick in whole days
DEFAULT_HORIZON_DAYS = 365
MAX_HORIZON_DAYS = 4096


@dataclass(frozen=True)
class NormalizedSeries:
    """Per-capita daily increments and their running-sum cumulatives."""

    di_e: np.ndarray
    di_x: np.ndarray
    dr: np.ndarray
    s: np.ndarray
    i_e: np.ndarray
    i_x: np.ndarray
    r: np.ndarray

    def __len__(self) -> int:
        return self.s.size

    @property
    def i(self) -> np.ndarray:
        return self.i_e + self.i_x


@dataclass(frozen=True)
class ParamDiagnostic:
    raw: float  # slope before any clamping
    residual_rms: float
    clamped: bool


@dataclass(frozen=True)
class FittedParams:
    params: ModelParams
    initial: CompartmentState
    diagnostics: dict[str, ParamDiagnostic]


@dataclass(frozen=True)
class PeakComparison:
    with_ix: PeakStats
    without_ix: PeakStats
    peak_value_ratio: float
    peak_advance_days: float


def normalize(series: ObservedSeries) -> NormalizedSeries:
    """Scale daily counts by population and accumulate compartment fractions.

    di_e comes from confirmed counts, di_x from imported plus event-linked,
    dr from recovered plus deceased; i = i_e + i_x and s = 1 - i - r.
    """
    n = float(series.population_n)
    di_e = np.asarray(series.daily_confirmed, dtype=float) / n
    di_x = (np.asarray(series.daily_imported, dtype=float)
            + np.asarray(series.daily_event_linked, dtype=float)) / n
    dr = (np.asarray(series.daily_recovered, dtype=float)
          + np.asarray(series.daily_deceased, dtype=float)) / n
    i_e = np.cumsum(di_e)
    i_x = np.cumsum(di_x)
    r = np.cumsum(dr)
    i = i_e + i_x
    s = 1.0 - i - r
    for name, values in (("i_e", i_e), ("i_x", i_x), ("r", r), ("i", i), ("s", s)):
        if float(values.min()) < 0.0 or float(values.max()) > 1.0:
            raise ScaleError(
                f"cumulative {name} leaves [0, 1]; population_n={series.population_n} "
                "is likely too small for these counts")
    for arr in (di_e, di_x, dr, s, i_e, i_x, r):
        arr.flags.writeable = False
    return NormalizedSeries(di_e, di_x, dr, s, i_e, i_x, r)


def _slope_through_origin(y: np.ndarray, x: np.ndarray, parameter: str
                          ) -> tuple[float, float]:
    xx = float(np.dot(x, x))
    if xx == 0.0:
        raise UnidentifiableParameterError(parameter)
    slope = float(np.dot(y, x)) / xx
    residual = y - slope * x
    rms = float(np.sqrt(np.mean(residual * residual)))
    return slope, rms


def estimate_params(norm: NormalizedSeries) -> FittedParams:
    """Per-rate through-origin least squares on the discrete model equations.

    Day-k increments span [k-1, k], so each regressor is the trapezoid
    average of its compartment over that day rather than the right endpoint;
    the endpoint choice biases every rate downward by about half a day of
    exponential growth, which is enough to miss slow-decay configurations.
    gamma comes first (dr = gamma*i), then beta_x (di_x + gamma*i_x =
    beta_x*s) and beta_e (di_e + gamma*i_e = beta_e*s*i) reuse it.

    A series with no exogenous cases fixes beta_x = 0; one that has some but
    whose beta_x signal vanishes raises UnidentifiableParameterError.
    """
    if len(norm) < 3:
        raise ParameterError(f"need at least 3 days to estimate rates, got {len(norm)}")
    k = np.arange(1, len(norm))
    i = norm.i
    i_mid = 0.5 * (i[k] + i[k - 1])
    ix_mid = 0.5 * (norm.i_x[k] + norm.i_x[k - 1])
    ie_mid = 0.5 * (norm.i_e[k] + norm.i_e[k - 1])
    s_mid = 0.5 * (norm.s[k] + norm.s[k - 1])
    si_mid = 0.5 * (norm.s[k] * i[k] + norm.s[k - 1] * i[k - 1])

    gamma_raw, gamma_rms = _slope_through_origin(norm.dr[k], i_mid, "gamma")
    gamma = max(gamma_raw, 0.0)

    y_x = norm.di_x[k] + gamma * ix_mid
    if not np.any(y_x):
        if np.any(norm.di_x):
            raise UnidentifiableParameterError("beta_x")
        beta_x_raw, beta_x_rms = 0.0, 0.0
    else:
        beta_x_raw, beta_x_rms = _slope_through_origin(y_x, s_mid, "beta_x")

    y_e = norm.di_e[k] + gamma * ie_mid
    beta_e_raw, beta_e_rms = _slope_through_origin(y_e, si_mid, "beta_e")

    diagnostics = {
        "gamma": ParamDiagnostic(gamma_raw, gamma_rms, gamma_raw < 0.0),
        "beta_x": ParamDiagnostic(beta_x_raw, beta_x_rms, beta_x_raw < 0.0),
        "beta_e": ParamDiagnostic(beta_e_raw, beta_e_rms, beta_e_raw < 0.0),
    }
    params = ModelParams(beta_x=max(beta_x_raw, 0.0), beta_e=max(beta_e_raw, 0.0),
                         gamma=gamma)
    initial = CompartmentState(s=float(norm.s[0]), i_e=float(norm.i_e[0]),
                               i_x=float(norm.i_x[0]), r=float(norm.r[0]))
    return FittedParams(params=params, initial=initial, diagnostics=diagnostics)


def _run_until_peaked(params: ModelParams, initial: CompartmentState,
                      horizon_days: int) -> Trajectory:
    """Integrate at one-day steps, doubling the horizon until the i_e peak is interior.

    Each doubling continues from the last day instead of restarting from day 0;
    a step depends only on the state it starts from, so every day is the same.
    """
    traj = integrate(initial, params, COUNTERFACTUAL_DT, int(horizon_days))
    while True:
        n_steps = len(traj) - 1
        if peak_of(traj, "i_e").peak_tick < n_steps:
            return traj
        if n_steps >= MAX_HORIZON_DAYS:
            raise HorizonError(
                f"i_e still rising after {n_steps} days "
                f"(beta_x={params.beta_x!r}, beta_e={params.beta_e!r}, gamma={params.gamma!r})")
        more = min(2 * n_steps, MAX_HORIZON_DAYS) - n_steps
        try:
            tail = integrate(traj.state_at(n_steps), params, COUNTERFACTUAL_DT, more)
        except IntegrationError as exc:  # number the step from day 0, as a restart would
            raise IntegrationError(exc.reason, n_steps + exc.step) from None
        traj = _joined(traj, tail)


def _joined(head: Trajectory, tail: Trajectory) -> Trajectory:
    """head followed by tail, whose first state is head's last."""
    arrays = [np.concatenate([getattr(head, name), getattr(tail, name)[1:]])
              for name in ("s", "i_e", "i_x", "r")]
    for arr in arrays:
        arr.flags.writeable = False
    return Trajectory(head.dt, *arrays)


def fold_out_exogenous(fitted: FittedParams) -> FittedParams:
    """Zero the exogenous channel: beta_x = 0 and initial i_x mass returned to s."""
    base = fitted.initial
    params = ModelParams(beta_x=0.0, beta_e=fitted.params.beta_e, gamma=fitted.params.gamma)
    initial = CompartmentState(s=base.s + base.i_x, i_e=base.i_e, i_x=0.0, r=base.r)
    return FittedParams(params=params, initial=initial, diagnostics=fitted.diagnostics)


def counterfactual_runs(fitted: FittedParams,
                        horizon_days: int = DEFAULT_HORIZON_DAYS
                        ) -> tuple[Trajectory, Trajectory, PeakComparison]:
    """Paired day-step runs with and without the exogenous channel.

    Both runs share the fitted endogenous rates; the without run zeroes
    beta_x and folds i_x(0) back into s. Returns both trajectories and the
    i_e peak comparison.
    """
    with_traj = _run_until_peaked(fitted.params, fitted.initial, horizon_days)
    folded = fold_out_exogenous(fitted)
    without_traj = _run_until_peaked(folded.params, folded.initial, horizon_days)
    with_peak = peak_of(with_traj, "i_e")
    without_peak = peak_of(without_traj, "i_e")
    if without_peak.peak_value > 0.0:
        ratio = with_peak.peak_value / without_peak.peak_value
    else:
        ratio = 1.0 if with_peak.peak_value == 0.0 else float("inf")
    advance = float(without_peak.peak_tick - with_peak.peak_tick)
    comparison = PeakComparison(with_ix=with_peak, without_ix=without_peak,
                                peak_value_ratio=ratio, peak_advance_days=advance)
    return with_traj, without_traj, comparison


def export_observed(traj: Trajectory, population_n: int, state: str = "synthetic",
                    start: dt.date = dt.date(2020, 1, 30),
                    n_days: int | None = None) -> ObservedSeries:
    """Turn a day-step trajectory into integer daily counts.

    Day 0 carries the initial cumulative state; later days carry net
    increments of the scaled compartments. The series is clipped to the
    rising prefix of both infection channels (through the earlier of the two
    peaks) so that increments stay nonnegative; pass n_days to override.
    """
    if traj.dt != 1.0:
        raise ParameterError(f"daily export needs dt=1 day, got dt={traj.dt!r}")
    if n_days is None:
        cuts = [int(np.argmax(arr)) for arr in (traj.i_e, traj.i_x)
                if float(arr.max()) > float(arr[0])]
        n_days = min(cuts) if cuts else len(traj) - 1
    if n_days < 1:
        raise ParameterError("trajectory has no rising prefix to export")
    n = int(population_n)

    def increments(fractions: np.ndarray) -> np.ndarray:
        scaled = np.rint(fractions[:n_days + 1] * n).astype(np.int64)
        out = np.diff(scaled, prepend=0)
        out[0] = scaled[0]
        if out.min() < 0:
            raise ParameterError("negative daily increment; clip to a rising prefix")
        return out

    confirmed = increments(traj.i_e)
    imported = increments(traj.i_x)
    recovered = increments(traj.r)
    zeros = tuple(0 for _ in range(n_days + 1))
    return ObservedSeries(
        state=state,
        dates=tuple(start + dt.timedelta(days=d) for d in range(n_days + 1)),
        daily_confirmed=tuple(int(v) for v in confirmed),
        daily_recovered=tuple(int(v) for v in recovered),
        daily_deceased=zeros,
        daily_imported=tuple(int(v) for v in imported),
        daily_event_linked=zeros,
        population_n=n,
    )
