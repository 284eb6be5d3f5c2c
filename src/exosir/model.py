"""The Exo-SIR right-hand side, a fixed-step RK4 integrator, and peak statistics.

The Exo-SIR model splits the infected compartment by origin: i_e grows through
contact with infected people (rate beta_e), i_x grows straight from the
susceptible pool (rate beta_x, the exogenous channel), and both recover at
rate gamma. All compartments are population fractions. Classical SIR is
Exo-SIR with beta_x = 0 and i_x = 0: integrate that state, and (s, i_e, r)
is the SIR trajectory.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import IntegrationError, InvalidStateError, ParameterError

CONSERVATION_TOL = 1e-9
UNDERSHOOT_TOL = 1e-12


@dataclass(frozen=True)
class ModelParams:
    """Rates per day: beta_x (exogenous), beta_e (endogenous), gamma (recovery)."""

    beta_x: float
    beta_e: float
    gamma: float

    def __post_init__(self):
        for name in ("beta_x", "beta_e", "gamma"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ParameterError(f"{name} must be finite, got {value!r}")
            if value < 0:
                raise ParameterError(f"{name} must be nonnegative, got {value!r}")


@dataclass(frozen=True)
class CompartmentState:
    """One time slice of fractions (s, i_e, i_x, r)."""

    s: float
    i_e: float
    i_x: float
    r: float

    def validate(self) -> None:
        total = 0.0
        for name in ("s", "i_e", "i_x", "r"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise InvalidStateError(f"{name} is not finite: {value!r}")
            if value < 0.0 or value > 1.0:
                raise InvalidStateError(f"{name} outside [0, 1]: {value!r}")
            total += value
        if abs(total - 1.0) > CONSERVATION_TOL:
            raise InvalidStateError(f"compartments sum to {total!r}, expected 1")

    @property
    def i(self) -> float:
        return self.i_e + self.i_x


@dataclass(frozen=True)
class PeakStats:
    """First maximum of a compartment series."""

    peak_value: float
    peak_tick: int
    peak_time: float


@dataclass(frozen=True)
class Trajectory:
    """Fixed-step Exo-SIR trajectory from t = 0; component arrays share one time axis."""

    dt: float
    s: np.ndarray
    i_e: np.ndarray
    i_x: np.ndarray
    r: np.ndarray

    def __len__(self) -> int:
        return self.s.size

    @property
    def times(self) -> np.ndarray:
        return self.dt * np.arange(self.s.size)

    @property
    def i(self) -> np.ndarray:
        return self.i_e + self.i_x

    def state_at(self, tick: int) -> CompartmentState:
        return CompartmentState(
            float(self.s[tick]), float(self.i_e[tick]),
            float(self.i_x[tick]), float(self.r[tick]),
        )


def exo_sir_rhs(state: CompartmentState, params: ModelParams) -> tuple[float, float, float, float]:
    """Exo-SIR derivatives (ds, di_x, di_e, dr) at the given state.

    ds = -beta_x*s - beta_e*s*i, di_x = beta_x*s - gamma*i_x,
    di_e = beta_e*s*i - gamma*i_e, dr = gamma*i, with i = i_e + i_x.
    The four derivatives sum to zero.
    """
    s, i_e, i_x, r = state.s, state.i_e, state.i_x, state.r
    if not (math.isfinite(s) and math.isfinite(i_e) and math.isfinite(i_x) and math.isfinite(r)):
        raise InvalidStateError(f"non-finite state: {state!r}")
    return _exo_sir_f(params.beta_x, params.beta_e, params.gamma)(s, i_e, i_x, r)


def check_step_size(dt: float) -> None:
    """Raise ParameterError unless dt is a finite positive step (NaN fails too)."""
    if not (math.isfinite(dt) and dt > 0):
        raise ParameterError(f"dt must be finite and positive, got {dt!r}")


def check_array_size(count: int, what: str) -> None:
    """Raise ParameterError unless count float64 values fit in one numpy array.

    numpy cannot index more bytes than intp holds, and says so with a ValueError
    rather than a MemoryError; a smaller request that still cannot be met raises
    MemoryError when it is made.
    """
    if count > np.iinfo(np.intp).max // 8:
        raise ParameterError(f"{what} needs {count} values, more than one array can hold")


def _check_step(values, step: int):
    """Conservation and bounds checks for one integrated step; returns clamped values.

    Out-of-range values are clamped first and conservation is tested on the
    clamped values, as _check_batch does per run, so the two decide every
    step alike.
    """
    s, ie, ix, r = values
    if (0.0 <= s <= 1.0 and 0.0 <= ie <= 1.0 and 0.0 <= ix <= 1.0 and 0.0 <= r <= 1.0
            and abs(s + ie + ix + r - 1.0) <= CONSERVATION_TOL):
        return values  # NaN fails every comparison above, so it takes the path below
    for v in values:
        if not math.isfinite(v):
            raise IntegrationError("non-finite compartment", step)
    out = []
    for v in values:
        if v < 0.0:
            if v < -UNDERSHOOT_TOL:
                raise IntegrationError(f"compartment undershoot {v!r}", step)
            v = 0.0
        elif v > 1.0:
            if v > 1.0 + UNDERSHOOT_TOL:
                raise IntegrationError(f"compartment overshoot {v!r}", step)
            v = 1.0
        out.append(v)
    total = out[0] + out[1] + out[2] + out[3]
    if abs(total - 1.0) > CONSERVATION_TOL:
        raise IntegrationError(f"conservation violated: sum={total!r}", step)
    return out


def _check_batch(values, step: int):
    """_check_step's rules over equal-length arrays of runs; returns clamped arrays."""
    out = []
    for v in values:
        low, high = v.min(), v.max()
        if not (math.isfinite(low) and math.isfinite(high)):  # min and max propagate NaN
            raise IntegrationError("non-finite compartment in sweep batch", step)
        if low < 0.0:
            if low < -UNDERSHOOT_TOL:
                raise IntegrationError(f"compartment undershoot {float(low)!r}", step)
            v = np.where(v < 0.0, 0.0, v)
        if high > 1.0:
            if high > 1.0 + UNDERSHOOT_TOL:
                raise IntegrationError(f"compartment overshoot {float(high)!r}", step)
            v = np.where(v > 1.0, 1.0, v)
        out.append(v)
    drift = np.abs(out[0] + out[1] + out[2] + out[3] - 1.0).max()
    if drift > CONSERVATION_TOL:
        raise IntegrationError(f"conservation violated: drift={float(drift)!r}", step)
    return out


def _exo_sir_f(beta_x, beta_e, gamma):
    """exo_sir_rhs on unpacked compartments; rates may be floats or arrays of runs."""
    def f(s, ie, ix, r):
        i = ie + ix
        endo = beta_e * s * i
        return (-beta_x * s - endo, beta_x * s - gamma * ix, endo - gamma * ie, gamma * i)
    return f


def rk4_step(f, s, ie, ix, r, dt: float):
    """One classical RK4 step of f(s, i_e, i_x, r) -> (ds, di_x, di_e, dr).

    Elementwise, so the compartments may be Python floats (single runs) or
    equal-length arrays (a batch of runs); both perform the same float
    operations per run.
    """
    half = dt / 2.0
    ds1, dx1, de1, dr1 = f(s, ie, ix, r)
    ds2, dx2, de2, dr2 = f(s + half * ds1, ie + half * de1, ix + half * dx1, r + half * dr1)
    ds3, dx3, de3, dr3 = f(s + half * ds2, ie + half * de2, ix + half * dx2, r + half * dr2)
    ds4, dx4, de4, dr4 = f(s + dt * ds3, ie + dt * de3, ix + dt * dx3, r + dt * dr3)
    sixth = dt / 6.0
    return (s + sixth * (ds1 + 2.0 * ds2 + 2.0 * ds3 + ds4),
            ie + sixth * (de1 + 2.0 * de2 + 2.0 * de3 + de4),
            ix + sixth * (dx1 + 2.0 * dx2 + 2.0 * dx3 + dx4),
            r + sixth * (dr1 + 2.0 * dr2 + 2.0 * dr3 + dr4))


def integrate(initial: CompartmentState, params: ModelParams,
              dt: float, n_steps: int) -> Trajectory:
    """Integrate the Exo-SIR system with classical fixed-step RK4.

    Every step is checked for conservation (|s+i_e+i_x+r-1| <= 1e-9);
    undershoot below 0 or overshoot above 1 is clamped only within 1e-12,
    anything worse raises IntegrationError with the step index.
    """
    check_step_size(dt)
    if n_steps < 1:
        raise ParameterError(f"n_steps must be >= 1, got {n_steps!r}")
    check_array_size(n_steps + 1, f"n_steps={n_steps}")
    initial.validate()

    f = _exo_sir_f(params.beta_x, params.beta_e, params.gamma)
    S = np.empty(n_steps + 1)
    IE = np.empty(n_steps + 1)
    IX = np.empty(n_steps + 1)
    R = np.empty(n_steps + 1)
    s, ie, ix, r = initial.s, initial.i_e, initial.i_x, initial.r
    S[0], IE[0], IX[0], R[0] = s, ie, ix, r
    for k in range(1, n_steps + 1):
        s, ie, ix, r = _check_step(rk4_step(f, s, ie, ix, r, dt), k)
        S[k], IE[k], IX[k], R[k] = s, ie, ix, r
    for arr in (S, IE, IX, R):
        arr.flags.writeable = False
    return Trajectory(dt=dt, s=S, i_e=IE, i_x=IX, r=R)


def peak_of(traj: Trajectory, compartment: str = "i_e") -> PeakStats:
    """Peak statistics of one infected series; ties broken by the earliest index."""
    names = ("i_e", "i_x", "i")
    if compartment not in names:
        raise ParameterError(f"unknown compartment {compartment!r}, expected one of "
                             f"{sorted(names)}")
    series = getattr(traj, compartment)
    if series.size == 0:
        raise ParameterError("empty trajectory")
    tick = int(np.argmax(series))
    return PeakStats(peak_value=float(series[tick]), peak_tick=tick,
                     peak_time=tick * traj.dt)


def endogenous_boost_check(state: CompartmentState, params: ModelParams) -> bool:
    """True iff di_e/dt with the given i_x strictly exceeds di_e/dt at i_x = 0.

    di_e/dt = beta_e*s*(i_e + i_x) - gamma*i_e is linear in i_x with slope
    beta_e*s, so the strict inequality holds exactly when i_x > 0 and
    beta_e*s > 0. Evaluating the boolean this way avoids subtracting two
    nearly equal floats when i_x is tiny.
    """
    return state.i_x > 0.0 and params.beta_e * state.s > 0.0
