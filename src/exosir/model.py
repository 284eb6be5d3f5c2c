"""The Exo-SIR model: its fixed-step RK4 integrator, the step checks, and peak statistics.

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
    """One time slice of fractions (s, i_e, i_x, r), checked when it is built."""

    s: float
    i_e: float
    i_x: float
    r: float

    def __post_init__(self):
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


def _check_batch(values, step: int):
    """Check one integrated step of equal-length arrays of runs; returns clamped arrays.

    Compartment by compartment, a value outside [0, 1] by at most UNDERSHOOT_TOL is
    clamped into it, and one further out, or not finite, raises IntegrationError; then
    conservation is tested on the clamped values.
    """
    out = []
    for v in values:
        low, high = v.min(), v.max()
        if not (math.isfinite(low) and math.isfinite(high)):  # min and max propagate NaN
            raise IntegrationError("non-finite compartment", step)
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


def _float_steps(rates, s, ie, ix, r, dt: float, tick: int):
    """Yield each checked RK4 step of one run on Python floats, from step tick + 1 on.

    rates is (beta_x, beta_e, gamma). The four stages of the Exo-SIR right-hand
    side are written out (ds = -beta_x*s - beta_e*s*i, di_x = beta_x*s - gamma*i_x,
    di_e = beta_e*s*i - gamma*i_e, dr = gamma*i, with i = i_e + i_x), and the step
    performs the float operations of classical RK4, in the order _BatchRK4 performs
    them per run.
    The right-hand side does not read r, so no stage moves it. A step that fails
    the inline test goes to _check_batch as a one-run batch, to be clamped or rejected.
    """
    beta_x, beta_e, gamma = rates
    neg_beta_x = -beta_x
    half, sixth = dt / 2.0, dt / 6.0
    while True:
        tick += 1
        i = ie + ix
        endo = beta_e * s * i
        ds1 = neg_beta_x * s - endo
        dx1 = beta_x * s - gamma * ix
        de1 = endo - gamma * ie
        dr1 = gamma * i
        zs, ze, zx = s + half * ds1, ie + half * de1, ix + half * dx1
        i = ze + zx
        endo = beta_e * zs * i
        ds2 = neg_beta_x * zs - endo
        dx2 = beta_x * zs - gamma * zx
        de2 = endo - gamma * ze
        dr2 = gamma * i
        zs, ze, zx = s + half * ds2, ie + half * de2, ix + half * dx2
        i = ze + zx
        endo = beta_e * zs * i
        ds3 = neg_beta_x * zs - endo
        dx3 = beta_x * zs - gamma * zx
        de3 = endo - gamma * ze
        dr3 = gamma * i
        zs, ze, zx = s + dt * ds3, ie + dt * de3, ix + dt * dx3
        i = ze + zx
        endo = beta_e * zs * i
        ds4 = neg_beta_x * zs - endo
        dx4 = beta_x * zs - gamma * zx
        de4 = endo - gamma * ze
        dr4 = gamma * i
        s += sixth * (ds1 + 2.0 * ds2 + 2.0 * ds3 + ds4)
        ie += sixth * (de1 + 2.0 * de2 + 2.0 * de3 + de4)
        ix += sixth * (dx1 + 2.0 * dx2 + 2.0 * dx3 + dx4)
        r += sixth * (dr1 + 2.0 * dr2 + 2.0 * dr3 + dr4)
        if not (0.0 <= s <= 1.0 and 0.0 <= ie <= 1.0 and 0.0 <= ix <= 1.0 and 0.0 <= r <= 1.0
                and abs(s + ie + ix + r - 1.0) <= CONSERVATION_TOL):
            s, ie, ix, r = np.ravel(_check_batch(np.array([[s], [ie], [ix], [r]]), tick)).tolist()
        yield s, ie, ix, r


class _BatchRK4:
    """_float_steps for a batch of runs, stacked as one (4, runs) array.

    y holds the rows (s, i_e, i_x, r) and rates the rows (beta_x, beta_e, gamma).
    Every stage is written into buffers allocated here, with views made once, so a
    step costs a fixed number of numpy calls whatever the width; each run performs
    exactly the float operations of _float_steps, in the same order, and a step is
    checked as _check_batch would check it.
    Compacting the batch makes a new kernel.
    """

    def __init__(self, y, rates, dt: float):
        self.y = y = np.array(y, dtype=float)
        self.rates = rates
        self.dt = dt
        bx, self._be, self._g = rates
        self._bx_pm = np.stack([bx, -bx])
        runs = y.shape[1]
        self._k = k = np.empty((4, runs))  # one stage's derivatives, rows as y
        self._acc = acc = np.empty((4, runs))  # k1 + 2*k2 + 2*k3 + k4, summed as each ends
        self._z = z = np.empty((3, runs))  # the next stage's s, i_e, i_x; f never reads r
        work = np.empty((4, runs))  # endo, beta_x*s, -beta_x*s, i
        self._work = work[0], work[1:3], work[:2], work[2], work[3]
        self._total = np.empty(runs)
        # _f reads the views (s, i_e, i_x, i_e:i_x) and writes (ds, di_e:di_x, dr)
        self._y_rows = y[0], y[1], y[2], y[3]
        self._y_in = *self._y_rows[:3], y[1:3]
        self._z_in = z[0], z[1], z[2], z[1:3]
        self._k_out = k[0], k[1:3], k[3]
        self._acc_out = acc[0], acc[1:3], acc[3]
        self._y3, self._k3, self._acc3 = y[:3], k[:3], acc[:3]

    def _f(self, z, k) -> None:
        """The Exo-SIR right-hand side at the stage whose row views are z, into the row views k."""
        s, ie, ix, ie_ix = z
        ds, de_dx, dr = k
        endo, bxs_pm, endo_bxs, neg_bxs, i = self._work
        g = self._g
        np.add(ie, ix, i)
        np.multiply(self._be, s, endo)
        np.multiply(endo, i, endo)
        np.multiply(self._bx_pm, s, bxs_pm)
        np.multiply(ie_ix, g, de_dx)
        np.subtract(endo_bxs, de_dx, de_dx)  # endo - gamma*i_e, beta_x*s - gamma*i_x
        np.subtract(neg_bxs, endo, ds)
        np.multiply(g, i, dr)

    def step(self, tick: int) -> None:
        """Advance y by one RK4 step, checked and clamped as _check_batch would."""
        y, k, z, acc, f = self.y, self._k, self._z, self._acc, self._f
        y3, k3, z_in, k_out = self._y3, self._k3, self._z_in, self._k_out
        add, multiply = np.add, np.multiply
        dt = self.dt
        half = dt / 2.0
        f(self._y_in, self._acc_out)
        multiply(self._acc3, half, z)
        add(y3, z, z)
        f(z_in, k_out)
        multiply(k3, half, z)
        add(y3, z, z)
        multiply(k, 2.0, k)
        add(acc, k, acc)
        f(z_in, k_out)
        multiply(k3, dt, z)
        add(y3, z, z)
        multiply(k, 2.0, k)
        add(acc, k, acc)
        f(z_in, k_out)
        add(acc, k, acc)
        multiply(acc, dt / 6.0, acc)
        add(y, acc, y)
        # Fast check. _check_batch leaves a state alone (no clamp, no error) exactly when
        # every value lies in [0, 1] and every run's total t, summed in its order, has
        # |t - 1| <= CONSERVATION_TOL. t - 1 and 1 - t are exact for t in [0.5, 2], so
        # there this holds for every run exactly when max(t) - 1 and 1 - min(t) are within
        # the tolerance; a t outside [0.5, 2] fails one of the two. NaN fails every comparison.
        # Any state not accepted here goes to _check_batch, to be clamped or rejected.
        s, ie, ix, r = self._y_rows
        total = self._total
        add(s, ie, total)
        add(total, ix, total)
        add(total, r, total)
        if not (np.minimum.reduce(y, None) >= 0.0 and np.maximum.reduce(y, None) <= 1.0
                and np.maximum.reduce(total) - 1.0 <= CONSERVATION_TOL
                and 1.0 - np.minimum.reduce(total) <= CONSERVATION_TOL):
            y[...] = _check_batch(y, tick)


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

    # allocated up front, so a request too large for memory fails before any step
    S, IE, IX, R = (np.empty(n_steps + 1) for _ in range(4))
    views = [memoryview(arr) for arr in (S, IE, IX, R)]
    vs, vie, vix, vr = views  # item stores on a memoryview skip numpy's scalar path
    s, ie, ix, r = initial.s, initial.i_e, initial.i_x, initial.r
    vs[0], vie[0], vix[0], vr[0] = s, ie, ix, r
    steps = _float_steps((params.beta_x, params.beta_e, params.gamma), s, ie, ix, r, dt, 0)
    # the range comes first, so the zip stops before the generator takes a step too many
    for k, (s, ie, ix, r) in zip(range(1, n_steps + 1), steps):
        vs[k], vie[k], vix[k], vr[k] = s, ie, ix, r
    for view, arr in zip(views, (S, IE, IX, R)):
        view.release()
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
