"""Shared test helpers: an OLS oracle, a classical SIR integrator, the reference
Exo-SIR right-hand side and RK4 step, and the rate-level boost inequality, all
independent of the library under test."""

import math
import os
from pathlib import Path

import numpy as np

# pytest imports exosir from src/ (pyproject's pythonpath), and so do the processes a test starts
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (
    str(Path(__file__).resolve().parent.parent / "src"), os.environ.get("PYTHONPATH"))))


def _gauss_jordan_inverse(matrix):
    """Invert a small dense matrix by Gauss-Jordan with partial pivoting."""
    p = len(matrix)
    aug = [list(row) + [1.0 if a == b else 0.0 for b in range(p)]
           for a, row in enumerate(matrix)]
    for col in range(p):
        pivot = max(range(col, p), key=lambda rr: abs(aug[rr][col]))
        if abs(aug[pivot][col]) == 0.0:
            raise ZeroDivisionError("singular matrix")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        scale = aug[col][col]
        aug[col] = [v / scale for v in aug[col]]
        for rr in range(p):
            if rr == col:
                continue
            factor = aug[rr][col]
            if factor != 0.0:
                aug[rr] = [v - factor * w for v, w in zip(aug[rr], aug[col])]
    return [row[p:] for row in aug]


def ols_oracle(y, rows):
    """Brute-force normal-equation OLS with fsum accumulation.

    rows already include the intercept column. Returns (coefficients,
    standard errors, adjusted R^2) as plain lists/floats.
    """
    n = len(y)
    p = len(rows[0])
    xtx = [[math.fsum(rows[k][a] * rows[k][b] for k in range(n)) for b in range(p)]
           for a in range(p)]
    xty = [math.fsum(rows[k][a] * y[k] for k in range(n)) for a in range(p)]
    inv = _gauss_jordan_inverse(xtx)
    beta = [math.fsum(inv[a][b] * xty[b] for b in range(p)) for a in range(p)]
    resid = [y[k] - math.fsum(rows[k][a] * beta[a] for a in range(p)) for k in range(n)]
    rss = math.fsum(rk * rk for rk in resid)
    s2 = rss / (n - p)
    se = [math.sqrt(s2 * inv[a][a]) for a in range(p)]
    ybar = math.fsum(y) / n
    tss = math.fsum((yk - ybar) ** 2 for yk in y)
    r2 = 1.0 if tss == 0.0 else 1.0 - rss / tss
    adj = 1.0 - (1.0 - r2) * (n - 1) / (n - p)
    return beta, se, adj


def sir_rk4(initial, params, dt, n_steps):
    """Classical SIR (s, i, r) by fixed-step RK4, written in its own (s, i, r) form.

    ds = -beta*s*i, di = beta*s*i - gamma*i, dr = gamma*i, with the stages and
    their combination in the order of rk4_step below. Returns three arrays of
    n_steps + 1 values.
    """
    beta, gamma = params

    def f(s, i, r):
        return -beta * s * i, beta * s * i - gamma * i, gamma * i

    s, i, r = initial
    out = [(s, i, r)]
    half, sixth = dt / 2.0, dt / 6.0
    for _ in range(n_steps):
        ds1, di1, dr1 = f(s, i, r)
        ds2, di2, dr2 = f(s + half * ds1, i + half * di1, r + half * dr1)
        ds3, di3, dr3 = f(s + half * ds2, i + half * di2, r + half * dr2)
        ds4, di4, dr4 = f(s + dt * ds3, i + dt * di3, r + dt * dr3)
        s, i, r = (s + sixth * (ds1 + 2.0 * ds2 + 2.0 * ds3 + ds4),
                   i + sixth * (di1 + 2.0 * di2 + 2.0 * di3 + di4),
                   r + sixth * (dr1 + 2.0 * dr2 + 2.0 * dr3 + dr4))
        out.append((s, i, r))
    return tuple(np.array(column) for column in zip(*out))


def exo_sir_f(beta_x, beta_e, gamma):
    """The Exo-SIR right-hand side f(s, i_e, i_x, r) -> (ds, di_x, di_e, dr).

    The rates may be floats or arrays of runs. beta_e*s*i is computed once per
    call, in the order model._float_steps and model._BatchRK4 compute it.
    """
    neg_beta_x = -beta_x

    def f(s, ie, ix, r):
        i = ie + ix
        endo = beta_e * s * i
        return (neg_beta_x * s - endo, beta_x * s - gamma * ix, endo - gamma * ie, gamma * i)
    return f


def exo_sir_rhs(state, params):
    """exo_sir_f's derivatives (ds, di_x, di_e, dr) at a CompartmentState, for ModelParams."""
    f = exo_sir_f(params.beta_x, params.beta_e, params.gamma)
    return f(state.s, state.i_e, state.i_x, state.r)


def endogenous_boost_check(state, params) -> bool:
    """True iff di_e/dt with the given i_x strictly exceeds di_e/dt at i_x = 0.

    di_e/dt = beta_e*s*(i_e + i_x) - gamma*i_e is linear in i_x with slope
    beta_e*s, so the strict inequality holds exactly when i_x > 0 and
    beta_e*s > 0. Evaluating the boolean this way avoids subtracting two
    nearly equal floats when i_x is tiny.
    """
    return state.i_x > 0.0 and params.beta_e * state.s > 0.0


def rk4_step(f, s, ie, ix, r, dt):
    """One classical RK4 step of f(s, i_e, i_x, r) -> (ds, di_x, di_e, dr), unchecked.

    Elementwise, so it steps one run on floats or many runs on arrays. f does
    not read r, so the stages pass it unchanged.
    """
    half = dt / 2.0
    ds1, dx1, de1, dr1 = f(s, ie, ix, r)
    ds2, dx2, de2, dr2 = f(s + half * ds1, ie + half * de1, ix + half * dx1, r)
    ds3, dx3, de3, dr3 = f(s + half * ds2, ie + half * de2, ix + half * dx2, r)
    ds4, dx4, de4, dr4 = f(s + dt * ds3, ie + dt * de3, ix + dt * dx3, r)
    sixth = dt / 6.0
    return (s + sixth * (ds1 + 2.0 * ds2 + 2.0 * ds3 + ds4),
            ie + sixth * (de1 + 2.0 * de2 + 2.0 * de3 + de4),
            ix + sixth * (dx1 + 2.0 * dx2 + 2.0 * dx3 + dx4),
            r + sixth * (dr1 + 2.0 * dr2 + 2.0 * dr3 + dr4))
