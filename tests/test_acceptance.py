"""Acceptance checks for the whole toolkit, one criterion per test.

Each test prints a single CRITERION line with its verdict and the measured
numbers, then asserts every sub-gate. Two sub-gates are expected to fail
and are left failing on purpose; the package behavior is correct and the
checks state the intended claim faithfully:

* criterion 4, peak-value half: along whole trajectories the exogenous
  channel routes susceptibles through i_x that never pass through i_e, so
  for fast-spread slow-recovery configurations the endogenous peak VALUE is
  slightly lower with the channel than without, even though the peak always
  arrives earlier. The per-step rate inequality and the timing direction
  hold everywhere.
* criterion 6, joint network trend: the same mass-routing effect is much
  stronger on a contact network, where large per-tick exogenous infection
  probabilities consume most susceptibles before endogenous spread begins,
  so the mean endogenous peak value DECREASES in beta_x while the peak tick
  direction holds in every slice.
* criterion 5 fails only its coefficient-symmetry sub-gate: on this sweep
  the fitted beta_e and beta_x coefficients differ by far more than 15%,
  while signs, p-values, and adjusted R^2 all pass.
"""

import json
import time

import numpy as np
import pytest

from conftest import ols_oracle, sir_rk4
from exosir.cli import main
from exosir.fitting import FittedParams, counterfactual_runs
from exosir.model import (CompartmentState, ModelParams,
                          endogenous_boost_check, exo_sir_rhs, integrate)
from exosir.network import run_experiment
from exosir.regression import fit_linear
from exosir.sweep import fit_ols, run_sweep, sample_grid, scale_log_peaks

from test_cli import DATA


def _verdict(number: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    line = f"CRITERION {number} [{name}]: {status}"
    if detail:
        line += f" - {detail}"
    print(line)


def test_criterion_01_conservation_and_validity():
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    worst_sum = 0.0
    worst_min = 0.0
    for _ in range(100):
        s0, ie0, ix0, r0 = rng.dirichlet(np.ones(4))
        beta_x, beta_e, gamma = rng.uniform(0.0, 1.0, 3)
        traj = integrate(CompartmentState(s=s0, i_e=ie0, i_x=ix0, r=r0),
                         ModelParams(beta_x=beta_x, beta_e=beta_e, gamma=gamma),
                         0.1, 500)
        total = traj.s + traj.i_e + traj.i_x + traj.r
        worst_sum = max(worst_sum, float(np.abs(total - 1.0).max()))
        worst_min = min(worst_min, *(float(a.min()) for a in
                                     (traj.s, traj.i_e, traj.i_x, traj.r)))
    elapsed = time.perf_counter() - start
    ok = worst_sum <= 1e-9 and worst_min >= -1e-12 and elapsed < 1.0
    _verdict(1, "conservation and validity", ok,
             f"max |sum-1| {worst_sum:.3e}, min compartment {worst_min:.3e}, "
             f"{elapsed:.2f}s for 100 runs of 500 steps")
    assert worst_sum <= 1e-9
    assert worst_min >= -1e-12
    assert elapsed < 1.0


def test_criterion_02_classical_reduction():
    rng = np.random.default_rng(102)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(20):
        beta_e = rng.uniform(0.0, 1.0)
        gamma = rng.uniform(0.0, 1.0)
        i0 = rng.uniform(0.001, 0.5)
        exo = integrate(CompartmentState(s=1.0 - i0, i_e=i0, i_x=0.0, r=0.0),
                        ModelParams(beta_x=0.0, beta_e=beta_e, gamma=gamma),
                        0.1, 1000)
        s, i, r = sir_rk4((1.0 - i0, i0, 0.0), (beta_e, gamma), 0.1, 1000)
        worst = max(worst,
                    float(np.abs(exo.i_e + exo.i_x - i).max()),
                    float(np.abs(exo.s - s).max()),
                    float(np.abs(exo.r - r).max()))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-9 and elapsed < 1.0
    _verdict(2, "classical reduction at beta_x=0", ok,
             f"max componentwise gap to a classical SIR reference {worst:.3e} "
             f"over 20 configs, {elapsed:.2f}s")
    assert worst <= 1e-9
    assert elapsed < 1.0


def test_criterion_03_zero_seed_behavior():
    rng = np.random.default_rng(103)
    ok = True
    for _ in range(10):
        beta_x = rng.uniform(0.01, 1.0)
        beta_e = rng.uniform(0.0, 1.0)
        gamma = rng.uniform(0.0, 1.0)
        exo = integrate(CompartmentState(s=1.0, i_e=0.0, i_x=0.0, r=0.0),
                        ModelParams(beta_x=beta_x, beta_e=beta_e, gamma=gamma),
                        0.1, 20)
        sir = integrate(CompartmentState(s=1.0, i_e=0.0, i_x=0.0, r=0.0),
                        ModelParams(beta_x=0.0, beta_e=beta_e, gamma=gamma), 0.1, 20)
        ok = ok and (exo.i_e + exo.i_x)[1] > 0.0 and bool(np.all(sir.i == 0.0))
    _verdict(3, "zero-seed behavior", ok,
             "exogenous channel infects by step 1, classical model stays at 0")
    assert ok


def test_criterion_04_endogenous_boost_direction():
    rng = np.random.default_rng(104)
    rhs_ok = 0
    for _ in range(50):
        s = rng.uniform(0.05, 0.9)
        i_e = rng.uniform(0.0, (1.0 - s) * 0.45)
        i_x = rng.uniform(0.01, (1.0 - s) * 0.45)
        r = 1.0 - s - i_e - i_x
        params = ModelParams(beta_x=rng.uniform(0.0, 1.0),
                             beta_e=rng.uniform(0.05, 1.0),
                             gamma=rng.uniform(0.0, 1.0))
        state = CompartmentState(s=s, i_e=i_e, i_x=i_x, r=r)
        zeroed = CompartmentState(s=s, i_e=i_e, i_x=0.0, r=r + i_x)
        with_rate = exo_sir_rhs(state, params)[2]
        without_rate = exo_sir_rhs(zeroed, params)[2]
        if endogenous_boost_check(state, params) and with_rate > without_rate:
            rhs_ok += 1

    value_ok = 0
    tick_ok = 0
    for _ in range(50):
        beta_e = rng.uniform(0.15, 0.5)
        gamma = rng.uniform(0.05, beta_e - 0.05)
        beta_x = 10.0 ** rng.uniform(-8.0, -2.3)
        fitted = FittedParams(
            params=ModelParams(beta_x=beta_x, beta_e=beta_e, gamma=gamma),
            initial=CompartmentState(s=0.999996, i_e=1e-6, i_x=3e-6, r=0.0),
            diagnostics={})
        comparison = counterfactual_runs(fitted)[2]
        if comparison.with_ix.peak_value >= comparison.without_ix.peak_value:
            value_ok += 1
        if comparison.with_ix.peak_tick <= comparison.without_ix.peak_tick:
            tick_ok += 1

    ok = rhs_ok == 50 and value_ok == 50 and tick_ok == 50
    _verdict(4, "endogenous boost direction", ok,
             f"rate-level {rhs_ok}/50, trajectory peak value {value_ok}/50, "
             f"trajectory peak tick {tick_ok}/50")
    assert rhs_ok == 50
    assert tick_ok == 50
    # Known-failing half: the peak-value direction is not a trajectory-level
    # invariant; see the module docstring.
    assert value_ok == 50, (
        f"peak value direction held in only {value_ok}/50 configurations; "
        "the exogenous channel can lower the endogenous peak value while "
        "still advancing its timing")


def test_criterion_05_sweep_regression():
    start = time.perf_counter()
    triples = sample_grid(30, 25)
    report = fit_ols(triples, scale_log_peaks(run_sweep(triples, 0.1)[0]))
    elapsed = time.perf_counter() - start

    c = report.coefficients
    p = report.p_values
    signs_ok = c["beta_e"] > 0 and c["beta_x"] > 0 and c["gamma"] < 0
    p_ok = all(p[name] < 0.05 for name in ("beta_e", "beta_x", "gamma"))
    rel_diff = abs(c["beta_e"] - c["beta_x"]) / max(abs(c["beta_e"]), abs(c["beta_x"]))
    symmetry_ok = rel_diff < 0.15
    r2_ok = 0.55 <= report.adj_r_squared <= 0.85
    time_ok = elapsed < 600.0
    ok = signs_ok and p_ok and symmetry_ok and r2_ok and time_ok
    _verdict(5, "sweep regression", ok,
             f"n={report.n}, coef(beta_e)={c['beta_e']:+.4f}, "
             f"coef(beta_x)={c['beta_x']:+.4f}, coef(gamma)={c['gamma']:+.4f}, "
             f"adj R^2={report.adj_r_squared:.3f}, "
             f"max p={max(p.values()):.2e}, rel coef diff={rel_diff:.3f}, "
             f"{elapsed:.0f}s")
    assert time_ok, f"sweep took {elapsed:.0f}s"
    assert p_ok, f"p-values {p}"
    assert signs_ok, f"coefficient signs {c}"
    assert r2_ok, f"adjusted R^2 {report.adj_r_squared}"
    # Known-failing half: beta_e and beta_x carry very different weight in
    # this sweep; see the module docstring.
    assert symmetry_ok, (
        f"|coef(beta_e) - coef(beta_x)| relative difference {rel_diff:.3f} "
        "is not below 0.15")


def test_criterion_06_network_trends():
    start = time.perf_counter()
    summaries = run_experiment(base_seed=11, reps=50, n=150, m=1)
    elapsed = time.perf_counter() - start
    by_combo = {(s.beta_x, s.beta_e, s.gamma): s for s in summaries}
    axis = (0.1, 0.5, 0.9)
    joint = value_only = tick_only = 0
    lines = []
    for beta_e in axis:
        for gamma in axis:
            vals = [by_combo[(bx, beta_e, gamma)].mean_endo_peak_value for bx in axis]
            ticks = [by_combo[(bx, beta_e, gamma)].mean_endo_peak_tick for bx in axis]
            v_ok = vals[0] <= vals[1] <= vals[2]
            t_ok = ticks[0] >= ticks[1] >= ticks[2]
            value_only += v_ok
            tick_only += t_ok
            joint += v_ok and t_ok
            lines.append(f"  be={beta_e} g={gamma}: values {vals} {'ok' if v_ok else 'DOWN'}, "
                         f"ticks {ticks} {'ok' if t_ok else 'UP'}")
    time_ok = elapsed < 120.0
    ok = joint >= 8 and time_ok
    _verdict(6, "network trends in beta_x", ok,
             f"joint {joint}/9 slices (value {value_only}/9, tick {tick_only}/9), "
             f"{elapsed:.0f}s")
    for line in lines:
        print(line)
    assert time_ok, f"network experiment took {elapsed:.0f}s"
    # Known-failing half: the value trend inverts on the network; the tick
    # trend holds. See the module docstring.
    assert joint >= 8, (
        f"endo peak value non-decreasing AND tick non-increasing held in "
        f"{joint}/9 slices (value {value_only}/9, tick {tick_only}/9)")


def test_criterion_07_ols_oracle():
    rng = np.random.default_rng(107)
    worst = 0.0
    for _ in range(20):
        n = int(rng.integers(8, 40))
        x1 = rng.uniform(0.0, 1.0, n)
        x2 = rng.uniform(0.0, 2.0, n)
        x3 = rng.normal(0.0, 1.0, n)
        y = 0.8 - 1.1 * x1 + 0.4 * x2 + 0.2 * x3 + 0.05 * rng.normal(size=n)
        report = fit_linear(y, {"x1": x1, "x2": x2, "x3": x3})
        rows = [[1.0, x1[k], x2[k], x3[k]] for k in range(n)]
        beta, se, _ = ols_oracle(list(y), rows)
        got = [report.coefficients[k] for k in ("intercept", "x1", "x2", "x3")]
        got_se = [report.std_errors[k] for k in ("intercept", "x1", "x2", "x3")]
        worst = max(worst,
                    max(abs(a - b) for a, b in zip(got, beta)),
                    max(abs(a - b) for a, b in zip(got_se, se)))
    ok = worst <= 1e-8
    _verdict(7, "least-squares oracle", ok,
             f"max |library - brute force| {worst:.2e} over 20 datasets")
    assert worst <= 1e-8


def test_criterion_08_closed_loop_fitting():
    from exosir.fitting import estimate_params, export_observed, normalize
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(20):
        gamma = rng.uniform(0.05, 0.25)
        beta_e = rng.uniform(gamma + 0.08, 0.5)
        beta_x = 10.0 ** rng.uniform(-4.0, -2.0)
        params = ModelParams(beta_x=beta_x, beta_e=beta_e, gamma=gamma)
        initial = CompartmentState(s=0.999996, i_e=1e-6, i_x=3e-6, r=0.0)
        traj = integrate(initial, params, 1.0, 4096)
        fitted = estimate_params(normalize(export_observed(traj, 1_000_000)))
        for name, truth in (("beta_x", beta_x), ("beta_e", beta_e), ("gamma", gamma)):
            worst = max(worst, abs(getattr(fitted.params, name) - truth) / truth)
    ok = worst < 0.05
    _verdict(8, "closed-loop fitting", ok,
             f"worst relative error {worst:.4f} over 20 parameter sets at dt=1")
    assert worst < 0.05


def test_criterion_09_real_data_direction(tmp_path):
    results = {}
    for state in ("tn", "rj", "kl"):
        out = tmp_path / state
        argv = ["fit", "--raw", str(DATA / "raw_cases.csv"),
                "--daily", str(DATA / "states_daily.csv"),
                "--state", state, "--pop-config", str(DATA / "populations.json"),
                "--out", str(out)]
        if state == "tn":
            argv[5:5] = ["--events", str(DATA / "events_tn.csv")]
        assert main(argv) == 0
        results[state] = json.loads((out / "comparison.json").read_text())
    ok = True
    details = []
    for state, report in results.items():
        with_ix, without_ix = report["with_ix"], report["without_ix"]
        higher = with_ix["peak_value"] > without_ix["peak_value"]
        earlier = with_ix["peak_tick"] < without_ix["peak_tick"]
        ok = ok and higher and earlier
        details.append(f"{state} {with_ix['peak_value']:.6f}@{with_ix['peak_tick']} vs "
                       f"{without_ix['peak_value']:.6f}@{without_ix['peak_tick']}")
    _verdict(9, "observed-data direction", ok, "; ".join(details))
    for state, report in results.items():
        assert report["with_ix"]["peak_value"] > report["without_ix"]["peak_value"], state
        assert report["with_ix"]["peak_tick"] < report["without_ix"]["peak_tick"], state


def test_criterion_10_determinism(tmp_path):
    pairs = []

    def run_twice(label, argv, filenames):
        outs = []
        for tag in ("a", "b"):
            out = tmp_path / f"{label}_{tag}"
            assert main([*argv, "--out", str(out)]) == 0
            outs.append(out)
        for filename in filenames:
            pairs.append((f"{label}/{filename}",
                          (outs[0] / filename).read_bytes()
                          == (outs[1] / filename).read_bytes()))

    run_twice("simulate", ["simulate", "--steps", "100"],
              ("trajectory.csv", "peaks.json"))
    run_twice("network", ["network", "--beta-x", "0.5", "--beta-e", "0.5",
                          "--gamma", "0.5", "--reps", "3", "--n", "40",
                          "--seed", "11"],
              ("summary.csv",))
    run_twice("sweep", ["sweep", "--k", "2"], ("samples.csv", "regression.json"))
    run_twice("fit", ["fit", "--raw", str(DATA / "raw_cases.csv"),
                      "--daily", str(DATA / "states_daily.csv"),
                      "--state", "kl", "--pop-config", str(DATA / "populations.json")],
              ("comparison.json", "with_ix.csv", "without_ix.csv"))
    ok = all(same for _, same in pairs)
    bad = [name for name, same in pairs if not same]
    _verdict(10, "determinism", ok,
             "all reruns bit-identical" if ok else f"differs: {bad}")
    assert ok, f"non-deterministic outputs: {bad}"
