"""The workloads: generated argv for `exosir.cli.main` and output checks.

Each command writes into its own directory. A check reads the artifacts the
command wrote and raises CheckFailed if they are wrong; it returns the
counts that must repeat exactly for a fixed seed.
"""

from __future__ import annotations

import csv
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

CONSERVATION_TOL = 1e-9
SWEEP_HORIZON = 2000  # the sweep's first horizon; later peaks mean a rerun
GRID_AXIS = "0.1,0.5,0.9"


class CheckFailed(Exception):
    """An artifact is missing or does not pass its output check."""


@dataclass(frozen=True)
class Command:
    label: str  # directory name for its artifacts
    argv: tuple[str, ...]  # without --out
    artifacts: tuple[str, ...]
    check: Callable[[Path], dict[str, int]]


@dataclass(frozen=True)
class Workload:
    name: str
    default_seed: int  # the paper seed; README.md names the held-out seed
    warmup: Callable[[int, Path], list[Command]]
    commands: Callable[[int, Path], list[Command]]


def _rows(path: Path, header: tuple[str, ...]) -> list[list[str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    if not rows or tuple(rows[0]) != header:
        raise CheckFailed(f"{path.name}: header {rows[:1]} is not {list(header)}")
    return rows[1:]


def _floats(row: list[str], path: Path) -> list[float]:
    try:
        values = [float(v) for v in row]
    except ValueError as exc:
        raise CheckFailed(f"{path.name}: {exc}") from None
    if not all(math.isfinite(v) for v in values):
        raise CheckFailed(f"{path.name}: non-finite value in {row}")
    return values


def _json(path: Path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def _all_finite(obj) -> bool:
    if isinstance(obj, dict):
        return all(_all_finite(v) for v in obj.values())
    if isinstance(obj, (list, tuple)):
        return all(_all_finite(v) for v in obj)
    if isinstance(obj, float):
        return math.isfinite(obj)
    return True


def _first_argmax(values: list[float]) -> int:
    return max(range(len(values)), key=lambda i: (values[i], -i))


# sweep ----------------------------------------------------------------------

def _sweep(k: int, seed: int) -> Command:
    def check(out: Path) -> dict[str, int]:
        path = out / "samples.csv"
        rows = _rows(path, ("beta_x", "beta_e", "gamma", "ie_peak_value", "ie_peak_tick",
                            "log_peak_scaled"))
        _require(len(rows) == k ** 3, f"samples.csv has {len(rows)} rows, want {k ** 3}")
        late = 0
        for row in rows:
            value, tick, scaled = _floats(row, path)[3:]
            _require(0.0 < value <= 1.0 and 0.0 <= scaled <= 1.0, f"samples.csv row {row}")
            late += tick > SWEEP_HORIZON
        report = _json(out / "regression.json")
        coefficients = report.get("coefficients", {})
        _require(set(coefficients) == {"intercept", "beta_e", "beta_x", "gamma"},
                 f"regression.json coefficients {sorted(coefficients)}")
        _require(report.get("n") == k ** 3, f"regression.json n={report.get('n')!r}")
        _require(_all_finite(coefficients), "regression.json has a non-finite coefficient")
        return {"sweep.late_peak_runs": late}

    return Command(f"sweep-k{k}", ("sweep", "--k", str(k), "--seed", str(seed)),
                   ("samples.csv", "regression.json"), check)


# network --------------------------------------------------------------------

def _network(seed: int, *, n: int, m: int, reps: int, max_ticks: int,
             beta_x: str, beta_e: str, gamma: str) -> Command:
    axes = [[float(v) for v in axis.split(",")] for axis in (beta_x, beta_e, gamma)]
    combos = [(bx, be, g) for bx in axes[0] for be in axes[1] for g in axes[2]]

    def check(out: Path) -> dict[str, int]:
        path = out / "summary.csv"
        rows = _rows(path, ("beta_x", "beta_e", "gamma", "mean_endo_peak_value",
                            "mean_endo_peak_tick", "mean_exo_peak_value",
                            "mean_exo_peak_tick", "reps"))
        _require(len(rows) == len(combos), f"summary.csv has {len(rows)} rows, "
                                           f"want {len(combos)}")
        for row, combo in zip(rows, combos):
            bx, be, g, ev, et, xv, xt, r = _floats(row, path)
            _require((bx, be, g) == combo and r == reps, f"summary.csv row {row}")
            _require(0.0 <= ev <= n and 0.0 <= xv <= n, f"peak value outside [0, {n}]: {row}")
            _require(0.0 <= et <= max_ticks and 0.0 <= xt <= max_ticks,
                     f"peak tick outside [0, {max_ticks}]: {row}")
        return {}

    argv = ("network", "--n", str(n), "--m", str(m), "--reps", str(reps),
            "--max-ticks", str(max_ticks), "--beta-x", beta_x, "--beta-e", beta_e,
            "--gamma", gamma, "--seed", str(seed))
    return Command(f"network-n{n}", argv, ("summary.csv",), check)


def _network_paper(seed: int, reps: int) -> Command:
    return _network(seed, n=150, m=1, reps=reps, max_ticks=1000,
                    beta_x=GRID_AXIS, beta_e=GRID_AXIS, gamma=GRID_AXIS)


def _network_large(seed: int, *, n: int = 4000, max_ticks: int = 30) -> Command:
    return _network(seed, n=n, m=2, reps=1, max_ticks=max_ticks,
                    beta_x="0.002", beta_e="0.3", gamma="0.1")


# ode_cli ----------------------------------------------------------------------

def _check_trajectory(out: Path, columns: tuple[str, ...], steps: int) -> None:
    traj = out / "trajectory.csv"
    table = [_floats(row, traj) for row in _rows(traj, ("t",) + columns)]
    _require(len(table) == steps + 1, f"trajectory.csv has {len(table)} rows")
    for row in table:
        drift = abs(math.fsum(row[1:]) - 1.0)
        _require(drift <= CONSERVATION_TOL, f"trajectory.csv mass drift {drift!r} at t={row[0]}")
    series = {name: [row[i] for row in table] for i, name in enumerate(columns, start=1)}
    if "i_e" in series:
        series["i"] = [e + x for e, x in zip(series["i_e"], series["i_x"])]
    peaks = _json(out / "peaks.json")
    _require(set(peaks) == set(series) & {"i_e", "i_x", "i"}, f"peaks.json keys {sorted(peaks)}")
    for name, peak in peaks.items():
        tick = _first_argmax(series[name])
        _require(peak["peak_tick"] == tick and peak["peak_value"] == series[name][tick]
                 and abs(peak["peak_time"] - table[tick][0]) <= 1e-9,
                 f"peaks.json {name} {peak} disagrees with the trajectory (tick {tick})")


def _simulate(argv: tuple[str, ...], columns: tuple[str, ...], steps: int,
              label: str) -> Command:
    def check(out: Path) -> dict[str, int]:
        _check_trajectory(out, columns, steps)
        return {}

    return Command(label, ("simulate",) + argv + ("--steps", str(steps)),
                   ("trajectory.csv", "peaks.json"), check)


def _fit(state: str, data: Path) -> Command:
    argv = ("fit", "--raw", str(data / "raw_cases.csv"), "--daily",
            str(data / "states_daily.csv"), "--state", state,
            "--pop-config", str(data / "populations.json"))
    if state == "tn":
        argv += ("--events", str(data / "events_tn.csv"))

    def check(out: Path) -> dict[str, int]:
        comparison = _json(out / "comparison.json")
        _require(comparison.get("state") == state, f"comparison.json state {comparison!r}")
        _require(_all_finite(comparison), "comparison.json has a non-finite value")
        for name in ("with_ix", "without_ix"):
            path = out / f"{name}.csv"
            ie = [_floats(row, path)[1] for row in _rows(path, ("t", "i_e"))]
            tick = _first_argmax(ie)
            _require(comparison[name] == {"peak_value": ie[tick], "peak_tick": tick},
                     f"comparison.json {name} disagrees with {name}.csv")
        return {}

    return Command(f"fit-{state}", argv,
                   ("comparison.json", "with_ix.csv", "without_ix.csv"), check)


def _ode_cycle(seed: int, data: Path) -> list[Command]:
    rng = random.Random(seed)
    exo = ("--beta-x", repr(rng.uniform(0.0005, 0.005)), "--beta-e", repr(rng.uniform(0.2, 0.5)),
           "--gamma", repr(rng.uniform(0.05, 0.15)), "--ie0", "1e-4", "--ix0", "1e-4",
           "--dt", "0.1")
    sir = ("--model", "sir", "--beta-e", repr(rng.uniform(0.2, 0.5)),
           "--gamma", repr(rng.uniform(0.05, 0.15)), "--i0", "0.01", "--dt", "0.1")
    return [_simulate(exo, ("s", "i_e", "i_x", "r"), 2000, "simulate-exo"),
            _simulate(sir, ("s", "i", "r"), 2000, "simulate-sir"),
            _fit("tn", data), _fit("kl", data), _fit("rj", data)]


def all_workloads(data: Path) -> dict[str, Workload]:
    """Workloads by name; `data` is the repository's bundled fixture directory.

    Each warm-up is a smaller command of the same kind, so imports and
    first-call set-up are done before timing starts. Every timed command
    lasts well under a second, so a run holds many calls of each (README.md,
    "Noise").
    """
    workloads = [
        # The batched paths: the sweep's vectorized RK4 and OLS (ROADMAP items
        # 2 and 3) at k=15 (k=30, the paper's size, takes 6 s a call); the paper
        # network grid at n=150, where BA graph generation dominates (the
        # sampler of item 4); one n=4000 epidemic through its peak, where the
        # dense n*n adjacency and the per-tick step dominate (sparse adjacency,
        # item 4). The tick cap keeps the post-peak tail, whose length varies
        # 4x with the seed, from setting the cost. One workload rather than
        # two: the host slows numpy-heavy code by up to 1.6x for minutes at a
        # time, and the sweep and the network are not slowed at the same times.
        Workload("batch", 25,
                 lambda seed, _: [_sweep(3, seed), _network_paper(seed, reps=1),
                                  _network_large(seed, n=500, max_ticks=10)],
                 lambda seed, _: [_sweep(15, seed), _network_paper(seed, reps=1),
                                  _network_large(seed)]),
        # Single runs on Python floats, parsers, CSV formatting and atomic writes.
        Workload("ode_cli", 1, _ode_cycle, _ode_cycle),
    ]
    return {w.name: w for w in workloads}
