"""Command-line front end: simulate, network, sweep, and fit subcommands.

Every subcommand is deterministic for a fixed seed and fixed inputs, and all
artifacts are written atomically. Exit codes: 0 success, 1 usage error,
2 data or schema error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import os
import sys

import numpy as np

from ._fileio import atomic_write_text, csv_columns_text, json_text, resolve_out_dir
from .errors import (ConfigError, DataError, InvalidStateError, NumericalError,
                     ParameterError)
from .fitting import (DEFAULT_HORIZON_DAYS, counterfactual_runs,
                      estimate_params, normalize)
from .ingest import (build_observed, load_populations, parse_event_counts,
                     parse_raw_cases, parse_states_daily)
from .model import CompartmentState, ModelParams, integrate, peak_of
from .network import DEFAULT_GRID_AXIS, DEFAULT_MAX_TICKS, CombinationSummary, run_experiment
from .sweep import (DEFAULT_DT, DEFAULT_K, DEFAULT_SEED, fit_ols, run_sweep,
                    sample_grid, scale_log_peaks)

NETWORK_SEED = 11


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; the contract here reserves 2 for data."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _axis(text: str) -> tuple[float, ...]:
    return tuple(float(part) for part in text.split(","))


def _write(path: str, text: str) -> None:
    atomic_write_text(path, text)
    print(f"wrote {path}")


def cmd_simulate(args) -> int:
    out = resolve_out_dir(args.out)
    if args.model == "exo":
        ie0, ix0, beta_x = args.ie0, args.ix0, args.beta_x
    else:  # classical SIR is Exo-SIR with no exogenous channel
        ie0, ix0, beta_x = args.i0, 0.0, 0.0
    params = ModelParams(beta_x=beta_x, beta_e=args.beta_e, gamma=args.gamma)
    s0 = args.s0 if args.s0 is not None else 1.0 - ie0 - ix0 - args.r0
    try:  # the state comes from the flags, so an invalid one is a usage error
        initial = CompartmentState(s=s0, i_e=ie0, i_x=ix0, r=args.r0)
    except InvalidStateError as exc:
        raise ParameterError(f"invalid initial state: {exc}") from None
    traj = integrate(initial, params, args.dt, args.steps)
    if args.model == "exo":
        _write(os.path.join(out, "trajectory.csv"),
               csv_columns_text(("t", "s", "i_e", "i_x", "r"),
                                (traj.times, traj.s, traj.i_e, traj.i_x, traj.r)))
        peaks = {name: dataclasses.asdict(peak_of(traj, name)) for name in ("i_e", "i_x", "i")}
    else:
        _write(os.path.join(out, "trajectory.csv"),
               csv_columns_text(("t", "s", "i", "r"), (traj.times, traj.s, traj.i_e, traj.r)))
        # i_e, not i: i_e + i_x would turn an initial -0.0 into 0.0
        peaks = {"i": dataclasses.asdict(peak_of(traj, "i_e"))}
    _write(os.path.join(out, "peaks.json"), json_text(peaks))
    return 0


def cmd_network(args) -> int:
    out = resolve_out_dir(args.out)
    summaries = run_experiment(
        base_seed=args.seed, reps=args.reps, n=args.n, m=args.m,
        max_ticks=args.max_ticks, beta_x_axis=args.beta_x,
        beta_e_axis=args.beta_e, gamma_axis=args.gamma)
    names = [field.name for field in dataclasses.fields(CombinationSummary)]
    _write(os.path.join(out, "summary.csv"), csv_columns_text(
        names, [np.array([getattr(c, name) for c in summaries]) for name in names]))
    return 0


def cmd_sweep(args) -> int:
    out = resolve_out_dir(args.out)
    triples = sample_grid(args.k, args.seed)
    peak, tick = run_sweep(triples, args.dt)
    scaled = scale_log_peaks(peak)
    report = fit_ols(triples, scaled)
    _write(os.path.join(out, "samples.csv"),
           csv_columns_text(("beta_x", "beta_e", "gamma", "ie_peak_value", "ie_peak_tick",
                             "log_peak_scaled"), (*triples.T, peak, tick, scaled)))
    _write(os.path.join(out, "regression.json"), json_text(report.to_json_dict()))
    return 0


def _note(report, source: str) -> None:
    for row_number, reason in report.rejects:
        print(f"note: {source} row {row_number} rejected: {reason}", file=sys.stderr)
    for message in report.warnings:
        print(f"warning: {source}: {message}", file=sys.stderr)


def _parse_file(path: str, parser, *args):
    """Run parser on the UTF-8 text file at path; undecodable bytes are a data error."""
    try:
        with open(path, encoding="utf-8-sig", newline="") as fh:
            return parser(fh, *args)
    except UnicodeDecodeError as exc:
        raise DataError(f"{path} is not UTF-8 text: {exc}") from None


def cmd_fit(args) -> int:
    if args.horizon < 1:
        raise ParameterError(f"--horizon must be >= 1, got {args.horizon}")
    out = resolve_out_dir(args.out)
    state = args.state.lower()
    populations = load_populations(args.pop_config)
    if state not in populations:
        raise ConfigError(f"state {state!r} missing from population config {args.pop_config}")
    imported, raw_report = _parse_file(args.raw, parse_raw_cases, state)
    _note(raw_report, "raw cases")
    daily, daily_report = _parse_file(args.daily, parse_states_daily, state)
    _note(daily_report, "daily series")
    events = {}
    if args.events:
        events, event_report = _parse_file(args.events, parse_event_counts)
        _note(event_report, "events")
    series, build_report = build_observed(imported, daily, events, state,
                                          populations[state])
    _note(build_report, "observed series")
    norm = normalize(series)
    if not np.any(norm.di_x):
        print(f"warning: {state}: no exogenous cases in the series; "
              "beta_x fixed at 0", file=sys.stderr)
    fitted = estimate_params(norm)
    for name, diagnostic in fitted.diagnostics.items():
        if diagnostic.clamped:
            print(f"warning: {state}: {name} slope {diagnostic.raw!r} is negative, "
                  "clamped to 0", file=sys.stderr)
    if fitted.initial.i_e == 0.0:
        print(f"warning: {state}: no endogenous cases on the first day "
              f"({series.dates[0].isoformat()}); the run without i_x stays at 0",
              file=sys.stderr)
    with_traj, without_traj, comparison = counterfactual_runs(fitted, args.horizon)
    _write(os.path.join(out, "comparison.json"), json_text({
        "state": state,
        "fitted": dataclasses.asdict(fitted.params),
        "with_ix": {"peak_value": comparison.with_ix.peak_value,
                    "peak_tick": comparison.with_ix.peak_tick},
        "without_ix": {"peak_value": comparison.without_ix.peak_value,
                       "peak_tick": comparison.without_ix.peak_tick},
    }))
    for name, traj in (("with_ix", with_traj), ("without_ix", without_traj)):
        _write(os.path.join(out, f"{name}.csv"),
               csv_columns_text(("t", "i_e"), (traj.times, traj.i_e)))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="exosir",
                     description="Exo-SIR epidemic model: simulation, network runs, "
                                 "parameter sweeps, and data fitting.")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="integrate the ODE model and export the trajectory")
    sim.add_argument("--model", choices=("exo", "sir"), default="exo",
                     help="exo for the two-channel model, sir for the classical reduction")
    sim.add_argument("--beta-x", type=float, default=0.0,
                     help="exogenous infection rate (exo model only)")
    sim.add_argument("--beta-e", type=float, default=0.3,
                     help="endogenous transmission rate (beta for --model sir)")
    sim.add_argument("--gamma", type=float, default=0.1, help="recovery rate")
    sim.add_argument("--dt", type=float, default=0.1, help="integration step")
    sim.add_argument("--steps", type=int, default=500, help="number of RK4 steps")
    sim.add_argument("--s0", type=float, default=None,
                     help="initial susceptible fraction (default: 1 minus the others)")
    sim.add_argument("--ie0", type=float, default=0.01,
                     help="initial endogenous infected fraction (exo model)")
    sim.add_argument("--ix0", type=float, default=0.0,
                     help="initial exogenous infected fraction (exo model)")
    sim.add_argument("--i0", type=float, default=0.01,
                     help="initial infected fraction (sir model)")
    sim.add_argument("--r0", type=float, default=0.0, help="initial recovered fraction")
    sim.add_argument("--out", default=None, help="output directory")

    net = sub.add_parser("network", help="agent-based runs on generated contact graphs")
    net.add_argument("--beta-x", type=_axis, default=DEFAULT_GRID_AXIS,
                     help="comma-separated per-tick exogenous infection probabilities")
    net.add_argument("--beta-e", type=_axis, default=DEFAULT_GRID_AXIS,
                     help="comma-separated per-contact transmission probabilities")
    net.add_argument("--gamma", type=_axis, default=DEFAULT_GRID_AXIS,
                     help="comma-separated per-tick recovery probabilities")
    net.add_argument("--reps", type=int, default=50, help="repetitions per combination")
    net.add_argument("--n", type=int, default=150, help="nodes in the contact graph")
    net.add_argument("--m", type=int, default=1, help="edges attached per arriving node")
    net.add_argument("--max-ticks", type=int, default=DEFAULT_MAX_TICKS,
                     help="tick budget per run")
    net.add_argument("--seed", type=int, default=NETWORK_SEED, help="base seed")
    net.add_argument("--out", default=None, help="output directory")

    swp = sub.add_parser("sweep", help="random-grid ODE sweep and peak regression")
    swp.add_argument("--k", type=int, default=DEFAULT_K, help="draws per parameter axis")
    swp.add_argument("--seed", type=int, default=DEFAULT_SEED, help="axis sampling seed")
    swp.add_argument("--dt", type=float, default=DEFAULT_DT, help="integration step")
    swp.add_argument("--out", default=None, help="output directory")

    fit = sub.add_parser("fit", help="estimate rates from observed data and compare "
                                     "peaks with and without the exogenous channel")
    fit.add_argument("--raw", required=True, help="patient-level raw cases CSV")
    fit.add_argument("--daily", required=True, help="per-state daily status CSV")
    fit.add_argument("--events", default=None, help="per-day event-linked counts CSV")
    fit.add_argument("--state", required=True, help="state code to fit (e.g. kl, rj, tn)")
    fit.add_argument("--pop-config", required=True, help="JSON mapping state code to population")
    fit.add_argument("--horizon", type=int, default=DEFAULT_HORIZON_DAYS,
                     help="initial counterfactual horizon in days")
    fit.add_argument("--out", default=None, help="output directory")
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser main() reuses for the life of the process.

    argparse keeps no state between parse_args calls, and _Parser.error and
    --help look up sys.stderr and sys.stdout when they run, so one parser
    serves every call; building it costs more than parsing a command.
    """
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    # looked up per call, so the kept parser pins no command function
    command = {"simulate": cmd_simulate, "network": cmd_network, "sweep": cmd_sweep,
               "fit": cmd_fit}[args.command]
    try:
        return command(args)
    except ParameterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 1
    except (DataError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
