"""End-to-end command behavior: exit codes, artifacts, and determinism."""

import contextlib
import datetime as dt
import hashlib
import io
import json
import os
import stat
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exosir import cli
from exosir._fileio import csv_columns_text
from exosir.cli import main
from exosir.fitting import NormalizedSeries, estimate_params

DATA = Path(__file__).resolve().parent.parent / "data"


def _read_csv(path):
    lines = path.read_text().splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def test_simulate_writes_trajectory_and_peaks(tmp_path, capsys):
    assert main(["simulate", "--steps", "50", "--out", str(tmp_path)]) == 0
    header, rows = _read_csv(tmp_path / "trajectory.csv")
    assert header == ["t", "s", "i_e", "i_x", "r"]
    assert len(rows) == 51
    peaks = json.loads((tmp_path / "peaks.json").read_text())
    assert sorted(peaks) == ["i", "i_e", "i_x"]
    for stats in peaks.values():
        assert sorted(stats) == ["peak_tick", "peak_time", "peak_value"]
    out = capsys.readouterr().out
    assert "trajectory.csv" in out and "peaks.json" in out


def test_simulate_sir_columns_match_exo_reduction(tmp_path):
    exo_dir, sir_dir = tmp_path / "exo", tmp_path / "sir"
    args = ["--beta-e", "0.35", "--gamma", "0.12", "--dt", "0.25", "--steps", "200"]
    assert main(["simulate", "--model", "exo", "--beta-x", "0", "--ie0", "0.01",
                 "--ix0", "0", *args, "--out", str(exo_dir)]) == 0
    assert main(["simulate", "--model", "sir", "--i0", "0.01",
                 *args, "--out", str(sir_dir)]) == 0
    _, exo_rows = _read_csv(exo_dir / "trajectory.csv")
    _, sir_rows = _read_csv(sir_dir / "trajectory.csv")
    for exo, sir in zip(exo_rows, sir_rows):
        assert exo[0] == sir[0]  # t
        assert exo[1] == sir[1]  # s, textually identical
        assert exo[2] == sir[2]  # i_e vs i
        assert exo[4] == sir[3]  # r


# sha256 of the artifacts as first written, before the integrator was refactored.
# Both come from Python float arithmetic alone (no BLAS, no numpy transcendental
# functions), so they hold on any IEEE-754 machine; a refactor must keep them.
GOLDEN_SIMULATE = {
    "exo": (["--beta-x", "0.002", "--beta-e", "0.35", "--gamma", "0.1",
             "--ie0", "1e-4", "--ix0", "1e-4"],
            {"trajectory.csv": "94c97479c3f4cf15c391c36506cfd70a3da6b82f45a8d3b5e9cc213cf7ad4ff4",
             "peaks.json": "969af61c1371a5d42a219c2016d2f2364aa1a1d13bafd597103028b9571c8934"}),
    "sir": (["--model", "sir", "--beta-e", "0.35", "--gamma", "0.1", "--i0", "0.01"],
            {"trajectory.csv": "b557233bd4d7ea58f5bee62274cbb4b3e33c2ff315d1518c39d0a44c23b65070",
             "peaks.json": "0ee1573942567e2c75dc6898ecbab5fc4453b6950458fa08c7ffbff97146c9ec"}),
}


@pytest.mark.parametrize("model", sorted(GOLDEN_SIMULATE))
def test_simulate_artifacts_match_golden_digests(tmp_path, model):
    flags, digests = GOLDEN_SIMULATE[model]
    assert main(["simulate", *flags, "--dt", "0.1", "--steps", "2000",
                 "--out", str(tmp_path)]) == 0
    for name, digest in digests.items():
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest, name


# sha256 of summary.csv as written by the per-rep network loop, before the
# grid was batched: the two network commands of the benchmark's `batch`
# workload at seeds 25 and 26, the paper default, m=2 and m=3 grids and a run
# capped by --max-ticks. The batched engine must keep every one of them.
_GRID = ["--beta-x", "0.1,0.5,0.9", "--beta-e", "0.1,0.5,0.9", "--gamma", "0.1,0.5,0.9"]
_LARGE = ["--n", "4000", "--m", "2", "--reps", "1", "--max-ticks", "30",
          "--beta-x", "0.002", "--beta-e", "0.3", "--gamma", "0.1"]
GOLDEN_NETWORK = {
    "grid-25": ([*_GRID, "--n", "150", "--m", "1", "--reps", "1", "--seed", "25"],
                "47a0e1629aebc8209339c47790a3dd4695259c12b944289531107dad7619fb53"),
    "grid-26": ([*_GRID, "--n", "150", "--m", "1", "--reps", "1", "--seed", "26"],
                "c1fb69a0ffc1190a1ff6f5aa315c7a25b24b70a1a14a853d65bb548f6b590f6a"),
    "large-25": ([*_LARGE, "--seed", "25"],
                 "898a6801c0ec4fa790114ac107e56ebbe9b59ed3dbf461d361ed69aa947a8223"),
    "large-26": ([*_LARGE, "--seed", "26"],
                 "5ee8ed7c7996b7f45caf118803aa95d9151aee6bb2bd727814d578961ee54534"),
    "default": (["--seed", "11", "--reps", "50"],
                "40a258d85b570a8d4c25f30c9ad44e34f9ceaaa480adcb3b6f9d57a2988962f4"),
    "m2": (["--n", "40", "--m", "2", "--reps", "3", "--max-ticks", "300", "--seed", "7"],
           "16145399f6f9f87263c25600634899d3b69e7d701ada874c42ebca969c492c86"),
    "m3": (["--n", "30", "--m", "3", "--reps", "2", "--max-ticks", "300", "--seed", "8"],
           "db7cc2bbeb48de090a140a4c5b9907bcc1dd39ed612e581f89b885b6446a1dbe"),
    "capped": (["--n", "60", "--m", "1", "--reps", "4", "--max-ticks", "5", "--seed", "9"],
               "544451d16ca0df1fe326ba3ad6ef1c3da715649511ebd4f2203f6a981d9604a6"),
}


@pytest.mark.parametrize("case", sorted(GOLDEN_NETWORK))
def test_network_summary_matches_golden_digest(tmp_path, case):
    flags, digest = GOLDEN_NETWORK[case]
    assert main(["network", *flags, "--out", str(tmp_path)]) == 0
    assert hashlib.sha256((tmp_path / "summary.csv").read_bytes()).hexdigest() == digest


# sha256 of samples.csv and regression.json for the benchmark's sweep command at
# seeds 25 and 26, as written before the sweep's batch was stacked into one array and
# its rate columns were formatted once per distinct value. samples.csv comes from IEEE
# arithmetic and repr alone; regression.json also from the OLS, so, like GOLDEN_FIT, it
# assumes numpy's float64 linear algebra rounds as on x86-64.
GOLDEN_SWEEP = {
    25: ("57d1324d26590463bfb80a57793cdfbc0b692c82a4874044ed5751cc0cd463ca",
         "b6ea15f7570c21d7b4e2e09d75c5280d14f98309a2a3e6fc527375b174239fa0"),
    26: ("4cc350b25b2d4e95f3dab31c8392756e8c9040642de33056d511f247cfbe699b",
         "dde210ee25141025aaaa4303f7519a7fd541e3eaa3b283b3ee8ae6d1f716f062"),
}


@pytest.mark.parametrize("seed", sorted(GOLDEN_SWEEP))
def test_sweep_artifacts_match_golden_digests(tmp_path, seed):
    assert main(["sweep", "--k", "15", "--seed", str(seed), "--out", str(tmp_path)]) == 0
    for name, digest in zip(("samples.csv", "regression.json"), GOLDEN_SWEEP[seed]):
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest, name


def test_artifacts_get_the_mode_open_gives(tmp_path):
    old = os.umask(0o022)
    try:
        assert main(["simulate", "--steps", "5", "--out", str(tmp_path)]) == 0
        for name in ("trajectory.csv", "peaks.json"):
            assert stat.S_IMODE((tmp_path / name).stat().st_mode) == 0o644, name
        # open(path, "w") keeps an existing file's mode and gives a new file the umask's
        (tmp_path / "trajectory.csv").chmod(0o600)
        (tmp_path / "peaks.json").unlink()
        assert main(["simulate", "--steps", "5", "--out", str(tmp_path)]) == 0
    finally:
        os.umask(old)
    assert stat.S_IMODE((tmp_path / "trajectory.csv").stat().st_mode) == 0o600
    assert stat.S_IMODE((tmp_path / "peaks.json").stat().st_mode) == 0o644


def test_artifacts_are_written_without_touching_the_umask(tmp_path, monkeypatch):
    # the umask is process-wide: setting it, even briefly, would unmask files that other
    # threads create meanwhile, so a write must leave it alone and let the kernel apply it
    def umask(mask):
        raise AssertionError("os.umask called")

    old = os.umask(0o022)
    try:
        with monkeypatch.context() as patch:
            patch.setattr(os, "umask", umask)
            assert main(["simulate", "--steps", "5", "--out", str(tmp_path)]) == 0
    finally:
        os.umask(old)
    assert sorted(path.name for path in tmp_path.iterdir()) == ["peaks.json", "trajectory.csv"]
    for name in ("trajectory.csv", "peaks.json"):
        assert stat.S_IMODE((tmp_path / name).stat().st_mode) == 0o644, name


def test_artifact_written_through_a_symlink_stays_a_link(tmp_path):
    # open(path, "w") writes through a link to its target; the atomic write does the same
    target = tmp_path / "target.csv"
    target.write_text("old\n")
    (tmp_path / "trajectory.csv").symlink_to(target)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["simulate", "--steps", "5", "--out", str(tmp_path)]) == 0
    link = tmp_path / "trajectory.csv"
    assert link.is_symlink() and link.resolve() == target.resolve()
    assert target.read_text().startswith("t,s,i_e,i_x,r\n0.0,")
    assert f"wrote {link}\n" in out.getvalue()
    assert sorted(path.name for path in tmp_path.iterdir()) == [
        "peaks.json", "target.csv", "trajectory.csv"]
    # a link loop is an error, as in open(), and the links stay as they were
    target.unlink()
    target.symlink_to(link)
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["simulate", "--steps", "5", "--out", str(tmp_path)]) == 2
    assert link.is_symlink() and target.is_symlink()


def test_artifacts_written_through_a_symlinked_out_dir(tmp_path):
    # --out may name a link to a directory: the artifacts land in the real directory and
    # the link stays a link, with no temp file left behind
    real = tmp_path / "real"
    real.mkdir()
    (tmp_path / "out").symlink_to(real, target_is_directory=True)
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["simulate", "--steps", "5", "--out", str(tmp_path / "out")]) == 0
        assert main(["simulate", "--steps", "6", "--out", str(tmp_path / "out")]) == 0
    assert (tmp_path / "out").is_symlink()
    assert sorted(path.name for path in real.iterdir()) == ["peaks.json", "trajectory.csv"]
    assert len((real / "trajectory.csv").read_text().splitlines()) == 8
    assert sorted(path.name for path in tmp_path.iterdir()) == ["out", "real"]


def _float_bits(rng, size, low_exponent=0, high_exponent=2048):
    """Floats with random sign and mantissa bits and a biased exponent in [low, high)."""
    bits = rng.integers(0, 2**64 - 1, size=size, dtype=np.uint64, endpoint=True)
    bits &= np.uint64((1 << 52) - 1) | np.uint64(1 << 63)
    bits |= rng.integers(low_exponent, high_exponent, size=size).astype(np.uint64) << np.uint64(52)
    return bits.view(np.float64)


def test_csv_values_are_written_as_repr_writes_them():
    # CSV values are formatted by orjson, and by repr where the two notations differ;
    # plain repr of every value is the reference
    rng = np.random.default_rng(20)
    edges = [x for e in (1e-5, 1e-4, 1e16) for sign in (1.0, -1.0)
             for x in (sign * np.nextafter(e, 0), sign * e, sign * np.nextafter(e, np.inf))]
    floats = np.concatenate([
        _float_bits(rng, 250_000),  # every exponent, subnormals and NaN payloads
        _float_bits(rng, 750_000, 1003, 1083),  # 2**-20 to 2**60: both notations
        np.array([*edges, 0.0, -0.0, 5e-324, -5e-324, np.nan, np.inf, -np.inf]),
    ])
    ints = np.concatenate([
        rng.integers(-2**63, 2**63 - 1, size=20_000, dtype=np.int64, endpoint=True),
        rng.integers(-10**17, 10**17, size=20_000, dtype=np.int64),
        np.array([0, 10**16 - 1, 10**16, -10**16, 2**63 - 1, -2**63], dtype=np.int64),
    ])
    # strided views too, as the sweep passes the rows of its (runs, 3) rates transposed
    table = floats[:600_000].reshape(-1, 3)
    for column in (floats, ints, table.T[1], ints[::3], ints[:30_000].reshape(-1, 2).T[0]):
        header, *rows = csv_columns_text(("x",), (column,)).splitlines()
        assert header == "x"
        assert rows == [repr(x) for x in column.tolist()]
    assert not table.T[1].flags.c_contiguous
    assert csv_columns_text(("a", "b"), (np.array([]), np.array([], dtype=np.int64))) == "a,b\n"


def test_usage_errors_exit_1(tmp_path):
    assert main([]) == 1
    assert main(["frobnicate"]) == 1
    assert main(["simulate", "--steps", "many"]) == 1
    assert main(["fit", "--state", "kl"]) == 1  # missing required flags


def test_help_exits_0(capsys):
    assert main(["--help"]) == 0
    assert "simulate" in capsys.readouterr().out


def test_main_builds_one_parser_per_process(tmp_path, monkeypatch):
    real = cli.build_parser
    assert real() is not real()  # the public builder still returns a new parser
    calls = []

    def counted():
        calls.append(1)
        return real()

    cli._parser.cache_clear()
    monkeypatch.setattr(cli, "build_parser", counted)
    try:
        for _ in range(2):
            assert _exit_code(["simulate", "--steps", "5", "--out", str(tmp_path)]) == 0
            assert _exit_code(["frobnicate"]) == 1
            assert _exit_code(["--help"]) == 0
        assert len(calls) == 1
    finally:
        cli._parser.cache_clear()


def test_command_functions_are_looked_up_per_call(tmp_path, monkeypatch):
    assert _exit_code(["simulate", "--steps", "5", "--out", str(tmp_path)]) == 0
    monkeypatch.setattr(cli, "cmd_fit", lambda args: 42)
    assert main(["fit", "--raw", "r", "--daily", "d", "--state", "kl",
                 "--pop-config", "p"]) == 42


_SEQUENCE = {
    "no-command": [],
    "unknown": ["frobnicate"],
    "bad-int": ["simulate", "--steps", "many"],
    "help": ["--help"],
    "fit-help": ["fit", "--help"],
    "fit-missing": ["fit", "--state", "kl"],
    "simulate-exo": ["simulate", "--beta-x", "0.002", "--steps", "300"],
    "simulate-sir": ["simulate", "--model", "sir", "--steps", "300"],
    "network": ["network", "--beta-x", "0.5", "--beta-e", "0.5,0.9", "--gamma", "0.5",
                "--reps", "2", "--n", "30"],
    "sweep": ["sweep", "--k", "2"],
    "fit-tn": ["fit", "--raw", str(DATA / "raw_cases.csv"),
               "--daily", str(DATA / "states_daily.csv"),
               "--events", str(DATA / "events_tn.csv"),
               "--state", "tn", "--pop-config", str(DATA / "populations.json")],
    "fit-horizon": ["fit", "--raw", str(DATA / "raw_cases.csv"),
                    "--daily", str(DATA / "states_daily.csv"), "--state", "kl",
                    "--pop-config", str(DATA / "populations.json"), "--horizon", "0"],
}


def _run_sequence(base: Path) -> list:
    """(label, exit code, stdout, stderr, artifact bytes) for every call of _SEQUENCE."""
    results = []
    for label, argv in _SEQUENCE.items():
        out = base / label
        if argv and argv[0] in ("simulate", "network", "sweep", "fit") and "--help" not in argv:
            argv = [*argv, "--out", str(out)]
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(argv)
        artifacts = {p.name: p.read_bytes() for p in sorted(out.iterdir())} if out.exists() else {}
        results.append((label, code, stdout.getvalue().replace(str(base), "<out>"),
                        stderr.getvalue(), artifacts))
    return results


def test_kept_parser_matches_fresh_parsers(tmp_path, monkeypatch):
    kept = [_run_sequence(tmp_path / "kept-1"), _run_sequence(tmp_path / "kept-2")]
    monkeypatch.setattr(cli, "_parser", cli.build_parser)  # a new parser for every call
    fresh = _run_sequence(tmp_path / "fresh")
    assert kept[0] == fresh and kept[1] == fresh
    codes = {label: code for label, code, *_ in fresh}
    assert codes == {"no-command": 1, "unknown": 1, "bad-int": 1, "help": 0, "fit-help": 0,
                     "fit-missing": 1, "simulate-exo": 0, "simulate-sir": 0, "network": 0,
                     "sweep": 0, "fit-tn": 0, "fit-horizon": 1}


def test_parameter_error_exits_1(tmp_path, capsys):
    code = main(["simulate", "--gamma", "-1", "--out", str(tmp_path)])
    assert code == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("flags", [
    ["--ie0", "-0.5"],
    ["--ie0", "0.5", "--ix0", "0.6"],  # every flag in range, the implied s0 is not
    ["--model", "sir", "--i0", "1.5"],
])
def test_invalid_initial_state_exits_1(tmp_path, capsys, flags):
    # the state comes from the flags, so it is a usage error, not a numerical one
    code = main(["simulate", *flags, "--out", str(tmp_path)])
    assert code == 1
    assert "invalid initial state" in capsys.readouterr().err


@pytest.mark.parametrize("model, seed_flag", [("exo", "--ie0"), ("sir", "--i0")],
                         ids=["exo", "sir"])
def test_simulate_reports_a_bad_rate_before_a_bad_state(tmp_path, capsys, model, seed_flag):
    # both models take one path, so they check the rates first and the initial state second
    code = main(["simulate", "--model", model, "--beta-e=-1", seed_flag, "1.5",
                 "--s0", "0.5", "--out", str(tmp_path)])
    assert code == 1
    assert capsys.readouterr().err == "error: beta_e must be nonnegative, got -1.0\n"


def test_simulate_sir_keeps_the_sign_of_a_zero_seed(tmp_path):
    # the "i" peak is read from i_e alone: i_e + i_x would turn -0.0 into 0.0
    assert main(["simulate", "--model", "sir", "--i0=-0.0", "--s0", "1", "--steps", "3",
                 "--out", str(tmp_path)]) == 0
    peaks = (tmp_path / "peaks.json").read_text()
    assert '"peak_value": -0.0,' in peaks
    assert (tmp_path / "trajectory.csv").read_text().splitlines()[1] == "0.0,1.0,-0.0,0.0"


@pytest.mark.parametrize("argv", [
    ["simulate", "--dt", "nan"],
    ["simulate", "--model", "sir", "--dt", "inf"],
    ["sweep", "--k", "2", "--dt", "nan"],
])
def test_nonfinite_dt_exits_1(tmp_path, capsys, argv):
    assert main([*argv, "--out", str(tmp_path)]) == 1
    assert "dt must be finite and positive" in capsys.readouterr().err


def test_numerical_error_exits_3(tmp_path, capsys):
    # single runs and the sweep batch both report plain floats, not numpy reprs
    for argv in (["simulate", "--beta-e", "80", "--dt", "1", "--steps", "10"],
                 ["sweep", "--k", "2", "--dt", "50"]):
        assert main([*argv, "--out", str(tmp_path)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error:") and "np." not in err
    assert "compartment overshoot 327272257792.60144 (step 1)" in err


def test_sweep_overflow_prints_one_error_line(tmp_path):
    # the step overflows to inf and NaN; the batch check reports it, numpy stays quiet
    proc = subprocess.run([sys.executable, "-m", "exosir.cli", "sweep", "--k", "3",
                           "--dt", "1e200", "--out", str(tmp_path)],
                          capture_output=True, text=True)
    assert proc.returncode == 3
    assert proc.stderr.splitlines() == ["error: non-finite compartment in sweep batch (step 1)"]


@pytest.mark.parametrize("argv", [
    ["sweep", "--k", "100000"],  # MemoryError: 7 PiB
    ["sweep", "--k", "3000000"],  # more elements than an array can index
    ["simulate", "--steps", "1000000000000000"],  # MemoryError: 7 PiB
    ["simulate", "--steps", "2000000000000000000"],  # more bytes than an array can index
    ["network", "--n", "1000000000000000", "--reps", "1"],  # MemoryError: 7 PiB
    ["network", "--reps", "1000000000000000"],  # MemoryError: 767 PiB of peaks
])
def test_oversized_request_exits_1(tmp_path, capsys, argv):
    # 7 PiB or more: far beyond what a 64-bit host can map, so each fails at once
    assert main([*argv, "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error:")


def test_network_clique_fails_at_its_first_allocation(tmp_path):
    # m = 100000 asks for a clique of 10^10 directed edges; built as arrays, the
    # first one fails at once under the cap instead of growing a list of tuples
    code = ("import resource, sys; cap = 1200 * 2**20; "
            "resource.setrlimit(resource.RLIMIT_AS, (cap, cap)); "
            "from exosir.cli import main; "
            f"sys.exit(main(['network', '--m', '100000', '--n', '100001', '--reps', '1', "
            f"'--out', {str(tmp_path)!r}]))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 1
    assert len(proc.stderr.splitlines()) == 1 and proc.stderr.startswith("error:")
    assert "Unable to allocate" in proc.stderr  # numpy's refusal, not a list out of memory
    assert not (tmp_path / "summary.csv").exists()


def test_missing_input_exits_2(tmp_path, capsys):
    code = main(["fit", "--raw", str(tmp_path / "nope.csv"),
                 "--daily", str(DATA / "states_daily.csv"),
                 "--state", "kl", "--pop-config", str(DATA / "populations.json"),
                 "--out", str(tmp_path)])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_unknown_state_exits_2(tmp_path, capsys):
    code = main(["fit", "--raw", str(DATA / "raw_cases.csv"),
                 "--daily", str(DATA / "states_daily.csv"),
                 "--state", "xx", "--pop-config", str(DATA / "populations.json"),
                 "--out", str(tmp_path)])
    assert code == 2
    assert "population config" in capsys.readouterr().err


def test_out_dir_env_and_flag_precedence(tmp_path, monkeypatch):
    env_dir = tmp_path / "from_env"
    flag_dir = tmp_path / "from_flag"
    env_dir.mkdir()
    flag_dir.mkdir()
    monkeypatch.setenv("EXOSIR_OUT_DIR", str(env_dir))
    assert main(["simulate", "--steps", "5"]) == 0
    assert (env_dir / "trajectory.csv").exists()
    assert main(["simulate", "--steps", "5", "--out", str(flag_dir)]) == 0
    assert (flag_dir / "trajectory.csv").exists()


def test_network_summary_and_determinism(tmp_path):
    dirs = [tmp_path / "a", tmp_path / "b"]
    args = ["network", "--beta-x", "0.5", "--beta-e", "0.5,0.9", "--gamma", "0.5",
            "--reps", "2", "--n", "30", "--seed", "11"]
    for d in dirs:
        assert main([*args, "--out", str(d)]) == 0
    header, rows = _read_csv(dirs[0] / "summary.csv")
    assert header == ["beta_x", "beta_e", "gamma", "mean_endo_peak_value",
                      "mean_endo_peak_tick", "mean_exo_peak_value",
                      "mean_exo_peak_tick", "reps"]
    assert len(rows) == 2
    assert all(row[-1] == "2" for row in rows)
    assert (dirs[0] / "summary.csv").read_bytes() == (dirs[1] / "summary.csv").read_bytes()


@pytest.mark.parametrize("flags", [
    ["--beta-x", "2", "--beta-e", "1.5", "--gamma", "0.5"],
    ["--beta-x", "0.1", "--beta-e", "0.5,1.0001", "--gamma", "0.5"],
])
def test_network_probabilities_outside_unit_interval_exit_1(tmp_path, capsys, flags):
    code = main(["network", *flags, "--reps", "1", "--n", "10", "--out", str(tmp_path)])
    assert code == 1
    assert "[0, 1]" in capsys.readouterr().err
    assert not (tmp_path / "summary.csv").exists()


@pytest.mark.parametrize("axis", ["", "0.1,,0.5"])
def test_network_empty_axis_entry_exits_1(tmp_path, capsys, axis):
    code = main(["network", "--beta-x", axis, "--reps", "1", "--n", "10", "--out", str(tmp_path)])
    assert code == 1
    assert "error: argument --beta-x: invalid" in capsys.readouterr().err
    assert not (tmp_path / "summary.csv").exists()


def test_sweep_artifacts_and_determinism(tmp_path):
    dirs = [tmp_path / "a", tmp_path / "b"]
    for d in dirs:
        assert main(["sweep", "--k", "2", "--out", str(d)]) == 0
    header, rows = _read_csv(dirs[0] / "samples.csv")
    assert header == ["beta_x", "beta_e", "gamma", "ie_peak_value", "ie_peak_tick",
                      "log_peak_scaled"]
    assert len(rows) == 8
    report = json.loads((dirs[0] / "regression.json").read_text())
    assert sorted(report) == ["adj_r_squared", "ci_95", "coefficients", "n",
                              "p_values", "std_errors", "t_stats"]
    assert report["n"] == 8
    assert (dirs[0] / "samples.csv").read_bytes() == (dirs[1] / "samples.csv").read_bytes()
    assert (dirs[0] / "regression.json").read_bytes() == (dirs[1] / "regression.json").read_bytes()


def test_fit_on_bundled_data(tmp_path, capsys):
    code = main(["fit", "--raw", str(DATA / "raw_cases.csv"),
                 "--daily", str(DATA / "states_daily.csv"),
                 "--events", str(DATA / "events_tn.csv"),
                 "--state", "tn", "--pop-config", str(DATA / "populations.json"),
                 "--out", str(tmp_path)])
    assert code == 0
    captured = capsys.readouterr()
    assert "rejected" in captured.err  # the raw file carries malformed rows
    report = json.loads((tmp_path / "comparison.json").read_text())
    assert report["state"] == "tn"
    assert set(report["fitted"]) == {"beta_x", "beta_e", "gamma"}
    assert report["fitted"]["beta_e"] > 0 and report["fitted"]["gamma"] > 0
    assert report["fitted"]["beta_x"] > 0
    for key in ("with_ix", "without_ix"):
        assert set(report[key]) == {"peak_value", "peak_tick"}
    header, rows = _read_csv(tmp_path / "with_ix.csv")
    assert header == ["t", "i_e"] and rows
    assert (tmp_path / "without_ix.csv").exists()


@pytest.mark.parametrize("horizon", ["0", "-3"])
def test_fit_horizon_below_one_names_the_flag(tmp_path, capsys, horizon):
    code = main(["fit", "--raw", str(DATA / "raw_cases.csv"),
                 "--daily", str(DATA / "states_daily.csv"),
                 "--state", "kl", "--pop-config", str(DATA / "populations.json"),
                 f"--horizon={horizon}", "--out", str(tmp_path)])
    assert code == 1
    assert capsys.readouterr().err == f"error: --horizon must be >= 1, got {horizon}\n"
    assert not list(tmp_path.iterdir())


def test_fit_warns_once_per_clamped_rate(tmp_path, capsys, monkeypatch):
    # counts read from files are never negative, so no file reaches a negative
    # slope; the series the fit works on is replaced by one whose i_e falls
    scale = 2.0 ** -10
    i_e = np.arange(1, 7) * scale
    zeros = np.zeros(6)
    crafted = NormalizedSeries(
        state="kl", dates=tuple(dt.date(2020, 3, 1) + dt.timedelta(days=k) for k in range(6)),
        di_e=np.full(6, -scale), di_x=np.full(6, scale), dr=zeros,
        s=1.0 - i_e, i_e=i_e, i_x=zeros, r=zeros, population_n=1_000_000)
    diagnostics = estimate_params(crafted).diagnostics
    assert [name for name, d in diagnostics.items() if d.clamped] == ["beta_e"]
    monkeypatch.setattr(cli, "normalize", lambda series: crafted)
    code = main(["fit", "--raw", str(DATA / "raw_cases.csv"),
                 "--daily", str(DATA / "states_daily.csv"),
                 "--state", "kl", "--pop-config", str(DATA / "populations.json"),
                 "--out", str(tmp_path)])
    assert code == 0
    warned = [line for line in capsys.readouterr().err.splitlines() if "clamped" in line]
    assert warned == [f"warning: kl: beta_e slope {diagnostics['beta_e'].raw!r} "
                      "is negative, clamped to 0"]
    assert json.loads((tmp_path / "comparison.json").read_text())["fitted"]["beta_e"] == 0.0


def _bundled_fit_inputs(state: str) -> list[str]:
    events = ["--events", str(DATA / "events_tn.csv")] if state == "tn" else []
    return ["--raw", str(DATA / "raw_cases.csv"), "--daily", str(DATA / "states_daily.csv"),
            *events, "--state", state, "--pop-config", str(DATA / "populations.json")]


@pytest.mark.parametrize("state", ["kl", "rj", "tn"])
def test_bundled_fits_clamp_nothing(tmp_path, capsys, state):
    assert main(["fit", *_bundled_fit_inputs(state), "--out", str(tmp_path)]) == 0
    assert "clamped" not in capsys.readouterr().err


def _crafted_fit_inputs(directory: Path) -> list[str]:
    """kl input that reaches every observed-series warning: two gap days
    (03-05, 03-07), a missing status, events before and after the daily range,
    a repeated event date whose sum exceeds confirmed, and rejected rows."""
    (directory / "raw.csv").write_text(
        "DateAnnounced,DetectedState,TypeOfTransmission\n"
        "2020-03-03,Kerala,Imported\n2020-03-03,Kerala,Imported\n2020-03-04,KL,Imported\n"
        "2020-03-06,Kerala,Local\nbad-date,Kerala,Imported\n"
        "2020-03-08,kerala,Imported\n2020-03-09,Kerala,Imported\n")
    lines = ["date,status,kl"]
    for day, confirmed, recovered in ((3, 6, 0), (4, 5, 1), (6, 7, 2), (8, 9, 3), (9, 8, 4),
                                      (10, 10, 5)):
        lines += [f"2020-03-{day:02d},Confirmed,{confirmed}",
                  f"2020-03-{day:02d},Recovered,{recovered}"]
        if day != 8:
            lines.append(f"2020-03-{day:02d},Deceased,0")
    (directory / "daily.csv").write_text("\n".join(lines) + "\n")
    (directory / "events.csv").write_text(
        "date,count\n2020-03-12,2\n2020-03-04,3\n2020-03-01,1\n2020-03-xx,1\n"
        "2020-03-04,4\n2020-03-06,9\n")
    (directory / "pop.json").write_text('{"kl": 10000}')
    return ["--raw", str(directory / "raw.csv"), "--daily", str(directory / "daily.csv"),
            "--events", str(directory / "events.csv"), "--state", "kl",
            "--pop-config", str(directory / "pop.json")]


_BUNDLED_NOTE = ["note: raw cases row 56 rejected: unparseable date '31/02/2020'"]
# sha256 of comparison.json, with_ix.csv and without_ix.csv, as written
# before build_observed stopped merging the event counts into a second series,
# and the exact stderr lines. The fitted slopes go through np.dot, so the
# digests assume numpy's float64 dot product rounds as on x86-64.
GOLDEN_FIT = {
    "tn": (_BUNDLED_NOTE, (
        "5f3221123f86c2a23c0e093aff7674af624da79aeb4c7fa098cb068daf4143ba",
        "87946a63e4bc24c0e7a01d4bce8c9bf5b5c8706fd0fe768fbef0f0c50d5e1dd1",
        "d57db75068c58ebbd7b25e7f02c06b3aee2216bd37b41b775a3545229df42777")),
    "kl": (_BUNDLED_NOTE, (
        "14352c2d7d75c8b6137a08f12a784d0b36b2bc339a6f0c65337ce51c0ca4742a",
        "b6c38584ad46f5fc8291f1bc6919c117ed74019a8e8b3710fc80624fc2a37065",
        "06ad028cf0a41c52a3d217e0f0bb4c47db5b2e5a3734430908d8f86a460d05e1")),
    "rj": (_BUNDLED_NOTE, (
        "d3ffc94e62493d17caf3f9dbcdf1d6f1a9bab4485b373b34162fff1b40da9f6d",
        "cb3f50b89e9480401b0430127e65db2750cfb3ec184d5c5868546e112ac039c9",
        "74af357f59eda4039584773f2abdca8a3dff3ffa1246111cb5c91dd8e329c123")),
    "crafted": ([
        "note: raw cases row 6 rejected: unparseable date 'bad-date'",
        "warning: daily series: kl: 2020-03-08 missing status 'deceased', filled with 0",
        "note: events row 5 rejected: unparseable date '2020-03-xx'",
        *(f"warning: observed series: kl: no daily row for 2020-03-{day:02d}, filled with 0"
          for day in (1, 2, 5, 7, 11, 12)),
        "warning: observed series: kl: event count 2 on 2020-03-12 exceeds daily_confirmed 0",
        "warning: observed series: kl: event count 7 on 2020-03-04 exceeds daily_confirmed 5",
        "warning: observed series: kl: event count 1 on 2020-03-01 exceeds daily_confirmed 0",
        "warning: observed series: kl: event count 9 on 2020-03-06 exceeds daily_confirmed 7",
        "warning: kl: no endogenous cases on the first day (2020-03-01); "
        "the run without i_x stays at 0",
    ], ("37641d7f5df57b246a3c92c99dcc71c36c16ebe9d1211dc745606395abba6683",
        "516fca45b6b6af96a5684e13b1d1ecf5f4fe14b7f4a2dfe009d07f2c0d8e083a",
        "4666f0616cfeca54ee35c5ff209806087b20ef4edb9a498e5fcdc0b26ad4a717")),
}
_FIT_ARTIFACTS = ("comparison.json", "with_ix.csv", "without_ix.csv")


@pytest.mark.parametrize("case", sorted(GOLDEN_FIT))
def test_fit_matches_golden_output(tmp_path, capsys, case):
    err_lines, digests = GOLDEN_FIT[case]
    out = tmp_path / "out"
    if case == "crafted":
        inputs = tmp_path / "in"
        inputs.mkdir()
        argv = _crafted_fit_inputs(inputs)
    else:
        argv = _bundled_fit_inputs(case)
    assert main(["fit", *argv, "--out", str(out)]) == 0
    captured = capsys.readouterr()
    assert captured.out == "".join(f"wrote {out / name}\n" for name in _FIT_ARTIFACTS)
    assert captured.err.splitlines() == err_lines
    for name, digest in zip(_FIT_ARTIFACTS, digests):
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest, name


@pytest.mark.parametrize("bad", ["raw", "daily", "pop"])
def test_fit_non_utf8_input_exits_2(tmp_path, capsys, bad):
    paths = {"raw": DATA / "raw_cases.csv", "daily": DATA / "states_daily.csv",
             "pop": DATA / "populations.json"}
    paths[bad] = tmp_path / f"{bad}.bin"
    paths[bad].write_bytes(b"\xff\xfe\x00garbage\n")
    code = main(["fit", "--raw", str(paths["raw"]), "--daily", str(paths["daily"]),
                 "--state", "kl", "--pop-config", str(paths["pop"]),
                 "--out", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    assert len(errors) == 1 and str(paths[bad]) in errors[0]
    assert "Traceback" not in err


def test_fit_without_events_flag(tmp_path):
    code = main(["fit", "--raw", str(DATA / "raw_cases.csv"),
                 "--daily", str(DATA / "states_daily.csv"),
                 "--state", "kl", "--pop-config", str(DATA / "populations.json"),
                 "--out", str(tmp_path)])
    assert code == 0
    report = json.loads((tmp_path / "comparison.json").read_text())
    assert report["state"] == "kl"


def test_fit_degrades_without_exogenous_cases(tmp_path, capsys):
    raw = tmp_path / "raw.csv"
    raw.write_text("DateAnnounced,DetectedState,TypeOfTransmission\n"
                   "2020-03-01,Kerala,Local\n")
    daily = tmp_path / "daily.csv"
    lines = ["date,status,kl"]
    confirmed = [5, 4, 3, 2, 1]
    recovered = [0, 2, 4, 6, 8]
    for day, (c, r) in enumerate(zip(confirmed, recovered), start=1):
        lines.append(f"2020-03-{day:02d},Confirmed,{c}")
        lines.append(f"2020-03-{day:02d},Recovered,{r}")
        lines.append(f"2020-03-{day:02d},Deceased,0")
    daily.write_text("\n".join(lines) + "\n")
    pop = tmp_path / "pop.json"
    pop.write_text('{"kl": 10000}')
    code = main(["fit", "--raw", str(raw), "--daily", str(daily),
                 "--state", "kl", "--pop-config", str(pop), "--out", str(tmp_path)])
    assert code == 0
    assert "beta_x fixed at 0" in capsys.readouterr().err
    report = json.loads((tmp_path / "comparison.json").read_text())
    assert report["fitted"]["beta_x"] == 0.0
    assert report["with_ix"] == report["without_ix"]


def test_module_entry_point():
    proc = subprocess.run([sys.executable, "-m", "exosir.cli", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "simulate" in proc.stdout


def test_star_import_resolves_every_public_name():
    import exosir
    namespace = {}
    exec("from exosir import *", namespace)
    assert len(set(exosir.__all__)) == len(exosir.__all__)
    assert sorted(set(namespace) - {"__builtins__"}) == sorted(exosir.__all__)


def test_cli_import_leaves_scipy_and_orjson_unloaded():
    # only the sweep's OLS needs scipy and only CSV writing orjson, so a run that needs
    # neither, and the import itself, do not pay for them
    code = ("import sys, exosir.cli; exosir.cli.build_parser(); "
            "print(sorted(m for m in sys.modules if m.split('.')[0] in ('scipy', 'orjson')))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


_NUMBERS = st.one_of(st.floats(), st.sampled_from([-1.0, 0.0, 0.5, 1.0, 1.5, 1e300]))


def _flag_argv(flags: dict) -> list[str]:
    # --flag=value keeps argparse from reading "-inf" or "-1.0" as an option
    return [f"{flag}={value!r}" for flag, value in flags.items()]


def _exit_code(argv: list[str]) -> int:
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    assert "Traceback" not in err.getvalue()
    return code


@settings(max_examples=60, deadline=None, derandomize=True)
@given(model=st.sampled_from(["exo", "sir"]),
       flags=st.dictionaries(st.sampled_from(["--beta-x", "--beta-e", "--gamma", "--dt",
                                              "--s0", "--ie0", "--ix0", "--i0", "--r0"]),
                             _NUMBERS, max_size=4))
def test_simulate_numeric_flags_never_escape(tmp_path_factory, model, flags):
    out = tmp_path_factory.mktemp("simulate")
    argv = ["simulate", "--model", model, "--steps", "20", *_flag_argv(flags),
            "--out", str(out)]
    assert _exit_code(argv) in {0, 1, 2, 3}


@settings(max_examples=40, deadline=None, derandomize=True)
@given(flags=st.dictionaries(st.sampled_from(["--beta-x", "--beta-e", "--gamma"]),
                             _NUMBERS, min_size=1))
def test_network_numeric_flags_never_escape(tmp_path_factory, flags):
    out = tmp_path_factory.mktemp("network")
    argv = ["network", "--reps", "1", "--n", "12", "--max-ticks", "20",
            "--beta-x=0.1", "--beta-e=0.5", "--gamma=0.5", *_flag_argv(flags),
            "--out", str(out)]
    assert _exit_code(argv) in {0, 1, 2, 3}


_STEPS = st.one_of(st.sampled_from([float("nan"), float("inf"), -float("inf"), -1.0, 0.0,
                                    1e200, 1e300]),
                   st.floats(0.05, 5.0))


@settings(max_examples=30, deadline=None, derandomize=True)
@given(k=st.integers(2, 3), dt=_STEPS)
def test_sweep_numeric_flags_never_escape(tmp_path_factory, k, dt):
    out = tmp_path_factory.mktemp("sweep")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = _exit_code(["sweep", f"--k={k}", f"--dt={dt!r}", "--out", str(out)])
    assert code in {0, 1, 2, 3}
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


_FIT_INPUTS = {"--raw": DATA / "raw_cases.csv", "--daily": DATA / "states_daily.csv",
               "--events": DATA / "events_tn.csv", "--pop-config": DATA / "populations.json"}


@settings(max_examples=40, deadline=None, derandomize=True)
@given(state=st.sampled_from(["kl", "rj", "tn", "zz"]), horizon=st.integers(-3, 5000),
       events=st.booleans(), missing=st.sets(st.sampled_from(sorted(_FIT_INPUTS))))
def test_fit_argv_never_escapes(tmp_path_factory, state, horizon, events, missing):
    out = tmp_path_factory.mktemp("fit")
    argv = ["fit", "--state", state, f"--horizon={horizon}", "--out", str(out)]
    for flag, path in _FIT_INPUTS.items():
        if flag != "--events" or events:
            argv += [flag, str(out / "absent" if flag in missing else path)]
    assert _exit_code(argv) in {0, 1, 2, 3}
